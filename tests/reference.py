"""Reference implementations that tests compare the library against.

A plain module, not a conftest: test modules import from it directly.
"""

import itertools
import random
from typing import Sequence

from coxgraph import oracle
from coxgraph.freeprod import FStarElement, ReducedWord, fstar_mul
from coxgraph.graphs import Graph
from coxgraph.perms import Permutation, compose
from coxgraph.presentation import AGenerator


def bfs_group_order(gens: Sequence[Permutation], limit: int = 10**6) -> int:
    """Order of the permutation group generated by gens, by breadth-first
    closure under right multiplication.  Guarded: raises past the limit.
    """
    if not gens:
        return 1
    n = gens[0].n
    identity = Permutation.identity(n)
    seen = {identity.images}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = compose(g, h)
                if prod.images not in seen:
                    seen.add(prod.images)
                    nxt.append(prod)
                    if len(seen) > limit:
                        raise OverflowError(f"group order exceeds guard {limit}")
        frontier = nxt
    return len(seen)


def mu_by_products(gen: AGenerator, n: int) -> FStarElement:
    """The normal form of x_{ij} as a product of one-letter elements: the
    chord letter at slot i times its inverse at slot j, checked by the
    validating constructors; the identity when i = j."""
    if not (1 <= gen.i <= n and 1 <= gen.j <= n):
        raise ValueError(f"slots out of range 1..{n}: {gen}")
    if gen.i == gen.j:
        return FStarElement.identity(n)
    return fstar_mul(single(n, gen.i, gen.chord, 1), single(n, gen.j, gen.chord, -1))


def single(n: int, slot: int, label: str, exp: int = 1) -> FStarElement:
    """The element with one letter at the given slot, identity elsewhere,
    built by the validating constructors."""
    comps = [ReducedWord()] * n
    comps[slot - 1] = ReducedWord(((label, exp),))
    return FStarElement(tuple(comps))


def components_by_walk(g: Graph) -> list[tuple[int, ...]]:
    """Connected components by a depth-first walk from every vertex not yet
    seen: each sorted, in order of their smallest vertex."""
    seen: set[int] = set()
    comps = []
    for start in g.vertices():
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w, _ in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def fork_oracle(g: Graph) -> bool:
    """Exhaustive injective embedding of the fork pattern (three edges out
    of a middle vertex)."""
    adj = {(e.a, e.b) for e in g.edges} | {(e.b, e.a) for e in g.edges}
    for mid, x, y, z in itertools.permutations(g.vertices(), 4):
        if (mid, x) in adj and (mid, y) in adj and (mid, z) in adj:
            return True
    return False


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether some bijection of the vertices maps g1's edges onto g2's,
    tried one permutation at a time."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    pairs2 = {(e.a, e.b) for e in g2.edges}
    for images in itertools.permutations(range(1, g1.n + 1)):
        relabel = dict(zip(range(1, g1.n + 1), images))
        if all(
            (min(relabel[e.a], relabel[e.b]), max(relabel[e.a], relabel[e.b]))
            in pairs2
            for e in g1.edges
        ):
            return True
    return False


def integer_rank(mat: list[list[int]]) -> int:
    """Rank of a dense integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so no fractions arise."""
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def identity_suite_per_trial(seed: int, n: int, t: int,
                             trials: int) -> list[tuple[int, list]]:
    """Per trial of ``oracle.identity_suite``, the number of laws checked and
    the failures, every trial checked, a repeated one too: the same draws,
    generators (through ``oracle.mu`` at call time), laws and failure texts,
    with nothing reused between trials.  The draws of k trials are the first
    k draws of more, so the first k entries are the k-trial suite's."""
    if t < 1 or n < 4:
        raise ValueError(f"need t >= 1 and n >= 4, got t={t} n={n}")
    chords = [f"x{k}" for k in range(1, t + 1)]
    results = []
    cache = oracle._Generators(n, {})
    mul = oracle._mul
    draws = oracle._trial_draws(random.Random(seed), n, chords, trials)
    for i, j, k, l, x, y, z, u, v, w in draws:
        (x_ii, a, x_jk, x_ik, x_kj, x_ji, x_ki, b, y_ki, y_ji, y_kj, y_ik, y_ij, y_jk,
         z_ik, z_ki, u_li, u_jl, u_ki, u_jk, v_ij, w_lk) = map(cache.__getitem__, (
            (x, i, i), (x, i, j), (x, j, k), (x, i, k), (x, k, j), (x, j, i),
            (x, k, i), (y, k, l), (y, k, i), (y, j, i), (y, k, j), (y, i, k),
            (y, i, j), (y, j, k), (z, i, k), (z, k, i), (u, l, i), (u, j, l),
            (u, k, i), (u, j, k), (v, i, j), (w, l, k)))
        conj, conj_inv = mul(z_ik, b, z_ki), mul(z_ki, b, z_ik)
        sides = (
            ("unit-diagonal", x_ii, {}),
            ("chain", mul(a, x_jk), x_ik),
            ("reverse-chain", mul(x_jk, a), x_ik),
            ("disjoint-commute", mul(a, b), mul(b, a)),
            ("conjugated-commute", mul(a, conj), mul(conj, a)),
            ("conjugated-commute-inv", mul(a, conj_inv), mul(conj_inv, a)),
            ("triple-exchange-a", mul(x_jk, y_ki, a), mul(y_ji, x_ik, y_kj)),
            ("triple-exchange-b", mul(x_jk, y_ik, a), mul(y_ij, x_ik, y_jk)),
            ("triple-exchange-c", mul(x_kj, y_ik, x_ji), mul(y_ij, x_ki, y_jk)),
            ("fork-exchange", mul(u_li, v_ij, u_jl, w_lk),
             mul(w_lk, u_ki, v_ij, u_jk)),
        )
        inputs = f"i={i} j={j} k={k} l={l} x={x} y={y} z={z} u={u} v={v} w={w}"
        results.append((len(sides), [
            (check_id, inputs, oracle._decode(rhs, cache.letters),
             oracle._decode(lhs, cache.letters))
            for check_id, lhs, rhs in sides if lhs != rhs]))
    return results
