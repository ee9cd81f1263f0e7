"""Reference implementations that tests compare the library against.

A plain module, not a conftest: test modules import from it directly.
"""

from typing import Sequence

from coxgraph.freeprod import FStarElement, fstar_mul
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
    return fstar_mul(FStarElement.single(n, gen.i, gen.chord, 1),
                     FStarElement.single(n, gen.j, gen.chord, -1))


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
