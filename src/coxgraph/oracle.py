"""Independent brute-force verifiers.

Everything here cross-checks the main maps without trusting them: relator
images are evaluated letter by letter, group orders come from a
Schreier-Sims stabilizer chain, ranks from exact sparse elimination, and
the algebraic identities from explicit normal-form arithmetic.  All
randomness is seeded so every failure is replayable.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import repeat

from ._record import Record
from .embedding import (
    Context,
    build_context,
    is_trivial,
    kernel_generator_parts,
    phi,
    trivial_image,
)
from .freeprod import FStarElement, ReducedWord, component_exponents
from .graphs import edge_subgraph
from .perms import Permutation, perm_of_word
from .presentation import AGenerator, mu, relators

# The symmetric-order report runs for n up to this; raising it adds a
# report line to ``verify`` on larger graphs.
ORDER_CHECK_MAX_N = 9

# The identity suite reuses a repeated trial's result only on graphs with at
# most this many distinct draws, n(n-1)(n-2)(n-3)·t^6; above it repeats are
# rare, and a memo would grow with the trial count.
IDENTITY_MEMO_MAX_INSTANCES = 2 ** 16

Failure = tuple[str, str, str, str]  # (check id, inputs, expected, got)


class OracleReport(Record):
    __slots__ = ("name", "checks_run", "failures")

    def __init__(self, name: str, checks_run: int, failures: list[Failure]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "checks_run", checks_run)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status} {self.name} ({self.checks_run} checks)"]
        for check_id, inputs, expected, got in self.failures:
            lines.append(f"  {check_id}: {inputs}: expected {expected}, got {got}")
        return "\n".join(lines)


def check_relators(ctx: Context) -> OracleReport:
    """Every defining relator must die: the fork-quotient relators under the
    semidirect evaluation, the full symmetric-group relators under the bare
    permutation evaluation.  ``trivial_image`` decides each fork-quotient
    relator; ``phi`` renders one only when it fails.
    """
    coxy = relators(ctx.graph, "coxy")
    symmetric = relators(ctx.graph, "symmetric")
    failures = [("semidirect-image", " ".join(rel), "identity", str(phi(ctx, rel)))
                for rel in coxy if not trivial_image(ctx, rel)]
    for rel in symmetric:
        img = perm_of_word(ctx.graph, rel)
        if not img.is_identity():
            failures.append(("permutation-image", " ".join(rel), "()", str(img)))
    return OracleReport("relators", len(coxy) + len(symmetric), failures)


def group_order(gens: Sequence[Permutation]) -> int:
    """Order of the permutation group generated by gens, from a
    deterministic Schreier-Sims stabilizer chain (Sims 1970; Seress,
    Permutation Group Algorithms, 2003).

    Level i of the chain holds a base point b_i, the strong generators
    fixing b_0..b_{i-1}, and the orbit of b_i under them, each orbit point
    with a coset representative mapping b_i to it.  A level is complete
    when every Schreier generator of every (orbit point, generator) pair
    sifts through the deeper levels.  A nonidentity residue joins every
    level from the next one down to the one where its sifting stopped,
    and those levels are completed again, deepest first.  The order is
    then the product of the orbit lengths.

    Each choice of one coset representative per level multiplies to a
    different group element, so the chain stops once that product is n!.
    """
    if not gens:
        return 1
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError(f"size mismatch in generators of S_{n}")
    ident = tuple(range(n))
    # 0-based images; p then q is tuple(map(q.__getitem__, p)).
    top = [q for q in (tuple(b - 1 for b in g.images) for g in gens) if q != ident]
    if not top:
        return 1
    chain = _Chain(n, top)
    chain.complete(0)
    return chain.order


class _Chain:
    """A stabilizer chain being built, with the product of its orbit
    lengths; its methods recurse through ``self``, so a finished chain
    leaves no reference cycle behind."""

    __slots__ = ("n", "ident", "full", "order", "levels")

    def __init__(self, n: int, top: list[tuple[int, ...]]):
        self.n, self.ident = n, tuple(range(n))
        self.full, self.order = math.factorial(n), 1
        self.levels = [_Level(next(p for p in range(n) if top[0][p] != p), n)]
        self.levels[0].gens.extend(top)

    def sift(self, h: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        levels = self.levels
        for k in range(start, len(levels)):
            lvl = levels[k]
            x = h[lvl.base]
            if x == lvl.base:
                continue
            if x not in lvl.inverses:
                return h, k
            h = tuple(map(lvl.inverses[x].__getitem__, h))
        return h, len(levels)

    def complete(self, i: int) -> bool:
        """Complete level i; True once the order reaches n!."""
        levels = self.levels
        lvl = levels[i]
        while lvl.gens_done < len(lvl.gens) or lvl.points_done < len(lvl.reps):
            orbit = list(lvl.reps)
            if lvl.gens_done < len(lvl.gens):
                points = orbit[:lvl.points_done]
                new = lvl.gens[lvl.gens_done:]
                lvl.gens_done = len(lvl.gens)
            else:
                points = orbit[lvl.points_done:]
                new = lvl.gens[:lvl.gens_done]
                lvl.points_done = len(orbit)
            for x in points:
                rep = lvl.reps[x]
                for s in new:
                    y = s[x]
                    step = tuple(map(s.__getitem__, rep))
                    if y not in lvl.reps:
                        self.order = self.order // len(lvl.reps) * (len(lvl.reps) + 1)
                        lvl.add_point(y, step)
                        if self.order == self.full:
                            return True
                        continue
                    h, j = self.sift(tuple(map(lvl.inverses[y].__getitem__, step)), i + 1)
                    if h == self.ident:
                        continue
                    if j == len(levels):
                        levels.append(_Level(next(p for p in range(self.n) if h[p] != p),
                                             self.n))
                    for k in range(i + 1, j + 1):
                        levels[k].gens.append(h)
                    if any(self.complete(k) for k in range(j, i, -1)):
                        return True
        return False


class _Level:
    """One level of a stabilizer chain: orbit points in discovery order,
    each with its coset representative and that one's inverse, and the
    progress through the (orbit point, generator) pairs whose Schreier
    generators are checked."""

    __slots__ = ("base", "gens", "reps", "inverses", "gens_done", "points_done")

    def __init__(self, base: int, n: int):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.reps: dict[int, tuple[int, ...]] = {}
        self.inverses: dict[int, tuple[int, ...]] = {}
        self.gens_done = 0
        self.points_done = 0
        self.add_point(base, tuple(range(n)))

    def add_point(self, x: int, rep: tuple[int, ...]) -> None:
        inv = [0] * len(rep)
        for a, b in enumerate(rep):
            inv[b] = a
        self.reps[x] = rep
        self.inverses[x] = tuple(inv)


def ab_rank(rows: Iterable[Mapping]) -> int:
    """Rank over Q of sparse integer rows (sortable key -> entry), by exact
    elimination: a row is reduced at its smallest key c to ``a·row − b·pivot``
    over its content (a, b the entries at c of c's pivot row and the row)
    until it vanishes or c has no pivot row, whose row it becomes.  Leading
    keys rise and a ≠ 0, so the rank is the number of pivot rows."""
    pivots: dict = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            a, b = pivot[c], row[c]
            row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                row[k] = row.get(k, 0) - b * v
            content = math.gcd(*row.values())
            row = {k: v // content for k, v in row.items() if v}
    return len(pivots)


def _mul(first: dict, *rest: dict) -> dict:
    """The product, left to right, of sparse elements of the product of free
    groups (slot -> nonempty reduced tuple of letter codes, -c the inverse of
    c), slot by slot with cancellation at the seam; the factors are kept."""
    out = first.copy()
    for other in rest:
        for slot, b in other.items():
            a = out.get(slot)
            if a is None:
                out[slot] = b
            elif a[-1] != -b[0]:
                out[slot] = a + b
            else:
                k, m = len(a) - 1, 1
                while k and m < len(b) and a[k - 1] == -b[m]:
                    k -= 1
                    m += 1
                if k or m < len(b):
                    out[slot] = a[:k] + b[m:]
                else:
                    del out[slot]
    return out


def _encode(f: FStarElement, codes: dict[str, int]) -> dict[int, tuple[int, ...]]:
    """f on its nonidentity slots, x^e coded as e times the code of x; a new
    letter gets the next code from 1."""
    return {slot: tuple(codes.setdefault(x, len(codes) + 1) * e for x, e in w.letters)
            for slot, w in enumerate(f.components, start=1) if w.letters}


def _letters(codes: dict[str, int]) -> dict[int, str]:
    """Each signed code's letter as ``ReducedWord`` prints it: c -> ``x``,
    -c -> ``x^-1``."""
    return {e * c: str(ReducedWord._trusted(((x, e),)))
            for x, c in codes.items() for e in (1, -1)}


def _decode(element: dict[int, tuple[int, ...]], letters: dict[int, str]) -> str:
    """The ``FStarElement`` text of a sparse element, read through
    ``_letters(codes)``: ``1: x, 4: x^-1`` or ``1``."""
    return ", ".join(f"{slot}: {' '.join(map(letters.__getitem__, word))}"
                     for slot, word in sorted(element.items())) or "1"


class _Generators(dict):
    """(chord, i, j) -> x_{ij}'s ``mu``, encoded with ``codes`` on first
    lookup; ``letters`` decodes them, rebuilt only when ``codes`` grows."""

    def __init__(self, n: int, codes: dict[str, int]):
        self.n, self.codes, self.letters = n, codes, _letters(codes)

    def __missing__(self, key: tuple[str, int, int]) -> dict[int, tuple[int, ...]]:
        value = self[key] = _encode(mu(AGenerator(*key), self.n), self.codes)
        if len(self.letters) != 2 * len(self.codes):
            self.letters = _letters(self.codes)
        return value


def _trial_draws(rng: random.Random, n: int, chords: Sequence[str], trials: int):
    """Per trial, ``(i, j, k, l, x, y, z, u, v, w)``: ``rng.sample(range(1,
    n + 1), 4)`` and then what six ``rng.choice(chords)`` return."""
    draw, k_bits, slots = rng.getrandbits, len(chords).bit_length(), range(1, n + 1)
    for _ in range(trials):
        yield (*rng.sample(slots, 4), *_choices(draw, chords, k_bits, 6))


def identity_suite(seed: int, n: int, t: int, trials: int) -> OracleReport:
    """Random-instance verification of the kernel-generator identities in
    the product of free groups, via normal forms.

    Per trial: the diagonal units, the two chain laws, commutation of
    generators on disjoint slot sets (bare and conjugated, both ways), the
    three triple-exchange laws behind the braid relations, and the
    four-slot fork-exchange law.  Each generator is the normal form ``mu``
    gives, integer-coded.  Results are a pure function of the arguments, so
    where there are at most ``IDENTITY_MEMO_MAX_INSTANCES`` distinct draws,
    a repeated trial is checked once and its count and failures are reused;
    memory then depends on the graph, not on the trial count.
    """
    if t < 1 or n < 4:
        raise ValueError(f"need t >= 1 and n >= 4, got t={t} n={n}")
    chords = [f"x{k}" for k in range(1, t + 1)]
    cache = _Generators(n, {})
    memo = n * (n - 1) * (n - 2) * (n - 3) * t ** 6 <= IDENTITY_MEMO_MAX_INSTANCES
    done: dict[tuple, tuple[int, list[Failure]]] = {}  # draws -> _trial's result
    checks, failures = 0, []
    for draw in _trial_draws(random.Random(seed), n, chords, trials):
        laws, found = done.get(draw) or _trial(cache, *draw)
        if memo:
            done[draw] = laws, found
        checks += laws
        failures += found
    return OracleReport(f"identity-suite(seed={seed},n={n},t={t})", checks, failures)


def _trial(cache, i, j, k, l, x, y, z, u, v, w) -> tuple[int, list[Failure]]:
    """One identity-suite trial: the number of laws checked and the failures."""
    (x_ii, a, x_jk, x_ik, x_kj, x_ji, x_ki, b, y_ki, y_ji, y_kj, y_ik, y_ij, y_jk,
     z_ik, z_ki, u_li, u_jl, u_ki, u_jk, v_ij, w_lk) = map(cache.__getitem__, (
        (x, i, i), (x, i, j), (x, j, k), (x, i, k), (x, k, j), (x, j, i),
        (x, k, i), (y, k, l), (y, k, i), (y, j, i), (y, k, j), (y, i, k),
        (y, i, j), (y, j, k), (z, i, k), (z, k, i), (u, l, i), (u, j, l),
        (u, k, i), (u, j, k), (v, i, j), (w, l, k)))
    conj, conj_inv = _mul(z_ik, b, z_ki), _mul(z_ki, b, z_ik)
    sides = (
        ("unit-diagonal", x_ii, {}),
        ("chain", _mul(a, x_jk), x_ik),
        ("reverse-chain", _mul(x_jk, a), x_ik),
        ("disjoint-commute", _mul(a, b), _mul(b, a)),
        ("conjugated-commute", _mul(a, conj), _mul(conj, a)),
        ("conjugated-commute-inv", _mul(a, conj_inv), _mul(conj_inv, a)),
        ("triple-exchange-a", _mul(x_jk, y_ki, a), _mul(y_ji, x_ik, y_kj)),
        ("triple-exchange-b", _mul(x_jk, y_ik, a), _mul(y_ij, x_ik, y_jk)),
        ("triple-exchange-c", _mul(x_kj, y_ik, x_ji), _mul(y_ij, x_ki, y_jk)),
        ("fork-exchange", _mul(u_li, v_ij, u_jl, w_lk),
         _mul(w_lk, u_ki, v_ij, u_jk)),
    )
    failures = []
    for check_id, lhs, rhs in sides:
        if lhs != rhs:
            inputs = f"i={i} j={j} k={k} l={l} x={x} y={y} z={z} u={u} v={v} w={w}"
            failures.append((check_id, inputs, _decode(rhs, cache.letters),
                             _decode(lhs, cache.letters)))
    return len(sides), failures


def _choices(draw, labels: Sequence[str], k: int, count: int) -> list[str]:
    """What ``count`` calls of ``rng.choice(labels)`` return in CPython, with
    ``draw = rng.getrandbits`` and k the bit length of ``len(labels)``: each
    call draws ``getrandbits(k)`` until in range.  Rejections do not depend on
    one another, so each round draws one value per missing label."""
    size = len(labels)
    out: list[str] = []
    while len(out) < count:
        out += [labels[r] for r in map(draw, repeat(k, count - len(out)))
                if r < size]
    return out


def random_words(rng: random.Random, labels: Sequence[str], count: int,
                 max_len: int = 16) -> Iterator[tuple[str, ...]]:
    """``count`` uniform random words of uniform random length 0..max_len,
    each drawn when it is asked for, on the same stream as
    ``rng.randrange(max_len + 1)`` for each length and then
    ``rng.choice(labels)`` for each letter."""
    if max_len < 0:
        raise ValueError("empty range for randrange()")
    draw, span, size = rng.getrandbits, max_len + 1, len(labels)
    k_len, k = span.bit_length(), size.bit_length()
    for _ in range(count):
        length = draw(k_len)
        while length >= span:
            length = draw(k_len)
        if length and not size:
            raise IndexError("cannot draw a letter from no labels")
        yield tuple(_choices(draw, labels, k, length))


def random_word(rng: random.Random, labels: Sequence[str],
                max_len: int = 16) -> tuple[str, ...]:
    """The first word of ``random_words``, from the same stream."""
    return next(random_words(rng, labels, 1, max_len))


def parabolic_check(ctx: Context, sub_labels: Iterable[str], samples: int,
                    seed: int) -> OracleReport:
    """Random words over a connected edge subgraph get the same verdict
    computed in the subgraph's own context and in the host's.

    The subgraph must not be the complete four-vertex graph, so its
    verdict is exact: agreement means both images are trivial or neither
    is.  On a complete four-vertex host a trivial image is the
    quotient-level verdict, and reads as such in a failure.
    """
    sub_labels = sorted(sub_labels)
    sub_ctx = build_context(edge_subgraph(ctx.graph, sub_labels))
    if sub_ctx.is_k4:
        raise ValueError("the complete four-vertex subgraph is excluded")
    # One word at a time, so memory does not grow with the sample count.
    failures = [("verdict-agreement", " ".join(w) or "<empty>",
                 is_trivial(sub_ctx, w).kind.value, is_trivial(ctx, w).kind.value)
                for w in random_words(random.Random(seed), sub_labels, samples)
                if trivial_image(sub_ctx, w) != trivial_image(ctx, w)]
    return OracleReport(f"parabolic({','.join(sub_labels)},seed={seed})",
                        max(samples, 0), failures)


def full_suite(ctx: Context, seed: int, trials: int) -> list[OracleReport]:
    """The reports ``coxgraph verify`` prints, in order: relators, the
    symmetric group order (n up to ``ORDER_CHECK_MAX_N``), the kernel's
    abelianized rank, the identity suite (t >= 1 and n >= 4), and the
    parabolic checks on the spanning tree and on each basic cycle.
    """
    reports = [check_relators(ctx)]
    if ctx.n <= ORDER_CHECK_MAX_N:
        gens = [Permutation.transposition(ctx.n, e.a, e.b) for e in ctx.graph.edges]
        expected, got = math.factorial(ctx.n), group_order(gens)
        reports.append(OracleReport("symmetric-order", 1, [] if got == expected else [
            ("closure-size", f"n={ctx.n}", str(expected), str(got))]))
    rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
    expected, got = ctx.t * (ctx.n - 1), ab_rank(rows)
    reports.append(OracleReport("kernel-rank", 1, [] if got == expected else [
        ("abelianized-rank", f"t={ctx.t} n={ctx.n}", str(expected), str(got))]))
    if ctx.t >= 1 and ctx.n >= 4:
        reports.append(identity_suite(seed, ctx.n, ctx.t, trials))
    subgraphs = [sorted(ctx.tree.tree_edges)]
    subgraphs += [[cyc.chord, *cyc.cycle_edges] for cyc in ctx.cycles]
    reports += [parabolic_check(ctx, sub, trials, seed) for sub in subgraphs]
    return reports
