"""Independent brute-force verifiers.

Everything here cross-checks the main maps without trusting them: relator
images are evaluated letter by letter, group orders come from closure under
multiplication, ranks from fraction-free integer elimination, and the
algebraic identities from explicit normal-form arithmetic.  All randomness
is seeded so every failure is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .embedding import Context, build_context, is_trivial, phi
from .freeprod import FStarElement, fstar_mul, fstar_prod
from .graphs import edge_subgraph, is_connected
from .perms import Permutation, compose, perm_of_word
from .presentation import AGenerator, mu, relators

ORDER_CHECK_MAX_N = 9  # 9! stays under the closure guard

Failure = tuple[str, str, str, str]  # (check id, inputs, expected, got)


@dataclass
class OracleReport:
    name: str
    checks_run: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, check_id: str, inputs: str, expected: str, got: str,
               passed: bool) -> None:
        self.checks_run += 1
        if not passed:
            self.failures.append((check_id, inputs, expected, got))

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status} {self.name} ({self.checks_run} checks)"]
        for check_id, inputs, expected, got in self.failures:
            lines.append(f"  {check_id}: {inputs}: expected {expected}, got {got}")
        return "\n".join(lines)


def check_relators(ctx: Context) -> OracleReport:
    """Every defining relator must die: the fork-quotient relators under the
    semidirect evaluation, the full symmetric-group relators under the bare
    permutation evaluation.
    """
    report = OracleReport("relators")
    for rel in relators(ctx.graph, "coxy").relators:
        img = phi(ctx, rel)
        report.record(
            "semidirect-image", " ".join(rel), "identity", str(img),
            img.is_identity(),
        )
    for rel in relators(ctx.graph, "symmetric").relators:
        img = perm_of_word(ctx.graph, rel)
        report.record(
            "permutation-image", " ".join(rel), "()", str(img),
            img.is_identity(),
        )
    return report


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


def ab_rank(rows: Sequence[Mapping]) -> int:
    """Integer rank of exponent vectors via fraction-free elimination."""
    keys = sorted({k for row in rows for k in row})
    mat = [[row.get(k, 0) for k in keys] for row in rows]
    return _integer_rank(mat)


def _integer_rank(mat: list[list[int]]) -> int:
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


def identity_suite(seed: int, n: int, t: int, trials: int) -> OracleReport:
    """Random-instance verification of the kernel-generator identities in
    the product of free groups, via normal forms.

    Per trial: the diagonal units, the two chain laws, commutation of
    generators on disjoint slot sets (bare and conjugated, both ways), the
    three triple-exchange laws behind the braid relations, and the
    four-slot fork-exchange law.  Results are a pure function of the
    arguments.
    """
    if t < 1 or n < 4:
        raise ValueError(f"need t >= 1 and n >= 4, got t={t} n={n}")
    rng = random.Random(seed)
    chords = [f"x{k}" for k in range(1, t + 1)]
    report = OracleReport(f"identity-suite(seed={seed},n={n},t={t})")

    def gen(x: str, i: int, j: int) -> FStarElement:
        return mu(AGenerator(x, i, j), n)

    def check(check_id: str, lhs: FStarElement, rhs: FStarElement,
              inputs: str) -> None:
        report.record(check_id, inputs, str(rhs), str(lhs), lhs == rhs)

    one = FStarElement.identity(n)
    for _ in range(trials):
        i, j, k, l = rng.sample(range(1, n + 1), 4)
        x, y, z = (rng.choice(chords) for _ in range(3))
        u, v, w = (rng.choice(chords) for _ in range(3))
        ctx_str = f"i={i} j={j} k={k} l={l} x={x} y={y} z={z} u={u} v={v} w={w}"

        check("unit-diagonal", gen(x, i, i), one, ctx_str)
        check("chain", fstar_mul(gen(x, i, j), gen(x, j, k)), gen(x, i, k), ctx_str)
        check("reverse-chain", fstar_mul(gen(x, j, k), gen(x, i, j)),
              gen(x, i, k), ctx_str)
        a, b = gen(x, i, j), gen(y, k, l)
        check("disjoint-commute", fstar_mul(a, b), fstar_mul(b, a), ctx_str)
        conj = fstar_prod(n, [gen(z, i, k), gen(y, k, l), gen(z, k, i)])
        check("conjugated-commute", fstar_mul(a, conj), fstar_mul(conj, a), ctx_str)
        conj2 = fstar_prod(n, [gen(z, k, i), gen(y, k, l), gen(z, i, k)])
        check("conjugated-commute-inv", fstar_mul(a, conj2),
              fstar_mul(conj2, a), ctx_str)
        check(
            "triple-exchange-a",
            fstar_prod(n, [gen(x, j, k), gen(y, k, i), gen(x, i, j)]),
            fstar_prod(n, [gen(y, j, i), gen(x, i, k), gen(y, k, j)]),
            ctx_str,
        )
        check(
            "triple-exchange-b",
            fstar_prod(n, [gen(x, j, k), gen(y, i, k), gen(x, i, j)]),
            fstar_prod(n, [gen(y, i, j), gen(x, i, k), gen(y, j, k)]),
            ctx_str,
        )
        check(
            "triple-exchange-c",
            fstar_prod(n, [gen(x, k, j), gen(y, i, k), gen(x, j, i)]),
            fstar_prod(n, [gen(y, i, j), gen(x, k, i), gen(y, j, k)]),
            ctx_str,
        )
        s = l  # fourth distinct slot
        check(
            "fork-exchange",
            fstar_prod(n, [gen(u, s, i), gen(v, i, j), gen(u, j, s), gen(w, s, k)]),
            fstar_prod(n, [gen(w, s, k), gen(u, k, i), gen(v, i, j), gen(u, j, k)]),
            ctx_str,
        )
    return report


def random_word(rng: random.Random, labels: Sequence[str],
                max_len: int = 16) -> tuple[str, ...]:
    return tuple(rng.choice(labels) for _ in range(rng.randrange(max_len + 1)))


def parabolic_check(ctx: Context, sub_labels: Iterable[str], samples: int,
                    seed: int) -> OracleReport:
    """Random words over a connected edge subgraph get the same verdict
    computed in the subgraph's own context and in the host's.

    The subgraph must not be the complete four-vertex graph.  On a complete
    four-vertex host, a quotient-level trivial verdict counts as agreement
    with the subgraph's exact trivial verdict.
    """
    sub_labels = sorted(sub_labels)
    sub, _ = edge_subgraph(ctx.graph, sub_labels)
    if not is_connected(sub):
        raise ValueError("subgraph must be connected")
    if sub.n == 4 and len(sub.edges) == 6:
        raise ValueError("the complete four-vertex subgraph is excluded")
    sub_ctx = build_context(sub)
    rng = random.Random(seed)
    report = OracleReport(f"parabolic({','.join(sub_labels)},seed={seed})")
    for _ in range(samples):
        w = random_word(rng, sub_labels)
        inner = is_trivial(sub_ctx, w)
        outer = is_trivial(ctx, w)
        if ctx.is_k4:
            agree = inner.is_trivial() == outer.trivial_image()
        else:
            agree = inner.kind == outer.kind
        report.record(
            "verdict-agreement", " ".join(w) or "<empty>",
            inner.kind.value, outer.kind.value, agree,
        )
    return report
