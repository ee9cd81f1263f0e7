import math
import random
import re
import tracemalloc

import pytest

from coxgraph import embedding, oracle
from coxgraph.corpus import cycle_graph, path_graph, sixpts_graph
from coxgraph.embedding import (
    VerdictKind,
    build_context,
    is_trivial,
    kernel_generator_parts,
)
from coxgraph.freeprod import (
    FStarElement,
    ReducedWord,
    SemidirectElement,
    component_exponents,
    fstar_mul,
    reduce,
    sn_act_f,
)
from coxgraph.graphs import edge_subgraph, parse_graph
from coxgraph.oracle import (
    OracleReport,
    ab_rank,
    check_relators,
    full_suite,
    group_order,
    identity_suite,
    parabolic_check,
    random_word,
    random_words,
)
from coxgraph.perms import Permutation, compose
from coxgraph.presentation import AGenerator, mu, relators
from reference import bfs_group_order, identity_suite_per_trial, integer_rank


# ---------------------------------------------------------- check_relators


def test_relators_pass_on_corpus(corpus_contexts):
    for name, ctx in corpus_contexts.items():
        report = check_relators(ctx)
        assert report.ok, (name, report.failures[:3])
        assert report.checks_run > 0


def test_single_edge_graph():
    report = check_relators(build_context(parse_graph("1 2 a")))
    assert report.ok
    # only the involution relator exists, checked once per evaluation map
    assert report.checks_run == 2


def test_mutated_convention_fails():
    """Negative control: evaluating with the flipped composition convention
    (the left factor's permutation acting on the right factor's free part)
    must break some defining relator."""
    ctx = build_context(sixpts_graph())

    def bad_phi(w):
        acc = SemidirectElement.identity(ctx.n)
        for label in w:
            h = ctx.letter_image(label)
            acc = SemidirectElement(
                compose(acc.perm, h.perm),
                fstar_mul(acc.f, sn_act_f(acc.perm, h.f)),
            )
        return acc

    failures = [
        rel
        for rel in relators(ctx.graph, "coxy")
        if not bad_phi(rel).is_identity()
    ]
    assert failures


def _rewired(graph, label, a, b):
    """A fresh context whose evaluator moves edge ``label`` across vertices
    a and b instead of its own endpoints: a planted evaluation fault."""
    ctx = build_context(graph)
    _, _, plus, minus = ctx.steps[label]
    ctx.steps[label] = (a - 1, b - 1, plus, minus)
    return ctx


def test_relator_failure_text():
    """Planted fault: a rewired edge kills relators, and each failing one is
    rendered with its image."""
    square = parse_graph("1 2 a\n2 3 b\n3 4 c\n1 4 x\n")
    assert check_relators(_rewired(square, "a", 1, 3)).render() == (
        "FAIL relators (21 checks)\n"
        "  semidirect-image: a c a c: expected identity, got (1 3 4) | 1"
    )
    triangle = parse_graph("1 2 a\n2 3 b\n1 3 x\n")
    assert check_relators(_rewired(triangle, "x", 1, 2)).render() == (
        "FAIL relators (13 checks)\n"
        "  semidirect-image: a x a x a x: expected identity, "
        "got () | 1: x x x, 2: x^-1 x^-1 x^-1"
    )


def test_permutation_failure_text(monkeypatch):
    """Planted fault: a permutation evaluator that reads the word's first
    letter once more kills every symmetric relator, each rendered with its
    permutation."""
    real = oracle.perm_of_word
    monkeypatch.setattr(oracle, "perm_of_word",
                        lambda g, w: real(g, tuple(w) + tuple(w[:1])))
    assert check_relators(build_context(path_graph(3))).render() == (
        "FAIL relators (6 checks)\n"
        "  permutation-image: a a: expected (), got (1 2)\n"
        "  permutation-image: b b: expected (), got (2 3)\n"
        "  permutation-image: a b a b a b: expected (), got (1 2)"
    )


def test_corrupted_where_fails_relators(monkeypatch):
    """A relator's permutation is the identity, so its verdict comes from
    the evaluator state; a ``where`` corrupted there must still fail."""
    real_run = embedding._run

    def corrupted_run(ctx, w):
        where, slots = real_run(ctx, w)
        where[0], where[1] = where[1], where[0]
        return where, slots

    monkeypatch.setattr(embedding, "_run", corrupted_run)
    report = check_relators(build_context(sixpts_graph()))
    assert not report.ok
    assert {f[0] for f in report.failures} == {"semidirect-image"}
    assert len(report.failures) == len(relators(sixpts_graph(), "coxy"))


def test_report_rendering():
    report = check_relators(build_context(path_graph(3)))
    text = report.render()
    assert text.startswith("PASS relators (")
    assert "checks)" in text


# ------------------------------------------------------------- group order


def test_star_transpositions_generate_s4():
    gens = [Permutation.transposition(4, 1, k) for k in (2, 3, 4)]
    assert bfs_group_order(gens) == 24


def test_path_transpositions_generate_s5():
    gens = [Permutation.transposition(5, i, i + 1) for i in range(1, 5)]
    assert bfs_group_order(gens) == 120


def test_single_transposition():
    assert bfs_group_order([Permutation.transposition(3, 1, 2)]) == 2


def test_no_generators():
    assert bfs_group_order([]) == 1


def test_group_order_known_groups():
    cases = [
        ([Permutation.transposition(4, 1, k) for k in (2, 3, 4)], 24),
        ([Permutation.transposition(5, i, i + 1) for i in range(1, 5)], 120),
        ([Permutation.transposition(3, 1, 2)], 2),
        ([], 1),
        # intransitive: orbits {1,2,3} and {4,5}, C3 x C2
        ([Permutation.from_cycles(5, [(1, 2, 3)]),
          Permutation.transposition(5, 4, 5)], 6),
        # imprimitive: blocks {1,2}, {3,4}, {5,6}, the wreath product C2 wr C3
        ([Permutation.transposition(6, 1, 2),
          Permutation.from_cycles(6, [(1, 3, 5), (2, 4, 6)])], 2**3 * 3),
    ]
    for gens, expected in cases:
        assert group_order(gens) == bfs_group_order(gens) == expected


def _random_generating_sets(rng, n):
    """Seeded generating sets on 1..n: arbitrary, intransitive (each
    generator preserves 1..m and m+1..n) and imprimitive (each preserves
    the blocks {1,2}, {3,4}, ...)."""
    def arbitrary():
        return Permutation(rng.sample(range(1, n + 1), n))

    def intransitive(m):
        return Permutation(rng.sample(range(1, m + 1), m)
                           + rng.sample(range(m + 1, n + 1), n - m))

    def imprimitive():
        blocks = rng.sample(range(n // 2), n // 2)
        images = list(range(1, n + 1))
        for src, dst in enumerate(blocks):
            pair = [2 * dst + 1, 2 * dst + 2]
            rng.shuffle(pair)
            images[2 * src:2 * src + 2] = pair
        return Permutation(images)

    yield []
    for k in (1, 2, 3):
        yield [arbitrary() for _ in range(k)]
        m = rng.randint(1, n)
        yield [intransitive(m) for _ in range(k)]
        yield [imprimitive() for _ in range(k)]


def test_group_order_matches_bfs():
    rng = random.Random(8)
    for n in range(1, 8):
        for _ in range(3):
            for gens in _random_generating_sets(rng, n):
                assert group_order(gens) == bfs_group_order(gens), (
                    n, [g.images for g in gens])


def test_group_order_matches_bfs_on_mixed_sets():
    """Differential over 300 seeded generating sets on 2..6 points, each a
    mix of transpositions and random permutations: stopping the chain at
    n! never changes the order."""
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(2, 6)
        gens = [Permutation.transposition(n, *rng.sample(range(1, n + 1), 2))
                if rng.random() < 0.5 else Permutation(rng.sample(range(1, n + 1), n))
                for _ in range(rng.randint(1, 4))]
        assert group_order(gens) == bfs_group_order(gens), (n, [g.images for g in gens])


def test_group_order_below_full_runs_to_the_end():
    """Groups that are not the full symmetric group never reach n!."""
    pairs = ((1, 2), (2, 3), (3, 4), (5, 6))
    s4_x_s2 = [Permutation.transposition(6, a, b) for a, b in pairs]
    assert group_order(s4_x_s2) == 48
    a5 = [Permutation.from_cycles(5, [cycle]) for cycle in ((1, 2, 3), (1, 2, 3, 4, 5))]
    assert group_order(a5) == 60


def test_group_order_of_path_on_nine_points():
    gens = [Permutation.transposition(9, i, i + 1) for i in range(1, 9)]
    assert group_order(gens) == math.factorial(9)


def test_group_order_of_s40():
    gens = [Permutation.transposition(40, i, i + 1) for i in range(1, 40)]
    assert group_order(gens) == math.factorial(40)


def test_group_order_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        group_order([Permutation.identity(3), Permutation.identity(4)])


def test_order_guard():
    gens = [Permutation.transposition(11, i, i + 1) for i in range(1, 11)]
    with pytest.raises(OverflowError):
        bfs_group_order(gens, limit=10**5)


# ----------------------------------------------------------------- ab_rank


def test_rank_sixpts_kernel():
    ctx = build_context(sixpts_graph())
    rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
    assert ab_rank(rows) == 15


def test_rank_c4_kernel():
    ctx = build_context(cycle_graph(4))
    rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
    assert ab_rank(rows) == 3


def test_rank_tree_is_zero():
    ctx = build_context(path_graph(4))
    assert ab_rank([component_exponents(f) for f in kernel_generator_parts(ctx)]) == 0


def test_rank_dependent_rows():
    rows = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"a": 0, "b": 1}]
    assert ab_rank(rows) == 2


def test_rank_needs_no_floats():
    # fraction-free elimination must survive awkward pivots exactly
    rows = [
        {1: 3, 2: 7, 3: 2},
        {1: 6, 2: 14, 3: 5},
        {1: 9, 2: 21, 3: 6},
    ]
    assert ab_rank(rows) == 2


def _random_rank_case(rng):
    """Sparse rows and the same rows as a dense matrix: no rows at all,
    small entries, many zeros (some stored explicitly), and rows that are
    integer combinations of earlier ones; keys are (label, slot) pairs as
    in the kernel rows."""
    cols = rng.randint(1, 7)
    keys = [(rng.choice("xyz"), slot) for slot in range(1, cols + 1)]
    dense = []
    for _ in range(rng.randint(0, 7)):
        if dense and rng.random() < 0.4:
            coeffs = [rng.randint(-2, 2) for _ in dense]
            dense.append([sum(c * r[j] for c, r in zip(coeffs, dense))
                          for j in range(cols)])
        else:
            dense.append([rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(cols)])
    sparse = []
    for r in dense:
        order = list(range(cols))
        rng.shuffle(order)
        sparse.append({keys[j]: r[j] for j in order if r[j] or rng.random() < 0.3})
    return sparse, dense


def test_rank_matches_dense_reference():
    rng = random.Random(41)
    for _ in range(3000):
        sparse, dense = _random_rank_case(rng)
        assert ab_rank(sparse) == integer_rank(dense), dense


def _large_graph(n, t, seed):
    """A seeded random connected graph: tree edges t01.. from each vertex
    to an earlier one, then t chords x01.. on pairs not yet joined, so the
    minimum-label spanning tree is the t-edges."""
    rng = random.Random(seed)
    lines, pairs = [], set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        pairs.add((u, v))
        lines.append(f"{u} {v} t{v - 1:02d}")
    free = sorted({(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)} - pairs)
    for k, (u, v) in enumerate(rng.sample(free, t), start=1):
        lines.append(f"{u} {v} x{k:02d}")
    return parse_graph("\n".join(lines))


def test_full_suite_on_large_graph():
    """n=40, t=30: the kernel rows span 1170 dimensions, which a dense
    elimination takes over a minute to confirm."""
    ctx = build_context(_large_graph(40, 30, 40))
    assert (ctx.n, ctx.t) == (40, 30)
    reports = full_suite(ctx, 1, 20)
    assert all(r.ok for r in reports), [r.render() for r in reports if not r.ok]
    rank = next(r for r in reports if r.name == "kernel-rank")
    assert rank.checks_run == 1
    rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
    assert ab_rank(rows) == 1170


class _Unprintable(int):
    def __str__(self):
        raise AssertionError("a passing check was rendered")


def test_report_renders_failures_only(monkeypatch):
    """The one-check reports of ``full_suite`` render their values only for
    a failing check: a passing group order that cannot be printed is just
    counted, and planted faults fail with the expected and computed value."""
    monkeypatch.setattr(oracle, "group_order", lambda gens: _Unprintable(24))
    monkeypatch.setattr(oracle, "ab_rank", lambda rows: 1)
    reports = {r.name: r for r in full_suite(build_context(cycle_graph(4)), 1, 1)}
    assert reports["symmetric-order"].render() == "PASS symmetric-order (1 checks)"
    assert reports["kernel-rank"].render() == (
        "FAIL kernel-rank (1 checks)\n  abelianized-rank: t=1 n=4: expected 3, got 1")
    monkeypatch.setattr(oracle, "group_order", lambda gens: 5)
    reports = {r.name: r for r in full_suite(build_context(cycle_graph(4)), 1, 1)}
    assert reports["symmetric-order"].render() == (
        "FAIL symmetric-order (1 checks)\n  closure-size: n=4: expected 24, got 5")

# ----------------------------------------------------------- identity suite


def test_identity_suite_clean():
    report = identity_suite(seed=1, n=5, t=3, trials=400)
    assert report.ok
    assert report.checks_run == 400 * 10


def test_identity_suite_deterministic():
    a = identity_suite(seed=9, n=6, t=2, trials=100)
    b = identity_suite(seed=9, n=6, t=2, trials=100)
    assert (a.checks_run, a.failures) == (b.checks_run, b.failures)


def test_identity_suite_small_quotient_side():
    # the free-group side satisfies everything even at n = 4, t = 3; this
    # says nothing about the abstract group there
    assert identity_suite(seed=1, n=4, t=3, trials=400).ok


def test_identity_suite_single_chord():
    assert identity_suite(seed=4, n=5, t=1, trials=200).ok


def flipped_mu(gen, n):
    """A planted fault: mu with every exponent made +1, so the second slot
    of each generator carries the wrong one."""
    f = mu(gen, n)
    return FStarElement(tuple(
        ReducedWord(tuple((x, 1) for x, _ in w.letters)) for w in f.components
    ))


def test_identity_suite_exercises_mu(monkeypatch):
    """Planted fault: a mu whose second slot carries the wrong exponent must
    fail the suite, so the sparse evaluation really goes through mu."""
    monkeypatch.setattr(oracle, "mu", flipped_mu)
    report = identity_suite(seed=1, n=5, t=2, trials=20)
    assert not report.ok
    check_id, inputs, expected, got = report.failures[0]
    assert check_id == "chain"
    v = dict(part.split("=") for part in inputs.split())
    i, j, k, x = int(v["i"]), int(v["j"]), int(v["k"]), v["x"]
    assert expected == f"{min(i, k)}: {x}, {max(i, k)}: {x}"
    assert f"{j}: {x} {x}" in got
    assert re.fullmatch(r"\d: [^,]+(, \d: [^,]+)*", got)


# Every failure the flipped mu gives in three trials, in order, with the
# exact inputs and both sides: the check order and the side texts are part
# of every replayable report.
EXPECTED_MU_FAILURES = "\n".join([
    "FAIL identity-suite(seed=1,n=5,t=2) (30 checks)",
    "  chain: i=2 j=1 k=5 l=4 x=x2 y=x2 z=x2 u=x2 v=x1 w=x1: "
    "expected 2: x2, 5: x2, "
    "got 1: x2 x2, 2: x2, 5: x2",
    "  reverse-chain: i=2 j=1 k=5 l=4 x=x2 y=x2 z=x2 u=x2 v=x1 w=x1: "
    "expected 2: x2, 5: x2, "
    "got 1: x2 x2, 2: x2, 5: x2",
    "  fork-exchange: i=2 j=1 k=5 l=4 x=x2 y=x2 z=x2 u=x2 v=x1 w=x1: "
    "expected 1: x1 x2, 2: x2 x1, 4: x1, 5: x1 x2 x2, "
    "got 1: x1 x2, 2: x2 x1, 4: x2 x2 x1, 5: x1",
    "  chain: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 2: x1, 4: x1, "
    "got 1: x1 x1, 2: x1, 4: x1",
    "  reverse-chain: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 2: x1, 4: x1, "
    "got 1: x1 x1, 2: x1, 4: x1",
    "  conjugated-commute: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1, 2: x2 x2 x2, 3: x2, 4: x2 x2 x1, "
    "got 1: x1, 2: x2 x2 x2, 3: x2, 4: x1 x2 x2",
    "  conjugated-commute-inv: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1, 2: x2 x2 x2, 3: x2, 4: x2 x2 x1, "
    "got 1: x1, 2: x2 x2 x2, 3: x2, 4: x1 x2 x2",
    "  triple-exchange-a: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x2 x2, 2: x1 x2, 4: x2 x1, "
    "got 1: x1 x1, 2: x1 x2, 4: x2 x1",
    "  triple-exchange-b: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x2 x2, 2: x1 x2, 4: x2 x1, "
    "got 1: x1 x1, 2: x1 x2, 4: x2 x1",
    "  triple-exchange-c: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x2 x2, 2: x1 x2, 4: x2 x1, "
    "got 1: x1 x1, 2: x1 x2, 4: x2 x1",
    "  fork-exchange: i=4 j=1 k=2 l=3 x=x1 y=x2 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1 x1, 2: x2 x1 x1, 3: x2, 4: x1 x1, "
    "got 1: x1 x1, 2: x2, 3: x1 x1 x2, 4: x1 x1",
    "  chain: i=1 j=5 k=4 l=3 x=x2 y=x1 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x2, 4: x2, "
    "got 1: x2, 4: x2, 5: x2 x2",
    "  reverse-chain: i=1 j=5 k=4 l=3 x=x2 y=x1 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x2, 4: x2, "
    "got 1: x2, 4: x2, 5: x2 x2",
    "  triple-exchange-a: i=1 j=5 k=4 l=3 x=x2 y=x1 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1 x2, 4: x2 x1, 5: x1 x1, "
    "got 1: x1 x2, 4: x2 x1, 5: x2 x2",
    "  triple-exchange-b: i=1 j=5 k=4 l=3 x=x2 y=x1 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1 x2, 4: x2 x1, 5: x1 x1, "
    "got 1: x1 x2, 4: x2 x1, 5: x2 x2",
    "  triple-exchange-c: i=1 j=5 k=4 l=3 x=x2 y=x1 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1 x2, 4: x2 x1, 5: x1 x1, "
    "got 1: x1 x2, 4: x2 x1, 5: x2 x2",
    "  fork-exchange: i=1 j=5 k=4 l=3 x=x2 y=x1 z=x2 u=x1 v=x1 w=x2: "
    "expected 1: x1 x1, 3: x2, 4: x2 x1 x1, 5: x1 x1, "
    "got 1: x1 x1, 3: x1 x1 x2, 4: x2, 5: x1 x1",
])


def test_identity_suite_failure_transcript(monkeypatch):
    monkeypatch.setattr(oracle, "mu", flipped_mu)
    report = identity_suite(seed=1, n=5, t=2, trials=3)
    assert report.render() == EXPECTED_MU_FAILURES


@pytest.mark.parametrize("faulty", [False, True])
def test_identity_suite_matches_every_trial_reference(monkeypatch, faulty):
    """Checking a repeated trial once changes nothing in the report, planted
    fault or not: the same count and the same failure lines, a repeated
    failing trial's lines again, also past the 24 distinct instances of
    n = 4, t = 1, and above the memo bound (n = 6, t = 3).  The reference
    runs once per case; a 100-trial suite is its first 100 trials."""
    if faulty:
        monkeypatch.setattr(oracle, "mu", flipped_mu)
    repeated = 0
    for n, t in ((4, 1), (5, 1), (4, 2), (6, 3)):
        for seed in range(1, 21):
            every_trial = identity_suite_per_trial(seed, n, t, 500)
            for trials in (100, 500):
                report = identity_suite(seed, n, t, trials)
                head = every_trial[:trials]
                assert report == OracleReport(
                    f"identity-suite(seed={seed},n={n},t={t})",
                    sum(laws for laws, _ in head),
                    [f for _, found in head for f in found]), (n, t, seed, trials)
                assert report.checks_run == 10 * trials
                repeated += len(report.failures) - len(set(report.failures))
    assert bool(repeated) == faulty


def _count_mul_calls(monkeypatch) -> list[int]:
    """Count the ``oracle._mul`` calls from now on in the returned list's
    one entry."""
    calls = [0]
    mul = oracle._mul

    def counting_mul(*factors):
        calls[0] += 1
        return mul(*factors)

    monkeypatch.setattr(oracle, "_mul", counting_mul)
    return calls


def test_identity_suite_checks_each_distinct_trial_once(monkeypatch):
    """Each distinct draw costs its 18 products once: n = 4, t = 1 has 24
    instances, so 200 trials repeat most of them."""
    calls = _count_mul_calls(monkeypatch)
    draws = set(oracle._trial_draws(random.Random(1), 4, ["x1"], 200))
    assert len(draws) < 200
    assert identity_suite(seed=1, n=4, t=1, trials=200).checks_run == 2000
    assert calls == [18 * len(draws)]


@pytest.mark.parametrize("n, t, memo", [(4, 3, True), (5, 3, False), (6, 3, False)],
                         ids=["k4", "book33", "sixpts"])
def test_identity_memo_bound(monkeypatch, n, t, memo):
    """A repeated draw is checked once only up to 2^16 distinct draws,
    n(n-1)(n-2)(n-3)·t^6: on k4 (17,496) but not on book33 (87,480) or
    sixpts (262,440), where every trial costs its 18 products."""
    calls = _count_mul_calls(monkeypatch)
    chords = [f"x{k}" for k in range(1, t + 1)]
    distinct = len(set(oracle._trial_draws(random.Random(1), n, chords, 2000)))
    assert distinct < 2000
    assert identity_suite(seed=1, n=n, t=t, trials=2000).checks_run == 20_000
    assert calls == [18 * (distinct if memo else 2000)]


def test_identity_memory_does_not_grow_with_trials():
    """Above the memo bound no trial's result is kept, so 2,000 trials at
    n = 12, t = 3 peak within 64 KB of 250 (a memo of every draw took about
    0.5 MB more)."""
    identity_suite(1, 12, 3, 10)

    def peak(trials):
        tracemalloc.start()
        try:
            report = identity_suite(1, 12, 3, trials)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok and report.checks_run == 10 * trials
        return top

    assert peak(2_000) - peak(250) < 64 * 1024


def _random_fstar(rng, n):
    return FStarElement(tuple(
        reduce((rng.choice("xy"), rng.choice((1, -1)))
               for _ in range(rng.randrange(4)))
        for _ in range(n)
    ))


def test_slot_words_render_like_fstar():
    """Integer-coded elements decode to the ``FStarElement`` text."""
    codes = {}

    def round_trip(f):
        return oracle._decode(oracle._encode(f, codes), oracle._letters(codes))

    f = mu(AGenerator("x", 1, 4), 5)
    assert round_trip(f) == str(f) == "1: x, 4: x^-1"
    assert codes == {"x": 1}
    assert oracle._decode({}, oracle._letters(codes)) == "1"
    rng = random.Random(7)
    for _ in range(500):
        f = _random_fstar(rng, 5)
        assert round_trip(f) == str(f)
    assert codes == {"x": 1, "y": 2}


def test_slot_words_product_matches_fstar_mul():
    """The suite's own slotwise product of integer-coded elements agrees
    with freeprod's, cancelling whole slots away too."""
    rng = random.Random(12)
    codes = {}
    cancelled = 0
    for _ in range(2000):
        p, q = _random_fstar(rng, 4), _random_fstar(rng, 4)
        if rng.random() < 0.3:
            q = FStarElement(tuple(w.inverse() for w in p.components))
        product = oracle._mul(oracle._encode(p, codes), oracle._encode(q, codes))
        assert product == oracle._encode(fstar_mul(p, q), codes)
        assert oracle._decode(product, oracle._letters(codes)) == str(fstar_mul(p, q))
        cancelled += not product and p != FStarElement.identity(4)
    assert cancelled > 100


def test_nary_product_matches_chained_products():
    """``_mul`` of k factors equals the chain of binary products and the
    ``fstar_mul`` fold, whole slots cancelling away included, and leaves
    every factor as it was."""
    rng = random.Random(31)
    codes = {}
    cancelled = 0
    for _ in range(1500):
        dense = [_random_fstar(rng, 5) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.4:
            at = rng.randrange(1, len(dense) + 1)
            undo = tuple(w.inverse() for w in dense[at - 1].components)
            dense.insert(at, FStarElement(undo))
        factors = [oracle._encode(f, codes) for f in dense]
        before = [dict(f) for f in factors]
        chained, fold = factors[0], dense[0]
        for f, g in zip(factors[1:], dense[1:]):
            chained, fold = oracle._mul(chained, f), fstar_mul(fold, g)
        product = oracle._mul(*factors)
        assert product == chained == oracle._encode(fold, codes)
        assert factors == before
        assert product is not factors[0]
        cancelled += len(product) < max(len(f) for f in factors)
    assert cancelled > 100


@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_trial_draws_match_sample_and_choice(t):
    """The suite's chords come from ``_choices``, so its draws must be what
    ``rng.sample`` of four slots and then six ``rng.choice`` of a chord
    return, leaving the generator in the same state."""
    chords = [f"x{k}" for k in range(1, t + 1)]
    for n in (4, 5, 9, 21, 22, 30):
        for seed in range(20):
            ours, plain = random.Random(seed), random.Random(seed)
            expected = [
                (*plain.sample(range(1, n + 1), 4),
                 *(plain.choice(chords) for _ in range(6)))
                for _ in range(30)
            ]
            assert list(oracle._trial_draws(ours, n, chords, 30)) == expected, (n, seed)
            assert ours.getstate() == plain.getstate(), (n, seed)


def test_identity_suite_rejects_bad_parameters():
    with pytest.raises(ValueError):
        identity_suite(seed=1, n=3, t=1, trials=10)
    with pytest.raises(ValueError):
        identity_suite(seed=1, n=5, t=0, trials=10)


# -------------------------------------------------------------- parabolic


def test_random_word_stream_is_unchanged():
    """Seeded words are part of every parabolic report: the generator must
    draw exactly what the plain loop over ``rng.choice`` draws."""
    labels = ["a", "b", "c", "x", "y"]
    for seed in range(300):
        ours, plain = random.Random(seed), random.Random(seed)
        for max_len in (0, 1, 2, 16, 40):
            expected = tuple(
                plain.choice(labels) for _ in range(plain.randrange(max_len + 1))
            )
            assert random_word(ours, labels, max_len) == expected
        assert ours.random() == plain.random()


def test_random_word_stream_rejection_edges():
    """Label counts 1, 2, 4 and 7: one bit with rejection, powers of two
    with none, and the worst case just below a power of two."""
    for count in (1, 2, 4, 7):
        labels = [f"e{k}" for k in range(count)]
        for seed in range(200):
            ours, plain = random.Random(seed), random.Random(seed)
            for max_len in (0, 1, 5, 16, 60):
                expected = tuple(
                    plain.choice(labels)
                    for _ in range(plain.randrange(max_len + 1))
                )
                assert random_word(ours, labels, max_len) == expected
            assert ours.getrandbits(64) == plain.getrandbits(64)


def test_random_word_without_labels():
    assert random_word(random.Random(1), [], 0) == ()
    with pytest.raises(IndexError):
        random_word(random.Random(1), [], 5)


@pytest.mark.parametrize("max_len", [0, 1, 16])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
def test_random_words_match_randrange_and_choice(count, max_len):
    """One call draws the words that ``rng.randrange`` for each length and
    ``rng.choice`` for each letter draw, and leaves the generator in the
    same state."""
    labels = [f"e{k}" for k in range(count)]
    for seed in range(60):
        ours, plain = random.Random(seed), random.Random(seed)
        expected = [
            tuple(plain.choice(labels) for _ in range(plain.randrange(max_len + 1)))
            for _ in range(seed % 30)
        ]
        assert list(random_words(ours, labels, seed % 30, max_len)) == expected
        assert ours.getstate() == plain.getstate()


def test_random_words_without_labels():
    """No labels: empty words while the drawn lengths are 0, then the
    ``IndexError`` that ``rng.choice`` raises, at the first nonzero length."""
    words_first = 0
    for seed in range(40):
        plain = random.Random(seed)
        empty = 0
        while plain.randrange(3) == 0:
            empty += 1
        assert list(random_words(random.Random(seed), [], empty, 2)) == [()] * empty
        with pytest.raises(IndexError):
            list(random_words(random.Random(seed), [], empty + 1, 2))
        words_first += empty > 0
    assert words_first > 5
    assert list(random_words(random.Random(1), [], 5, 0)) == [()] * 5
    with pytest.raises(ValueError):
        list(random_words(random.Random(1), ["a"], 1, -1))

def test_parabolic_spanning_tree(corpus_contexts):
    ctx = corpus_contexts["sixpts"]
    report = parabolic_check(ctx, sorted(ctx.tree.tree_edges), 200, 2)
    assert report.ok


def test_parabolic_basic_cycle(corpus_contexts):
    ctx = corpus_contexts["sixpts"]
    cyc = ctx.cycle_by_chord["x"]
    report = parabolic_check(ctx, [cyc.chord, *cyc.cycle_edges], 500, 2)
    assert report.ok


def test_parabolic_single_edge(corpus_contexts):
    ctx = corpus_contexts["sixpts"]
    report = parabolic_check(ctx, ["a"], 300, 2)
    assert report.ok
    # and indeed: a word in one involution is trivial iff its length is even
    sub_ctx = build_context(edge_subgraph(ctx.graph, ["a"]))
    assert is_trivial(sub_ctx, ("a",) * 4).kind is VerdictKind.TRIVIAL
    assert is_trivial(sub_ctx, ("a",) * 3).kind is VerdictKind.NONTRIVIAL


def test_parabolic_inside_k4(corpus_contexts):
    ctx = corpus_contexts["k4"]
    report = parabolic_check(ctx, ["a", "b", "d"], 300, 5)
    assert report.ok


def test_parabolic_failure_text():
    """Planted fault: the host moves edge a across vertices disjoint from
    b's, so a and b commute there.  Words trivial in the subgraph come out
    nontrivial in the host and vice versa; on the complete four-vertex
    host a trivial image reads as the quotient-level verdict."""
    words = ("b b b b a b a a a b b b b b a a", "a b a b a b",
             "a b b a a b a b b b")
    six = parabolic_check(_rewired(sixpts_graph(), "a", 1, 4), ["a", "b"], 10, 17)
    assert six.render() == "\n".join([
        "FAIL parabolic(a,b,seed=17) (10 checks)",
        f"  verdict-agreement: {words[0]}: expected nontrivial, got trivial",
        f"  verdict-agreement: {words[1]}: expected trivial, got nontrivial",
        f"  verdict-agreement: {words[2]}: expected nontrivial, got trivial",
    ])
    k4 = parse_graph("1 2 a\n1 3 b\n1 4 c\n2 3 d\n2 4 e\n3 4 f\n")
    host = parabolic_check(_rewired(k4, "a", 2, 4), ["a", "b"], 10, 17)
    assert host.render() == "\n".join([
        "FAIL parabolic(a,b,seed=17) (10 checks)",
        f"  verdict-agreement: {words[0]}: expected nontrivial, got quotient",
        f"  verdict-agreement: {words[1]}: expected trivial, got nontrivial",
        f"  verdict-agreement: {words[2]}: expected nontrivial, got quotient",
    ])


def test_parabolic_memory_does_not_grow_with_samples(corpus_contexts):
    """Words are drawn and checked one at a time, so 20,000 samples peak
    within 64 KB of 200."""
    ctx = corpus_contexts["p3"]
    sub = sorted(ctx.tree.tree_edges)
    parabolic_check(ctx, sub, 10, 1)

    def peak(samples):
        tracemalloc.start()
        try:
            report = parabolic_check(ctx, sub, samples, 1)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok and report.checks_run == samples
        return top

    assert peak(20_000) - peak(200) < 64 * 1024


def test_parabolic_rejects_disconnected(corpus_contexts):
    with pytest.raises(ValueError):
        parabolic_check(corpus_contexts["sixpts"], ["a", "e"], 10, 1)


def test_parabolic_rejects_complete4(corpus_contexts):
    with pytest.raises(ValueError):
        parabolic_check(corpus_contexts["k4"], list("abcdef"), 10, 1)
