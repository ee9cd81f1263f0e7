"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (no tolerances anywhere).  Run with ``pytest -s`` to
see the lines; any failure also fails the corresponding test.  The corpus
covers paths, the three-edge star, cycles, the complete four-vertex graph
with and without an edge, the six-vertex worked example, the three-triangle
book, and a seeded random graph with seven vertices and three chords.
"""

import itertools
import math
import random
import time

from coxgraph.corpus import cycle_graph, path_graph, y_graph
from coxgraph.embedding import (
    Classification,
    VerdictKind,
    cycle_rotation,
    equal,
    gamma,
    in_kernel,
    is_trivial,
    kernel_generator_parts,
    parse_word,
    phi,
    psi_gen,
    psi_perm,
    structure_report,
)
from coxgraph.freeprod import (
    FStarElement,
    SemidirectElement,
    component_exponents,
    fstar_mul,
    sd_mul,
)
from coxgraph.graphs import Graph, dual_graph, has_forbidden_fork
from coxgraph.oracle import (
    ab_rank,
    check_relators,
    identity_suite,
    parabolic_check,
    random_word,
)
from coxgraph.perms import Permutation, perm_of_word
from coxgraph.presentation import AGenerator, mu, tsaranov_presentation
from reference import bfs_group_order, fork_oracle, isomorphic

SEED = 2024


def _report(num: int, desc: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num:02d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_relator_soundness(corpus_contexts):
    start = time.perf_counter()
    ok = all(check_relators(ctx).ok for ctx in corpus_contexts.values())
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(1, f"relator soundness on {len(corpus_contexts)} graphs "
               f"({elapsed:.2f}s)", ok)


def test_criterion_02_tree_case(corpus_contexts):
    rng = random.Random(SEED)
    ok = True
    trees = [f"p{n}" for n in range(2, 8)] + ["y"]
    for name in trees:
        ctx = corpus_contexts[name]
        gens = [
            Permutation.transposition(ctx.n, e.a, e.b) for e in ctx.graph.edges
        ]
        ok = ok and bfs_group_order(gens) == math.factorial(ctx.n)
        for _ in range(500):
            w = random_word(rng, ctx.graph.labels)
            trivial = is_trivial(ctx, w).kind is VerdictKind.TRIVIAL
            ok = ok and trivial == perm_of_word(ctx.graph, w).is_identity()
    _report(2, "trees give the full symmetric group, words trivial iff "
               "their permutation is", ok)


def test_criterion_03_cycle_case(corpus_contexts):
    rng = random.Random(SEED)
    ok = True
    for n in range(3, 9):
        ctx = corpus_contexts[f"c{n}"]
        chord = ctx.chords[0]
        witnesses = []
        for _ in range(120):
            w = random_word(rng, ctx.graph.labels)
            _, fpart = in_kernel(ctx, w)
            witnesses.append(fpart)
            letters = {x for comp in fpart.components for x, _ in comp.letters}
            ok = ok and letters <= {chord}
        for p, q in itertools.combinations(witnesses, 2):
            if fstar_mul(p, q) != fstar_mul(q, p):
                ok = False
                break
        rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
        ok = ok and ab_rank(rows) == n - 1
    _report(3, "single-cycle graphs: commuting single-letter kernel, "
               "rank n-1", ok)


def test_criterion_04_worked_example(corpus_contexts):
    ctx = corpus_contexts["sixpts"]
    expected = [
        ("c e c x", AGenerator("x", 1, 4)),
        ("b d b y", AGenerator("y", 3, 6)),
        ("c a d a c z", AGenerator("z", 5, 6)),
    ]
    ok = True
    for text, gen in expected:
        img = phi(ctx, parse_word(text))
        want = SemidirectElement(Permutation.identity(6), mu(gen, 6))
        ok = ok and img == want
    _report(4, "six-vertex worked kernel elements come out exactly", ok)


def test_criterion_05_round_trips(corpus_contexts):
    rng = random.Random(SEED)
    ok = True
    for ctx in corpus_contexts.values():
        for _ in range(200):
            images = list(range(1, ctx.n + 1))
            rng.shuffle(images)
            s = Permutation(images)
            ok = ok and phi(ctx, psi_perm(ctx, s)) == SemidirectElement(
                s, FStarElement.identity(ctx.n)
            )
        for chord in ctx.chords:
            for i, j in itertools.permutations(range(1, ctx.n + 1), 2):
                img = phi(ctx, psi_gen(ctx, AGenerator(chord, i, j)))
                want = SemidirectElement(
                    Permutation.identity(ctx.n),
                    mu(AGenerator(chord, i, j), ctx.n),
                )
                ok = ok and img == want
        for e in ctx.graph.edges:
            img = phi(ctx, (e.label,))
            rebuilt = psi_perm(ctx, img.perm)
            if not ctx.is_tree_edge(e.label):
                rebuilt = rebuilt + psi_gen(ctx, AGenerator(e.label, e.a, e.b))
            ok = ok and phi(ctx, rebuilt) == img
            verdict = equal(ctx, rebuilt, (e.label,))
            ok = ok and verdict.kind is not VerdictKind.NONTRIVIAL
    _report(5, "both round trips are exact on every corpus graph", ok)


def test_criterion_06_gamma_laws(corpus_contexts):
    ok = True
    for ctx in corpus_contexts.values():
        for cyc in ctx.cycles:
            tau = cycle_rotation(ctx, cyc)
            end = cyc.local_to_global[-1]
            start = cyc.local_to_global[0]
            gam = {a: phi(ctx, gamma(ctx, cyc, a)) for a in range(1, ctx.n + 1)}
            for a in range(1, ctx.n + 1):
                want = SemidirectElement(tau, mu(AGenerator(cyc.chord, a, end),
                                                 ctx.n))
                ok = ok and gam[a] == want
            for j in range(1, ctx.n + 1):
                ok = ok and sd_mul(gam[j], gam[end]) == sd_mul(
                    gam[start], gam[tau(j)]
                )
            for i in range(1, ctx.n + 1):
                for j in range(1, ctx.n + 1):
                    ok = ok and sd_mul(gam[j], gam[tau(i)]) == sd_mul(
                        gam[i], gam[tau(j)]
                    )
            m, lg = cyc.m, cyc.local_to_global
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    lhs = sd_mul(gam[lg[j - 1]], gam[lg[(i - 2) % m]])
                    rhs = sd_mul(gam[lg[i - 1]], gam[lg[(j - 2) % m]])
                    ok = ok and lhs == rhs
    _report(6, "loop-element laws hold for every cycle of every graph", ok)


def test_criterion_07_identity_suite():
    ok = True
    for n, t in [(5, 3), (6, 3), (4, 2)]:
        report = identity_suite(seed=SEED, n=n, t=t, trials=1000)
        ok = ok and report.ok
    _report(7, "3000 seeded identity trials, zero failures", ok)


def test_criterion_08_structure_reports(corpus_contexts):
    c6 = structure_report(corpus_contexts["c6"])
    y = structure_report(corpus_contexts["y"])
    six = structure_report(corpus_contexts["sixpts"])
    k4 = structure_report(corpus_contexts["k4"])
    ok = (
        c6.classification is Classification.VIRTUALLY_ABELIAN
        and c6.kernel_ab_rank == 5
        and y.classification is Classification.SYMMETRIC_GROUP
        and six.classification is Classification.CONTAINS_FREE_SUBGROUP
        and six.kernel_ab_rank == 15
        and k4.is_k4
        and not k4.word_problem_exact
    )
    _report(8, "structure reports match the known classifications", ok)


def test_criterion_09_parabolic_consistency(corpus_contexts):
    ok = True
    pairs = 0
    for name, ctx in corpus_contexts.items():
        subs = [sorted(ctx.tree.tree_edges)]
        for cyc in ctx.cycles:
            subs.append(sorted((cyc.chord,) + cyc.cycle_edges))
        for sub in subs:
            report = parabolic_check(ctx, sub, samples=500, seed=SEED)
            ok = ok and report.ok
            pairs += 1
    _report(9, f"parabolic verdicts agree on {pairs} (graph, subgraph) "
               f"pairs x 500 samples", ok)


def test_criterion_10_tsaranov():
    rep = tsaranov_presentation(3, 3, 3)
    ok = (
        rep.n == 5
        and rep.t == 3
        and rep.extra_relators == "x_i^2 x_j^-2 (x in X, i != j)"
    )
    _report(10, "hexagon parameters give n=5, t=3 and the squared-generator "
                "relator family", ok)


def test_criterion_11_dual_and_fork():
    ok = isomorphic(dual_graph(y_graph()), cycle_graph(3))
    for n in range(3, 9):
        ok = ok and isomorphic(dual_graph(cycle_graph(n)), cycle_graph(n))
    base = list(itertools.combinations(range(1, 6), 2))
    for k in range(1, 6):
        for chosen in itertools.combinations(base, k):
            n = max(v for pair in chosen for v in pair)
            g = Graph(n, [(f"e{i}", a, b) for i, (a, b) in enumerate(chosen)])
            ok = ok and has_forbidden_fork(g)[0] == fork_oracle(g)
    ok = ok and isomorphic(dual_graph(path_graph(4)), path_graph(3))
    _report(11, "dual-graph isomorphisms and exhaustive fork agreement", ok)
