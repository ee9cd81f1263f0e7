import random
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxgraph import presentation
from coxgraph.corpus import cycle_graph, path_graph, random7_graph, sixpts_graph, y_graph
from coxgraph.freeprod import FStarElement, erase_letter, fstar_mul
from coxgraph.graphs import cycle_rank, spanning_tree
from coxgraph.perms import Permutation
from coxgraph.presentation import (
    TSARANOV_MAX_N,
    AGenerator,
    ParameterError,
    mu,
    mu_word,
    act_a,
    relators,
    tsaranov_presentation,
)
from coxgraph.freeprod import ReducedWord, sn_act_f
from reference import mu_by_products, single

slots = st.integers(min_value=1, max_value=6)
perms6 = st.permutations(list(range(1, 7))).map(Permutation)


# ------------------------------------------------------------ normal forms


def test_mu_diagonal_is_identity():
    assert mu(AGenerator("x", 3, 3), 5).is_identity()


def test_mu_explicit_slots():
    p = mu(AGenerator("x", 1, 4), 6)
    assert str(p) == "1: x, 4: x^-1"
    assert p == fstar_mul(single(6, 1, "x"), single(6, 4, "x", -1))


def test_mu_out_of_range():
    with pytest.raises(ValueError):
        mu(AGenerator("x", 0, 2), 4)
    with pytest.raises(ValueError):
        mu(AGenerator("x", 1, 7), 6)


@pytest.mark.parametrize("n", range(1, 10))
def test_mu_matches_product_construction(n):
    """The directly built normal form equals the product of one-letter
    elements for every slot pair, and each slot word is freely reduced."""
    for chord in ("x", "y12"):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = mu(AGenerator(chord, i, j), n)
                assert got == mu_by_products(AGenerator(chord, i, j), n)
                assert all(ReducedWord(w.letters) == w for w in got.components)


@pytest.mark.parametrize("i, j, n", [(0, 2, 4), (1, 7, 6), (7, 1, 6), (-1, 3, 5),
                                     (10, 10, 9)])
def test_mu_out_of_range_message(i, j, n):
    gen = AGenerator("x", i, j)
    with pytest.raises(ValueError) as direct:
        mu(gen, n)
    with pytest.raises(ValueError) as reference:
        mu_by_products(gen, n)
    expected = f"slots out of range 1..{n}: {gen}"
    assert str(direct.value) == str(reference.value) == expected


@given(slots, slots, slots)
def test_mu_chain_law(i, j, k):
    lhs = fstar_mul(mu(AGenerator("x", i, j), 6), mu(AGenerator("x", j, k), 6))
    assert lhs == mu(AGenerator("x", i, k), 6)


@given(slots, slots, slots)
def test_mu_reverse_chain_law(i, j, k):
    lhs = fstar_mul(mu(AGenerator("x", j, k), 6), mu(AGenerator("x", i, j), 6))
    assert lhs == mu(AGenerator("x", i, k), 6)


# ----------------------------------------------------------------- action


def test_act_identity():
    g = AGenerator("x", 1, 3)
    assert act_a(Permutation.identity(4), g) == g


def test_act_transposition():
    s = Permutation.transposition(4, 1, 2)
    assert act_a(s, AGenerator("x", 1, 3)) == AGenerator("x", 2, 3)


@given(perms6, slots, slots)
def test_act_equivariant_with_mu(s, i, j):
    g = AGenerator("x", i, j)
    assert mu(act_a(s, g), 6) == sn_act_f(s, mu(g, 6))


# ---------------------------------------------------------------- relators


def test_p3_relator_set_exact():
    rs = relators(path_graph(3), "coxy")
    assert set(rs) == {
        ("a", "a"),
        ("b", "b"),
        ("a", "b", "a", "b", "a", "b"),
    }


def test_y_graph_single_fork():
    rs = relators(y_graph(), "coxy")
    forks = [r for r in rs if len(r) == 8]
    assert len(forks) == 1
    assert forks[0] == ("a", "b", "c", "b", "a", "b", "c", "b")


def test_triangle_cycle_relator_shape():
    rs = relators(cycle_graph(3), "symmetric")
    cycles = [r for r in rs if len(r) == 4]
    # u1 u2 = u2 u3 with chord c, tree edges a, b
    assert cycles == [("c", "a", "b", "a")]


def test_coxeter_subset_of_coxy():
    g = sixpts_graph()
    assert set(relators(g, "coxeter")) <= set(relators(g, "coxy"))
    assert set(relators(g, "coxy")) <= set(relators(g, "symmetric"))


def test_unknown_presentation_rejected():
    with pytest.raises(ValueError):
        relators(path_graph(3), "frobnicate")


def test_mu_kills_all_generator_relators():
    for g in (sixpts_graph(), cycle_graph(5)):
        rs = relators(g, "atn")
        for rel in rs:
            assert mu_word(rel, g.n).is_identity(), rel


def test_atn_relators_are_over_the_chords():
    """Every generator of the "atn" presentation is over a chord, and each
    chord has one; the mutant of ``_atn_relators`` that takes the tree
    edges (``not in`` -> ``in``) fails here."""
    for g in (sixpts_graph(), cycle_graph(5), random7_graph()):
        chords = set(g.labels) - spanning_tree(g).tree_edges
        used = {gen.chord for rel in relators(g, "atn") for gen, _ in rel}
        assert used == chords


def test_atn_disjoint_commutators_cover_every_slot_tuple():
    """For each pair of chords, one commutator per ordered tuple of four
    distinct slots, so slot 1 takes part; the mutant of
    ``_disjoint_commutators`` over ``range(2, n + 1)`` fails here."""
    g = sixpts_graph()
    chords = sorted(set(g.labels) - spanning_tree(g).tree_edges)
    commutators = [rel for rel in relators(g, "atn") if len(rel) == 4]
    for x, y in combinations_with_replacement(chords, 2):
        tuples = [(a.i, a.j, b.i, b.j) for (a, _), (b, _), _, _ in commutators
                  if (a.chord, b.chord) == (x, y)]
        assert sorted(tuples) == list(permutations(range(1, g.n + 1), 4))


def test_mu_kills_random_disjoint_commutators():
    rng = random.Random(5)
    for _ in range(300):
        i, j, k, l = rng.sample(range(1, 8), 4)
        x, y = rng.choice("xyz"), rng.choice("xyz")
        a, b = mu(AGenerator(x, i, j), 7), mu(AGenerator(y, k, l), 7)
        assert fstar_mul(a, b) == fstar_mul(b, a)


def test_single_chord_images_commute():
    # one chord: all generator images commute pairwise
    n = 5
    gens = [
        mu(AGenerator("x", i, j), n)
        for i, j in permutations(range(1, n + 1), 2)
    ]
    for a, b in combinations(gens, 2):
        assert fstar_mul(a, b) == fstar_mul(b, a)


def test_erasure_retracts_onto_smaller_alphabet():
    rng = random.Random(6)
    n = 5
    for _ in range(100):
        factors = [
            mu(AGenerator(rng.choice("xyz"), *rng.sample(range(1, n + 1), 2)), n)
            for _ in range(6)
        ]
        p = reduce(fstar_mul, factors[:3])
        q = reduce(fstar_mul, factors[3:])
        kept = [erase_letter(f, "z") for f in factors]
        assert erase_letter(fstar_mul(p, q), "z") == fstar_mul(
            reduce(fstar_mul, kept[:3]), reduce(fstar_mul, kept[3:])
        )


def test_generator_display():
    assert str(AGenerator("x", 1, 4)) == "x_{14}"
    assert str(AGenerator("x", 10, 4)) == "x_{10,4}"


# ---------------------------------------------------------------- tsaranov


def test_tsaranov_hexagon():
    rep = tsaranov_presentation(3, 3, 3)
    assert rep.n == 5
    assert rep.t == 3
    assert rep.extra_relators == "x_i^2 x_j^-2 (x in X, i != j)"
    assert cycle_rank(rep.graph) == 3


def test_tsaranov_no_triangles():
    rep = tsaranov_presentation(2, 3, 0)
    assert rep.n == 7
    assert rep.t == 0
    assert rep.extra_relators == "none"
    assert cycle_rank(rep.graph) == 0


def test_tsaranov_mixed():
    rep = tsaranov_presentation(2, 2, 1)
    assert (rep.n, rep.t) == (5, 1)
    assert cycle_rank(rep.graph) == 1


def test_tsaranov_rejects_bad_parameters():
    with pytest.raises(ValueError):
        tsaranov_presentation(1, 3, 2)
    with pytest.raises(ValueError):
        tsaranov_presentation(3, 1, 2)


def test_tsaranov_bad_parameters_raise_parameter_error():
    for a, b, t in ((1, 3, 2), (3, 1, 2), (2, 2, -1)):
        with pytest.raises(ParameterError, match=f"got a={a} b={b} t={t}"):
            tsaranov_presentation(a, b, t)


def test_tsaranov_vertex_bound(monkeypatch):
    # a + b + 2 - t vertices: the bound itself is built, one past it is not
    half = TSARANOV_MAX_N // 2
    assert tsaranov_presentation(half, half - 1, 1).n == TSARANOV_MAX_N

    def unbuilt(*args):
        raise AssertionError("built a graph past the bound")

    monkeypatch.setattr(presentation, "tsaranov_graph", unbuilt)
    for a, b, t in ((half, half - 1, 0), (TSARANOV_MAX_N - 1, 2, 2)):
        with pytest.raises(ParameterError, match=f"got {TSARANOV_MAX_N + 1}"):
            tsaranov_presentation(a, b, t)


def test_tsaranov_chord_count_matches_t():
    for a, b, t in [(3, 3, 3), (4, 3, 2), (2, 2, 0), (5, 5, 1)]:
        rep = tsaranov_presentation(a, b, t)
        t0 = spanning_tree(rep.graph)
        assert len(rep.graph.edges) - len(t0.tree_edges) == t
