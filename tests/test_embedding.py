import random
import sys
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxgraph import embedding
from coxgraph.corpus import complete4, cycle_graph, path_graph, sixpts_graph
from coxgraph.embedding import (
    Classification,
    TextWord,
    VerdictKind,
    build_context,
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
    reverse_word,
    structure_report,
    tilde,
    tilde_word,
    trivial_image,
)
from coxgraph.freeprod import (
    FStarElement,
    ReducedWord,
    SemidirectElement,
    component_exponents,
    sd_inv,
    sd_mul,
)
from coxgraph.graphs import DisconnectedError, Graph, UnknownLabelError, parse_graph
from coxgraph.perms import Permutation, compose, perm_of_word
from coxgraph.presentation import AGenerator, mu, relators
from coxgraph.oracle import ab_rank, random_word

from strategies import random_connected_graphs


@pytest.fixture(scope="module")
def sixpts_ctx():
    return build_context(sixpts_graph())


@pytest.fixture(scope="module")
def triangle_ctx():
    return build_context(cycle_graph(3))


# ---------------------------------------------------------------- context


def test_context_tree_graph():
    ctx = build_context(path_graph(3))
    assert ctx.t == 0 and not ctx.is_k4


def test_context_cycle():
    ctx = build_context(cycle_graph(5))
    assert ctx.t == 1


def test_context_k4_flag():
    assert build_context(complete4()).is_k4
    assert not build_context(sixpts_graph()).is_k4


def test_context_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        build_context(parse_graph("1 2 a\n3 4 b"))


# --------------------------------------------------------------- evaluation


def test_tree_edge_maps_to_bare_transposition(sixpts_ctx):
    img = phi(sixpts_ctx, ("a",))
    assert img.perm == Permutation.transposition(6, 1, 2)
    assert img.f.is_identity()


def test_sixpts_chord_conjugates(sixpts_ctx):
    # the worked kernel elements of the six-vertex example, exactly
    for text, gen in [
        ("c e c x", AGenerator("x", 1, 4)),
        ("b d b y", AGenerator("y", 3, 6)),
        ("c a d a c z", AGenerator("z", 5, 6)),
    ]:
        img = phi(sixpts_ctx, parse_word(text))
        assert img.perm.is_identity()
        assert img.f == mu(gen, 6)


def test_triangle_chord_palindrome(triangle_ctx):
    # hand multiplication with the fixed conventions
    img = phi(triangle_ctx, parse_word("c a b a"))
    assert img.perm.is_identity()
    assert img.f == FStarElement(
        (ReducedWord((("c", -1),)), ReducedWord(), ReducedWord((("c", 1),)))
    )


def test_phi_unknown_label(triangle_ctx):
    with pytest.raises(KeyError, match="unknown edge label 'nope'"):
        phi(triangle_ctx, ("nope",))
    with pytest.raises(KeyError, match="unknown edge label 'q'"):
        phi(triangle_ctx, ("a", "c", "q", "b"))


def test_unknown_label_error(triangle_ctx):
    """phi and Graph.edge raise the one user-error type, a KeyError whose
    text is unchanged."""
    for call in (lambda: phi(triangle_ctx, ("a", "q")),
                 lambda: triangle_ctx.graph.edge("q")):
        with pytest.raises(UnknownLabelError) as info:
            call()
        assert isinstance(info.value, KeyError)
        assert info.value.args == ("unknown edge label 'q'",)


def test_phi_perm_part_matches_word_evaluation(corpus_contexts):
    rng = random.Random(11)
    for ctx in corpus_contexts.values():
        labels = ctx.graph.labels
        for _ in range(500):
            w = random_word(rng, labels, 12)
            assert phi(ctx, w).perm == perm_of_word(ctx.graph, w)


def _fold(ctx, w):
    """The reference evaluation: the sd_mul fold of the letter images."""
    images = (ctx.letter_image(x) for x in w)
    return reduce(sd_mul, images, SemidirectElement.identity(ctx.n))


def test_phi_matches_fold_on_corpus(corpus_contexts):
    rng = random.Random(17)
    for ctx in corpus_contexts.values():
        labels = ctx.graph.labels
        words = [()] + [(x,) for x in labels]
        words += [(x, y) for x in labels for y in labels]
        for length in (3, 10, 40, 150, 300):
            words.append(tuple(rng.choice(labels) for _ in range(length)))
        for w in words:
            assert phi(ctx, w) == _fold(ctx, w), w


def _with_k4(g):
    """The graph with every missing edge among vertices 1..4 added."""
    have = {frozenset((e.a, e.b)) for e in g.edges}
    extra = [
        (f"k{a}{b}", a, b)
        for a in range(1, 5) for b in range(a + 1, 5)
        if frozenset((a, b)) not in have
    ]
    return Graph(g.n, [(e.label, e.a, e.b) for e in g.edges] + extra)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_phi_matches_fold_on_random_graphs(data):
    g = data.draw(random_connected_graphs())
    if g.n >= 4 and data.draw(st.booleans()):
        g = _with_k4(g)
    ctx = build_context(g)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for length in (0, 1, 2, rng.randrange(3, 300)):
        w = tuple(rng.choice(g.labels) for _ in range(length))
        assert phi(ctx, w) == _fold(ctx, w)


def _assert_passes_validation(g):
    """phi builds its result without validation; the public validating
    constructors must accept every part of it."""
    assert Permutation(g.perm.images) == g.perm
    for w in g.f.components:
        assert ReducedWord(w.letters) == w


def test_phi_results_validate_on_corpus(corpus_contexts):
    rng = random.Random(23)
    for ctx in corpus_contexts.values():
        labels = ctx.graph.labels
        for length in (0, 1, 2, 5, 20, 80, 300, 1000):
            for _ in range(4):
                _assert_passes_validation(phi(ctx, random_word(rng, labels, length)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_phi_results_validate_on_random_graphs(data):
    g = data.draw(random_connected_graphs())
    if g.n >= 4 and data.draw(st.booleans()):
        g = _with_k4(g)
    ctx = build_context(g)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for length in (0, 1, 2, rng.randrange(3, 500)):
        _assert_passes_validation(phi(ctx, random_word(rng, g.labels, length)))


def _words(rng, labels):
    """The empty word, every letter, relators, and random words."""
    words = [()] + [(x,) for x in labels] + [(x, x) for x in labels]
    words += [tuple(random_word(rng, labels, n)) for n in (3, 8, 30, 120)
              for _ in range(6)]
    return words


def test_trivial_image_matches_phi_on_corpus(corpus_contexts):
    rng = random.Random(29)
    for name, ctx in corpus_contexts.items():
        rels = relators(ctx.graph, "coxy")
        for w in _words(rng, ctx.graph.labels) + list(rels):
            assert trivial_image(ctx, w) == phi(ctx, w).is_identity(), (name, w)
        assert all(trivial_image(ctx, rel) for rel in rels)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trivial_image_matches_phi_on_random_graphs(data):
    g = data.draw(random_connected_graphs())
    if g.n >= 4 and data.draw(st.booleans()):
        g = _with_k4(g)
    ctx = build_context(g)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for w in _words(rng, g.labels):
        assert trivial_image(ctx, w) == phi(ctx, w).is_identity()
        assert trivial_image(ctx, w + reverse_word(w))


def test_trivial_image_reads_a_one_shot_word(corpus_contexts):
    """The word is read twice when its permutation is the identity; a
    generator, which can be read once, still gets phi's verdict, also on
    nontrivial kernel words."""
    rng = random.Random(31)
    for name, ctx in corpus_contexts.items():
        words = _words(rng, ctx.graph.labels) + list(relators(ctx.graph, "coxy"))
        words += [psi_gen(ctx, AGenerator(x, 1, 2)) for x in ctx.chords]
        for w in words:
            assert trivial_image(ctx, iter(w)) == phi(ctx, w).is_identity(), (name, w)


def test_trivial_image_runs_only_words_that_fix_every_vertex(sixpts_ctx, monkeypatch):
    """A word whose permutation moves is decided without the slot stacks."""
    calls, real_run = [], embedding._run

    def counting_run(ctx, w):
        calls.append(w)
        return real_run(ctx, w)

    monkeypatch.setattr(embedding, "_run", counting_run)
    rng = random.Random(37)
    labels = sixpts_ctx.graph.labels
    moving = fixing = 0
    for _ in range(300):
        w = tuple(random_word(rng, labels, 12))
        calls.clear()
        verdict = trivial_image(sixpts_ctx, w)
        if perm_of_word(sixpts_ctx.graph, w).is_identity():
            fixing += 1
            assert calls == [w]
        else:
            moving += 1
            assert not verdict and calls == []
    assert moving and fixing


def test_trivial_image_unknown_label(triangle_ctx):
    """Unknown labels raise like phi, for the first unknown letter."""
    for w, first in ((("q",), "q"), (("a", "c", "q", "b", "zz"), "q"),
                     (("a", "a", "zz", "q"), "zz")):
        with pytest.raises(UnknownLabelError) as info:
            trivial_image(triangle_ctx, w)
        assert info.value.args == (f"unknown edge label {first!r}",)
        with pytest.raises(UnknownLabelError) as info_phi:
            phi(triangle_ctx, w)
        assert info_phi.value.args == info.value.args


def test_phi_consumes_a_generator(sixpts_ctx):
    w = tuple(random_word(random.Random(5), sixpts_ctx.graph.labels, 60))
    assert phi(sixpts_ctx, (x for x in w)) == phi(sixpts_ctx, w)


# ------------------------------------------------------------------ gamma


def test_triangle_gamma_words(triangle_ctx):
    (cyc,) = triangle_ctx.cycles
    # chord c joins 1 and 3; cycle edges a (1-2), b (2-3)
    assert gamma(triangle_ctx, cyc, 1) == ("b", "c")
    assert gamma(triangle_ctx, cyc, 2) == ("c", "a")
    assert gamma(triangle_ctx, cyc, 3) == ("a", "b")


def test_gamma_perm_part_is_the_rotation(sixpts_ctx):
    for cyc in sixpts_ctx.cycles:
        tau = cycle_rotation(sixpts_ctx, cyc)
        for a in range(1, 7):
            assert phi(sixpts_ctx, gamma(sixpts_ctx, cyc, a)).perm == tau


def test_gamma_full_law(sixpts_ctx):
    # image = rotation times the generator from a to the chord's end
    for cyc in sixpts_ctx.cycles:
        tau = cycle_rotation(sixpts_ctx, cyc)
        end = cyc.local_to_global[-1]
        for a in range(1, 7):
            img = phi(sixpts_ctx, gamma(sixpts_ctx, cyc, a))
            assert img == SemidirectElement(tau, mu(AGenerator(cyc.chord, a, end), 6))


def test_gamma_vertex_out_of_range(triangle_ctx):
    with pytest.raises(ValueError):
        gamma(triangle_ctx, triangle_ctx.cycles[0], 9)


def test_gamma_exchange_laws(corpus_contexts):
    for name in ("c4", "sixpts", "k4", "book33"):
        ctx = corpus_contexts[name]
        for cyc in ctx.cycles:
            tau = cycle_rotation(ctx, cyc)
            gm = cyc.local_to_global[-1]
            g1 = cyc.local_to_global[0]
            gam = {a: phi(ctx, gamma(ctx, cyc, a)) for a in range(1, ctx.n + 1)}
            for j in range(1, ctx.n + 1):
                assert sd_mul(gam[j], gam[gm]) == sd_mul(gam[g1], gam[tau(j)])
            for i in range(1, ctx.n + 1):
                for j in range(1, ctx.n + 1):
                    assert sd_mul(gam[j], gam[tau(i)]) == sd_mul(
                        gam[i], gam[tau(j)]
                    )
            m, lg = cyc.m, cyc.local_to_global
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    lhs = sd_mul(gam[lg[j - 1]], gam[lg[(i - 2) % m]])
                    rhs = sd_mul(gam[lg[i - 1]], gam[lg[(j - 2) % m]])
                    assert lhs == rhs


# ------------------------------------------------------------------ tilde


def test_tilde_disjoint_edge(sixpts_ctx):
    cyc = sixpts_ctx.cycle_by_chord["y"]  # triangle 3-2-6
    assert tilde(sixpts_ctx, cyc, "e") == ("e",)  # edge 4-5 is far away


def test_tilde_rotates_cycle_edges(triangle_ctx):
    (cyc,) = triangle_ctx.cycles  # u1=c, u2=a, u3=b
    assert tilde(triangle_ctx, cyc, "c") == ("a",)
    assert tilde(triangle_ctx, cyc, "a") == ("b",)
    assert tilde(triangle_ctx, cyc, "b") == ("c",)


def test_tilde_single_touch(sixpts_ctx):
    cyc = sixpts_ctx.cycle_by_chord["x"]  # vertices 1, 5, 4
    # edge a = (1,2) touches at local vertex 1, so conjugate by u2 = c
    assert tilde(sixpts_ctx, cyc, "a") == ("c", "a", "c")
    # edge z = (5,6) touches at local vertex 2, conjugate by u3 = e
    assert tilde(sixpts_ctx, cyc, "z") == ("e", "z", "e")


def test_tilde_double_touch():
    ctx = build_context(complete4())
    cyc = ctx.cycle_by_chord["d"]  # cycle 2-1-3 with edges d, a, b
    # chord f = (3,4)... touches at local 3 only; e = (2,4) local 1; but
    # chord e touches cycle of f? use cycle of e: vertices 2, 1, 4
    cyc_e = ctx.cycle_by_chord["e"]
    # chord d = (2,3) touches that cycle at local 1 (vertex 2) only
    assert tilde(ctx, cyc_e, "d") == ("a", "d", "a")
    # chord f = (3,4) touches at local 3 (vertex 4) only
    assert tilde(ctx, cyc_e, "f") == ("e", "f", "e")
    # tree edge b = (1,3) touches at local 2 (vertex 1) only
    assert tilde(ctx, cyc_e, "b") == ("c", "b", "c")
    # on the cycle of d, chord e = (2,4) touches only vertex 2, but chord
    # x-like edge f = (3,4) touches only vertex 3; the double-touch case
    # needs an edge joining two cycle vertices: take cycle of z in sixpts
    sp = build_context(sixpts_graph())
    cyc_z = sp.cycle_by_chord["z"]  # vertices 5, 1, 2, 6; edges z, c, a, d
    # chord x = (1,4) touches at local 2 only: conjugate by u3 = a
    assert tilde(sp, cyc_z, "x") == ("a", "x", "a")
    # tree edge b = (2,3) touches at local 3: conjugate by u4 = d
    assert tilde(sp, cyc_z, "b") == ("d", "b", "d")


def test_tilde_double_touch_case():
    # a graph where an off-tree edge joins two non-adjacent cycle vertices:
    # square 1-2-3-4 plus diagonal chord 1-3
    g = parse_graph("1 2 a\n2 3 b\n3 4 c\n1 4 d\n1 3 e")
    ctx = build_context(g)
    cyc = ctx.cycle_by_chord["d"]  # cycle 1-2-3-4 with edges d, a, b, c
    assert cyc.local_to_global == (1, 2, 3, 4)
    # e joins local vertices 1 and 3: conjugate by u2 = a then u4 = c
    assert tilde(ctx, cyc, "e") == ("a", "c", "e", "c", "a")


def test_tilde_perm_part_conjugated(corpus_contexts):
    for name in ("sixpts", "c5", "k4", "rand7"):
        ctx = corpus_contexts[name]
        for cyc in ctx.cycles:
            tau = cycle_rotation(ctx, cyc)
            for e in ctx.graph.edges:
                # products read left to right, so conjugation is t u t^-1
                lhs = perm_of_word(ctx.graph, tilde(ctx, cyc, e.label))
                base = Permutation.transposition(ctx.n, e.a, e.b)
                assert lhs == compose(compose(tau, base), tau.inverse())


def test_tilde_is_conjugation_by_gamma(corpus_contexts):
    for name in ("sixpts", "c4", "k4me"):
        ctx = corpus_contexts[name]
        for cyc in ctx.cycles:
            for e in ctx.graph.edges:
                timg = phi(ctx, tilde(ctx, cyc, e.label))
                for c in range(1, ctx.n + 1):
                    if c in (e.a, e.b):
                        continue
                    gc = phi(ctx, gamma(ctx, cyc, c))
                    conj = sd_mul(sd_mul(gc, phi(ctx, (e.label,))), sd_inv(gc))
                    assert timg == conj


def test_action_law_for_tree_words(corpus_contexts):
    rng = random.Random(23)
    for name in ("sixpts", "c6", "book33"):
        ctx = corpus_contexts[name]
        tree = sorted(ctx.tree.tree_edges)
        for cyc in ctx.cycles:
            for _ in range(25):
                w = random_word(rng, tree, 8)
                sw = perm_of_word(ctx.graph, w)
                tw = phi(ctx, tilde_word(ctx, cyc, w))
                pw = phi(ctx, w)
                for a in (1, ctx.n):
                    lhs = sd_mul(
                        sd_mul(sd_inv(tw), phi(ctx, gamma(ctx, cyc, a))), pw
                    )
                    assert lhs == phi(ctx, gamma(ctx, cyc, sw(a)))
                # conjugation form on generator differences
                i, j = rng.sample(range(1, ctx.n + 1), 2)
                diff = sd_mul(
                    sd_inv(phi(ctx, gamma(ctx, cyc, j))),
                    phi(ctx, gamma(ctx, cyc, i)),
                )
                lhs = sd_mul(sd_mul(sd_inv(pw), diff), pw)
                rhs = sd_mul(
                    sd_inv(phi(ctx, gamma(ctx, cyc, sw(j)))),
                    phi(ctx, gamma(ctx, cyc, sw(i))),
                )
                assert lhs == rhs


# ------------------------------------------------------------------- psi


def test_psi_perm_identity_is_empty(sixpts_ctx):
    assert psi_perm(sixpts_ctx, Permutation.identity(6)) == ()


def test_psi_perm_tree_edge_transposition(sixpts_ctx):
    s = Permutation.transposition(6, 1, 2)  # the edge a
    assert psi_perm(sixpts_ctx, s) == ("a",)


def test_psi_perm_rejects_size_mismatch(sixpts_ctx):
    with pytest.raises(ValueError, match=r"^size mismatch: 5 vs 6$"):
        psi_perm(sixpts_ctx, Permutation.identity(5))


def test_psi_perm_star_example():
    ctx = build_context(parse_graph("1 2 a\n1 3 c"))
    assert psi_perm(ctx, Permutation.from_cycles(3, [(2, 3)])) == ("a", "c", "a")


def test_psi_perm_random(corpus_contexts):
    rng = random.Random(17)
    for ctx in corpus_contexts.values():
        for _ in range(50):
            images = list(range(1, ctx.n + 1))
            rng.shuffle(images)
            s = Permutation(images)
            w = psi_perm(ctx, s)
            assert all(ctx.is_tree_edge(label) for label in w)
            assert perm_of_word(ctx.graph, w) == s
            assert phi(ctx, w) == SemidirectElement(
                s, FStarElement.identity(ctx.n)
            )


def test_psi_gen_diagonal(sixpts_ctx):
    w = psi_gen(sixpts_ctx, AGenerator("x", 3, 3))
    assert phi(sixpts_ctx, w).is_identity()


def test_psi_gen_round_trip(corpus_contexts):
    for name in ("sixpts", "c5", "k4", "rand7"):
        ctx = corpus_contexts[name]
        for chord in ctx.chords:
            for i, j in permutations(range(1, ctx.n + 1), 2):
                img = phi(ctx, psi_gen(ctx, AGenerator(chord, i, j)))
                assert img == SemidirectElement(
                    Permutation.identity(ctx.n), mu(AGenerator(chord, i, j), ctx.n)
                )


def test_psi_gen_unknown_chord(sixpts_ctx):
    with pytest.raises(KeyError):
        psi_gen(sixpts_ctx, AGenerator("a", 1, 2))  # a is a tree edge


def test_kernel_generator_parts_are_psi_gen_images(corpus_contexts):
    """Building each loop element once per cycle gives the parts psi_gen's
    words give, in the same order."""
    for name, ctx in corpus_contexts.items():
        assert kernel_generator_parts(ctx) == [
            phi(ctx, psi_gen(ctx, AGenerator(chord, i, i + 1))).f
            for chord in ctx.chords for i in range(1, ctx.n)], name


def test_round_trip_fixes_generators(corpus_contexts):
    # rebuild each generator from its image; compare through the evaluation
    for ctx in corpus_contexts.values():
        for e in ctx.graph.edges:
            img = phi(ctx, (e.label,))
            rebuilt = psi_perm(ctx, img.perm)
            if not ctx.is_tree_edge(e.label):
                rebuilt = rebuilt + psi_gen(ctx, AGenerator(e.label, e.a, e.b))
            assert phi(ctx, rebuilt) == img
            verdict = equal(ctx, rebuilt, (e.label,))
            assert verdict.kind is not VerdictKind.NONTRIVIAL


# ------------------------------------------------------------ word problem


def test_defining_relators_are_trivial(corpus_contexts):
    for name, ctx in corpus_contexts.items():
        for rel in relators(ctx.graph, "coxy"):
            v = is_trivial(ctx, rel)
            assert v.kind is not VerdictKind.NONTRIVIAL, (name, rel)
            if not ctx.is_k4:
                assert v.kind is VerdictKind.TRIVIAL


def test_braid_relator_trivial(triangle_ctx):
    v = is_trivial(triangle_ctx, parse_word("a c a c a c"))
    assert v.kind is VerdictKind.TRIVIAL


def test_kernel_word_nontrivial(triangle_ctx):
    v = is_trivial(triangle_ctx, parse_word("c a b a"))
    assert v.kind is VerdictKind.NONTRIVIAL
    assert v.witness.perm.is_identity()
    assert v.witness.f == FStarElement(
        (ReducedWord((("c", -1),)), ReducedWord(), ReducedWord((("c", 1),))))


def test_cycle_relator_fails_in_quotient(triangle_ctx):
    # the cycle relation holds in the symmetric group but not here
    rel = ("c", "a", "b", "a")
    assert perm_of_word(triangle_ctx.graph, rel).is_identity()
    assert is_trivial(triangle_ctx, rel).kind is VerdictKind.NONTRIVIAL


def test_k4_rewritten_fork_is_quotient_only():
    ctx = build_context(complete4())
    cyc = ctx.cycle_by_chord["d"]
    ct = tilde(ctx, cyc, "c")
    et = tilde(ctx, cyc, "e")
    ft = tilde(ctx, cyc, "f")
    inner = et + ft + et
    w = ct + inner + ct + inner
    v = is_trivial(ctx, w)
    assert v.kind is VerdictKind.TRIVIAL_IN_QUOTIENT


def test_k4_never_claims_exact_triviality():
    ctx = build_context(complete4())
    for rel in relators(ctx.graph, "coxy"):
        assert is_trivial(ctx, rel).kind is VerdictKind.TRIVIAL_IN_QUOTIENT


def test_k4_plus_pendant_edge_is_exact():
    """The one exception is K4 itself.  With a pendant edge added the graph
    has five vertices, so it is not the exception and verdicts are exact,
    even for the word that is only quotient-trivial on K4."""
    k4 = complete4()
    ctx = build_context(
        Graph(5, [(e.label, e.a, e.b) for e in k4.edges] + [("p", 4, 5)])
    )
    assert not ctx.is_k4
    assert structure_report(ctx).word_problem_exact
    cyc = ctx.cycle_by_chord["d"]
    ct, et, ft = (tilde(ctx, cyc, x) for x in "cef")
    inner = et + ft + et
    assert is_trivial(ctx, ct + inner + ct + inner).kind is VerdictKind.TRIVIAL
    for rel in relators(ctx.graph, "coxy"):
        assert is_trivial(ctx, rel).kind is VerdictKind.TRIVIAL


def test_equal_via_inverse(triangle_ctx):
    v = equal(triangle_ctx, parse_word("a c a"), parse_word("a c a"))
    assert v.kind is VerdictKind.TRIVIAL
    v = equal(triangle_ctx, parse_word("a"), parse_word("b"))
    assert v.kind is VerdictKind.NONTRIVIAL


def test_equal_reads_any_second_word(sixpts_ctx):
    """w2 may be a ``TextWord``, a tuple or an iterator that ``reversed``
    cannot read backward; all give the verdict of the tuples."""
    w1, w2 = "c e c x a b", "x c e c a b z z"
    expected = equal(sixpts_ctx, parse_word(w1), parse_word(w2))
    assert expected.kind is VerdictKind.NONTRIVIAL
    for second in (TextWord(w2), parse_word(w2), iter(w2.split())):
        assert equal(sixpts_ctx, TextWord(w1), second) == expected
    assert equal(sixpts_ctx, iter(w1.split()), TextWord(w1)).kind is VerdictKind.TRIVIAL


def test_in_kernel(sixpts_ctx):
    member, f = in_kernel(sixpts_ctx, parse_word("c e c x"))
    assert member and f == mu(AGenerator("x", 1, 4), 6)
    member, f = in_kernel(sixpts_ctx, parse_word("a b"))
    assert not member
    nontree = psi_gen(sixpts_ctx, AGenerator("y", 2, 5))
    assert in_kernel(sixpts_ctx, nontree)[0]


# --------------------------------------------------------------- tokenizer

WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


def test_tokenizer_cuts_at_exactly_the_split_whitespace():
    """The tokenizer cuts where ``re``'s ``\\s`` matches; on ``str`` that is
    the set ``str.isspace()`` gives, the set ``str.split()`` cuts at, the
    file, group and unit separators, NEL, NBSP and ideographic space too."""
    space = embedding._SPACE
    assert all(bool(space.match(c)) == c.isspace()
               for c in map(chr, range(sys.maxunicode + 1)))
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2009", "\u3000"} <= set(WHITESPACE)


@st.composite
def word_texts(draw):
    """A text of graph labels and unknown tokens, some longer than the
    default chunk, between runs of any whitespace characters."""
    token = st.one_of(
        st.sampled_from(["a", "b", "x", "e1", "x07", "zz"]),
        st.text(st.characters(exclude_characters=WHITESPACE), min_size=1, max_size=9),
        st.integers(1, embedding.WORD_CHUNK + 20).map(lambda k: "w" * k),
    )
    space = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3)
    tokens = draw(st.lists(token, max_size=30))
    parts = [draw(st.one_of(st.just(""), space))]
    for t in tokens:
        parts += [t, draw(space)]
    if tokens and draw(st.booleans()):
        parts.pop()
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(word_texts(), st.sampled_from([1, 2, 7, embedding.WORD_CHUNK]))
def test_tokenizer_yields_the_split_tokens(text, chunk):
    """Forward and backward, in slices of any size, the tokens are
    ``text.split()``'s, and ``parse_word`` returns their tuple."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "WORD_CHUNK", chunk)
        word = TextWord(text)
        assert list(word) == text.split()
        assert list(reversed(word)) == text.split()[::-1]
        assert parse_word(text) == tuple(text.split())


@pytest.mark.parametrize("chunk", [1, 2, 7, embedding.WORD_CHUNK])
def test_tokenizer_on_empty_and_blank_texts(monkeypatch, chunk):
    monkeypatch.setattr(embedding, "WORD_CHUNK", chunk)
    for text in ("", " ", "".join(WHITESPACE), "\n\u3000\t" * 3000):
        assert list(TextWord(text)) == list(reversed(TextWord(text))) == []
        assert parse_word(text) == ()


# -------------------------------------------------------------- structure


def test_structure_c6(corpus_contexts):
    rep = structure_report(corpus_contexts["c6"])
    assert rep.classification is Classification.VIRTUALLY_ABELIAN
    assert rep.kernel_ab_rank == 5
    assert rep.word_problem_exact


def test_structure_y(corpus_contexts):
    rep = structure_report(corpus_contexts["y"])
    assert rep.classification is Classification.SYMMETRIC_GROUP
    assert rep.kernel_ab_rank == 0


def test_structure_sixpts(corpus_contexts):
    rep = structure_report(corpus_contexts["sixpts"])
    assert rep.classification is Classification.CONTAINS_FREE_SUBGROUP
    assert rep.kernel_ab_rank == 15
    assert rep.torsion_free_kernel and rep.residually_finite
    assert rep.word_problem_exact and not rep.is_k4


def test_structure_k4(corpus_contexts):
    rep = structure_report(corpus_contexts["k4"])
    assert rep.is_k4
    assert not rep.word_problem_exact
    assert not rep.torsion_free_kernel and not rep.residually_finite
    assert rep.classification is Classification.CONTAINS_FREE_SUBGROUP


def test_kernel_generators_have_full_rank(corpus_contexts):
    for name in ("sixpts", "c4", "k4", "rand7", "p5"):
        ctx = corpus_contexts[name]
        rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
        assert ab_rank(rows) == ctx.t * (ctx.n - 1), name


# ------------------------------------------------------- random graphs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_embedding_sound_on_random_graphs(data):
    """The whole pipeline holds on arbitrary connected graphs, not just the
    reference corpus: relators die, and both round trips are exact."""
    g = data.draw(random_connected_graphs())
    ctx = build_context(g)
    for rel in relators(g, "coxy"):
        assert is_trivial(ctx, rel).kind is not VerdictKind.NONTRIVIAL
    images = data.draw(st.permutations(list(range(1, ctx.n + 1))))
    s = Permutation(images)
    assert phi(ctx, psi_perm(ctx, s)) == SemidirectElement(
        s, FStarElement.identity(ctx.n)
    )
    for chord in ctx.chords:
        i = data.draw(st.integers(1, ctx.n))
        j = data.draw(st.integers(1, ctx.n))
        img = phi(ctx, psi_gen(ctx, AGenerator(chord, i, j)))
        assert img == SemidirectElement(
            Permutation.identity(ctx.n), mu(AGenerator(chord, i, j), ctx.n)
        )


# ----------------------------------------------------------- metamorphic


def _relator_edits(rng, ctx, w, steps):
    """Words equal to w in the group: each step inserts a coxy relator, its
    reverse or a pair u u at a random place, or deletes one occurrence of
    such a word, and yields the edited word."""
    pieces = set(relators(ctx.graph, "coxy"))
    pieces |= {tuple(reversed(p)) for p in pieces}
    lengths = sorted({len(p) for p in pieces})
    ordered = sorted(pieces)
    labels = ctx.graph.labels
    w = list(w)
    for _ in range(steps):
        spots = [
            (i, k) for k in lengths for i in range(len(w) - k + 1)
            if tuple(w[i:i + k]) in pieces
        ]
        if spots and rng.random() < 0.4:
            i, k = rng.choice(spots)
            del w[i:i + k]
        else:
            if rng.random() < 0.3:
                u = rng.choice(labels)
                piece = (u, u)
            else:
                piece = rng.choice(ordered)
            i = rng.randrange(len(w) + 1)
            w[i:i] = piece
        yield tuple(w)


def _check_relator_edits(ctx, rng, rounds, steps=8):
    """Every edited word equals the original: exactly, or in the quotient
    on K4.  One extra letter flips the permutation's sign, so that pair
    must come out unequal."""
    expected = VerdictKind.TRIVIAL_IN_QUOTIENT if ctx.is_k4 else VerdictKind.TRIVIAL
    labels = ctx.graph.labels
    for _ in range(rounds):
        w = random_word(rng, labels, 30)
        for v in _relator_edits(rng, ctx, w, steps):
            assert equal(ctx, w, v).kind is expected, (w, v)
        extra = v + (rng.choice(labels),)
        assert equal(ctx, w, extra).kind is VerdictKind.NONTRIVIAL, (w, extra)


def test_relator_edits_keep_words_equal_on_corpus(corpus_contexts):
    rng = random.Random(41)
    for ctx in corpus_contexts.values():
        _check_relator_edits(ctx, rng, 15)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_relator_edits_keep_words_equal_on_random_graphs(data):
    g = data.draw(random_connected_graphs())
    if g.n >= 4 and data.draw(st.booleans()):
        g = _with_k4(g)
    ctx = build_context(g)
    _check_relator_edits(ctx, random.Random(data.draw(st.integers(0, 2**32))), 3)


# ------------------------------------------------------------- parabolic


def test_words_over_subtree_behave_parabolically(corpus_contexts):
    rng = random.Random(31)
    ctx = corpus_contexts["sixpts"]
    sub_labels = ("b", "d", "y")  # one basic cycle, a triangle on 2, 3, 6
    from coxgraph.graphs import edge_subgraph

    sub_ctx = build_context(edge_subgraph(ctx.graph, sub_labels))
    for _ in range(200):
        w = random_word(rng, sub_labels, 12)
        assert is_trivial(sub_ctx, w).kind == is_trivial(ctx, w).kind
