import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxgraph.graphs import parse_graph
from coxgraph.perms import Permutation, compose, perm_of_word
from coxgraph.presentation import relators

STAR = parse_graph("1 2 a\n1 3 c")


def random_perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


def test_identity_is_neutral():
    s = Permutation([2, 3, 1])
    assert compose(Permutation.identity(3), s) == s
    assert compose(s, Permutation.identity(3)) == s


def test_left_factor_applies_first():
    s = Permutation.transposition(3, 1, 2)
    t = Permutation.transposition(3, 2, 3)
    st_ = compose(s, t)
    # the stated convention forces 1 -> 3, 3 -> 2, 2 -> 1
    assert st_(1) == 3 and st_(3) == 2 and st_(2) == 1


@given(random_perm_strategy(5))
def test_inverse_cancels(s):
    assert compose(s, s.inverse()).is_identity()
    assert compose(s.inverse(), s).is_identity()


@given(random_perm_strategy(4), random_perm_strategy(4), random_perm_strategy(4))
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_not_a_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


@pytest.mark.parametrize("a, b", [(1, 1), (0, 2), (2, 4)])
def test_transposition_rejects_bad_endpoints(a, b):
    with pytest.raises(ValueError, match=rf"^bad transposition \({a} {b}\) in S_3$"):
        Permutation.transposition(3, a, b)


def test_compose_rejects_size_mismatch():
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        compose(Permutation.identity(2), Permutation.identity(3))


def test_cycle_display():
    assert str(Permutation.identity(4)) == "()"
    assert str(Permutation([3, 1, 2])) == "(1 3 2)"
    assert str(Permutation([2, 1, 4, 3])) == "(1 2)(3 4)"


def test_from_cycles_round_trip():
    s = Permutation.from_cycles(5, [(1, 4, 2)])
    assert s(1) == 4 and s(4) == 2 and s(2) == 1 and s(3) == 3


# ------------------------------------------------------------ edge words


def test_empty_word_is_identity():
    assert perm_of_word(STAR, ()).is_identity()


def test_palindrome_word_example():
    # direct three-element bijection composition gives (2 3)
    def apply_word(word, v):
        for label in word:
            e = STAR.edge(label)
            if v == e.a:
                v = e.b
            elif v == e.b:
                v = e.a
        return v

    expected = Permutation([apply_word("aca", v) for v in (1, 2, 3)])
    assert expected == Permutation.from_cycles(3, [(2, 3)])
    assert perm_of_word(STAR, ("a", "c", "a")) == expected


def test_unknown_label_raises():
    with pytest.raises(KeyError):
        perm_of_word(STAR, ("a", "q"))


def test_word_evaluation_matches_transposition_fold(corpus_graphs):
    rng = random.Random(3)
    for g in corpus_graphs.values():
        labels = g.labels
        for length in (0, 1, 2, 7, 60):
            w = tuple(rng.choice(labels) for _ in range(length))
            expected = Permutation.identity(g.n)
            for label in w:
                e = g.edge(label)
                expected = compose(expected, Permutation.transposition(g.n, e.a, e.b))
            assert perm_of_word(g, w) == expected
            assert perm_of_word(g, iter(w)) == expected


def test_word_evaluation_is_multiplicative(corpus_graphs):
    rng = random.Random(2)
    for g in corpus_graphs.values():
        labels = g.labels
        for _ in range(25):
            w1 = tuple(rng.choice(labels) for _ in range(rng.randrange(9)))
            w2 = tuple(rng.choice(labels) for _ in range(rng.randrange(9)))
            assert perm_of_word(g, w1 + w2) == compose(
                perm_of_word(g, w1), perm_of_word(g, w2)
            )
            assert perm_of_word(g, tuple(reversed(w1))) == perm_of_word(
                g, w1
            ).inverse()


def test_symmetric_relators_die(corpus_graphs):
    for g in corpus_graphs.values():
        for which in ("coxy", "symmetric"):
            for rel in relators(g, which):
                assert perm_of_word(g, rel).is_identity(), (g, which, rel)
