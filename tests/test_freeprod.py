import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxgraph.freeprod import (
    FStarElement,
    ReducedWord,
    SemidirectElement,
    ab,
    component_exponents,
    erase_letter,
    fstar_inv,
    fstar_mul,
    in_ftn,
    reduce,
    sd_inv,
    sd_mul,
    sn_act_f,
)
from coxgraph.perms import Permutation, compose
from coxgraph.presentation import AGenerator, mu
from reference import single

letters = st.tuples(st.sampled_from("xyz"), st.sampled_from((1, -1)))
raw_words = st.lists(letters, max_size=14).map(tuple)


def fstar_elements(n=4):
    return st.lists(raw_words, min_size=n, max_size=n).map(
        lambda ws: FStarElement(tuple(reduce(w) for w in ws))
    )


def semidirect_elements(n=4):
    return st.tuples(
        st.permutations(list(range(1, n + 1))).map(Permutation), fstar_elements(n)
    ).map(lambda pair: SemidirectElement(*pair))


# ------------------------------------------------------------- reduction


def test_cancel_pair():
    assert reduce([("x", 1), ("x", -1)]) == ReducedWord()


def test_inner_cancellation():
    assert reduce([("x", 1), ("y", 1), ("y", -1), ("x", 1)]) == ReducedWord(
        (("x", 1), ("x", 1))
    )


def test_reduced_input_unchanged():
    w = (("x", 1), ("y", -1), ("x", 1))
    assert reduce(w).letters == w


@given(raw_words)
def test_reduce_idempotent_and_shorter(raw):
    once = reduce(raw)
    assert reduce(once.letters) == once
    assert len(once) <= len(raw)


@given(raw_words)
def test_word_times_inverse_is_identity(raw):
    w = reduce(raw)
    assert (w * w.inverse()).is_identity()


@given(raw_words, raw_words, st.integers(0, 14))
def test_product_matches_reduce(a, b, k):
    # the second v starts with part of u's inverse, so whole
    # runs cancel at the seam
    u = reduce(a)
    for v in (reduce(b), reduce(u.inverse().letters[:k] + b)):
        assert u * v == reduce(u.letters + v.letters)


def test_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        ReducedWord((("x", 1), ("x", -1)))


@pytest.mark.parametrize("make", [
    lambda: ReducedWord((("x", 2),)),
    lambda: reduce([("x", 1), ("y", 0)]),
    lambda: reduce([("x", -2)]),
])
def test_public_constructors_reject_bad_exponents(make):
    with pytest.raises(ValueError):
        make()


# ------------------------------------------------------- product arithmetic


def test_product_with_inverse_is_identity():
    p = FStarElement(
        (ReducedWord((("x", 1),)), ReducedWord((("y", -1), ("x", 1))), ReducedWord())
    )
    assert fstar_mul(p, fstar_inv(p)).is_identity()


def test_different_slots_commute():
    p = single(3, 1, "x")
    q = single(3, 2, "y")
    assert fstar_mul(p, q) == fstar_mul(q, p)


def test_same_slot_does_not_commute():
    p = single(3, 1, "x")
    q = single(3, 1, "y")
    assert fstar_mul(p, q) != fstar_mul(q, p)


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        fstar_mul(FStarElement.identity(2), FStarElement.identity(3))


def test_slot_action_rejects_size_mismatch():
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        sn_act_f(Permutation.identity(2), FStarElement.identity(3))


# --------------------------------------------------------- abelianization


def test_ab_of_identity_zero():
    p = FStarElement.identity(4)
    assert ab(p) == () and in_ftn(p)


def test_ab_counts_across_slots():
    p = FStarElement(
        (ReducedWord((("x", 1),)), ReducedWord((("x", -1), ("y", 1))), ReducedWord(),
         ReducedWord())
    )
    assert ab(p) == (("y", 1),)
    assert not in_ftn(p)


def test_mu_lands_in_kernel():
    assert in_ftn(mu(AGenerator("x", 2, 5), 6))


@given(fstar_elements(), fstar_elements())
def test_ab_is_additive(p, q):
    total = dict(ab(fstar_mul(p, q)))
    left, right = dict(ab(p)), dict(ab(q))
    combined = {
        k: left.get(k, 0) + right.get(k, 0) for k in set(left) | set(right)
    }
    assert total == {k: v for k, v in combined.items() if v}


@given(fstar_elements())
def test_ab_negates_under_inverse(p):
    assert dict(ab(fstar_inv(p))) == {
        k: -v for k, v in dict(ab(p)).items()
    }


def test_component_exponents():
    p = mu(AGenerator("x", 1, 4), 6)
    assert component_exponents(p) == {("x", 1): 1, ("x", 4): -1}


# ------------------------------------------------------------- slot action


def test_identity_acts_trivially():
    p = single(4, 2, "x")
    assert sn_act_f(Permutation.identity(4), p) == p


def test_transposition_moves_slot():
    p = single(4, 1, "x")
    s = Permutation.transposition(4, 1, 2)
    assert sn_act_f(s, p) == single(4, 2, "x")


@given(
    st.permutations([1, 2, 3, 4]).map(Permutation),
    st.permutations([1, 2, 3, 4]).map(Permutation),
    fstar_elements(),
)
def test_action_is_homomorphism(s, t, p):
    assert sn_act_f(compose(s, t), p) == sn_act_f(t, sn_act_f(s, p))


@given(st.permutations([1, 2, 3, 4]).map(Permutation), fstar_elements())
def test_action_preserves_ab(s, p):
    assert ab(sn_act_f(s, p)) == ab(p)
    assert in_ftn(sn_act_f(s, p)) == in_ftn(p)


# ------------------------------------------------------ semidirect product


@given(semidirect_elements())
def test_sd_inverse_cancels(g):
    assert sd_mul(g, sd_inv(g)).is_identity()
    assert sd_mul(sd_inv(g), g).is_identity()


@given(semidirect_elements(), semidirect_elements(), semidirect_elements())
def test_sd_associative(a, b, c):
    assert sd_mul(sd_mul(a, b), c) == sd_mul(a, sd_mul(b, c))


def test_chord_letter_squares_to_identity():
    # the triangle chord image ((2 3), b at slot 2, b^-1 at slot 3)
    g = SemidirectElement(
        Permutation.transposition(3, 2, 3), mu(AGenerator("b", 2, 3), 3)
    )
    assert sd_mul(g, g).is_identity()


def test_tree_letter_then_chord_letter():
    lhs = sd_mul(
        SemidirectElement(
            Permutation.transposition(3, 1, 2), FStarElement.identity(3)
        ),
        SemidirectElement(
            Permutation.transposition(3, 2, 3), mu(AGenerator("b", 2, 3), 3)
        ),
    )
    expected_perm = compose(
        Permutation.transposition(3, 1, 2), Permutation.transposition(3, 2, 3)
    )
    assert lhs == SemidirectElement(expected_perm, mu(AGenerator("b", 2, 3), 3))


def test_display_formats():
    p = FStarElement(
        (ReducedWord((("x", 1), ("y", -1))), ReducedWord(), ReducedWord((("x", -1),)))
    )
    assert str(p) == "1: x y^-1, 3: x^-1"
    assert str(FStarElement.identity(2)) == "1"
    g = SemidirectElement(Permutation.identity(3), p)
    assert str(g) == "() | 1: x y^-1, 3: x^-1"


# ------------------------------------------------------------ letter erasure


def test_erase_letter_keeps_the_other_letters():
    """Only the named letter goes, and the rest is reduced again; the
    mutant of ``erase_letter`` that keeps only the named letter (``!=`` ->
    ``==``) is a homomorphism too, but fails here."""
    p = FStarElement((ReducedWord((("x", 1), ("z", 1), ("x", -1), ("y", 1))),
                      ReducedWord((("z", -1),)), ReducedWord((("y", -1),))))
    assert erase_letter(p, "z") == FStarElement(
        (ReducedWord((("y", 1),)), ReducedWord(), ReducedWord((("y", -1),))))


@given(fstar_elements(), fstar_elements())
def test_erasing_one_letter_is_a_homomorphism(p, q):
    assert erase_letter(fstar_mul(p, q), "z") == fstar_mul(
        erase_letter(p, "z"), erase_letter(q, "z")
    )
