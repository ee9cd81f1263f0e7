"""Arithmetic in a direct product of free groups, and its semidirect
extension by the symmetric group.

An element of the product carries one freely reduced word per slot 1..n,
all over a common alphabet of chord labels.  The symmetric group acts by
permuting slots: the word sitting at slot i moves to slot s(i).  The total
exponent-sum map (summed over all slots) cuts out the kernel subgroup whose
membership test ``in_ftn`` provides.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._record import Record
from .perms import Permutation, compose

Letter = tuple[str, int]  # (chord label, exponent +1 or -1)


class ReducedWord(Record):
    """A freely reduced word; adjacent letters never cancel."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        for (x, e), (y, f) in zip(letters, letters[1:]):
            if x == y and e == -f:
                raise ValueError(f"not freely reduced at {x}^{e} {y}^{f}")
        for x, e in letters:
            if e not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {x}^{e}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _trusted(cls, letters: tuple[Letter, ...]) -> "ReducedWord":
        """Wrap letters already known to be reduced, without validation."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        # Both factors are reduced, so letters can cancel only at the seam.
        a, b = self.letters, other.letters
        if not b:
            return self
        if not a:
            return other
        k, m = len(a), 0
        while k and m < len(b) and a[k - 1][0] == b[m][0] and a[k - 1][1] == -b[m][1]:
            k -= 1
            m += 1
        return ReducedWord._trusted(a[:k] + b[m:])

    def inverse(self) -> "ReducedWord":
        return ReducedWord._trusted(tuple((x, -e) for x, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_sums(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for x, e in self.letters:
            out[x] = out.get(x, 0) + e
        return {x: v for x, v in out.items() if v}

    def __str__(self) -> str:
        return " ".join(x if e == 1 else f"{x}^-1" for x, e in self.letters) or "1"


def reduce(raw: Iterable[Letter]) -> ReducedWord:
    """Freely reduce a letter sequence; idempotent."""
    stack: list[Letter] = []
    for x, e in raw:
        if stack and stack[-1][0] == x and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((x, e))
    return ReducedWord(tuple(stack))


class FStarElement(Record):
    """A tuple of reduced words, one per slot 1..n."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[ReducedWord, ...]):
        object.__setattr__(self, "components", components)

    @classmethod
    def identity(cls, n: int) -> "FStarElement":
        return cls((ReducedWord(),) * n)

    @property
    def n(self) -> int:
        return len(self.components)

    def is_identity(self) -> bool:
        return all(w.is_identity() for w in self.components)

    def __str__(self) -> str:
        parts = [
            f"{slot}: {w}"
            for slot, w in enumerate(self.components, start=1)
            if not w.is_identity()
        ]
        return ", ".join(parts) or "1"


def fstar_mul(p: FStarElement, q: FStarElement) -> FStarElement:
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return FStarElement(tuple(a * b for a, b in zip(p.components, q.components)))


def fstar_inv(p: FStarElement) -> FStarElement:
    return FStarElement(tuple(w.inverse() for w in p.components))


def ab(p: FStarElement) -> tuple[tuple[str, int], ...]:
    """Total exponent sums per chord label, summed over all slots: the
    nonzero ``(label, total)`` pairs in label order."""
    totals: dict[str, int] = {}
    for w in p.components:
        for x, v in w.exponent_sums().items():
            totals[x] = totals.get(x, 0) + v
    return tuple(sorted((x, v) for x, v in totals.items() if v))


def in_ftn(p: FStarElement) -> bool:
    """Membership in the kernel of the summed exponent map."""
    return not ab(p)


def component_exponents(p: FStarElement) -> dict[tuple[str, int], int]:
    """Exponent sums per (chord label, slot); the kernel's abelianized image."""
    out: dict[tuple[str, int], int] = {}
    for slot, w in enumerate(p.components, start=1):
        for x, v in w.exponent_sums().items():
            out[(x, slot)] = v
    return out


def erase_letter(p: FStarElement, label: str) -> FStarElement:
    """Delete every occurrence of one chord letter, slotwise, re-reducing."""
    return FStarElement(
        tuple(reduce(l for l in w.letters if l[0] != label) for w in p.components)
    )


def sn_act_f(s: Permutation, p: FStarElement) -> FStarElement:
    """Permute slots: the word at slot i moves to slot s(i)."""
    if s.n != p.n:
        raise ValueError(f"size mismatch: {s.n} vs {p.n}")
    comps = [ReducedWord()] * p.n
    for i in range(1, p.n + 1):
        comps[s(i) - 1] = p.components[i - 1]
    return FStarElement(tuple(comps))


class SemidirectElement(Record):
    """A pair (permutation, product-of-free-groups element), written s.f.

    Multiplication moves the left factor's free part past the right
    factor's permutation: (s1, f1)(s2, f2) = (s1 s2, (s2 . f1) f2).
    """

    __slots__ = ("perm", "f")

    def __init__(self, perm: Permutation, f: FStarElement):
        if perm.n != f.n:
            raise ValueError(f"size mismatch: {perm.n} vs {f.n}")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "f", f)

    @classmethod
    def identity(cls, n: int) -> "SemidirectElement":
        return cls(Permutation.identity(n), FStarElement.identity(n))

    @property
    def n(self) -> int:
        return self.perm.n

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        return sd_mul(self, other)

    def inverse(self) -> "SemidirectElement":
        return sd_inv(self)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and self.f.is_identity()

    def __str__(self) -> str:
        return f"{self.perm} | {self.f}"


def sd_mul(g: SemidirectElement, h: SemidirectElement) -> SemidirectElement:
    return SemidirectElement(
        compose(g.perm, h.perm), fstar_mul(sn_act_f(h.perm, g.f), h.f)
    )


def sd_inv(g: SemidirectElement) -> SemidirectElement:
    pinv = g.perm.inverse()
    return SemidirectElement(pinv, sn_act_f(pinv, fstar_inv(g.f)))
