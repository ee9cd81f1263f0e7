"""Permutations of 1..n with left-to-right composition.

Products are read left to right: (s * t)(a) = t(s(a)), so the left factor
acts first.  This matches the convention used for edge words, where the
first letter of a word is applied first.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record


class Permutation:
    """The images of 1..n, read-only as in a ``Record``."""

    __slots__ = ("images",)
    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images already known to be a permutation, without validation."""
        p = object.__new__(cls)
        _set_images(p, images)
        return p

    def __reduce__(self):
        return type(self), (self.images,)

    @classmethod
    def _trusted_inverse(cls, where: Sequence[int]) -> "Permutation":
        """The permutation whose inverse has the images ``where``, which
        must already be a permutation; nothing is validated."""
        images = [0] * len(where)
        for a, b in enumerate(where, start=1):
            images[b - 1] = a
        return cls._trusted(tuple(images))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"bad transposition ({a} {b}) in S_{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls._trusted(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for u, v in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                images[u - 1] = v
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, a: int) -> int:
        return self.images[a - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation._trusted_inverse(self.images)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                continue
            cyc = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = self(v)
            out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


# The setter of the ``images`` slot itself, which ``Permutation.__setattr__``
# cannot block; only the trusted constructor calls it.
_set_images = Permutation.images.__set__


def compose(s: Permutation, t: Permutation) -> Permutation:
    """The product st with s applied first: (st)(a) = t(s(a))."""
    if s.n != t.n:
        raise ValueError(f"size mismatch: {s.n} vs {t.n}")
    return Permutation._trusted(tuple(t.images[b - 1] for b in s.images))


def perm_of_word(g, word: Iterable[str]) -> Permutation:
    """Evaluate an edge word to a permutation, each label acting as the
    transposition of its endpoints, first letter first.

    Multiplying on the right by (a b) swaps entries a and b of the inverse
    image list, so each letter costs O(1).
    """
    where = list(range(1, g.n + 1))
    for label in word:
        e = g.edge(label)
        where[e.a - 1], where[e.b - 1] = where[e.b - 1], where[e.a - 1]
    return Permutation._trusted_inverse(where)
