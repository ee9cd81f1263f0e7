"""Symbolic kernel generators, their normal forms, and relator emission.

A kernel generator x_{ij} pairs a chord label with two slots.  Its normal
form lives in the product of free groups: the chord letter at slot i and
its inverse at slot j (the empty element when i = j).  Relator sets for the
graph presentations are emitted as explicit finite word lists so they can
be pumped through the evaluation maps and checked exactly.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations

from ._record import Record
from .freeprod import EMPTY_WORD, FStarElement, ReducedWord, fstar_inv, fstar_mul
from .graphs import Graph, basic_cycles, spanning_tree
from .perms import Permutation

EdgeWord = tuple[str, ...]


class AGenerator(Record):
    __slots__ = ("chord", "i", "j")

    def __init__(self, chord: str, i: int, j: int):
        object.__setattr__(self, "chord", chord)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def __str__(self) -> str:
        if self.i < 10 and self.j < 10:
            return f"{self.chord}_{{{self.i}{self.j}}}"
        return f"{self.chord}_{{{self.i},{self.j}}}"


# A word over kernel generators: pairs (generator, +1 or -1).
AWord = tuple[tuple[AGenerator, int], ...]


def mu(gen: AGenerator, n: int) -> FStarElement:
    """Normal form of a generator: its chord letter at slot i, the inverse
    at slot j; the identity when i = j.
    """
    if not (1 <= gen.i <= n and 1 <= gen.j <= n):
        raise ValueError(f"slots out of range 1..{n}: {gen}")
    comps = [EMPTY_WORD] * n
    if gen.i != gen.j:
        comps[gen.i - 1] = ReducedWord._trusted(((gen.chord, 1),))
        comps[gen.j - 1] = ReducedWord._trusted(((gen.chord, -1),))
    return FStarElement(tuple(comps))


def mu_word(aw: AWord, n: int) -> FStarElement:
    out = FStarElement.identity(n)
    for gen, exp in aw:
        img = mu(gen, n)
        out = fstar_mul(out, img if exp == 1 else fstar_inv(img))
    return out


def act_a(s: Permutation, gen: AGenerator) -> AGenerator:
    """Push both slots of a generator through a permutation."""
    return AGenerator(gen.chord, s(gen.i), s(gen.j))


def relators(g: Graph, which: str) -> tuple:
    """The full defining relator list of one of the presentations, as a
    tuple of edge words (generator words for "atn").

    which = "coxeter":   involutions, disjoint commutation, braid triples.
    which = "coxy":      coxeter plus one fork relator per edge triple at a
                         common vertex.
    which = "symmetric": coxy plus one cycle relator per basic cycle
                         (requires a connected graph).
    which = "atn":       the kernel-generator presentation over the chords
                         of the connected graph.
    """
    if which == "atn":
        return _atn_relators(g)
    if which not in ("coxeter", "coxy", "symmetric"):
        raise ValueError(f"unknown presentation {which!r}")
    rels: list[EdgeWord] = []
    labels = g.labels
    for u in labels:
        rels.append((u, u))
    for u, v in combinations(labels, 2):
        if g.edge(u).shares_vertex(g.edge(v)):
            rels.append((u, v, u, v, u, v))
        else:
            rels.append((u, v, u, v))
    if which in ("coxy", "symmetric"):
        for s in g.vertices():
            at_s = sorted(label for _, label in g.neighbors(s))
            for u, v, w in combinations(at_s, 3):
                rels.append((u, v, w, v, u, v, w, v))
    if which == "symmetric":
        t0 = spanning_tree(g)
        for cyc in basic_cycles(g, t0):
            side = (cyc.chord,) + cyc.cycle_edges  # u_1 .. u_m
            rels.append(side[:-1] + tuple(reversed(side[1:])))
    return tuple(rels)


def _atn_relators(g: Graph) -> tuple[AWord, ...]:
    t0 = spanning_tree(g)
    chords = sorted(label for label in g.labels if label not in t0.tree_edges)
    n = g.n
    rels: list[AWord] = []
    for x in chords:
        for i in range(1, n + 1):
            rels.append(((AGenerator(x, i, i), 1),))
        for i, j, k in permutations(range(1, n + 1), 3):
            rels.append(
                (
                    (AGenerator(x, i, j), 1),
                    (AGenerator(x, j, k), 1),
                    (AGenerator(x, i, k), -1),
                )
            )
            rels.append(
                (
                    (AGenerator(x, j, k), 1),
                    (AGenerator(x, i, j), 1),
                    (AGenerator(x, i, k), -1),
                )
            )
    for x, y in combinations_with_replacement(chords, 2):
        rels.extend(_disjoint_commutators(x, y, n))
    return tuple(rels)


def _disjoint_commutators(x: str, y: str, n: int) -> list[AWord]:
    out: list[AWord] = []
    for i, j, k, l in permutations(range(1, n + 1), 4):
        a, b = AGenerator(x, i, j), AGenerator(y, k, l)
        out.append(((a, 1), (b, 1), (a, -1), (b, -1)))
    return out


class TsaranovReport(Record):
    __slots__ = ("graph", "n", "t", "extra_relators")

    def __init__(self, graph: Graph, n: int, t: int, extra_relators: str):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "extra_relators", extra_relators)


class ParameterError(ValueError):
    """Parameters outside the range a construction is defined for."""


# The most vertices ``tsaranov_presentation`` builds a graph on.
TSARANOV_MAX_N = 10_000


def tsaranov_presentation(a: int, b: int, t: int) -> TsaranovReport:
    """Defining data for the generalized Coxeter group cut out of a complete
    bipartite graph minus t disjoint edges.

    The defining graph glues t triangles along a common edge and attaches
    stars of a-t and b-t pendant edges at the two shared endpoints; it has
    a+b+2-t vertices and cycle rank t.  For t >= 1 the quotient adds the
    relator family x_i^2 x_j^-2 over the chord alphabet.
    """
    if t < 0 or a < t or b < t:
        raise ParameterError(
            f"need a >= t >= 0 and b >= t, got a={a} b={b} t={t}"
        )
    n = a + b + 2 - t
    if n > TSARANOV_MAX_N:
        raise ParameterError(f"need a + b + 2 - t <= {TSARANOV_MAX_N}, got {n}")
    g = tsaranov_graph(a, b, t)
    assert g.n == n
    family = "x_i^2 x_j^-2 (x in X, i != j)" if t >= 1 else "none"
    return TsaranovReport(g, n, t, family)


def tsaranov_graph(a: int, b: int, t: int) -> Graph:
    edges: list[tuple[str, int, int]] = [("u0", 1, 2)]
    v = 2
    for k in range(1, t + 1):
        v += 1
        edges.append((f"p{k}", 1, v))
        edges.append((f"q{k}", 2, v))
    for k in range(1, a - t + 1):
        v += 1
        edges.append((f"s{k}", 1, v))
    for k in range(1, b - t + 1):
        v += 1
        edges.append((f"r{k}", 2, v))
    return Graph(v, edges)
