"""The semidirect-product embedding of a graph's quotient Coxeter group.

Given a connected graph, the group generated by its edges (with involution,
commutation, braid, and fork relations) maps into the semidirect product of
the symmetric group with a product of free groups over the chord alphabet:
tree edges go to bare transpositions, each chord to its transposition paired
with a one-letter kernel generator.  The map is an isomorphism onto the
kernel-sum-zero part except for the complete graph on four vertices, where
the free-group side is only a quotient; verdicts say so explicitly.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import chain

from ._record import Record
from .freeprod import EMPTY_WORD, FStarElement, Letter, ReducedWord, SemidirectElement
from .graphs import (
    BasicCycle,
    Graph,
    SpanningTreeData,
    UnknownLabelError,
    basic_cycles,
    spanning_tree,
    tree_path_labels,
)
from .perms import Permutation
from .presentation import AGenerator, EdgeWord, mu


# Characters per slice of a word's text.  A slice ends at whitespace, so a
# longer token extends its slice; on ``str``, ``\s`` is ``str.isspace()``.
WORD_CHUNK = 4096
_SPACE = re.compile(r"\s")


def _tokens(text: str, backward: bool = False) -> Iterator[str]:
    """``text.split()``'s tokens, last first if ``backward``, split from
    slices of about ``WORD_CHUNK`` characters."""
    cuts, at = [0], WORD_CHUNK
    while at < len(text) and (space := _SPACE.search(text, at)):
        cuts.append(space.start())
        at = space.start() + WORD_CHUNK
    spans = list(zip(cuts, cuts[1:] + [len(text)]))
    if backward:
        return chain.from_iterable(reversed(text[a:b].split()) for a, b in spans[::-1])
    return chain.from_iterable(text[a:b].split() for a, b in spans)


class TextWord(Record):
    """A word kept as its text: iterating it, or ``reversed`` of it, reads
    its letters a slice at a time."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        object.__setattr__(self, "text", text)

    def __iter__(self) -> Iterator[str]:
        return _tokens(self.text)

    def __reversed__(self) -> Iterator[str]:
        return _tokens(self.text, backward=True)


def parse_word(text: str) -> EdgeWord:
    """Split a whitespace-separated word into its letters."""
    return tuple(_tokens(text))


def reverse_word(w: EdgeWord) -> EdgeWord:
    """The inverse word; edge generators are involutions."""
    return tuple(reversed(w))


# Per-label data for one step of ``phi``: the 0-based endpoints a, b and,
# for a chord x, the shared letters (x, 1) and (x, -1); None, None for a
# tree edge.
Step = tuple[int, int, Letter | None, Letter | None]


class Context:
    """Everything fixed once per graph: the spanning tree, the basic cycles
    with their local labelings, and the per-letter images and steps.
    """

    def __init__(self, graph: Graph, tree: SpanningTreeData,
                 cycles: tuple[BasicCycle, ...]):
        self.graph = graph
        self.tree = tree
        self.cycles = cycles
        self.cycle_by_chord = {c.chord: c for c in cycles}
        self.chords = tuple(c.chord for c in cycles)
        self.n = graph.n
        self.t = len(cycles)
        self.home = list(range(1, graph.n + 1))  # where of the identity
        self.identity_state = [[v] for v in self.home]  # _run of the empty word
        self.is_k4 = graph.n == 4 and len(graph.edges) == 6
        self._images: dict[str, SemidirectElement] = {}
        self.steps: dict[str, Step] = {}
        for e in graph.edges:
            if self.is_tree_edge(e.label):
                self.steps[e.label] = (e.a - 1, e.b - 1, None, None)
            else:
                self.steps[e.label] = (
                    e.a - 1, e.b - 1, (e.label, 1), (e.label, -1)
                )

    def is_tree_edge(self, label: str) -> bool:
        return label in self.tree.tree_edges

    def letter_image(self, label: str) -> SemidirectElement:
        img = self._images.get(label)
        if img is None:
            e = self.graph.edge(label)
            perm = Permutation.transposition(self.n, e.a, e.b)
            if self.is_tree_edge(label):
                f = FStarElement.identity(self.n)
            else:
                f = mu(AGenerator(label, e.a, e.b), self.n)
            img = SemidirectElement(perm, f)
            self._images[label] = img
        return img


def build_context(g: Graph) -> Context:
    t0 = spanning_tree(g)
    return Context(g, t0, basic_cycles(g, t0))


def _run(ctx: Context, w: Iterable[str]) -> list[list]:
    """The evaluator state after the word: one stack per position p.  Its
    bottom entry is the vertex the permutation sends to p + 1, so the
    bottoms list the inverse images; the entries above it are the reduced
    word of slot p + 1, one letter each.

    A letter on edge (a b) swaps stacks a and b, which is the action of its
    transposition on vertices and slots alike; a chord letter x then pushes
    x on stack a and x^-1 on stack b, popping the top instead where it is
    the inverse letter.  A bottom is an int, never one of the shared letter
    tuples, so no emptiness test is needed.  Every step keeps the bottoms a
    permutation and each slot word reduced.  Unknown labels raise in word
    order.
    """
    steps = ctx.steps
    stacks = [[v] for v in ctx.home]
    for label in w:
        try:
            a, b, plus, minus = steps[label]
        except KeyError:
            raise UnknownLabelError(label) from None
        sa = stacks[b]
        sb = stacks[a]
        stacks[a] = sa
        stacks[b] = sb
        if plus is not None:
            if sa[-1] is minus:
                sa.pop()
            else:
                sa.append(plus)
            if sb[-1] is plus:
                sb.pop()
            else:
                sb.append(minus)
    return stacks


def phi(ctx: Context, w: Iterable[str]) -> SemidirectElement:
    """Evaluate an edge word in the semidirect product, first letter first.

    One pass over mutable state (``_run``), equal to the ``sd_mul`` fold of
    the letter images but O(1) per letter; the stack bottoms form a
    permutation and the entries above them reduced slot words, so the
    result is built unchecked.
    """
    stacks = _run(ctx, w)
    return SemidirectElement(
        Permutation._trusted_inverse([s[0] for s in stacks]),
        FStarElement(tuple([ReducedWord._trusted(tuple(s[1:])) if len(s) > 1
                            else EMPTY_WORD for s in stacks])),
    )


def trivial_image(ctx: Context, w: Iterable[str]) -> bool:
    """Whether ``phi`` of the word is the identity, decided without building
    the element: first the permutation alone, through ``_run``'s step table
    (if it moves, the slots cannot matter), then the evaluator state."""
    w = tuple(w)
    steps = ctx.steps
    where = ctx.home.copy()
    for label in w:
        try:
            a, b, _, _ = steps[label]
        except KeyError:
            raise UnknownLabelError(label) from None
        where[a], where[b] = where[b], where[a]
    return where == ctx.home and _run(ctx, w) == ctx.identity_state


def tilde(ctx: Context, cyc: BasicCycle, label: str) -> EdgeWord:
    """Rewrite one edge across the given basic cycle.

    Cases: an edge off the cycle is untouched; the cycle edge u_i becomes
    u_{i+1} (indices wrap, so the last tree edge becomes the chord); an edge
    touching the cycle at local vertex i only is conjugated by u_{i+1}; an
    edge joining two cycle vertices i < j is conjugated by u_{i+1} then
    u_{j+1}.
    """
    e = ctx.graph.edge(label)
    if label == cyc.chord:
        return (cyc.edge_at(2),)
    if label in cyc.cycle_edges:
        i = cyc.cycle_edges.index(label) + 2
        return (cyc.edge_at(i + 1),)
    touches = sorted(
        i for i in (cyc.local_index(e.a), cyc.local_index(e.b)) if i is not None
    )
    if not touches:
        return (label,)
    if len(touches) == 1:
        u_next = cyc.edge_at(touches[0] + 1)
        return (u_next, label, u_next)
    i, j = touches
    ui, uj = cyc.edge_at(i + 1), cyc.edge_at(j + 1)
    return (ui, uj, label, uj, ui)


def tilde_word(ctx: Context, cyc: BasicCycle, w: Iterable[str]) -> EdgeWord:
    """Letterwise extension of the rewriting map to words."""
    out: list[str] = []
    for label in w:
        out.extend(tilde(ctx, cyc, label))
    return tuple(out)


def gamma(ctx: Context, cyc: BasicCycle, a: int) -> EdgeWord:
    """The loop element of a basic cycle attached to the global vertex a.

    On the cycle (local index i) it is the rotated cycle word
    u_{i+2}..u_m u_1..u_i, with the two boundary forms u_1..u_{m-1} and
    u_2..u_m.  Off the cycle it is conjugated down the tree path from the
    chord's starting vertex: rewritten path, base loop, then the path.
    """
    if not (1 <= a <= ctx.n):
        raise ValueError(f"vertex {a} out of range 1..{ctx.n}")
    m = cyc.m
    i = cyc.local_index(a)
    if i is not None:
        if i == m:
            return cyc.cycle_edges  # u_2 .. u_m
        if i == m - 1:
            return (cyc.chord,) + cyc.cycle_edges[:-1]  # u_1 .. u_{m-1}
        head = tuple(cyc.edge_at(k) for k in range(i + 2, m + 1))
        tail = (cyc.chord,) + cyc.cycle_edges[: i - 1]  # u_1 .. u_i
        return head + tail
    start = cyc.local_to_global[0]
    path = tree_path_labels(ctx.tree, start, a)
    prefix: list[str] = []
    for label in reversed(path):
        prefix.extend(tilde(ctx, cyc, label))
    base = gamma(ctx, cyc, start)
    return tuple(prefix) + base + path


def cycle_rotation(ctx: Context, cyc: BasicCycle) -> Permutation:
    """The permutation all loop elements of the cycle map to: each cycle
    vertex steps back one place, the chord's start wrapping to its end.
    """
    images = list(range(1, ctx.n + 1))
    lg = cyc.local_to_global
    for k, v in enumerate(lg):
        images[v - 1] = lg[k - 1]  # k=0 wraps to the last entry
    return Permutation(images)


def psi_perm(ctx: Context, s: Permutation) -> EdgeWord:
    """A tree-edge word evaluating to the given permutation.

    The permutation is split into cycles, each cycle into transpositions
    hung off its smallest element, and each transposition is realized as a
    palindrome along the unique tree path between its two vertices.
    """
    if s.n != ctx.n:
        raise ValueError(f"size mismatch: {s.n} vs {ctx.n}")
    out: list[str] = []
    for cyc in s.cycles():
        for other in cyc[1:]:
            path = tree_path_labels(ctx.tree, cyc[0], other)
            out += path + path[-2::-1]
    return tuple(out)


def psi_gen(ctx: Context, gen: AGenerator) -> EdgeWord:
    """An edge word evaluating to the bare kernel generator x_{ij}: the
    reversed loop at j followed by the loop at i, over x's basic cycle.
    """
    cyc = ctx.cycle_by_chord.get(gen.chord)
    if cyc is None:
        raise KeyError(f"{gen.chord!r} is not a chord of this graph")
    return _gen_word(gamma(ctx, cyc, gen.j), gamma(ctx, cyc, gen.i))


def _gen_word(loop_j: EdgeWord, loop_i: EdgeWord) -> EdgeWord:
    """``psi_gen``'s word for x_{ij} from the loops at j and at i."""
    return reverse_word(loop_j) + loop_i


class VerdictKind(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    TRIVIAL_IN_QUOTIENT = "quotient"


class Verdict(Record):
    __slots__ = ("kind", "witness")

    def __init__(self, kind: VerdictKind, witness: SemidirectElement | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


def is_trivial(ctx: Context, w: Iterable[str]) -> Verdict:
    """Decide whether an edge word is the identity.

    Exact for every connected graph except the complete graph on four
    vertices, whose image is computed in a quotient only: there a trivial
    image yields the explicit quotient-level verdict, never a full claim.
    """
    g = phi(ctx, w)
    if not g.is_identity():
        return Verdict(VerdictKind.NONTRIVIAL, g)
    if ctx.is_k4:
        return Verdict(VerdictKind.TRIVIAL_IN_QUOTIENT)
    return Verdict(VerdictKind.TRIVIAL)


def equal(ctx: Context, w1: Iterable[str], w2: Iterable[str]) -> Verdict:
    """Decide w1 = w2 as one pass over w1 then w2 last letter first; a w2
    that ``reversed`` cannot read backward is read into a tuple first."""
    try:
        back = reversed(w2)
    except TypeError:
        back = reversed(tuple(w2))
    return is_trivial(ctx, chain(w1, back))


def in_kernel(ctx: Context, w: Iterable[str]) -> tuple[bool, FStarElement]:
    """Whether the word's permutation image is the identity, plus the
    free-part witness."""
    g = phi(ctx, w)
    return g.perm.is_identity(), g.f


class Classification(Enum):
    SYMMETRIC_GROUP = "symmetric"
    VIRTUALLY_ABELIAN = "virtually_abelian"
    CONTAINS_FREE_SUBGROUP = "free_subgroup"


class StructureReport(Record):
    __slots__ = ("n", "t", "classification", "kernel_ab_rank", "is_k4",
                 "torsion_free_kernel", "residually_finite", "word_problem_exact")

    def __init__(self, n: int, t: int, classification: Classification,
                 kernel_ab_rank: int, is_k4: bool, torsion_free_kernel: bool,
                 residually_finite: bool, word_problem_exact: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "kernel_ab_rank", kernel_ab_rank)
        object.__setattr__(self, "is_k4", is_k4)
        object.__setattr__(self, "torsion_free_kernel", torsion_free_kernel)
        object.__setattr__(self, "residually_finite", residually_finite)
        object.__setattr__(self, "word_problem_exact", word_problem_exact)


def structure_report(ctx: Context) -> StructureReport:
    """Invariants read off the embedding: the group is the symmetric group
    for a tree, virtually abelian with one cycle, and contains a nonabelian
    free subgroup otherwise; the kernel abelianizes to rank t(n-1).  The
    three guarantee flags all fail only on the complete four-vertex graph.
    """
    t = ctx.t
    if t == 0:
        cls = Classification.SYMMETRIC_GROUP
    elif t == 1:
        cls = Classification.VIRTUALLY_ABELIAN
    else:
        cls = Classification.CONTAINS_FREE_SUBGROUP
    good = not ctx.is_k4
    return StructureReport(
        n=ctx.n,
        t=t,
        classification=cls,
        kernel_ab_rank=t * (ctx.n - 1),
        is_k4=ctx.is_k4,
        torsion_free_kernel=good,
        residually_finite=good,
        word_problem_exact=good,
    )


def kernel_generator_parts(ctx: Context) -> list[FStarElement]:
    """Free parts of the standard kernel generators x_{i,i+1}, every chord,
    i = 1..n-1; their abelianized images have full rank t(n-1).
    """
    parts = []
    for cyc in ctx.cycles:
        loops = [gamma(ctx, cyc, a) for a in range(1, ctx.n + 1)]
        parts += [phi(ctx, _gen_word(loops[i], loops[i - 1])).f
                  for i in range(1, ctx.n)]
    return parts
