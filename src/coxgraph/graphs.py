"""Simple labeled graphs: parsing, spanning trees, basic cycles, duals.

Vertices are the integers 1..n.  Edges carry unique string labels and are
undirected; an edge is always stored with its smaller endpoint first, and
that endpoint doubles as the edge's canonical starting point wherever a
direction is needed (chord orientation, cycle labeling).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable

from ._record import Record

LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class GraphError(ValueError):
    """A structurally invalid graph; ``row`` indexes the failing edge row, if any."""

    def __init__(self, reason: str, row: int | None = None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason, self.row = reason, row


class GraphParseError(GraphError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedError(GraphError):
    """Raised by operations that require a connected graph."""


class UnknownLabelError(KeyError):
    """A word uses a label that is no edge of the graph."""

    def __init__(self, label: str):
        super().__init__(f"unknown edge label {label!r}")


class Edge(Record):
    __slots__ = ("label", "a", "b")

    def __init__(self, label: str, a: int, b: int):
        """a is the smaller endpoint, b the larger."""
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def shares_vertex(self, e: "Edge") -> bool:
        return bool({self.a, self.b} & {e.a, e.b})


class Graph:
    """An immutable simple graph with labeled edges on vertices 1..n."""

    def __init__(self, n: int, edges: Iterable[tuple[str, int, int]]):
        if n < 1:
            raise GraphError(f"need at least one vertex, got n={n}")
        normalized = []
        seen_labels: set[str] = set()
        seen_pairs: set[tuple[int, int]] = set()
        for row, (label, a, b) in enumerate(edges):
            if a < 1 or b < 1:
                raise GraphError(f"vertices must be positive, got {a} {b}", row)
            if not LABEL_RE.match(label):
                raise GraphError(f"bad label {label!r}", row)
            if a > n or b > n:
                raise GraphError(f"edge {label}: vertex out of range 1..{n}", row)
            if a == b:
                raise GraphError(f"edge {label}: loop at vertex {a}", row)
            lo, hi = min(a, b), max(a, b)
            if (lo, hi) in seen_pairs:
                raise GraphError(f"edge {label}: duplicate pair {{{lo},{hi}}}", row)
            if label in seen_labels:
                raise GraphError(f"duplicate label {label}", row)
            seen_labels.add(label)
            seen_pairs.add((lo, hi))
            normalized.append(Edge(label, lo, hi))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(normalized, key=lambda e: e.label))
        self._by_label = {e.label: e for e in self.edges}
        # Only vertices on an edge get an entry, so a huge n with few edges
        # costs nothing before the connectivity check rejects it.
        adj: dict[int, list[tuple[int, str]]] = {}
        for e in self.edges:
            adj.setdefault(e.a, []).append((e.b, e.label))
            adj.setdefault(e.b, []).append((e.a, e.label))
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges)

    def edge(self, label: str) -> Edge:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def neighbors(self, v: int) -> tuple[tuple[int, str], ...]:
        """Pairs (neighbor, edge label) in ascending neighbor order."""
        return self._adj.get(v, ())

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def parse_graph(text: str) -> Graph:
    """Parse the plain-text edge list format.

    Each non-empty, non-comment line reads ``A B LABEL`` with positive
    integer endpoints; ``#`` starts a comment.  The vertex count is the
    largest endpoint mentioned.  ``Graph`` validates the rows read before
    the first line that does not parse, so an earlier invalid row wins.
    """
    rows: list[tuple[str, int, int]] = []
    linenos: list[int] = []
    error = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            error = GraphParseError(f"expected 'A B LABEL', got {line!r}", lineno)
            break
        try:
            rows.append((parts[2], int(parts[0]), int(parts[1])))
        except ValueError:
            error = GraphParseError(f"bad vertex in {line!r}", lineno)
            break
        linenos.append(lineno)
    # At least one vertex, so that a non-positive endpoint fails on its row.
    n = max([1] + [max(a, b) for _, a, b in rows])
    try:
        g = Graph(n, rows)
    except GraphError as exc:
        raise GraphParseError(exc.reason, linenos[exc.row]) from None
    if error is not None:
        raise error
    if not rows:
        raise GraphParseError("no edges", 1)
    return g


def graph_text(g: Graph) -> str:
    """Serialize a graph into the format accepted by parse_graph."""
    return "\n".join(f"{e.a} {e.b} {e.label}" for e in g.edges) + "\n"


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, smallest first:
    the union-find classes of the vertices on an edge, and each vertex on
    no edge alone."""
    _, find = _union_find(g)
    classes: dict[int, list[int]] = {}
    for v in sorted(g._adj):
        classes.setdefault(find(v), []).append(v)
    alone = [(v,) for v in g.vertices() if v not in g._adj]
    return sorted([*map(tuple, classes.values()), *alone])


def _union_find(g: Graph) -> tuple[list[Edge], Callable[[int], int]]:
    """Scan edges in label order and keep the ones that join two union-find
    classes: the minimum-label spanning forest, with the class root of each
    vertex on an edge.  This is the one place that decides connectivity."""
    root_of = {v: v for v in g._adj}

    def find(v: int) -> int:
        while root_of[v] != v:
            root_of[v] = root_of[root_of[v]]
            v = root_of[v]
        return v

    chosen: list[Edge] = []
    for e in g.edges:  # already label-sorted
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            root_of[ra] = rb
            chosen.append(e)
    return chosen, find


def _tree_edges(g: Graph) -> list[Edge] | None:
    """The minimum-label spanning tree's edges, or None when g is not
    connected.  A vertex on no edge is a component of its own; counting the
    vertices on an edge settles that before anything is allocated per vertex.
    """
    if g.n > 1 and len(g._adj) < g.n:
        return None
    chosen, _ = _union_find(g)
    return chosen if len(chosen) == g.n - 1 else None


def is_connected(g: Graph) -> bool:
    return _tree_edges(g) is not None


class SpanningTreeData(Record):
    """A spanning tree, rooted at vertex 1 for path computations."""

    __slots__ = ("tree_edges", "parent", "depth")

    def __init__(self, tree_edges: frozenset[str],
                 parent: dict[int, tuple[int, str]], depth: dict[int, int]):
        """parent maps a vertex to (parent vertex, edge label)."""
        object.__setattr__(self, "tree_edges", tree_edges)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "depth", depth)


def spanning_tree(g: Graph) -> SpanningTreeData:
    """Deterministic spanning tree: the minimum-label tree, a pure function
    of the graph because labels are unique.  Raises ``DisconnectedError``
    when g is not connected.
    """
    chosen = _tree_edges(g)
    if chosen is None:
        raise DisconnectedError(
            "analysis needs a connected graph; split it into components first"
        )
    tree_edges = frozenset(e.label for e in chosen)
    parent: dict[int, tuple[int, str]] = {}
    depth = {1: 0}
    stack = [1]
    while stack:
        v = stack.pop()
        for w, label in g.neighbors(v):
            if label in tree_edges and w not in depth:
                depth[w] = depth[v] + 1
                parent[w] = (v, label)
                stack.append(w)
    return SpanningTreeData(tree_edges, parent, depth)


def _tree_path(t0: SpanningTreeData, a: int,
               b: int) -> tuple[list[int], tuple[str, ...]]:
    """The unique tree path from a to b, walked once: its vertices, starting
    at a and ending at b, and the label of each step, which is the parent
    edge of the step's deeper endpoint."""
    parent, depth = t0.parent, t0.depth
    verts_a, labels_a, verts_b, labels_b = [a], [], [b], []
    x, y = a, b
    while x != y:
        if depth[x] >= depth[y]:
            x, label = parent[x]
            verts_a.append(x)
            labels_a.append(label)
        else:
            y, label = parent[y]
            verts_b.append(y)
            labels_b.append(label)
    return verts_a + verts_b[-2::-1], tuple(labels_a + labels_b[::-1])


def tree_path_labels(t0: SpanningTreeData, a: int, b: int) -> tuple[str, ...]:
    """Edge labels along the unique tree path from a to b."""
    return _tree_path(t0, a, b)[1]


def tree_path_vertices(t0: SpanningTreeData, a: int, b: int) -> list[int]:
    """Vertices along the unique tree path, starting at a and ending at b."""
    return _tree_path(t0, a, b)[0]


class BasicCycle(Record):
    """The unique cycle closed by one chord over the spanning tree.

    Cycle-local vertex i (1-based) is ``local_to_global[i-1]``; local vertex 1
    is the chord's starting point and local vertex m its end.  ``cycle_edges``
    lists the tree edges u_2..u_m, the i-th joining local vertices i-1 and i;
    the chord itself plays the role of u_1.
    """

    __slots__ = ("chord", "local_to_global", "cycle_edges")

    def __init__(self, chord: str, local_to_global: tuple[int, ...],
                 cycle_edges: tuple[str, ...]):
        object.__setattr__(self, "chord", chord)
        object.__setattr__(self, "local_to_global", local_to_global)
        object.__setattr__(self, "cycle_edges", cycle_edges)

    @property
    def m(self) -> int:
        return len(self.local_to_global)

    def edge_at(self, i: int) -> str:
        """Edge u_i with wraparound: u_{m+1} means u_1 (the chord)."""
        i = (i - 1) % self.m + 1
        return self.chord if i == 1 else self.cycle_edges[i - 2]

    def local_index(self, v: int) -> int | None:
        try:
            return self.local_to_global.index(v) + 1
        except ValueError:
            return None


def basic_cycles(g: Graph, t0: SpanningTreeData) -> tuple[BasicCycle, ...]:
    """One basic cycle per chord, in chord label order."""
    cycles = []
    for e in g.edges:
        if e.label in t0.tree_edges:
            continue
        verts, labels = _tree_path(t0, e.a, e.b)
        cycles.append(BasicCycle(e.label, tuple(verts), labels))
    return tuple(cycles)


def cycle_rank(g: Graph) -> int:
    return len(g.edges) - g.n + 1


def dual_graph(g: Graph) -> Graph:
    """The graph on the edges of g, with adjacency given by edge intersection.

    Dual vertices are 1..|edges| in label order of the original edges.
    """
    k = len(g.edges)
    dual_edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if g.edges[i].shares_vertex(g.edges[j]):
                dual_edges.append((f"d{i + 1}_{j + 1}", i + 1, j + 1))
    return Graph(max(k, 1), dual_edges)


def has_forbidden_fork(g: Graph) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Detect the four-vertex fork: a middle vertex with three distinct
    neighbors (a length-2 path plus a pendant edge at its middle).

    Returns (found, witness) with witness = (middle, leaf, leaf, leaf).
    """
    for v in g.vertices():
        nbrs = [w for w, _ in g.neighbors(v)]
        if len(nbrs) >= 3:
            return True, (v, nbrs[0], nbrs[1], nbrs[2])
    return False, None


def edge_subgraph(g: Graph, labels: Iterable[str]) -> tuple[Graph, dict[int, int]]:
    """The subgraph spanned by the given edges, vertices renumbered 1..k in
    increasing order of their original names.  Returns (graph, old->new map).
    """
    chosen = [g.edge(label) for label in labels]
    verts = sorted({v for e in chosen for v in (e.a, e.b)})
    renum = {old: new for new, old in enumerate(verts, start=1)}
    sub = Graph(len(verts), [(e.label, renum[e.a], renum[e.b]) for e in chosen])
    return sub, renum
