import itertools
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxgraph.corpus import (
    complete4,
    cycle_graph,
    path_graph,
    sixpts_graph,
    y_graph,
)
from coxgraph.embedding import VerdictKind, build_context, is_trivial
from coxgraph.graphs import (
    DisconnectedError,
    Graph,
    GraphError,
    GraphParseError,
    basic_cycles,
    connected_components,
    cycle_rank,
    dual_graph,
    edge_subgraph,
    graph_text,
    has_forbidden_fork,
    is_connected,
    parse_graph,
    spanning_tree,
    tree_path_labels,
    tree_path_vertices,
)
from coxgraph.oracle import parabolic_check
from coxgraph.presentation import relators

from reference import components_by_walk, fork_oracle, isomorphic
from strategies import random_connected_graphs

# ---------------------------------------------------------------- oracles


def minimum_label_tree_oracle(g: Graph) -> frozenset:
    """Exhaustive oracle: among all spanning edge subsets, the one whose
    sorted label tuple is lexicographically smallest."""
    best = None
    for subset in itertools.combinations(g.edges, g.n - 1):
        verts = {v for e in subset for v in (e.a, e.b)}
        if len(verts) < g.n:
            continue
        roots = {v: v for v in range(1, g.n + 1)}

        def find(v):
            while roots[v] != v:
                v = roots[v]
            return v

        acyclic = True
        for e in subset:
            ra, rb = find(e.a), find(e.b)
            if ra == rb:
                acyclic = False
                break
            roots[ra] = rb
        if not acyclic:
            continue
        key = tuple(sorted(e.label for e in subset))
        if best is None or key < best:
            best = key
    assert best is not None
    return frozenset(best)


def all_simple_paths(g: Graph, a: int, b: int) -> list[tuple[list[int], list[str]]]:
    """Every simple path from a to b: its vertices and its edge labels."""
    out = []

    def walk(v, verts, labels):
        if v == b:
            out.append((verts[:], labels[:]))
            return
        for w, label in g.neighbors(v):
            if w not in verts:
                verts.append(w)
                labels.append(label)
                walk(w, verts, labels)
                labels.pop()
                verts.pop()

    walk(a, [a], [])
    return out


# ---------------------------------------------------------------- parsing


def test_parse_two_edge_path():
    g = parse_graph("1 2 a\n2 3 b")
    assert g.n == 3
    assert {(e.label, e.a, e.b) for e in g.edges} == {("a", 1, 2), ("b", 2, 3)}
    assert parse_graph("+1 2 a\n2 +3 b") == g  # a sign is allowed


def test_parse_rejects_duplicate_pair():
    with pytest.raises(GraphParseError, match="duplicate pair"):
        parse_graph("1 2 a\n1 2 b")


def test_parse_rejects_loop_and_bad_vertices():
    with pytest.raises(GraphParseError, match="loop"):
        parse_graph("2 2 a")
    with pytest.raises(GraphParseError, match="positive"):
        parse_graph("0 1 a")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("1 2 a\n1 2")


def test_parse_rejects_duplicate_label():
    with pytest.raises(GraphParseError, match="duplicate label"):
        parse_graph("1 2 a\n2 3 a")


@pytest.mark.parametrize("edges, row, text", [
    ([("a", 1, 2), ("9x", 2, 3)], 1, "row 1: bad label '9x'"),
    ([("a", 0, 2), ("9x", 2, 3)], 0, "row 0: vertices must be positive, got 0 2"),
    ([("9x", 0, 2)], 0, "row 0: vertices must be positive, got 0 2"),
    ([("a", 1, 4)], 0, "row 0: edge a: vertex out of range 1..3"),
    ([("a", 1, 2), ("b", 3, 3)], 1, "row 1: edge b: loop at vertex 3"),
    ([("a", 1, 2), ("b", 2, 1)], 1, "row 1: edge b: duplicate pair {1,2}"),
    ([("a", 1, 2), ("a", 2, 3)], 1, "row 1: duplicate label a"),
])
def test_graph_names_failing_row(edges, row, text):
    with pytest.raises(GraphError) as info:
        Graph(3, edges)
    assert (str(info.value), info.value.row) == (text, row)


@pytest.mark.parametrize("n", [0, -1])
def test_graph_needs_a_vertex(n):
    with pytest.raises(GraphError) as info:
        Graph(n, [])
    assert (str(info.value), info.value.row) == (f"need at least one vertex, got n={n}", None)


def test_parse_error_carries_line_not_row():
    with pytest.raises(GraphParseError) as info:
        parse_graph("# c\n1 2 a\n\n2 3 a\n")
    assert (str(info.value), info.value.line, info.value.row) == (
        "line 4: duplicate label a", 4, None)


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\n\n1 2 a  # trailing\n2 3 b\n")
    assert g.n == 3 and len(g.edges) == 2


def test_parse_sixpts_file():
    text = graph_text(sixpts_graph())
    g = parse_graph(text)
    assert g.n == 6
    assert len(g.edges) == 8
    assert g == sixpts_graph()


def test_graph_text_round_trip(corpus_graphs):
    for g in corpus_graphs.values():
        assert parse_graph(graph_text(g)) == g


# ------------------------------------------------------------- components


def test_components_path():
    assert connected_components(parse_graph("1 2 a\n2 3 b")) == [(1, 2, 3)]


def test_components_two_pieces():
    comps = connected_components(parse_graph("1 2 a\n3 4 b"))
    assert comps == [(1, 2), (3, 4)]


def test_components_k4():
    assert len(connected_components(complete4())) == 1


def test_components_match_walk_on_corpus(corpus_graphs):
    for name, g in corpus_graphs.items():
        assert connected_components(g) == components_by_walk(g) == [
            tuple(g.vertices())], name


def _with_edges_dropped(data):
    """A random connected graph with a random subset of its edges dropped,
    on its original vertex set."""
    g = data.draw(random_connected_graphs())
    keep = data.draw(st.lists(st.booleans(), min_size=len(g.edges),
                              max_size=len(g.edges)))
    return Graph(g.n, [(e.label, e.a, e.b) for e, k in zip(g.edges, keep) if k])


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_components_match_walk(data):
    """The union-find components equal a plain depth-first walk's, isolated
    vertices and their order included."""
    h = _with_edges_dropped(data)
    assert connected_components(h) == components_by_walk(h)


def test_huge_vertex_id_allocates_nothing_per_vertex():
    """A graph file naming vertex 10^6 on one edge is rejected as
    disconnected without memory for every vertex."""
    tracemalloc.start()
    try:
        g = parse_graph("1 1000000 a")
        connected = is_connected(g)
        with pytest.raises(DisconnectedError):
            spanning_tree(Graph(10**6, [("a", 1, 2), ("b", 2, 3)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not connected
    assert peak < 2_000_000
    assert g.neighbors(500) == ()
    assert g.neighbors(1) == ((1000000, "a"),)
    with pytest.raises(DisconnectedError):
        build_context(Graph(10**6, [("a", 1, 2), ("b", 2, 3)]))


def test_one_vertex_graph_is_connected_and_trivial():
    """A single vertex with no edge is connected, its spanning tree is
    empty and its group is trivial; the mutant of ``_tree_edges`` that
    calls it disconnected (``g.n > 1`` -> ``g.n >= 1``) fails here."""
    g = Graph(1, [])
    assert is_connected(g)
    assert spanning_tree(g).tree_edges == frozenset()
    ctx = build_context(g)
    assert (ctx.n, ctx.t) == (1, 0)
    assert is_trivial(ctx, ()).kind is VerdictKind.TRIVIAL


def test_isolated_vertex_disconnects():
    g = parse_graph("1 3 a\n3 4 b")  # vertex 2 is never mentioned as endpoint
    assert connected_components(g) == [(1, 3, 4), (2,)]
    with pytest.raises(DisconnectedError):
        spanning_tree(g)


DISCONNECTED_TEXT = "analysis needs a connected graph; split it into components first"
DISCONNECTED_CALLS = {
    "spanning_tree": spanning_tree,
    "build_context": build_context,
    "relators": lambda g: relators(g, "symmetric"),
}
DISCONNECTED_GRAPHS = {
    "two-components": "1 2 a\n3 4 b\n",
    "isolated-vertex": "1 3 a\n3 4 b\n",
}


@pytest.mark.parametrize("call", [
    *(pytest.param(lambda f=f, text=text: f(parse_graph(text)), id=f"{name}-{kind}")
      for name, f in DISCONNECTED_CALLS.items()
      for kind, text in DISCONNECTED_GRAPHS.items()),
    pytest.param(lambda: parabolic_check(build_context(sixpts_graph()), ["a", "e"], 5, 1),
                 id="parabolic_check-sixpts-a-e"),
])
def test_disconnected_error_has_one_text(call):
    """Every operation that needs a connected graph learns it from
    spanning_tree, so all of them fail the same way."""
    with pytest.raises(DisconnectedError) as info:
        call()
    assert str(info.value) == DISCONNECTED_TEXT


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_connected_agrees_with_components(data):
    """Random edges dropped from a connected graph: is_connected and
    spanning_tree agree with a plain component walk."""
    h = _with_edges_dropped(data)
    connected = len(components_by_walk(h)) == 1
    assert is_connected(h) == connected
    if connected:
        assert len(spanning_tree(h).tree_edges) == h.n - 1
    else:
        with pytest.raises(DisconnectedError):
            spanning_tree(h)


# ---------------------------------------------------------- spanning tree


def test_spanning_tree_of_tree_is_everything():
    g = path_graph(3)
    assert spanning_tree(g).tree_edges == {"a", "b"}


def test_spanning_tree_triangle():
    g = cycle_graph(3)
    t0 = spanning_tree(g)
    assert t0.tree_edges == minimum_label_tree_oracle(g) == {"a", "b"}


def test_spanning_tree_k4_star():
    g = complete4()
    t0 = spanning_tree(g)
    assert t0.tree_edges == minimum_label_tree_oracle(g) == {"a", "b", "c"}
    # the star at vertex 1
    assert all(g.edge(label).a == 1 for label in t0.tree_edges)


def test_spanning_tree_matches_oracle_everywhere(corpus_graphs):
    for g in corpus_graphs.values():
        assert spanning_tree(g).tree_edges == minimum_label_tree_oracle(g)


def test_spanning_tree_deterministic(corpus_graphs):
    for g in corpus_graphs.values():
        assert spanning_tree(g).tree_edges == spanning_tree(g).tree_edges
        assert spanning_tree(g).parent == spanning_tree(g).parent


def test_sixpts_tree_is_the_lettered_one():
    # the whole point of the label choice: chords come out as x, y, z
    t0 = spanning_tree(sixpts_graph())
    assert t0.tree_edges == {"a", "b", "c", "d", "e"}


# ------------------------------------------------------------- tree paths


def test_tree_path_same_vertex_empty():
    t0 = spanning_tree(path_graph(4))
    assert tree_path_labels(t0, 2, 2) == ()


def test_tree_path_star():
    g = parse_graph("1 2 a\n1 3 c")
    t0 = spanning_tree(g)
    assert tree_path_labels(t0, 2, 3) == ("a", "c")


def test_tree_path_sixpts():
    g = sixpts_graph()
    t0 = spanning_tree(g)
    assert tree_path_labels(t0, 1, 4) == ("c", "e")
    assert tree_path_vertices(t0, 1, 4) == [1, 5, 4]


def test_tree_path_matches_unique_simple_path(corpus_graphs):
    for g in corpus_graphs.values():
        t0 = spanning_tree(g)
        tree = edge_subgraph(g, t0.tree_edges)
        # renumbering is identity on a spanning subgraph
        for a in g.vertices():
            for b in g.vertices():
                paths = all_simple_paths(tree, a, b)
                assert len(paths) == 1
                verts, labels = paths[0]
                assert tree_path_vertices(t0, a, b) == verts
                assert list(tree_path_labels(t0, a, b)) == labels


# ------------------------------------------------------------ basic cycles


def test_tree_has_no_cycles():
    g = path_graph(5)
    assert basic_cycles(g, spanning_tree(g)) == ()
    assert cycle_rank(g) == 0


def test_cycle_graph_single_cycle():
    for n in range(3, 9):
        g = cycle_graph(n)
        cycles = basic_cycles(g, spanning_tree(g))
        assert len(cycles) == 1 == cycle_rank(g)
        assert cycles[0].m == n


def test_k4_three_cycles():
    g = complete4()
    assert cycle_rank(g) == 3
    assert len(basic_cycles(g, spanning_tree(g))) == 3


def test_basic_cycle_structure(corpus_graphs):
    for g in corpus_graphs.values():
        t0 = spanning_tree(g)
        cycles = basic_cycles(g, t0)
        assert len(t0.tree_edges) == g.n - 1
        assert len(cycles) == len(g.edges) - g.n + 1
        for cyc in cycles:
            assert cyc.chord not in t0.tree_edges
            assert all(label in t0.tree_edges for label in cyc.cycle_edges)
            chord = g.edge(cyc.chord)
            assert cyc.local_to_global[0] == chord.a  # smaller endpoint first
            assert cyc.local_to_global[-1] == chord.b
            # consecutive cycle edges share exactly the local vertex between
            for i, label in enumerate(cyc.cycle_edges, start=2):
                e = g.edge(label)
                assert {e.a, e.b} == {
                    cyc.local_to_global[i - 2],
                    cyc.local_to_global[i - 1],
                }


def test_cycle_edge_wraparound():
    g = cycle_graph(4)
    (cyc,) = basic_cycles(g, spanning_tree(g))
    assert cyc.edge_at(1) == cyc.chord
    assert cyc.edge_at(cyc.m + 1) == cyc.chord
    assert cyc.edge_at(2) == cyc.cycle_edges[0]


# -------------------------------------------------------------- dual graph


def test_dual_of_y_is_triangle():
    assert isomorphic(dual_graph(y_graph()), cycle_graph(3))


def test_dual_of_cycles():
    for n in range(3, 7):
        assert isomorphic(dual_graph(cycle_graph(n)), cycle_graph(n))


def test_dual_of_path():
    assert isomorphic(dual_graph(path_graph(4)), path_graph(3))
    assert isomorphic(dual_graph(path_graph(6)), path_graph(5))


# ------------------------------------------------------------ fork pattern


def fork_graph() -> Graph:
    return parse_graph("1 2 a\n2 3 b\n2 4 c")


def test_fork_detects_itself():
    found, witness = has_forbidden_fork(fork_graph())
    assert found
    assert witness[0] == 2
    assert len(set(witness)) == 4


def test_triangle_has_no_fork():
    assert has_forbidden_fork(cycle_graph(3)) == (False, None)


def test_star_with_pendant_has_fork():
    g = parse_graph("1 2 a\n1 3 b\n1 4 c\n2 5 d")
    found, _ = has_forbidden_fork(g)
    assert found is True is fork_oracle(g)


def test_fork_matches_exhaustive_search_small():
    base = list(itertools.combinations(range(1, 6), 2))
    for k in (1, 2, 3):
        for chosen in itertools.combinations(base, k):
            n = max(v for pair in chosen for v in pair)
            g = Graph(n, [(f"e{i}", a, b) for i, (a, b) in enumerate(chosen)])
            assert has_forbidden_fork(g)[0] == fork_oracle(g)


# ----------------------------------------------------- random graph shapes


@settings(max_examples=60, deadline=None)
@given(random_connected_graphs())
def test_tree_and_cycle_counts_on_random_graphs(g):
    t0 = spanning_tree(g)
    cycles = basic_cycles(g, t0)
    assert len(t0.tree_edges) == g.n - 1
    assert len(cycles) == len(g.edges) - g.n + 1
    assert t0.tree_edges == minimum_label_tree_oracle(g)
    for cyc in cycles:
        assert cyc.chord not in t0.tree_edges
        assert set(cyc.cycle_edges) <= t0.tree_edges
        assert len(set(cyc.local_to_global)) == cyc.m


@settings(max_examples=60, deadline=None)
@given(random_connected_graphs())
def test_fork_matches_oracle_on_random_graphs(g):
    assert has_forbidden_fork(g)[0] == fork_oracle(g)


# ---------------------------------------------------------------- subgraph


def test_edge_subgraph_renumbers_in_order():
    g = sixpts_graph()
    sub = edge_subgraph(g, ["b", "d", "y"])  # triangle on 2, 3, 6
    assert sub.n == 3
    assert {(e.label, e.a, e.b) for e in sub.edges} == {
        ("b", 1, 2), ("d", 1, 3), ("y", 2, 3)}


# ------------------------------------------------------------- graph files


def test_graph_files_match_corpus(corpus_graphs):
    """Each ``graphs/NAME.graph``, which the CLI tests and the benchmark
    read, is ``graph_text`` of the corpus graph NAME, and the files and the
    corpus name the same graphs (``scripts/export_graphs.py`` writes them)."""
    folder = Path(__file__).resolve().parents[1] / "graphs"
    files = {p.stem: p.read_text(encoding="utf-8") for p in folder.glob("*.graph")}
    assert sorted(files) == sorted(corpus_graphs)
    for name, g in corpus_graphs.items():
        assert files[name] == graph_text(g), name
