"""Deterministic benchmark inputs: graph files, edge words and their expected
answers.

Everything here is a pure function of the seed and never imports coxgraph,
so the expected answers cannot inherit a defect of the program under test.
The same seed gives byte-identical graph files and words.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path

# Word lengths per graph in one round: 16 lengths log-spaced over one
# decade, denser at the short end (the density of log L falls like L^-1.2),
# so a round has enough samples for a tail percentile without the longest
# words taking the whole run.  Distinct lengths keep the latency
# distribution free of wide gaps, so its percentiles do not jump when a few
# queries run slow.
LENGTH_RANGE = (1000, 10000)
WORDS_PER_GRAPH = 16
LENGTH_DECAY = 1.2
# Log-spaced bins, one per quarter decade, for the per-layer metrics.
BUCKETS = (1000, 1778, 3162, 5623, 10000)


def word_lengths() -> tuple[int, ...]:
    lo, hi = LENGTH_RANGE
    c = 1 - (lo / hi) ** LENGTH_DECAY
    return tuple(
        round(lo * (1 - c * i / (WORDS_PER_GRAPH - 1)) ** (-1 / LENGTH_DECAY))
        for i in range(WORDS_PER_GRAPH)
    )


def bucket(length: int) -> int:
    """The bin nearest to a length on a log scale."""
    return min(BUCKETS, key=lambda b: abs(math.log(length / b)))


WP_GRAPHS = ("sixpts", "rand7", "n40")
# The n=40 graph is fixed, like the corpus graphs: its shape changes the
# cost of a word by several percent, which would add to the spread between
# seeds.  The words are drawn from --seed.
N40_VERTICES, N40_CHORDS, N40_SEED = 40, 30, 40

CANCEL_W1_SHARE = 0.4  # |W1| = 0.4 L; spliced relators bring |W1|+|W2| to L
NONTRIVIAL_EVERY = 5  # every fifth equal pair gets one extra letter

VERIFY_TRIALS = 100
VERIFY_PASSES = 3  # seeds per graph in one round of verify-suite

Edge = tuple[str, int, int]  # (label, smaller endpoint, larger endpoint)


@dataclass(frozen=True)
class GraphInput:
    name: str
    text: str
    edges: tuple[Edge, ...]
    n: int
    chords: frozenset[str]  # edges off the minimum-label spanning tree

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.edges)

    @property
    def is_k4(self) -> bool:
        return self.n == 4 and len(self.edges) == 6


@dataclass(frozen=True)
class Query:
    """One CLI invocation and what is known about its answer in advance."""

    graph: str
    kind: str  # solve, kernel, equal or verify
    words: tuple[tuple[str, ...], ...]  # the edge words it submits
    length: int  # nominal length bucket; 0 for verify
    expected: str = ""  # equal: the verdict known by construction
    seed: int = 0  # verify: the oracle seed

    @property
    def letters(self) -> int:
        return sum(len(w) for w in self.words)


def parse_edges(text: str) -> tuple[tuple[Edge, ...], int]:
    """Edges of a graph file (``A B LABEL`` lines, ``#`` comments) and its
    vertex count."""
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            a, b, label = int(line[0]), int(line[1]), line[2]
            edges.append((label, min(a, b), max(a, b)))
    return tuple(sorted(edges)), max(max(a, b) for _, a, b in edges)


def graph_input(name: str, text: str) -> GraphInput:
    edges, n = parse_edges(text)
    return GraphInput(name, text, edges, n, off_tree_edges(edges, n))


def off_tree_edges(edges: tuple[Edge, ...], n: int) -> frozenset[str]:
    """The chords: edges that Kruskal's algorithm, taking edges in label
    order, does not put in the spanning tree."""
    root = list(range(n + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    chords = set()
    for label, a, b in edges:  # sorted by label
        ra, rb = find(a), find(b)
        if ra == rb:
            chords.add(label)
        else:
            root[ra] = rb
    return frozenset(chords)


def n40_text(seed: int = N40_SEED) -> str:
    """A seeded random connected graph with 40 vertices and cycle rank 30.

    Tree edges are labelled t01..t39 and chords x01..x30, so the program's
    minimum-label spanning tree is the generated tree.
    """
    rng = random.Random(f"{seed}:n40")
    lines = [f"# random connected graph, n={N40_VERTICES} t={N40_CHORDS}, seed {seed}"]
    pairs = set()
    for v in range(2, N40_VERTICES + 1):
        p = rng.randrange(1, v)
        pairs.add((p, v))
        lines.append(f"{p} {v} t{v - 1:02d}")
    free = [
        (u, v)
        for u in range(1, N40_VERTICES + 1)
        for v in range(u + 1, N40_VERTICES + 1)
        if (u, v) not in pairs
    ]
    for k, (u, v) in enumerate(rng.sample(free, N40_CHORDS), start=1):
        lines.append(f"{u} {v} x{k:02d}")
    return "\n".join(lines) + "\n"


def workload_graphs(workload: str, seed: int, corpus_dir: Path) -> list[GraphInput]:
    """The graphs one workload runs on, in a fixed order."""
    if workload == "verify-suite":
        return [
            graph_input(p.stem, p.read_text(encoding="utf-8"))
            for p in sorted(corpus_dir.glob("*.graph"))
        ]
    out = []
    for name in WP_GRAPHS:
        if name == "n40":
            text = n40_text()
        else:
            text = (corpus_dir / f"{name}.graph").read_text(encoding="utf-8")
        out.append(graph_input(name, text))
    return out


def relator_pool(g: GraphInput) -> list[tuple[str, ...]]:
    """Defining relators of the graph's group, written out from the edge
    list alone: involutions uu, (uv)^2 for disjoint edges, (uv)^3 for edges
    sharing a vertex, and the fork relator u vwv u vwv for every ordered
    triple of edges at a vertex."""
    ends = {label: (a, b) for label, a, b in g.edges}
    pool = [(u, u) for u in g.labels]
    for u, v in combinations(g.labels, 2):
        shared = set(ends[u]) & set(ends[v])
        pool.append((u, v) * (3 if shared else 2))
    for s in range(1, g.n + 1):
        at = [label for label, a, b in g.edges if s in (a, b)]
        for u, v, w in permutations(at, 3):
            pool.append((u, v, w, v, u, v, w, v))
    return pool


def schedule(graphs: list[GraphInput]) -> list[tuple[int, int]]:
    """(graph index, length) for one round of a word workload, graphs
    interleaved so every stretch of the round mixes them."""
    return [(gi, L) for L in word_lengths() for gi in range(len(graphs))]


def round_queries(workload: str, seed: int, rnd: int,
                  graphs: list[GraphInput]) -> list[Query]:
    """The queries of round ``rnd``; every round has the same composition."""
    rng = random.Random(f"{seed}:{workload}:{rnd}")
    if workload == "verify-suite":
        return [
            Query(g.name, "verify", (), 0, seed=rng.randrange(1, 10**6))
            for _ in range(VERIFY_PASSES)
            for g in graphs
        ]
    slots = schedule(graphs)
    if workload == "wp-grow":
        return [
            Query(graphs[gi].name, "solve" if i % 2 == 0 else "kernel",
                  (random_word(rng, graphs[gi].labels, L),), L)
            for i, (gi, L) in enumerate(slots)
        ]
    if workload == "wp-cancel":
        pools = [relator_pool(g) for g in graphs]
        out = []
        for i, (gi, L) in enumerate(slots):
            g = graphs[gi]
            # The same slots get the extra letter in every round and for every
            # seed: an unequal pair costs about twice an equal one, so a
            # seeded choice would change the round's cost from seed to seed.
            extra = i % NONTRIVIAL_EVERY == NONTRIVIAL_EVERY - 1
            w1, w2 = cancel_pair(rng, g.labels, pools[gi], L, extra)
            if extra:
                verdict = "nontrivial"
            else:
                verdict = "quotient" if g.is_k4 else "trivial"
            out.append(Query(g.name, "equal", (w1, w2), L, expected=verdict))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def random_word(rng: random.Random, labels: tuple[str, ...], length: int) -> tuple[str, ...]:
    return tuple(rng.choice(labels) for _ in range(length))


def cancel_pair(rng: random.Random, labels: tuple[str, ...],
                pool: list[tuple[str, ...]], length: int,
                extra_letter: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """W1 uniform at random, and W2 = W1 with relators spliced in until
    |W1| + |W2| reaches ``length``.  Each relator goes in as a random
    rotation, forwards or backwards, so W2 equals W1 in the group.  With
    ``extra_letter`` one more letter is appended to W2: that changes the
    parity of its permutation, so the pair is certainly unequal.
    """
    w1 = random_word(rng, labels, round(CANCEL_W1_SHARE * length))
    budget = length - 2 * len(w1) - (1 if extra_letter else 0)
    inserts: list[tuple[int, tuple[str, ...]]] = []
    while budget > 0:
        rel = rng.choice(pool)
        k = rng.randrange(len(rel))
        rel = rel[k:] + rel[:k]
        if rng.random() < 0.5:
            rel = rel[::-1]
        inserts.append((rng.randrange(len(w1) + 1), rel))
        budget -= len(rel)
    inserts.sort(key=lambda item: item[0])
    w2: list[str] = []
    prev = 0
    for pos, rel in inserts:
        w2.extend(w1[prev:pos])
        w2.extend(rel)
        prev = pos
    w2.extend(w1[prev:])
    if extra_letter:
        w2.append(rng.choice(labels))
    return w1, tuple(w2)
