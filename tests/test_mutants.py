"""The mutation table of ``scripts/mutants.py``, pinned: which ``verify``
reports catch each planted fault, on how many corpus graphs, at seed 1 and
50 trials.  A change that lets a caught fault survive fails here; a report
that kills a survivor moves it out of ``SURVIVORS`` and into the table."""

import importlib.util
import random
from pathlib import Path

from coxgraph import embedding, oracle
from coxgraph.embedding import phi
from coxgraph.oracle import full_suite

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

PINNED = {
    "no-slot-swap": {"relators": 11, "kernel-rank": 11},
    "chord-slot-a-only": {"relators": 11},
    "last-chord-as-tree-edge": {"kernel-rank": 11, "parabolic": 5},
    "gamma-without-prefix": {"kernel-rank": 5},
    "tilde-one-vertex-bare": {"kernel-rank": 5},
    "mu-slot-i-only": {"identity-suite": 10},
    "missed-cancellation-7": {},
    "no-fork-relators": {},
    "chord-orientation-exchanged": {},
    "mu-i-j-exchanged": {},
}

# Real faults that no report catches yet.  The missed cancellation needs a
# word long enough for a slot stack of 7 letters, and ``verify`` reads no
# long word; ``check_relators`` only checks that emitted relators die, so it
# cannot see a relator that is never emitted.
SURVIVORS = {"missed-cancellation-7", "no-fork-relators"}


def test_mutation_table_is_pinned():
    assert mutants.table(seed=1, trials=50) == PINNED


def test_every_uncaught_fault_is_a_named_survivor_or_equivalent():
    equivalent = {name for name, *_, reason in mutants.FAULTS if reason}
    assert equivalent == {"chord-orientation-exchanged", "mu-i-j-exchanged"}
    uncaught = {name for name, row in PINNED.items() if not row}
    assert uncaught == SURVIVORS | equivalent
    assert [name for name, *_ in mutants.FAULTS] == list(PINNED)


def test_evaluator_copy_without_a_fault_passes(corpus_contexts):
    """The faults of ``_run`` are planted in a copy of it; without a fault
    the copy passes every report, so each row measures its fault alone."""
    with mutants.planted(embedding, "_run", mutants._faulty_run()):
        for name, ctx in corpus_contexts.items():
            assert all(r.ok for r in full_suite(ctx, 1, 20)), name


def test_survivors_are_real_faults(corpus_contexts, corpus_graphs):
    """Each survivor changes what the code computes: the missed cancellation
    changes ``phi`` of long words, and the dropped forks shrink the ``coxy``
    relators of the Y graph."""
    factory = {name: make for name, _, _, _, make, _ in mutants.FAULTS}
    ctx = corpus_contexts["sixpts"]
    rng = random.Random(1)
    words = [[rng.choice(ctx.graph.labels) for _ in range(1000)] for _ in range(5)]
    with mutants.planted(embedding, "_run", factory["missed-cancellation-7"]):
        faulty = [phi(ctx, w) for w in words]
    assert faulty != [phi(ctx, w) for w in words]
    y = corpus_graphs["y"]
    with mutants.planted(oracle, "relators", factory["no-fork-relators"]):
        dropped = len(oracle.relators(y, "coxy"))
    assert dropped < len(oracle.relators(y, "coxy"))
