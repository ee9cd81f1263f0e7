"""The mutation table of ``scripts/mutants.py``, pinned: which ``verify``
reports catch each planted fault, on how many corpus graphs, at seed 1 and
50 trials.  A change that lets a caught fault survive fails here; a report
that kills a survivor moves it out of ``SURVIVORS`` and into the table."""

import importlib.util
import random
from pathlib import Path

import pytest

from coxgraph import embedding, oracle
from coxgraph.embedding import phi

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


def test_edited_requires_each_old_text_exactly_once():
    """An edit whose text is missing or repeated names the function it
    could not edit, so a changed source cannot plant a different fault."""
    with pytest.raises(ValueError, match=r"^_run: 'no such text' occurs 0 times"):
        mutants.edited(embedding._run, ("no such text", ""))
    with pytest.raises(ValueError, match=r"^_run: 'pop\(\)' occurs 2 times"):
        mutants.edited(embedding._run, ("pop()", "pop(0)"))


def test_every_fault_is_an_edit_of_the_real_function():
    """Importing the script applied every edit: each fault is the real
    function recompiled from changed source, in the real one's globals."""
    for name, _, module, attr, factory, _ in mutants.FAULTS:
        real = getattr(module, attr)
        fault = factory(real)
        assert fault.__name__ == real.__name__ and fault is not real, name
        assert fault.__globals__ is real.__globals__, name
        assert fault.__code__.co_code != real.__code__.co_code, name


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
