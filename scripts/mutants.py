#!/usr/bin/env python3
"""Plant ten faults one at a time and print which ``verify`` reports catch each.

Usage: python3 scripts/mutants.py [--seed S] [--trials K]

Each fault replaces one module global that the code reads at call time
(``embedding._run``, ``embedding.gamma``, ``embedding.tilde``, ``oracle.mu``
or ``oracle.relators``) and is undone before the next.  Its row lists the
kinds of ``full_suite`` report that fail, each with the number of corpus
graphs it fails on.  A fault that no report catches is a survivor, unless
it is equivalent: it changes no verdict, for the reason its row gives.
Which tier-1 tests kill a fault is not computed here: that needs one full
tier-1 run per fault.
"""

import argparse
import pathlib
import sys
from collections import Counter
from contextlib import contextmanager

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from coxgraph import embedding, oracle
from coxgraph.cli import _positive_int
from coxgraph.corpus import corpus
from coxgraph.embedding import build_context
from coxgraph.freeprod import FStarElement, ReducedWord
from coxgraph.graphs import UnknownLabelError, tree_path_labels
from coxgraph.oracle import full_suite
from coxgraph.presentation import AGenerator

# Report kinds in ``full_suite`` order: a report's name up to its "(".
KINDS = ("relators", "symmetric-order", "kernel-rank", "identity-suite", "parabolic")


def _faulty_run(swap=True, slot_b=True, flip=False, miss7=False, tree_chord=False):
    """A replacement for ``embedding._run`` with one fault: no slot swap, no
    letter at slot b, the chord's two letters exchanged, a cancellation
    missed on a stack whose length is a multiple of 7, or the last chord
    stepping as a tree edge.  It keeps ``where`` and the slots apart and
    returns them as ``_run``'s stacks, each vertex under its slot word."""
    def run(ctx, w):
        steps = dict(ctx.steps)
        if tree_chord and ctx.chords:
            a, b, _, _ = steps[ctx.chords[-1]]
            steps[ctx.chords[-1]] = (a, b, None, None)
        where = ctx.home.copy()
        slots = [[] for _ in range(ctx.n)]
        for label in w:
            try:
                a, b, plus, minus = steps[label]
            except KeyError:
                raise UnknownLabelError(label) from None
            where[a], where[b] = where[b], where[a]
            if swap:
                slots[a], slots[b] = slots[b], slots[a]
            if plus is None:
                continue
            if flip:
                plus, minus = minus, plus
            pushes = [(slots[a], plus, minus)]
            if slot_b:
                pushes.append((slots[b], minus, plus))
            for stack, letter, inverse in pushes:
                if stack and stack[-1] is inverse and not (miss7 and len(stack) % 7 == 0):
                    stack.pop()
                else:
                    stack.append(letter)
        return [[v, *s] for v, s in zip(where, slots)]
    return lambda real: run


def _gamma_without_prefix(real):
    def gamma(ctx, cyc, a):
        if cyc.local_index(a) is not None:
            return real(ctx, cyc, a)
        start = cyc.local_to_global[0]
        return real(ctx, cyc, start) + tree_path_labels(ctx.tree, start, a)
    return gamma


def _tilde_without_one_vertex_conjugation(real):
    def tilde(ctx, cyc, label):
        e = ctx.graph.edge(label)
        on_cycle = [v for v in (e.a, e.b) if cyc.local_index(v) is not None]
        if len(on_cycle) == 1 and label != cyc.chord and label not in cyc.cycle_edges:
            return (label,)
        return real(ctx, cyc, label)
    return tilde


def _mu_slot_i_only(real):
    def mu(gen, n):
        comps = list(real(gen, n).components)
        if gen.i != gen.j:
            comps[gen.j - 1] = ReducedWord()
        return FStarElement(tuple(comps))
    return mu


def _mu_swapped(real):
    return lambda gen, n: real(AGenerator(gen.chord, gen.j, gen.i), n)


def _relators_without_forks(real):
    def relators(g, which):
        forks = set(real(g, "coxy")) - set(real(g, "coxeter"))
        return tuple(r for r in real(g, which) if r not in forks)
    return relators


# (name, what is planted, module, global, fault factory, equivalence reason or
# None): the factory takes the real global and returns its replacement.
FAULTS = [
    ("no-slot-swap", "_run without the slot swap",
     embedding, "_run", _faulty_run(swap=False), None),
    ("chord-slot-a-only", "_run puts the chord letter on slot a only",
     embedding, "_run", _faulty_run(slot_b=False), None),
    ("last-chord-as-tree-edge", "_run treats the last chord as a tree edge",
     embedding, "_run", _faulty_run(tree_chord=True), None),
    ("gamma-without-prefix", "gamma off the cycle without its conjugating prefix",
     embedding, "gamma", _gamma_without_prefix, None),
    ("tilde-one-vertex-bare", "tilde drops the one-vertex conjugation",
     embedding, "tilde", _tilde_without_one_vertex_conjugation, None),
    ("mu-slot-i-only", "mu with the letter in slot i only",
     oracle, "mu", _mu_slot_i_only, None),
    ("missed-cancellation-7",
     "_run misses a cancellation when a stack's length is a multiple of 7",
     embedding, "_run", _faulty_run(miss7=True), None),
    ("no-fork-relators", "fork relators not emitted",
     oracle, "relators", _relators_without_forks, None),
    ("chord-orientation-exchanged", "_run with the chord letter's orientation exchanged",
     embedding, "_run", _faulty_run(flip=True),
     "x -> x^-1 on every chord is an automorphism of F_t^n that commutes "
     "with the slot action, so no image changes between trivial and not"),
    ("mu-i-j-exchanged", "mu with i and j exchanged",
     oracle, "mu", _mu_swapped,
     "mu(x_ji) is mu(x_ij) under x -> x^-1, an automorphism, and every law "
     "of the identity suite holds or fails in both forms alike"),
]


@contextmanager
def planted(module, name, factory):
    real = getattr(module, name)
    setattr(module, name, factory(real))
    try:
        yield
    finally:
        setattr(module, name, real)


def table(seed: int = 1, trials: int = 50) -> dict[str, dict[str, int]]:
    """Per fault name, the failing report kinds in ``full_suite`` order,
    each with the number of corpus graphs it fails on."""
    contexts = [build_context(g) for g in corpus().values()]
    out = {}
    for name, _, module, attr, factory, _ in FAULTS:
        caught: Counter = Counter()
        with planted(module, attr, factory):
            for ctx in contexts:
                caught.update({r.name.split("(")[0] for r in full_suite(ctx, seed, trials)
                               if not r.ok})
        out[name] = {kind: caught[kind] for kind in KINDS if caught[kind]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=_positive_int, default=50)
    args = parser.parse_args()

    rows = table(args.seed, args.trials)
    print(f"== mutation table: {len(corpus())} corpus graphs, seed={args.seed}, "
          f"trials={args.trials}")
    survivors = []
    for name, what, _, _, _, reason in FAULTS:
        caught = ", ".join(f"{kind} ({count})" for kind, count in rows[name].items())
        if not caught:
            if reason is None:
                survivors.append(name)
            caught = "NOT CAUGHT" if reason is None else f"equivalent: {reason}"
        print(f"{name}: {what}\n  {caught}")
    print(f"== {len(FAULTS) - len(survivors)} of {len(FAULTS)} faults caught or "
          f"equivalent; survivors: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
