#!/usr/bin/env python3
"""Plant ten faults one at a time and print which ``verify`` reports catch each.

Usage: python3 scripts/mutants.py [--seed S] [--trials K]

Each fault is an exact edit of one real function's source, compiled in its
module and planted, until the next fault, as the module global the code reads
at call time: ``embedding._run``, ``gamma`` or ``tilde``, or ``oracle.mu`` or
``oracle.relators`` (edits of ``presentation.mu`` and ``relators``).  Its row
lists the kinds of ``full_suite`` report that fail, each with the number of
corpus graphs it fails on.  A fault that no report catches is a survivor,
unless it is equivalent: it changes no verdict, for the reason its row gives.
Which tier-1 tests kill a fault is not computed here: that needs one full
tier-1 run per fault.
"""

import __future__
import argparse
import inspect
import pathlib
import sys
from collections import Counter
from contextlib import contextmanager

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from coxgraph import embedding, oracle, presentation
from coxgraph.cli import _positive_int
from coxgraph.corpus import corpus
from coxgraph.embedding import build_context
from coxgraph.oracle import full_suite

# Report kinds in ``full_suite`` order: a report's name up to its "(".
KINDS = ("relators", "symmetric-order", "kernel-rank", "identity-suite", "parabolic")


def edited(func, *edits):
    """A fault factory: ``func`` with each ``(old, new)`` edit applied to its
    source, compiled like it in its module's globals.  Each ``old`` must occur
    exactly once in the source the edits so far have left."""
    source = inspect.getsource(func)
    for old, new in edits:
        if (count := source.count(old)) != 1:
            raise ValueError(f"{func.__name__}: {old!r} occurs {count} times, not once")
        source = source.replace(old, new)
    future = func.__code__.co_flags & __future__.annotations.compiler_flag
    scope: dict = {}
    exec(compile(source, inspect.getsourcefile(func), "exec", future, True),
         func.__globals__, scope)
    return lambda real: scope[func.__name__]


# The real functions the faults edit, read before any is planted.
_run, _gamma, _tilde = embedding._run, embedding.gamma, embedding.tilde
_mu, _relators = presentation.mu, presentation.relators

# (name, what is planted, module, global, fault factory, equivalence reason or
# None): the factory takes the real global and returns its replacement.
FAULTS = [
    ("no-slot-swap", "_run without the slot swap", embedding, "_run", edited(
        _run, ("sa = stacks[b]\n        sb = stacks[a]\n"
               "        stacks[a] = sa\n        stacks[b] = sb",
               "sa, sb = stacks[a], stacks[b]\n        sa[0], sb[0] = sb[0], sa[0]")),
     None),
    ("chord-slot-a-only", "_run puts the chord letter on slot a only",
     embedding, "_run", edited(
         _run, ("            if sb[-1] is plus:\n                sb.pop()\n"
                "            else:\n                sb.append(minus)\n", "")), None),
    ("last-chord-as-tree-edge", "_run treats the last chord as a tree edge",
     embedding, "_run", edited(
         _run, ("if plus is not None:",
                "if plus is not None and label != ctx.chords[-1]:")), None),
    ("gamma-without-prefix", "gamma off the cycle without its conjugating prefix",
     embedding, "gamma", edited(
         _gamma, ("return tuple(prefix) + base + path", "return base + path")), None),
    ("tilde-one-vertex-bare", "tilde drops the one-vertex conjugation",
     embedding, "tilde", edited(
         _tilde, ("return (u_next, label, u_next)", "return (label,)")), None),
    ("mu-slot-i-only", "mu with the letter in slot i only", oracle, "mu", edited(
        _mu, ("        comps[gen.j - 1] = ReducedWord._trusted(((gen.chord, -1),))\n",
              "")), None),
    ("missed-cancellation-7",
     "_run misses a cancellation when a stack's length is a multiple of 7",
     embedding, "_run", edited(
         _run, ("if sa[-1] is minus:", "if sa[-1] is minus and (len(sa) - 1) % 7:"),
         ("if sb[-1] is plus:", "if sb[-1] is plus and (len(sb) - 1) % 7:")), None),
    ("no-fork-relators", "fork relators not emitted", oracle, "relators", edited(
        _relators, ("rels.append((u, v, w, v, u, v, w, v))", "pass")), None),
    ("chord-orientation-exchanged", "_run with the chord letter's orientation exchanged",
     embedding, "_run", edited(
         _run, ("a, b, plus, minus = steps[label]", "a, b, minus, plus = steps[label]")),
     "x -> x^-1 on every chord is an automorphism of F_t^n that commutes "
     "with the slot action, so no image changes between trivial and not"),
    ("mu-i-j-exchanged", "mu with i and j exchanged", oracle, "mu", edited(
        _mu, ("comps = [EMPTY_WORD] * n",
              "gen = AGenerator(gen.chord, gen.j, gen.i)\n    comps = [EMPTY_WORD] * n")),
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
