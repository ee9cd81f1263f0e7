#!/usr/bin/env python3
"""Run the full oracle suite over every corpus graph and print a summary.

Usage: python3 scripts/verify_corpus.py [--seed S] [--trials K]
Exits nonzero if any check fails anywhere.
"""

import argparse
import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from coxgraph.corpus import corpus
from coxgraph.embedding import build_context, kernel_generator_parts
from coxgraph.freeprod import component_exponents
from coxgraph.oracle import (
    ORDER_CHECK_MAX_N,
    OracleReport,
    ab_rank,
    bfs_group_order,
    check_relators,
    identity_suite,
    parabolic_check,
)
from coxgraph.perms import Permutation


def reports_for(ctx, seed: int, trials: int):
    yield check_relators(ctx)
    if ctx.n <= ORDER_CHECK_MAX_N:
        gens = [Permutation.transposition(ctx.n, e.a, e.b)
                for e in ctx.graph.edges]
        rep = OracleReport("symmetric-order")
        got = bfs_group_order(gens)
        want = math.factorial(ctx.n)
        rep.record("closure-size", f"n={ctx.n}", str(want), str(got), got == want)
        yield rep
    rep = OracleReport("kernel-rank")
    rows = [component_exponents(f) for f in kernel_generator_parts(ctx)]
    want = ctx.t * (ctx.n - 1)
    got = ab_rank(rows)
    rep.record("abelianized-rank", f"t={ctx.t}", str(want), str(got), got == want)
    yield rep
    if ctx.t >= 1 and ctx.n >= 4:
        yield identity_suite(seed, ctx.n, ctx.t, trials)
    yield parabolic_check(ctx, sorted(ctx.tree.tree_edges), trials, seed)
    for cyc in ctx.cycles:
        yield parabolic_check(ctx, [cyc.chord, *cyc.cycle_edges], trials, seed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=300)
    args = parser.parse_args()

    start = time.perf_counter()
    bad = 0
    for name, g in corpus().items():
        ctx = build_context(g)
        print(f"== {name}  (n={ctx.n}, t={ctx.t})")
        for report in reports_for(ctx, args.seed, args.trials):
            print("  " + report.render().replace("\n", "\n  "))
            if not report.ok:
                bad += 1
    elapsed = time.perf_counter() - start
    print(f"== done in {elapsed:.1f}s, {bad} failing report(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
