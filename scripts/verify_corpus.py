#!/usr/bin/env python3
"""Run the full oracle suite over every corpus graph and print a summary.

Usage: python3 scripts/verify_corpus.py [--seed S] [--trials K]
Exits nonzero if any check fails anywhere.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from coxgraph.cli import _positive_int
from coxgraph.corpus import corpus
from coxgraph.embedding import build_context
from coxgraph.oracle import full_suite


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=_positive_int, default=300)
    args = parser.parse_args()

    start = time.perf_counter()
    bad = 0
    for name, g in corpus().items():
        ctx = build_context(g)
        print(f"== {name}  (n={ctx.n}, t={ctx.t})")
        for report in full_suite(ctx, args.seed, args.trials):
            print("  " + report.render().replace("\n", "\n  "))
            if not report.ok:
                bad += 1
    elapsed = time.perf_counter() - start
    print(f"== done in {elapsed:.1f}s, {bad} failing report(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
