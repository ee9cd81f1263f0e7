#!/usr/bin/env python3
"""Run alternating benchmark pairs of two checkouts and record them.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --base DIR --head DIR --workload verify-suite \\
        --seeds 1-5 [--seconds N] --out BENCH_N.json

Each seed runs ``python3 bench/run.py`` once in each checkout, with that
checkout as the working directory: odd seeds run base first, even seeds
head first, so a drift in machine load falls on both sides.  Runs set
PYTHONDONTWRITEBYTECODE=1, so every import of coxgraph compiles its source
and ``setup_s`` follows the size of ``src/``.  Every run's end-to-end
metrics and wall time are kept, and each pair's head/base ratio of every
end-to-end metric is printed.  The summary gives, per end-to-end metric of
BENCHMARK.json, both sides' median and quartiles (``bench/spread.py``'s
``summarize``), the median of the per-pair head/base ratios, the number of
pairs in which head is better (ties count for neither), base's
interquartile distance, the head-minus-base gap of the medians, whether
head's median is better by more than that distance, and whether the claim
rule holds: head better in at least nine tenths of the pairs and by more
than base's interquartile distance.  The workload's entry in ``--out`` is
replaced and the other entries are kept.  Exits nonzero, writing nothing,
if a run fails or reports a failed query.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from spread import BENCH, seed_list, summarize

SIDES = ("base", "head")


def one_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: failed and attempted queries, the
    end-to-end metric values, and the run's wall time."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} in {checkout}: "
                         f"{result['failed']} failed queries")
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {m["name"]: result["metrics"][m["name"]]["value"]
                        for m in BENCH["end_to_end"]},
            "wall_s": round(wall, 1)}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for metric in BENCH["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        ratios = [h / b for b, h in zip(values["base"], values["head"])]
        wins = sum(h < b if better == "lower" else h > b
                   for b, h in zip(values["base"], values["head"]))
        base, head = (summarize(values[side]) for side in SIDES)
        iqr = base["q3"] - base["q1"]
        gap = head["median"] - base["median"]
        beyond = (-gap if better == "lower" else gap) > iqr
        out[name] = {"better": better, "base": base, "head": head,
                     "ratio_median": statistics.median(ratios),
                     "head_better_pairs": wins, "pairs": len(pairs),
                     "base_iqr": iqr, "median_gap": gap,
                     "gap_beyond_base_iqr": beyond,
                     "claim_holds": beyond and 10 * wins >= 9 * len(pairs)}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    pairs = []
    for seed in seed_list(args.seeds):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = one_run(checkouts[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        base, head = (pair[side]["metrics"] for side in SIDES)
        ratios = ", ".join(f"{name} {head[name] / base[name]:.4f}" for name in head)
        print(f"seed {seed}: " + ", ".join(
            f"{side} {pair[side]['wall_s']} s wall" for side in order)
            + f"; head/base {ratios}", flush=True)
    entry = {"seconds": args.seconds, "pairs": pairs, "summary": summary(pairs)}
    recorded = (json.loads(args.out.read_text(encoding="utf-8"))
                if args.out.exists() else {})
    recorded[args.workload] = entry
    args.out.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    for name, s in entry["summary"].items():
        print(f"  {name:14} head/base {s['ratio_median']:.4f}  "
              f"head better in {s['head_better_pairs']}/{s['pairs']}  "
              f"base IQR {s['base_iqr']:.6g}  median gap {s['median_gap']:+.6g}  "
              f"gap beyond IQR {'yes' if s['gap_beyond_base_iqr'] else 'no'}  "
              f"claim {'holds' if s['claim_holds'] else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
