#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile distance over the median).

Usage, from the root of a coxgraph checkout:

    python3 bench/spread.py --workload wp-grow --seeds 1-10 [--trace 1] [--out FILE]

Runs are made one at a time.  With --out the summary is also written as
JSON, which is how bench/baseline.json is produced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = [one_run(workload, s, args.seconds, args.trace)
                for s in seed_list(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, {failed} failed queries")
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            note = f"  (bound {bound}, spread/bound {stats['spread'] / bound:.2f})" if bound else ""
            print(f"  {name:36} median {stats['median']:<12.6g} {entry['unit']:<10} "
                  f"spread {stats['spread']:.4f}{note}")
        summary[workload] = {"runs": len(runs), "failed": failed, "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
