"""Tests of the benchmark itself: deterministic inputs, answer checks that
catch wrong answers, and the contract between run.py and BENCHMARK.json.

Run from the root of the checkout: python3 -m pytest -q bench
"""

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.Library()


def small_bench(tmp_path, lib, workload, names):
    graphs = [gen.graph_input(n, (run.CORPUS / f"{n}.graph").read_text()) for n in names]
    paths = run.write_graphs(tmp_path, graphs)
    args = argparse.Namespace(workload=workload, seed=1, seconds=0)
    return run.Bench(args, graphs, paths, lib), {g.name: g for g in graphs}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    def inputs(seed, sub):
        graphs = gen.workload_graphs(workload, seed, run.CORPUS)
        paths = run.write_graphs(tmp_path / sub, graphs)
        files = {name: p.read_bytes() for name, p in paths.items()}
        return files, gen.round_queries(workload, seed, 0, graphs)

    first, again, other = inputs(7, "a"), inputs(7, "b"), inputs(8, "c")
    assert first == again
    assert first[1] != other[1]


def test_n40_graph_shape():
    g = gen.graph_input("n40", gen.n40_text(3))
    assert g.n == 40 and len(g.edges) == 39 + 30
    assert gen.n40_text(3) != gen.n40_text(4)


def test_cancel_pair_lengths_and_extra_letter():
    g = gen.graph_input("sixpts", (run.CORPUS / "sixpts.graph").read_text())
    pool = gen.relator_pool(g)
    rng = random.Random(5)
    for extra in (False, True):
        w1, w2 = gen.cancel_pair(rng, g.labels, pool, 1000, extra)
        assert 1000 <= len(w1) + len(w2) < 1000 + 8
        # relators have even length, so only the extra letter changes parity
        assert (len(w2) - len(w1)) % 2 == extra


def test_perm_text_matches_library(lib):
    g = gen.graph_input("rand7", (run.CORPUS / "rand7.graph").read_text())
    graph = lib.graphs.parse_graph(g.text)
    rng = random.Random(2)
    for _ in range(20):
        word = gen.random_word(rng, g.labels, rng.randrange(30))
        assert checks.perm_text(g, word) == str(lib.perms.perm_of_word(graph, word))


def test_correct_answers_pass(tmp_path, lib):
    bench, graphs = small_bench(tmp_path, lib, "wp-cancel", ["sixpts", "k4"])
    rng = random.Random(3)
    for name in graphs:
        g = graphs[name]
        pool = gen.relator_pool(g)
        for extra in (False, True):
            w1, w2 = gen.cancel_pair(rng, g.labels, pool, 60, extra)
            expected = "nontrivial" if extra else ("quotient" if g.is_k4 else "trivial")
            bench.run_query(gen.Query(name, "equal", (w1, w2), 60, expected=expected))
        for kind in ("solve", "kernel"):
            word = gen.random_word(rng, g.labels, 50)
            bench.run_query(gen.Query(name, kind, (word,), 50))
        bench.run_query(gen.Query(name, "verify", (), 0, seed=4))
    assert bench.failures == []
    assert bench.attempted == 2 * 5


class FlippedVerdicts:
    """A CLI whose equal/solve verdicts are planted wrong."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv):
        code = self.cli.run(argv)
        out = sys.stdout.getvalue()
        sys.stdout.seek(0)
        sys.stdout.truncate()
        print(out.replace("verdict=trivial", "verdict=nontrivial"), end="")
        return code


def test_planted_wrong_verdict_is_counted(tmp_path, lib, monkeypatch):
    bench, graphs = small_bench(tmp_path, lib, "wp-cancel", ["rand7"])
    g = graphs["rand7"]
    w1, w2 = gen.cancel_pair(random.Random(1), g.labels, gen.relator_pool(g), 80, False)
    q = gen.Query("rand7", "equal", (w1, w2), 80, expected="trivial")
    bench.run_query(q)
    assert bench.failures == []
    monkeypatch.setattr(bench.lib, "cli", FlippedVerdicts(bench.lib.cli))
    bench.run_query(q)
    assert len(bench.failures) == 1 and "by construction" in bench.failures[0]
    assert bench.result({})["failed"] == 1


def test_wrong_witness_and_free_part_are_caught(lib):
    g = gen.graph_input("sixpts", (run.CORPUS / "sixpts.graph").read_text())
    chords = g.chords
    assert chords == {"x", "y", "z"}
    perm = checks.perm_text(g, ("c", "e", "c", "x"))
    good = {"verdict": "nontrivial", "witness": f"{perm} | 1: x, 4: x^-1",
            "kernel": str(perm == "()").lower()}
    assert checks.solve_error(good, perm, 6, chords) is None
    for witness in (f"{perm} | 1: x, 4: x", f"{perm} | 1: x x^-1, 4: x^-1",
                    f"{perm} | 1: a, 4: a^-1", "(1 2) | 1: x, 4: x^-1"):
        assert checks.solve_error(dict(good, witness=witness), perm, 6, chords)
    assert checks.solve_error({"verdict": "trivial"}, "(1 2)", 6, chords)


def test_failing_verify_report_is_caught():
    ok = "PASS relators (3 checks)\nPASS kernel-rank (1 checks)\n"
    assert checks.verify_error(ok) == (None, 4)
    bad = ok + "FAIL parabolic(a,seed=1) (5 checks)\n  verdict-agreement: a: expected x, got y\n"
    assert checks.verify_error(bad)[0]
    assert checks.verify_error("")[0]


def test_calibration_uses_the_samples_around_a_measurement():
    cal = calib.Calibration()
    cal.times = [float(t) for t in range(20)]
    cal.samples = [1.0] * 10 + [2.0] * 10
    assert cal.scale(2.0, 2.1) == calib.NOMINAL_S
    assert cal.scale(16.0, 16.2) == calib.NOMINAL_S / 2
    assert cal.scale(30.0, 31.0) == calib.NOMINAL_S / 2  # none near: the last
    assert cal.scale(0.0, 20.0) == calib.NOMINAL_S / 1.5  # a long span: all
    assert 0 < calib.reference_seconds() < 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wp-grow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
