import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from coxgraph import cli
from coxgraph.cli import run
from coxgraph.corpus import (
    complete4,
    cycle_graph,
    path_graph,
    sixpts_graph,
    y_graph,
)
from coxgraph.embedding import build_context, parse_word, phi
from coxgraph.graphs import graph_text


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    paths = {}
    for name, g in {
        "triangle": cycle_graph(3),
        "c6": cycle_graph(6),
        "sixpts": sixpts_graph(),
        "k4": complete4(),
        "y": y_graph(),
        "p4": path_graph(4),
    }.items():
        p = root / f"{name}.graph"
        p.write_text(graph_text(g), encoding="utf-8")
        paths[name] = str(p)
    return paths


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ solve


def test_solve_trivial_relator(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["triangle"], "a c a c a c")
    assert code == 0
    assert out.strip() == "TRIVIAL"


def test_solve_sixpts_kernel_element(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["sixpts"], "c e c x")
    assert code == 0
    assert "NONTRIVIAL kernel element: x_{14}" in out
    assert "1: x" in out and "4: x^-1" in out


def test_solve_prints_reparseable_equivalent_word(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["sixpts"], "c e c x")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("equivalent word:"))
    w = parse_word(line.split(":", 1)[1])
    ctx = build_context(sixpts_graph())
    assert phi(ctx, w) == phi(ctx, parse_word("c e c x"))


def test_solve_nonkernel_word(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["triangle"], "a b")
    assert code == 0
    assert out.startswith("NONTRIVIAL")
    assert "kernel" not in out.splitlines()[0]


def test_solve_unknown_label_exits_1(files, capsys):
    code, _, err = invoke(capsys, "solve", files["triangle"], "a q")
    assert code == 1
    assert "unknown edge label" in err


def test_equal_unknown_label_exits_1(files, capsys):
    code, _, err = invoke(capsys, "equal", files["triangle"], "a b", "c zz")
    assert code == 1
    assert err == "error: unknown edge label 'zz'\n"


def test_equal_names_first_unknown_label_in_reading_order(files, capsys):
    """``equal`` evaluates w1 then w2 reversed, so it meets 'q' first; the
    error still names the first unknown label as the words are written."""
    code, out, err = invoke(capsys, "equal", files["triangle"], "a b", "zz c q")
    assert code == 1
    assert out == ""
    assert err == "error: unknown edge label 'zz'\n"


def test_internal_key_error_is_not_a_user_error(files, monkeypatch):
    """Only an unknown label is a user error; any other KeyError is a bug
    and must surface, not exit 1."""
    def broken(ctx):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "structure_report", broken)
    with pytest.raises(KeyError, match="internal"):
        run(["analyze", files["c6"]])


def test_internal_value_error_is_not_a_user_error(files, monkeypatch):
    """A ValueError that is no graph, parameter or file error is a bug and
    must surface, not exit 2."""
    def broken(ctx):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "structure_report", broken)
    with pytest.raises(ValueError, match="internal"):
        run(["analyze", files["c6"]])


def test_solve_empty_word(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["triangle"], "")
    assert code == 0
    assert out.strip() == "TRIVIAL"


def test_solve_k4_quotient_marker(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["k4"], "a a")
    assert code == 0
    assert "QUOTIENT-ONLY (K4)" in out


def test_solve_porcelain(files, capsys):
    code, out, _ = invoke(
        capsys, "solve", files["sixpts"], "c e c x", "--porcelain"
    )
    assert code == 0
    lines = out.splitlines()
    assert "verdict=nontrivial" in lines
    assert "kernel=true" in lines
    assert "generator=x_{14}" in lines


def test_solve_porcelain_quotient(files, capsys):
    code, out, _ = invoke(capsys, "solve", files["k4"], "a a", "--porcelain")
    assert code == 0
    assert "verdict=quotient" in out.splitlines()


# ------------------------------------------------------------------ equal


def test_equal_same_words(files, capsys):
    code, out, _ = invoke(capsys, "equal", files["triangle"], "a c a", "a c a")
    assert code == 0
    assert out.strip() == "TRIVIAL"


def test_equal_braid_sides(files, capsys):
    code, out, _ = invoke(capsys, "equal", files["triangle"], "a c a", "c a c")
    assert code == 0
    assert out.strip() == "TRIVIAL"


def test_equal_different_words(files, capsys):
    code, out, _ = invoke(capsys, "equal", files["triangle"], "a", "b")
    assert code == 0
    assert out.startswith("NONTRIVIAL")


# ----------------------------------------------------------------- kernel


def test_kernel_member(files, capsys):
    code, out, _ = invoke(capsys, "kernel", files["sixpts"], "c e c x")
    assert code == 0
    assert out.splitlines()[0] == "IN KERNEL"
    assert "free part: 1: x, 4: x^-1" in out


def test_kernel_nonmember(files, capsys):
    code, out, _ = invoke(capsys, "kernel", files["sixpts"], "a")
    assert code == 0
    assert out.splitlines()[0] == "NOT IN KERNEL"
    assert "permutation: (1 2)" in out


def test_kernel_porcelain(files, capsys):
    code, out, _ = invoke(capsys, "kernel", files["sixpts"], "a", "--porcelain")
    assert code == 0
    assert "kernel=false" in out and "perm=(1 2)" in out


# ---------------------------------------------------------------- analyze


def test_analyze_c6(files, capsys):
    code, out, _ = invoke(capsys, "analyze", files["c6"])
    assert code == 0
    assert "t=1" in out
    assert "virtually abelian, S_6 ⋉ Z^5" in out


def test_analyze_y(files, capsys):
    code, out, _ = invoke(capsys, "analyze", files["y"])
    assert code == 0
    assert "symmetric group S_4" in out


def test_analyze_sixpts(files, capsys):
    code, out, _ = invoke(capsys, "analyze", files["sixpts"])
    assert code == 0
    assert "n=6 t=3" in out
    assert "kernel abelianization rank: 15" in out
    assert "free subgroup" in out
    assert "cycle x: vertices 1 5 4; edges x c e" in out


def test_analyze_k4_flags(files, capsys):
    code, out, _ = invoke(capsys, "analyze", files["k4"])
    assert code == 0
    assert "k4=yes" in out
    assert "word-problem-exact=no" in out


def test_analyze_porcelain(files, capsys):
    code, out, _ = invoke(capsys, "analyze", files["sixpts"], "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "n=6" in lines and "t=3" in lines
    assert "classification=free_subgroup" in lines
    assert "rank=15" in lines


def test_analyze_deterministic(files, capsys):
    _, out1, _ = invoke(capsys, "analyze", files["sixpts"])
    _, out2, _ = invoke(capsys, "analyze", files["sixpts"])
    assert out1 == out2


# ----------------------------------------------------------------- verify


def test_verify_passes(files, capsys):
    code, out, _ = invoke(
        capsys, "verify", files["sixpts"], "--seed", "3", "--trials", "50"
    )
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("PASS relators (") for l in lines)
    assert any(l.startswith("PASS symmetric-order") for l in lines)
    assert any(l.startswith("PASS kernel-rank") for l in lines)
    assert any(l.startswith("PASS identity-suite") for l in lines)
    assert any(l.startswith("PASS parabolic(") for l in lines)
    assert not any(l.startswith("FAIL") for l in lines)


def test_verify_tree(files, capsys):
    code, out, _ = invoke(capsys, "verify", files["p4"], "--trials", "30")
    assert code == 0
    assert "PASS relators" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_nonpositive_trials(files, capsys, trials):
    code, out, err = invoke(capsys, "verify", files["sixpts"], "--trials", trials)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"coxgraph verify: error: argument --trials: must be at least 1, got {trials}\n"
    )


def test_verify_deterministic(files, capsys):
    args = ("verify", files["c6"], "--seed", "7", "--trials", "40")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


# --------------------------------------------------------------- tsaranov


def test_tsaranov_hexagon_cli(capsys):
    code, out, _ = invoke(capsys, "tsaranov", "3", "3", "3")
    assert code == 0
    assert "n=5 t=3" in out
    assert "x_i^2 x_j^-2" in out


def test_tsaranov_porcelain(capsys):
    code, out, _ = invoke(capsys, "tsaranov", "3", "3", "3", "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "n=5" in lines and "t=3" in lines
    assert "relators=x_i^2 x_j^-2 (x in X, i != j)" in lines


def test_tsaranov_bad_parameters(capsys):
    code, _, err = invoke(capsys, "tsaranov", "1", "3", "2")
    assert code == 2
    assert "error" in err


def test_tsaranov_past_vertex_bound_exits_2(capsys):
    code, out, err = invoke(capsys, "tsaranov", "5000", "4999", "0")
    assert (code, out) == (2, "")
    assert err == "error: need a + b + 2 - t <= 10000, got 10001\n"


# ------------------------------------------------------------------ errors


def test_missing_file_exits_2(capsys):
    code, out, err = invoke(capsys, "analyze", "/nonexistent/g.graph")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/g.graph'\n"


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("1 2 a\n1 2 b\n", encoding="utf-8")
    code, _, err = invoke(capsys, "analyze", str(bad))
    assert code == 2
    assert "duplicate pair" in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.graph"
    bad.write_bytes(b"1 2 a\n\xe9 3 b\n")
    code, out, err = invoke(capsys, "analyze", str(bad))
    assert (code, out) == (2, "")
    assert err == (
        "error: 'utf-8' codec can't decode byte 0xe9 in position 6: "
        "invalid continuation byte\n"
    )


def test_disconnected_exits_2(tmp_path, capsys):
    bad = tmp_path / "disc.graph"
    bad.write_text("1 2 a\n3 4 b\n", encoding="utf-8")
    code, _, err = invoke(capsys, "analyze", str(bad))
    assert code == 2
    assert "connected" in err


def test_usage_error_exits_2(capsys):
    code, _, _ = invoke(capsys, "solve")
    assert code == 2
    code, _, _ = invoke(capsys, "frobnicate", "x")
    assert code == 2


@pytest.mark.parametrize("text, err", [
    # a loop on line 1 is reported before a short line after it
    ("2 2 a\n1 2\n", "line 1: edge a: loop at vertex 2"),
    # a short line before a loop is reported first
    ("1 2\n2 2 a\n", "line 1: expected 'A B LABEL', got '1 2'"),
    # a non-positive vertex outranks a bad label on the same line
    ("0 1 9x\n", "line 1: vertices must be positive, got 0 1"),
    ("1 2 a\n0 0 b\n", "line 2: vertices must be positive, got 0 0"),
    ("0 -3 a\n", "line 1: vertices must be positive, got 0 -3"),
    # a bad label outranks a loop, a loop outranks a later syntax error
    ("2 2 9x\n", "line 1: bad label '9x'"),
    ("1 2 9x\n1 2 3 4\n", "line 1: bad label '9x'"),
    ("3 3 a\nx 1 b\n", "line 1: edge a: loop at vertex 3"),
    # duplicates after comments and blank lines keep their file line
    ("# header\n1 2 a\n\n# note\n2 1 b  # same pair\n2 3 a\n",
     "line 5: edge b: duplicate pair {1,2}"),
    ("# header\n1 2 a\n\n2 3 a\n1 2 b\n", "line 4: duplicate label a"),
    # a pair that is duplicate in both pair and label reads as a pair
    ("1 2 a\n2 1 a\n", "line 2: edge a: duplicate pair {1,2}"),
    ("1 2 a\n1\n1 2 a\n", "line 2: expected 'A B LABEL', got '1'"),
    ("1 2 a\n1 x b\n0 1 c\n", "line 2: bad vertex in '1 x b'"),
    ("# only a comment\n\n", "line 1: no edges"),
])
def test_parse_error_precedence(tmp_path, capsys, text, err):
    bad = tmp_path / "multi.graph"
    bad.write_text(text, encoding="utf-8")
    code, out, got = invoke(capsys, "analyze", str(bad))
    assert (code, out, got) == (2, "", f"error: {err}\n")


# ---------------------------------------------------------------- process

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter without the site packages, with coxgraph on its
    path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", *args], env=env,
                          capture_output=True, text=True, timeout=60, check=False)


@pytest.mark.parametrize("word, code", [("c e c x", 0), ("c e q", 1)])
def test_module_entry_point_matches_run(files, capsys, word, code):
    proc = run_python("-m", "coxgraph.cli", "solve", files["sixpts"], word)
    expected = invoke(capsys, "solve", files["sixpts"], word)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


STARTUP_PROBE = """
import contextlib, io, sys
from coxgraph.cli import run
def loaded():
    return [m for m in ("dataclasses", "typing", "coxgraph.oracle") if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["solve", sys.argv[1], "c e c x"]) == 0
    after_solve = loaded()
    assert run(["verify", sys.argv[1], "--trials", "5"]) == 0
print(after_solve, loaded())
"""


def test_queries_import_only_what_they_need(files):
    """A word query loads neither the oracle nor dataclasses nor typing;
    verify loads the oracle and still not typing."""
    proc = run_python("-c", STARTUP_PROBE, files["sixpts"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] ['coxgraph.oracle']\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_corpus_rejects_trials_below_one(trials):
    """The corpus script takes ``--trials`` as ``coxgraph verify`` does."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "verify_corpus.py"
    proc = run_python(str(script), "--trials", trials)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        f"error: argument --trials: must be at least 1, got {trials}\n"
    )


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
@pytest.mark.parametrize("argv", [["verify"], ["solve", "c e c x"]],
                         ids=["verify", "solve"])
def test_closed_stdout_ends_by_sigpipe(files, argv):
    """Output into a pipe with no reader ends the process by SIGPIPE, not
    by the exit 2 kept for graph files, and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "coxgraph.cli", argv[0], files["sixpts"],
             *argv[1:]],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=write_end,
            stderr=subprocess.PIPE, timeout=60, check=False,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")


ROOT = Path(__file__).resolve().parents[1]


def readme_cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``coxgraph ...`` line of the README's CLI block, with the output
    lines its ``#`` comments give: the one on the line, then the indented
    comment lines under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("coxgraph "):
            command, _, comment = line.partition(" #")
            examples.append((command.strip(), [comment.strip()] if comment else []))
        elif line.startswith("#"):
            examples[-1][1].append(line[1:].strip())
    return examples


@pytest.mark.parametrize("command, expected", [
    pytest.param(command, expected, id=command)
    for command, expected in readme_cli_examples()
])
def test_readme_cli_examples(capsys, monkeypatch, command, expected):
    monkeypatch.chdir(ROOT)
    code, out, err = invoke(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, "")
    assert out.splitlines()[:len(expected)] == expected


def bench_pairs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)


def test_bench_pairs_layout(tmp_path):
    """One short pair of benchmark runs is recorded run by run, with a
    summary per end-to-end metric; other workloads' entries are kept."""
    out = tmp_path / "pairs.json"
    out.write_text('{"wp-grow": {"kept": true}}\n', encoding="utf-8")
    proc = bench_pairs("--base", ".", "--head", ".", "--workload", "verify-suite",
                       "--seeds", "1", "--seconds", "0.1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(out.read_text(encoding="utf-8"))
    assert recorded["wp-grow"] == {"kept": True}
    entry = recorded["verify-suite"]
    assert list(entry) == ["seconds", "pairs", "summary"] and entry["seconds"] == 0.1
    [pair] = entry["pairs"]
    assert list(pair) == ["seed", "first", "base", "head"]
    assert (pair["seed"], pair["first"]) == (1, "base")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"]]
    for side in ("base", "head"):
        assert list(pair[side]) == ["failed", "attempted", "metrics", "wall_s"]
        assert pair[side]["failed"] == 0 < pair[side]["attempted"]
        assert pair[side]["wall_s"] > 0
        assert list(pair[side]["metrics"]) == names
    assert list(entry["summary"]) == names
    for metric in bench["end_to_end"]:
        s = entry["summary"][metric["name"]]
        assert list(s) == ["better", "base", "head", "ratio_median",
                           "head_better_pairs", "pairs", "base_iqr", "median_gap",
                           "gap_beyond_base_iqr", "claim_holds"]
        assert (s["better"], s["pairs"]) == (metric["better"], 1)
        base, head = (pair[side]["metrics"][metric["name"]]
                      for side in ("base", "head"))
        assert (s["base"]["values"], s["head"]["values"]) == ([base], [head])
        assert s["ratio_median"] == head / base
        won = head < base if metric["better"] == "lower" else head > base
        assert s["head_better_pairs"] == int(won)
        # one pair: base's quartiles are its one value, so any win clears them
        assert (s["base_iqr"], s["median_gap"]) == (0, head - base)
        assert s["gap_beyond_base_iqr"] is s["claim_holds"] is won
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("seed 1: base ") and "; head/base " in lines[0]
    ratio_text = lines[0].split("; head/base ")[1]
    ratios = dict(part.split() for part in ratio_text.split(", "))
    assert list(ratios) == names
    for name, text in ratios.items():
        base, head = (pair[side]["metrics"][name] for side in ("base", "head"))
        assert text == f"{head / base:.4f}"
    assert [line.split()[0] for line in lines[1:]] == names
    for line in lines[1:]:
        assert "base IQR " in line and "median gap " in line
        assert re.search(r"gap beyond IQR (yes|no)  claim (holds|fails)$", line)


def test_bench_pairs_fails_on_a_failed_run(tmp_path):
    """A side that cannot run the benchmark stops the script, which writes
    nothing."""
    out = tmp_path / "pairs.json"
    proc = bench_pairs("--base", str(tmp_path), "--head", ".", "--workload",
                       "verify-suite", "--seeds", "1", "--seconds", "0.1",
                       "--out", str(out))
    assert proc.returncode != 0
    assert "bench/run.py" in proc.stderr
    assert not out.exists()
