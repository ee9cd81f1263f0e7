#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of coxgraph.

Usage, from the root of a coxgraph checkout:

    python3 bench/run.py --workload wp-grow --seed 1 --seconds 20 --trace 0

Workloads (bench/README.md says why each exists):
  wp-grow       alternating ``solve`` and ``kernel`` on uniform random words
  wp-cancel     ``equal W1 W2`` where W2 is W1 with relators spliced in
  verify-suite  ``verify`` over every graph in graphs/

One closed-loop client sends one query at a time through
``coxgraph.cli.run(argv)`` in this process, stdout captured, so argument
parsing and rendering are timed but interpreter start-up is not.  Whole
rounds of queries run until the timed total reaches ``--seconds``.  Every
answer is checked outside the timed section.  End-to-end times are
calibrated against a reference loop timed between queries (calib.py).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each query is sent through the CLI
and then replayed as direct calls to the library's public functions inside
spans; the JSON holds the per-layer metrics, and the spans are written to
.bench_work/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calib
import checks
import gen
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = ROOT / "graphs"
WORK = ROOT / ".bench_work"
WORKLOADS = ("wp-grow", "wp-cancel", "verify-suite")

SETUP_REPEATS = 11
PEAK_SAMPLES = 64  # prefixes sampled per word for the peak free-part length
SD_MUL_REPEATS = 5

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("work_per_s", "1/s", "higher"),
    ("query_ms_p50", "ms", "lower"),
    ("query_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("graphs.parse_us", "us", "lower"),
    ("embedding.build_context_us", "us", "lower"),
    *((f"embedding.phi_us_per_letter.L{L}", "us/letter", "lower") for L in gen.BUCKETS),
    ("embedding.phi_scaling_exp", "exponent", "lower"),
    *((f"freeprod.sd_mul_us.L{L}", "us", "lower") for L in gen.BUCKETS),
    ("freeprod.peak_slot_len", "letters", "lower"),
    ("freeprod.final_len", "letters", "lower"),
    ("freeprod.cancel_ratio", "ratio", "higher"),
    ("perms.perm_of_word_us_per_letter", "us/letter", "lower"),
    ("embedding.psi_us", "us", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("presentation.relators_us", "us", "lower"),
    ("oracle.check_relators_s", "s", "lower"),
    ("oracle.bfs_group_order_s", "s", "lower"),
    ("oracle.bfs_states", "count", "lower"),
    ("oracle.ab_rank_s", "s", "lower"),
    ("oracle.identity_suite_s", "s", "lower"),
    ("oracle.identity_checks", "count", "higher"),
    ("oracle.parabolic_s", "s", "lower"),
    ("oracle.parabolic_words", "count", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
)
# Spans that mirror what the CLI does for a query; cli.overhead_ms is the
# untraced CLI time minus their sum.
MIRROR_SPANS = (
    "graphs.parse_graph", "embedding.build_context", "embedding.phi",
    "perms.perm_of_word", "verify-steps",
)
PROBE_GRAPH = "sixpts"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coxgraph" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"error: {ROOT} is not a coxgraph checkout "
              "(src/coxgraph and graphs/ are needed)", file=sys.stderr)
        return 2
    graphs = gen.workload_graphs(args.workload, args.seed, CORPUS)
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        paths = write_graphs(run_dir, graphs)
        cal = calib.Calibration()
        setup, lib = measure_setup(paths, cal)
        bench = Bench(args, graphs, paths, lib)
        result = bench.traced() if args.trace else bench.untraced(setup, cal)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def write_graphs(run_dir: Path, graphs: list[gen.GraphInput]) -> dict[str, Path]:
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for g in graphs:
        paths[g.name] = run_dir / f"{g.name}.graph"
        paths[g.name].write_text(g.text, encoding="utf-8")
    return paths


class Library:
    """The coxgraph modules of one fresh import."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules
                     if m == "coxgraph" or m.startswith("coxgraph.")]:
            del sys.modules[name]
        importlib.import_module("coxgraph")
        self.cli = importlib.import_module("coxgraph.cli")
        for name in ("graphs", "embedding", "freeprod", "perms",
                     "presentation", "oracle"):
            setattr(self, name, importlib.import_module(f"coxgraph.{name}"))

    def fn(self, dotted: str):
        """A public function by module-qualified name, or None when a later
        version of the library no longer has it; its layer then reads 0."""
        module, name = dotted.split(".")
        return getattr(getattr(self, module), name, None)


def measure_setup(paths: dict[str, Path], cal: calib.Calibration
                  ) -> tuple[tuple[float, float], Library]:
    """Median time, calibrated and raw, to import coxgraph and parse and
    build a context for each of the workload's graphs.  Each repeat imports
    the package afresh; the standard-library modules it uses stay loaded,
    as they would in any process that had already started."""
    spans = []
    for _ in range(SETUP_REPEATS):
        cal.before()
        t0 = time.perf_counter()
        lib = Library()
        for path in paths.values():
            lib.embedding.build_context(
                lib.graphs.parse_graph(path.read_text(encoding="utf-8")))
        t1 = time.perf_counter()
        cal.after(t1 - t0)
        spans.append((t0, t1))
    scaled = statistics.median((t1 - t0) * cal.scale(t0, t1) for t0, t1 in spans)
    return (scaled, statistics.median(t1 - t0 for t0, t1 in spans)), lib


def invoke(cli, argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """Run one CLI query: exit code, captured stdout, seconds, and the
    exception it raised, if any."""
    out, err = io.StringIO(), io.StringIO()
    exc_text = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a crashing query is a failed query
        where = traceback.extract_tb(exc.__traceback__)[-1]
        rc = None
        exc_text = f"{type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
    return rc, out.getvalue(), time.perf_counter() - t0, exc_text


def tail_rank(samples: int, round_size: int) -> tuple[float, int]:
    """The tail percentile and the sample index it reads: the highest
    percentile with at least ten samples of one round beyond it.  Fixing it
    per round keeps the percentile the same however many rounds a run
    completes."""
    q = (round_size - 10) / round_size
    index = max(0, math.ceil(q * samples) - 1)
    return 100 * q, index


class Bench:
    def __init__(self, args, graphs: list[gen.GraphInput],
                 paths: dict[str, Path], lib: Library):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.graphs = {g.name: g for g in graphs}
        self.order = graphs
        self.paths = paths
        self.lib = lib
        self.failures: list[str] = []
        self.attempted = 0
        self.busy = 0.0  # summed query seconds
        self.rounds_run = 0

    # -- queries -----------------------------------------------------------

    def rounds(self):
        """Rounds of queries, until the summed query time reaches --seconds."""
        while self.rounds_run == 0 or self.busy < self.seconds:
            yield gen.round_queries(self.workload, self.seed, self.rounds_run, self.order)
            self.rounds_run += 1

    def argv(self, q: gen.Query) -> list[str]:
        path = str(self.paths[q.graph])
        if q.kind == "verify":
            return ["verify", path, "--seed", str(q.seed),
                    "--trials", str(gen.VERIFY_TRIALS)]
        return [q.kind, path, *(" ".join(w) for w in q.words), "--porcelain"]

    def run_query(self, q: gen.Query) -> tuple[float, int]:
        """Send one query, check its answer, and return its seconds and its
        work: edge letters submitted, or oracle checks reported."""
        rc, out, dt, exc = invoke(self.lib.cli, self.argv(q))
        self.busy += dt
        self.attempted += 1
        error, work = checks.check_answer(q, self.graphs[q.graph], rc, out)
        if exc or error:
            self.fail(q, exc or error)
        return dt, work

    def fail(self, q: gen.Query, error: str) -> None:
        self.failures.append(f"{q.kind} on {q.graph} (L={q.length}): {error}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        failed = len(self.failures)
        for line in self.failures[:10]:
            print(f"FAILED {line}")
        print(f"failed_ratio = {failed / self.attempted:.4f} "
              f"({failed} of {self.attempted} queries)")
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    # -- untraced run: end-to-end metrics ----------------------------------

    def untraced(self, setup: tuple[float, float], cal: calib.Calibration) -> dict:
        measured = []  # (seconds, perf_counter before and after the query)
        work = 0
        round_size = 0
        for queries in self.rounds():
            round_size = len(queries)
            for q in queries:
                cal.before()
                t0 = time.perf_counter()
                dt, w = self.run_query(q)
                measured.append((dt, t0, time.perf_counter()))
                cal.after(dt)
                work += w
        raw = [dt for dt, _, _ in measured]
        scaled = [dt * cal.scale(t0, t1) for dt, t0, t1 in measured]
        pct, index = tail_rank(len(measured), round_size)
        work_name = "checks_per_s" if self.workload == "verify-suite" else "letters_per_s"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def end_to_end(setup_s, times):
            return {
                "setup_s": (setup_s, "s"),
                "queries_per_s": (len(times) / sum(times), "1/s"),
                "work_per_s": (work / sum(times), "1/s"),
                "query_ms_p50": (1e3 * statistics.median(times), "ms"),
                "query_ms_tail": (1e3 * sorted(times)[index], "ms"),
                "peak_rss_mb": (rss, "MB"),
            }

        metrics = end_to_end(setup[0], scaled)
        measured_metrics = end_to_end(setup[1], raw)
        print(f"workload {self.workload} seed {self.seed}: {self.rounds_run} round(s), "
              f"{len(measured)} queries in {self.busy:.2f} s measured")
        print(f"query_ms_tail is p{pct:.1f}, with {len(measured) - 1 - index} "
              f"samples beyond it; work_per_s is {work_name}")
        ref_ms = 1e3 * statistics.median(cal.samples)
        print(f"calibration: {len(cal.samples)} reference samples, median {ref_ms:.3f} ms; "
              f"reported times are at the nominal {1e3 * calib.NOMINAL_S:g} ms")
        print(f"{'metric':16} {'reported':>12} {'measured':>12}")
        for k, (v, u) in metrics.items():
            print(f"{k:16} {v:12.6g} {measured_metrics[k][0]:12.6g} {u}")
        return self.result(metrics)

    # -- traced run: per-layer metrics -------------------------------------

    def traced(self) -> dict:
        tr = Tracer()
        lib = self.lib
        relators = lib.fn("presentation.relators")
        if relators:
            for g in self.order:
                parsed = lib.graphs.parse_graph(g.text)
                with tr.span("presentation.relators", graph=g.name):
                    relators(parsed, "coxy")
        wall0 = time.perf_counter()
        cli_total = 0.0
        qid = 0
        for queries in self.rounds():
            for q in queries:
                dt, _ = self.run_query(q)
                cli_total += dt
                with tr.span("query", qid, kind=q.kind, graph=q.graph,
                             L=q.length, cli_s=dt):
                    ctx, element, word = self.mirror(tr, q)
                if element is not None:
                    self.probe(tr, qid, q, ctx, element, word)
                qid += 1
        self.probe_unreached_layers(tr)
        wall = time.perf_counter() - wall0
        tr.write(WORK / f"trace-{self.workload}-seed{self.seed}.jsonl")
        metrics = self.layer_metrics(tr)
        print(f"workload {self.workload} seed {self.seed}: traced "
              f"{qid} queries in {self.rounds_run} round(s)")
        print(f"untraced CLI time {cli_total:.2f} s; traced run wall {wall:.2f} s "
              f"(replay and probes included)")
        self.print_phi_table(tr, metrics)
        for k, (v, u) in metrics.items():
            print(f"{k} = {v:.6g} {u}")
        return self.result(metrics)

    def mirror(self, tr: Tracer, q: gen.Query):
        """Replay a query as the library calls the CLI makes for it.
        Returns the context, the evaluated element (word queries only) and
        the evaluated word."""
        lib = self.lib
        with tr.span("graphs.parse_graph"):
            graph = lib.graphs.parse_graph(self.paths[q.graph].read_text(encoding="utf-8"))
        with tr.span("embedding.build_context"):
            ctx = lib.embedding.build_context(graph)
        if q.kind == "verify":
            self.mirror_verify(tr, q, ctx)
            return ctx, None, None
        word = q.words[0]
        if q.kind == "equal":
            word = q.words[0] + tuple(reversed(q.words[1]))
        with tr.span("embedding.phi", bucket=gen.bucket(q.length), letters=len(word),
                     graph=q.graph):
            element = lib.embedding.phi(ctx, word)
        perm_of_word = lib.fn("perms.perm_of_word")
        if q.kind == "kernel" and perm_of_word and not element.perm.is_identity():
            with tr.span("perms.perm_of_word", letters=len(word)):
                perm_of_word(ctx.graph, word)
        return ctx, element, word

    def probe_unreached_layers(self, tr: Tracer) -> None:
        """Give each layer this workload's queries never reach one fixed
        probe on sixpts, so every per-layer metric is measured on every
        workload: a seeded word per length bin through the evaluator, the
        same words through perms.perm_of_word, and one verify."""
        lib = self.lib
        graph = lib.graphs.parse_graph((CORPUS / f"{PROBE_GRAPH}.graph").read_text(encoding="utf-8"))
        ctx = lib.embedding.build_context(graph)
        rng = random.Random(f"{self.seed}:probe")
        words = [gen.random_word(rng, graph.labels, L) for L in gen.BUCKETS]
        with tr.span("layer-probe"):
            if not tr.named("embedding.phi"):
                for L, word in zip(gen.BUCKETS, words):
                    with tr.span("embedding.phi", bucket=L, letters=L, graph=PROBE_GRAPH):
                        element = lib.embedding.phi(ctx, word)
                    q = gen.Query(PROBE_GRAPH, "kernel", (word,), L)
                    self.probe(tr, None, q, ctx, element, word)
            perm_of_word = lib.fn("perms.perm_of_word")
            if perm_of_word and not tr.named("perms.perm_of_word"):
                for word in words:
                    with tr.span("perms.perm_of_word", letters=len(word)):
                        perm_of_word(graph, word)
            if not tr.named("verify-steps"):
                q = gen.Query(PROBE_GRAPH, "verify", (), 0, seed=self.seed)
                self.mirror_verify(tr, q, ctx)

    def mirror_verify(self, tr: Tracer, q: gen.Query, ctx) -> None:
        """The steps of ``coxgraph verify``, each in its own span under one
        "verify-steps" span; a step whose function the library no longer
        has is skipped."""
        with tr.span("verify-steps"):
            lib = self.lib
            trials = gen.VERIFY_TRIALS

            def step(name, *args, **attrs):
                f = lib.fn(name)
                if f is None:
                    return None
                with tr.span(name, **attrs) as s:
                    out = f(*args)
                return s, out

            reports = []
            done = step("oracle.check_relators", ctx)
            if done:
                reports.append(done[1])
            if ctx.n <= getattr(lib.cli, "ORDER_CHECK_MAX_N", 9):
                gens = [lib.perms.Permutation.transposition(ctx.n, e.a, e.b)
                        for e in ctx.graph.edges]
                done = step("oracle.bfs_group_order", gens)
                if done:
                    done[0].attrs["states"] = done[1]
                    if done[1] != math.factorial(ctx.n):
                        self.fail(q, f"group order {done[1]}, expected {ctx.n}!")
            parts = step("embedding.kernel_generator_parts", ctx)
            if parts and lib.fn("freeprod.component_exponents"):
                rows = [lib.freeprod.component_exponents(f) for f in parts[1]]
                done = step("oracle.ab_rank", rows)
                if done and done[1] != ctx.t * (ctx.n - 1):
                    self.fail(q, f"kernel rank {done[1]}, expected {ctx.t * (ctx.n - 1)}")
            if ctx.t >= 1 and ctx.n >= 4:
                done = step("oracle.identity_suite", q.seed, ctx.n, ctx.t, trials)
                if done:
                    done[0].attrs["checks"] = done[1].checks_run
                    reports.append(done[1])
            subs = [sorted(ctx.tree.tree_edges)]
            subs += [[c.chord, *c.cycle_edges] for c in ctx.cycles]
            for sub in subs:
                done = step("oracle.parabolic_check", ctx, sub, trials, q.seed)
                if done:
                    done[0].attrs["words"] = done[1].checks_run
                    reports.append(done[1])
            for rep in reports:
                if not rep.ok:
                    self.fail(q, f"replayed report {rep.name} failed")

    def probe(self, tr: Tracer, qid: int | None, q: gen.Query, ctx, element, word) -> None:
        """Layer probes outside the CLI path: the tree word of the witness
        permutation, the free-part lengths along the word, and one sd_mul
        at the peak."""
        lib = self.lib
        fp = lib.freeprod
        chords = set(ctx.chords)
        with tr.span("probe", qid) as s:
            psi_perm = lib.fn("embedding.psi_perm")
            if psi_perm:
                with tr.span("embedding.psi_perm"):
                    psi_perm(ctx, element.perm)
            final, peak_el, peak_slot = self.peak_scan(ctx, word)
            if final != element:
                self.fail(q, "evaluation in chunks disagrees with phi")
            img = ctx.letter_image(ctx.chords[0])
            for _ in range(SD_MUL_REPEATS):
                with tr.span("freeprod.sd_mul", bucket=gen.bucket(q.length)):
                    fp.sd_mul(peak_el, img)
            s.attrs.update(
                chord_letters=sum(1 for x in word if x in chords),
                final_len=sum(len(w) for w in element.f.components),
                peak_slot_len=peak_slot,
            )

    def peak_scan(self, ctx, word):
        """Evaluate the word in PEAK_SAMPLES chunks, multiplying the chunk
        images together.  Returns the final element, the prefix element with
        the largest free part, and the longest slot word seen."""
        fp = self.lib.freeprod
        phi = self.lib.embedding.phi
        step = max(1, len(word) // PEAK_SAMPLES)
        el = peak_el = fp.SemidirectElement.identity(ctx.n)
        peak_total = peak_slot = 0
        for i in range(0, len(word), step):
            el = fp.sd_mul(el, phi(ctx, word[i:i + step]))
            lens = [len(w) for w in el.f.components]
            if sum(lens) > peak_total:
                peak_total, peak_el = sum(lens), el
            peak_slot = max(peak_slot, max(lens))
        return el, peak_el, peak_slot

    def layer_metrics(self, tr: Tracer) -> dict[str, tuple[float, str]]:
        verifies = max(1, len(tr.named("verify-steps")))

        def mean_us(name):
            spans = tr.named(name)
            return 1e6 * statistics.fmean(s.seconds for s in spans) if spans else 0.0

        def per_verify_s(name):
            return sum(s.seconds for s in tr.named(name)) / verifies

        def per_verify(name, key):
            return sum(s.attrs.get(key, 0) for s in tr.named(name)) / verifies

        def per_letter_us(spans):
            letters = sum(s.attrs["letters"] for s in spans)
            return 1e6 * sum(s.seconds for s in spans) / letters if letters else 0.0

        phi_spans = tr.named("embedding.phi")
        sd_spans = tr.named("freeprod.sd_mul")
        probes = tr.named("probe")
        m: dict[str, tuple[float, str]] = {
            "graphs.parse_us": (mean_us("graphs.parse_graph"), "us"),
            "embedding.build_context_us": (mean_us("embedding.build_context"), "us"),
        }
        for L in gen.BUCKETS:
            m[f"embedding.phi_us_per_letter.L{L}"] = (
                per_letter_us([s for s in phi_spans if s.attrs["bucket"] == L]), "us/letter")
        m["embedding.phi_scaling_exp"] = (scaling_exponent(phi_spans), "exponent")
        for L in gen.BUCKETS:
            times = [s.seconds for s in sd_spans if s.attrs["bucket"] == L]
            m[f"freeprod.sd_mul_us.L{L}"] = (
                1e6 * statistics.median(times) if times else 0.0, "us")
        pushed = 2 * sum(p.attrs["chord_letters"] for p in probes)
        final = sum(p.attrs["final_len"] for p in probes)
        m["freeprod.peak_slot_len"] = (
            statistics.fmean(p.attrs["peak_slot_len"] for p in probes) if probes else 0.0,
            "letters")
        m["freeprod.final_len"] = (
            statistics.fmean(p.attrs["final_len"] for p in probes) if probes else 0.0,
            "letters")
        # Each chord letter pushes two free letters; each cancelled pair
        # removes two, so cancelled pairs per chord letter is 1 - final/pushed.
        m["freeprod.cancel_ratio"] = (1 - final / pushed if pushed else 0.0, "ratio")
        m["perms.perm_of_word_us_per_letter"] = (
            per_letter_us(tr.named("perms.perm_of_word")), "us/letter")
        m["embedding.psi_us"] = (mean_us("embedding.psi_perm"), "us")
        overheads, glue = [], []
        for qs in tr.named("query"):
            kids = tr.children(qs)
            lib_s = sum(c.seconds for c in kids if c.name in MIRROR_SPANS)
            overheads.append(qs.attrs["cli_s"] - lib_s)
            glue.append(qs.seconds - sum(c.seconds for c in kids))
        m["cli.overhead_ms"] = (1e3 * statistics.median(overheads), "ms")
        m["presentation.relators_us"] = (mean_us("presentation.relators"), "us")
        m["oracle.check_relators_s"] = (per_verify_s("oracle.check_relators"), "s")
        m["oracle.bfs_group_order_s"] = (per_verify_s("oracle.bfs_group_order"), "s")
        m["oracle.bfs_states"] = (per_verify("oracle.bfs_group_order", "states"), "count")
        m["oracle.ab_rank_s"] = (per_verify_s("oracle.ab_rank"), "s")
        m["oracle.identity_suite_s"] = (per_verify_s("oracle.identity_suite"), "s")
        m["oracle.identity_checks"] = (per_verify("oracle.identity_suite", "checks"), "count")
        m["oracle.parabolic_s"] = (per_verify_s("oracle.parabolic_check"), "s")
        m["oracle.parabolic_words"] = (per_verify("oracle.parabolic_check", "words"), "count")
        m["trace.overhead_ms"] = (1e3 * statistics.fmean(glue), "ms")
        return m

    def print_phi_table(self, tr: Tracer, metrics) -> None:
        phi_spans = tr.named("embedding.phi")
        names = list(dict.fromkeys(s.attrs["graph"] for s in phi_spans))
        print("phi us/letter by graph and length:")
        print("  L      " + "".join(f"{name:>10}" for name in names) + "       all")
        for L in gen.BUCKETS:
            cells = []
            for name in names:
                spans = [s for s in phi_spans
                         if s.attrs["bucket"] == L and s.attrs["graph"] == name]
                letters = sum(s.attrs["letters"] for s in spans)
                cells.append(f"{1e6 * sum(s.seconds for s in spans) / letters:10.1f}"
                             if letters else f"{'-':>10}")
            total = metrics[f"embedding.phi_us_per_letter.L{L}"][0]
            print(f"  {L:<7}" + "".join(cells) + f"{total:10.1f}")
        exp = metrics["embedding.phi_scaling_exp"][0]
        lo, hi = gen.LENGTH_RANGE
        print(f"phi time per word ~ L^{exp:.3f} over L = {lo}..{hi}")


def scaling_exponent(phi_spans) -> float:
    """Least-squares slope of log(phi seconds) against log(word length)
    over every evaluated word; every graph gets the same lengths."""
    points = [(math.log(s.attrs["letters"]), math.log(s.seconds)) for s in phi_spans]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


if __name__ == "__main__":
    sys.exit(main())
