"""Command-line front end.

Subcommands: analyze, solve, equal, kernel, verify, tsaranov.  Exit codes:
0 on success (including quotient-only verdicts), 1 when verify finds
failures or a word uses an unknown label, 2 on usage errors, bad
parameters, unreadable or invalid graph files.  Any other KeyError,
ValueError or OSError is an internal error and propagates; ``main`` lets a
closed stdout end the process by SIGPIPE where the platform has one.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from pathlib import Path

from .embedding import (
    Classification,
    Context,
    TextWord,
    VerdictKind,
    build_context,
    equal,
    is_trivial,
    phi,
    psi_gen,
    psi_perm,
    structure_report,
)
from .freeprod import FStarElement
from .graphs import GraphError, UnknownLabelError, parse_graph
from .presentation import AGenerator, ParameterError, tsaranov_presentation


def _positive_int(text: str) -> int:
    """An argparse type: an int of at least 1, failing with int's own text."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxgraph",
        description="Exact computation in edge-generated Coxeter quotients "
        "of symmetric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, cmd) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--porcelain", action="store_true",
                       help="machine-readable key=value output")
        p.set_defaults(cmd=cmd)
        return p

    p = add("analyze", "structural report for a graph file", _cmd_analyze)
    p.add_argument("file")

    p = add("solve", "decide whether a word is trivial", _cmd_solve)
    p.add_argument("file")
    p.add_argument("word")

    p = add("equal", "decide whether two words are equal", _cmd_equal)
    p.add_argument("file")
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("kernel", "test membership in the kernel of the symmetric image",
            _cmd_kernel)
    p.add_argument("file")
    p.add_argument("word")

    p = add("verify", "run the oracle suite on a graph file", _cmd_verify)
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=_positive_int, default=200)

    p = add("tsaranov", "report the generalized Coxeter data for parameters A B T",
            _cmd_tsaranov)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("t", type=int)
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.cmd(args)
    except (GraphError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownLabelError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1


def main() -> None:
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


def _load_context(path: str) -> Context:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # the file's fault
        raise GraphError(str(exc)) from exc
    return build_context(parse_graph(text))


def _classification_text(rep) -> str:
    if rep.classification is Classification.SYMMETRIC_GROUP:
        return f"symmetric group S_{rep.n}"
    if rep.classification is Classification.VIRTUALLY_ABELIAN:
        return f"virtually abelian, S_{rep.n} ⋉ Z^{rep.n - 1}"
    return "contains a non-abelian free subgroup"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_analyze(args) -> int:
    ctx = _load_context(args.file)
    rep = structure_report(ctx)
    if args.porcelain:
        print(f"n={rep.n}")
        print(f"t={rep.t}")
        print(f"classification={rep.classification.value}")
        print(f"rank={rep.kernel_ab_rank}")
        print(f"k4={str(rep.is_k4).lower()}")
        print(f"torsion_free_kernel={str(rep.torsion_free_kernel).lower()}")
        print(f"residually_finite={str(rep.residually_finite).lower()}")
        print(f"word_problem_exact={str(rep.word_problem_exact).lower()}")
        return 0
    print(f"n={rep.n} t={rep.t}")
    print(f"classification: {_classification_text(rep)}")
    print(f"kernel abelianization rank: {rep.kernel_ab_rank}")
    print(
        f"flags: k4={_yn(rep.is_k4)}"
        f" torsion-free-kernel={_yn(rep.torsion_free_kernel)}"
        f" residually-finite={_yn(rep.residually_finite)}"
        f" word-problem-exact={_yn(rep.word_problem_exact)}"
    )
    print(f"spanning tree: {' '.join(sorted(ctx.tree.tree_edges))}")
    for cyc in ctx.cycles:
        verts = " ".join(map(str, cyc.local_to_global))
        edges = " ".join((cyc.chord,) + cyc.cycle_edges)
        print(f"cycle {cyc.chord}: vertices {verts}; edges {edges}")
    return 0


def _single_generator(f: FStarElement) -> AGenerator | None:
    """Recognize the normal form of a bare kernel generator."""
    busy = [
        (slot, w) for slot, w in enumerate(f.components, start=1)
        if not w.is_identity()
    ]
    if len(busy) != 2:
        return None
    (si, wi), (sj, wj) = busy
    if len(wi) != 1 or len(wj) != 1:
        return None
    (xi, ei), (xj, ej) = wi.letters[0], wj.letters[0]
    if xi != xj:
        return None
    if ei == 1 and ej == -1:
        return AGenerator(xi, si, sj)
    if ei == -1 and ej == 1:
        return AGenerator(xi, sj, si)
    return None


def _equivalent_word(ctx: Context, witness) -> tuple[str, ...] | None:
    """An edge word equal to the witness, when one is cheaply available:
    the permutation part is realized over the tree, a bare-generator free
    part over its basic cycle."""
    if witness.f.is_identity():
        return psi_perm(ctx, witness.perm)
    gen = _single_generator(witness.f)
    if gen is not None:
        return psi_perm(ctx, witness.perm) + psi_gen(ctx, gen)
    return None


def _print_verdict(ctx: Context, verdict, porcelain: bool) -> int:
    if porcelain:
        print(f"verdict={verdict.kind.value}")
        if verdict.kind is VerdictKind.NONTRIVIAL:
            w = verdict.witness
            print(f"witness={w}")
            print(f"kernel={str(w.perm.is_identity()).lower()}")
            gen = _single_generator(w.f) if w.perm.is_identity() else None
            if gen is not None:
                print(f"generator={gen}")
        return 0
    if verdict.kind is VerdictKind.TRIVIAL:
        print("TRIVIAL")
    elif verdict.kind is VerdictKind.TRIVIAL_IN_QUOTIENT:
        print(
            "QUOTIENT-ONLY (K4): the image is trivial in the quotient; "
            "exact triviality is undecided for the complete four-vertex graph"
        )
    else:
        w = verdict.witness
        if w.perm.is_identity():
            gen = _single_generator(w.f)
            suffix = f": {gen}" if gen is not None else ""
            print(f"NONTRIVIAL kernel element{suffix}")
        else:
            print("NONTRIVIAL")
        print(f"witness: {w}")
        eq_word = _equivalent_word(ctx, w)
        if eq_word is not None:
            print(f"equivalent word: {' '.join(eq_word)}")
    return 0


def _cmd_solve(args) -> int:
    ctx = _load_context(args.file)
    return _print_verdict(ctx, is_trivial(ctx, TextWord(args.word)), args.porcelain)


def _cmd_equal(args) -> int:
    ctx = _load_context(args.file)
    w1, w2 = TextWord(args.word1), TextWord(args.word2)
    try:
        verdict = equal(ctx, w1, w2)
    except UnknownLabelError:
        for label in chain(w1, w2):  # name the first unknown in reading order
            ctx.graph.edge(label)
        raise
    return _print_verdict(ctx, verdict, args.porcelain)


def _cmd_kernel(args) -> int:
    ctx = _load_context(args.file)
    g = phi(ctx, TextWord(args.word))
    member = g.perm.is_identity()
    if args.porcelain:
        print(f"kernel={str(member).lower()}")
        print(f"fpart={g.f}")
        if not member:
            print(f"perm={g.perm}")
        return 0
    print("IN KERNEL" if member else "NOT IN KERNEL")
    print(f"free part: {g.f}")
    if not member:
        print(f"permutation: {g.perm}")
    return 0


def _cmd_verify(args) -> int:
    from .oracle import full_suite  # only verify needs the oracle layer

    reports = full_suite(_load_context(args.file), args.seed, args.trials)
    ok = True
    for report in reports:
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_tsaranov(args) -> int:
    rep = tsaranov_presentation(args.a, args.b, args.t)
    if args.porcelain:
        print(f"n={rep.n}")
        print(f"t={rep.t}")
        print(f"relators={rep.extra_relators}")
        return 0
    print(f"n={rep.n} t={rep.t}")
    edges = ", ".join(f"{e.label} {e.a}-{e.b}" for e in rep.graph.edges)
    print(f"graph: {len(rep.graph.edges)} edges on {rep.graph.n} vertices")
    print(f"edges: {edges}")
    print(f"extra relators: {rep.extra_relators}")
    return 0


if __name__ == "__main__":
    main()
