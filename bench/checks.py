"""Answer checks that do not trust the program's normal form.

A word's permutation is evaluated here from the edge list alone; a free
part printed by the program is parsed and checked to be freely reduced,
over the chord alphabet, and of zero total exponent sum per chord (the
``in_ftn`` condition every edge word's image satisfies).  Each check returns
None when the answer is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import re

from gen import GraphInput, Query

REPORT_RE = re.compile(r"(PASS|FAIL) .* \((\d+) checks\)\Z")


def perm_text(g: GraphInput, word: tuple[str, ...]) -> str:
    """The word's permutation in cycle notation, each letter swapping its
    edge's endpoints, first letter first; fixed points omitted, ``()`` for
    the identity."""
    ends = {label: (a, b) for label, a, b in g.edges}
    where = list(range(g.n + 1))  # where[v]: current image of v
    at = list(range(g.n + 1))  # at[p]: the vertex whose image is p
    for label in word:
        a, b = ends[label]
        va, vb = at[a], at[b]
        where[va], where[vb] = b, a
        at[a], at[b] = vb, va
    seen = set()
    cycles = []
    for start in range(1, g.n + 1):
        if start in seen or where[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        v = where[start]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = where[v]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) or "()"


def free_part_error(text: str, n: int, chords: frozenset[str]) -> str | None:
    """Why a printed free part (``1: x y^-1, 4: ...`` or ``1``) is not a
    reduced element of zero total exponent sum, or None."""
    if text == "1":
        return None
    totals: dict[str, int] = {}
    last_slot = 0
    for part in text.split(", "):
        slot_text, _, letters = part.partition(": ")
        if not slot_text.isdigit() or not last_slot < int(slot_text) <= n:
            return f"bad slot in free part {part!r}"
        last_slot = int(slot_text)
        prev = None
        for token in letters.split(" "):
            x, inverse = (token[:-3], True) if token.endswith("^-1") else (token, False)
            if x not in chords:
                return f"letter {token!r} is not a chord"
            e = -1 if inverse else 1
            if prev == (x, -e):
                return f"slot {last_slot} is not freely reduced"
            prev = (x, e)
            totals[x] = totals.get(x, 0) + e
    nonzero = {x: v for x, v in totals.items() if v}
    if nonzero:
        return f"free part has nonzero exponent sums {nonzero}"
    return None


def porcelain(out: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def check_answer(q: Query, g: GraphInput, rc: int | None,
                 out: str) -> tuple[str | None, int]:
    """Why the answer to a query is wrong (None when it is right), and the
    query's work: edge letters submitted, or oracle checks reported."""
    if q.kind == "verify":
        error, reported = verify_error(out)
        return (f"exit code {rc}" if rc != 0 else error), reported
    if rc != 0:
        return f"exit code {rc}", q.letters
    return word_answer_error(q, g, porcelain(out)), q.letters


def word_answer_error(q: Query, g: GraphInput, fields: dict[str, str]) -> str | None:
    if q.kind == "equal":
        got = fields.get("verdict")
        if got != q.expected:
            return f"verdict {got}, expected {q.expected} by construction"
        return None
    perm = perm_text(g, q.words[0])
    if q.kind == "solve":
        return solve_error(fields, perm, g.n, g.chords)
    if q.kind == "kernel":
        return kernel_error(fields, perm, g.n, g.chords)
    return f"unknown query kind {q.kind}"


def solve_error(fields: dict[str, str], perm: str, n: int,
                chords: frozenset[str]) -> str | None:
    verdict = fields.get("verdict")
    if verdict in ("trivial", "quotient"):
        return None if perm == "()" else f"{verdict} verdict for permutation {perm}"
    if verdict != "nontrivial":
        return f"no verdict in output: {verdict!r}"
    w_perm, sep, w_free = fields.get("witness", "").partition(" | ")
    if not sep:
        return "no witness in output"
    if w_perm != perm:
        return f"witness permutation {w_perm}, expected {perm}"
    if fields.get("kernel") != str(perm == "()").lower():
        return f"kernel flag {fields.get('kernel')} for permutation {perm}"
    return free_part_error(w_free, n, chords)


def kernel_error(fields: dict[str, str], perm: str, n: int,
                 chords: frozenset[str]) -> str | None:
    member = perm == "()"
    if fields.get("kernel") != str(member).lower():
        return f"kernel={fields.get('kernel')} for permutation {perm}"
    if not member and fields.get("perm") != perm:
        return f"permutation {fields.get('perm')}, expected {perm}"
    if "fpart" not in fields:
        return "no free part in output"
    return free_part_error(fields["fpart"], n, chords)


def verify_error(out: str) -> tuple[str | None, int]:
    """Why a verify transcript is not all PASS, and the checks it reports."""
    checks = 0
    reports = 0
    for line in out.splitlines():
        m = REPORT_RE.match(line)
        if m is None:
            return f"unexpected verify line {line!r}", checks
        if m.group(1) != "PASS":
            return f"failing report: {line}", checks
        reports += 1
        checks += int(m.group(2))
    if not reports:
        return "verify printed no report", 0
    return None, checks
