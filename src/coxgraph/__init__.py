"""Exact computation in edge-generated Coxeter quotients of symmetric groups.

The package turns a simple connected graph into a computable group: edge
words get exact normal forms in a semidirect product of the symmetric group
with a product of free groups, which solves the word problem, tests kernel
membership, and yields structural reports.

The top level exports the library API the README documents; everything else
is imported from its module (``coxgraph.freeprod``, ``coxgraph.oracle``, ...).
"""

from .embedding import (
    Verdict,
    VerdictKind,
    build_context,
    equal,
    in_kernel,
    is_trivial,
    parse_word,
    phi,
    psi_gen,
    psi_perm,
    structure_report,
)
from .graphs import GraphError, UnknownLabelError, parse_graph

__all__ = [
    "GraphError", "UnknownLabelError", "Verdict", "VerdictKind", "build_context",
    "equal", "in_kernel", "is_trivial", "parse_graph", "parse_word", "phi",
    "psi_gen", "psi_perm", "structure_report",
]
