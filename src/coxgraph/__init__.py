"""Exact computation in edge-generated Coxeter quotients of symmetric groups.

The package turns a simple connected graph into a computable group: edge
words get exact normal forms in a semidirect product of the symmetric group
with a product of free groups, which solves the word problem, tests kernel
membership, and yields structural reports.
"""

from .embedding import (
    Classification,
    Context,
    StructureReport,
    Verdict,
    VerdictKind,
    build_context,
    equal,
    gamma,
    in_kernel,
    is_trivial,
    parse_word,
    phi,
    psi_gen,
    psi_perm,
    structure_report,
    tilde,
)
from .freeprod import (
    AbVector,
    FStarElement,
    ReducedWord,
    SemidirectElement,
    ab,
    fstar_inv,
    fstar_mul,
    in_ftn,
    reduce,
    sd_inv,
    sd_mul,
    sn_act_f,
)
from .graphs import (
    BasicCycle,
    DisconnectedError,
    Graph,
    GraphError,
    GraphParseError,
    SpanningTreeData,
    UnknownLabelError,
    basic_cycles,
    connected_components,
    dual_graph,
    has_forbidden_fork,
    parse_graph,
    spanning_tree,
    tree_path_labels,
)
from .perms import Permutation, compose, perm_of_word
from .presentation import (
    AGenerator,
    ParameterError,
    RelatorSet,
    act_a,
    mu,
    relators,
    tsaranov_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
