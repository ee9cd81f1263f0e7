"""Value semantics of the package's record types: equality and hashing by
class and fields, the ``Name(field=value, ...)`` repr, immutability, copies,
the constructor defaults and the constructor checks."""

import copy
import pickle
import re

import pytest

from coxgraph.embedding import (
    Classification,
    StructureReport,
    Verdict,
    VerdictKind,
)
from coxgraph.freeprod import FStarElement, ReducedWord, SemidirectElement
from coxgraph.graphs import BasicCycle, Edge, Graph, SpanningTreeData
from coxgraph.oracle import OracleReport
from coxgraph.perms import Permutation
from coxgraph.presentation import AGenerator, TsaranovReport

W = ReducedWord((("x", 1), ("y", -1)))
F = FStarElement((W, ReducedWord()))

# (class, fields in declaration order, the exact repr)
CASES = [
    (ReducedWord, {"letters": (("x", 1), ("y", -1))},
     "ReducedWord(letters=(('x', 1), ('y', -1)))"),
    (FStarElement, {"components": (W, ReducedWord())},
     "FStarElement(components=(ReducedWord(letters=(('x', 1), ('y', -1))), "
     "ReducedWord(letters=())))"),
    (SemidirectElement, {"perm": Permutation([2, 1]), "f": F},
     "SemidirectElement(perm=Permutation([2, 1]), f=FStarElement(components=("
     "ReducedWord(letters=(('x', 1), ('y', -1))), ReducedWord(letters=()))))"),
    (Edge, {"label": "a", "a": 1, "b": 2}, "Edge(label='a', a=1, b=2)"),
    (SpanningTreeData,
     {"tree_edges": frozenset({"a"}), "parent": {2: (1, "a")}, "depth": {1: 0, 2: 1}},
     "SpanningTreeData(tree_edges=frozenset({'a'}), parent={2: (1, 'a')}, "
     "depth={1: 0, 2: 1})"),
    (BasicCycle, {"chord": "x", "local_to_global": (1, 2, 3), "cycle_edges": ("a", "b")},
     "BasicCycle(chord='x', local_to_global=(1, 2, 3), cycle_edges=('a', 'b'))"),
    (Verdict, {"kind": VerdictKind.NONTRIVIAL,
               "witness": SemidirectElement(Permutation([1]), FStarElement((W,)))},
     "Verdict(kind=<VerdictKind.NONTRIVIAL: 'nontrivial'>, witness=SemidirectElement("
     "perm=Permutation([1]), f=FStarElement(components=(ReducedWord(letters=("
     "('x', 1), ('y', -1))),))))"),
    (StructureReport,
     {"n": 4, "t": 3, "classification": Classification.CONTAINS_FREE_SUBGROUP,
      "kernel_ab_rank": 9, "is_k4": True, "torsion_free_kernel": False,
      "residually_finite": False, "word_problem_exact": False},
     "StructureReport(n=4, t=3, classification=<Classification.CONTAINS_FREE_SUBGROUP: "
     "'free_subgroup'>, kernel_ab_rank=9, is_k4=True, torsion_free_kernel=False, "
     "residually_finite=False, word_problem_exact=False)"),
    (AGenerator, {"chord": "x", "i": 1, "j": 4}, "AGenerator(chord='x', i=1, j=4)"),
    (TsaranovReport,
     {"graph": Graph(2, [("a", 1, 2)]), "n": 2, "t": 0, "extra_relators": "none"},
     "TsaranovReport(graph=Graph(n=2, edges=1), n=2, t=0, extra_relators='none')"),
    (OracleReport, {"name": "relators", "checks_run": 2,
                    "failures": [("id", "a b", "identity", "x")]},
     "OracleReport(name='relators', checks_run=2, failures=[('id', 'a b', "
     "'identity', 'x')])"),
]
UNHASHABLE = {SpanningTreeData, TsaranovReport, OracleReport}
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equality_by_class_and_fields(cls, fields, text):
    x = cls(**fields)
    assert x == cls(*fields.values())
    assert not x != cls(**fields)
    assert x != tuple(fields.values())
    sub = type("Sub", (cls,), {"__slots__": ()})
    assert x != sub(**fields)
    for name in fields:
        other = object.__new__(cls)  # fields set past the constructor's checks
        for key, value in fields.items():
            object.__setattr__(other, key, object() if key == name else value)
        assert x != other


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(cls, fields, text):
    x = cls(**fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, text):
    x = cls(**fields)
    for name, value in fields.items():
        assert getattr(x, name) is value
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, text):
    x = cls(**fields)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x


def test_defaults():
    assert ReducedWord() == ReducedWord(()) and ReducedWord().letters == ()
    v = Verdict(VerdictKind.TRIVIAL)
    assert v.witness is None and v == Verdict(VerdictKind.TRIVIAL, None)


def test_unequal_across_classes_with_equal_fields():
    assert Edge("x", 1, 4) != AGenerator("x", 1, 4)


@pytest.mark.parametrize("letters, message", [
    ((("x", 1), ("x", -1)), "not freely reduced at x^1 x^-1"),
    ((("x", -1), ("y", 1), ("y", -1)), "not freely reduced at y^1 y^-1"),
    ((("x", 2),), "exponent must be +-1, got x^2"),
    ((("x", 1), ("y", 0)), "exponent must be +-1, got y^0"),
])
def test_reduced_word_rejects(letters, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ReducedWord(letters)


def test_semidirect_element_rejects_size_mismatch():
    with pytest.raises(ValueError, match=r"^size mismatch: 2 vs 3$"):
        SemidirectElement(Permutation.identity(2), FStarElement.identity(3))
