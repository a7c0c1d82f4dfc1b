"""Value semantics of the package's immutable records.

Each record compares equal to one of its own class with equal fields and
to nothing else, hashes as the tuple of its fields (so the order of a set
of records, and every output that walks one, is fixed by the fields),
prints as ``Name(field=value, ...)`` and refuses assignment and deletion.
Its constructor takes its fields by position or keyword, with defaults.
"""

import copy
import pickle
import sys

import pytest

from model_reference import model
from jordanquiver.classify import (
    AmbientGeometry, BensonCheck, CarlsonTypes, CohomologyClassDescriptor, OddPullback,
    TypePattern, Verdict, VerdictKind,
)
from jordanquiver.components import SolveResult, SplitProfile, TubeProfile
from jordanquiver.jtypes import JordanType
from jordanquiver.quiver import (
    AdmissibilityReport, FunctionReport, MinimalAdditiveFunction, Quiver, QuiverWindow,
    ValuedGraph, VertexFunction, tube_window,
)
from jordanquiver.trees import TreeClass

JT = JordanType(3, (1, 0, 2))
PATTERN = TypePattern(JordanType(3, (1, 1, 0)), 2)
GRAPH = ValuedGraph((0, 1), {(0, 1): 2, (1, 0): 2})
AMBIENT = ("pi_dim", "equidim", "variety_dim", "ambient_dim", "min_component_dim", "srk",
           "srk_quotient", "is_finite_group", "trigonalizable")

# (class, constructor keywords in parameter order, stored fields in order, repr)
VALUES = [
    (JordanType, {"p": 3, "mult": [1, 0, 2]}, {"p": 3, "mult": (1, 0, 2)},
     "JordanType(p=3, mult=(1, 0, 2))"),
    (TreeClass, {"name": "D5_tilde"}, {"name": "D5_tilde"}, "TreeClass(name='D5_tilde')"),
    (TubeProfile, {"p": 3, "slopes": [1, 0, 4], "intercepts": [0, 1, 5], "include_p": False},
     {"p": 3, "slopes": (1, 0, 0), "intercepts": (0, 1, 0), "include_p": False},
     "TubeProfile(p=3, slopes=(1, 0, 0), intercepts=(0, 1, 0), include_p=False)"),
    (SolveResult, {"multiplicities": (1, 0), "locally_split": False, "note": "n"},
     {"multiplicities": (1, 0), "locally_split": False, "note": "n"},
     "SolveResult(multiplicities=(1, 0), locally_split=False, note='n')"),
    (SplitProfile, {"p": 3, "d": [1, 2], "tree_class": TreeClass("A12_tilde")},
     {"p": 3, "d": (1, 2), "tree_class": TreeClass("A12_tilde"), "d_stable": 5},
     "SplitProfile(p=3, d=(1, 2), tree_class=TreeClass(name='A12_tilde'), d_stable=5)"),
    (Quiver, {"vertices": ["a"], "arrows": []},
     {"vertices": frozenset({"a"}), "arrows": frozenset()},
     "Quiver(vertices=frozenset({'a'}), arrows=frozenset())"),
    (AdmissibilityReport, {"admissible": False, "violation": ((0, 1), (1, 1)), "tested": 4},
     {"admissible": False, "violation": ((0, 1), (1, 1)), "tested": 4},
     "AdmissibilityReport(admissible=False, violation=((0, 1), (1, 1)), tested=4)"),
    (FunctionReport, {"is_subadditive": True, "is_additive": False, "is_tau_invariant": None,
                      "eventual_level": 2, "note": ""},
     {"is_subadditive": True, "is_additive": False, "is_tau_invariant": None,
      "eventual_level": 2, "note": ""},
     "FunctionReport(is_subadditive=True, is_additive=False, is_tau_invariant=None, "
     "eventual_level=2, note='')"),
    (AmbientGeometry, {"pi_dim": 1, "equidim": True, "variety_dim": None, "ambient_dim": 4,
                       "min_component_dim": None, "srk": 2, "srk_quotient": None,
                       "is_finite_group": False, "trigonalizable": True},
     {"pi_dim": 1, "equidim": True, "variety_dim": None, "ambient_dim": 4,
      "min_component_dim": None, "srk": 2, "srk_quotient": None, "is_finite_group": False,
      "trigonalizable": True},
     "AmbientGeometry(pi_dim=1, equidim=True, variety_dim=None, ambient_dim=4, "
     "min_component_dim=None, srk=2, srk_quotient=None, is_finite_group=False, "
     "trigonalizable=True)"),
    (CohomologyClassDescriptor, {"p": 5, "degree": 3, "nilpotent": True, "dim_total": 9,
                                 "odd_pullback": OddPullback.ALL_VANISH,
                                 "ambient": AmbientGeometry(srk=1)},
     {"p": 5, "degree": 3, "nilpotent": True, "dim_total": 9,
      "odd_pullback": OddPullback.ALL_VANISH, "ambient": AmbientGeometry(srk=1)},
     "CohomologyClassDescriptor(p=5, degree=3, nilpotent=True, dim_total=9, "
     "odd_pullback=<OddPullback.ALL_VANISH: 'all-vanish'>, ambient=AmbientGeometry("
     "pi_dim=None, equidim=False, variety_dim=None, ambient_dim=None, min_component_dim=None, "
     "srk=1, srk_quotient=None, is_finite_group=False, trigonalizable=False))"),
    (TypePattern, {"stable": JT, "projectives": None}, {"stable": JT, "projectives": None},
     "TypePattern(stable=JordanType(p=3, mult=(1, 0, 2)), projectives=None)"),
    (CarlsonTypes, {"patterns": (PATTERN,)}, {"patterns": (PATTERN,)},
     "CarlsonTypes(patterns=(TypePattern(stable=JordanType(p=3, mult=(1, 1, 0)), "
     "projectives=2),))"),
    (Verdict, {"kind": VerdictKind.INDECOMPOSABLE, "rule": "CNED1", "citation": "c"},
     {"kind": VerdictKind.INDECOMPOSABLE, "rule": "CNED1", "citation": "c"},
     "Verdict(kind=<VerdictKind.INDECOMPOSABLE: 'Indecomposable'>, rule='CNED1', citation='c')"),
    (BensonCheck, {"violation": True, "caveat": "c"}, {"violation": True, "caveat": "c"},
     "BensonCheck(violation=True, caveat='c')"),
]
# records with a dict field: equal and immutable like the rest, but unhashable
UNHASHABLE = [
    (ValuedGraph, {"nodes": (0, 1), "d": {(0, 1): 2, (1, 0): 2}},
     {"nodes": (0, 1), "d": {(0, 1): 2, (1, 0): 2}},
     "ValuedGraph(nodes=(0, 1), d={(0, 1): 2, (1, 0): 2})"),
    (MinimalAdditiveFunction, {"graph": GRAPH, "values": {0: 1, 1: 1}, "image_size": 1,
                               "interior": (0, 1)},
     {"graph": GRAPH, "values": {0: 1, 1: 1}, "image_size": 1, "interior": (0, 1)},
     "MinimalAdditiveFunction(graph=ValuedGraph("
     "nodes=(0, 1), d={(0, 1): 2, (1, 0): 2}), values={0: 1, 1: 1}, image_size=1, "
     "interior=(0, 1))"),
]


def _ids(rows):
    return [cls.__name__ for cls, *_ in rows]


@pytest.mark.parametrize("cls,kwargs,fields,text", VALUES + UNHASHABLE,
                         ids=_ids(VALUES + UNHASHABLE))
def test_a_record_is_its_fields(cls, kwargs, fields, text):
    value = cls(**kwargs)
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())
    # by position, the same record
    assert cls(*kwargs.values()) == value
    assert not cls(*kwargs.values()) != value
    assert repr(value) == text
    # another class with the same fields, or the bare fields, is not equal
    assert value != type(cls.__name__, (cls,), {})(**kwargs)
    assert value != tuple(fields.values())
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls,kwargs,fields,text", VALUES + UNHASHABLE,
                         ids=_ids(VALUES + UNHASHABLE))
def test_a_record_survives_copy_and_pickle(cls, kwargs, fields, text):
    value = cls(**kwargs)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


@pytest.mark.parametrize("cls,kwargs,fields,text", VALUES, ids=_ids(VALUES))
def test_a_record_hashes_as_the_tuple_of_its_fields(cls, kwargs, fields, text):
    value = cls(**kwargs)
    assert hash(value) == hash(tuple(fields.values()))
    assert {value, cls(**kwargs)} == {value}


@pytest.mark.parametrize("cls,kwargs,fields,text", UNHASHABLE, ids=_ids(UNHASHABLE))
def test_a_record_with_a_dict_field_is_unhashable(cls, kwargs, fields, text):
    with pytest.raises(TypeError, match="unhashable"):
        hash(cls(**kwargs))


def test_a_field_that_differs_makes_records_differ():
    assert JordanType(3, (1, 0, 2)) != JordanType(3, (1, 0, 1))
    assert JordanType(3, (1, 0, 0)) != JordanType(4, (1, 0, 0, 0))
    assert BensonCheck(False) != BensonCheck(False, "c")
    assert TreeClass("A_inf") != TreeClass("D_inf")


def test_constructors_keep_their_defaults():
    assert TubeProfile(3, (1, 0, 0), (0, 1, 0)).include_p is False
    assert SolveResult((1, 0), False).note == ""
    assert SplitProfile(3, (1, 2)).tree_class is None
    assert FunctionReport(None, None, None, None).note == ""
    assert BensonCheck(violation=False).caveat is None
    assert [getattr(AmbientGeometry(), name) for name in AMBIENT] == [
        None, False, None, None, None, None, None, False, False]
    desc = CohomologyClassDescriptor(5, 2)
    assert (desc.nilpotent, desc.dim_total, desc.odd_pullback, desc.ambient) == (
        False, None, OddPullback.MIXED, AmbientGeometry())


# Python 3.10.0 to 3.10.6 write an int of any length, and have no getter
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="str() writes an int of any length")
def test_a_field_too_long_to_write_prints_as_a_note_that_names_it():
    # repr raised ValueError here; every field that can be written is as before
    jt = JordanType(2, (10**DIGIT_LIMIT, 0))
    note = f"<mult: an int of more than {DIGIT_LIMIT} digits>"
    assert repr(jt) == f"JordanType(p=2, mult={note})"
    assert repr(TypePattern(jt, 1)) == (
        f"TypePattern(stable=JordanType(p=2, mult={note}), projectives=1)")
    assert repr(JordanType(2, (10**DIGIT_LIMIT - 1, 0))).startswith("JordanType(p=2, mult=(999")


def test_a_model_is_a_record_that_prints_its_size():
    built = model(3, 2, [(0, 1, 1)])
    fields = {"p": 3, "dim": 2, "columns": ((1, ((0, 1),)),), "rank_sequence": (2, 1, 0, 0)}
    assert tuple(getattr(built, name) for name in fields) == tuple(fields.values())
    # entries are reduced mod p, so a model equals every model of the same matrix
    assert built == model(3, 2, [[0, 1, 4]])
    assert built != model(3, 2, [])
    assert hash(built) == hash(tuple(fields.values()))
    assert repr(built) == "NilpotentModel(p=3, dim=2)"
    assert pickle.loads(pickle.dumps(built)) == copy.deepcopy(built) == built
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(built, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(built, name)


def test_a_window_and_a_vertex_function_are_equal_only_to_themselves():
    # mutable objects, compared and hashed by identity
    window = tube_window(2, 3)
    fields = {name: getattr(window, name)
              for name in ("vertices", "arrows", "tau", "interior", "succ_complete")}
    other = QuiverWindow(**fields, rank=2)
    assert (other.rank, other.tree) == (2, None)
    assert QuiverWindow(**fields).rank is None
    assert other != window and other == other
    assert len({window, other}) == 2
    f = VertexFunction(window=window, values=dict.fromkeys(window.vertices, 1))
    assert f != VertexFunction(window, dict.fromkeys(window.vertices, 1)) and f == f
    assert len({f, VertexFunction.constant(window, 1)}) == 2
