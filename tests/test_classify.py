import itertools
import re

import pytest

from jordanquiver.classify import (
    AmbientGeometry,
    CohomologyClassDescriptor,
    OddPullback,
    Sl2Family,
    VerdictKind,
    benson_constraint,
    carlson_indecomposability,
    carlson_type_set,
    endo_trivial,
    sl2_family_types,
)
from jordanquiver.errors import ValidationError
from jordanquiver.jtypes import JordanType


def jt(p, text):
    return JordanType.from_string(p, text)


# ------------------------------------------------------------------ type sets


def test_even_nilpotent_singleton():
    desc = CohomologyClassDescriptor(p=5, degree=4, nilpotent=True, dim_total=15)
    types = carlson_type_set(desc)
    assert types.types == {jt(5, "2[5]+[4]+[1]")}
    assert str(types) == "{2[5]+[4]+[1]}"


def test_even_non_nilpotent_pair():
    desc = CohomologyClassDescriptor(p=3, degree=2, dim_total=6)
    types = carlson_type_set(desc)
    assert types.types == {jt(3, "2[3]"), jt(3, "[3]+[2]+[1]")}
    # exactly two members, one all projective
    assert len(types.patterns) == 2
    assert any(pat.stable.is_zero() for pat in types.patterns)


def test_even_non_nilpotent_symbolic_counts():
    desc = CohomologyClassDescriptor(p=5, degree=2)
    types = carlson_type_set(desc)
    assert [str(pat) for pat in types.patterns] == ["n[5]", "n[5]+[4]+[1]"]
    with pytest.raises(ValidationError):
        types.types  # symbolic counts cannot resolve


def test_odd_degree_pair_and_singletons():
    desc = CohomologyClassDescriptor(p=5, degree=3, dim_total=13)
    types = carlson_type_set(desc)
    assert types.types == {jt(5, "[5]+2[4]"), jt(5, "2[5]+[3]")}
    only_vanish = CohomologyClassDescriptor(
        p=5, degree=3, dim_total=13, odd_pullback=OddPullback.ALL_VANISH
    )
    assert carlson_type_set(only_vanish).types == {jt(5, "[5]+2[4]")}
    none_vanish = CohomologyClassDescriptor(
        p=5, degree=3, dim_total=13, odd_pullback=OddPullback.NONE_VANISH
    )
    assert carlson_type_set(none_vanish).types == {jt(5, "2[5]+[3]")}


def test_type_set_members_share_dimension():
    for desc in [
        CohomologyClassDescriptor(p=5, degree=2, dim_total=20),
        CohomologyClassDescriptor(p=5, degree=4, nilpotent=True, dim_total=20),
        CohomologyClassDescriptor(p=7, degree=3, dim_total=12),
    ]:
        dims = {t.dimension() for t in carlson_type_set(desc).types}
        assert dims == {desc.dim_total}


def test_type_set_divisibility_errors():
    with pytest.raises(ValidationError):
        carlson_type_set(CohomologyClassDescriptor(p=5, degree=2, dim_total=7))
    with pytest.raises(ValidationError):
        carlson_type_set(
            CohomologyClassDescriptor(p=5, degree=4, nilpotent=True, dim_total=14)
        )
    with pytest.raises(ValidationError):
        carlson_type_set(CohomologyClassDescriptor(p=5, degree=3, dim_total=14))


# ------------------------------------------------------------------ verdicts


def test_rule_table_examples():
    assert (
        carlson_indecomposability(
            CohomologyClassDescriptor(p=5, degree=4, nilpotent=True)
        ).rule
        == "CNED1"
    )
    assert (
        carlson_indecomposability(CohomologyClassDescriptor(p=5, degree=3)).rule
        == "COD1.2"
    )
    srk2 = CohomologyClassDescriptor(
        p=5, degree=3, odd_pullback=OddPullback.ALL_VANISH,
        ambient=AmbientGeometry(srk=2),
    )
    assert carlson_indecomposability(srk2).rule == "COD3"
    finite = CohomologyClassDescriptor(
        p=5, degree=5, odd_pullback=OddPullback.ALL_VANISH,
        ambient=AmbientGeometry(srk=1, is_finite_group=True),
    )
    assert carlson_indecomposability(finite).rule == "COD5"
    # nullcone of a rank-r simple algebra: n = dim g - r >= (dim g + 3)/2
    dim_g, rank = 8, 2
    cnn = CohomologyClassDescriptor(
        p=5, degree=2,
        ambient=AmbientGeometry(equidim=True, variety_dim=dim_g - rank, ambient_dim=dim_g),
    )
    assert 2 * (dim_g - rank) >= dim_g + 3
    assert carlson_indecomposability(cnn).rule == "CNN1"
    unknown = CohomologyClassDescriptor(
        p=5, degree=3, odd_pullback=OddPullback.ALL_VANISH,
        ambient=AmbientGeometry(srk=1),
    )
    assert carlson_indecomposability(unknown).kind is VerdictKind.UNKNOWN


# (degree, nilpotent, odd pullback, srk, srk of the quotient, finite group,
# equidimensional, variety dim, ambient dim) over a small grid
_GRID = list(itertools.product(
    [2, 3],
    [False, True],
    list(OddPullback),
    [None, 1, 2],
    [None, 2],
    [False, True],
    [False, True],
    [None, 4, 6],
    [None, 8],
))


def grid_descriptor(degree, nilpotent, odd_pb, srk, srk_q, finite, equid, nv, mv):
    """The descriptor at a point of ``_GRID``; an odd class is never nilpotent."""
    return CohomologyClassDescriptor(
        p=5, degree=degree, nilpotent=nilpotent and not degree % 2, odd_pullback=odd_pb,
        ambient=AmbientGeometry(
            srk=srk, srk_quotient=srk_q, is_finite_group=finite,
            equidim=equid, variety_dim=nv, ambient_dim=mv,
        ),
    )


def test_rule_order_and_consistency_over_grid():
    # sweep a small descriptor grid: every verdict carries exactly one rule,
    # and the expected first rule fires
    for point in _GRID:
        degree, nilpotent, odd_pb, srk, srk_q, finite, equid, nv, mv = point
        verdict = carlson_indecomposability(grid_descriptor(*point))
        assert verdict.kind in (VerdictKind.INDECOMPOSABLE, VerdictKind.UNKNOWN)
        if verdict.kind is VerdictKind.INDECOMPOSABLE:
            assert verdict.rule in {"CNED1", "COD1.2", "COD3", "COD5", "CNN1"}
        else:
            assert verdict.rule is None
        if degree % 2 == 0 and nilpotent:
            assert verdict.rule == "CNED1"
        elif degree % 2 and odd_pb is OddPullback.MIXED:
            assert verdict.rule == "COD1.2"
        elif degree % 2:
            effective = srk_q if srk_q is not None else srk
            if effective is not None and effective >= 2:
                assert verdict.rule == "COD3"
            elif finite:
                assert verdict.rule == "COD5"
            else:
                assert verdict.kind is VerdictKind.UNKNOWN
        else:
            fires = (
                mv is not None
                and (
                    (equid and nv is not None and 2 * nv >= mv + 3)
                    or False
                )
            )
            assert (verdict.rule == "CNN1") == fires


def test_every_verdict_kind_is_returned_by_some_rule():
    # a kind that no descriptor reaches is surface no caller can see
    kinds = {carlson_indecomposability(grid_descriptor(*point)).kind for point in _GRID}
    assert kinds == set(VerdictKind)


def test_srk_quotient_takes_precedence():
    desc = CohomologyClassDescriptor(
        p=5, degree=3, odd_pullback=OddPullback.ALL_VANISH,
        ambient=AmbientGeometry(srk=1, srk_quotient=2),
    )
    verdict = carlson_indecomposability(desc)
    assert verdict.rule == "COD3" and "quotient" in verdict.citation


def test_min_component_dim_alternative():
    desc = CohomologyClassDescriptor(
        p=5, degree=2,
        ambient=AmbientGeometry(equidim=False, min_component_dim=6, ambient_dim=8),
    )
    assert carlson_indecomposability(desc).rule == "CNN1"


@pytest.mark.parametrize(
    "field", ["pi_dim", "variety_dim", "ambient_dim", "min_component_dim", "srk", "srk_quotient"]
)
def test_ambient_numbers_must_be_nonnegative(field):
    with pytest.raises(ValidationError, match=f"ambient.{field} must be >= 0, got -1"):
        AmbientGeometry(**{field: -1})
    assert getattr(AmbientGeometry(**{field: 0}), field) == 0


@pytest.mark.parametrize("kwargs,bad", [
    ({"srk": "1"}, "ambient.srk must be an int, got '1'"),
    ({"srk_quotient": True}, "ambient.srk_quotient must be an int, got True"),
    ({"variety_dim": 2.0}, "ambient.variety_dim must be an int, got 2.0"),
    ({"equidim": "no"}, "ambient.equidim must be a bool, got 'no'"),
    ({"trigonalizable": 1}, "ambient.trigonalizable must be a bool, got 1"),
    ({"is_finite_group": None}, "ambient.is_finite_group must be a bool, got None"),
])
def test_ambient_fields_are_type_checked_before_compared(kwargs, bad):
    # "1" < 0 used to raise TypeError, and a non-bool flag was kept as given
    with pytest.raises(ValidationError, match=re.escape(bad)):
        AmbientGeometry(**kwargs)
    assert AmbientGeometry(srk=None, equidim=True).equidim is True


def test_rule_engine_rejects_p2():
    with pytest.raises(ValidationError):
        CohomologyClassDescriptor(p=2, degree=3)


@pytest.mark.parametrize("value", ["5", 5.0, True])
def test_descriptor_p_is_type_checked_before_compared(value):
    with pytest.raises(ValidationError, match=f"^p must be an int, got {value!r}"):
        CohomologyClassDescriptor(p=value, degree=2)


@pytest.mark.parametrize("value", ["2", 2.0, None])
def test_descriptor_degree_must_be_an_int(value):
    with pytest.raises(ValidationError, match=f"^degree must be an int, got {value!r}"):
        CohomologyClassDescriptor(p=5, degree=value)


@pytest.mark.parametrize("value", ["3", 3.0, False])
def test_descriptor_dim_total_must_be_an_int(value):
    with pytest.raises(ValidationError, match=f"^dim_total must be an int, got {value!r}"):
        CohomologyClassDescriptor(p=5, degree=2, dim_total=value)


@pytest.mark.parametrize("kwargs,bad", [
    # a truthy "no" would give the nilpotent type set and verdict CNED1
    ({"nilpotent": "no"}, "nilpotent must be a bool, got 'no'"),
    ({"nilpotent": 1}, "nilpotent must be a bool, got 1"),
    ({"nilpotent": None}, "nilpotent must be a bool, got None"),
    # a str would read as mixed to carlson_type_set and as constant to
    # carlson_indecomposability
    ({"degree": 3, "odd_pullback": "all-vanish"},
     "odd_pullback must be an OddPullback, got 'all-vanish'"),
    ({"degree": 3, "odd_pullback": None}, "odd_pullback must be an OddPullback, got None"),
    # a dict has none of the fields the rules read
    ({"ambient": {"srk": 3}}, "ambient must be an AmbientGeometry, got {'srk': 3}"),
    ({"ambient": None}, "ambient must be an AmbientGeometry, got None"),
])
def test_descriptor_flags_and_parts_are_type_checked(kwargs, bad):
    with pytest.raises(ValidationError, match=f"^{re.escape(bad)}$"):
        CohomologyClassDescriptor(**{"p": 5, "degree": 2, **kwargs})


# --------------------------------------------------------------- endo-trivial


def test_endo_trivial_examples():
    assert endo_trivial([jt(5, "[1]+3[5]")])
    assert not endo_trivial([jt(5, "[2]+2[5]")])
    assert endo_trivial([jt(5, "[4]"), jt(5, "[4]+7[5]")])
    assert not endo_trivial([jt(5, "[1]"), jt(5, "[4]")])
    assert not endo_trivial([jt(5, "2[1]")])
    with pytest.raises(ValidationError):
        endo_trivial([])


def test_endo_trivial_invariant_under_projective_padding():
    base = [jt(7, "[6]+[7]"), jt(7, "[6]")]
    padded = [t + JordanType.block(7, 7, 3) for t in base]
    assert endo_trivial(base) == endo_trivial(padded) is True


def test_syzygies_of_small_simples_are_endo_trivial():
    # duals/syzygies swap [1] and [p-1]; both qualify
    p = 5
    first = jt(p, "[1]")
    assert endo_trivial([first, first.syzygy()]) is False  # {[1],[4]} not constant
    assert endo_trivial([first.syzygy()])
    assert endo_trivial([first])


# ------------------------------------------------------------------- benson


def test_benson_constraint():
    check = benson_constraint(jt(7, "[3]+2[7]"), True)
    assert check.violation and "impossible" in check.caveat
    ok = benson_constraint(jt(7, "[1]"), True)
    assert not ok.violation and ok.caveat is None
    soft = benson_constraint(jt(7, "[2]"), False)
    assert not soft.violation and "sl(2)" in soft.caveat
    with pytest.raises(ValidationError):
        benson_constraint(jt(7, "2[2]"), True)
    with pytest.raises(ValidationError):
        benson_constraint(jt(7, "[1]+[2]"), True)


# ------------------------------------------------------------------ sl2 sets


def test_sl2_family_tube_case():
    got = sl2_family_types(Sl2Family.SL2_1, p=5, pi_dim=0, block_index=2, ql=3)
    assert got == {jt(5, "3[5]"), jt(5, "2[5]+[3]+[2]")}


def test_sl2_family_constant_case():
    got = sl2_family_types(Sl2Family.SL2_1, p=5, pi_dim=1, block_index=4, module_dim=9)
    assert got == {jt(5, "[5]+[4]")}


def test_sl2_tr_family_tube_case():
    got = sl2_family_types(
        Sl2Family.SL2_1_TR, p=5, pi_dim=0, block_index=2, module_dim=10
    )
    assert got == {jt(5, "2[5]"), jt(5, "[5]+[3]+[2]")}


def test_sl2_family_all_blocks_p5():
    for i in (1, 2):
        for ql in (1, 2, 5):
            got = sl2_family_types(Sl2Family.SL2_1, p=5, pi_dim=0, block_index=i, ql=ql)
            assert jt(5, f"{ql}[5]") in got
            assert len(got) == 2
            dims = {t.dimension() for t in got}
            assert dims == {5 * ql}


def test_sl2_family_p_is_type_checked_before_compared():
    with pytest.raises(ValidationError, match="^p must be an int, got '5'"):
        sl2_family_types(Sl2Family.SL2_1, p="5", pi_dim=0, block_index=1, ql=2)


def test_sl2_family_validation():
    with pytest.raises(ValidationError):
        sl2_family_types(Sl2Family.SL2_1, p=5, pi_dim=0, block_index=3, ql=2)
    with pytest.raises(ValidationError):
        sl2_family_types(Sl2Family.SL2_1, p=5, pi_dim=0, block_index=1)
    with pytest.raises(ValidationError):
        sl2_family_types(Sl2Family.SL2_1_TR, p=5, pi_dim=0, block_index=1, module_dim=7)
    # the constant type [4] + n[5] has 10 - 4 = 6 dimensions past [4]: no multiple of 5
    with pytest.raises(ValidationError, match="^total dimension 10 is inconsistent with "
                       "stable part of dimension 4 mod 5$"):
        sl2_family_types(Sl2Family.SL2_1, p=5, pi_dim=1, block_index=4, module_dim=10)
