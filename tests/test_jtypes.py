import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanquiver.errors import ParseError, ValidationError
from jordanquiver.jtypes import (
    DominanceConvention,
    DominanceResult,
    JordanType,
    _dominance_key,
    dominance_compare,
    restrict,
    restrict_type,
)
from dense_reference import dense, rank_mod_p
from jordanquiver.oracle import jordan_type_of, model_from_type, power_model

PRIMES = [2, 3, 5, 7, 11, 13]


def jordan_types(p=None, max_mult=4):
    ps = st.just(p) if p is not None else st.sampled_from(PRIMES)
    return ps.flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(st.integers(0, max_mult), min_size=q, max_size=q),
        )
    ).map(lambda t: JordanType(t[0], tuple(t[1])))


# ------------------------------------------------------------ basic queries


def test_dimension_examples():
    assert JordanType.from_string(5, "[1]+[4]").dimension() == 5
    assert JordanType.from_string(5, "2[3]+[5]").dimension() == 11
    assert JordanType.zero(3).dimension() == 0


def test_ker_dim_examples():
    assert JordanType.from_string(3, "[3]").ker_dim(2) == 2
    # oracle: dim - rank(N^m) on the 7x7 block-diagonal nilpotent matrix
    jt = JordanType.from_string(3, "2[2]+[3]")
    model = model_from_type(jt)
    n1 = power_model(model, 1)
    assert jt.ker_dim(1) == model.dim - rank_mod_p(dense(n1), 3) == 3
    for p in (3, 5):
        for jt in [JordanType.from_string(p, "[1]"), JordanType.from_string(p, f"2[{p}]+[2]")]:
            assert jt.ker_dim(p) == jt.dimension()


def test_image_dim_examples():
    jt = JordanType.from_string(3, "[3]+[1]")
    model = model_from_type(jt)
    assert jt.image_dim(1) == rank_mod_p(dense(model), 3) == 2
    assert JordanType.from_string(5, "3[5]").image_dim(2) == rank_mod_p(
        dense(power_model(model_from_type(JordanType.from_string(5, "3[5]")), 2)), 5
    ) == 9
    assert JordanType.from_string(7, "2[4]").image_dim(7) == 0
    assert JordanType.from_string(7, "2[4]").image_dim(0) == 8


def test_psi_examples():
    jt = JordanType.from_string(5, "[1]+[4]+3[5]")
    assert jt.psi(4) == jt.ker_dim(4) - 4 * jt.multiplicity(5) == 5
    stable = JordanType.from_string(5, "[1]+[4]")
    assert stable.psi(4) == stable.stable_part().dimension() == 5
    proj = JordanType.from_string(5, "4[5]")
    for m in range(1, 5):
        assert proj.psi(m) == 0


def test_stable_part_and_syzygy():
    jt = JordanType.from_string(5, "[1]+[4]+7[5]")
    assert str(jt.stable_part()) == "[4]+[1]"
    assert jt.stable_part().stable_part() == jt.stable_part()
    assert JordanType.from_string(5, "3[5]").stable_part().is_zero()
    assert str(JordanType.from_string(5, "[2]").syzygy()) == "[3]"
    assert JordanType.from_string(3, "[3]").syzygy().is_zero()


@given(jordan_types())
def test_syzygy_squared_is_stable_part(jt):
    assert jt.syzygy().syzygy() == jt.stable_part()


@given(jordan_types(), st.integers(1, 13))
def test_ker_plus_image_is_dimension(jt, m):
    m = min(m, jt.p)
    assert jt.ker_dim(m) + jt.image_dim(m) == jt.dimension()


@given(jordan_types())
def test_psi_identities(jt):
    assert jt.psi(jt.p - 1) == jt.stable_part().dimension()
    for m in range(1, jt.p):
        assert jt.ker_dim(m) == jt.psi(m) + m * jt.multiplicity(jt.p)


@settings(max_examples=60)
@given(jordan_types(max_mult=3))
def test_ker_dim_matches_matrix_oracle(jt):
    model = model_from_type(jt)
    for m in range(1, jt.p + 1):
        assert jt.ker_dim(m) == model.dim - model.rank_sequence[m]


# ---------------------------------------------------------------- restrict


def test_restrict_closed_form_cases():
    assert str(restrict(5, 2, 5)) == "[3]+[2]"
    assert str(restrict(3, 5, 7)) == "3[1]"
    # oracle: square of a 4x4 Jordan block
    model = power_model(model_from_type(JordanType.block(5, 4)), 2)
    assert restrict(4, 2, 5).with_modulus(5) == jordan_type_of(model).with_modulus(5)
    assert str(restrict(4, 2, 5)) == "2[2]"


def test_restrict_effective_modulus():
    assert restrict(5, 2, 5).p == 3  # ceil(5/2)
    assert restrict(7, 3, 7).p == 3
    assert restrict(4, 1, 5).p == 5


@given(st.sampled_from(PRIMES), st.data())
def test_restrict_identity_at_power_one(p, data):
    i = data.draw(st.integers(1, p))
    assert restrict(i, 1, p) == JordanType.block(p, i)


@given(st.sampled_from(PRIMES), st.data())
def test_restrict_preserves_dimension(p, data):
    i = data.draw(st.integers(1, p))
    j = data.draw(st.integers(1, p))
    assert restrict(i, j, p).dimension() == i


@given(jordan_types(), st.data())
def test_restrict_type_additive_over_sums(jt, data):
    j = data.draw(st.integers(1, jt.p))
    other = data.draw(jordan_types(p=jt.p))
    assert restrict_type(jt + other, j) == restrict_type(jt, j) + restrict_type(other, j)
    assert restrict_type(jt, j).dimension() == jt.dimension()


@settings(max_examples=30)
@given(st.sampled_from(PRIMES), st.data())
def test_restrict_matches_matrix_oracle(p, data):
    i = data.draw(st.integers(1, p))
    j = data.draw(st.integers(1, p))
    model = power_model(model_from_type(JordanType.block(p, i)), j)
    assert jordan_type_of(model) == restrict(i, j, p).with_modulus(p)


@settings(max_examples=60)
@given(jordan_types(max_mult=3), st.data())
def test_restrict_type_matches_matrix_oracle(jt, data):
    j = data.draw(st.integers(1, jt.p))
    model = power_model(model_from_type(jt), j)
    assert restrict_type(jt, j).with_modulus(jt.p) == jordan_type_of(model)


# --------------------------------------------------------------- dominance


def partial_sum_dominates(a, b):
    """Independent classical oracle: cumulative sums of sorted parts."""
    pa, pb = list(a.blocks()), list(b.blocks())
    length = max(len(pa), len(pb))
    pa += [0] * (length - len(pa))
    pb += [0] * (length - len(pb))
    ca = [sum(pa[: k + 1]) for k in range(length)]
    cb = [sum(pb[: k + 1]) for k in range(length)]
    return all(x >= y for x, y in zip(ca, cb))


def reference_dominance_key(jt, convention):
    """The partial sums for j = 1..p as first written, one O(p) sum per j."""
    if convention is DominanceConvention.IMAGE_DIM:
        return tuple(sum(max(i + 1 - j, 0) * a for i, a in enumerate(jt.mult))
                     for j in range(1, jt.p + 1))
    return tuple(sum((i + 1) * a for i, a in enumerate(jt.mult) if i + 1 >= j)
                 for j in range(1, jt.p + 1))


@given(jordan_types(max_mult=6))
def test_dominance_keys_match_reference(jt):
    for convention in DominanceConvention:
        # the one-pass key runs from j = p down to 1
        assert tuple(_dominance_key(jt, convention)[::-1]) == reference_dominance_key(jt, convention)
    assert reference_dominance_key(jt, DominanceConvention.IMAGE_DIM) == tuple(
        jt.image_dim(j) for j in range(1, jt.p + 1))


def test_large_p_invariants_cost_one_pass():
    # an O(p^2) dominance key took 2-8 s at p = 3001, and restrict_type,
    # which added one scaled JordanType per block size, 6 s at p = 10007
    ones = JordanType(3001, (1,) * 3001)
    singles = JordanType.block(3001, 1, ones.dimension())
    for convention in DominanceConvention:
        start = time.perf_counter()
        assert dominance_compare(ones, singles, convention) is DominanceResult.GREATER
        assert time.perf_counter() - start < 1, convention
    ones = JordanType(10007, (1,) * 10007)
    start = time.perf_counter()
    restricted = restrict_type(ones, 7)
    assert time.perf_counter() - start < 1
    assert restricted.p == 1430 and restricted.dimension() == ones.dimension()


def test_dominance_two_conventions_disagree():
    a = JordanType(3, (1, 0, 2))
    b = JordanType(3, (0, 2, 1))
    assert dominance_compare(a, b) is DominanceResult.GREATER
    assert (
        dominance_compare(a, b, DominanceConvention.TAIL_DIM)
        is DominanceResult.INCOMPARABLE
    )


def test_dominance_incomparable_pair():
    a = JordanType.from_string(7, "2[3]")
    b = JordanType.from_string(7, "[4]+2[1]")
    assert not partial_sum_dominates(a, b) and not partial_sum_dominates(b, a)
    assert dominance_compare(a, b) is DominanceResult.INCOMPARABLE


def test_dominance_mismatch_errors():
    with pytest.raises(ValidationError):
        dominance_compare(JordanType.block(5, 2), JordanType.block(5, 3))
    with pytest.raises(ValidationError):
        dominance_compare(JordanType.block(5, 2), JordanType.block(7, 2))


@given(jordan_types())
def test_dominance_reflexive(jt):
    assert dominance_compare(jt, jt) is DominanceResult.EQUAL
    assert dominance_compare(jt, jt, DominanceConvention.TAIL_DIM) is DominanceResult.EQUAL


def equal_dim_pairs():
    def pad(p, blocks):
        out = JordanType.zero(p)
        for i in blocks:
            out = out + JordanType.block(p, i)
        return out

    def build(args):
        p, blocks_a, blocks_b = args
        a, b = pad(p, blocks_a), pad(p, blocks_b)
        # pad the smaller with [1] blocks to equalize dimensions
        da, db = a.dimension(), b.dimension()
        if da < db:
            a = a + JordanType.block(p, 1, db - da)
        elif db < da:
            b = b + JordanType.block(p, 1, da - db)
        return a, b

    return st.tuples(
        st.sampled_from([3, 5, 7]),
        st.lists(st.integers(1, 7), max_size=5),
        st.lists(st.integers(1, 7), max_size=5),
    ).map(lambda t: build((t[0], [min(i, t[0]) for i in t[1]], [min(i, t[0]) for i in t[2]])))


@given(equal_dim_pairs())
def test_dominance_matches_partition_oracle(pair):
    a, b = pair
    result = dominance_compare(a, b)
    fwd, bwd = partial_sum_dominates(a, b), partial_sum_dominates(b, a)
    if fwd and bwd:
        assert result is DominanceResult.EQUAL
        assert a == b
    elif fwd:
        assert result is DominanceResult.GREATER
    elif bwd:
        assert result is DominanceResult.LESS
    else:
        assert result is DominanceResult.INCOMPARABLE


@given(equal_dim_pairs())
def test_dominance_antisymmetric_under_swap(pair):
    a, b = pair
    flip = {
        DominanceResult.GREATER: DominanceResult.LESS,
        DominanceResult.LESS: DominanceResult.GREATER,
        DominanceResult.EQUAL: DominanceResult.EQUAL,
        DominanceResult.INCOMPARABLE: DominanceResult.INCOMPARABLE,
    }
    for conv in DominanceConvention:
        assert dominance_compare(b, a, conv) is flip[dominance_compare(a, b, conv)]


@given(equal_dim_pairs(), st.data())
def test_dominance_transitive(pair, data):
    a, b = pair
    # build a third type of the same dimension from b by joining two blocks
    c = b
    blocks = list(b.blocks())
    for k, size in enumerate(blocks):
        partner = next(
            (l for l in range(k + 1, len(blocks)) if size + blocks[l] <= b.p), None
        )
        if partner is not None:
            rest = [s for m, s in enumerate(blocks) if m not in (k, partner)]
            c = JordanType.from_blocks(b.p, rest + [size + blocks[partner]])
            break
    for x, y, z in [(a, b, c), (c, b, a)]:
        if (
            dominance_compare(x, y) in (DominanceResult.GREATER, DominanceResult.EQUAL)
            and dominance_compare(y, z) in (DominanceResult.GREATER, DominanceResult.EQUAL)
        ):
            assert dominance_compare(x, z) in (
                DominanceResult.GREATER,
                DominanceResult.EQUAL,
            )


# ----------------------------------------------------------- parsing / JSON


def test_parse_and_format_round_trip():
    for text in ["", "[1]", "2[3]+[1]", "[5]+2[3]+[1]", "0[2]+[1]"]:
        jt = JordanType.from_string(5, text)
        assert JordanType.from_string(5, str(jt)) == jt


def test_canonical_form_is_descending_and_coalesced():
    jt = JordanType.from_string(5, "[1]+[3]+[3]")
    assert str(jt) == "2[3]+[1]"
    assert str(JordanType.zero(5)) == ""


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position"):
        JordanType.from_string(5, "2[3]+bad")
    with pytest.raises(ParseError, match="position"):
        JordanType.from_string(5, "[9]")
    with pytest.raises(ParseError):
        JordanType.from_string(5, "2[3]+")


@given(jordan_types())
def test_json_round_trip(jt):
    data = json.loads(json.dumps(jt.to_json_dict()))
    assert JordanType.from_json_dict(data) == jt


def test_validation_rejects_bad_vectors():
    with pytest.raises(ValidationError):
        JordanType(1, (1,))
    with pytest.raises(ValidationError):
        JordanType(3, (1, 2))
    with pytest.raises(ValidationError):
        JordanType(3, (1, -1, 0))


@pytest.mark.parametrize("mult,bad", [((1.5, 0, 0), "mult[0] must be an int, got 1.5"),
                                      ((0, 2.0, 1), "mult[1] must be an int, got 2.0"),
                                      ((0, 0, True), "mult[2] must be an int, got True"),
                                      ((0, "1", 0), "mult[1] must be an int, got '1'")])
def test_validation_rejects_non_int_entries(mult, bad):
    # a float is never truncated (1.5 used to print as [1])
    with pytest.raises(ValidationError, match=re.escape(bad)):
        JordanType(3, mult)


def test_direct_sum_and_scalar():
    a = JordanType.from_string(5, "[2]")
    b = JordanType.from_string(5, "[3]+[2]")
    assert str(a + b) == "[3]+2[2]"
    assert str(2 * a) == "2[2]"
    assert (0 * b).is_zero()
    with pytest.raises(ValidationError):
        a + JordanType.block(7, 2)
