import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_reference import build_cartan_pair
from jordanquiver.components import (
    NegativeMultiplicityError,
    ObstructionStatus,
    SplitProfile,
    TubeProfile,
    central_profile,
    dominance_on_component,
    jordan_type_count,
    obstruction_check,
    profile_from_json,
    profile_rows,
    seed_to_split_profile,
    solve_multiplicities,
    split_propagate,
    support_indices,
    top_multiplicity,
    tube_central,
    tube_forward,
    tube_profile_from_seed,
)
from jordanquiver.errors import ParseError, ValidationError
from jordanquiver.jtypes import DominanceResult, JordanType, dominance_compare
from dense_reference import dense, rank_mod_p
from jordanquiver.oracle import model_from_type, power_model


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------- Cartan pair


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101])
def test_cartan_pair_inverse_identity(p):
    cp = build_cartan_pair(p)
    ident = [[int(i == j) for j in range(p)] for i in range(p)]
    assert matmul(cp.a, cp.b) == ident
    assert matmul(cp.b, cp.a) == ident


def test_cartan_pair_p3_entries():
    cp = build_cartan_pair(3)
    assert cp.a == ((2, -1, 0), (-1, 2, -1), (0, -1, 1))
    assert cp.b == ((1, 1, 1), (1, 2, 2), (1, 2, 3))


def test_cartan_pair_p2_entries():
    cp = build_cartan_pair(2)
    assert cp.a == ((2, -1), (-1, 1))
    assert cp.b == ((1, 1), (1, 2))


@given(st.integers(2, 40))
def test_cartan_pair_random_sizes(p):
    cp = build_cartan_pair(p)
    # principal (p-1)x(p-1) minor of A is the Cartan matrix of A_{p-1}
    for i in range(p - 1):
        assert cp.a[i][i] == 2
    assert cp.a[p - 1][p - 1] == 1


# --------------------------------------------------------------- tube forward


HEISENBERG_SEED = JordanType(5, (2, 2, 2, 2, 1))


def test_tube_forward_heisenberg_matches_printed_formulas():
    # component of the induced Heisenberg module: alpha_1 = 2,
    # alpha_2 = 3ql - 1, alpha_i = 2ql for 3 <= i <= p-1, alpha_p = ql
    for ql in range(1, 11):
        jt = tube_forward(HEISENBERG_SEED, [1, 0, 0, 0], ql, include_p=True)
        assert jt.multiplicity(1) == 2
        assert jt.multiplicity(2) == 3 * ql - 1
        assert jt.multiplicity(3) == 2 * ql
        assert jt.multiplicity(4) == 2 * ql
        assert jt.multiplicity(5) == ql
    assert str(tube_forward(HEISENBERG_SEED, [1, 0, 0, 0], 3, include_p=True)) == (
        "3[5]+6[4]+6[3]+8[2]+2[1]"
    )


def test_tube_forward_ql_one_is_seed():
    assert tube_forward(HEISENBERG_SEED, [1, 0, 0, 0], 1, include_p=True) == HEISENBERG_SEED
    stable = HEISENBERG_SEED.stable_part()
    assert tube_forward(HEISENBERG_SEED, [1, 0, 0, 0], 1) == stable


def test_tube_forward_single_index_formula():
    # n = e_j gives alpha_i(X) = (a_i - A[i][j]) ql + A[i][j]
    p = 7
    cp = build_cartan_pair(p)
    seed = JordanType(p, (3, 2, 2, 3, 2, 2, 1))
    for j in range(1, p):
        n = [int(k == j) for k in range(1, p)]
        try:
            jt = tube_forward(seed, n, 4)
        except NegativeMultiplicityError:
            continue
        for i in range(1, p):
            aij = cp.a[i - 1][j - 1]
            assert jt.multiplicity(i) == (seed.multiplicity(i) - aij) * 4 + aij


def test_tube_forward_differences_are_affine():
    rows = [
        tube_forward(HEISENBERG_SEED, [1, 0, 0, 0], ql, include_p=True)
        for ql in range(1, 8)
    ]
    for i in range(1, 6):
        diffs = [b.multiplicity(i) - a.multiplicity(i) for a, b in zip(rows, rows[1:])]
        assert len(set(diffs)) == 1


def test_tube_forward_negative_multiplicity_is_rejected_with_witness():
    seed = JordanType(5, (1, 1, 0, 0, 0))
    with pytest.raises(NegativeMultiplicityError) as info:
        tube_forward(seed, [1, 0, 0, 0], 3)
    err = info.value
    assert err.value < 0 and err.ql >= 1 and 1 <= err.index <= 5
    # the witness really is negative under the raw affine formula
    cp = build_cartan_pair(5)
    t = [row[0] for row in cp.a]
    raw = (seed.multiplicity(err.index) - t[err.index - 1]) * err.ql + t[err.index - 1]
    assert raw == err.value


def test_tube_forward_rejects_bad_vectors():
    with pytest.raises(ValidationError):
        tube_forward(HEISENBERG_SEED, [0, 0, 0, 0], 2)
    with pytest.raises(ValidationError):
        tube_forward(HEISENBERG_SEED, [1, 0, 0], 2)
    with pytest.raises(ValidationError):
        tube_forward(HEISENBERG_SEED, [1, 0, 0, -1], 2)


@pytest.mark.parametrize(
    "build,bad",
    [
        (lambda: TubeProfile(3, (2.7, 0, 0), (0, 0, 0)), "slopes[0] must be an int, got 2.7"),
        (lambda: TubeProfile(3, (0, 0, 0), (0, 1.0, 0)), "intercepts[1] must be an int, got 1.0"),
        (lambda: TubeProfile(3.0, (0, 0, 0), (0, 0, 0)), "p must be an integer >= 2, got 3.0"),
        (lambda: SplitProfile(3, (1.0, 0), 1), "d[0] must be an int, got 1.0"),
        (lambda: SplitProfile(3, (1, 0), 1.0), "stable-dimension slope 1.0 inconsistent"),
        (lambda: SplitProfile.from_d(3, [1.9, 0]), "d[0] must be an int, got 1.9"),
        (lambda: SplitProfile.from_d(3, [0, False]), "d[1] must be an int, got False"),
        (lambda: tube_profile_from_seed(JordanType(3, (2, 2, 1)), [1.9, 0]),
         "multiplicities[0] must be an int, got 1.9"),
    ],
)
def test_profiles_reject_non_int_entries(build, bad):
    # each of these used to be truncated by int(): 2.7 -> 2, 1.9 -> 1
    with pytest.raises(ValidationError, match=re.escape(bad)):
        build()


# --------------------------------------------------------------- tube central


def test_tube_central_prime_power_seed():
    # seed m[j] with m = p^r and a single self-multiplicity:
    # alpha_j = (p^r - 2) ql + 2, alpha_{j+-1} = ql - 1
    p, r, j = 5, 2, 3
    m = p**r
    for ql in (1, 2, 4):
        jt = tube_central(j, m, 1, ql, p)
        assert jt.multiplicity(j) == (m - 2) * ql + 2
        assert jt.multiplicity(j - 1) == ql - 1
        assert jt.multiplicity(j + 1) == ql - 1
        assert all(jt.multiplicity(i) == 0 for i in (1, p))


def test_tube_central_ql_one_and_zero_slope():
    assert tube_central(2, 9, 1, 1, 5) == JordanType.from_counts(5, {2: 9})
    for ql in (1, 3, 7):
        jt = tube_central(2, 6, 3, ql, 5)
        assert jt.multiplicity(2) == 6
    with pytest.raises(ValidationError):
        tube_central(2, 5, 3, 1, 5)  # m < 2n


def test_tube_central_stable_kernel_dim_is_multiple_of_p():
    # seeds of dimension divisible by p keep psi_{p-1} divisible by p
    p = 5
    for j, m, n in [(1, 10, 2), (2, 10, 1), (4, 5, 2), (3, 15, 4)]:
        if j * m % p:
            continue
        for ql in range(1, 8):
            jt = tube_central(j, m, n, ql, p)
            assert jt.psi(p - 1) % p == 0
    # bounded case: if the stable dimension agrees at ql = 1 and 2 it is constant
    for j, m, n in [(1, 4, 2), (2, 8, 4), (4, 6, 3)]:
        prof = central_profile(j, m, n, 5)
        psi1 = prof.jordan_type_at(1).psi(4)
        psi2 = prof.jordan_type_at(2).psi(4)
        if psi1 == psi2 == 5:
            for ql in range(1, 9):
                assert prof.jordan_type_at(ql).psi(4) == 5


# ----------------------------------------------------------------- inverse


def test_solve_recovers_heisenberg_multiplicities():
    prof = tube_profile_from_seed(HEISENBERG_SEED, [1, 0, 0, 0], include_p=True)
    result = solve_multiplicities(prof)
    assert result.multiplicities == (1, 0, 0, 0)
    assert not result.locally_split


def test_solve_additive_profile_is_locally_split():
    prof = TubeProfile(5, (1, 0, 2, 0, 0), (0, 0, 0, 0, 0))
    result = solve_multiplicities(prof)
    assert result.multiplicities == (0, 0, 0, 0)
    assert result.locally_split
    assert "locally split" in result.note


@pytest.mark.parametrize("p", [5, 7])
def test_solve_sl2_pattern(p):
    for a in range(0, p - 1):
        t = [0] * p
        t[a] += 1  # e_{a+1}
        t[p - a - 2] += 1  # e_{p-a-1}
        t[p - 1] -= 1  # -e_p
        slopes = [0] * (p - 1) + [1]
        prof = TubeProfile(p, tuple(slopes), tuple(t), include_p=True)
        result = solve_multiplicities(prof)
        # independent evaluation of n = B t
        direct = [sum(min(i, l) * t[l - 1] for l in range(1, p + 1)) for i in range(1, p)]
        assert list(result.multiplicities) == direct
        assert all(x >= 0 for x in result.multiplicities)
        # closed form: the profile only sees {a+1, p-a-1} as a set, so the
        # bound is their minimum
        for i in range(1, p):
            assert result.multiplicities[i - 1] == min(i, a + 1, p - a - 1, p - i)
        if a + 1 <= p - a - 1:
            for i in range(1, p):
                assert result.multiplicities[i - 1] == min(i, a + 1, p - i)


def test_solve_rejects_unrealizable_profiles():
    # intercepts that force a negative multiplicity vector
    with pytest.raises(ValidationError):
        solve_multiplicities(TubeProfile(3, (2, 2, 0), (0, 1, 0), include_p=True))


def test_solve_warns_when_p_row_missing():
    prof = tube_profile_from_seed(HEISENBERG_SEED, [1, 0, 0, 0], include_p=False)
    result = solve_multiplicities(prof)
    assert "padded" in result.note
    assert result.multiplicities == (1, 0, 0, 0)


def test_solve_without_p_row_is_sound_but_incomplete():
    # padding t_p with 0 shifts the recovered vector by n_{p-1} * (1..p), so
    # a profile with n_{p-1} != 0 must be rejected rather than mis-solved
    seed = JordanType(5, (2, 2, 2, 3, 1))
    partial = tube_profile_from_seed(seed, [0, 0, 0, 1], include_p=False)
    with pytest.raises(ValidationError, match="omits its i=p row"):
        solve_multiplicities(partial)
    full = tube_profile_from_seed(seed, [0, 0, 0, 1], include_p=True)
    assert solve_multiplicities(full).multiplicities == (0, 0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=7, max_size=7),
    st.lists(st.integers(0, 5), min_size=6, max_size=6),
)
def test_round_trip_random_sweep_p7(mult, n):
    # random sweep over the grid with entries <= 5 at p = 7: whenever the
    # forward propagation validates, the inverse problem recovers n
    if all(x == 0 for x in n):
        return
    seed = JordanType(7, tuple(mult))
    try:
        prof = tube_profile_from_seed(seed, n, include_p=True)
    except NegativeMultiplicityError:
        return
    assert solve_multiplicities(prof).multiplicities == tuple(n)


# ------------------------------------------------------------ profile rows


def test_profile_rows_match_per_vertex_types():
    tube = profile_from_json(
        {"kind": "tube", "p": 5, "slopes": [0, 3, 2, 2, 1],
         "intercepts": [2, -1, 0, 0, 0], "include_p": False}
    )
    split = SplitProfile.from_d(5, [1, 0, 2, 1])
    assert profile_rows(tube, 6) == [list(tube.jordan_type_at(q).mult) for q in range(1, 7)]
    assert profile_rows(split, 6) == [list(split_propagate(split, q).mult) for q in range(1, 7)]
    assert profile_rows(tube, 6)[2][4] == 0  # row p zeroed without include_p


def test_profiles_are_claimed_from_ql_one():
    prof = TubeProfile(3, (1, 0, 0), (0, 0, 0))
    for ql in (0, -1):
        with pytest.raises(ValidationError, match=f"only valid from ql=1, got {ql}$"):
            prof.jordan_type_at(ql)
    # the witness is the least ql >= 1 at which a row goes negative
    for s in range(-3, 4):
        for t in range(-7, 8):
            values = [s * q + t for q in range(1, 12)]
            if min(values) >= 0:
                assert TubeProfile(3, (s, 0, 0), (t, 0, 0)).value(1, 1) == s + t
                continue
            with pytest.raises(NegativeMultiplicityError) as info:
                TubeProfile(3, (0, s, 0), (0, t, 0))
            q = next(q for q, x in enumerate(values, 1) if x < 0)
            assert (info.value.index, info.value.ql, info.value.value) == (2, q, values[q - 1])


# ------------------------------------------------------------ split profiles


def test_split_propagate_carlson_shape():
    # hook d-vector propagates to f[1] + f[p-1] + m[p]
    p = 5
    prof = SplitProfile.from_d(p, [1, 0, 0, 1])
    for f in (1, 2, 3):
        jt = split_propagate(prof, f)
        assert jt.multiplicity(1) == f and jt.multiplicity(p - 1) == f
        assert jt.multiplicity(p) == 0
    jt = split_propagate(prof, 2, total_dim=30)
    assert jt.multiplicity(p) == 4


def test_split_propagate_constant_profile():
    prof = SplitProfile.from_d(5, [0, 0, 1, 0])
    assert split_propagate(prof, 1) == JordanType.block(5, 3)


def test_split_propagate_divisibility_guard():
    prof = SplitProfile.from_d(5, [1, 0, 0, 1])
    with pytest.raises(ValidationError):
        split_propagate(prof, 1, total_dim=11)


def test_seed_to_split_profile():
    p = 5
    seed = JordanType.from_string(p, "[2]+2[5]")
    prof = seed_to_split_profile(seed, 1)
    assert prof.d == (0, 1, 0, 0) and prof.d_stable == 2
    seed2 = JordanType.from_string(p, "2[1]+2[4]")
    assert seed_to_split_profile(seed2, 2).d == (1, 0, 0, 1)
    with pytest.raises(ValidationError):
        seed_to_split_profile(JordanType.from_string(p, "[1]+[4]"), 2)


def test_seed_and_propagate_round_trip():
    p = 7
    prof = SplitProfile.from_d(p, [2, 0, 1, 0, 0, 3])
    for f in (1, 2, 5):
        assert seed_to_split_profile(split_propagate(prof, f), f).d == prof.d


def test_jordan_type_count():
    p = 5
    profiles = [
        SplitProfile.from_d(p, [1, 0, 0, 1]),
        SplitProfile.from_d(p, [1, 0, 0, 1]),
        SplitProfile.from_d(p, [0, 0, 0, 0]),
        SplitProfile.from_d(p, [2, 0, 0, 2]),
    ]
    assert jordan_type_count(profiles) == 3
    assert jordan_type_count(profiles[:1]) == 1
    with pytest.raises(ValidationError):
        jordan_type_count([profiles[0], SplitProfile.from_d(7, [0] * 6)])


def test_support_indices():
    p = 5
    assert support_indices(SplitProfile.from_d(p, [1, 0, 0, 1])) == {1, p - 1}
    assert support_indices(SplitProfile.from_d(p, [0, 0, 0, 0])) == frozenset()
    # a concrete all-projective type reports only the projective index
    assert support_indices(JordanType.block(p, p, 3)) == {p}


# ----------------------------------------------------------------- dominance


def test_dominance_on_component_examples():
    p = 5
    hook = SplitProfile.from_d(p, [1, 0, 0, 1])
    proj = SplitProfile.from_d(p, [0, 0, 0, 0])
    assert dominance_on_component(hook, hook) is DominanceResult.EQUAL
    assert dominance_on_component(proj, hook) is DominanceResult.GREATER
    assert dominance_on_component(hook, proj) is DominanceResult.LESS


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_dominance_on_component_matches_per_vertex(da, db):
    # the component verdict must agree with the per-vertex comparison at
    # every vertex where both types exist with a common dimension
    p = 5
    pa, pb = SplitProfile.from_d(p, da), SplitProfile.from_d(p, db)
    verdict = dominance_on_component(pa, pb)
    for f in (p, 2 * p, 3 * p, 4 * p, 5 * p):
        dim = max(pa.d_stable, pb.d_stable) * f + 3 * p
        ta = split_propagate(pa, f, total_dim=dim)
        tb = split_propagate(pb, f, total_dim=dim)
        assert dominance_compare(ta, tb) is verdict


def test_top_multiplicity():
    p = 5
    one_dim = JordanType.block(p, 1)
    for j in range(1, p + 1):
        assert top_multiplicity(one_dim, j) == 1
    simple = JordanType.block(p, 3)
    for j in range(3, p + 1):
        assert top_multiplicity(simple, j) == 3
    # oracle: dim - rank of the j-th power for a 2[2] type
    jt = JordanType.from_string(p, "2[2]")
    model = power_model(model_from_type(jt), 1)
    assert top_multiplicity(jt, 1) == 4 - rank_mod_p(dense(model), p) == 2


# ---------------------------------------------------------------- obstruction


def test_obstruction_check():
    p = 7
    hook = JordanType.from_counts(p, {1: 1, p - 1: 1})
    verdict = obstruction_check(hook, trigonalizable=True)
    assert verdict.status == ObstructionStatus.NOT_RELATIVELY_PROJECTIVE
    wide = JordanType.from_counts(p, {1: 2})
    assert obstruction_check(wide, True).status == ObstructionStatus.INCONCLUSIVE
    soft = obstruction_check(JordanType.from_counts(p, {2: 1, 5: 1}), False)
    assert soft.status == ObstructionStatus.INCONCLUSIVE
    assert "sl(2)" in soft.reason


# ----------------------------------------------------------------------- JSON


def test_profile_from_json_variants():
    tube = profile_from_json(
        {
            "kind": "tube",
            "p": 5,
            "seed": {"p": 5, "mult": [2, 2, 2, 2, 1]},
            "multiplicities": [1, 0, 0, 0],
            "rank": 1,
        }
    )
    assert isinstance(tube, TubeProfile) and tube.include_p
    direct = profile_from_json(
        {"kind": "tube", "p": 5, "slopes": [0, 0, 0, 0, 1],
         "intercepts": [0, 1, 1, 0, -1], "include_p": True}
    )
    assert solve_multiplicities(direct).multiplicities == (1, 2, 2, 1)
    split = profile_from_json({"kind": "split", "p": 5, "d": [1, 0, 0, 1],
                               "tree_class": "A_inf"})
    assert isinstance(split, SplitProfile)
    with pytest.raises(ParseError):
        profile_from_json({"kind": "mystery", "p": 5})
    with pytest.raises(ParseError):
        profile_from_json({"kind": "tube", "p": 5})
