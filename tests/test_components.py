import copy
import itertools
import pickle
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_reference import build_cartan_pair
from jordanquiver.components import (
    NegativeMultiplicityError,
    SplitProfile,
    TubeProfile,
    apply_a,
    dominance_on_component,
    profile_columns,
    profile_from_json,
    seed_to_split_profile,
    solve_multiplicities,
    split_propagate,
    tube_profile_from_seed,
)
from jordanquiver.errors import ParseError, ValidationError
from jordanquiver.jtypes import (
    DominanceResult, JordanType, dominance_compare, pointwise_compare, projective_count,
)
from dense_reference import dense, rank_mod_p
from model_reference import model_from_type, power_model
from jordanquiver.trees import TreeClass


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
HEISENBERG_TUBE = tube_profile_from_seed(HEISENBERG_SEED, [1, 0, 0, 0], include_p=True)


def test_tube_forward_heisenberg_matches_printed_formulas():
    # component of the induced Heisenberg module: alpha_1 = 2,
    # alpha_2 = 3ql - 1, alpha_i = 2ql for 3 <= i <= p-1, alpha_p = ql
    for ql in range(1, 11):
        jt = HEISENBERG_TUBE.jordan_type_at(ql)
        assert jt.multiplicity(1) == 2
        assert jt.multiplicity(2) == 3 * ql - 1
        assert jt.multiplicity(3) == 2 * ql
        assert jt.multiplicity(4) == 2 * ql
        assert jt.multiplicity(5) == ql
    assert str(HEISENBERG_TUBE.jordan_type_at(3)) == (
        "3[5]+6[4]+6[3]+8[2]+2[1]"
    )


def test_tube_forward_ql_one_is_seed():
    assert HEISENBERG_TUBE.jordan_type_at(1) == HEISENBERG_SEED
    stable = HEISENBERG_SEED.stable_part()
    assert tube_profile_from_seed(HEISENBERG_SEED, [1, 0, 0, 0]).jordan_type_at(1) == stable


def test_tube_forward_single_index_formula():
    # n = e_j gives alpha_i(X) = (a_i - A[i][j]) ql + A[i][j]
    p = 7
    cp = build_cartan_pair(p)
    seed = JordanType(p, (3, 2, 2, 3, 2, 2, 1))
    for j in range(1, p):
        n = [int(k == j) for k in range(1, p)]
        try:
            jt = tube_profile_from_seed(seed, n).jordan_type_at(4)
        except NegativeMultiplicityError:
            continue
        for i in range(1, p):
            aij = cp.a[i - 1][j - 1]
            assert jt.multiplicity(i) == (seed.multiplicity(i) - aij) * 4 + aij


def test_tube_forward_differences_are_affine():
    rows = [HEISENBERG_TUBE.jordan_type_at(ql) for ql in range(1, 8)]
    for i in range(1, 6):
        diffs = [b.multiplicity(i) - a.multiplicity(i) for a, b in zip(rows, rows[1:])]
        assert len(set(diffs)) == 1


def test_tube_forward_negative_multiplicity_is_rejected_with_witness():
    seed = JordanType(5, (1, 1, 0, 0, 0))
    with pytest.raises(NegativeMultiplicityError) as info:
        tube_profile_from_seed(seed, [1, 0, 0, 0]).jordan_type_at(3)
    err = info.value
    assert err.value < 0 and err.ql >= 1 and 1 <= err.index <= 5
    # the witness really is negative under the raw affine formula
    cp = build_cartan_pair(5)
    t = [row[0] for row in cp.a]
    raw = (seed.multiplicity(err.index) - t[err.index - 1]) * err.ql + t[err.index - 1]
    assert raw == err.value


def test_tube_forward_rejects_bad_vectors():
    with pytest.raises(ValidationError):
        tube_profile_from_seed(HEISENBERG_SEED, [0, 0, 0, 0]).jordan_type_at(2)
    with pytest.raises(ValidationError):
        tube_profile_from_seed(HEISENBERG_SEED, [1, 0, 0]).jordan_type_at(2)
    with pytest.raises(ValidationError):
        tube_profile_from_seed(HEISENBERG_SEED, [1, 0, 0, -1]).jordan_type_at(2)


@pytest.mark.parametrize(
    "build,bad",
    [
        (lambda: TubeProfile(3, (2.7, 0, 0), (0, 0, 0)), "slopes[0] must be an int, got 2.7"),
        (lambda: TubeProfile(3, (0, 0, 0), (0, 1.0, 0)), "intercepts[1] must be an int, got 1.0"),
        (lambda: TubeProfile(3.0, (0, 0, 0), (0, 0, 0)), "p must be an integer >= 2, got 3.0"),
        (lambda: SplitProfile(3, (1.0, 0), 1), "d[0] must be an int, got 1.0"),
        (lambda: SplitProfile(3, [1.9, 0]), "d[0] must be an int, got 1.9"),
        (lambda: SplitProfile(3, [0, False]), "d[1] must be an int, got False"),
        (lambda: tube_profile_from_seed(JordanType(3, (2, 2, 1)), [1.9, 0]),
         "multiplicities[0] must be an int, got 1.9"),
    ],
)
def test_profiles_reject_non_int_entries(build, bad):
    # each of these used to be truncated by int(): 2.7 -> 2, 1.9 -> 1
    with pytest.raises(ValidationError, match=re.escape(bad)):
        build()


@pytest.mark.parametrize("flag", ["no", 1, 0, None, 1.0])
@pytest.mark.parametrize("build", [
    lambda flag: TubeProfile(3, (0, 0, 1), (0, 1, 0), include_p=flag),
    lambda flag: tube_profile_from_seed(JordanType(3, (2, 2, 1)), [1, 0], include_p=flag),
])
def test_include_p_must_be_a_bool(build, flag):
    # a truthy "no" would assert row p and a falsy 0 drop it; both routes
    # end in TubeProfile._build, which checks the flag once
    bad = f"include_p must be a bool, got {flag!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(bad)}$"):
        build(flag)


@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda: HEISENBERG_TUBE.jordan_type_at(True), "ql must be an int, got True"),
        (lambda: HEISENBERG_TUBE.jordan_type_at(1.5), "ql must be an int, got 1.5"),
        (lambda: profile_columns(HEISENBERG_TUBE, 1.5), "ql_max must be an int, got 1.5"),
        (lambda: profile_columns(SplitProfile(3, [1, 0]), True), "ql_max must be an int, got True"),
        (lambda: split_propagate(SplitProfile(3, [1, 0]), 1.0), "f_value must be an int, got 1.0"),
        (lambda: seed_to_split_profile(JordanType(3, (2, 0, 0)), True),
         "f_seed must be an int, got True"),
    ],
)
def test_profile_evaluators_check_int_arguments_first(call, bad):
    # a bool was taken as 0 or 1, and a float failed naming a field of the
    # result (mult[0]) or raised a bare TypeError
    with pytest.raises(ValidationError, match=f"^{re.escape(bad)}$"):
        call()


# --------------------------------------------------------------- tube central
# A central probe seeds the tube with m[j] and the multiplicity vector n at j,
# 0 elsewhere: tube_profile_from_seed(JordanType.block(p, j, m), [n at j]).


def test_tube_central_prime_power_seed():
    # seed m[j] with m = p^r and a single self-multiplicity:
    # alpha_j = (p^r - 2) ql + 2, alpha_{j+-1} = ql - 1
    p, r, j = 5, 2, 3
    m = p**r
    prof = tube_profile_from_seed(JordanType.block(p, j, m), [int(i == j) for i in range(1, p)])
    for ql in (1, 2, 4):
        jt = prof.jordan_type_at(ql)
        assert jt.multiplicity(j) == (m - 2) * ql + 2
        assert jt.multiplicity(j - 1) == ql - 1
        assert jt.multiplicity(j + 1) == ql - 1
        assert all(jt.multiplicity(i) == 0 for i in (1, p))


def test_central_seed_formula_written_out():
    # alpha_j = (m - 2n) ql + 2n and alpha_{j +- 1} = n (ql - 1) below i = p
    for p in range(2, 12):
        for j, n in itertools.product(range(1, p), range(1, 4)):
            for m in range(2 * n, 2 * n + 4):
                slopes, intercepts = [0] * p, [0] * p
                slopes[j - 1], intercepts[j - 1] = m - 2 * n, 2 * n
                for i in (j - 1, j + 1):
                    if 1 <= i <= p - 1:
                        slopes[i - 1], intercepts[i - 1] = n, -n
                prof = tube_profile_from_seed(JordanType.block(p, j, m),
                                              [n * (i == j) for i in range(1, p)])
                assert prof == TubeProfile(p, slopes, intercepts)


def test_tube_central_ql_one_and_zero_slope():
    prof = tube_profile_from_seed(JordanType.block(5, 2, 9), [0, 1, 0, 0])
    assert prof.jordan_type_at(1) == JordanType.from_counts(5, {2: 9})
    prof = tube_profile_from_seed(JordanType.block(5, 2, 6), [0, 3, 0, 0])
    for ql in (1, 3, 7):
        assert prof.jordan_type_at(ql).multiplicity(2) == 6
    with pytest.raises(NegativeMultiplicityError):
        tube_profile_from_seed(JordanType.block(5, 2, 5), [0, 3, 0, 0])  # m < 2n


def test_tube_central_stable_kernel_dim_is_multiple_of_p():
    # seeds of dimension divisible by p keep psi_{p-1} divisible by p
    p = 5
    for j, m, n in [(1, 10, 2), (2, 10, 1), (4, 5, 2), (3, 15, 4)]:
        if j * m % p:
            continue
        prof = tube_profile_from_seed(JordanType.block(p, j, m), [n * (i == j) for i in range(1, p)])
        for ql in range(1, 8):
            assert prof.jordan_type_at(ql).psi(p - 1) % p == 0
    # bounded case: if the stable dimension agrees at ql = 1 and 2 it is constant
    for j, m, n in [(1, 4, 2), (2, 8, 4), (4, 6, 3)]:
        prof = tube_profile_from_seed(JordanType.block(5, j, m), [n * (i == j) for i in range(1, 5)])
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


# ------------------------------------- derived values and the checked constructor
# Profiles from a seed and types derived from a checked value are built without
# the checks for user input; each must equal what the checked constructor builds
# on the same fields, and a profile must fail with the same error.


def _round_trip_grid(p5_step=1):
    """(seed, n) over the criterion-09 grid at p = 3 and 5 (seed entries 0..3,
    n entries 0..2, n nonzero), every ``p5_step``-th seed at p = 5, then
    seeded samples at p = 7 and 11: half drawn like the grid, mostly
    rejected, and half built to stay in N_0."""
    for p, step in ((3, 1), (5, p5_step)):
        seeds = [JordanType(p, seed) for seed in itertools.product(range(4), repeat=p)][::step]
        vectors = [list(n) for n in itertools.product(range(3), repeat=p - 1) if any(n)]
        yield from itertools.product(seeds, vectors)
    rng = random.Random(2511)
    for p in (7, 11):
        for k in range(200):
            n = [0] * (p - 1)
            while not any(n):
                n = [rng.randint(0, 2) for _ in range(p - 1)]
            t = apply_a([*n, 0])
            seed = ([rng.randint(0, 3) for _ in range(p)] if k % 2
                    else [max(x, 0) + rng.randint(0, 3) for x in t])
            yield JordanType(p, seed), n


def _checked_profile(seed, n, include_p):
    t = apply_a([*n, 0])
    return TubeProfile(seed.p, [a - x for a, x in zip(seed.mult, t)], t, include_p)


def _outcome(build, *args):
    try:
        return build(*args)
    except NegativeMultiplicityError as err:
        return "rejected", err.index, err.ql, err.value, str(err)


def test_seeded_profiles_equal_checked_profiles():
    accepted = rejected = 0
    for seed, n in _round_trip_grid():
        for include_p in (True, False):
            got = _outcome(tube_profile_from_seed, seed, n, include_p)
            assert got == _outcome(_checked_profile, seed, n, include_p), (seed, n, include_p)
            if isinstance(got, TubeProfile):
                accepted += 1
            else:
                rejected += 1
    assert accepted > 1000 and rejected > 1000


def _assert_checked(jt):
    # the checked constructor accepts the fields and builds an equal type
    assert jt == JordanType(jt.p, jt.mult) and hash(jt) == hash(JordanType(jt.p, jt.mult))


def test_derived_types_equal_checked_types():
    # every accepted profile of the grid, with every 32nd seed at p = 5;
    # derivations at three quasi-lengths
    accepted = 0
    for seed, n in _round_trip_grid(p5_step=32):
        for include_p in (True, False):
            prof = _outcome(tube_profile_from_seed, seed, n, include_p)
            if not isinstance(prof, TubeProfile):
                continue
            accepted += 1
            p = prof.p
            for q in range(1, 51):
                jt = prof.jordan_type_at(q)
                _assert_checked(jt)
                if q not in (1, 7, 50):
                    continue
                _assert_checked(jt.stable_part())
                _assert_checked(jt.syzygy())
                _assert_checked(jt.syzygy().syzygy())
                for new_p in sorted({2, p - 1, p, p + 1, 2 * p}):
                    if any(jt.mult[new_p:]):
                        with pytest.raises(ValidationError, match="does not fit below"):
                            jt.with_modulus(new_p)
                    else:
                        _assert_checked(jt.with_modulus(new_p))
                split = SplitProfile(p, jt.mult[:-1])
                for f in (1, 3):
                    _assert_checked(split_propagate(split, f))
    assert accepted > 1000


@pytest.mark.parametrize(
    "slopes,intercepts,include_p,first",
    [
        # s + t < 0 at index 1 comes before s < 0 at index 2
        ((1, -1, 0), (-2, 5, 0), True, (1, 1, -1)),
        # s < 0 at index 1, negative from ql = 4, comes before s + t < 0 at index 2
        ((-1, 1, 0), (3, -5, 0), True, (1, 4, -1)),
        ((2, -3, 1), (0, 100, -9), True, (2, 34, -2)),
        # s < 0 and s + t < 0 at one index: the slope branch names ql = 1
        ((0, -1, 0), (0, -3, 0), True, (2, 1, -4)),
        ((0, -1, -1, 0), (0, -3, -9, 0), True, (2, 1, -4)),
        # a zero slope with a negative intercept
        ((0, 0, 1), (1, -2, 0), True, (2, 1, -2)),
        ((0, 0, 0, 0, 0), (0, 0, 0, 0, -1), True, (5, 1, -1)),
        # row p is dropped unless include_p
        ((0, 0, -5), (0, -1, 0), False, (2, 1, -1)),
        ((0, 0, -5), (0, -1, 0), True, (2, 1, -1)),
        ((1, 0, -5), (0, 0, 7), True, (3, 2, -3)),
    ],
)
def test_first_negative_multiplicity_is_pinned(slopes, intercepts, include_p, first):
    with pytest.raises(NegativeMultiplicityError) as info:
        TubeProfile(len(slopes), slopes, intercepts, include_p)
    err = info.value
    assert (err.index, err.ql, err.value) == first
    index, ql, value = first
    assert str(err) == (f"block multiplicity alpha_{index} becomes {value} at ql={ql}; "
                        "the seed/multiplicity pair cannot sit on a tube")
    assert repr(err) == f"NegativeMultiplicityError({index}, {ql}, {value})"
    # the witness is the error's args, so a pickled or copied error keeps it
    for twin in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(twin) is NegativeMultiplicityError
        assert (twin.index, twin.ql, twin.value, str(twin)) == (*first, str(err))


def test_a_witness_too_long_to_write_is_named_when_read():
    # alpha_1 = 10**4300 - 1 - ql first goes negative at ql = 10**4300, one
    # digit past the default limit: the error keeps its type and witness,
    # and its message says the quasi-length is too long to print
    with pytest.raises(NegativeMultiplicityError) as info:
        TubeProfile(2, [-1, 0], [10**4300 - 1, 0])
    assert (info.value.index, info.value.ql, info.value.value) == (1, 10**4300, -1)
    assert str(info.value) == ("the quasi-length at which alpha_1 goes negative has more "
                               "than 4300 digits, the limit for printing an integer")


# Python 3.10.0 to 3.10.6 write an int of any length, and have no getter
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="str() writes an int of any length")
def test_repr_names_a_witness_too_long_to_write():
    # repr raised ValueError here; the field that cannot be written is named
    with pytest.raises(NegativeMultiplicityError) as info:
        TubeProfile(2, [-1, 0], [10**DIGIT_LIMIT - 1, 0])
    assert repr(info.value) == (
        f"NegativeMultiplicityError(1, <ql: an int of more than {DIGIT_LIMIT} digits>, -1)")


@pytest.mark.parametrize(
    "seed,n,include_p,first",
    [
        # slopes (-2, 1, 0, 0, 0), intercepts (2, -1, 0, 0, 0)
        ((0, 0, 0, 0, 0), (1, 0, 0, 0), True, (1, 2, -2)),
        # slopes (1, -2, 2, -2, 1): two bad indices, 2 and 4
        ((0, 0, 0, 0, 0), (0, 1, 0, 1), True, (2, 2, -2)),
        # slopes (-3, 2, 4, -4, 5): the first bad index, not the larger value
        ((1, 0, 2, 0, 3), (2, 0, 0, 2), True, (1, 2, -2)),
        ((3, 0, 0, 1, 0), (0, 2, 0, 1), False, (2, 2, -4)),
        ((0, 0, 0), (1, 0), False, (1, 2, -2)),
    ],
)
def test_first_negative_multiplicity_from_a_seed_is_pinned(seed, n, include_p, first):
    with pytest.raises(NegativeMultiplicityError) as info:
        tube_profile_from_seed(JordanType(len(seed), seed), n, include_p)
    assert (info.value.index, info.value.ql, info.value.value) == first


# --------------------------------------------------------- profile columns


def _per_vertex_rows(profile, ql_max):
    """Rows (q, a_1, ..., a_p) from one JordanType per ql."""
    return [(q, *(profile.jordan_type_at(q) if isinstance(profile, TubeProfile)
                  else split_propagate(profile, q)).mult) for q in range(1, ql_max + 1)]


def _column_rows(columns, ql_max):
    """Rows (q, a_1, ..., a_p) read off profile columns, a constant in every row."""
    return list(zip(range(1, ql_max + 1),
                    *(c if isinstance(c, range) else itertools.repeat(c) for c in columns)))


ROW_PROFILES = {
    # column 1 has slope 0 (a constant), columns 2..4 rise, row 5 unasserted
    "tube": TubeProfile(5, (0, 3, 2, 2, 1), (2, -1, 0, 0, 0)),
    "tube-include-p": TubeProfile(5, (0, 3, 2, 2, 1), (2, -1, 0, 0, 0), include_p=True),
    "tube-all-zero-slopes": TubeProfile(3, (0, 0, 0), (1, 0, 4), include_p=True),
    "tube-no-zero-slope": TubeProfile(4, (1, 2, 1, 3), (0, -1, 1, 0), include_p=True),
    "tube-p2": TubeProfile(2, (1, 2), (0, -1), include_p=True),
    "split": SplitProfile(5, [1, 0, 2, 1]),
    "split-all-zero-d": SplitProfile(4, [0, 0, 0]),
    "split-p2": SplitProfile(2, [3]),
}


def test_profile_columns_match_per_vertex_types():
    for name, profile in ROW_PROFILES.items():
        slopes = (*profile.d, 0) if isinstance(profile, SplitProfile) else profile.slopes
        for ql_max in (0, 1, 2, 7):
            columns = profile_columns(profile, ql_max)
            # a slope-0 column is its int constant, any other a range of ql_max entries
            assert [type(c) for c in columns] == [range if s else int for s in slopes], name
            assert {len(c) for c in columns if isinstance(c, range)} <= {ql_max}, name
            assert _column_rows(columns, ql_max) == _per_vertex_rows(profile, ql_max), (
                name, ql_max)
        if isinstance(profile, TubeProfile) and not profile.include_p:
            assert columns[-1] == 0, name  # a_p reads 0
        # the columns are lazy and the q range bounds them, so a table longer
        # than sys.maxsize starts at once, and an all-constant profile stays finite
        start = time.perf_counter()
        columns = profile_columns(profile, 2**64)
        assert _column_rows(columns, 6) == _per_vertex_rows(profile, 6), name
        last = (profile.jordan_type_at(2**64) if isinstance(profile, TubeProfile)
                else split_propagate(profile, 2**64))
        assert tuple(c[-1] if isinstance(c, range) else c for c in columns) == last.mult, name
        assert time.perf_counter() - start < 0.5, name


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
                tube = TubeProfile(3, (s, 0, 0), (t, 0, 0))
                assert tube.jordan_type_at(1).multiplicity(1) == s + t
                continue
            with pytest.raises(NegativeMultiplicityError) as info:
                TubeProfile(3, (0, s, 0), (0, t, 0))
            q = next(q for q, x in enumerate(values, 1) if x < 0)
            assert (info.value.index, info.value.ql, info.value.value) == (2, q, values[q - 1])


# ------------------------------------------------------------ split profiles


@pytest.mark.parametrize("tree_class", [1, "A_inf", 0.0])
def test_split_profile_rejects_non_tree_class(tree_class):
    # d_stable is derived, so an old positional d_stable would land here
    with pytest.raises(ValidationError, match="tree_class must be a TreeClass or None"):
        SplitProfile(3, (1, 0), tree_class)
    prof = SplitProfile(3, (1, 0), TreeClass("A_inf"))
    assert prof.tree_class == TreeClass("A_inf") and prof.d_stable == 1


def vertex_type(profile, f, dim):
    """The type of dimension ``dim`` at a vertex of f-value f: the stable type
    ``split_propagate`` gives, and [p] blocks for the rest."""
    p = profile.p
    return split_propagate(profile, f) + JordanType.block(
        p, p, projective_count(dim, profile.d_stable * f, p))


def test_split_propagate_carlson_shape():
    # hook d-vector propagates to f[1] + f[p-1] + m[p]
    p = 5
    prof = SplitProfile(p, [1, 0, 0, 1])
    for f in (1, 2, 3):
        jt = split_propagate(prof, f)
        assert jt.multiplicity(1) == f and jt.multiplicity(p - 1) == f
        assert jt.multiplicity(p) == 0
    jt = vertex_type(prof, 2, 30)
    assert jt.multiplicity(p) == 4 and jt.stable_part() == split_propagate(prof, 2)


def test_split_propagate_constant_profile():
    prof = SplitProfile(5, [0, 0, 1, 0])
    assert split_propagate(prof, 1) == JordanType.block(5, 3)


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
    prof = SplitProfile(p, [2, 0, 1, 0, 0, 3])
    for f in (1, 2, 5):
        assert seed_to_split_profile(split_propagate(prof, f), f).d == prof.d


# ----------------------------------------------------------------- dominance


def test_dominance_on_component_examples():
    p = 5
    hook = SplitProfile(p, [1, 0, 0, 1])
    proj = SplitProfile(p, [0, 0, 0, 0])
    assert dominance_on_component(hook, hook) is DominanceResult.EQUAL
    assert dominance_on_component(proj, hook) is DominanceResult.GREATER
    assert dominance_on_component(hook, proj) is DominanceResult.LESS


def reference_cleared(prof):
    """The p-cleared forms L_j of dominance_on_component, one O(p) sum per j."""
    p = prof.p
    return tuple(
        p * sum((i - j) * prof.d[i - 1] for i in range(j, p)) - (p - j) * prof.d_stable
        for j in range(1, p + 1)
    )


def test_dominance_on_component_matches_reference():
    rng = random.Random("cleared")
    seen = set()
    for p in (2, 3, 5, 7, 12):
        for _ in range(200):
            da = [rng.randint(0, 3) for _ in range(p - 1)]
            db = [max(0, x + rng.randint(-1, 1)) for x in da]
            pa, pb = SplitProfile(p, da), SplitProfile(p, db)
            verdict = dominance_on_component(pa, pb)
            assert verdict is pointwise_compare(reference_cleared(pa), reference_cleared(pb))
            seen.add(verdict)
    assert seen == set(DominanceResult)


def test_dominance_on_component_costs_one_pass():
    # one O(p) sum per j took 0.12-0.19 s at p = 1001
    p = 1001
    ones, hook = SplitProfile(p, [1] * (p - 1)), SplitProfile(p, [1] + [0] * (p - 3) + [1])
    start = time.perf_counter()
    verdict = dominance_on_component(ones, hook)
    assert time.perf_counter() - start < 0.05
    assert verdict is pointwise_compare(reference_cleared(ones), reference_cleared(hook))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_dominance_on_component_matches_per_vertex(da, db):
    # the component verdict must agree with the per-vertex comparison at
    # every vertex where both types exist with a common dimension
    p = 5
    pa, pb = SplitProfile(p, da), SplitProfile(p, db)
    verdict = dominance_on_component(pa, pb)
    for f in (p, 2 * p, 3 * p, 4 * p, 5 * p):
        dim = max(pa.d_stable, pb.d_stable) * f + 3 * p
        ta, tb = vertex_type(pa, f, dim), vertex_type(pb, f, dim)
        assert dominance_compare(ta, tb) is verdict


def test_top_multiplicity():
    p = 5
    one_dim = JordanType.block(p, 1)
    for j in range(1, p + 1):
        assert one_dim.ker_dim(j) == 1
    simple = JordanType.block(p, 3)
    for j in range(3, p + 1):
        assert simple.ker_dim(j) == 3
    # oracle: dim - rank of the j-th power for a 2[2] type
    jt = JordanType.from_string(p, "2[2]")
    model = power_model(model_from_type(jt), 1)
    assert jt.ker_dim(1) == 4 - rank_mod_p(dense(model), p) == 2


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


@pytest.mark.parametrize("rank", [0, -5])
@pytest.mark.parametrize("data", [
    {"seed": {"p": 3, "mult": [2, 2, 1]}, "multiplicities": [1, 0]},
    {"slopes": [0, 0, 1], "intercepts": [0, 1, 0]},
])
def test_profile_from_json_refuses_a_rank_below_1(rank, data):
    # a tube's rank counts its mouth vertices, so it is at least 1, as a
    # quiver window's is; it is not read as a non-homogeneous tube
    with pytest.raises(ValidationError, match=f"^rank must be >= 1, got {rank}$"):
        profile_from_json({"kind": "tube", "p": 3, **data, "rank": rank})
    assert profile_from_json({"kind": "tube", "p": 3, **data, "rank": 3}).include_p is False
