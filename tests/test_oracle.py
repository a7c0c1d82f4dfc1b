import json
import random
import time
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    dense,
    from_dense,
    invert_mod_p,
    mat_mul_mod_p,
    random_invertible,
    rank_mod_p,
)
from jordanquiver.errors import ParseError, ValidationError
from jordanquiver.jtypes import JordanType, pi_point_sweep, require_prime, restrict, restrict_type
from jordanquiver.oracle import (
    NilpotentModel,
    abelian_rank2_models,
    ga2_model,
    heisenberg_model,
    jordan_type_of,
    model_from_type,
    power_model,
    random_conjugate,
    sl2_simple_models,
    sl2s_models,
)


def test_rank_mod_p_small_cases():
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p([[1, 2], [2, 4]], 7) == 1
    assert rank_mod_p([[1, 0], [0, 3]], 5) == 2
    assert rank_mod_p([[2, 4], [1, 2]], 2) == 1  # 2 = 0 mod 2
    assert rank_mod_p([[0, 0], [0, 0]], 3) == 0


def test_invert_mod_p_round_trip():
    rng = random.Random(7)
    for p in (3, 5, 7):
        g = random_invertible(6, p, rng)
        gi = invert_mod_p(g, p)
        ident = [[int(i == j) for j in range(6)] for i in range(6)]
        assert mat_mul_mod_p(g, gi, p) == ident


# every odd prime up to 31, then a sample up to 53
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def dense_rank_sequence(p, rows):
    """rank_mod_p of N^0, ..., N^p, the powers built by repeated mat_mul_mod_p."""
    dim = len(rows)
    power = [[int(r == c) for c in range(dim)] for r in range(dim)]
    ranks = []
    for _ in range(p + 1):
        ranks.append(rank_mod_p(power, p) if dim else 0)
        power = mat_mul_mod_p(power, rows, p)
    return tuple(ranks)


def test_rank_sequence_matches_dense_powers():
    rng = random.Random(2008)
    non_nilpotent = 0
    for trial in range(600):
        p = [2, 3, 5, 7, 11, 13][trial % 6]
        dim = rng.randint(0, 14)
        kind = trial % 3
        strictly_lower = [
            [rng.randrange(p) if c < r else 0 for c in range(dim)] for r in range(dim)
        ]
        if kind == 0:
            rows = strictly_lower
        elif kind == 1:
            g = random_invertible(dim, p, rng)
            rows = mat_mul_mod_p(mat_mul_mod_p(g, strictly_lower, p), invert_mod_p(g, p), p)
        else:
            rows = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        expected = dense_rank_sequence(p, rows)
        if expected[p] == 0:
            assert from_dense(p, rows).rank_sequence == expected, (p, rows)
        else:
            non_nilpotent += 1
            message = f"matrix is not nilpotent of order <= {p} (rank of N^{p} is {expected[p]})"
            with pytest.raises(ValidationError) as info:
                from_dense(p, rows)
            assert str(info.value) == message, (p, rows)
    assert non_nilpotent > 100


def test_model_rejects_non_nilpotent():
    with pytest.raises(ValidationError):
        NilpotentModel(3, 2, [(0, 0, 1)])
    with pytest.raises(ValidationError):
        NilpotentModel(3, 2, [(0, 1, 1), (1, 0, 1)])


def test_jordan_type_of_basic_models():
    p = 5
    assert jordan_type_of(model_from_type(JordanType.block(p, p))) == JordanType.block(p, p)
    zero = NilpotentModel(p, 4, [])
    assert jordan_type_of(zero) == JordanType.block(p, 1, 4)


def test_model_from_type_round_trip():
    for text in ["", "[5]", "2[3]+[1]", "[4]+2[2]+3[1]"]:
        jt = JordanType.from_string(5, text)
        assert jordan_type_of(model_from_type(jt)) == jt


def test_rank_sequence_is_convex_and_consistent():
    for p, text in [(5, "2[3]+[1]"), (7, "[7]+[4]+2[2]"), (3, "2[2]+[3]")]:
        model = model_from_type(JordanType.from_string(p, text))
        r = model.rank_sequence
        assert r[0] == model.dim and r[p] == 0
        diffs = [r[m - 1] - r[m] for m in range(1, p + 1)]
        assert all(x >= y for x, y in zip(diffs, diffs[1:]))
        assert jordan_type_of(model).dimension() == model.dim


# ---------------------------------------------------------------- constructors


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_heisenberg_type(p):
    model = heisenberg_model(p)
    assert model.dim == p * p
    expected = JordanType.from_counts(p, {**{i: 2 for i in range(1, p)}, p: 1})
    assert jordan_type_of(model) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_abelian_rank2_types(p):
    alpha, beta = abelian_rank2_models(p)
    assert alpha.dim == beta.dim == p
    assert jordan_type_of(alpha) == JordanType.block(p, 1, p)
    assert jordan_type_of(beta) == JordanType.from_counts(p, {1: p - 2, 2: 1})


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ga2_type(p):
    alpha, beta = ga2_model(p)
    assert jordan_type_of(alpha) == JordanType.block(p, 1, p)
    half = (p - 1) // 2
    assert jordan_type_of(beta) == JordanType.from_counts(p, {half: 1, half + 1: 1})
    # cross-check against the block-splitting closed form
    assert jordan_type_of(beta) == restrict(p, 2, p).with_modulus(p)


def test_ga2_rejects_p2():
    with pytest.raises(ValidationError):
        ga2_model(2)


@pytest.mark.parametrize("p,i", [(p, i) for p in ODD_PRIMES for i in range(1, p)])
def test_sl2s_verma_types(p, i):
    e_model, f_model = sl2s_models(p, i)
    assert jordan_type_of(f_model) == JordanType.block(p, p)
    assert jordan_type_of(e_model) == JordanType.from_counts(p, {i: 1, p - i: 1})


@pytest.mark.parametrize("p,n", [(p, n) for p in ODD_PRIMES for n in range(1, p)])
def test_sl2_simple_types(p, n):
    e_model, f_model = sl2_simple_models(p, n)
    assert jordan_type_of(e_model) == JordanType.block(p, n)
    assert jordan_type_of(f_model) == JordanType.block(p, n)


# -------------------------------------------------------- oracle equivalence


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_restrict_equals_power_oracle(p):
    for i in range(1, p + 1):
        block = model_from_type(JordanType.block(p, i))
        for j in range(1, p + 1):
            got = jordan_type_of(power_model(block, j))
            assert got == restrict(i, j, p).with_modulus(p), (p, i, j)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_jordan_type_invariant_under_conjugation(p, data):
    mult = data.draw(st.lists(st.integers(0, 2), min_size=p, max_size=p))
    jt = JordanType(p, tuple(mult))
    model = model_from_type(jt)
    if model.dim == 0:
        return
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    assert jordan_type_of(random_conjugate(model, rng)) == jt


def test_random_conjugate_moves_the_entries():
    # a conjugation that returned its input would pass the type check above
    rng = random.Random(1)
    for model in [heisenberg_model(5), model_from_type(JordanType.from_string(7, "[4]+2[2]+[1]")),
                  sl2s_models(11, 4)[0]]:
        conj = random_conjugate(model, rng)
        assert conj.p == model.p and conj.dim == model.dim
        assert conj.to_json_dict()["entries"] != model.to_json_dict()["entries"]
        assert conj.rank_sequence == model.rank_sequence
    zero = NilpotentModel(5, 10**5, [])
    assert random_conjugate(zero, rng) is zero


def test_power_model_matches_dense_powers():
    rng = random.Random(2009)
    for trial in range(60):
        p = [2, 3, 5, 7][trial % 4]
        jt = JordanType(p, tuple(rng.randint(0, 1) for _ in range(p)))
        rows = dense(model_from_type(jt))
        if rows:
            g = random_invertible(len(rows), p, rng)
            rows = mat_mul_mod_p(mat_mul_mod_p(g, rows, p), invert_mod_p(g, p), p)
        model = from_dense(p, rows)
        power = rows
        for j in range(1, p + 2):
            assert dense(power_model(model, j)) == power, (p, rows, j)
            power = mat_mul_mod_p(power, rows, p)


# --------------------------------------------------------------------- sweep


@pytest.mark.parametrize("p", [5, 7])
def test_sweep_cardinality_on_small_blocks(p):
    for n in range(1, p):
        assert len(pi_point_sweep(JordanType.block(p, n))) == n


def test_sweep_of_full_block():
    p = 7
    types = pi_point_sweep(JordanType.block(p, p))
    expected = {restrict_type(JordanType.block(p, p), j).with_modulus(p).stable_part()
                for j in range(1, p + 1)}
    assert types == expected
    # all nonempty members split as (j-r)[a] + r[a+1] for p = a*j + r
    assert JordanType.zero(p) in types
    for j in range(2, p):
        a, r = divmod(p, j)
        member = JordanType.from_counts(p, {a: j - r, a + 1: r} if r else {a: j})
        assert member in types


def test_sweep_zero_model_and_first_power():
    p = 5
    zero = NilpotentModel(p, 3, [])
    assert pi_point_sweep(jordan_type_of(zero)) == {JordanType.block(p, 1, 3)}
    jt = JordanType.from_string(p, "[4]+2[5]")
    sweep = pi_point_sweep(jt)
    assert jt.stable_part() in sweep
    # the j = 1 probe sees exactly the stable part of the base type
    for text in ["", "[4]+2[5]", "2[3]+[1]", "3[5]"]:
        base = JordanType.from_string(p, text)
        assert restrict_type(base, 1).with_modulus(p).stable_part() == base.stable_part()


# ---------------------------------------------------------------------- JSON


@pytest.mark.parametrize(
    "dim,entries,message",
    [
        (2, [(0, 1, 1.7)], "entries[0][2] must be an int, got 1.7"),
        (2, [(1, 0, 1), (True, 0, 1)], "entries[1][0] must be an int, got True"),
        (2, [(0, 1)], "entries[0] must be (r, c, v), got (0, 1)"),
        (2, [(0, 2, 1)], "entry (0,2) outside a 2x2 matrix"),
        (2, [(-1, 0, 1)], "entry (-1,0) outside a 2x2 matrix"),
        (0, [(0, 0, 0)], "entry (0,0) outside a 0x0 matrix"),
        (3, [(1, 0, 5), (1, 0, 1)], "entries[1] repeats entry (1,0)"),
        (-1, [], "dim must be an int >= 0, got -1"),
        (2.0, [], "dim must be an int >= 0, got 2.0"),
    ],
)
def test_model_constructor_checks_entries(dim, entries, message):
    with pytest.raises(ValidationError) as info:
        NilpotentModel(5, dim, entries)
    assert str(info.value) == message


@pytest.mark.parametrize("p", [5.0, "5", True], ids=repr)
def test_prime_must_be_an_int(p):
    # refused before any arithmetic, where isqrt(5.0) would raise TypeError
    message = f"p must be an int, got {p!r}"
    with pytest.raises(ValidationError) as info:
        require_prime(p)
    assert str(info.value) == message
    with pytest.raises(ValidationError) as info:
        NilpotentModel(p, 1, [])
    assert str(info.value) == message


def test_model_reduces_values_and_drops_zeros():
    model = NilpotentModel(5, 3, [(1, 0, 6), (2, 1, -1), (2, 0, 10)])
    assert model.columns == ((0, ((1, 1),)), (1, ((2, 4),)))
    assert dense(model) == [[0, 0, 0], [1, 0, 0], [0, 4, 0]]
    assert model.to_json_dict() == {"p": 5, "dim": 3, "entries": [[1, 0, 1], [2, 1, 4]]}


def test_model_json_entries_are_row_major():
    rng = random.Random(3)
    model = random_conjugate(heisenberg_model(5), rng)
    rows = dense(model)
    expected = [[r, c, v] for r, row in enumerate(rows) for c, v in enumerate(row) if v]
    assert model.to_json_dict()["entries"] == expected


def test_model_json_round_trip():
    model = heisenberg_model(3)
    data = json.loads(json.dumps(model.to_json_dict()))
    back = NilpotentModel.from_json_dict(data)
    assert back.columns == model.columns and back.p == model.p
    assert jordan_type_of(back) == jordan_type_of(model)


@pytest.mark.parametrize(
    "data,message",
    [
        ({"p": 5, "dim": -1, "entries": []}, "dim must be >= 0, got -1"),
        ({"p": float("inf"), "dim": 2, "entries": []}, "p must be a JSON integer, got inf"),
        ({"p": 5.9, "dim": 2, "entries": []}, "p must be a JSON integer, got 5.9"),
        ({"p": True, "dim": 2, "entries": []}, "p must be a JSON integer, got True"),
        ({"p": 5, "dim": "3", "entries": []}, "dim must be a JSON integer, got '3'"),
        (
            {"p": 5, "dim": 3, "entries": [[1, 0, 1], [2, 1, 1], [2, 0, 1.7]]},
            "entries[2][2] must be a JSON integer, got 1.7",
        ),
        ({"p": 5, "dim": 3, "entries": [[1, 0, 1], [1, 0, 2]]}, "entries[1] repeats entry (1,0)"),
        ({"p": 5, "dim": 3, "entries": ["012"]}, "entries[0] must be [r, c, v], got '012'"),
        ({"p": 5, "dim": 3, "entries": 5}, "entries must be a list, got int"),
        ({"p": 5, "dim": 3, "entries": [[0, 3, 1]]}, "entry (0,3) outside a 3x3 matrix"),
    ],
)
def test_model_json_is_strict(data, message):
    with pytest.raises(ParseError) as info:
        NilpotentModel.from_json_dict(data)
    assert str(info.value) == message


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_require_prime_agrees_with_trial_division():
    for n in range(-3, 10**5):
        try:
            require_prime(n)
        except ValidationError as err:
            assert str(err) == f"p must be prime, got {n}"
            assert not _is_prime_by_trial_division(n), n
        else:
            assert _is_prime_by_trial_division(n), n


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    561, 41041, 825265, 321197185, 5394826801, 232250619601, 9746347772161,  # Carmichael
    3825123056546413051,  # strong pseudoprime to every prime base up to 31
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
])
def test_require_prime_refuses_pseudoprimes(n):
    with pytest.raises(ValidationError) as info:
        require_prime(n)
    assert str(info.value) == f"p must be prime, got {n}"


@pytest.mark.parametrize("p", [10**12 + 39, 10**18 + 3, 2**61 - 1, 2**31 - 1])
def test_require_prime_is_fast_on_large_primes(p):
    # trial division up to sqrt(p) took minutes at 10**18 + 3
    start = time.perf_counter()
    require_prime(p)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p", [3317044064679887385961981, 2**89 - 1, 10**30])
def test_require_prime_refuses_p_beyond_its_bases(p):
    # 13 bases decide primality only below 3317044064679887385961981
    with pytest.raises(ValidationError) as info:
        require_prime(p)
    assert str(info.value) == (
        f"p = {p} is too large to test for primality (the limit is 3317044064679887385961980)"
    )


def test_model_json_keeps_validation_messages():
    with pytest.raises(ValidationError, match=r"^p must be prime, got 4$"):
        NilpotentModel.from_json_dict({"p": 4, "dim": 1, "entries": []})
    with pytest.raises(ValidationError) as info:
        NilpotentModel.from_json_dict({"p": 5, "dim": 2, "entries": [[0, 1, 1], [1, 0, 1]]})
    assert str(info.value) == "matrix is not nilpotent of order <= 5 (rank of N^5 is 2)"
