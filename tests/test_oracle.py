import inspect
import json
import random
import time
import tracemalloc
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_reference
from dense_reference import (
    dense,
    from_dense,
    invert_mod_p,
    mat_mul_mod_p,
    random_invertible,
    rank_mod_p,
)
from model_reference import (
    model, model_from_type, model_json_dict, power_model, sl2_simple_models,
)
from jordanquiver import errors, oracle
from jordanquiver.errors import ParseError, ValidationError, json_value
from jordanquiver.jtypes import JordanType, pi_point_sweep, require_prime, restrict, restrict_type
from jordanquiver.oracle import (
    NilpotentModel,
    abelian_rank2_models,
    ga2_model,
    heisenberg_model,
    jordan_type_of,
    random_conjugate,
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


# every odd prime up to 31, then a sample up to 53; the Heisenberg, ga2 and
# sl2s Verma tests also run at p = 101, where each Jordan chain walks about
# p one-entry vectors
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def dense_rank_sequence(p, rows):
    """rank_mod_p of N^0, ..., N^p, the powers built by repeated mat_mul_mod_p."""
    dim = len(rows)
    power = [[int(r == c) for c in range(dim)] for r in range(dim)]
    ranks = []
    for _ in range(p + 1):
        ranks.append(rank_mod_p(power, p) if dim else 0)
        if not any(map(any, power)):
            # every later power is zero too
            return tuple(ranks + [0] * (p + 1 - len(ranks)))
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
        model(3, 2, [(0, 0, 1)])
    with pytest.raises(ValidationError):
        model(3, 2, [(0, 1, 1), (1, 0, 1)])


def test_jordan_type_of_basic_models():
    p = 5
    assert jordan_type_of(model_from_type(JordanType.block(p, p))) == JordanType.block(p, p)
    zero = model(p, 4, [])
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


@pytest.mark.parametrize("p", ODD_PRIMES + [101])
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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
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


@pytest.mark.parametrize(
    "p,i", [(p, i) for p in ODD_PRIMES for i in range(1, p)] + [(101, i) for i in (1, 7, 50, 100)])
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
@given(st.sampled_from([3, 5, 7, 11, 13]), st.data())
def test_jordan_type_invariant_under_conjugation(p, data):
    mult = data.draw(st.lists(st.integers(0, 2), min_size=p, max_size=p))
    jt = JordanType(p, tuple(mult))
    model = model_from_type(jt)
    if model.dim == 0:
        return
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    assert jordan_type_of(random_conjugate(model, rng)) == jt


def random_blocks(rng, top, dim):
    """Random block sizes of at most top, summing to dim."""
    sizes = []
    while dim:
        sizes.append(rng.randint(1, min(top, dim)))
        dim -= sizes[-1]
    return sizes


def shift_rows(sizes):
    """The block-diagonal shift with Jordan blocks of the given sizes, as rows."""
    dim = sum(sizes)
    rows = [[0] * dim for _ in range(dim)]
    offset = 0
    for size in sizes:
        for r in range(offset + 1, offset + size):
            rows[r][r - 1] = 1
        offset += size
    return rows


def dense_conjugate(rows, p, rng):
    """g N g^-1 for a dense random invertible g over F_p, as rows."""
    g = random_invertible(len(rows), p, rng)
    return mat_mul_mod_p(mat_mul_mod_p(g, rows, p), invert_mod_p(g, p), p)


@pytest.mark.parametrize("p", [17, 23, 31])
def test_dense_conjugates_at_larger_primes(p):
    # one [p] block, so the chain runs to N^p, and dim <= 2p
    rng = random.Random(p)
    for _ in range(3):
        sizes = [p, *random_blocks(rng, p, rng.randint(1, p))]
        conj = from_dense(p, dense_conjugate(shift_rows(sizes), p, rng))
        assert jordan_type_of(conj) == JordanType.from_counts(p, Counter(sizes))


def test_random_conjugate_moves_the_entries():
    # a conjugation that returned its input would pass the type check above
    rng = random.Random(1)
    for base in [heisenberg_model(5), model_from_type(JordanType.from_string(7, "[4]+2[2]+[1]")),
                 sl2s_models(11, 4)[0]]:
        conj = random_conjugate(base, rng)
        assert conj.p == base.p and conj.dim == base.dim
        assert conj.columns != base.columns
        assert conj.rank_sequence == base.rank_sequence
    zero = model(5, 10**5, [])
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


# ------------------------------------------------------------- chain kernels


def kernel_log(monkeypatch):
    """Wrap both chain kernels; the list names the kernel of every step, in order."""
    log = []
    for name in ("_dict_step", "_packed_step"):
        def logged(op, *args, kernel=getattr(oracle, name), name=name):
            log.append(name)
            return kernel(op, *args)
        monkeypatch.setattr(oracle, name, logged)
    return log


def forced_route(monkeypatch, dense):
    """Make ``_is_dense`` answer ``dense`` for every operator; the list names
    the kernel of every chain step, in order, and stays empty on the Krylov route."""
    monkeypatch.setattr(oracle, "_is_dense", lambda cols, n: dense)
    return kernel_log(monkeypatch)


def refuse(monkeypatch, name):
    """Make the oracle function ``name`` raise whenever it is called."""
    def refused(*args):
        raise AssertionError(f"{name} ran")
    monkeypatch.setattr(oracle, name, refused)


def chain_ranks(rows, p):
    """``column_chain_ranks`` of a matrix given by its rows."""
    n = len(rows)
    cols = {c: [(r, rows[r][c] % p) for r in range(n) if rows[r][c] % p] for c in range(n)}
    return column_chain_ranks({c: col for c, col in cols.items() if col}, n, p)


def column_chain_ranks(cols, n, p, step=None):
    """The ranks of the image chain of an operator on F_p^n given by its nonzero
    columns, every step packed in the slots of n coordinates, or every step on
    ``step`` (columns -> rank, restriction) when given, up to where the chain
    stops: no padding to p + 1 terms, so p may be past what a
    ``NilpotentModel`` can hold."""
    if step is None:
        code = oracle._packed_code(n, p)
        op, step = oracle._rows_of(cols, code[0]), lambda rows: oracle._packed_step(rows, code, p)
    else:
        op = cols
    ranks = [n]
    while ranks[-1] and len(ranks) <= p:
        rank, op = step(op)
        ranks.append(rank)
        if rank == ranks[-2]:
            break
    return ranks


def reference_chain_ranks(cols, n, p):
    """``column_chain_ranks`` with every step on the plain dict kit of
    ``dict_reference``, which shares no code with the oracle's kernels."""
    return column_chain_ranks(cols, n, p, lambda cols: dict_reference.dict_step(cols, p))


def dict_chain_ranks(cols, n, p):
    """``column_chain_ranks`` with every step on the oracle's ``_dict_step``."""
    return column_chain_ranks(cols, n, p, lambda cols: oracle._dict_step(cols, p))


def fill(rows):
    return sum(map(bool, (x for row in rows for x in row))) / len(rows) ** 2


@pytest.mark.parametrize("p", [7, 13, 31])
def test_packed_kernel_matches_dense_reference(p, monkeypatch):
    rng = random.Random(p)
    log = kernel_log(monkeypatch)
    nilpotent = 0
    for trial in range(8):
        kind = trial % 4
        if kind == 0:  # dense and nilpotent: a dense conjugate of a random type
            rows = dense_conjugate(shift_rows(random_blocks(rng, p, rng.randint(10, 40))), p, rng)
        elif kind == 1:  # half dense: strictly lower triangular, relabelled; nilpotent iff N^p = 0
            dim = rng.randint(10, 40 if p > 7 else 16)
            perm = rng.sample(range(dim), dim)
            rows = [[rng.randrange(p) if perm[c] < perm[r] else 0 for c in range(dim)]
                    for r in range(dim)]
        elif kind == 2:  # dense, every entry drawn
            dim = rng.randint(10, 16)
            rows = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        else:  # half dense, each entry nonzero with probability about 1/2
            dim = rng.randint(10, 16)
            rows = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(dim)]
                    for _ in range(dim)]
        expected = dense_rank_sequence(p, rows)
        log.clear()
        if expected[p] == 0:
            nilpotent += 1
            assert from_dense(p, rows).rank_sequence == expected, (p, rows)
        else:
            message = f"matrix is not nilpotent of order <= {p} (rank of N^{p} is {expected[p]})"
            with pytest.raises(ValidationError) as info:
                from_dense(p, rows)
            assert str(info.value) == message, (p, rows)
        assert set(log) == {"_packed_step"}, (p, kind, fill(rows))
    assert 2 <= nilpotent <= 6


def slot_width(n, p):
    return oracle._packed_code(n, p)[0]


def packed_cols(rows, width):
    """The nonzero columns of an operator given by its nonzero packed rows, keyed
    by t, each entry at its ambient row and slot."""
    mask = (1 << width) - 1
    cols = {}
    for t, v in rows.items():
        c = 0
        while v:
            if y := v & mask:
                cols.setdefault(c, []).append((t, y))
            v >>= width
            c += 1
    return cols


def labelled(cols, pivots):
    """The entries of an operator given in the coordinates of a reduced echelon
    basis, keyed by the pivots of the basis vectors instead of their order."""
    return {(pivots[r], pivots[c]): v for c, col in cols.items() for r, v in col}


def step_inputs(p, rng):
    """Dense, half-dense and non-nilpotent matrices over F_p, as rows."""
    for _ in range(2):
        yield dense_conjugate(shift_rows(random_blocks(rng, p, rng.randint(10, 30))), p, rng)
        dim = rng.randint(10, 30)
        perm = rng.sample(range(dim), dim)
        yield [[rng.randrange(p) if perm[c] < perm[r] else 0 for c in range(dim)]
               for r in range(dim)]
        dim = rng.randint(8, 16)
        yield [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(dim)]
               for _ in range(dim)]
        yield [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]


@pytest.mark.parametrize("p", [7, 13, 31])
def test_packed_steps_match_dict_steps(p):
    # each step of a packed run against the plain dict kit of dict_reference
    # on the same operator, read at its ambient slots: the same rank, and the
    # same restriction once each dict basis vector is named by its pivot, the
    # slot where the packed kit keeps that coordinate; the packed rows are
    # keyed by pivots alone
    rng = random.Random(p)
    steps = non_nilpotent = 0
    for rows in step_inputs(p, rng):
        n = len(rows)
        ambient = range(n)
        code = oracle._packed_code(n, p)
        width = code[0]
        op = oracle._rows_of(nonzero_columns(rows), width)
        while True:
            cols = packed_cols(op, width)
            rank, packed = oracle._packed_step(op, code, p)
            dict_rank, restricted = dict_reference.dict_step(cols, p)
            pivots = list(dict_reference.reduced_echelon((dict(col) for col in cols.values()), p))
            assert rank == dict_rank == len(pivots), (p, rows)
            assert labelled(packed_cols(packed, width), ambient) == labelled(
                restricted, pivots), (p, rows)
            assert set(packed) <= set(pivots), (p, rows)
            steps += 1
            if rank in (0, n):
                non_nilpotent += rank > 0
                break
            op, n = packed, rank
    assert steps > 40 and non_nilpotent >= 2


def sparse_rows(rng, p, dim, nilpotent):
    """A sparse dim x dim matrix over F_p, as rows.  Each column is empty, holds
    one entry or holds two to four, on rows drawn from about half of range(dim),
    so that one-entry columns share rows; strictly lower triangular under a
    random relabelling when nilpotent."""
    order = rng.sample(range(dim), dim)
    pool = rng.sample(range(dim), max(2, dim // 2))
    rows = [[0] * dim for _ in range(dim)]
    for c in range(dim):
        choices = [r for r in pool if not nilpotent or order[r] > order[c]]
        k = rng.choice((0, 1, 1, 1, 2, 3, 4))
        for r in rng.sample(choices, min(k, len(choices))):
            rows[r][c] = rng.randrange(1, p)
    return rows


def dict_branches(cols):
    """The branches of the dict kit that a step on ``cols`` must reach, read off
    the operator alone, in the order ``_insert`` meets its columns."""
    reached = set()
    met = set()  # rows of earlier columns: a row outside it holds no pivot yet
    pivot_rows = set()  # rows of earlier one-entry columns: each holds a pivot
    # the rows of all one-entry columns, each a pivot once every column is met
    last_pivot_rows = {col[0][0] for col in cols.values() if len(col) == 1}
    for col in cols.values():
        rows = [r for r, _ in col]
        if len(rows) > 1:
            reached.add("several entries")
            # kept whole as the pivot vector of its smallest row, it meets another pivot
            if min(rows) not in met and set(rows) - {min(rows)} & last_pivot_rows:
                reached.add("back substitution")
        elif rows[0] in pivot_rows:
            reached.add("one entry on a pivot row")
        elif rows[0] not in met:
            reached.add("one entry on a fresh row")
            if rows[0] not in cols:  # the basis vector e_r, and A e_r = 0
                reached.add("one-entry basis vector, empty column")
        met.update(rows)
        if len(rows) == 1:
            pivot_rows.add(rows[0])
    return reached


@pytest.mark.parametrize("p", [5, 13, 31])
def test_dict_steps_match_the_plain_dict_kit(p, monkeypatch):
    # sparse operators through every branch of the dict kit, _insert's
    # one-entry path included: the chain against dense powers, and each step
    # against the plain dict kit, for the same basis in the same order and
    # the same restriction
    refuse(monkeypatch, "_packed_step")
    rng = random.Random(p)
    reached = Counter()
    for trial in range(30):
        nilpotent = trial % 3 > 0
        rows = sparse_rows(rng, p, rng.randint(4, 24 if nilpotent else 14), nilpotent)
        n = len(rows)
        cols = {c: col for c in range(n)
                if (col := [(r, rows[r][c]) for r in range(n) if rows[r][c]])}
        ranks, expected = dict_chain_ranks(cols, n, p), dense_rank_sequence(p, rows)
        assert padded(ranks, p) == list(expected), (p, rows)
        while cols:
            reached.update(dict_branches(cols))
            rank, restricted = oracle._dict_step(cols, p)
            plain_rank, plain_restricted = dict_reference.dict_step(cols, p)
            pivots = list(dict_reference.reduced_echelon((dict(col) for col in cols.values()), p))
            assert rank == plain_rank == len(pivots), (p, rows)
            assert labelled(restricted, pivots) == labelled(plain_restricted, pivots), (p, rows)
            if rank == n:
                break
            cols, n = restricted, rank
    assert set(reached) == {
        "one entry on a fresh row", "one entry on a pivot row", "several entries",
        "back substitution", "one-entry basis vector, empty column",
    }
    assert min(reached.values()) >= 20, reached


def test_a_packed_run_keeps_its_first_slot_width(monkeypatch):
    # at p = 7 the slot bound 6 + 36 n has 9 bits at n = 14 and 8 bits up to
    # n = 6, so the first step on 14 coordinates packs into 19-bit slots, and
    # the later steps on at most 6 coordinates stay in them
    p, sizes = 7, [7, 4, 3]
    assert slot_width(14, p) == 19 and slot_width(6, p) == 17
    steps = []

    def logged(rows, code, p, kernel=oracle._packed_step):
        steps.append((len(rows), code[0]))
        return kernel(rows, code, p)

    monkeypatch.setattr(oracle, "_packed_step", logged)
    rows = dense_conjugate(shift_rows(sizes), p, random.Random(3))
    assert chain_ranks(rows, p) == block_ranks(sizes, p)
    assert steps[0] == (14, 19)
    assert {width for _, width in steps} == {19}
    assert min(n for n, _ in steps) <= 6


def block_ranks(sizes, top):
    """rank N^m = sum of max(size - m, 0) over the Jordan blocks of N, for m = 0..top."""
    return [sum(max(size - m, 0) for size in sizes) for m in range(top + 1)]


@pytest.mark.parametrize("p", [7, 13, 31])
def test_kernels_agree_along_a_fill_sweep(p, monkeypatch):
    # from a monomial model (fill under 1/4) through repeated conjugation
    # up to a full matrix, each model on both routes: the Krylov route, and
    # the image chain with every step packed
    rng = random.Random(p)
    sizes = [p, *random_blocks(rng, p, min(p, 12))]
    jt = JordanType.from_counts(p, Counter(sizes))
    model = model_from_type(jt)
    fills = []
    while not fills or fills[-1] < 0.8:
        assert len(fills) < 12
        fills.append(sum(len(col) for _, col in model.columns) / model.dim ** 2)
        for dense in (False, True):
            log = forced_route(monkeypatch, dense)
            assert oracle._image_chain_ranks(model.dim, model.columns, p) == block_ranks(sizes, p)
            assert set(log) == ({"_packed_step"} if dense else set()), log
            monkeypatch.undo()
        assert jordan_type_of(model) == jt
        model = random_conjugate(model, rng)
    assert fills[0] < 1 / 4 < fills[-1]


def _next_prime(n):
    while True:
        try:
            require_prime(n)
            return n
        except ValidationError:
            n += 1


# the ids are the struct codes of unsigned 8-, 16-, 32- and 64-bit items
@pytest.mark.parametrize("w", [8, 16, 32, 64], ids=["B", "H", "I", "Q"])
def test_packed_kernel_at_the_largest_n_of_each_slot_width(w, monkeypatch):
    # p with about 40 coordinates to w bits, and the largest n whose slot
    # bound (p-1) + n (p-1)^2 has w bits: its slots are 2w + 1 bits wide,
    # and one more coordinate widens them
    p = _next_prime(max(3, isqrt(2**w // 40)))
    n = (2**w - 1 - (p - 1)) // (p - 1) ** 2
    assert 2 ** (w - 1) <= (p - 1) + n * (p - 1) ** 2 < 2**w <= (p - 1) + (n + 1) * (p - 1) ** 2
    assert slot_width(n, p) == 2 * w + 1
    assert slot_width(n + 1, p) == 2 * w + 3
    # at p = 2 the bound is 1 + n, so the start value p - 1 counts too;
    # _packed_code builds its mask over all n slots, so this runs where
    # n = 2^w - 1 slots fit in memory
    if w <= 16:
        assert slot_width(2**w - 2, 2) == 2 * w + 1 != slot_width(2**w - 1, 2)
    log = kernel_log(monkeypatch)
    # every entry p - 1: N = (p-1) J with J^2 = n J, so the chain stops at N^2
    rows = [[p - 1] * n for _ in range(n)]
    square = mat_mul_mod_p(rows, rows, p)
    assert chain_ranks(rows, p) == [n, rank_mod_p(rows, p), rank_mod_p(square, p)]
    assert set(log) == {"_packed_step"}
    # and a dense conjugate of a nilpotent shift, where elimination runs in earnest
    rng = random.Random(w)
    sizes = random_blocks(rng, min(p, n), n)
    log.clear()
    expected = block_ranks(sizes, max(sizes))
    assert chain_ranks(dense_conjugate(shift_rows(sizes), p, rng), p) == expected
    assert set(log) == {"_packed_step"}


def test_a_slot_summing_to_its_top_bit_is_read_whole(monkeypatch):
    # at p = 2 rows 0..127 are the pivot rows e_j + e_128 (j < 128), and
    # row 200, the sum of their e_j, takes one multiply-add from each,
    # each adding 1 at column 128: its slot 128 reaches 128 = 0 mod 2, the
    # top bit of the 8 bits of the slot bound 1 + 254, and the row is
    # reduced with that bit set
    p, n = 2, 254
    columns = [(j, ((j, 1), (200, 1))) for j in range(128)]
    columns.append((128, tuple((j, 1) for j in range(128))))
    assert slot_width(n, p) == 17
    # N is not nilpotent, so the sparse route falls back to the chain on dicts
    for dense, route in [(False, ["_dict_step"] * 2), (True, ["_packed_step"] * 2)]:
        log = forced_route(monkeypatch, dense)
        assert oracle._image_chain_ranks(n, columns, p) == [n, 128, 128]
        assert log == route
        monkeypatch.undo()


def test_a_modulus_past_64_bit_slots_packs(monkeypatch):
    # at p = 2^61 - 1 the slot bound of 4 coordinates has 124 bits, past any
    # 64-bit item: the rows pack into 249-bit slots, every step runs packed,
    # and the ranks are those of dense powers
    p = 2**61 - 1
    refuse(monkeypatch, "_dict_step")
    log = kernel_log(monkeypatch)
    assert slot_width(4, p) == 249
    rows = dense_conjugate(shift_rows([3, 1]), p, random.Random(61))
    assert fill(rows) > 1 / 4
    expected = [rank_mod_p(matrix_power(rows, m, p), p) for m in range(4)]
    assert chain_ranks(rows, p) == expected == [4, 2, 1, 0]
    assert log == ["_packed_step"] * 3


def assert_reduces(n, p, values):
    """``reduce`` of ``_packed_code`` for n coordinates takes the values, packed n
    to a row from the lowest slot and again from the highest, to their
    residues mod p."""
    width, reduce = oracle._packed_code(n, p)
    for k in range(0, len(values), n):
        chunk = values[k:k + n]
        for low in (0, n - len(chunk)):
            row = sum(x << (low + i) * width for i, x in enumerate(chunk))
            expected = sum(x % p << (low + i) * width for i, x in enumerate(chunk))
            assert reduce(row) == expected, (n, p, chunk, low)


def test_the_row_reduction_is_exact_below_two_to_the_w():
    # every slot value 0..2^w - 1 at small w: each prime up to 13 with 1 to
    # 12 coordinates, whose slot bounds have 2 to 11 bits
    widths = set()
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 13):
            w = slot_width(n, p) // 2
            assert 2 ** (w - 1) <= (p - 1) + n * (p - 1) ** 2 < 2**w
            assert_reduces(n, p, list(range(2**w)))
            widths.add(w)
    assert widths == set(range(2, 12))


EDGE_PRIMES = [2, 3, 7, 13, 31, 65537, 10**9 + 7, 2**61 - 1]


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_the_row_reduction_is_exact_at_the_edge_values(p):
    # the slot widths of 1 to 1000 coordinates, each with the values next to
    # the multiples of p, to 2^(w - 1), to the slot bound and to 2^w - 1,
    # in a random order among zero slots
    rng = random.Random(p)
    for n in (1, 2, 4, 52, 1000):
        w = slot_width(n, p) // 2
        bound = (p - 1) + n * (p - 1) ** 2
        assert 2 ** (w - 1) <= bound < 2**w
        values = {x + d for x in (p, 2 * p, bound // p * p, 2**w - 1, 2 ** (w - 1), bound)
                  for d in (-2, -1, 0, 1)}
        values = sorted(x for x in values if 0 <= x < 2**w) + [0] * 8
        rng.shuffle(values)
        assert_reduces(n, p, values)


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_packed_chain_matches_dense_powers_at_any_p(p, monkeypatch):
    # operators, nilpotent or not, on up to 12 coordinates: every step
    # packed, and the chain's ranks against rank_mod_p of dense powers up to
    # where the ranks settle, N^(n + 1) or N^p
    rng = random.Random(f"edge-{p}")
    refuse(monkeypatch, "_dict_step")
    nilpotent = 0
    for trial in range(12):
        n = rng.randint(2, 12)
        if trial % 3 == 0:
            rows = dense_conjugate(shift_rows(random_blocks(rng, min(p, n), n)), p, rng)
        elif trial % 3 == 1:  # strictly lower triangular, relabelled
            perm = rng.sample(range(n), n)
            rows = [[rng.randrange(p) if perm[c] < perm[r] else 0 for c in range(n)]
                    for r in range(n)]
        else:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        top = min(p, n + 1)
        expected = [rank_mod_p(matrix_power(rows, m, p), p) for m in range(top + 1)]
        nilpotent += expected[-1] == 0
        assert padded(chain_ranks(rows, p), top) == expected, (p, rows)
    assert nilpotent >= 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_filling_fallback_switches_to_packed_once(seed, monkeypatch):
    # a sparse N that is not nilpotent falls back from the Krylov route to
    # the image chain on dicts; once the restriction to a term fills past
    # n^2 / 4 it is packed once, in the slots of that term's coordinates,
    # and every later step runs packed
    p, n = 101, 200
    rng = random.Random(seed)
    cols = {c: col for c in range(n)
            if (col := [(r, rng.randrange(1, p)) for r in rng.sample(range(n), rng.randint(0, 3))])}
    expected = padded(reference_chain_ranks(cols, n, p), p)  # on the plain dict kit
    log = kernel_log(monkeypatch)
    codes = []

    def packed_code(n, p, code=oracle._packed_code):
        codes.append(n)
        return code(n, p)

    monkeypatch.setattr(oracle, "_packed_code", packed_code)
    with pytest.raises(ValidationError) as info:
        model(p, n, [(r, c, v) for c, col in cols.items() for r, v in col])
    assert expected[p] and str(info.value) == (
        f"matrix is not nilpotent of order <= {p} (rank of N^{p} is {expected[p]})")
    switch = log.index("_packed_step")
    assert switch >= 1 and set(log[:switch]) == {"_dict_step"}, log
    assert set(log[switch:]) == {"_packed_step"}, log
    assert codes == [expected[switch]]  # the rank of the term it switched on
    # each step against the plain dict chain's ranks, up to where the chain stops
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_krylov_ranks", lambda dim, cols, p: None)
    assert oracle._image_chain_ranks(n, cols.items(), p) == expected


SIX_BY_SIX = (
    '{"p":5,"dim":6,"entries":[[0,0,2],[0,1,4],[0,2,2],[0,3,3],[0,4,3],[0,5,4],[1,0,1],'
    '[1,1,1],[1,2,3],[1,3,2],[1,4,3],[1,5,3],[2,0,2],[2,1,3],[2,2,4],[2,3,3],[2,4,3],[2,5,4],'
    '[3,0,1],[3,1,3],[3,2,4],[3,3,3],[3,4,4],[3,5,3],[4,0,3],[4,1,2],[4,2,1],[4,3,1],[4,4,2],'
    '[4,5,2],[5,0,4],[5,1,3],[5,2,4],[5,3,4],[5,4,4],[5,5,3]]}'
)


def test_dense_models_reach_the_packed_kernel(monkeypatch):
    refuse(monkeypatch, "_dict_step")
    refuse(monkeypatch, "_krylov_ranks")
    model = NilpotentModel.from_json_dict(json.loads(SIX_BY_SIX))
    assert jordan_type_of(model) == JordanType.from_string(5, "[4]+[2]")
    rng = random.Random(5)
    for p, sizes in [(7, [7, 4, 2, 2]), (13, [13, 6, 1])]:
        model = from_dense(p, dense_conjugate(shift_rows(sizes), p, rng))
        assert jordan_type_of(model) == JordanType.from_counts(p, Counter(sizes))


# the dense conjugate of [7]+[3]+[2] at p = 7 that CI runs through `oracle json`
DIM_12_AT_7 = (
    '{"p":7,"dim":12,"entries":[[0,0,3],[0,1,4],[0,2,6],[0,3,1],[0,4,4],[0,5,5],[0,6,2],'
    '[0,7,5],[0,8,4],[0,10,6],[1,0,3],[1,1,4],[1,2,5],[1,3,3],[1,4,2],[1,5,6],[1,6,2],'
    '[1,7,4],[1,8,3],[1,9,2],[1,10,6],[1,11,6],[2,1,2],[2,2,4],[2,3,6],[2,4,4],[2,5,4],'
    '[2,6,2],[2,7,6],[2,9,4],[2,10,4],[2,11,6],[3,0,3],[3,2,2],[3,3,2],[3,4,5],[3,8,6],'
    '[3,9,6],[3,10,2],[3,11,4],[4,0,2],[4,1,5],[4,2,4],[4,3,5],[4,4,4],[4,5,5],[4,6,1],'
    '[4,7,6],[4,8,4],[4,10,5],[4,11,6],[5,0,2],[5,2,3],[5,3,1],[5,4,3],[5,5,3],[5,6,5],'
    '[5,8,5],[5,10,5],[6,1,6],[6,2,6],[6,3,5],[6,4,6],[6,5,3],[6,6,6],[6,7,3],[6,8,1],'
    '[6,9,4],[6,10,2],[6,11,3],[7,0,1],[7,1,1],[7,2,4],[7,3,1],[7,4,3],[7,5,2],[7,6,5],'
    '[7,7,3],[7,8,2],[7,11,5],[8,0,2],[8,1,3],[8,2,4],[8,4,4],[8,5,1],[8,7,1],[8,9,6],'
    '[8,11,3],[9,0,3],[9,1,6],[9,2,2],[9,3,2],[9,4,5],[9,5,2],[9,6,4],[9,7,5],[9,8,3],'
    '[9,9,2],[9,10,2],[9,11,2],[10,1,1],[10,2,6],[10,4,3],[10,5,2],[10,6,4],[10,7,3],'
    '[10,8,2],[10,9,5],[10,10,1],[10,11,6],[11,0,3],[11,1,3],[11,2,4],[11,4,1],[11,5,2],'
    '[11,6,6],[11,7,6],[11,8,6],[11,10,3],[11,11,3]]}'
)


def test_a_dense_model_runs_every_step_packed(monkeypatch):
    # its chain has ranks 12, 9, 6, 4, 3, 2, 1, 0: one packed step on each
    # term, the tail on 2 and 1 coordinates included, all in the 19-bit
    # slots that 12 coordinates need; a step's nonzero rows lie on the
    # pivot rows of the step before
    refuse(monkeypatch, "_dict_step")
    refuse(monkeypatch, "_krylov_ranks")
    steps = []

    def logged(rows, code, p, kernel=oracle._packed_step):
        rank, restricted = kernel(rows, code, p)
        steps.append((len(rows), code[0], rank))
        return rank, restricted

    monkeypatch.setattr(oracle, "_packed_step", logged)
    model = NilpotentModel.from_json_dict(json.loads(DIM_12_AT_7))
    assert jordan_type_of(model) == JordanType.from_string(7, "[7]+[3]+[2]")
    assert [(width, rank) for _, width, rank in steps] == [
        (19, rank) for rank in (9, 6, 4, 3, 2, 1, 0)]
    assert steps[0][0] == 12
    assert all(n <= rank for (n, _, _), (_, _, rank) in zip(steps[1:], steps))


@pytest.mark.parametrize("n", [4, 6, 10])
def test_the_route_is_picked_at_a_quarter_fill(n, monkeypatch):
    # n^2 / 4 nonzero entries strictly below the diagonal take the Krylov
    # route and run no chain step; one more entry takes the image chain,
    # every step of it packed, and skips the Krylov route
    p = 13
    rng = random.Random(n)
    below = [(r, c) for r in range(n) for c in range(r)]
    entries = [(r, c, rng.randrange(1, p)) for r, c in rng.sample(below, n * n // 4 + 1)]
    log = kernel_log(monkeypatch)
    routes = []

    def krylov(dim, cols, p, kernel=oracle._krylov_ranks):
        routes.append(sum(map(len, cols.values())))
        return kernel(dim, cols, p)

    monkeypatch.setattr(oracle, "_krylov_ranks", krylov)
    for k, route in [(n * n // 4, [n * n // 4]), (n * n // 4 + 1, [])]:
        log.clear()
        routes.clear()
        built = model(p, n, entries[:k])
        assert built.rank_sequence == dense_rank_sequence(p, dense(built)), (n, k)
        assert routes == route and (log == []) == bool(route), (n, k, log)
        assert set(log) <= {"_packed_step"}


def test_named_models_stay_on_dicts(monkeypatch):
    refuse(monkeypatch, "_packed_step")
    for p in [3, 5, 7, 13, 31]:
        heisenberg_model(p)
        abelian_rank2_models(p)
        ga2_model(p)
        for i in range(1, p):
            sl2s_models(p, i)
            sl2_simple_models(p, i)
            power_model(model_from_type(JordanType.block(p, p)), i)
        model_from_type(JordanType(p, (2,) * p))
    huge = model(5, 10**5, [(1, 0, 1), (2, 1, 1), (3, 2, 1)])
    assert huge.rank_sequence == (10**5, 3, 2, 1, 0, 0)


def test_named_models_are_built_from_their_columns(monkeypatch):
    # p is checked once, at the boundary, and each model is built by
    # oracle._model from its columns, with no per-entry check; the columns
    # come out of the builder canonical, with no sort
    refuse(monkeypatch, "_columns")
    for p in (3, 13, 31):
        assert jordan_type_of(heisenberg_model(p)) == JordanType.from_counts(
            p, {**dict.fromkeys(range(1, p), 2), p: 1})
        assert [jordan_type_of(m) for m in abelian_rank2_models(p)] == [
            JordanType.block(p, 1, p), JordanType.from_counts(p, {1: p - 2, 2: 1})]
        assert [jordan_type_of(m) for m in ga2_model(p)] == [
            JordanType.block(p, 1, p), restrict(p, 2, p).with_modulus(p)]
        for i in (1, 2, p - 1):
            assert [jordan_type_of(m) for m in sl2s_models(p, i)] == [
                JordanType.from_counts(p, Counter([i, p - i])), JordanType.block(p, p)]


def canonical(p, columns):
    """Whether ``columns`` hold c and r increasing, v in 1..p-1 and no empty column."""
    cs = [c for c, _ in columns]
    return cs == sorted(set(cs)) and all(
        col and [r for r, _ in col] == sorted({r for r, _ in col}) and all(0 < v < p for _, v in col)
        for _, col in columns)


def builder_dicts(p):
    """(model, its columns as ``{c: {r: v}}``) for each trusted builder at p.

    The dicts come from each builder's formula with nothing reduced,
    zero coefficients included, such as e.v_i = i (i - i) v_(i-1) of
    the sl(2) Vermas.
    """
    out = [(heisenberg_model(p),
            {n * p + m: {(n - 1) * p + m + 1: n} for n in range(1, p) for m in range(p - 1)})]
    out += zip(abelian_rank2_models(p), [{}, {0: {p - 1: 1}}])
    out += zip(ga2_model(p), [{}, {c: {c + 2: 1} for c in range(p - 2)}])
    for i in range(1, p):
        out += zip(sl2s_models(p, i), [{j: {j - 1: j * (i - j)} for j in range(1, p)},
                                       {j: {j + 1: 1} for j in range(p - 1)}])
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_trusted_builders_write_canonical_columns(p):
    # oracle._model takes canonical columns and sorts nothing, so
    # each builder that skips _columns must write what _columns would give
    # for its formula: the vanishing e.v_i of the sl(2) Vermas dropped
    rng = random.Random(p)
    for model, cols in builder_dicts(p):
        assert canonical(p, model.columns), model.columns
        assert model.columns == tuple(oracle._columns(p, cols)), (p, cols)
        # random_conjugate, and from_json_dict under power_model, pass
        # through _columns
        for built in (random_conjugate(model, rng), power_model(model, rng.randint(1, p))):
            assert canonical(p, built.columns), built.columns
            own = {c: dict(col) for c, col in built.columns}
            assert built.columns == tuple(oracle._columns(p, own))


@pytest.mark.parametrize("build,args,message", [
    (heisenberg_model, (4,), "p must be prime, got 4"),
    (heisenberg_model, (2,), "heisenberg model needs p >= 3, got 2"),
    (heisenberg_model, (2**64 - 59,),
     "p must be at most sys.maxsize = 9223372036854775807, got 18446744073709551557"),
    (abelian_rank2_models, (10**20 - 1,), "p must be prime, got 99999999999999999999"),
    (abelian_rank2_models, (2**64 - 59,),
     "p must be at most sys.maxsize = 9223372036854775807, got 18446744073709551557"),
    (ga2_model, (9,), "p must be prime, got 9"),
    (ga2_model, (2,), "height-2 model needs odd p >= 3, got 2"),
    (sl2s_models, (9, 3), "p must be prime, got 9"),
    (sl2s_models, (9, 20), "highest-weight parameter i=20 out of range 1..8"),
    (sl2s_models, (10**20 - 1, 3),
     "p must be at most sys.maxsize = 9223372036854775807, got 99999999999999999999"),
    # the reference builders of model_reference check nothing themselves:
    # from_json_dict, which they build through, refuses p with the same
    # messages
    (sl2_simple_models, (9, 3), "p must be prime, got 9"),
    (sl2s_models, (2, 1), "sl(2) models need p >= 3, got 2"),
    (sl2_simple_models, (2**64 - 59, 3),
     "p must be at most sys.maxsize = 9223372036854775807, got 18446744073709551557"),
    # a composite p up to sys.maxsize, refused before any of its p or p^2
    # entries is built
    (heisenberg_model, (10**18,), "p must be prime, got 1000000000000000000"),
    (sl2s_models, (10**18, 1), "p must be prime, got 1000000000000000000"),
    # a JordanType checks its modulus, not that it is prime
    (model_from_type, (JordanType.block(4, 2),), "p must be prime, got 4"),
])
def test_named_models_check_p_in_order(build, args, message):
    # each model checks p once, at the boundary, in the order that gives the
    # messages from_json_dict's own checks give
    with pytest.raises(ValidationError) as info:
        build(*args)
    assert str(info.value) == message


def test_a_huge_sparse_dim_allocates_no_slots():
    # the fill is counted against dim, once, when the route is picked, so
    # 10^5 coordinates with three entries take the Krylov route and never
    # allocate the packed kit's n slots
    tracemalloc.start()
    try:
        model(5, 10**5, [(1, 0, 1), (2, 1, 1), (3, 2, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


@pytest.mark.parametrize("entries,rank", [
    ([(0, 0, 1)], 1),
    ([(10**29, 10**29, 3), (10**29, 10**29 + 7, 1)], 1),
    ([(10**29 + 1, 10**29 + 2, 1), (10**29 + 2, 10**29 + 1, 4), (3, 10**29 + 1, 2)], 2),
])
def test_a_huge_dim_that_is_not_nilpotent_allocates_no_slots(entries, rank):
    # the Krylov route rejects N, and its image chain runs on dicts, which
    # hold the entries alone, and packs only a restriction in the coordinates
    # of a term: packed on 10^30 slots, or with entries at their slots near
    # 10^29, it could not be allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            model(5, 10**30, entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"matrix is not nilpotent of order <= 5 (rank of N^5 is {rank})"
    assert peak < 10**5


def structured_entries(shape, n):
    """The identity, a cyclic shift or 2 x 2 swaps on n coordinates, as (r, c, 1)."""
    return {"identity": [(t, t, 1) for t in range(n)],
            "cycle": [((t + 1) % n, t, 1) for t in range(n)],
            "swaps": [(t ^ 1, t, 1) for t in range(n)]}[shape]


@pytest.mark.parametrize("shape", ["identity", "cycle", "swaps"])
def test_a_sparse_model_that_is_not_nilpotent_costs_what_its_entries_cost(shape, monkeypatch):
    # the Krylov route rejects each of these operators, and every term of
    # their image chain is all of F_p^n, a dict restriction with n entries
    # that never fills, so nothing is packed: packed rows would hold about
    # n^2 W / 2 bits, some 27 GB at n = 10^5 and p = 5.  Ten times the
    # entries take at most fifteen times the memory
    refuse(monkeypatch, "_packed_code")

    def rejected(n):
        with pytest.raises(ValidationError) as info:
            model(5, n, structured_entries(shape, n))
        assert str(info.value) == f"matrix is not nilpotent of order <= 5 (rank of N^5 is {n})"

    peaks = []
    for n in (10**3, 10**4):
        tracemalloc.start()
        try:
            rejected(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 15 * peaks[0], peaks
    rejected(10**5)


def test_no_option_selects_the_kernel():
    # the route of a model follows from its operator and p alone, picked
    # once in _image_chain_ranks
    assert list(inspect.signature(oracle._model).parameters) == ["p", "dim", "columns"]
    # from_json_dict is the one reader of entries, and _model the one builder
    assert not {"__init__", "_build"} & vars(NilpotentModel).keys()
    assert list(inspect.signature(oracle._image_chain_ranks).parameters) == ["dim", "columns", "p"]
    assert list(inspect.signature(oracle._krylov_ranks).parameters) == ["dim", "cols", "p"]
    assert list(inspect.signature(oracle._dict_step).parameters) == ["cols", "p"]
    # the caller's fill rule picks the kernel, and the slot width is fixed
    # from the n of the first packed step
    assert list(inspect.signature(oracle._is_dense).parameters) == ["cols", "n"]
    assert list(inspect.signature(oracle._packed_code).parameters) == ["n", "p"]
    assert list(inspect.signature(oracle._packed_step).parameters) == ["rows", "code", "p"]
    source = inspect.getsource(oracle)
    assert "environ" not in source and "getenv" not in source


# --------------------------------------------------------------- Krylov route


def padded(ranks, p):
    """A chain's ranks up to where it stops, repeated to p + 1 terms."""
    return ranks + [ranks[-1]] * (p + 1 - len(ranks))


def krylov_ranks(dim, cols, p):
    """``_krylov_ranks`` padded with its zero ranks to p + 1 terms, or None."""
    ranks = oracle._krylov_ranks(dim, cols, p)
    return None if ranks is None else ranks + [0] * (p + 1 - len(ranks))


def nonzero_columns(rows):
    n = len(rows)
    return {c: col for c in range(n) if (col := [(r, rows[r][c]) for r in range(n) if rows[r][c]])}


def matrix_power(rows, m, p):
    power = [[int(r == c) for c in range(len(rows))] for r in range(len(rows))]
    for _ in range(m):
        power = mat_mul_mod_p(power, rows, p)
    return power


@pytest.mark.parametrize("p", [2, 3, 5, 13, 31])
def test_krylov_route_matches_the_chain_and_dense_powers(p):
    # seeded sparse operators, nilpotent or not: the route gives the ranks of
    # dense powers exactly when N^p = 0, and None otherwise, where the chain
    # it falls back to gives them
    rng = random.Random(f"krylov-{p}")
    outcomes = Counter()
    for trial in range(60):
        nilpotent = trial % 3 > 0
        rows = sparse_rows(rng, p, rng.randint(2, 24 if nilpotent else 14), nilpotent)
        n, cols = len(rows), nonzero_columns(rows)
        expected = list(dense_rank_sequence(p, rows))
        assert padded(column_chain_ranks(cols, n, p), p) == expected, (p, rows)
        route = krylov_ranks(n, cols, p)
        if not expected[p]:
            outcomes["nilpotent"] += 1
            assert route == expected, (p, rows)
            assert from_dense(p, rows).rank_sequence == tuple(expected)
            continue
        assert route is None, (p, rows)
        # nilpotent of an order past p, or not nilpotent at all
        outcomes["not nilpotent" if rank_mod_p(matrix_power(rows, n, p), p) else "N^p != 0"] += 1
        message = f"matrix is not nilpotent of order <= {p} (rank of N^{p} is {expected[p]})"
        with pytest.raises(ValidationError) as info:
            from_dense(p, rows)
        assert str(info.value) == message, (p, rows)
    assert outcomes["nilpotent"] >= 10 and outcomes["not nilpotent"] >= 10, outcomes
    if p <= 3:
        assert outcomes["N^p != 0"] >= 5, outcomes


@pytest.mark.parametrize("p", [2, 3, 5, 13, 31])
def test_krylov_route_matches_the_chain_on_named_model_conjugates(p):
    # conjugation moves the entries off the named models' monomial form, so
    # the chains mix and the echelon reduces in earnest: the route's ranks
    # against the image chain's on the same columns, and against dense
    # powers where the matrix is small
    rng = random.Random(f"conjugates-{p}")
    models = [model_from_type(JordanType.from_counts(p, Counter(random_blocks(rng, p, 3 * p))))]
    if p >= 3:
        models += [*sl2s_models(p, rng.randint(1, p - 1)), ga2_model(p)[1],
                   abelian_rank2_models(p)[1], sl2_simple_models(p, rng.randint(1, p - 1))[0]]
    if 3 <= p <= 13:
        models.append(heisenberg_model(p))
    sparse = 0
    for model in models:
        for _ in range(3):
            conj = random_conjugate(model, rng)
            cols = dict(conj.columns)
            route = krylov_ranks(conj.dim, cols, p)
            assert route == padded(column_chain_ranks(cols, conj.dim, p), p), (p, model)
            assert route == list(model.rank_sequence) == list(conj.rank_sequence)
            if conj.dim <= 40:
                assert route == list(dense_rank_sequence(p, dense(conj)))
            sparse += not oracle._is_dense(cols, conj.dim)
    assert sparse >= len(models)


def test_sparse_nilpotent_models_run_no_chain_step(monkeypatch):
    # named models and sparse conjugates take the Krylov route alone; a
    # sparse N with N^p != 0 falls back to the chain on dicts, and packs once
    # its restriction fills
    refuse(monkeypatch, "_dict_step")
    refuse(monkeypatch, "_packed_step")
    rng = random.Random(11)
    for p in [3, 5, 13, 31, 101]:
        heisenberg_model(p)
        ga2_model(p)
        for i in [1, 2, p - 1]:
            sl2s_models(p, i)
        base = model_from_type(JordanType.from_counts(p, Counter(random_blocks(rng, p, 4 * p))))
        conj = random_conjugate(base, rng)
        assert not oracle._is_dense(dict(conj.columns), conj.dim)
    model(5, 10**30, [(1, 0, 1), (2, 1, 1)])
    monkeypatch.undo()
    log = kernel_log(monkeypatch)
    with pytest.raises(ValidationError, match=r"rank of N\^5 is 1\)$"):
        model(5, 6, [(1, 0, 1), (2, 1, 1), (2, 2, 1)])
    # im N is spanned by e_1 and e_2, and N on it holds 2 of 4 entries
    assert log == ["_dict_step", "_packed_step", "_packed_step"], log
    # an invertible 2 x 2 block on im N: the restriction after the first
    # step fills all 4 of its entries, and runs packed
    log.clear()
    with pytest.raises(ValidationError, match=r"rank of N\^5 is 2\)$"):
        model(5, 6, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert log == ["_dict_step", "_packed_step"]


def test_the_krylov_certificate_needs_all_of_im_n():
    # im N has pivots 0, 1 and 4.  The one generator e_2 has the chain
    # N e_2 = 8 e_0, N^2 e_2 = 88 e_1 = 10 e_1, N^3 e_2 = 0, which ends
    # before level 13, yet spans 2 of the 3 dimensions of im N: e_4 goes to
    # 4 e_1 + 6 e_4, so 6 is an eigenvalue, and without the check on r_1
    # the route would read N as nilpotent with ranks 5, 2, 1, 0
    p = 13
    cols = {0: [(1, 11)], 2: [(0, 8)], 4: [(1, 4), (4, 6)]}
    image = {}
    for col in cols.values():
        oracle._insert(image, col, p)
    assert list(image) == [1, 0, 4]
    assert oracle._apply(cols, cols[2], p) == [(1, 10)]
    assert oracle._apply(cols, [(1, 10)], p) == []
    assert oracle._krylov_ranks(5, cols, p) is None
    with pytest.raises(ValidationError) as info:
        model(p, 5, [(r, c, v) for c, col in cols.items() for r, v in col])
    assert str(info.value) == "matrix is not nilpotent of order <= 13 (rank of N^13 is 1)"


def test_a_1x1_model_at_a_large_prime_allocates_no_level_per_power():
    # the rank sequence, a list and then a tuple of p + 1 ranks, about
    # 16 bytes per power, is all that grows with p; an empty list per
    # power would take some 64 more
    p = 1000003
    tracemalloc.start()
    try:
        one = model(p, 1, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one.rank_sequence[:3] == (1, 0, 0) and len(one.rank_sequence) == p + 1
    assert peak < 20 * p


def test_random_conjugate_draws_from_any_dim():
    base = model(5, 10**30, [(1, 0, 1), (2, 1, 1)])
    conj = random_conjugate(base, random.Random(1))
    assert conj.columns != base.columns
    assert conj.rank_sequence == base.rank_sequence == (10**30, 2, 1, 0, 0, 0)
    drawn = oracle._distinct(random.Random(2), 10**30, 5)
    assert len(set(drawn)) == 5 and all(0 <= k < 10**30 for k in drawn)


def test_distinct_draws_are_uniform_injections():
    # every ordered pair of distinct values in range(4), each about 1000 times
    rng = random.Random(3)
    counts = Counter(tuple(oracle._distinct(rng, 4, 2)) for _ in range(12000))
    assert len(counts) == 12 and all(850 < c < 1150 for c in counts.values()), counts
    assert sorted(oracle._distinct(rng, 6, 6)) == list(range(6))


# --------------------------------------------------------------------- sweep


@pytest.mark.parametrize("p", [5, 7])
def test_sweep_cardinality_on_small_blocks(p):
    for n in range(1, p):
        assert len(pi_point_sweep(JordanType.block(p, n))) == n


def _full_sweep(jt):
    """The sweep over every probe power j = 1..p, the reference for the cut-off one."""
    return {restrict_type(jt, j).with_modulus(jt.p).stable_part() for j in range(1, jt.p + 1)}


def test_sweep_stopped_at_the_largest_block_matches_the_full_sweep():
    rng = random.Random("sweep")
    for p in (2, 3, 4, 5, 7, 11, 13):
        types = [JordanType(p, [0] * p), *(JordanType.block(p, i) for i in range(1, p + 1))]
        types += [JordanType(p, [rng.choice((0, 0, 1, 2)) for _ in range(p)]) for _ in range(150)]
        for jt in types:
            assert pi_point_sweep(jt) == _full_sweep(jt), jt


def test_sweep_of_full_block():
    p = 7
    types = pi_point_sweep(JordanType.block(p, p))
    assert types == _full_sweep(JordanType.block(p, p))
    # all nonempty members split as (j-r)[a] + r[a+1] for p = a*j + r
    assert JordanType.from_counts(p, {}) in types
    for j in range(2, p):
        a, r = divmod(p, j)
        member = JordanType.from_counts(p, {a: j - r, a + 1: r} if r else {a: j})
        assert member in types


def test_sweep_zero_model_and_first_power():
    p = 5
    zero = model(p, 3, [])
    assert pi_point_sweep(jordan_type_of(zero)) == {JordanType.block(p, 1, 3)}
    jt = JordanType.from_string(p, "[4]+2[5]")
    sweep = pi_point_sweep(jt)
    assert jt.stable_part() in sweep
    # the j = 1 probe sees exactly the stable part of the base type
    for text in ["", "[4]+2[5]", "2[3]+[1]", "3[5]"]:
        base = JordanType.from_string(p, text)
        assert restrict_type(base, 1).with_modulus(p).stable_part() == base.stable_part()


# ---------------------------------------------------------------------- JSON


@pytest.mark.parametrize("p", [5.0, "5", True], ids=repr)
def test_prime_must_be_an_int(p):
    # refused before any arithmetic, where isqrt(5.0) would raise TypeError
    message = f"p must be an int, got {p!r}"
    with pytest.raises(ValidationError) as info:
        require_prime(p)
    assert str(info.value) == message


def test_model_reduces_values_and_drops_zeros():
    built = model(5, 3, [(1, 0, 6), (2, 1, -1), (2, 0, 10)])
    assert built.columns == ((0, ((1, 1),)), (1, ((2, 4),)))
    assert dense(built) == [[0, 0, 0], [1, 0, 0], [0, 4, 0]]
    assert model_json_dict(built) == {"p": 5, "dim": 3, "entries": [[1, 0, 1], [2, 1, 4]]}


def test_model_json_entries_are_row_major():
    rng = random.Random(3)
    model = random_conjugate(heisenberg_model(5), rng)
    rows = dense(model)
    expected = [[r, c, v] for r, row in enumerate(rows) for c, v in enumerate(row) if v]
    assert model_json_dict(model)["entries"] == expected


def test_model_json_round_trip():
    model = heisenberg_model(3)
    data = json.loads(json.dumps(model_json_dict(model)))
    back = NilpotentModel.from_json_dict(data)
    assert back.columns == model.columns and back.p == model.p
    assert jordan_type_of(back) == jordan_type_of(model)


def _valid_models():
    """Named models, their random conjugates and dense conjugates at p = 5, 7, 13."""
    rng = random.Random(24)
    for p in (3, 5, 7, 13):
        named = [heisenberg_model(p), *abelian_rank2_models(p), *ga2_model(p),
                 *sl2s_models(p, p // 2), *sl2_simple_models(p, p - 2),
                 power_model(model_from_type(JordanType.block(p, p, 2)), 2)]
        yield from named
        yield from (random_conjugate(model, rng) for model in named)
    for p in (5, 7, 13):
        for _ in range(3):
            sizes = [p, *random_blocks(rng, p, rng.randint(1, 2 * p))]
            yield from_dense(p, dense_conjugate(shift_rows(sizes), p, rng))


def test_both_entry_points_build_the_same_model():
    rng = random.Random(9)
    for model in _valid_models():
        p, dim = model.p, model.dim
        # each value moved by a multiple of p, some below 0, in a shuffled
        # order, and entries that reduce to 0 at positions N leaves empty
        entries = [[r, c, v + p * rng.randint(-3, 3)]
                   for r, c, v in model_json_dict(model)["entries"]]
        taken = {(r, c) for r, c, _ in entries}
        empty = {(rng.randrange(dim), rng.randrange(dim)) for _ in range(3)} - taken
        entries += [[r, c, p * rng.randint(-2, 2)] for r, c in empty]
        rng.shuffle(entries)
        data = json.loads(json.dumps({"p": p, "dim": dim, "entries": entries}))
        assert NilpotentModel.from_json_dict(data) == model, (p, dim)
        round_trip = json.loads(json.dumps(model_json_dict(model)))
        assert NilpotentModel.from_json_dict(round_trip) == model


def test_json_value_runs_a_fixed_number_of_times_per_model(monkeypatch):
    calls = []

    def counted(value, kind, path):
        calls.append(path)
        return json_value(value, kind, path)

    monkeypatch.setattr(errors, "json_value", counted)
    monkeypatch.setattr(oracle, "json_value", counted)
    rng = random.Random(13)
    model = from_dense(13, dense_conjugate(shift_rows([13, 13, 13, 13]), 13, rng))
    data = model_json_dict(model)
    assert len(data["entries"]) > 2400
    counts = []
    for entries in (data["entries"], [[1, 0, 1]], []):
        calls.clear()
        NilpotentModel.from_json_dict({**data, "entries": entries})
        counts.append(len(calls))
    # the object, p, dim and entries, whatever the number of entries
    assert counts == [7, 7, 7]


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
        (
            {"p": 5, "dim": 3, "entries": [[0, 3, 1]]},
            "entries[0] has entry (0,3) outside a 3x3 matrix",
        ),
        (
            {"p": 5, "dim": 2, "entries": [[1, 0, 1], [True, 0, 1]]},
            "entries[1][0] must be a JSON integer, got True",
        ),
        (
            {"p": 5, "dim": 2, "entries": [[-1, 0, 1]]},
            "entries[0] has entry (-1,0) outside a 2x2 matrix",
        ),
        (
            {"p": 5, "dim": 0, "entries": [[0, 0, 0]]},
            "entries[0] has entry (0,0) outside a 0x0 matrix",
        ),
        ({"p": 5, "dim": 2, "entries": [[0, 1]]}, "entries[0] must be [r, c, v], got [0, 1]"),
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
