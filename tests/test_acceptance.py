"""Acceptance suite: one test per criterion, all exact, each printing a
PASS/FAIL line (run with -s to see them).  Expected values are either
pinned constants or recomputed through the stated independent oracles
inside the test body; no tolerance anywhere is looser than exact
integer equality.
"""

import random
from contextlib import contextmanager

from cartan_reference import build_cartan_pair
from model_reference import model_from_type, power_model
from jordanquiver.classify import (
    AmbientGeometry,
    CohomologyClassDescriptor,
    OddPullback,
    Sl2Family,
    VerdictKind,
    carlson_indecomposability,
    carlson_type_set,
    sl2_family_types,
)
from jordanquiver.components import (
    NegativeMultiplicityError,
    TubeProfile,
    apply_a,
    apply_b,
    solve_multiplicities,
    tube_profile_from_seed,
)
from jordanquiver.jtypes import (
    DominanceConvention,
    DominanceResult,
    JordanType,
    dominance_compare,
    pi_point_sweep,
    restrict,
)
from jordanquiver.oracle import (
    abelian_rank2_models,
    ga2_model,
    heisenberg_model,
    jordan_type_of,
)
from jordanquiver.quiver import (
    VertexFunction,
    classify_function,
    minimal_additive_function,
    tube_window,
)
from jordanquiver.trees import TreeClass


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    print(f"ACCEPTANCE {tag}: PASS")


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def test_criterion_01_cartan_pair_inversion():
    with criterion("01 matrix inversion A*B = B*A = I; stencils = matrices"):
        rng = random.Random(1)
        for p in (2, 3, 5, 7, 11, 13, 31, 101):
            cp = build_cartan_pair(p)
            ident = [[int(i == j) for j in range(p)] for i in range(p)]
            assert matmul(cp.a, cp.b) == ident, p
            assert matmul(cp.b, cp.a) == ident, p
            vectors = ident + [[rng.randint(-9, 9) for _ in range(p)] for _ in range(5)]
            for v in vectors:
                assert apply_a(v) == matvec(cp.a, v), (p, v)
                assert apply_b(v) == matvec(cp.b, v), (p, v)


def test_criterion_02_restrict_oracle_equivalence():
    with criterion("02 block-splitting formula = matrix oracle"):
        for p in (3, 5, 7, 11, 13):
            for i in range(1, p + 1):
                block = model_from_type(JordanType.block(p, i))
                for j in range(1, p + 1):
                    oracle_type = jordan_type_of(power_model(block, j))
                    assert oracle_type == restrict(i, j, p).with_modulus(p), (p, i, j)


def test_criterion_03_heisenberg_model_and_tube():
    with criterion("03 Heisenberg type and tube propagation"):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            model = heisenberg_model(p)
            expected = JordanType.from_counts(p, {**{l: 2 for l in range(1, p)}, p: 1})
            assert jordan_type_of(model) == expected, p
            n = [1] + [0] * (p - 2)
            for ql in range(1, 11):
                jt = tube_profile_from_seed(expected, n, include_p=True).jordan_type_at(ql)
                assert jt.multiplicity(1) == 2, (p, ql)
                if p > 2:
                    assert jt.multiplicity(2) == 3 * ql - 1, (p, ql)
                for i in range(3, p):
                    assert jt.multiplicity(i) == 2 * ql, (p, i, ql)
                assert jt.multiplicity(p) == ql, (p, ql)


def test_criterion_04_rank2_abelian_models():
    with criterion("04 rank-2 abelian pinned types"):
        for p in (3, 5, 7):
            alpha, beta = abelian_rank2_models(p)
            assert jordan_type_of(alpha) == JordanType.block(p, 1, p), p
            assert jordan_type_of(beta) == JordanType.from_counts(p, {1: p - 2, 2: 1}), p


def test_criterion_05_height_two_model():
    with criterion("05 height-2 additive-kernel pinned type"):
        for p in (3, 5, 7, 11):
            _, beta = ga2_model(p)
            got = jordan_type_of(beta)
            half = (p - 1) // 2
            assert got == JordanType.from_counts(p, {half: 1, half + 1: 1}), p
            assert got == restrict(p, 2, p).with_modulus(p), p


def test_criterion_06_dominance_footnote_pair():
    with criterion("06 dominance conventions disagree on the pinned pair"):
        a = JordanType(3, (1, 0, 2))  # alpha_3 = 2, alpha_1 = 1
        b = JordanType(3, (0, 2, 1))  # beta_3 = 1, beta_2 = 2
        assert dominance_compare(a, b, DominanceConvention.IMAGE_DIM) is DominanceResult.GREATER
        assert (
            dominance_compare(a, b, DominanceConvention.TAIL_DIM)
            is DominanceResult.INCOMPARABLE
        )


def test_criterion_07_sweep_cardinality():
    with criterion("07 probe-power sweep cardinality"):
        for p in (5, 7):
            for n in range(1, p):
                assert len(pi_point_sweep(JordanType.block(p, n))) == n, (p, n)


def test_criterion_08_tree_class_counts():
    with criterion("08 minimal-additive-function image sizes"):
        expected = {
            TreeClass("A12_tilde"): 1,
            TreeClass("A_inf_inf"): 1,
            TreeClass("D_inf"): 2,
            TreeClass("D4_tilde"): 2,
            TreeClass("D5_tilde"): 2,
            TreeClass("D6_tilde"): 2,
            TreeClass("E6_tilde"): 3,
            TreeClass("E7_tilde"): 4,
            TreeClass("E8_tilde"): 6,
        }
        for tc, size in expected.items():
            assert minimal_additive_function(tc).image_size == size, str(tc)


def test_criterion_09_round_trip_exhaustive():
    with criterion("09 exhaustive forward/inverse round trip"):
        for p in (3, 5):
            seeds = [[]]
            for _ in range(p):
                seeds = [s + [x] for s in seeds for x in range(4)]
            vectors = [[]]
            for _ in range(p - 1):
                vectors = [v + [x] for v in vectors for x in range(3)]
            vectors = [v for v in vectors if any(v)]
            checked = failures = 0
            for seed_mult in seeds:
                seed = JordanType(p, tuple(seed_mult))
                for n in vectors:
                    try:
                        prof = tube_profile_from_seed(seed, n, include_p=True)
                    except NegativeMultiplicityError as err:
                        # every validation failure exhibits a concrete
                        # negative value at a concrete (i, ql)
                        assert err.value < 0 and err.ql >= 1
                        assert 1 <= err.index <= p
                        failures += 1
                        continue
                    assert solve_multiplicities(prof).multiplicities == tuple(n)
                    checked += 1
            assert checked > 0 and failures > 0, p


def test_criterion_10_sl2_multiplicity_pattern():
    with criterion("10 tube intercepts of the sl(2) pattern"):
        for p in (5, 7):
            for a in range(0, p - 1):
                t = [0] * p
                t[a] += 1
                t[p - a - 2] += 1
                t[p - 1] -= 1
                prof = TubeProfile(p, tuple([0] * (p - 1) + [1]), tuple(t), include_p=True)
                n = solve_multiplicities(prof).multiplicities
                # stated oracle: direct evaluation of n = B t
                direct = tuple(
                    sum(min(i, l) * t[l - 1] for l in range(1, p + 1))
                    for i in range(1, p)
                )
                assert n == direct, (p, a)
                assert all(x >= 0 for x in n), (p, a)
                for i in range(1, p):
                    assert n[i - 1] == min(i, a + 1, p - a - 1, p - i), (p, a, i)
                if a + 1 <= p - a - 1:
                    # the spec's printed form, valid on this half of the range
                    for i in range(1, p):
                        assert n[i - 1] == min(i, a + 1, p - i), (p, a, i)


def test_criterion_11_property_suites():
    with criterion("11 positivity / psi identities / classification labels"):
        rng = random.Random(1105)
        # (a) positivity on 500 randomized tau-invariant subadditive functions
        vanishing_cases = 0
        for _ in range(500):
            w = tube_window(rng.randrange(1, 4), rng.randrange(4, 9))
            max_ql = max(q for _, q in w.vertices)
            style = rng.randrange(3)
            if style == 0:
                seq = {q: 0 for q in range(1, max_ql + 1)}
            elif style == 1:
                start, slope = rng.randrange(1, 5), rng.randrange(0, 3)
                cap = rng.randrange(1, 15)
                seq = {q: min(start + slope * (q - 1), cap) for q in range(1, max_ql + 1)}
            else:
                seq = {q: rng.randrange(0, 5) for q in range(1, max_ql + 1)}
            f = VertexFunction.from_ql(w, lambda q: seq[q])
            report = classify_function(f)
            assert report.is_tau_invariant
            if report.is_subadditive and any(f(v) == 0 for v in w.interior):
                vanishing_cases += 1
                assert all(f(v) == 0 for v in w.interior)
        assert vanishing_cases > 0
        # (b) psi identities on 1000 random Jordan types
        for _ in range(1000):
            p = rng.choice([3, 5, 7, 11])
            jt = JordanType(p, tuple(rng.randrange(0, 5) for _ in range(p)))
            assert jt.psi(p - 1) == jt.stable_part().dimension()
            for m in range(1, p):
                assert jt.ker_dim(m) == jt.psi(m) + m * jt.multiplicity(p)
        # (c) classification labels on windows of depth >= 6
        for depth in (6, 8):
            for rank in (1, 2):
                w = tube_window(rank, depth)
                assert classify_function(
                    VertexFunction.from_ql(w, lambda q: q)
                ).eventual_level == 1
                report = classify_function(VertexFunction.constant(w, 2))
                assert report.eventual_level == 2 and report.is_subadditive
                assert classify_function(
                    VertexFunction.from_ql(w, lambda q: q - 1)
                ).eventual_level == 2


def test_criterion_12_classifier_conformance():
    with criterion("12 classifier shapes, rules, and sl(2) sets"):
        p = 5
        # type-set shapes
        even = carlson_type_set(CohomologyClassDescriptor(p=p, degree=2, dim_total=20))
        assert len(even.patterns) == 2
        assert any(pat.stable.is_zero() for pat in even.patterns)
        assert JordanType.from_counts(p, {p: 4}) in even.types
        assert JordanType.from_counts(p, {1: 1, p - 1: 1, p: 3}) in even.types
        nil = carlson_type_set(
            CohomologyClassDescriptor(p=p, degree=2, nilpotent=True, dim_total=15)
        )
        assert nil.types == {JordanType.from_counts(p, {1: 1, p - 1: 1, p: 2})}
        odd = carlson_type_set(CohomologyClassDescriptor(p=p, degree=3, dim_total=13))
        assert odd.types == {
            JordanType.from_counts(p, {p - 1: 2, p: 1}),
            JordanType.from_counts(p, {p - 2: 1, p: 2}),
        }
        # verdict rules fire exactly per the table
        cases = [
            (CohomologyClassDescriptor(p=p, degree=2, nilpotent=True), "CNED1"),
            (CohomologyClassDescriptor(p=p, degree=3), "COD1.2"),
            (
                CohomologyClassDescriptor(
                    p=p, degree=3, odd_pullback=OddPullback.ALL_VANISH,
                    ambient=AmbientGeometry(srk=2),
                ),
                "COD3",
            ),
            (
                CohomologyClassDescriptor(
                    p=p, degree=3, odd_pullback=OddPullback.ALL_VANISH,
                    ambient=AmbientGeometry(srk=1, is_finite_group=True),
                ),
                "COD5",
            ),
            (
                CohomologyClassDescriptor(
                    p=p, degree=2,
                    ambient=AmbientGeometry(equidim=True, variety_dim=6, ambient_dim=8),
                ),
                "CNN1",
            ),
        ]
        for desc, rule in cases:
            verdict = carlson_indecomposability(desc)
            assert verdict.kind is VerdictKind.INDECOMPOSABLE and verdict.rule == rule
        unknown = carlson_indecomposability(
            CohomologyClassDescriptor(
                p=p, degree=3, odd_pullback=OddPullback.ALL_VANISH,
                ambient=AmbientGeometry(srk=1),
            )
        )
        assert unknown.kind is VerdictKind.UNKNOWN and unknown.rule is None
        # sl(2) family sets for p = 5, all admissible blocks
        for i in (1, 2):
            for ql in (1, 2, 3):
                got = sl2_family_types(
                    Sl2Family.SL2_1, p=p, pi_dim=0, block_index=i, ql=ql
                )
                assert got == {
                    JordanType.block(p, p, ql),
                    JordanType.from_counts(p, {i: 1, p - i: 1, p: ql - 1}),
                }, (i, ql)
        for s in range(1, p):
            dim = s + 2 * p
            got = sl2_family_types(
                Sl2Family.SL2_1, p=p, pi_dim=1, block_index=s, module_dim=dim
            )
            assert got == {JordanType.from_counts(p, {s: 1, p: 2})}, s
        assert sl2_family_types(
            Sl2Family.SL2_1, p=p, pi_dim=1, block_index=4, module_dim=9
        ) == {JordanType.from_counts(p, {4: 1, p: 1})}
        for i in (1, 2):
            got = sl2_family_types(
                Sl2Family.SL2_1_TR, p=p, pi_dim=0, block_index=i, module_dim=10
            )
            assert got == {
                JordanType.block(p, p, 2),
                JordanType.from_counts(p, {i: 1, p - i: 1, p: 1}),
            }, i
