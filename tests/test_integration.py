"""Cross-module checks: closed forms, matrix oracle, component calculus,
and classifier must tell one consistent story on the worked families."""

import re

import pytest

from model_reference import sl2_simple_models
from jordanquiver.classify import (
    CohomologyClassDescriptor,
    Sl2Family,
    endo_trivial,
    sl2_family_types,
    carlson_type_set,
)
from jordanquiver.components import (
    SplitProfile,
    seed_to_split_profile,
    solve_multiplicities,
    split_propagate,
    tube_profile_from_seed,
)
from jordanquiver.errors import ValidationError
from jordanquiver.jtypes import JordanType, pi_point_sweep, restrict_type
from jordanquiver.oracle import (
    abelian_rank2_models,
    ga2_model,
    heisenberg_model,
    jordan_type_of,
    sl2s_models,
)
from jordanquiver.quiver import (
    VertexFunction,
    classify_function,
    minimal_additive_function,
    tube_window,
)
from jordanquiver.trees import TreeClass


def stable_split_set(n, j, p):
    """Independent enumeration of the block-splitting set-builder:
    (j-r)[a] + r[a+1] for n = a*j + r with 0 <= r < j <= n, else n[1]."""
    if j > n:
        return JordanType.from_counts(p, {1: n}) if n else JordanType.from_counts(p, {})
    a, r = divmod(n, j)
    counts = {}
    if a:
        counts[a] = j - r
    if r:
        counts[a + 1] = r
    return JordanType.from_counts(p, counts)


@pytest.mark.parametrize("p", [5, 7])
def test_sweep_of_simple_matches_displayed_set(p):
    # the sweep over a single block [n], n <= p-1, is exactly the
    # set-builder over j = 1..n (larger j repeat n[1])
    for n in range(1, p):
        expected = {stable_split_set(n, j, p) for j in range(1, n + 1)}
        assert pi_point_sweep(JordanType.block(p, n)) == expected
        assert len(expected) == n


@pytest.mark.parametrize("p,i", [(5, 1), (5, 2), (7, 2), (7, 3)])
def test_verma_stable_type_set_assembles_from_both_generators(p, i):
    # probes through the two nilpotent directions of the Verma module:
    # the f-side sees [p], the e-side sees [i] + [p-i]; the union of the
    # two sweeps must reproduce the three displayed set-builders
    e_model, f_model = sl2s_models(p, i)
    e_type = jordan_type_of(e_model)
    f_type = jordan_type_of(f_model)
    impl = (pi_point_sweep(f_type) - {JordanType.from_counts(p, {})}) | pi_point_sweep(e_type)

    expected = set()
    # f-direction: p = a*j + r with 1 <= r < j <= p
    for j in range(2, p):
        expected.add(stable_split_set(p, j, p))
    # e-direction, i <= j <= p-i: i[1] plus the splitting of [p-i]
    for j in range(i, p - i + 1):
        expected.add(JordanType.from_counts(p, {1: i}) + stable_split_set(p - i, j, p))
    # e-direction, j < i: both blocks split
    for j in range(1, i):
        expected.add(stable_split_set(i, j, p) + stable_split_set(p - i, j, p))
    # large-j probes on the e-side act trivially
    expected.add(JordanType.from_counts(p, {1: p}))
    assert impl == expected


@pytest.mark.parametrize("p", [5, 7])
def test_simple_modules_of_extreme_dimension_are_endo_trivial(p):
    for n in (1, p - 1):
        e_model, f_model = sl2_simple_models(p, n)
        types = {jordan_type_of(e_model), jordan_type_of(f_model)}
        assert endo_trivial(types) == (n in (1, p - 1))
    # middle dimensions are not
    e_model, f_model = sl2_simple_models(p, 2)
    assert not endo_trivial({jordan_type_of(e_model)})


def test_heisenberg_profile_supports_and_obstruction():
    p = 5
    seed = jordan_type_of(heisenberg_model(p))
    prof = tube_profile_from_seed(seed, [1, 0, 0, 0], include_p=True)
    # the tube is generated by a genuine relative projective, so the
    # inverse problem is nonzero and the profile is not locally split
    assert not solve_multiplicities(prof).locally_split
    # every propagated type keeps full stable support
    for ql in range(1, 6):
        jt = prof.jordan_type_at(ql)
        assert {i for i in range(1, p + 1) if jt.multiplicity(i)} == set(range(1, p + 1))


def test_carlson_profile_round_trip_through_classifier():
    # a split component whose seed is the classifier's hook pattern:
    # propagation and the type-set prediction agree at every vertex
    p = 5
    desc = CohomologyClassDescriptor(p=p, degree=2, nilpotent=True, dim_total=15)
    (pattern,) = carlson_type_set(desc).patterns
    seed = pattern.resolved()
    prof = seed_to_split_profile(seed, 1)
    assert {i for i, x in enumerate(prof.d, 1) if x} == {1, p - 1}
    for f in (1, 2, 3):
        jt = split_propagate(prof, f)
        assert jt.multiplicity(1) == f and jt.multiplicity(p - 1) == f
        # matches the constant-type family shape with the same stable part
        assert jt.stable_part() == JordanType(p, [f * x for x in seed.stable_part().mult])


def test_sl2_tube_family_matches_solved_multiplicities():
    # the two-type tube family at block index i has stable intercepts
    # e_i + e_{p-i}; the inverse problem returns the min pattern, and the
    # quasi-simple layer of the family reproduces the seed type
    p = 5
    for i in (1, 2):
        types = sl2_family_types(Sl2Family.SL2_1, p=p, pi_dim=0, block_index=i, ql=1)
        split_seed = next(t for t in types if not t.stable_part().is_zero())
        assert split_seed == JordanType.from_counts(p, {i: 1, p - i: 1})
        t = [0] * p
        t[i - 1] += 1
        t[p - i - 1] += 1
        t[p - 1] -= 1
        from jordanquiver.components import TubeProfile

        prof = TubeProfile(p, tuple([0] * (p - 1) + [1]), tuple(t), include_p=True)
        n = solve_multiplicities(prof).multiplicities
        assert n == tuple(min(k, i, p - k) for k in range(1, p))
        assert prof.jordan_type_at(1) == split_seed


def test_ga2_type_equals_power_two_restriction_of_regular_module():
    for p in (3, 5, 7):
        _, beta = ga2_model(p)
        assert jordan_type_of(beta) == restrict_type(
            JordanType.block(p, p), 2
        ).with_modulus(p)


def test_tube_profile_rows_and_kernel_statistics_on_a_window():
    # individual block-multiplicity rows are eventually additive with the
    # level implied by their intercept, but need not be subadditive (a
    # negative intercept fails at ql = 1); the aggregated kernel
    # statistics psi_m are subadditive outright
    p = 5
    seed = jordan_type_of(heisenberg_model(p))
    prof = tube_profile_from_seed(seed, [1, 0, 0, 0], include_p=True)
    w = tube_window(1, 9)
    for i in range(1, p + 1):
        def alpha(q, i=i):
            return prof.jordan_type_at(q).multiplicity(i)

        f = VertexFunction.from_ql(w, alpha)
        report = classify_function(f)
        intercept = prof.intercepts[i - 1]
        assert report.eventual_level == (1 if intercept == 0 else 2)
        assert report.is_subadditive == (intercept >= 0)
        # alpha_i = s_i * ql + t_i: the line through its values at ql = 1 and 2
        for q in range(2, 9):
            assert alpha(q) == (alpha(2) - alpha(1)) * (q - 2) + alpha(2)
    for m in range(1, p):
        g = VertexFunction.from_ql(
            w, lambda q, m=m: prof.jordan_type_at(q).psi(m)
        )
        report = classify_function(g)
        assert report.is_subadditive and report.is_tau_invariant
        assert report.eventual_level is not None and report.eventual_level <= 2


def test_minimal_additive_staircase_matches_split_propagation():
    # on a staircase component the propagated stable dimension is linear
    # with slope d_stable, mirroring the minimal additive function
    result = minimal_additive_function(TreeClass("A_inf"))
    prof = SplitProfile(5, [1, 0, 0, 1], tree_class=TreeClass("A_inf"))
    for node, value in result.values.items():
        jt = split_propagate(prof, value)
        assert jt.stable_part().dimension() == prof.d_stable * value


JT5 = JordanType.from_string(5, "[3]+[1]")


def sl2_tube(**args):
    return sl2_family_types(Sl2Family.SL2_1, **{"p": 5, "pi_dim": 0, "block_index": 1,
                                                 "ql": 2, **args})


@pytest.mark.parametrize("call,bad", [
    (lambda: heisenberg_model("5"), "p must be an int, got '5'"),
    (lambda: abelian_rank2_models("5"), "p must be an int, got '5'"),
    (lambda: ga2_model("5"), "p must be an int, got '5'"),
    (lambda: sl2s_models(5, "2"), "i must be an int, got '2'"),
    (lambda: sl2_tube(block_index="1"), "block_index must be an int, got '1'"),
    (lambda: sl2_tube(pi_dim=True), "pi_dim must be an int, got True"),
    (lambda: sl2_tube(ql=2.5), "ql must be an int, got 2.5"),
    (lambda: sl2_tube(pi_dim=1, block_index=4, ql=None, module_dim="9"),
     "module_dim must be an int, got '9'"),
    (lambda: JT5.multiplicity(1.5), "i must be an int, got 1.5"),
    (lambda: JT5.multiplicity("2"), "i must be an int, got '2'"),
    (lambda: JT5.multiplicity(True), "i must be an int, got True"),
    (lambda: JT5.with_modulus(7.0), "new_p must be an int, got 7.0"),
    (lambda: JT5.with_modulus("3"), "new_p must be an int, got '3'"),
    (lambda: JordanType.block(5, 2.0), "i must be an int, got 2.0"),
    (lambda: JordanType.block(5, 2, 1.0), "count must be an int, got 1.0"),
    (lambda: JordanType.from_counts(5, {2.0: 1}), "block size must be an int, got 2.0"),
    (lambda: JordanType.from_counts(5.0, {2: 1}), "p must be an int, got 5.0"),
    (lambda: JordanType.from_counts(2.5, {}), "p must be an int, got 2.5"),
    (lambda: JordanType.from_string(5.0, "[1]"), "p must be an int, got 5.0"),
])
def test_entry_points_type_check_before_comparing(call, bad):
    # each of these raised TypeError from a comparison, or took True as 1
    with pytest.raises(ValidationError, match=f"^{re.escape(bad)}$"):
        call()
