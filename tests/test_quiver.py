import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartan_reference import cartan_matrix, integer_kernel_vector
from jordanquiver.errors import ParseError, ValidationError
from jordanquiver.quiver import (
    A_DOUBLE_INFINITY,
    A_INFINITY,
    A_TILDE_12,
    D_INFINITY,
    E6_TILDE,
    E7_TILDE,
    E8_TILDE,
    Quiver,
    TreeClass,
    VertexFunction,
    _euclidean_graph,
    build_window,
    check_admissible,
    classify_function,
    d_tilde,
    extrapolate,
    finite_dynkin,
    is_additive_on_graph,
    minimal_additive_function,
    orbit_valued_graph,
    tube_window,
    valued_graph_to_dot,
    window_to_dot,
    zt_a_infinity_window,
    zt_window,
)


# -------------------------------------------------------------- construction


def test_zt_a_infinity_window_shape():
    w = zt_a_infinity_window(0, 3, 4)
    assert len(w.vertices) == 16
    # one predecessor at ql = 1, two at ql >= 2 (checked away from the boundary)
    assert w.predecessors((1, 1)) == [(0, 2)]
    assert sorted(w.predecessors((1, 2))) == [(0, 3), (1, 1)]
    # arrows follow the (n,s)->(n,t), (n,t)->(n+1,s) pattern
    assert ((1, 1), (1, 2)) in w.arrows
    assert ((1, 2), (2, 1)) in w.arrows
    assert w.tau[(1, 3)] == (0, 3)
    assert (0, 1) not in w.interior and (1, 4) not in w.interior
    assert (1, 1) in w.interior


def test_tube_window_rank1_and_rank3():
    w1 = tube_window(1, 5)
    assert w1.predecessors((0, 1)) == [(0, 2)]
    assert all(w1.tau[v] == v for v in w1.vertices)
    w3 = tube_window(3, 2)
    assert len(w3.vertices) == 6
    v = (0, 1)
    for _ in range(3):
        v = w3.tau[v]
    assert v == (0, 1)
    assert w3.tau[(0, 1)] == (2, 1)


def test_valuation_tau_compatibility_enforced():
    # swap-inconsistent valuation on a tube must be rejected
    bad = {((0, 1), (0, 2)): (2, 1), ((0, 2), (0, 1)): (2, 1)}
    with pytest.raises(ValidationError):
        tube_window(1, 3, valuation=bad)
    ok = {((0, 1), (0, 2)): (2, 1), ((0, 2), (0, 1)): (1, 2)}
    w = tube_window(1, 3, valuation=ok)
    assert w.arrow_weight((0, 1), (0, 2)) == 2
    # a valuation on the tau-partner arrow alone leaves the (1, 1) default
    # on the other side, which is no swap of it
    with pytest.raises(ValidationError, match="compatibility"):
        tube_window(1, 3, valuation={((0, 2), (0, 1)): (2, 1)})
    # on Z[A_inf], nu((n-1, 2), (n, 1)) must swap nu((n, 1), (n, 2)), and
    # nu((n, 1), (n, 2)) swap nu((n, 2), (n+1, 1)): the whole bond row is tied
    with pytest.raises(ValidationError, match="compatibility"):
        zt_a_infinity_window(0, 2, 3, valuation={((1, 1), (1, 2)): (2, 1)})
    bonds = {((n, 1), (n, 2)): (2, 1) for n in range(3)}
    bonds |= {((n, 2), (n + 1, 1)): (1, 2) for n in range(2)}
    z = zt_a_infinity_window(0, 2, 3, valuation=bonds)
    assert z.valuation == bonds
    assert z.arrow_weight((1, 1), (1, 2)) == 2 and z.arrow_weight((0, 2), (1, 1)) == 1
    assert z.arrow_weight((1, 2), (1, 3)) == 1
    # ... while a one-layer window has no translates, so nothing ties its arrows
    layer = zt_a_infinity_window(0, 0, 3, valuation={((0, 1), (0, 2)): (3, 1)})
    assert layer.arrow_weight((0, 1), (0, 2)) == 3 and layer.arrow_weight((0, 2), (0, 3)) == 1
    # unvalued windows store nothing and weigh every arrow 1
    for plain in (tube_window(2, 3), zt_a_infinity_window(0, 2, 3),
                  tube_window(1, 3, valuation={((0, 1), (0, 2)): (1, 1)})):
        assert plain.valuation == {}
        assert {plain.arrow_weight(a, b) for a, b in plain.arrows} == {1}


def test_valuation_entries_are_checked():
    with pytest.raises(ValidationError, match="not a window arrow"):
        tube_window(1, 3, valuation={((0, 1), (0, 3)): (1, 1)})
    for bad in ((0, 1), (2,), (2, 1, 1), [2, 1], (2.0, 1), (True, 1), "21"):
        with pytest.raises(ValidationError, match="pair of positive ints"):
            tube_window(1, 3, valuation={((0, 1), (0, 2)): bad})


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: tube_window(2.5, 3), "rank"),
        (lambda: tube_window(True, 3), "rank"),
        (lambda: tube_window(2, 3.0), "max_ql"),
        (lambda: zt_a_infinity_window(0, 2.0, 3), "n_max"),
        (lambda: zt_a_infinity_window("0", 2, 3), "n_min"),
        (lambda: zt_a_infinity_window(0, 2, None), "max_ql"),
        (lambda: zt_window(Quiver({"a"}, ()), 0, 1.5), "n_max"),
        (lambda: zt_window(Quiver({"a"}, ()), False, 1), "n_min"),
    ],
)
def test_window_builders_reject_non_int_arguments(build, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an int"):
        build()


def test_build_window_from_json_specs():
    t = build_window({"kind": "tube", "rank": 3, "max_ql": 8})
    assert t.rank == 3 and len(t.vertices) == 24
    z = build_window({"kind": "zt", "max_ql": 4, "n_min": 0, "n_max": 3})
    assert len(z.vertices) == 16
    g = build_window(
        {
            "kind": "zt",
            "tree": {"vertices": ["a", "b"], "arrows": [["a", "b"]]},
            "n_min": 0,
            "n_max": 2,
        }
    )
    assert (0, "a") in g.vertices
    with pytest.raises(ParseError):
        build_window({"kind": "nope"})
    with pytest.raises(ValidationError):
        build_window({"kind": "tube", "rank": 0, "max_ql": 3})


def test_quiver_rejects_loops():
    with pytest.raises(ValidationError):
        Quiver(frozenset({"a"}), frozenset({("a", "a")}))


# ------------------------------------------------------------- admissibility


def test_tau_admissible_on_zt_a_infinity():
    w = zt_a_infinity_window(0, 4, 5)
    assert check_admissible(w, 1).admissible


def test_tau_not_admissible_on_two_cycle():
    tree = Quiver(frozenset({"s", "t"}), frozenset({("s", "t"), ("t", "s")}))
    w = zt_window(tree, 0, 3)
    report = check_admissible(w, 1)
    assert not report.admissible
    x, y = report.violation
    # the violating orbit member and base vertex are actual window vertices
    assert x in w.vertices and y in w.vertices


def test_trivial_group_admissible():
    tree = Quiver(frozenset({"s", "t"}), frozenset({("s", "t"), ("t", "s")}))
    w = zt_window(tree, 0, 3)
    assert check_admissible(w, 0).admissible


# --------------------------------------------------------------- orbit graph


def test_orbit_graph_of_tube_is_chain():
    for rank in (1, 2, 3):
        g = orbit_valued_graph(tube_window(rank, 6), 1)
        assert len(g.nodes) == 6
        qls = [node[1] for node in g.nodes]
        assert sorted(qls) == list(range(1, 7))
        for (a, b), v in g.d.items():
            assert abs(a[1] - b[1]) == 1 and v == 1
        g.check()


def test_orbit_graph_of_zt_a_infinity_is_chain():
    g = orbit_valued_graph(zt_a_infinity_window(0, 3, 5), 1)
    assert len(g.nodes) == 5
    for (a, b), v in g.d.items():
        assert abs(a[1] - b[1]) == 1 and v == 1


def test_orbit_graph_single_vertex_tree():
    tree = Quiver(frozenset({"v"}), frozenset())
    g = orbit_valued_graph(zt_window(tree, 0, 4), 1)
    assert len(g.nodes) == 1 and not g.d


def test_orbit_graph_requires_admissibility():
    tree = Quiver(frozenset({"s", "t"}), frozenset({("s", "t"), ("t", "s")}))
    with pytest.raises(ValidationError):
        orbit_valued_graph(zt_window(tree, 0, 3), 1)


# ---------------------------------------------------------- vertex functions


@pytest.mark.parametrize("make", [lambda: tube_window(1, 7), lambda: tube_window(3, 7),
                                  lambda: zt_a_infinity_window(0, 4, 7)])
def test_classify_ql_is_additive_level_one(make):
    w = make()
    report = classify_function(VertexFunction.from_ql(w, lambda q: q))
    assert report.is_subadditive and report.is_additive
    assert report.eventual_level == 1 and report.is_tau_invariant


@pytest.mark.parametrize("c", [1, 3])
def test_classify_constant_is_level_two(c):
    w = tube_window(1, 7)
    report = classify_function(VertexFunction.constant(w, c))
    assert report.is_subadditive and not report.is_additive
    assert report.eventual_level == 2


def test_classify_ql_minus_one_level_two_not_subadditive():
    w = tube_window(2, 7)
    report = classify_function(VertexFunction.from_ql(w, lambda q: q - 1))
    assert report.eventual_level == 2
    assert not report.is_subadditive and not report.is_additive


def test_classify_indeterminate_on_shallow_window():
    w = tube_window(1, 1)  # no interior at all
    report = classify_function(VertexFunction.constant(w, 1))
    assert report.indeterminate
    # violations at the top interior layer leave the level uncertified
    w2 = tube_window(1, 2)
    report2 = classify_function(VertexFunction.constant(w2, 1))
    assert report2.eventual_level is None
    assert "too small" in report2.note


def test_function_must_be_total():
    w = tube_window(1, 3)
    values = {v: 1 for v in w.vertices}
    values.pop((0, 2))
    with pytest.raises(ValidationError):
        VertexFunction(w, values)
    # examples and offenders are the first in vertex order
    z = zt_a_infinity_window(-2, 1, 3)
    with pytest.raises(ValidationError, match=r"on 2 window vertices, e.g. \(-1, 2\)"):
        VertexFunction(z, {v: 1 for v in z.vertices if v not in ((0, 1), (-1, 2))})
    with pytest.raises(ValidationError, match=r"value at \(-2, 1\)"):
        VertexFunction.constant(z, -1)


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_function_values_must_be_ints(value):
    # isinstance(True, int) used to let a bool through as 1
    with pytest.raises(ValidationError, match=r"value at \(0, 1\) must be a nonnegative integer"):
        VertexFunction.constant(tube_window(1, 2), value)


@pytest.mark.parametrize("power", [1.5, True, "1", None])
def test_admissibility_power_must_be_an_int(power):
    # 1.5 used to raise TypeError from math.gcd, and True was taken as 1
    with pytest.raises(ValidationError, match=f"power must be an int, got {power!r}"):
        check_admissible(tube_window(2, 3), power)


# ------------------------------------------------------- positivity property


def random_tau_invariant_function(w, rng):
    """Concave-in-ql functions are subadditive; mix in zero and noise cases."""
    max_ql = max(q for _, q in w.vertices)
    style = rng.randrange(4)
    if style == 0:
        seq = {q: 0 for q in range(1, max_ql + 1)}
    elif style == 1:
        slope, start = rng.randrange(0, 4), rng.randrange(1, 5)
        cap = rng.randrange(1, 20)
        seq = {q: min(start + slope * (q - 1), cap) for q in range(1, max_ql + 1)}
    elif style == 2:
        seq = {q: rng.randrange(0, 6) for q in range(1, max_ql + 1)}
    else:
        c = rng.randrange(1, 6)
        seq = {q: c for q in range(1, max_ql + 1)}
    return VertexFunction.from_ql(w, lambda q: seq[q])


def test_positivity_of_tau_invariant_subadditive_functions():
    # a tau-invariant subadditive function vanishing at an interior vertex
    # must vanish on the whole interior (the window interior is connected)
    rng = random.Random(20240817)
    checked = 0
    for trial in range(500):
        w = tube_window(rng.randrange(1, 4), rng.randrange(4, 9))
        f = random_tau_invariant_function(w, rng)
        report = classify_function(f)
        assert report.is_tau_invariant
        if not report.is_subadditive:
            continue
        interior_values = [f(v) for v in w.interior]
        if 0 in interior_values:
            checked += 1
            assert all(x == 0 for x in interior_values)
    assert checked > 0


# ---------------------------------------------------------------- extrapolate


def test_extrapolate_examples():
    flat = extrapolate(2, 1, 1)
    assert flat.slope == 0 and flat.constant_from == 1
    assert [flat.value(q) for q in (1, 2, 5)] == [1, 1, 1]
    ramp = extrapolate(2, 0, 1)
    assert [ramp.value(q) for q in (2, 3, 6)] == [1, 2, 5]
    ql = extrapolate(1, 0, 1)
    assert [ql.value(q) for q in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValidationError):
        extrapolate(1, 2, 1)
    with pytest.raises(ValidationError):
        extrapolate(2, 3, 1)  # negative slope


@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 5))
def test_extrapolate_agrees_with_classify(level, prev, delta):
    # build f on a deep tube from the closed form and check classify_function
    # recovers additivity from the level on
    if level == 1:
        prev = 0
    at = prev + delta
    form = extrapolate(level, prev, at)
    w = tube_window(1, level + 6)

    def f(q):
        if q >= level:
            return form.value(q)
        if form.slope == 0 and q >= max(1, level - 1):
            return form.value(q)
        return max(0, at - delta * (level - q))

    func = VertexFunction.from_ql(w, f)
    report = classify_function(func)
    # the affine tail is additive from level on, so the certified level
    # can only be smaller when lower layers happen to satisfy equality too
    assert report.eventual_level is not None
    assert report.eventual_level <= max(level, 2)
    for q in range(max(2, level + 1), level + 6):
        assert 2 * f(q) == f(q - 1) + f(q + 1)


# ---------------------------------------------------- minimal additive funcs


def test_minimal_additive_image_sizes():
    expect = {
        A_TILDE_12: 1,
        A_DOUBLE_INFINITY: 1,
        D_INFINITY: 2,
        d_tilde(4): 2,
        d_tilde(5): 2,
        d_tilde(6): 2,
        E6_TILDE: 3,
        E7_TILDE: 4,
        E8_TILDE: 6,
    }
    for tc, size in expect.items():
        result = minimal_additive_function(tc)
        assert result.image_size == size, tc
        assert is_additive_on_graph(result.graph, result.values, result.interior)
        assert all(v > 0 for v in result.values.values())


def test_minimal_additive_a_infinity_is_staircase():
    result = minimal_additive_function(A_INFINITY)
    assert result.image_size is None
    assert [result.values[k] for k in sorted(result.values)] == list(
        range(1, len(result.values) + 1)
    )


def test_minimal_additive_d_infinity_values():
    result = minimal_additive_function(D_INFINITY)
    values = sorted(result.values.values())
    assert values[:2] == [1, 1] and set(values[2:]) == {2}


def test_minimal_additive_e8_values_multiset():
    result = minimal_additive_function(E8_TILDE)
    assert sorted(result.values.values()) == sorted([1, 2, 3, 4, 5, 6, 4, 2, 3])


EUCLIDEAN = [A_TILDE_12] + [d_tilde(n) for n in range(4, 41)] + [E6_TILDE, E7_TILDE, E8_TILDE]


@pytest.mark.parametrize("tc", EUCLIDEAN, ids=str)
def test_null_root_table_matches_cartan_kernel(tc):
    graph, delta = _euclidean_graph(tc)
    assert list(delta) == list(graph.nodes)
    kernel = integer_kernel_vector(cartan_matrix(graph))
    assert {v: kernel[k] for k, v in enumerate(graph.nodes)} == delta
    result = minimal_additive_function(tc)
    assert result.values == delta and result.interior == graph.nodes


def test_minimal_additive_rejects_finite_dynkin():
    with pytest.raises(ValidationError):
        minimal_additive_function(finite_dynkin("A5"))


def test_tree_class_parse_round_trip():
    for text in ["A_inf", "A_inf_inf", "A12_tilde", "D_inf", "D4_tilde", "E8_tilde", "A5"]:
        assert str(TreeClass.parse(text)) == text
    with pytest.raises(ParseError):
        TreeClass.parse("Z9")
    with pytest.raises(ValidationError):
        d_tilde(3)


# ----------------------------------------------------------------- rendering


def test_dot_export_has_dashed_translation_arrows():
    w = tube_window(3, 2)
    dot = window_to_dot(w)
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
    # deterministic output
    assert dot == window_to_dot(tube_window(3, 2))


def test_dot_overlay_marks_pass_fail():
    w = zt_a_infinity_window(0, 3, 5)
    f = VertexFunction.from_ql(w, lambda q: q)
    dot = window_to_dot(w, f)
    assert "PASS" in dot and "FAIL" not in dot
    g = VertexFunction.constant(w, 2)
    dot2 = window_to_dot(w, g)
    assert "FAIL" in dot2


def test_valued_graph_dot():
    result = minimal_additive_function(E6_TILDE)
    dot = valued_graph_to_dot(result.graph, result.values)
    assert dot.startswith("graph") and "--" in dot
