import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartan_reference import cartan_matrix, integer_kernel_vector
from jordanquiver.errors import ParseError, ValidationError
from jordanquiver.quiver import (
    Quiver,
    VertexFunction,
    _orbit_graph,
    build_window,
    check_admissible,
    classify_function,
    is_additive_on_graph,
    minimal_additive_function,
    tube_window,
    valued_graph_to_dot,
    window_to_dot,
    zt_a_infinity_window,
    zt_window,
)
from jordanquiver.trees import TreeClass, _TREE_CLASS


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


PAIR = Quiver({"a", "b"}, [("a", "b")])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: tube_window(500_001, 2), "rank * max_ql = 1000002 vertices"),
        (lambda: tube_window(1, 10**9), "rank * max_ql = 1000000000 vertices"),
        (lambda: tube_window(10**30, 10**30), f"rank * max_ql = {10**60} vertices"),
        (lambda: zt_a_infinity_window(0, 500_000, 2),
         "(n_max - n_min + 1) * max_ql = 1000002 vertices"),
        (lambda: zt_a_infinity_window(1, 1, 10**9),
         "(n_max - n_min + 1) * max_ql = 1000000000 vertices"),
        (lambda: zt_window(PAIR, -250_000, 250_000),
         "(n_max - n_min + 1) * len(tree.vertices) = 1000002 vertices"),
        (lambda: zt_window(PAIR, 1, 10**9),
         "(n_max - n_min + 1) * len(tree.vertices) = 2000000000 vertices"),
    ],
)
def test_window_builders_refuse_more_than_a_million_vertices(build, message):
    with pytest.raises(ValidationError, match=re.escape(message) + " exceeds the bound of 1000000"):
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
    # s -> t and t -> s are two arrows, not one given twice
    cycle = build_window({"kind": "zt", "tree": {"vertices": ["s", "t"],
                                                 "arrows": [["s", "t"], ["t", "s"]]}})
    assert cycle.tree.arrows == {("s", "t"), ("t", "s")}
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
    assert report.is_subadditive is report.is_additive is report.is_tau_invariant is None
    assert report.eventual_level is None and report.note == "window has no interior"
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


# ---------------------------------------------------------------- affine tail


@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 5))
def test_classify_certifies_the_level_of_an_affine_tail(level, prev, delta):
    # f is affine from the level on, with f(level - 1) = prev and
    # f(level) = prev + delta (prev = 0 below level 1), and cut at 0 below;
    # classify_function must recover additivity from the level on
    if level == 1:
        prev = 0
    at = prev + delta
    w = tube_window(1, level + 6)

    def f(q):
        return max(0, at + delta * (q - level))

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
    for tc, size in expect.items():
        result = minimal_additive_function(tc)
        assert result.image_size == size, tc
        assert is_additive_on_graph(result.graph, result.values, result.interior)
        assert all(v > 0 for v in result.values.values())


def test_minimal_additive_a_infinity_is_staircase():
    result = minimal_additive_function(TreeClass("A_inf"))
    assert result.image_size is None
    assert [result.values[k] for k in sorted(result.values)] == list(
        range(1, len(result.values) + 1)
    )


def test_minimal_additive_d_infinity_values():
    result = minimal_additive_function(TreeClass("D_inf"))
    values = sorted(result.values.values())
    assert values[:2] == [1, 1] and set(values[2:]) == {2}


def test_minimal_additive_e8_values_multiset():
    result = minimal_additive_function(TreeClass("E8_tilde"))
    assert sorted(result.values.values()) == sorted([1, 2, 3, 4, 5, 6, 4, 2, 3])


EUCLIDEAN = (
    [TreeClass("A12_tilde")]
    + [TreeClass(f"D{n}_tilde") for n in range(4, 41)]
    + [TreeClass("E6_tilde"), TreeClass("E7_tilde"), TreeClass("E8_tilde")]
)


@pytest.mark.parametrize("tc", EUCLIDEAN, ids=str)
def test_null_root_table_matches_cartan_kernel(tc):
    graph, delta, _ = _orbit_graph(tc)
    assert list(delta) == list(graph.nodes)
    kernel = integer_kernel_vector(cartan_matrix(graph))
    assert {v: kernel[k] for k, v in enumerate(graph.nodes)} == delta
    result = minimal_additive_function(tc)
    assert result.values == delta and result.interior == graph.nodes


def _balanced_nodes(graph, values) -> set:
    """The nodes j with (C f)_j = 0, for the Cartan matrix C of the reference."""
    f = [values[v] for v in graph.nodes]
    return {
        v for v, row in zip(graph.nodes, cartan_matrix(graph))
        if sum(x * y for x, y in zip(row, f)) == 0
    }


@pytest.mark.parametrize("tc", [*map(TreeClass, ["A_inf", "A_inf_inf", "D_inf"]), *EUCLIDEAN],
                         ids=str)
def test_additivity_check_matches_the_cartan_matrix(tc):
    # 2 f(j) - sum_i d(i, j) f(i) is (C f)_j, since bonds are symmetric
    graph, table, interior = _orbit_graph(tc)
    c = cartan_matrix(graph)
    assert c == [list(column) for column in zip(*c)]
    rng = random.Random(str(tc))
    maps = [table, {v: 3 * x for v, x in table.items()}]
    maps += [{v: rng.randint(0, 4) for v in graph.nodes} for _ in range(5)]
    maps += [table | {v: table[v] + rng.choice((-1, 1))} for v in graph.nodes]
    for values in maps:
        balanced = _balanced_nodes(graph, values)
        for nodes in (interior, graph.nodes, *([v] for v in graph.nodes)):
            assert is_additive_on_graph(graph, values, nodes) == balanced.issuperset(nodes)


def test_minimal_additive_rejects_finite_dynkin():
    with pytest.raises(ValidationError):
        minimal_additive_function(TreeClass("A5"))


def test_tree_class_parse_round_trip():
    for text in ["A_inf", "A_inf_inf", "A12_tilde", "D_inf", "D4_tilde", "E8_tilde", "A5"]:
        assert str(TreeClass(text)) == text
    with pytest.raises(ParseError):
        TreeClass("Z9")
    with pytest.raises(ParseError):
        TreeClass("D3_tilde")


@pytest.mark.parametrize("text,message", [
    ("D1_0_tilde", "bad tree class 'D1_0_tilde'"),
    ("D+5_tilde", "bad tree class 'D+5_tilde'"),
    ("D 5_tilde", "bad tree class 'D 5_tilde'"),
    ("D\u0665_tilde", "bad tree class 'D\u0665_tilde'"),
    ("D05_tilde", "bad tree class 'D05_tilde'"),
    ("D_tilde", "bad tree class 'D_tilde'"),
    (" E6_tilde ", "unknown tree class ' E6_tilde '"),
    ("A\u0665", "unknown tree class 'A\u0665'"),
    ("E6_tilde\n", "unknown tree class 'E6_tilde\\n'"),
])
def test_tree_class_is_never_coerced(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        TreeClass(text)


@pytest.mark.parametrize("name", [None, 5, b"A_inf", ["A_inf"]])
def test_tree_class_name_must_be_a_str(name):
    with pytest.raises(ValidationError, match="tree class name must be a str"):
        TreeClass(name)


@given(st.from_regex(_TREE_CLASS, fullmatch=True)
       | st.text(alphabet="ADE_inftlde0123456789+ \u0665", max_size=12))
def test_every_accepted_tree_class_prints_as_its_name(text):
    try:
        tc = TreeClass(text)
    except ParseError:
        return
    assert str(tc) == text == tc.name
    d_tilde = text[0] == "D" and text.endswith("_tilde")
    assert tc.n == (int(text[1:-6]) if d_tilde else None)
    assert tc.finite == text[1:].isdigit()


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
    result = minimal_additive_function(TreeClass("E6_tilde"))
    dot = valued_graph_to_dot(result.graph, result.values)
    assert dot.startswith("graph") and "--" in dot
