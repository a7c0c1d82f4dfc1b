"""Finite windows of stable translation quivers.

The infinite quiver Z[T] over a directed tree T has vertices (n, t) and
arrows (n, s) -> (n, t), (n, t) -> (n+1, s) for every tree arrow s -> t,
with translation tau(n, t) = (n-1, t).  Tubes are the quotients
Z[A_inf]/<tau^rank>.  Only finite fragments ("windows") are ever built;
every analysis is certified on *interior* vertices, those whose full
predecessor set in the infinite object lies inside the window, so a
truncation can never manufacture a false positive.

A vertex function f is subadditive when
    f(y) + f(tau(y)) >= sum over predecessors x of f(x)
and additive when equality holds; "eventually additive at level l" asks
for equality on all vertices of quasi-length >= l.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .errors import (
    ParseError, ValidationError, Value, json_array, json_field, json_object, json_value,
    require_ints,
)
from .trees import TreeClass


class Quiver(Value):
    """A finite quiver without loops or multiple arrows."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: Iterable, arrows: Iterable):
        vertices = frozenset(vertices)
        arrows = frozenset(tuple(a) for a in arrows)
        for s, t in arrows:
            if s == t:
                raise ValidationError(f"loop at vertex {s!r} is not allowed")
            if s not in vertices or t not in vertices:
                raise ValidationError(f"arrow ({s!r}, {t!r}) leaves the vertex set")
        self._set(vertices, arrows)


class QuiverWindow:
    """A finite fragment of Z[T] or of a tube, with its translation.

    Vertices are pairs: (n, tree_vertex) for windows over a ``tree``,
    (n, ql) for Z[A_inf] windows and (n mod rank, ql) for tubes, so
    without a tree the second coordinate is the quasi-length.
    ``interior`` holds the vertices whose predecessor set and translate
    are fully inside the window; analysis is restricted to it.
    ``vertices``, ``arrows``, ``interior`` and ``succ_complete`` are
    sorted tuples and ``tau`` is keyed in vertex order, so every consumer
    walks them as they are.
    """

    def __init__(self, vertices: tuple, arrows: Iterable, tau: dict, interior: tuple,
                 succ_complete: tuple, rank: int | None = None, tree: Quiver | None = None):
        self.vertices = vertices
        self.arrows = tuple(sorted(arrows))
        self.tau = tau
        self.interior = interior
        self.succ_complete = succ_complete
        self.rank = rank
        self.tree = tree
        self._preds = {v: [] for v in vertices}
        self._succs = {v: [] for v in vertices}
        for s, t in self.arrows:
            self._preds[t].append(s)
            self._succs[s].append(t)

    def predecessors(self, v) -> list:
        return self._preds[v]

    def successors(self, v) -> list:
        return self._succs[v]


# -------------------------------------------------------------- construction


# a window is built whole, at about 1.3 kB a vertex; a larger one is
# refused before anything of its size is allocated
_MAX_VERTICES = 10**6


def tube_window(rank: int, max_ql: int) -> QuiverWindow:
    """Window of the tube Z[A_inf]/<tau^rank> with quasi-lengths 1..max_ql."""
    require_ints(rank=rank, max_ql=max_ql)
    if rank < 1:
        raise ValidationError(f"tube rank must be >= 1, got {rank}")
    chain = range(1, max_ql + 1)
    return _window(range(rank), chain, zip(chain, chain[1:]), max_ql, rank)


def zt_a_infinity_window(n_min: int, n_max: int, max_ql: int) -> QuiverWindow:
    """Window of Z[A_inf]: translation indices n_min..n_max, ql 1..max_ql."""
    require_ints(n_min=n_min, n_max=n_max, max_ql=max_ql)
    chain = range(1, max_ql + 1)
    return _window(range(n_min, n_max + 1), chain, zip(chain, chain[1:]), max_ql)


def zt_window(tree: Quiver, n_min: int, n_max: int) -> QuiverWindow:
    """Window of Z[T] over an explicit finite tree (or quiver) T."""
    require_ints(n_min=n_min, n_max=n_max)
    return _window(range(n_min, n_max + 1), sorted(tree.vertices), tree.arrows, None, tree=tree)


def _window(ns: range, nodes, tree_arrows, cut,
            rank: int | None = None, tree: Quiver | None = None) -> QuiverWindow:
    """Vertices (n, t) for n in ns and t in the sorted tree nodes.

    Each tree arrow s -> t gives arrows (n, s) -> (n, t) and
    (n, t) -> (n', s) for the index n' after n; on a tube (``rank``
    given) the first index follows the last.  A Z[A_inf] window is the
    one over the chain 1 -> 2 -> ... -> max_ql, whose ``cut`` node
    max_ql has neighbours outside the window, so no vertex on it is
    certified.  ``tree_arrows`` may be lazy: nothing of the window's
    size is built before the vertex count is checked.
    """
    if not ns:
        raise ValidationError(f"empty translation range {ns.start}..{ns.stop - 1}")
    if not nodes:
        raise ValidationError("tree must have at least one vertex" if tree is not None
                              else f"max_ql must be >= 1, got {cut}")
    # the chain 1..max_ql has max_ql nodes; len() of a range overflows
    # past sys.maxsize, so the count is taken from the ends
    count = (ns[-1] - ns[0] + 1) * (len(nodes) if tree is not None else cut)
    if count > _MAX_VERTICES:
        span = "rank" if rank is not None else "(n_max - n_min + 1)"
        size = "len(tree.vertices)" if tree is not None else "max_ql"
        raise ValidationError(
            f"window of {span} * {size} = {count} vertices exceeds the bound of {_MAX_VERTICES}"
        )
    after = dict(zip(ns, ns[1:]))
    if rank is not None:
        after[ns[-1]] = ns[0]
    before = {m: n for n, m in after.items()}
    tree_arrows = list(tree_arrows)
    targets = {t for _, t in tree_arrows}
    # tuples are made from lists, not generators: tuple() resizes what a
    # generator gives it, and CPython then parks each freed tuple on its
    # per-size free list, which a long-running process keeps as RSS
    vertices = tuple([(n, t) for n in ns for t in nodes])
    arrows = []
    for n in ns:
        for s, t in tree_arrows:
            arrows.append(((n, s), (n, t)))
            if n in after:
                arrows.append(((n, t), (after[n], s)))
    tau = {(n, t): (before[n], t) for n, t in vertices if n in before}
    return QuiverWindow(
        vertices=vertices,
        arrows=arrows,
        tau=tau,
        interior=tuple([v for v in tau if v[1] != cut]),
        succ_complete=tuple(
            [(n, t) for n, t in vertices if t != cut and (n in after or t not in targets)]
        ),
        rank=rank,
        tree=tree,
    )


def build_window(spec: Mapping) -> QuiverWindow:
    """Build a window from its JSON description.

    Tube: ``{"kind": "tube", "rank": 3, "max_ql": 8}``.
    Z[A_inf]: ``{"kind": "zt", "max_ql": 4, "n_min": 0, "n_max": 3}``.
    Generic Z[T]: ``{"kind": "zt", "tree": {"vertices": [...],
    "arrows": [[s, t], ...]}, "n_min": 0, "n_max": 3}``.
    A field the form does not read, such as a tree beside max_ql, is a
    ParseError.
    """
    kind = json_field(spec, "kind", str)
    if kind == "tube":
        json_object(spec, ("kind", "rank", "max_ql"), name="tube window")
        return tube_window(json_field(spec, "rank", int), json_field(spec, "max_ql", int))
    if kind == "zt":
        # Z[A_inf] is cut at max_ql, and a given tree is not
        form = "tree" if "tree" in spec else "max_ql"
        json_object(spec, ("kind", "n_min", "n_max", form), name="zt window")
        n_min = json_field(spec, "n_min", int, default=0)
        n_max = json_field(spec, "n_max", int, default=n_min + 3)
        if form == "max_ql":
            return zt_a_infinity_window(n_min, n_max, json_field(spec, "max_ql", int))
        tree = json_object(spec["tree"], ("vertices", "arrows"), "tree")
        arrows = []
        for n, arrow in enumerate(json_array(tree, "arrows", list, "tree")):
            if len(arrow) != 2:
                raise ParseError(f"tree.arrows[{n}] must be [s, t], got {arrow!r}")
            arrows.append(
                tuple(json_value(v, str, f"tree.arrows[{n}][{k}]") for k, v in enumerate(arrow))
            )
        return zt_window(Quiver(json_array(tree, "vertices", str, "tree"), arrows), n_min, n_max)
    raise ParseError(f"unknown window kind {kind!r}")


# -------------------------------------------------------------- admissibility


class AdmissibilityReport(Value):
    __slots__ = ("admissible", "violation", "tested")

    def __init__(self, admissible: bool, violation: tuple | None, tested: int):
        # violation: (x, y) with |orbit(x) & ({y} | y+-)| > 1
        self._set(admissible, violation, tested)


def _orbit_key(window: QuiverWindow, power: int, v):
    """Canonical label of the <tau^power>-orbit of v in the infinite object."""
    if power == 0:
        return v
    n, t = v
    if window.rank is not None:
        g = math.gcd(power, window.rank)
        return (n % g, t)
    return (n % power, t)


def check_admissible(window: QuiverWindow, power: int = 1) -> AdmissibilityReport:
    """Test whether <tau^power> is admissible on the window.

    The subgroup is admissible when every orbit meets {y} union y+ and
    {y} union y- at most once.  The successor condition is tested on
    vertices whose successor set is complete in the window, the
    predecessor condition on interior vertices; power = 0 denotes the
    trivial group.
    """
    require_ints(power=power)
    if power < 0:
        raise ValidationError(f"power must be >= 0, got {power}")
    tested = 0
    neighborhoods = chain(
        ((y, window.successors(y)) for y in window.succ_complete),
        ((y, window.predecessors(y)) for y in window.interior),
    )
    for y, neighbors in neighborhoods:
        tested += 1
        seen = {}
        for z in (y, *neighbors):
            key = _orbit_key(window, power, z)
            if key in seen and seen[key] != z:
                return AdmissibilityReport(False, (seen[key], y), tested)
            seen[key] = z
    return AdmissibilityReport(True, None, tested)


# ---------------------------------------------------------------- orbit graph


class ValuedGraph(Value):
    """A valued graph (I, d) with symmetric bonds: d(i, j) = d(j, i), and
    d(i, i) = 0.  ``d`` holds each bond in both orientations and no zeros."""

    __slots__ = ("nodes", "d")

    def __init__(self, nodes: tuple, d: dict):
        self._set(nodes, d)


def is_additive_on_graph(graph: ValuedGraph, values: Mapping, nodes: Iterable) -> bool:
    """Check 2 f(j) = sum_i f(i) d(i, j) at the given nodes, in one pass over the bonds."""
    total = dict.fromkeys(graph.nodes, 0)
    for (i, j), w in graph.d.items():
        total[j] += values[i] * w
    return all(2 * values[j] == total[j] for j in nodes)


# ------------------------------------------------------------ vertex functions


class VertexFunction:
    """A total map from window vertices to nonnegative integers."""

    def __init__(self, window: QuiverWindow, values: dict):
        missing = [v for v in window.vertices if v not in values]
        if missing:
            raise ValidationError(
                f"function undefined on {len(missing)} window vertices, e.g. {missing[0]!r}"
            )
        for v, x in values.items():
            if type(x) is not int or x < 0:
                raise ValidationError(f"value at {v!r} must be a nonnegative integer")
        self.window = window
        self.values = values

    @classmethod
    def from_ql(cls, window: QuiverWindow, fn: Callable[[int], int]) -> "VertexFunction":
        if window.tree is not None:
            raise ValidationError("window has no quasi-length labeling")
        return cls(window, {v: fn(v[1]) for v in window.vertices})

    @classmethod
    def constant(cls, window: QuiverWindow, c: int) -> "VertexFunction":
        return cls(window, {v: c for v in window.vertices})

    def __call__(self, v) -> int:
        return self.values[v]


class FunctionReport(Value):
    """Outcome of classifying a vertex function on a window.

    All verdicts refer to the interior only, and are None on a window
    without one.  ``eventual_level`` is the least l with additivity at
    every interior vertex of quasi-length >= l, reported only when at
    least one interior layer above the last failure was actually verified;
    otherwise it stays None and ``note`` says why.
    """

    __slots__ = ("is_subadditive", "is_additive", "is_tau_invariant", "eventual_level", "note")

    def __init__(self, is_subadditive: bool | None, is_additive: bool | None,
                 is_tau_invariant: bool | None, eventual_level: int | None, note: str = ""):
        self._set(is_subadditive, is_additive, is_tau_invariant, eventual_level, note)


def _additivity_balance(f: VertexFunction) -> dict:
    """(f(y) + f(tau y), sum of f(x) over predecessors x) per interior y."""
    window = f.window
    return {
        y: (f(y) + f(window.tau[y]), sum(map(f, window.predecessors(y))))
        for y in window.interior
    }


def classify_function(f: VertexFunction) -> FunctionReport:
    """Decide subadditivity / additivity / eventual additivity on a window."""
    window = f.window
    if not window.interior:
        return FunctionReport(None, None, None, None, "window has no interior")
    balance = _additivity_balance(f)
    subadd = all(lhs >= rhs for lhs, rhs in balance.values())
    unbalanced = [y for y, (lhs, rhs) in balance.items() if lhs != rhs]
    tau_inv = all(f(v) == f(tv) for v, tv in window.tau.items())
    level: int | None = None
    note = ""
    if window.tree is not None:
        note = "no quasi-length labeling; eventual level not applicable"
    else:
        top = max(y[1] for y in window.interior)
        worst = max((y[1] for y in unbalanced), default=0)
        if worst < top:
            level = worst + 1
        else:
            note = "window too small to certify an eventual-additivity level"
    return FunctionReport(subadd, not unbalanced, tau_inv, level, note)


# --------------------------------------------------------- minimal additive f


class MinimalAdditiveFunction(Value):
    """The positive additive function all others are integer multiples of.

    For truncations of infinite graphs, additivity is certified on the
    listed interior nodes only.  ``image_size`` is the cardinality of the
    image on the infinite graph: None means unbounded (tree class A_inf).
    """

    __slots__ = ("graph", "values", "image_size", "interior")

    def __init__(self, graph: ValuedGraph, values: dict, image_size: int | None, interior: tuple):
        self._set(graph, values, image_size, interior)


_TRUNCATION = 10


def _orbit_graph(tc: TreeClass) -> tuple[ValuedGraph, dict, tuple]:
    """Orbit graph of a tree class, its minimal additive function, and the
    nodes whose neighbours all lie in the graph.

    Euclidean diagrams are whole and carry their null root, the primitive
    positive vector spanning the kernel of the Cartan matrix
    (Happel-Preiser-Ringel 1980).  Infinite classes are cut after
    _TRUNCATION nodes along each infinite arm, and the cut ends are not
    interior.  Values are listed in node order.
    """
    name, top = tc.name, _TRUNCATION
    ends, weight = (), 1
    if name == "A_inf":
        # the staircase: 2 f(q) = f(q-1) + f(q+1) and 2 f(1) = f(2)
        chain = range(1, top + 1)
        values = {q: q for q in chain}
        edges = list(zip(chain, chain[1:]))
        ends = (top,)
    elif name == "A_inf_inf":
        # positive additive functions on the doubly infinite chain are
        # affine, and staying positive in both directions forces constants
        chain = range(-top, top + 1)
        values = dict.fromkeys(chain, 1)
        edges = list(zip(chain, chain[1:]))
        ends = (-top, top)
    elif name == "A12_tilde":
        # two nodes joined by a (2,2)-valued bond
        values, edges, weight = {0: 1, 1: 1}, [(0, 1)], 2
    elif name == "D_inf" or tc.n is not None:
        # forks 'a','b' on the chain c1, c2, ..., which D~n closes after
        # c_{n-3} with the forks 'y','z'; 2 f(c1) = f(a) + f(b) + f(c2)
        # starts the chain at twice the fork value, and it stays there
        n = tc.n
        chain = [f"c{i}" for i in range(1, top + 1 if n is None else n - 2)]
        forks = [] if n is None else ["y", "z"]
        values = {"a": 1, "b": 1} | dict.fromkeys(chain, 2) | dict.fromkeys(forks, 1)
        edges = [("a", "c1"), ("b", "c1"), *zip(chain, chain[1:])]
        edges += [(chain[-1], v) for v in forks]
        ends = (chain[-1],) if n is None else ()
    elif name == "E6_tilde":
        # three arms of length 2 from the center
        values = {"c": 3, "a1": 2, "a2": 1, "b1": 2, "b2": 1, "d1": 2, "d2": 1}
        edges = [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
    elif name == "E7_tilde":
        # chain of 7 with one extra node on the center
        chain = range(7)
        values = dict(zip([*chain, "b"], (1, 2, 3, 4, 3, 2, 1, 2)))
        edges = [*zip(chain, chain[1:]), (3, "b")]
    else:
        # E8_tilde, the last class left once the finite ones are refused:
        # a chain of 8 with the branch node attached at position 5
        chain = range(8)
        values = dict(zip([*chain, "b"], (1, 2, 3, 4, 5, 6, 4, 2, 3)))
        edges = [*zip(chain, chain[1:]), (5, "b")]
    d = {}
    for a, b in edges:
        d[(a, b)] = d[(b, a)] = weight
    graph = ValuedGraph(tuple(values), d)
    return graph, values, tuple(v for v in graph.nodes if v not in ends)


def minimal_additive_function(tc: TreeClass) -> MinimalAdditiveFunction:
    """Minimal positive additive function on the orbit graph of a tree class.

    The values come from the closed form of ``_orbit_graph`` and are
    certified at run time: additive on the interior, with minimum 1.
    Since the positive additive functions on a tree class form one ray,
    that makes them the minimal one.  Finite Dynkin classes are rejected,
    since there the zero function is the only additive one.
    """
    if tc.finite:
        raise ValidationError(
            "on a finite Dynkin tree class only f = 0 is additive; no minimal positive function exists"
        )
    # D~n has n + 1 nodes, and no other class more than 21; like a window,
    # a larger graph is refused before any node is built.  n is bounded by
    # its digits first, as int() reads no more than 4300 of them
    if tc.name.startswith("D") and tc.name.endswith("_tilde"):
        digits = tc.name[1:-len("_tilde")]
        if len(digits) > len(str(_MAX_VERTICES)) or int(digits) + 1 > _MAX_VERTICES:
            raise ValidationError(
                f"orbit graph of {tc} has n + 1 nodes, more than the bound of {_MAX_VERTICES}"
            )
    graph, values, interior = _orbit_graph(tc)
    if not is_additive_on_graph(graph, values, interior) or min(values.values()) != 1:
        raise ValidationError(f"the minimal additive function of {tc} failed its check")
    # only the staircase of A_inf grows without bound
    image = None if tc.name == "A_inf" else len(set(values.values()))
    return MinimalAdditiveFunction(graph, values, image, interior)


# ----------------------------------------------------------------- rendering


def window_to_dot(window: QuiverWindow, overlay: VertexFunction | None = None) -> str:
    """Render a window as DOT.  Translation arrows are dashed.

    With an overlay, vertex labels carry the function value and interior
    vertices PASS/FAIL of the additivity equation.
    """
    names = {v: f"v{i}" for i, v in enumerate(window.vertices)}
    lines = ["digraph window {"]
    per_vertex_ok = {}
    if overlay is not None:
        per_vertex_ok = {y: lhs == rhs for y, (lhs, rhs) in _additivity_balance(overlay).items()}
    for v in window.vertices:
        label = f"({v[0]},{v[1]})"
        if overlay is not None:
            label += f" f={overlay(v)}"
        if v in per_vertex_ok:
            label += " PASS" if per_vertex_ok[v] else " FAIL"
        lines.append(f'  {names[v]} [label="{label}"];')
    for a, b in window.arrows:
        lines.append(f"  {names[a]} -> {names[b]};")
    for v, tv in window.tau.items():
        lines.append(f"  {names[v]} -> {names[tv]} [style=dashed];")
    if per_vertex_ok:
        good = sum(per_vertex_ok.values())
        lines.append(f"  // additive at {good}/{len(per_vertex_ok)} interior vertices")
    lines.append("}")
    return "\n".join(lines)


def valued_graph_to_dot(graph: ValuedGraph, values: Mapping) -> str:
    """Render a valued graph as undirected DOT, each node labelled with its value."""
    names = {v: f"n{i}" for i, v in enumerate(graph.nodes)}
    lines = ["graph orbits {"]
    for v in graph.nodes:
        lines.append(f'  {names[v]} [label="{v}: {values[v]}"];')
    # a bond is drawn once, in the orientation whose str sorts first; d holds
    # both, so each orientation's str is taken once
    text = {bond: str(bond) for bond in graph.d}
    for (a, b), key in sorted(text.items(), key=itemgetter(1)):
        if key < text[b, a]:
            w = graph.d[a, b]
            attr = "" if w == 1 else f' [label="({w},{w})"]'
            lines.append(f"  {names[a]} -- {names[b]}{attr};")
    lines.append("}")
    return "\n".join(lines)
