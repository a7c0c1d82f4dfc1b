"""Finite windows of valued stable translation quivers.

The infinite quiver Z[T] over a directed tree T has vertices (n, t) and
arrows (n, s) -> (n, t), (n, t) -> (n+1, s) for every tree arrow s -> t,
with translation tau(n, t) = (n-1, t).  Tubes are the quotients
Z[A_inf]/<tau^rank>.  Only finite fragments ("windows") are ever built;
every analysis is certified on *interior* vertices, those whose full
predecessor set in the infinite object lies inside the window, so a
truncation can never manufacture a false positive.

A vertex function f is subadditive when
    f(y) + f(tau(y)) >= sum over predecessors x of f(x) * nu(x, y)[0]
and additive when equality holds; "eventually additive at level l" asks
for equality on all vertices of quasi-length >= l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Mapping

from .errors import (
    ParseError, ValidationError, json_array, json_field, json_value, require_ints,
)

Vertex = tuple
Arrow = tuple  # (source, target)


@dataclass(frozen=True)
class Quiver:
    """A finite quiver without loops or multiple arrows."""

    vertices: frozenset
    arrows: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "arrows", frozenset(tuple(a) for a in self.arrows))
        for s, t in self.arrows:
            if s == t:
                raise ValidationError(f"loop at vertex {s!r} is not allowed")
            if s not in self.vertices or t not in self.vertices:
                raise ValidationError(f"arrow ({s!r}, {t!r}) leaves the vertex set")


@dataclass(eq=False)
class QuiverWindow:
    """A finite fragment of Z[T] or of a tube, with its translation.

    Vertices are pairs: (n, tree_vertex) for windows over a ``tree``,
    (n, ql) for Z[A_inf] windows and (n mod rank, ql) for tubes, so
    without a tree the second coordinate is the quasi-length.
    ``interior`` holds the vertices whose predecessor set and translate
    are fully inside the window; analysis is restricted to it.
    ``vertices``, ``arrows``, ``interior`` and ``succ_complete`` are
    sorted tuples and ``tau`` is keyed in vertex order, so every consumer
    walks them as they are.  ``valuation`` holds only the arrows whose
    valuation is not (1, 1).
    """

    vertices: tuple
    arrows: tuple
    tau: dict
    interior: tuple
    succ_complete: tuple
    valuation: dict = field(default_factory=dict)
    rank: int | None = None
    tree: Quiver | None = None

    def __post_init__(self):
        self.arrows = tuple(sorted(self.arrows))
        self._preds = {v: [] for v in self.vertices}
        self._succs = {v: [] for v in self.vertices}
        for s, t in self.arrows:
            self._preds[t].append(s)
            self._succs[s].append(t)
        if not self.valuation:
            return
        arrows = set(self.arrows)
        for arrow, nu in self.valuation.items():
            if arrow not in arrows:
                raise ValidationError(f"valuation on {arrow!r}, which is not a window arrow")
            if type(nu) is not tuple or list(map(type, nu)) != [int, int] or min(nu) < 1:
                raise ValidationError(
                    f"valuation on {arrow!r} must be a pair of positive ints, got {nu!r}"
                )
        self.valuation = {arrow: nu for arrow, nu in self.valuation.items() if nu != (1, 1)}
        # nu(tau(b), a) must be the swap of nu(a, b) whenever both arrows
        # lie in the window
        for a, b in self.arrows:
            tb = self.tau.get(b)
            if (tb, a) in arrows:
                m, n = self.valuation.get((a, b), (1, 1))
                if self.valuation.get((tb, a), (1, 1)) != (n, m):
                    raise ValidationError(
                        f"valuation violates translation compatibility on arrow ({a!r}, {b!r})"
                    )

    def predecessors(self, v) -> list:
        return self._preds[v]

    def successors(self, v) -> list:
        return self._succs[v]

    def arrow_weight(self, x, y) -> int:
        return self.valuation.get((x, y), (1, 1))[0]


# -------------------------------------------------------------- construction


def tube_window(rank: int, max_ql: int, valuation: Mapping | None = None) -> QuiverWindow:
    """Window of the tube Z[A_inf]/<tau^rank> with quasi-lengths 1..max_ql."""
    require_ints(rank=rank, max_ql=max_ql)
    if rank < 1:
        raise ValidationError(f"tube rank must be >= 1, got {rank}")
    return _ql_window(range(rank), max_ql, valuation, rank)


def zt_a_infinity_window(
    n_min: int, n_max: int, max_ql: int, valuation: Mapping | None = None
) -> QuiverWindow:
    """Window of Z[A_inf]: translation indices n_min..n_max, ql 1..max_ql."""
    require_ints(n_min=n_min, n_max=n_max, max_ql=max_ql)
    if n_max < n_min:
        raise ValidationError(f"empty translation range {n_min}..{n_max}")
    return _ql_window(range(n_min, n_max + 1), max_ql, valuation)


def _ql_window(ns: range, max_ql: int, valuation, rank: int | None = None) -> QuiverWindow:
    """Vertices (n, q) for n in ns and quasi-lengths q in 1..max_ql.

    Arrows run (n, q) -> (n, q+1) and (n, q+1) -> (n', q) for the index
    n' after n; on a tube (``rank`` given) the first index follows the last.
    """
    if max_ql < 1:
        raise ValidationError(f"max_ql must be >= 1, got {max_ql}")
    after = dict(zip(ns, ns[1:]))
    if rank is not None:
        after[ns[-1]] = ns[0]
    before = {m: n for n, m in after.items()}
    # tuples are made from lists, not generators: tuple() resizes what a
    # generator gives it, and CPython then parks each freed tuple on its
    # per-size free list, which a long-running process keeps as RSS
    vertices = tuple([(n, q) for n in ns for q in range(1, max_ql + 1)])
    arrows = []
    for n, q in vertices:
        if q < max_ql:
            arrows.append(((n, q), (n, q + 1)))
            if n in after:
                arrows.append(((n, q + 1), (after[n], q)))
    tau = {(n, q): (before[n], q) for n, q in vertices if n in before}
    return QuiverWindow(
        vertices=vertices,
        arrows=arrows,
        tau=tau,
        interior=tuple([v for v in tau if v[1] < max_ql]),
        succ_complete=tuple(
            [(n, q) for n, q in vertices if q < max_ql and (q == 1 or n in after)]
        ),
        valuation=dict(valuation or {}),
        rank=rank,
    )


def zt_window(
    tree: Quiver, n_min: int, n_max: int, valuation: Mapping | None = None
) -> QuiverWindow:
    """Window of Z[T] over an explicit finite tree (or quiver) T."""
    require_ints(n_min=n_min, n_max=n_max)
    if n_max < n_min:
        raise ValidationError(f"empty translation range {n_min}..{n_max}")
    if not tree.vertices:
        raise ValidationError("tree must have at least one vertex")
    # tuples from lists, as in _ql_window
    vertices = tuple([(n, t) for n in range(n_min, n_max + 1) for t in sorted(tree.vertices)])
    arrows = []
    for n in range(n_min, n_max + 1):
        for s, t in tree.arrows:
            arrows.append(((n, s), (n, t)))
            if n + 1 <= n_max:
                arrows.append(((n, t), (n + 1, s)))
    targets = {t for _, t in tree.arrows}
    return QuiverWindow(
        vertices=vertices,
        arrows=arrows,
        tau={(n, t): (n - 1, t) for (n, t) in vertices if n > n_min},
        # every predecessor of (n, t) lies in layers n and n-1
        interior=tuple([(n, t) for (n, t) in vertices if n > n_min]),
        succ_complete=tuple([(n, t) for (n, t) in vertices if n < n_max or t not in targets]),
        valuation=dict(valuation or {}),
        tree=tree,
    )


def build_window(spec: Mapping) -> QuiverWindow:
    """Build a window from its JSON description.

    Tube: ``{"kind": "tube", "rank": 3, "max_ql": 8}``.
    Z[A_inf]: ``{"kind": "zt", "max_ql": 4, "n_min": 0, "n_max": 3}``.
    Generic Z[T]: ``{"kind": "zt", "tree": {"vertices": [...],
    "arrows": [[s, t], ...]}, "n_min": 0, "n_max": 3}``.
    """
    kind = json_field(spec, "kind", str)
    if kind == "tube":
        return tube_window(json_field(spec, "rank", int), json_field(spec, "max_ql", int))
    if kind == "zt":
        n_min = json_field(spec, "n_min", int, default=0)
        n_max = json_field(spec, "n_max", int, default=n_min + 3)
        if "tree" not in spec:
            return zt_a_infinity_window(n_min, n_max, json_field(spec, "max_ql", int))
        tree = json_field(spec, "tree", dict)
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


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violation: tuple | None  # (x, y) with |orbit(x) & ({y} | y+-)| > 1
    tested: int


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


@dataclass
class ValuedGraph:
    """A valued graph (I, d): d(i, i) = 0 and d(i, j) != 0 iff d(j, i) != 0."""

    nodes: tuple
    d: dict

    def value(self, i, j) -> int:
        return self.d.get((i, j), 0)

    def check(self):
        for (i, j), v in self.d.items():
            if i == j:
                raise ValidationError(f"valued graph has d({i!r},{i!r}) != 0")
            if v <= 0:
                raise ValidationError("stored valuations must be positive")
            if (j, i) not in self.d:
                raise ValidationError(
                    f"support is not symmetric: d({i!r},{j!r}) != 0 but d({j!r},{i!r}) = 0"
                )


def orbit_valued_graph(window: QuiverWindow, power: int = 1) -> ValuedGraph:
    """The valued graph on <tau^power>-orbits of the window.

    d([x], [y]) is the first valuation component of any arrow from [x]
    to [y]; admissibility (checked first) makes this well defined and
    forces d(i, i) = 0 with symmetric support.
    """
    report = check_admissible(window, power)
    if not report.admissible:
        raise ValidationError(
            f"subgroup <tau^{power}> is not admissible; violating pair {report.violation!r}"
        )
    nodes = sorted({_orbit_key(window, power, v) for v in window.vertices})
    d: dict = {}
    for a, b in window.arrows:
        ka, kb = _orbit_key(window, power, a), _orbit_key(window, power, b)
        w = window.arrow_weight(a, b)
        prev = d.get((ka, kb))
        if prev is not None and prev != w:
            raise ValidationError(
                f"orbit valuation ill-defined between {ka!r} and {kb!r}"
            )
        d[(ka, kb)] = w
    graph = ValuedGraph(tuple(nodes), d)
    graph.check()
    return graph


def is_additive_on_graph(
    graph: ValuedGraph, values: Mapping, nodes: Iterable | None = None
) -> bool:
    """Check 2 f(j) = sum_i f(i) d(i, j) at the given nodes (default all)."""
    todo = graph.nodes if nodes is None else tuple(nodes)
    return all(
        2 * values[j] == sum(values[i] * graph.value(i, j) for i in graph.nodes)
        for j in todo
    )


# ------------------------------------------------------------ vertex functions


@dataclass(eq=False)
class VertexFunction:
    """A total map from window vertices to nonnegative integers."""

    window: QuiverWindow
    values: dict

    def __post_init__(self):
        missing = [v for v in self.window.vertices if v not in self.values]
        if missing:
            raise ValidationError(
                f"function undefined on {len(missing)} window vertices, e.g. {missing[0]!r}"
            )
        for v, x in self.values.items():
            if type(x) is not int or x < 0:
                raise ValidationError(f"value at {v!r} must be a nonnegative integer")

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


@dataclass(frozen=True)
class FunctionReport:
    """Outcome of classifying a vertex function on a window.

    All verdicts refer to the interior only.  ``eventual_level`` is the
    least l with additivity at every interior vertex of quasi-length >= l,
    reported only when at least one interior layer above the last failure
    was actually verified; otherwise it stays None and ``note`` says why.
    """

    is_subadditive: bool | None
    is_additive: bool | None
    is_tau_invariant: bool | None
    eventual_level: int | None
    indeterminate: bool
    note: str = ""


def _additivity_balance(f: VertexFunction) -> dict:
    """(f(y) + f(tau y), sum of f(x) * nu(x, y)[0] over predecessors x) per interior y."""
    window = f.window
    return {
        y: (f(y) + f(window.tau[y]),
            sum(f(x) * window.arrow_weight(x, y) for x in window.predecessors(y)))
        for y in window.interior
    }


def classify_function(f: VertexFunction) -> FunctionReport:
    """Decide subadditivity / additivity / eventual additivity on a window."""
    window = f.window
    if not window.interior:
        return FunctionReport(None, None, None, None, True, "window has no interior")
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
    return FunctionReport(subadd, not unbalanced, tau_inv, level, False, note)


@dataclass(frozen=True)
class ClosedForm:
    """Affine closed form f(ql) = slope*(ql - level) + base, valid for ql >= level.

    When the slope is zero the function is constant from level-1 on
    (``constant_from``), matching the bounded case of eventually additive
    functions on A_inf components.
    """

    level: int
    slope: int
    base: int

    @property
    def constant_from(self) -> int | None:
        return max(1, self.level - 1) if self.slope == 0 else None

    def value(self, ql: int) -> int:
        lo = self.constant_from if self.slope == 0 else self.level
        if ql < lo:
            raise ValidationError(f"closed form only valid for ql >= {lo}, got {ql}")
        return self.slope * (ql - self.level) + self.base


def extrapolate(level: int, value_prev: int, value_at: int) -> ClosedForm:
    """Closed form of an eventually additive function from two layer values.

    ``value_prev`` is the value at quasi-length level-1 (forced 0 when
    level == 1) and ``value_at`` the value at quasi-length level.  The
    slope must be nonnegative for the form to stay within N_0.
    """
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    if value_prev < 0 or value_at < 0:
        raise ValidationError("layer values must be nonnegative")
    if level == 1 and value_prev != 0:
        raise ValidationError("at level 1 the value below the window is 0 by convention")
    slope = value_at - value_prev
    if slope < 0:
        raise ValidationError(
            "negative slope cannot arise for N_0-valued functions on an infinite component"
        )
    return ClosedForm(level=level, slope=slope, base=value_at)


# --------------------------------------------------------- minimal additive f


class TreeClassKind(Enum):
    A_INFINITY = "A_inf"
    A_DOUBLE_INFINITY = "A_inf_inf"
    A_TILDE_12 = "A12_tilde"
    D_INFINITY = "D_inf"
    D_TILDE = "D_tilde"
    E6_TILDE = "E6_tilde"
    E7_TILDE = "E7_tilde"
    E8_TILDE = "E8_tilde"
    FINITE_DYNKIN = "finite"


@dataclass(frozen=True)
class TreeClass:
    """Tree class of a stable translation quiver component."""

    kind: TreeClassKind
    n: int | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind is TreeClassKind.D_TILDE:
            if self.n is None or self.n < 4:
                raise ValidationError("D~ tree class needs an index n >= 4")
        elif self.kind is TreeClassKind.FINITE_DYNKIN:
            if not self.name:
                raise ValidationError("finite Dynkin tree class needs a label")

    @classmethod
    def parse(cls, text: str) -> "TreeClass":
        token = text.strip()
        simple = {
            "A_inf": TreeClassKind.A_INFINITY,
            "A_inf_inf": TreeClassKind.A_DOUBLE_INFINITY,
            "A12_tilde": TreeClassKind.A_TILDE_12,
            "D_inf": TreeClassKind.D_INFINITY,
            "E6_tilde": TreeClassKind.E6_TILDE,
            "E7_tilde": TreeClassKind.E7_TILDE,
            "E8_tilde": TreeClassKind.E8_TILDE,
        }
        if token in simple:
            return cls(simple[token])
        if token.endswith("_tilde") and token.startswith("D"):
            try:
                return cls(TreeClassKind.D_TILDE, n=int(token[1:-6]))
            except ValueError as exc:
                raise ParseError(f"bad tree class {text!r}") from exc
        if token and token[0] in "ADE" and token[1:].isdigit():
            return cls(TreeClassKind.FINITE_DYNKIN, name=token)
        raise ParseError(f"unknown tree class {text!r}")

    def __str__(self) -> str:
        if self.kind is TreeClassKind.D_TILDE:
            return f"D{self.n}_tilde"
        if self.kind is TreeClassKind.FINITE_DYNKIN:
            return self.name or "finite"
        return self.kind.value


A_INFINITY = TreeClass(TreeClassKind.A_INFINITY)
A_DOUBLE_INFINITY = TreeClass(TreeClassKind.A_DOUBLE_INFINITY)
A_TILDE_12 = TreeClass(TreeClassKind.A_TILDE_12)
D_INFINITY = TreeClass(TreeClassKind.D_INFINITY)
E6_TILDE = TreeClass(TreeClassKind.E6_TILDE)
E7_TILDE = TreeClass(TreeClassKind.E7_TILDE)
E8_TILDE = TreeClass(TreeClassKind.E8_TILDE)


def d_tilde(n: int) -> TreeClass:
    return TreeClass(TreeClassKind.D_TILDE, n=n)


def finite_dynkin(name: str) -> TreeClass:
    return TreeClass(TreeClassKind.FINITE_DYNKIN, name=name)


@dataclass(frozen=True)
class MinimalAdditiveFunction:
    """The positive additive function all others are integer multiples of.

    For truncations of infinite graphs, additivity is certified on the
    listed interior nodes only.  ``image_size`` is the cardinality of the
    image on the infinite graph: None means unbounded (tree class A_inf).
    """

    tree_class: TreeClass
    graph: ValuedGraph
    values: dict
    image_size: int | None
    interior: tuple


def _undirected(edges, nodes) -> ValuedGraph:
    d = {}
    for a, b in edges:
        d[(a, b)] = 1
        d[(b, a)] = 1
    return ValuedGraph(tuple(nodes), d)


def _euclidean_graph(tc: TreeClass) -> tuple[ValuedGraph, dict]:
    """The orbit graph of a Euclidean tree class and its null root delta.

    delta is the primitive positive vector spanning the kernel of the
    Cartan matrix (Happel-Preiser-Ringel 1980), tabulated per diagram.
    """
    if tc.kind is TreeClassKind.A_TILDE_12:
        # two nodes joined by a (2,2)-valued bond
        return ValuedGraph((0, 1), {(0, 1): 2, (1, 0): 2}), {0: 1, 1: 1}
    if tc.kind is TreeClassKind.D_TILDE:
        n = tc.n
        # forks 'a','b' - chain c1..c_{n-3} - forks 'y','z'
        chain = [f"c{i}" for i in range(1, n - 2)]
        nodes = ["a", "b"] + chain + ["y", "z"]
        edges = [("a", chain[0]), ("b", chain[0])]
        edges += list(zip(chain, chain[1:]))
        edges += [(chain[-1], "y"), (chain[-1], "z")]
        delta = dict.fromkeys(nodes, 1) | dict.fromkeys(chain, 2)
        return _undirected(edges, nodes), delta
    if tc.kind is TreeClassKind.E6_TILDE:
        # three arms of length 2 from the center
        nodes = ["c", "a1", "a2", "b1", "b2", "d1", "d2"]
        edges = [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
        delta = {"c": 3, "a1": 2, "a2": 1, "b1": 2, "b2": 1, "d1": 2, "d2": 1}
        return _undirected(edges, nodes), delta
    if tc.kind is TreeClassKind.E7_TILDE:
        # chain of 7 with one extra node on the center
        chain = list(range(7))
        nodes = chain + ["b"]
        edges = list(zip(chain, chain[1:])) + [(3, "b")]
        delta = dict(zip(nodes, (1, 2, 3, 4, 3, 2, 1, 2)))
        return _undirected(edges, nodes), delta
    if tc.kind is TreeClassKind.E8_TILDE:
        # chain of 8 with the branch node attached at position 5
        chain = list(range(8))
        nodes = chain + ["b"]
        edges = list(zip(chain, chain[1:])) + [(5, "b")]
        delta = dict(zip(nodes, (1, 2, 3, 4, 5, 6, 4, 2, 3)))
        return _undirected(edges, nodes), delta
    raise ValidationError(f"not a Euclidean tree class: {tc}")


_TRUNCATION = 10


def minimal_additive_function(tc: TreeClass) -> MinimalAdditiveFunction:
    """Minimal positive additive function on the orbit graph of a tree class.

    Euclidean classes take the tabulated null root of their diagram,
    certified additive on the whole graph; infinite classes are solved
    by the additive recurrence on a truncated window.  Finite Dynkin
    classes are rejected, since there the zero function is the only
    additive one.
    """
    if tc.kind is TreeClassKind.FINITE_DYNKIN:
        raise ValidationError(
            "on a finite Dynkin tree class only f = 0 is additive; no minimal positive function exists"
        )
    if tc.kind in (
        TreeClassKind.A_TILDE_12,
        TreeClassKind.D_TILDE,
        TreeClassKind.E6_TILDE,
        TreeClassKind.E7_TILDE,
        TreeClassKind.E8_TILDE,
    ):
        graph, values = _euclidean_graph(tc)
        # the Cartan kernel is one-dimensional, so additive values with
        # minimum 1 are its primitive positive vector
        if not is_additive_on_graph(graph, values) or min(values.values()) != 1:
            raise ValidationError("null root failed the additivity check")
        return MinimalAdditiveFunction(tc, graph, values, len(set(values.values())), graph.nodes)

    if tc.kind is TreeClassKind.A_INFINITY:
        # 2 f(q) = f(q-1) + f(q+1), 2 f(1) = f(2): the staircase f(q) = q.
        labels = list(range(1, _TRUNCATION + 1))
        graph = _undirected(zip(labels, labels[1:]), labels)
        values = {1: 1, 2: 2}
        for q in range(2, _TRUNCATION):
            values[q + 1] = 2 * values[q] - values[q - 1]
        interior = tuple(labels[:-1])
        unbounded = values[labels[-1]] > values[labels[-2]]
        image = None if unbounded else len(set(values.values()))
        if not is_additive_on_graph(graph, values, interior):
            raise ValidationError("recurrence solution failed the additivity check")
        return MinimalAdditiveFunction(tc, graph, values, image, interior)
    if tc.kind is TreeClassKind.A_DOUBLE_INFINITY:
        # positive additive functions on the doubly infinite chain are
        # affine, and staying positive in both directions forces constants
        labels = list(range(-_TRUNCATION, _TRUNCATION + 1))
        graph = _undirected(zip(labels, labels[1:]), labels)
        values = {v: 1 for v in labels}
        interior = tuple(labels[1:-1])
        if not is_additive_on_graph(graph, values, interior):
            raise ValidationError("constant solution failed the additivity check")
        return MinimalAdditiveFunction(tc, graph, values, len(set(values.values())), interior)
    if tc.kind is TreeClassKind.D_INFINITY:
        # two arms on a half-infinite chain: 2 f(arm) = f(c1) forces the
        # chain to start at twice the arm value, then stay constant
        chain = [f"c{i}" for i in range(1, _TRUNCATION + 1)]
        nodes = ["a", "b"] + chain
        edges = [("a", "c1"), ("b", "c1")] + list(zip(chain, chain[1:]))
        graph = _undirected(edges, nodes)
        values = {"a": 1, "b": 1, "c1": 2}
        # 2 f(c1) = f(a) + f(b) + f(c2), then 2 f(ck) = f(ck-1) + f(ck+1)
        values["c2"] = 2 * values["c1"] - values["a"] - values["b"]
        for k in range(2, _TRUNCATION):
            values[f"c{k + 1}"] = 2 * values[f"c{k}"] - values[f"c{k - 1}"]
        interior = tuple(["a", "b"] + chain[:-1])
        tail_constant = values[chain[-1]] == values[chain[-2]]
        image = len(set(values.values())) if tail_constant else None
        if not is_additive_on_graph(graph, values, interior):
            raise ValidationError("recurrence solution failed the additivity check")
        return MinimalAdditiveFunction(tc, graph, values, image, interior)
    raise ValidationError(f"unsupported tree class {tc}")


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
        nu = window.valuation.get((a, b))
        attr = "" if nu is None else f' [label="({nu[0]},{nu[1]})"]'
        lines.append(f"  {names[a]} -> {names[b]}{attr};")
    for v, tv in window.tau.items():
        lines.append(f"  {names[v]} -> {names[tv]} [style=dashed];")
    if per_vertex_ok:
        good = sum(per_vertex_ok.values())
        lines.append(f"  // additive at {good}/{len(per_vertex_ok)} interior vertices")
    lines.append("}")
    return "\n".join(lines)


def valued_graph_to_dot(graph: ValuedGraph, values: Mapping | None = None) -> str:
    """Render a valued graph as undirected DOT."""
    names = {v: f"n{i}" for i, v in enumerate(graph.nodes)}
    lines = ["graph orbits {"]
    for v in graph.nodes:
        label = str(v) if values is None else f"{v}: {values[v]}"
        lines.append(f'  {names[v]} [label="{label}"];')
    done = set()
    for (a, b), w in sorted(graph.d.items(), key=lambda kv: str(kv[0])):
        if (b, a) in done:
            continue
        done.add((a, b))
        back = graph.value(b, a)
        attr = "" if (w, back) == (1, 1) else f' [label="({w},{back})"]'
        lines.append(f"  {names[a]} -- {names[b]}{attr};")
    lines.append("}")
    return "\n".join(lines)
