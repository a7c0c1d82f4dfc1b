"""Propagation of Jordan types along stable components.

Two regimes are covered.  On *locally split* components every stable
block multiplicity is an additive function, hence a fixed multiple d_i
of the component's minimal additive function f; a SplitProfile stores
that d-vector.  On infinite tubes that are not split, the multiplicities
are eventually additive and affine in the quasi-length:

    alpha_i(X) = (alpha_i(M) - (A n)_i) * ql(X) + (A n)_i,

where M is a quasi-simple seed, n_j counts how often the seed appears in
the module induced from the block [j], and A is the p x p tridiagonal
matrix with diagonal (2, ..., 2, 1) and -1 off the diagonal.  A is the
exact inverse of B = (min(i, l)), which turns the forward formula into
an integer-exact inverse problem: n = B t recovers the multiplicities
from the intercept vector t.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Mapping, Sequence

from .errors import (
    ParseError, ValidationError, Value, int_tuple, json_array, json_field, json_object,
    require_ints, require_printable,
)
from .jtypes import (
    DominanceConvention, DominanceResult, JordanType, _dominance_key, pointwise_compare,
    projective_count, require_modulus,
)
from .trees import TreeClass


def apply_a(n: Sequence[int]) -> list[int]:
    """A n in O(p): the stencil 2 n_i - n_{i-1} - n_{i+1}, with A_pp = 1."""
    t = [2 * x - a - b for x, a, b in zip(n, [0, *n[:-1]], [*n[1:], 0])]
    t[-1] -= n[-1]
    return t


def apply_b(t: Sequence[int]) -> list[int]:
    """B t in O(p): (B t)_i = sum_{k <= i} sum_{l >= k} t_l."""
    out = []
    suffix, acc = sum(t), 0
    for x in t:
        acc += suffix
        out.append(acc)
        suffix -= x
    return out


# ------------------------------------------------------------- tube profiles


class NegativeMultiplicityError(ValidationError):
    """A propagated block multiplicity goes negative at some quasi-length."""

    def __init__(self, index: int, ql: int, value: int):
        self.index = index
        self.ql = ql
        self.value = value
        try:
            message = (f"block multiplicity alpha_{index} becomes {value} at ql={ql}; "
                       "the seed/multiplicity pair cannot sit on a tube")
        except ValueError:
            # str() refuses an int with too many digits.  The digits are
            # checked only then: most rejected profiles are small, and this
            # error is the common outcome of building one
            require_printable([ql, value], f"the quasi-length at which alpha_{index} goes negative")
            raise
        super().__init__(message)


class TubeProfile(Value):
    """Affine profile alpha_i(X) = slopes[i-1]*ql(X) + intercepts[i-1] on a tube.

    The i = p row is asserted only when include_p is set (safe by default
    only on homogeneous tubes, i.e. rank 1); otherwise it is stored as
    (0, 0), so a_p reads 0 at every ql.  The profile is claimed from
    ql = 1, the quasi-simple layer.  That every relatively projective
    module in the tube is quasi-simple is a hypothesis the numeric data
    cannot verify; it is assumed, not checked.
    """

    __slots__ = ("p", "slopes", "intercepts", "include_p")

    def __init__(self, p: int, slopes: Sequence[int], intercepts: Sequence[int],
                 include_p: bool = False):
        require_modulus(p)
        slopes = int_tuple(slopes, "slopes")
        intercepts = int_tuple(intercepts, "intercepts")
        if len(slopes) != p or len(intercepts) != p:
            raise ValidationError(f"profile rows must have length p={p}")
        if not include_p:
            slopes, intercepts = slopes[:-1] + (0,), intercepts[:-1] + (0,)
        for i, (s, t) in enumerate(zip(slopes, intercepts), 1):
            if s < 0:
                # the least ql >= 1 with s*ql + t < 0
                q = max(1, t // -s + 1)
                raise NegativeMultiplicityError(i, q, s * q + t)
            if s + t < 0:
                raise NegativeMultiplicityError(i, 1, s + t)
        # set directly, not through Value._set: a loop costs a hot constructor
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "include_p", include_p)

    def jordan_type_at(self, ql: int) -> JordanType:
        """The Jordan type at quasi-length ql; a_p is 0 unless include_p."""
        require_ints(ql=ql)
        if ql < 1:
            raise ValidationError(f"profile only valid from ql=1, got {ql}")
        return JordanType(self.p, tuple(s * ql + t for s, t in zip(self.slopes, self.intercepts)))


def tube_profile_from_seed(
    seed: JordanType,
    multiplicities: Sequence[int],
    include_p: bool = False,
) -> TubeProfile:
    """Profile of the tube generated by a quasi-simple seed at ql = 1.

    ``multiplicities`` is the length p-1 vector n; the intercepts are
    t = A n (with n_p = 0) and the slopes are seed - t.  Raises
    NegativeMultiplicityError naming the first (i, ql) at which the
    profile would leave N_0.
    """
    p = seed.p
    n = list(int_tuple(multiplicities, "multiplicities"))
    if len(n) != p - 1:
        raise ValidationError(f"multiplicity vector must have length p-1={p - 1}")
    if any(x < 0 for x in n):
        raise ValidationError(f"multiplicities must be >= 0, got {n}")
    if all(x == 0 for x in n):
        raise ValidationError("multiplicity vector must be nonzero on a non-split tube")
    t = apply_a(n + [0])
    slopes = [seed.mult[i] - t[i] for i in range(p)]
    return TubeProfile(p, tuple(slopes), tuple(t), include_p=include_p)


class SolveResult(Value):
    """Outcome of the inverse multiplicity problem n = B t."""

    __slots__ = ("multiplicities", "locally_split", "note")

    def __init__(self, multiplicities: tuple[int, ...], locally_split: bool, note: str = ""):
        # set directly, not through Value._set: a loop costs a hot constructor
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "locally_split", locally_split)
        object.__setattr__(self, "note", note)


def solve_multiplicities(profile: TubeProfile) -> SolveResult:
    """Recover the seed multiplicities n from a tube profile.

    The intercept vector t determines n = B t exactly.  When the profile
    does not assert its i = p row, t_p is the stored 0 and the result is
    flagged in the note.  A profile is rejected when the recovered n has
    a negative entry or a nonzero p-th entry, since no quasi-simple
    relatively projective seed could produce it.
    """
    p = profile.p
    note = "" if profile.include_p else "i=p intercept not asserted by the profile; padded with 0"
    n = apply_b(profile.intercepts)
    if n[p - 1] != 0:
        hint = (
            " (the profile omits its i=p row; the padded intercept may be wrong "
            "whenever n_{p-1} != 0)"
            if not profile.include_p
            else ""
        )
        require_printable([n[p - 1]], "the recovered n_p")
        raise ValidationError(
            f"recovered n_p = {n[p - 1]} != 0; profile is not realizable by a "
            f"non-projective quasi-simple seed{hint}"
        )
    bad = [i + 1 for i, x in enumerate(n[: p - 1]) if x < 0]
    if bad:
        raise ValidationError(
            f"recovered multiplicities are negative at indices {bad}; "
            "profile is not realizable"
        )
    mult = tuple(n[: p - 1])
    split = not any(mult)
    if split:
        note = "; ".join(filter(None, [note, "locally split, no relative projectives"]))
    return SolveResult(mult, split, note)


# ------------------------------------------------------------ split profiles


class SplitProfile(Value):
    """d-vector of a locally split component: alpha_i = d[i-1] * f.

    ``d_stable`` is derived: the slope of the stable dimension (sum of
    i*d_i).  The projective multiplicity is deliberately not component
    data, since it is only subadditive in general.
    """

    __slots__ = ("p", "d", "tree_class", "d_stable")

    def __init__(self, p: int, d: Sequence[int], tree_class: TreeClass | None = None):
        require_modulus(p)
        d = int_tuple(d, "d")
        if len(d) != p - 1:
            raise ValidationError(f"d-vector must have length p-1={p - 1}")
        if any(x < 0 for x in d):
            raise ValidationError(f"d-vector entries must be >= 0, got {d}")
        if tree_class is not None and not isinstance(tree_class, TreeClass):
            raise ValidationError(f"tree_class must be a TreeClass or None, got {tree_class!r}")
        self._set(p, d, tree_class, sum(i * x for i, x in enumerate(d, 1)))


def split_propagate(
    profile: SplitProfile, f_value: int, total_dim: int | None = None
) -> JordanType:
    """Jordan type at a vertex with minimal-additive-function value f_value.

    Stable multiplicities are d_i * f_value.  The projective multiplicity
    is left at 0 unless the vertex dimension is supplied, in which case
    a_p = (total_dim - d_stable * f_value) / p with exact divisibility
    enforced.
    """
    require_ints(f_value=f_value)
    if total_dim is not None:
        require_ints(total_dim=total_dim)
    if f_value < 1:
        raise ValidationError(f"f_value must be >= 1, got {f_value}")
    mult = [x * f_value for x in profile.d] + [0]
    if total_dim is not None:
        mult[-1] = projective_count(total_dim, profile.d_stable * f_value, profile.p)
    return JordanType(profile.p, tuple(mult))


def profile_rows(profile: "TubeProfile | SplitProfile", ql_max: int) -> Iterator[tuple]:
    """Rows (q, a_1, ..., a_p) at ql = q = 1..ql_max, made lazily.

    a_i is mult[i-1] of ``jordan_type_at(q)`` (tube) or ``split_propagate``
    (split, where s_i = d_i, t_i = 0 and a_p = 0): the progression s_i*q +
    t_i, a ``range`` or, if s_i = 0, ``repeat(t_i)``, so no Python code runs
    per row.  Construction checked s_i >= 0.  The q range bounds the columns.
    """
    require_ints(ql_max=ql_max)
    pairs = (zip((*profile.d, 0), repeat(0)) if isinstance(profile, SplitProfile)
             else zip(profile.slopes, profile.intercepts))
    columns = [range(s + t, s * ql_max + t + 1, s) if s else repeat(t) for s, t in pairs]
    return zip(range(1, ql_max + 1), *columns)


def seed_to_split_profile(seed: JordanType, f_seed: int) -> SplitProfile:
    """Divide a seed type by its f-value to recover the component d-vector.

    Fails when f_seed does not divide every stable multiplicity, i.e. the
    seed cannot sit on a locally split component at that f-value.
    """
    require_ints(f_seed=f_seed)
    if f_seed < 1:
        raise ValidationError(f"f_seed must be >= 1, got {f_seed}")
    d = []
    for i in range(1, seed.p):
        a = seed.multiplicity(i)
        if a % f_seed:
            raise ValidationError(
                f"f={f_seed} does not divide alpha_{i}={a}; seed cannot lie on "
                "a locally split component with this f-value"
            )
        d.append(a // f_seed)
    return SplitProfile(seed.p, d)


def dominance_on_component(pa: SplitProfile, pb: SplitProfile) -> DominanceResult:
    """Vertex-independent dominance comparison of two probe profiles.

    A single verdict is valid at every vertex of the component: the
    image-dimension comparison reduces to the p-cleared integer forms
    L_j = p * sum_{i=j}^{p-1} (i-j) d_i - (p-j) d_stable for j = 1..p,
    where the sum is the image-dimension dominance key of the d-vector.
    GREATER means pa dominates pb.
    """
    if pa.p != pb.p:
        raise ValidationError(f"modulus mismatch: p={pa.p} vs p={pb.p}")
    p = pa.p

    def cleared(prof: SplitProfile) -> list[int]:
        # the key runs j = p down to 1
        key = _dominance_key(JordanType(p, (*prof.d, 0)), DominanceConvention.IMAGE_DIM)
        return [p * k - (p - j) * prof.d_stable for j, k in zip(range(p, 0, -1), key)]

    return pointwise_compare(cleared(pa), cleared(pb))


# -------------------------------------------------------------------- JSON


def profile_from_json(spec: Mapping) -> "TubeProfile | SplitProfile":
    """Build a profile from a component-spec JSON object.

    Tube, from a seed: ``{"kind": "tube", "p": 5, "seed": {...},
    "multiplicities": [1, 0, 0, 0], "include_p": true, "rank": 1}``.
    Tube, direct: ``{"kind": "tube", "p": 5, "slopes": [...],
    "intercepts": [...], "include_p": true}``.
    Split: ``{"kind": "split", "p": 5, "d": [...], "tree_class": "A_inf"}``.
    When the rank is given and include_p is not, include_p defaults to
    rank == 1 (the homogeneous case).  A field the form does not read,
    such as a seed beside slopes, is a ParseError.
    """
    kind = json_field(spec, "kind", str)
    p = json_field(spec, "p", int)
    if kind == "tube":
        # a seeded tube reads no slopes or intercepts, a direct one no seed data
        seeded = "seed" in spec
        data = ("seed", "multiplicities") if seeded else ("slopes", "intercepts")
        json_object(spec, ("kind", "p", "rank", "include_p", *data),
                    name="seeded tube" if seeded else "tube")
        homogeneous = json_field(spec, "rank", int, default=0) == 1
        include_p = json_field(spec, "include_p", bool, default=homogeneous)
        if seeded:
            seed = JordanType.from_json_dict(spec["seed"], "seed")
            if seed.p != p:
                raise ValidationError(f"seed has p={seed.p}, spec says p={p}")
            mults = json_array(spec, "multiplicities", int)
            return tube_profile_from_seed(seed, mults, include_p=include_p)
        slopes = json_array(spec, "slopes", int)
        return TubeProfile(p, slopes, json_array(spec, "intercepts", int), include_p=include_p)
    if kind == "split":
        json_object(spec, ("kind", "p", "d", "tree_class"), name="split")
        tree_class = json_field(spec, "tree_class", str, default=None)
        tc = None if tree_class is None else TreeClass(tree_class)
        return SplitProfile(p, json_array(spec, "d", int), tc)
    raise ParseError(f"unknown component kind {kind!r}")
