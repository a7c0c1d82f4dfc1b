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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError, int_tuple, json_array, json_field
from .jtypes import DominanceResult, JordanType
from .quiver import TreeClass

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
        super().__init__(
            f"block multiplicity alpha_{index} becomes {value} at ql={ql}; "
            "the seed/multiplicity pair cannot sit on a tube"
        )


@dataclass(frozen=True)
class TubeProfile:
    """Affine profile alpha_i(X) = slopes[i-1]*ql(X) + intercepts[i-1] on a tube.

    The i = p row is asserted only when include_p is set (safe by default
    only on homogeneous tubes, i.e. rank 1).  ``start`` is the least
    quasi-length from which the profile is claimed.  The quasi-simplicity
    of all relatively projective modules in the tube is a hypothesis the
    numeric data cannot verify; it is recorded, not checked.
    """

    p: int
    slopes: tuple[int, ...]
    intercepts: tuple[int, ...]
    start: int = 1
    include_p: bool = False
    assumes_quasi_simple: bool = True

    def __post_init__(self):
        if type(self.p) is not int or self.p < 2:
            raise ValidationError(f"p must be an integer >= 2, got {self.p!r}")
        slopes = int_tuple(self.slopes, "slopes")
        intercepts = int_tuple(self.intercepts, "intercepts")
        if len(slopes) != self.p or len(intercepts) != self.p:
            raise ValidationError(f"profile rows must have length p={self.p}")
        if type(self.start) is not int or self.start < 1:
            raise ValidationError(f"start must be an integer >= 1, got {self.start!r}")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        last = self.p if self.include_p else self.p - 1
        for i in range(1, last + 1):
            s, t = slopes[i - 1], intercepts[i - 1]
            if s < 0:
                q = _first_negative_ql(s, t, self.start)
                raise NegativeMultiplicityError(i, q, s * q + t)
            if s * self.start + t < 0:
                raise NegativeMultiplicityError(i, self.start, s * self.start + t)

    def value(self, i: int, ql: int) -> int:
        if not 1 <= i <= self.p:
            raise ValidationError(f"index i={i} out of range 1..{self.p}")
        return self.slopes[i - 1] * ql + self.intercepts[i - 1]

    def affine_rows(self) -> list[tuple[int, int]]:
        """(slope, intercept) of alpha_1..alpha_p; row p is (0, 0) unless include_p."""
        pairs = list(zip(self.slopes, self.intercepts))
        if not self.include_p:
            pairs[-1] = (0, 0)
        return pairs

    def jordan_type_at(self, ql: int) -> JordanType:
        """The Jordan type at quasi-length ql; a_p is 0 unless include_p."""
        if ql < self.start:
            raise ValidationError(f"profile only valid from ql={self.start}, got {ql}")
        return JordanType(self.p, tuple(s * ql + t for s, t in self.affine_rows()))


def _first_negative_ql(slope: int, intercept: int, start: int) -> int:
    """Least ql >= start with slope*ql + intercept < 0 (slope < 0)."""
    q = max(start, intercept // (-slope) + 1)
    while slope * q + intercept >= 0:
        q += 1
    return q


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
    return TubeProfile(
        p, tuple(slopes), tuple(t), start=1, include_p=include_p
    )


def tube_forward(
    seed: JordanType,
    multiplicities: Sequence[int],
    ql: int,
    include_p: bool = False,
) -> JordanType:
    """Jordan type at quasi-length ql on the tube generated by the seed.

    At ql = 1 this reproduces the seed (stable part, plus the p-row when
    include_p).  The i = p row is only claimed on homogeneous tubes.
    """
    if ql < 1:
        raise ValidationError(f"ql must be >= 1, got {ql}")
    profile = tube_profile_from_seed(seed, multiplicities, include_p)
    return profile.jordan_type_at(ql)


def tube_central(j: int, m: int, n: int, ql: int, p: int) -> JordanType:
    """Type at quasi-length ql on a tube seeded by a central probe.

    When the probe generates a central subalgebra the seed is m[j] and
    the propagation concentrates on the indices j-1, j, j+1:
    alpha_j = (m - 2n) ql + 2n and alpha_{j +- 1} = n (ql - 1), with
    m >= 2n forced by nonnegativity.  The i = p row is omitted.
    """
    if p < 2:
        raise ValidationError(f"p must be >= 2, got {p}")
    if not 1 <= j <= p - 1:
        raise ValidationError(f"index j={j} out of range 1..{p - 1}")
    if n < 1:
        raise ValidationError(f"multiplicity n={n} must be >= 1")
    if m < 2 * n:
        raise ValidationError(f"seed multiplicity m={m} violates m >= 2n = {2 * n}")
    if ql < 1:
        raise ValidationError(f"ql must be >= 1, got {ql}")
    counts = {j: (m - 2 * n) * ql + 2 * n}
    for i in (j - 1, j + 1):
        if 1 <= i <= p - 1:
            counts[i] = n * (ql - 1)
    return JordanType.from_counts(p, counts)


def central_profile(j: int, m: int, n: int, p: int) -> TubeProfile:
    """The TubeProfile behind tube_central (stable rows only)."""
    jt1 = tube_central(j, m, n, 1, p)
    jt2 = tube_central(j, m, n, 2, p)
    slopes = tuple(b - a for a, b in zip(jt1.mult, jt2.mult))
    intercepts = tuple(a - s for a, s in zip(jt1.mult, slopes))
    return TubeProfile(p, slopes, intercepts, start=1, include_p=False)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the inverse multiplicity problem n = B t."""

    multiplicities: tuple[int, ...]
    locally_split: bool
    note: str = ""


def solve_multiplicities(profile: TubeProfile) -> SolveResult:
    """Recover the seed multiplicities n from a tube profile.

    The intercept vector t determines n = B t exactly.  When the profile
    does not assert its i = p row, t_p is padded with 0 and the result is
    flagged in the note.  A profile is rejected when the recovered n has
    a negative entry or a nonzero p-th entry, since no quasi-simple
    relatively projective seed could produce it.
    """
    p = profile.p
    t = list(profile.intercepts)
    note = ""
    if not profile.include_p:
        t[p - 1] = 0
        note = "i=p intercept not asserted by the profile; padded with 0"
    n = apply_b(t)
    if n[p - 1] != 0:
        hint = (
            " (the profile omits its i=p row; the padded intercept may be wrong "
            "whenever n_{p-1} != 0)"
            if not profile.include_p
            else ""
        )
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
    if all(x == 0 for x in mult):
        extra = "locally split, no relative projectives"
        note = f"{note}; {extra}" if note else extra
        return SolveResult(mult, True, note)
    return SolveResult(mult, False, note)


# ------------------------------------------------------------ split profiles


@dataclass(frozen=True)
class SplitProfile:
    """d-vector of a locally split component: alpha_i = d[i-1] * f.

    ``d_stable`` is the slope of the stable dimension (sum of i*d_i); the
    projective multiplicity is deliberately not component data, since it
    is only subadditive in general.
    """

    p: int
    d: tuple[int, ...]
    d_stable: int
    tree_class: TreeClass | None = None

    def __post_init__(self):
        if type(self.p) is not int or self.p < 2:
            raise ValidationError(f"p must be an integer >= 2, got {self.p!r}")
        d = int_tuple(self.d, "d")
        if len(d) != self.p - 1:
            raise ValidationError(f"d-vector must have length p-1={self.p - 1}")
        if any(x < 0 for x in d):
            raise ValidationError(f"d-vector entries must be >= 0, got {d}")
        object.__setattr__(self, "d", d)
        expected = sum((i + 1) * x for i, x in enumerate(d))
        if type(self.d_stable) is not int or self.d_stable != expected:
            raise ValidationError(
                f"stable-dimension slope {self.d_stable} inconsistent with "
                f"d-vector (expected {expected})"
            )

    @classmethod
    def from_d(cls, p: int, d: Sequence[int], tree_class: TreeClass | None = None):
        d = int_tuple(d, "d")
        return cls(p, d, sum((i + 1) * x for i, x in enumerate(d)), tree_class)


def split_propagate(
    profile: SplitProfile, f_value: int, total_dim: int | None = None
) -> JordanType:
    """Jordan type at a vertex with minimal-additive-function value f_value.

    Stable multiplicities are d_i * f_value.  The projective multiplicity
    is left at 0 unless the vertex dimension is supplied, in which case
    a_p = (total_dim - d_stable * f_value) / p with exact divisibility
    enforced.
    """
    if f_value < 1:
        raise ValidationError(f"f_value must be >= 1, got {f_value}")
    mult = [x * f_value for x in profile.d] + [0]
    if total_dim is not None:
        rem = total_dim - profile.d_stable * f_value
        if rem < 0 or rem % profile.p:
            raise ValidationError(
                f"dimension {total_dim} is inconsistent with stable dimension "
                f"{profile.d_stable * f_value} mod p={profile.p}"
            )
        mult[profile.p - 1] = rem // profile.p
    return JordanType(profile.p, tuple(mult))


def profile_rows(profile: "TubeProfile | SplitProfile", ql_max: int) -> list[list[int]]:
    """Multiplicities [a_1, ..., a_p] at ql = 1..ql_max, one list per ql.

    Row q holds the mult of ``jordan_type_at(q)`` (tube) or of
    ``split_propagate(profile, q)`` (split), evaluated from the closed form
    without building a JordanType per row: the profile was checked to stay
    >= 0 for every ql >= start when it was constructed.
    """
    qls = range(1, ql_max + 1)
    if isinstance(profile, SplitProfile):
        return [[x * q for x in profile.d] + [0] for q in qls]
    if profile.start > 1:
        raise ValidationError(f"profile only valid from ql={profile.start}, got 1")
    pairs = profile.affine_rows()
    return [[s * q + t for s, t in pairs] for q in qls]


def seed_to_split_profile(seed: JordanType, f_seed: int) -> SplitProfile:
    """Divide a seed type by its f-value to recover the component d-vector.

    Fails when f_seed does not divide every stable multiplicity, i.e. the
    seed cannot sit on a locally split component at that f-value.
    """
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
    return SplitProfile.from_d(seed.p, d)


def jordan_type_count(profiles: Iterable[SplitProfile]) -> int:
    """Number of distinct Jordan types on a component: |{d-vectors}|.

    All profiles must live over the same p and tree class.
    """
    seen = set()
    p = None
    tc = None
    for prof in profiles:
        if p is None:
            p, tc = prof.p, prof.tree_class
        elif prof.p != p or prof.tree_class != tc:
            raise ValidationError("profiles must share p and tree class")
        seen.add(prof.d)
    return len(seen)


def support_indices(profile: "SplitProfile | JordanType") -> frozenset[int]:
    """Indices of the nonzero block multiplicities.

    For a SplitProfile this is the component invariant
    {i in 1..p-1 : d_i != 0} (the stable support, shared by every vertex).
    For a concrete JordanType all occupied block sizes are reported, so an
    all-projective type yields {p} while its stable support is empty.
    """
    if isinstance(profile, SplitProfile):
        return frozenset(i + 1 for i, x in enumerate(profile.d) if x)
    return frozenset(i + 1 for i, x in enumerate(profile.mult) if x)


def dominance_on_component(pa: SplitProfile, pb: SplitProfile) -> DominanceResult:
    """Vertex-independent dominance comparison of two probe profiles.

    A single verdict is valid at every vertex of the component: the
    image-dimension comparison reduces to the p-cleared integer forms
    L_j = p * sum_{i=j}^{p-1} (i-j) d_i - (p-j) d_stable for j = 1..p.
    GREATER means pa dominates pb.
    """
    if pa.p != pb.p:
        raise ValidationError(f"modulus mismatch: p={pa.p} vs p={pb.p}")
    p = pa.p

    def cleared(prof: SplitProfile) -> tuple[int, ...]:
        return tuple(
            p * sum((i - j) * prof.d[i - 1] for i in range(j, p))
            - (p - j) * prof.d_stable
            for j in range(1, p + 1)
        )

    u, v = cleared(pa), cleared(pb)
    if u == v:
        return DominanceResult.EQUAL
    if all(x >= y for x, y in zip(u, v)):
        return DominanceResult.GREATER
    if all(x <= y for x, y in zip(u, v)):
        return DominanceResult.LESS
    return DominanceResult.INCOMPARABLE


def top_multiplicity(simple_jt: JordanType, j: int) -> int:
    """Multiplicity of a simple module in the top of the module induced
    from the block [j]: the kernel dimension of t^j on the simple's type."""
    return simple_jt.ker_dim(j)


# ----------------------------------------------------------- obstruction


class ObstructionStatus:
    NOT_RELATIVELY_PROJECTIVE = "NotRelativelyProjective"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ObstructionVerdict:
    status: str
    reason: str


def obstruction_check(seed: JordanType, trigonalizable: bool) -> ObstructionVerdict:
    """Small stable multiplicities obstruct relative projectivity.

    Over a trigonalizable group scheme of infinite representation type, a
    seed with every stable multiplicity <= 1 cannot be relatively
    projective: propagation would force alpha_j(X) = (alpha_j - 2) ql + 2
    negative for large ql.  Without trigonalizability the test says
    nothing; e.g. Verma modules over restricted sl(2) have all stable
    multiplicities <= 1 at the relevant probes yet are relatively
    projective.
    """
    small = all(seed.multiplicity(i) <= 1 for i in range(1, seed.p))
    if small and trigonalizable:
        return ObstructionVerdict(
            ObstructionStatus.NOT_RELATIVELY_PROJECTIVE,
            "all stable multiplicities <= 1 under the trigonalizable hypothesis",
        )
    if small:
        return ObstructionVerdict(
            ObstructionStatus.INCONCLUSIVE,
            "all stable multiplicities <= 1, but without trigonalizability this "
            "does not obstruct relative projectivity (restricted sl(2) Verma "
            "modules are the standard counterexample)",
        )
    return ObstructionVerdict(
        ObstructionStatus.INCONCLUSIVE,
        "some stable multiplicity exceeds 1; the obstruction does not apply",
    )


# -------------------------------------------------------------------- JSON


def profile_from_json(spec: Mapping) -> "TubeProfile | SplitProfile":
    """Build a profile from a component-spec JSON object.

    Tube, from a seed: ``{"kind": "tube", "p": 5, "seed": {...},
    "multiplicities": [1, 0, 0, 0], "include_p": true, "rank": 1}``.
    Tube, direct: ``{"kind": "tube", "p": 5, "slopes": [...],
    "intercepts": [...], "include_p": true}``.
    Split: ``{"kind": "split", "p": 5, "d": [...], "tree_class": "A_inf"}``.
    When the rank is given and include_p is not, include_p defaults to
    rank == 1 (the homogeneous case).
    """
    kind = json_field(spec, "kind", str)
    p = json_field(spec, "p", int)
    if kind == "tube":
        homogeneous = json_field(spec, "rank", int, default=0) == 1
        include_p = json_field(spec, "include_p", bool, default=homogeneous)
        if "seed" in spec:
            seed = JordanType.from_json_dict(spec["seed"], "seed")
            if seed.p != p:
                raise ValidationError(f"seed has p={seed.p}, spec says p={p}")
            mults = json_array(spec, "multiplicities", int)
            return tube_profile_from_seed(seed, mults, include_p=include_p)
        slopes = json_array(spec, "slopes", int)
        return TubeProfile(p, slopes, json_array(spec, "intercepts", int), include_p=include_p)
    if kind == "split":
        tree_class = json_field(spec, "tree_class", str, default=None)
        tc = None if tree_class is None else TreeClass.parse(tree_class)
        return SplitProfile.from_d(p, json_array(spec, "d", int), tc)
    raise ParseError(f"unknown component kind {kind!r}")
