"""Rule engine for kernel modules of cohomology classes.

To a nonzero homogeneous class of degree n one attaches the kernel L of
the induced map from the n-th syzygy of the trivial module onto it.  The
possible Jordan-type sets of L (and of its summands) follow rigid
patterns governed only by the parity of n, nilpotency of the class, and
a little trusted geometry; several of those patterns force L to be
indecomposable.  This module turns descriptors of such classes into the
predicted type sets and indecomposability verdicts, with machine-readable
rule tags ("CNED1", "COD1.2", "COD3", "COD5", "CNN1") for pipelines.

All geometric inputs (variety dimensions, equidimensionality, saturation
rank) are trusted numbers; nothing is computed from cohomology here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError, json_field, json_value, require_ints
from .jtypes import JordanType, require_prime


class OddPullback(Enum):
    """How an odd-degree class restricts along probe points.

    MIXED: vanishing and non-vanishing pullbacks both occur (two Jordan
    types).  ALL_VANISH / NONE_VANISH: constant behavior, one type.
    """

    MIXED = "mixed"
    ALL_VANISH = "all-vanish"
    NONE_VANISH = "none-vanish"


@dataclass(frozen=True)
class AmbientGeometry:
    """Trusted geometric data about the ambient group scheme.

    variety_dim / ambient_dim describe the support variety of the trivial
    module inside affine space; min_component_dim is the smallest
    dimension of its irreducible components (an alternative input for the
    even-degree indecomposability test).  srk_quotient is the saturation
    rank of the quotient by the largest linearly reductive normal
    subgroup; when present it takes precedence over srk.
    """

    pi_dim: int | None = None
    equidim: bool = False
    variety_dim: int | None = None
    ambient_dim: int | None = None
    min_component_dim: int | None = None
    srk: int | None = None
    srk_quotient: int | None = None
    is_finite_group: bool = False
    trigonalizable: bool = False

    def __post_init__(self):
        # flags are exactly bools; dimensions and ranks are trusted, but
        # exactly ints (or None) and never negative
        for f in self.__dataclass_fields__.values():
            value, where = getattr(self, f.name), f"ambient.{f.name}"
            if f.default is False:
                if type(value) is not bool:
                    raise ValidationError(f"{where} must be a bool, got {value!r}")
            elif value is not None:
                require_ints(**{where: value})
                if value < 0:
                    raise ValidationError(f"{where} must be >= 0, got {value}")

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AmbientGeometry":
        # flags default to False, numbers to None
        kinds = {
            f.name: bool if f.default is False else int
            for f in cls.__dataclass_fields__.values()
        }
        bad = set(json_value(data, dict, "ambient")) - set(kinds)
        if bad:
            raise ParseError(f"unknown ambient fields {sorted(bad)}")
        return cls(**{k: json_value(v, kinds[k], f"ambient.{k}") for k, v in data.items()})


@dataclass(frozen=True)
class CohomologyClassDescriptor:
    """Numeric shadow of a nonzero homogeneous cohomology class.

    ``dim_total`` is the dimension of the attached kernel module when
    known; without it, type sets carry symbolic projective counts.  The
    rule engine assumes p >= 3 throughout.
    """

    p: int
    degree: int
    nilpotent: bool = False
    dim_total: int | None = None
    odd_pullback: OddPullback = OddPullback.MIXED
    ambient: AmbientGeometry = field(default_factory=AmbientGeometry)

    def __post_init__(self):
        # a non-int p goes straight to require_prime, which names it
        if type(self.p) is int and self.p < 3:
            raise ValidationError(f"the rule engine needs p >= 3, got {self.p}")
        require_prime(self.p)
        require_ints(degree=self.degree)
        if self.degree < 1:
            raise ValidationError(f"degree must be >= 1, got {self.degree}")
        if self.dim_total is not None:
            require_ints(dim_total=self.dim_total)
            if self.dim_total < 0:
                raise ValidationError("dim_total must be >= 0")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CohomologyClassDescriptor":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(json_value(data, dict, "")) - known
        if bad:
            raise ParseError(f"unknown descriptor fields {sorted(bad)}")
        odd = json_field(data, "odd_pullback", str, default="mixed")
        try:
            odd_pb = OddPullback(odd)
        except ValueError as exc:
            raise ParseError(f"bad odd_pullback {odd!r}") from exc
        return cls(
            p=json_field(data, "p", int),
            degree=json_field(data, "degree", int),
            nilpotent=json_field(data, "nilpotent", bool, default=False),
            dim_total=json_field(data, "dim_total", int, default=None),
            odd_pullback=odd_pb,
            ambient=AmbientGeometry.from_json_dict(data.get("ambient", {})),
        )


# ---------------------------------------------------------------- type sets


@dataclass(frozen=True)
class TypePattern:
    """A Jordan type with a possibly symbolic projective multiplicity."""

    stable: JordanType
    projectives: int | None  # None = symbolic

    def resolved(self) -> JordanType:
        if self.projectives is None:
            raise ValidationError("pattern has a symbolic projective count")
        return self.stable + JordanType.block(self.stable.p, self.stable.p, self.projectives)

    def __str__(self) -> str:
        # descending block order, so the projective term leads
        p = self.stable.p
        stable = str(self.stable)
        if self.projectives is None:
            proj = f"n[{p}]"
        elif self.projectives == 0:
            proj = ""
        else:
            mult = "" if self.projectives == 1 else str(self.projectives)
            proj = f"{mult}[{p}]"
        if stable and proj:
            return f"{proj}+{stable}"
        return stable or proj or ""


@dataclass(frozen=True)
class CarlsonTypes:
    """Predicted set of Jordan types of a kernel module (or its summand)."""

    patterns: tuple[TypePattern, ...]

    @property
    def types(self) -> frozenset[JordanType]:
        return frozenset(pat.resolved() for pat in self.patterns)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.patterns) + "}"


def _projective_count(dim: int | None, stable_dim: int, p: int) -> int | None:
    if dim is None:
        return None
    rem = dim - stable_dim
    if rem < 0 or rem % p:
        raise ValidationError(
            f"total dimension {dim} is inconsistent with stable part of "
            f"dimension {stable_dim} mod {p}"
        )
    return rem // p


def carlson_type_set(desc: CohomologyClassDescriptor) -> CarlsonTypes:
    """Predicted Jordan-type set for the kernel module of a class.

    Even degree, non-nilpotent (per indecomposable summand): an
    all-projective type plus [1]+[p-1]+n[p].  Even degree, nilpotent:
    constant type [1]+[p-1]+n[p].  Odd degree: 2[p-1]+m[p] where the
    pullback of the class vanishes and [p-2]+n[p] where it does not;
    which of the two occur is read off the descriptor.
    """
    p = desc.p
    dim = desc.dim_total
    if not desc.is_odd and not desc.nilpotent:
        if dim is not None and (dim <= 0 or dim % p):
            raise ValidationError(
                f"an even non-nilpotent class has summands of dimension "
                f"divisible by p; got {dim}"
            )
        hook = JordanType.from_counts(p, {1: 1, p - 1: 1})
        return CarlsonTypes(
            (
                TypePattern(JordanType.zero(p), None if dim is None else dim // p),
                TypePattern(hook, _projective_count(dim, p, p)),
            )
        )
    if not desc.is_odd:
        hook = JordanType.from_counts(p, {1: 1, p - 1: 1})
        return CarlsonTypes((TypePattern(hook, _projective_count(dim, p, p)),))
    vanish = TypePattern(
        JordanType.from_counts(p, {p - 1: 2}),
        _projective_count(dim, 2 * (p - 1), p),
    )
    nonvanish = TypePattern(
        JordanType.from_counts(p, {p - 2: 1}),
        _projective_count(dim, p - 2, p),
    )
    if desc.odd_pullback is OddPullback.ALL_VANISH:
        return CarlsonTypes((vanish,))
    if desc.odd_pullback is OddPullback.NONE_VANISH:
        return CarlsonTypes((nonvanish,))
    return CarlsonTypes((vanish, nonvanish))


# ------------------------------------------------------------------ verdicts


class VerdictKind(Enum):
    INDECOMPOSABLE = "Indecomposable"
    TWO_ENDOTRIVIAL_SUMMANDS = "TwoEndotrivialSummands"
    DECOMPOSABLE = "Decomposable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    rule: str | None
    citation: str

    def __post_init__(self):
        if self.kind is not VerdictKind.UNKNOWN and not self.rule:
            raise ValidationError("a decided verdict must carry exactly one rule tag")


def carlson_indecomposability(desc: CohomologyClassDescriptor) -> Verdict:
    """First matching indecomposability rule, in a fixed total order.

    Order: even nilpotent (CNED1); odd with two types (COD1.2); odd with
    saturation rank >= 2 (COD3, using the reductive-quotient rank when
    supplied); odd over a finite group (COD5); even non-nilpotent with
    equidimensional support of dimension n >= (m+3)/2, or with minimal
    component dimension that large (CNN1).  Anything else is Unknown; in
    particular an odd-degree class of constant type stays Unknown unless
    the rank or finite-group rules apply.
    """
    amb = desc.ambient
    if not desc.is_odd and desc.nilpotent:
        return Verdict(
            VerdictKind.INDECOMPOSABLE,
            "CNED1",
            "nilpotent class of even degree: the kernel module is always indecomposable",
        )
    if desc.is_odd:
        if desc.odd_pullback is OddPullback.MIXED:
            return Verdict(
                VerdictKind.INDECOMPOSABLE,
                "COD1.2",
                "odd degree with two Jordan types: no summand dimension pattern fits a splitting",
            )
        srk = amb.srk_quotient if amb.srk_quotient is not None else amb.srk
        if srk is not None and srk >= 2:
            which = "quotient" if amb.srk_quotient is not None else "ambient"
            return Verdict(
                VerdictKind.INDECOMPOSABLE,
                "COD3",
                f"odd degree with {which} saturation rank {srk} >= 2: "
                "enough abelian unipotent probes of complexity 2 split the comparison sequence",
            )
        if amb.is_finite_group:
            return Verdict(
                VerdictKind.INDECOMPOSABLE,
                "COD5",
                "odd degree over a finite group: the rank condition holds or a cyclic "
                "Sylow subgroup carries the class",
            )
        return Verdict(
            VerdictKind.UNKNOWN,
            None,
            "odd degree of constant type without rank or finite-group hypotheses",
        )
    # even, non-nilpotent
    m = amb.ambient_dim
    if m is not None:
        n_candidates = []
        if amb.equidim and amb.variety_dim is not None:
            n_candidates.append(amb.variety_dim)
        if amb.min_component_dim is not None:
            n_candidates.append(amb.min_component_dim)
        if any(2 * n >= m + 3 for n in n_candidates):
            return Verdict(
                VerdictKind.INDECOMPOSABLE,
                "CNN1",
                "even non-nilpotent degree with support components of dimension "
                ">= (ambient+3)/2: the zero locus stays connected",
            )
    return Verdict(VerdictKind.UNKNOWN, None, "no indecomposability rule applies")


# -------------------------------------------------------------- endo-trivial


def endo_trivial(types: Iterable[JordanType]) -> bool:
    """A module is endo-trivial iff its stable type is constant = [1] or [p-1]."""
    stables = {jt.stable_part() for jt in types}
    if not stables:
        raise ValidationError("need at least one Jordan type")
    if len(stables) != 1:
        return False
    stable = next(iter(stables))
    p = stable.p
    return stable in (JordanType.block(p, 1), JordanType.block(p, p - 1))


@dataclass(frozen=True)
class BensonCheck:
    ok: bool
    violation: bool
    caveat: str | None = None


def benson_constraint(jt: JordanType, has_abelian_unipotent_cx2: bool) -> BensonCheck:
    """Constant Jordan type [i] + n[p] forces i in {1, p-1}.

    The constraint needs an abelian unipotent subgroup of complexity >= 2;
    without that hypothesis the check is only advisory, since restricted
    sl(2) carries constant stable types [2], ..., [p-2].
    """
    p = jt.p
    stable = jt.stable_part()
    occupied = [i for i in range(1, p) if stable.multiplicity(i)]
    if len(occupied) != 1 or stable.multiplicity(occupied[0]) != 1:
        raise ValidationError(
            f"constraint applies to types with a single stable block, got {jt}"
        )
    i = occupied[0]
    if i in (1, p - 1):
        return BensonCheck(ok=True, violation=False)
    if has_abelian_unipotent_cx2:
        return BensonCheck(
            ok=False,
            violation=True,
            caveat=f"constant type [{i}]+n[{p}] is impossible when an abelian "
            "unipotent subgroup of complexity >= 2 exists",
        )
    return BensonCheck(
        ok=True,
        violation=False,
        caveat="without an abelian unipotent subgroup of complexity >= 2 the "
        "middle blocks are not excluded (restricted sl(2) realizes them)",
    )


# -------------------------------------------------------------- sl2 families


class Sl2Family(Enum):
    SL2_1 = "SL2_1"
    SL2_1_TR = "SL2_1_Tr"


def sl2_family_types(
    family: Sl2Family,
    *,
    p: int,
    pi_dim: int,
    block_index: int,
    ql: int | None = None,
    module_dim: int | None = None,
) -> frozenset[JordanType]:
    """Jordan-type sets on components of the tame sl(2)-type group schemes.

    SL2_1 is the first Frobenius kernel of SL(2); SL2_1_TR its product
    with a torus kernel.  Components with one-dimensional support carry a
    constant type [s] + ((dim - s)/p)[p] (block_index = s).  Components
    with zero-dimensional support are tubes with the two-type pattern
    {full-projective, [i]+[p-i]+(extra)[p]}; the extra count is ql-1 for
    SL2_1 (needs ql) and dim/p - 1 for SL2_1_TR (needs module_dim).
    """
    if type(p) is int and p < 3:
        raise ValidationError(f"need p >= 3, got {p}")
    require_prime(p)
    if pi_dim not in (0, 1):
        raise ValidationError(f"support dimension must be 0 or 1, got {pi_dim}")
    i = block_index
    if pi_dim == 1:
        if not 1 <= i <= p - 1:
            raise ValidationError(f"constant block index {i} out of range 1..{p - 1}")
        if module_dim is None:
            raise ValidationError("constant-type components need module_dim")
        rem = module_dim - i
        if rem < 0 or rem % p:
            raise ValidationError(
                f"module dimension {module_dim} incompatible with stable block [{i}] mod {p}"
            )
        return frozenset({JordanType.from_counts(p, {i: 1, p: rem // p})})
    if not 1 <= i <= (p - 1) // 2:
        raise ValidationError(f"tube block index {i} out of range 1..{(p - 1) // 2}")
    if family is Sl2Family.SL2_1:
        if ql is None:
            raise ValidationError("SL2_1 tube components are graded by ql; pass ql")
        length = ql
    else:
        if module_dim is None:
            raise ValidationError("SL2_1_Tr tube components need module_dim")
        if module_dim <= 0 or module_dim % p:
            raise ValidationError(
                f"tube modules here have dimension divisible by p, got {module_dim}"
            )
        length = module_dim // p
    if length < 1:
        raise ValidationError(f"quasi-length must be >= 1, got {length}")
    full = JordanType.block(p, p, length)
    split = JordanType.from_counts(p, {i: 1, p - i: 1, p: length - 1})
    return frozenset({full, split})
