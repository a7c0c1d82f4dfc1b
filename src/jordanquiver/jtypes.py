"""Exact arithmetic on Jordan types of p-nilpotent operators.

A linear operator t on a finite-dimensional vector space with t^p = 0
splits the space into Jordan blocks of sizes 1..p.  The *Jordan type* is
the multiplicity vector (a_1, ..., a_p) of that splitting.  Blocks of
size p are exactly the free summands over k[t]/(t^p); removing them
yields the *stable* type.

Everything in this module is a pure function on immutable data, using
arbitrary-precision integers only.  Jordan types serialize as JSON
``{"p": 5, "mult": [1, 0, 0, 1, 0]}`` (index 0 holds a_1) and print in
the compact grammar ``2[3]+[1]`` with blocks in descending size.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import (
    ParseError, ValidationError, Value, int_tuple, json_array, json_field, json_object,
    require_ints,
)

# ASCII only: a Unicode \d would read "[５]" as [5], a Unicode \s "2\u3000[3]" as 2[3]
_TERM_RE = re.compile(r"(\d*)\s*\[\s*(\d+)\s*\]", re.ASCII)
_SPACE = " \t\n\r\f\v"  # what _TERM_RE's \s matches; str.strip() takes any Unicode space


class DominanceResult(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    INCOMPARABLE = "Incomparable"


class DominanceConvention(Enum):
    """Which family of partial sums drives the dominance comparison.

    IMAGE_DIM compares dim im t^j for j = 1..p; on types of equal total
    dimension this is the usual dominance order on partitions.  TAIL_DIM
    compares the total dimension of the blocks of size >= j instead,
    which yields a genuinely different relation.
    """

    IMAGE_DIM = "image"
    TAIL_DIM = "tail"


class JordanType(Value):
    """Multiplicity vector of Jordan blocks for a p-nilpotent operator.

    Attributes:
        p: nilpotency order; block sizes range over 1..p.
        mult: tuple of length p, ``mult[i-1]`` = multiplicity of block [i].
    """

    __slots__ = ("p", "mult")

    def __init__(self, p: int, mult: Iterable[int]):
        require_modulus(p)
        mult = int_tuple(mult, "mult")
        if len(mult) != p:
            raise ValidationError(f"multiplicity vector must have length p={p}, got {len(mult)}")
        if min(mult) < 0:  # p >= 2, so mult is not empty
            raise ValidationError(f"multiplicities must be >= 0, got {mult}")
        self._fill(p, mult)

    def _fill(self, p: int, mult: tuple[int, ...]) -> None:
        """Set the fields; the last step of ``__init__`` and of ``_trusted``."""
        # set directly, not through Value._set: a loop costs a hot constructor
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mult", mult)

    @classmethod
    def _trusted(cls, p: int, mult: tuple[int, ...]) -> "JordanType":
        """The type with fields ``p`` and ``mult``, set without the input checks.

        Only for a type derived from checked values, where ``p`` has passed
        ``require_modulus`` and ``mult`` is a tuple of p ints >= 0.
        """
        jt = cls.__new__(cls)
        jt._fill(p, mult)
        return jt

    # ---------------------------------------------------------------- build

    @classmethod
    def block(cls, p: int, i: int, count: int = 1) -> "JordanType":
        """count copies of the single block [i]."""
        require_ints(i=i, count=count)
        return cls.from_counts(p, {i: count})

    @classmethod
    def from_counts(cls, p: int, counts: Mapping[int, int]) -> "JordanType":
        """Build from a mapping block size -> multiplicity."""
        require_ints(p=p)
        # the block sizes are read before p, so at a p below 2 a bad size is named
        for i in counts:
            require_ints(**{"block size": i})
            if not 1 <= i <= p:
                raise ValidationError(f"block size {i} out of range 1..{p}")
        require_modulus(p)  # before [0] * p is built
        mult = [0] * p
        for i, m in counts.items():
            mult[i - 1] += m
        return cls(p, tuple(mult))

    @classmethod
    def from_string(cls, p: int, text: str) -> "JordanType":
        """Parse the compact grammar ``(<m>? "[" <i> "]" ("+" ...)*)?``.

        The empty string denotes the zero module.  Raises ParseError with
        the offending position on malformed input.
        """
        require_ints(p=p)
        require_modulus(p)  # before any block size is checked against it
        mult = [0] * p
        if text.strip(_SPACE) == "":
            return cls(p, tuple(mult))
        for start, chunk in _split_terms(text):
            m = _TERM_RE.fullmatch(term := chunk.strip(_SPACE))
            if m is None:
                raise ParseError(f"bad Jordan-type term {term!r} at position {start}")
            try:
                count, size = int(m.group(1) or 1), int(m.group(2))
            except ValueError:  # the digits are ASCII, so only their number is wrong
                raise ParseError(f"a number at position {start} has more than "
                                 f"{sys.get_int_max_str_digits()} digits, the limit for reading "
                                 "an integer") from None
            if not 1 <= size <= p:
                raise ParseError(
                    f"block size {size} out of range 1..{p} at position {start}"
                )
            mult[size - 1] += count
        return cls(p, tuple(mult))

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "") -> "JordanType":
        """Read ``{"p": ..., "mult": [...]}`` found at JSON path ``path``."""
        json_object(data, ("p", "mult"), path, "Jordan type")
        return cls(json_field(data, "p", int, path), json_array(data, "mult", int, path))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "mult": list(self.mult)}

    # ------------------------------------------------------------- queries

    def multiplicity(self, i: int) -> int:
        """Multiplicity a_i of the block [i]."""
        require_ints(i=i)
        if not 1 <= i <= self.p:
            raise ValidationError(f"block size {i} out of range 1..{self.p}")
        return self.mult[i - 1]

    def dimension(self) -> int:
        """Total dimension sum(i * a_i)."""
        return sum((i + 1) * m for i, m in enumerate(self.mult))

    def is_zero(self) -> bool:
        return not any(self.mult)

    def ker_dim(self, m: int) -> int:
        """Dimension of ker t^m for 1 <= m <= p.

        A block [i] contributes min(i, m), so this is
        sum_{i<m} i*a_i + m*sum_{i>=m} a_i.
        """
        require_ints(m=m)
        if not 1 <= m <= self.p:
            raise ValidationError(f"power m={m} out of range 1..{self.p}")
        head = sum(i * a for i, a in enumerate(self.mult[: m - 1], 1))
        return head + m * sum(self.mult[m - 1 :])

    def image_dim(self, m: int) -> int:
        """Dimension of im t^m, i.e. dimension() - ker_dim(m), for 0 <= m <= p."""
        require_ints(m=m)
        if not 0 <= m <= self.p:
            raise ValidationError(f"power m={m} out of range 0..{self.p}")
        return self.dimension() - (self.ker_dim(m) if m else 0)

    def psi(self, m: int) -> int:
        """Kernel dimension of t^m on the projective-free part.

        Equals sum_{i<m} i*a_i + m*sum_{i=m}^{p-1} a_i, i.e.
        ker_dim(m) - m*a_p, and is defined for 1 <= m <= p-1.
        """
        require_ints(m=m)
        if not 1 <= m <= self.p - 1:
            raise ValidationError(f"power m={m} out of range 1..{self.p - 1}")
        return self.ker_dim(m) - m * self.mult[-1]

    # --------------------------------------------------------- derivations

    def stable_part(self) -> "JordanType":
        """Drop all blocks of size p."""
        return JordanType._trusted(self.p, self.mult[:-1] + (0,))

    def syzygy(self) -> "JordanType":
        """Kernel of the projective cover, blockwise: [i] -> [p-i].

        Blocks of size p are projective and are dropped (projective-free
        convention), so syzygy∘syzygy equals stable_part.
        """
        return JordanType._trusted(self.p, self.mult[-2::-1] + (0,))

    def with_modulus(self, new_p: int) -> "JordanType":
        """Reinterpret the same block multiset at nilpotency order new_p."""
        require_ints(new_p=new_p)
        require_modulus(new_p)
        if new_p < self.p:
            for i in range(new_p, self.p):
                if self.mult[i]:
                    raise ValidationError(
                        f"block [{i + 1}] does not fit below nilpotency order {new_p}"
                    )
        mult = [0] * new_p
        for i, a in enumerate(self.mult[: min(self.p, new_p)]):
            mult[i] = a
        return JordanType._trusted(new_p, tuple(mult))

    # ------------------------------------------------------------- algebra

    def __add__(self, other: "JordanType") -> "JordanType":
        """Direct sum."""
        if not isinstance(other, JordanType):
            return NotImplemented
        if other.p != self.p:
            raise ValidationError(f"cannot add types with p={self.p} and p={other.p}")
        return JordanType._trusted(self.p, tuple(a + b for a, b in zip(self.mult, other.mult)))

    def __str__(self) -> str:
        terms = []
        for i in range(self.p, 0, -1):
            a = self.mult[i - 1]
            if a == 0:
                continue
            terms.append(f"[{i}]" if a == 1 else f"{a}[{i}]")
        return "+".join(terms)


def require_modulus(p: int) -> None:
    """ValidationError unless ``p`` is exactly an int >= 2 (a bool is none) and
    at most ``sys.maxsize``, the longest list of multiplicities Python can size."""
    if type(p) is not int or p < 2:
        raise ValidationError(f"p must be an integer >= 2, got {p!r}")
    if p > sys.maxsize:
        raise ValidationError(f"p must be at most sys.maxsize = {sys.maxsize}, got {p}")


def projective_count(dim: int, stable_dim: int, p: int) -> int:
    """The count n of blocks [p] in ``dim`` = ``stable_dim`` + n*p.

    ValidationError unless ``dim - stable_dim`` is a multiple of p that is >= 0.
    """
    rem = dim - stable_dim
    if rem < 0 or rem % p:
        raise ValidationError(f"total dimension {dim} is inconsistent with stable part "
                              f"of dimension {stable_dim} mod {p}")
    return rem // p


def _split_terms(text: str):
    """Yield (start_position, chunk) for '+'-separated terms."""
    pos = 0
    for chunk in text.split("+"):
        yield pos, chunk
        pos += len(chunk) + 1


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# below _MR_BOUND (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def require_prime(p: int) -> None:
    """ValidationError unless ``p`` is an int and prime, as F_p must be a field.

    A deterministic Miller-Rabin test; a ``p`` at or above the bound its
    bases are proved for is refused, not guessed at.
    """
    if type(p) is not int:
        raise ValidationError(f"p must be an int, got {p!r}")
    if p >= _MR_BOUND:
        raise ValidationError(
            f"p = {p} is too large to test for primality (the limit is {_MR_BOUND - 1})"
        )
    if p in _MR_BASES:
        return
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        raise ValidationError(f"p must be prime, got {p}")
    if p < 43 * 43:
        # a composite below 43^2 has a prime factor <= 41, one of the bases
        return
    # p - 1 = d 2^r with d odd
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            # a witnesses that p is composite
            raise ValidationError(f"p must be prime, got {p}")


def _restrict_blocks(p: int, j: int, blocks: Iterable[tuple[int, int]]) -> JordanType:
    """Restriction to t^j of the sum of a copies of [i] for each (i, a) in
    ``blocks``, built as one JordanType; see ``restrict`` for the closed form."""
    if not 1 <= j <= p:
        raise ValidationError(f"power j={j} out of range 1..{p}")
    counts: Counter[int] = Counter()
    for i, count in blocks:
        a, r = divmod(i, j)
        # zero parts are skipped: [0] when j > i, and [a+1] when r = 0,
        # which can lie above the modulus
        for size, parts in ((a, j - r), (a + 1, r)):
            if size and parts:
                counts[size] += count * parts
    return JordanType.from_counts(max(2, -(-p // j)), counts)


def restrict(i: int, j: int, p: int) -> JordanType:
    """Jordan type of the j-th power of a single block [i].

    Over the subalgebra generated by t^j the block [i] splits as
    (j-r)[a] + r[a+1] when i = a*j + r with 0 <= r < j, which is i[1]
    when j > i.  The result carries its own nilpotency order ceil(p/j),
    the order of t^j, so projectivity over the subalgebra stays
    decidable.
    """
    require_modulus(p)
    require_ints(i=i, j=j)
    if not 1 <= i <= p:
        raise ValidationError(f"block size i={i} out of range 1..{p}")
    return _restrict_blocks(p, j, [(i, 1)])


def restrict_type(jt: JordanType, j: int) -> JordanType:
    """Blockwise restriction of a whole type to the subalgebra of t^j.

    Additive over direct sums and dimension-preserving.
    """
    require_ints(j=j)
    occupied = ((i, a) for i, a in enumerate(jt.mult, 1) if a)
    return _restrict_blocks(jt.p, j, occupied)


def pi_point_sweep(jt: JordanType) -> set[JordanType]:
    """Set of stable Jordan types over all probe powers j = 1..p.

    The type at power j is that of t^j acting on the base: the restriction
    splits blocks per the closed form in ``restrict``, and the result is
    re-embedded at the original modulus p and stripped of projective
    blocks.  A probe operator of the form t^j * (unit) has the same rank
    sequence as t^j, so this is the type seen by any probe whose
    lowest-degree term is t^j.  Only probes factoring through powers of
    the single given operator are modelled; mixed two-parameter probes
    reduce to their lowest-degree power.  The sweep covers the seed
    operator itself, not other vertices of its component.

    At every j from the largest block b up, each block [i] splits into
    i[1], so j stops at b (at 1 for the zero type, which every j fixes).
    """
    top = max((i for i, a in enumerate(jt.mult, 1) if a), default=1)
    return {restrict_type(jt, j).with_modulus(jt.p).stable_part()
            for j in range(1, top + 1)}


def _dominance_key(jt: JordanType, convention: DominanceConvention) -> list[int]:
    """Partial sums for j = p down to 1, in one pass.

    With C_j and D_j the count and the dimension of the blocks of size
    >= j, dim im t^j = D_j - j*C_j (IMAGE_DIM) and the tail sum is D_j.
    """
    image = convention is DominanceConvention.IMAGE_DIM
    key, count, dim = [], 0, 0
    for j in range(jt.p, 0, -1):
        count += jt.mult[j - 1]
        dim += j * jt.mult[j - 1]
        key.append(dim - j * count if image else dim)
    return key


def pointwise_compare(u: Sequence[int], v: Sequence[int]) -> DominanceResult:
    """Compare two equal-length integer vectors entry by entry.

    GREATER means u >= v in every entry and u != v.
    """
    if u == v:
        return DominanceResult.EQUAL
    if all(x >= y for x, y in zip(u, v)):
        return DominanceResult.GREATER
    if all(x <= y for x, y in zip(u, v)):
        return DominanceResult.LESS
    return DominanceResult.INCOMPARABLE


def dominance_compare(
    a: JordanType,
    b: JordanType,
    convention: DominanceConvention = DominanceConvention.IMAGE_DIM,
) -> DominanceResult:
    """Compare two types of equal dimension in the dominance order.

    GREATER means a dominates b.  Requires matching p and total
    dimension; raises ValidationError otherwise.
    """
    if a.p != b.p:
        raise ValidationError(f"modulus mismatch: p={a.p} vs p={b.p}")
    if a.dimension() != b.dimension():
        raise ValidationError(
            f"dimension mismatch: {a.dimension()} vs {b.dimension()}"
        )
    return pointwise_compare(_dominance_key(a, convention), _dominance_key(b, convention))
