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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError, int_tuple, json_array, json_field

_TERM_RE = re.compile(r"(\d*)\s*\[\s*(\d+)\s*\]")


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


@dataclass(frozen=True)
class JordanType:
    """Multiplicity vector of Jordan blocks for a p-nilpotent operator.

    Attributes:
        p: nilpotency order; block sizes range over 1..p.
        mult: tuple of length p, ``mult[i-1]`` = multiplicity of block [i].
    """

    p: int
    mult: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 2:
            raise ValidationError(f"p must be an integer >= 2, got {self.p!r}")
        mult = int_tuple(self.mult, "mult")
        if len(mult) != self.p:
            raise ValidationError(
                f"multiplicity vector must have length p={self.p}, got {len(mult)}"
            )
        if any(m < 0 for m in mult):
            raise ValidationError(f"multiplicities must be >= 0, got {mult}")
        object.__setattr__(self, "mult", mult)

    # ---------------------------------------------------------------- build

    @classmethod
    def zero(cls, p: int) -> "JordanType":
        """The Jordan type of the zero module."""
        return cls(p, (0,) * p)

    @classmethod
    def block(cls, p: int, i: int, count: int = 1) -> "JordanType":
        """count copies of the single block [i]."""
        return cls.from_counts(p, {i: count})

    @classmethod
    def from_counts(cls, p: int, counts: Mapping[int, int]) -> "JordanType":
        """Build from a mapping block size -> multiplicity."""
        mult = [0] * p
        for i, m in counts.items():
            if not 1 <= i <= p:
                raise ValidationError(f"block size {i} out of range 1..{p}")
            mult[i - 1] += m
        return cls(p, tuple(mult))

    @classmethod
    def from_blocks(cls, p: int, sizes: Iterable[int]) -> "JordanType":
        """Build from an iterable of block sizes (with repetition)."""
        return cls.from_counts(p, Counter(sizes))

    @classmethod
    def from_string(cls, p: int, text: str) -> "JordanType":
        """Parse the compact grammar ``(<m>? "[" <i> "]" ("+" ...)*)?``.

        The empty string denotes the zero module.  Raises ParseError with
        the offending position on malformed input.
        """
        mult = [0] * p
        if text.strip() == "":
            return cls(p, tuple(mult))
        for start, chunk in _split_terms(text):
            m = _TERM_RE.fullmatch(chunk.strip())
            if m is None:
                raise ParseError(
                    f"bad Jordan-type term {chunk.strip()!r} at position {start}"
                )
            count = int(m.group(1)) if m.group(1) else 1
            size = int(m.group(2))
            if not 1 <= size <= p:
                raise ParseError(
                    f"block size {size} out of range 1..{p} at position {start}"
                )
            mult[size - 1] += count
        return cls(p, tuple(mult))

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "") -> "JordanType":
        """Read ``{"p": ..., "mult": [...]}`` found at JSON path ``path``."""
        return cls(json_field(data, "p", int, path), json_array(data, "mult", int, path))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "mult": list(self.mult)}

    # ------------------------------------------------------------- queries

    def multiplicity(self, i: int) -> int:
        """Multiplicity a_i of the block [i]."""
        if not 1 <= i <= self.p:
            raise ValidationError(f"block size {i} out of range 1..{self.p}")
        return self.mult[i - 1]

    def blocks(self) -> tuple[int, ...]:
        """All block sizes in descending order, with repetition."""
        out = []
        for i in range(self.p, 0, -1):
            out.extend([i] * self.mult[i - 1])
        return tuple(out)

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
        if not 1 <= m <= self.p:
            raise ValidationError(f"power m={m} out of range 1..{self.p}")
        head = sum(i * a for i, a in enumerate(self.mult[: m - 1], 1))
        return head + m * sum(self.mult[m - 1 :])

    def image_dim(self, m: int) -> int:
        """Dimension of im t^m, i.e. dimension() - ker_dim(m), for 0 <= m <= p."""
        if not 0 <= m <= self.p:
            raise ValidationError(f"power m={m} out of range 0..{self.p}")
        return self.dimension() - (self.ker_dim(m) if m else 0)

    def psi(self, m: int) -> int:
        """Kernel dimension of t^m on the projective-free part.

        Equals sum_{i<m} i*a_i + m*sum_{i=m}^{p-1} a_i, i.e.
        ker_dim(m) - m*a_p, and is defined for 1 <= m <= p-1.
        """
        if not 1 <= m <= self.p - 1:
            raise ValidationError(f"power m={m} out of range 1..{self.p - 1}")
        return self.ker_dim(m) - m * self.mult[-1]

    # --------------------------------------------------------- derivations

    def stable_part(self) -> "JordanType":
        """Drop all blocks of size p."""
        return JordanType(self.p, self.mult[:-1] + (0,))

    def syzygy(self) -> "JordanType":
        """Kernel of the projective cover, blockwise: [i] -> [p-i].

        Blocks of size p are projective and are dropped (projective-free
        convention), so syzygy∘syzygy equals stable_part.
        """
        return JordanType(self.p, self.mult[-2::-1] + (0,))

    def with_modulus(self, new_p: int) -> "JordanType":
        """Reinterpret the same block multiset at nilpotency order new_p."""
        if new_p < self.p:
            for i in range(new_p, self.p):
                if self.mult[i]:
                    raise ValidationError(
                        f"block [{i + 1}] does not fit below nilpotency order {new_p}"
                    )
        mult = [0] * new_p
        for i, a in enumerate(self.mult[: min(self.p, new_p)]):
            mult[i] = a
        return JordanType(new_p, tuple(mult))

    # ------------------------------------------------------------- algebra

    def __add__(self, other: "JordanType") -> "JordanType":
        """Direct sum."""
        if not isinstance(other, JordanType):
            return NotImplemented
        if other.p != self.p:
            raise ValidationError(f"cannot add types with p={self.p} and p={other.p}")
        return JordanType(self.p, tuple(a + b for a, b in zip(self.mult, other.mult)))

    def __mul__(self, k: int) -> "JordanType":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValidationError("multiplicity factor must be >= 0")
        return JordanType(self.p, tuple(k * a for a in self.mult))

    __rmul__ = __mul__

    def __str__(self) -> str:
        terms = []
        for i in range(self.p, 0, -1):
            a = self.mult[i - 1]
            if a == 0:
                continue
            terms.append(f"[{i}]" if a == 1 else f"{a}[{i}]")
        return "+".join(terms)


def _split_terms(text: str):
    """Yield (start_position, chunk) for '+'-separated terms."""
    pos = 0
    for chunk in text.split("+"):
        yield pos, chunk
        pos += len(chunk) + 1


def require_prime(p: int) -> None:
    """ValidationError unless ``p`` is an int and prime, as F_p must be a field."""
    if type(p) is not int:
        raise ValidationError(f"p must be an int, got {p!r}")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
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
    if not 1 <= i <= p:
        raise ValidationError(f"block size i={i} out of range 1..{p}")
    return _restrict_blocks(p, j, [(i, 1)])


def restrict_type(jt: JordanType, j: int) -> JordanType:
    """Blockwise restriction of a whole type to the subalgebra of t^j.

    Additive over direct sums and dimension-preserving.
    """
    occupied = ((i, a) for i, a in enumerate(jt.mult, 1) if a)
    return _restrict_blocks(jt.p, j, occupied)


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
