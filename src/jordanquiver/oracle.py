"""Ground-truth engine: nilpotent matrices over the prime field F_p.

The Jordan type of a concrete operator N with N^p = 0 is recovered from
its rank sequence r_m = rank(N^m) via a_i = r_{i-1} - 2 r_i + r_{i+1}.
r_m is the dimension of the image chain im N ⊇ im N^2 ⊇ ...: a sparse
echelon basis of each term, mapped through N, spans the next, and no
power N^m is ever formed.  The arithmetic is exact mod p, so every
answer here is independent of the closed-form routines in the other
modules and can be used to cross-check them.  The dense kit
(``rank_mod_p``, ``mat_mul_mod_p``, ``invert_mod_p``) builds conjugated
and power models and is the reference the tests check the chain against.

Models serialize as JSON ``{"p": 5, "dim": 25, "entries": [[r, c, v], ...]}``
with sparse triplets.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError, json_field, json_value
from .jtypes import JordanType, require_prime, restrict_type

Matrix = list[list[int]]


# ------------------------------------------------------------------ F_p kit


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a matrix over F_p by Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        prow = a[rank]
        if inv != 1:
            a[rank] = prow = [(x * inv) % p for x in prow]
        for r in range(rank + 1, m):
            f = a[r][col]
            if f:
                arow = a[r]
                a[r] = [(x - f * y) % p for x, y in zip(arow, prow)]
        rank += 1
        if rank == m:
            break
    return rank


def mat_mul_mod_p(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> Matrix:
    n = len(a)
    k = len(b)
    out = [[0] * len(b[0]) for _ in range(n)] if k else [[] for _ in range(n)]
    bt = list(zip(*b))
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for j, bcol in enumerate(bt):
            orow[j] = sum(x * y for x, y in zip(arow, bcol)) % p
    return out


def invert_mod_p(rows: Sequence[Sequence[int]], p: int) -> Matrix:
    """Inverse over F_p by Gauss-Jordan; raises ValidationError if singular."""
    n = len(rows)
    a = [[x % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            raise ValidationError("matrix is singular mod p")
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [(x * inv) % p for x in a[col]]
        prow = a[col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], prow)]
    return [row[n:] for row in a]


def _reduced_echelon(vectors: Iterable[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """A basis of the span of sparse vectors over F_p, in reduced echelon form.

    Vectors are dicts ``index -> nonzero value``.  The result maps each
    pivot to the basis vector whose smallest index it is; that vector
    holds 1 at its pivot and 0 at every other pivot.  The input dicts
    are consumed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(vec[lead], -1, p)
                if inv != 1:
                    vec = {k: x * inv % p for k, x in vec.items()}
                pivots[lead] = vec
                break
            # every index of prow is >= lead, so the next lead is larger
            _subtract(vec, vec[lead], prow, p)
    # back substitution, from the last pivot: each row subtracted is
    # already 0 at the other pivots, so it brings in no pivot entries
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for k in [k for k in row if k != lead and k in pivots]:
            _subtract(row, row[k], pivots[k], p)
    return pivots


def _subtract(vec: dict[int, int], f: int, row: Mapping[int, int], p: int) -> None:
    """vec -= f * row over F_p, in place, keeping only nonzero entries."""
    for k, x in row.items():
        y = (vec.get(k, 0) - f * x) % p
        if y:
            vec[k] = y
        else:
            del vec[k]


def _image_chain_ranks(mat: Sequence[Sequence[int]], p: int) -> list[int]:
    """(rank N^0, ..., rank N^p) for a square N over F_p with entries in 0..p-1.

    rank N^m is the dimension of im N^m, and im N^(m+1) = N(im N^m): a
    basis of im N^m mapped through N spans the next term of the chain.
    Each step keeps the operator restricted to the current term, in the
    coordinates of its reduced echelon basis: a vector w of the span is
    the sum of w[q] * b_q over the pivots q, so its coordinates are its
    pivot entries, and the operator shrinks with the chain.  The chain
    decreases; once it is zero or stops shrinking it is constant, and
    the remaining ranks repeat the last one.
    """
    dim = len(mat)
    cols: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    for r, row in enumerate(mat):
        for c, v in enumerate(row):
            if v:
                cols[c].append((r, v))
    ranks = [dim]
    while True:
        basis = _reduced_echelon((dict(col) for col in cols if col), p)
        ranks.append(len(basis))
        if len(ranks) > p or not basis or ranks[-1] == ranks[-2]:
            return ranks + [ranks[-1]] * (p + 1 - len(ranks))
        coord = {q: i for i, q in enumerate(basis)}
        at_pivots = [[(coord[r], v) for r, v in col if r in coord] for col in cols]
        cols = []
        for vec in basis.values():
            out: dict[int, int] = {}
            for j, x in vec.items():
                for r, v in at_pivots[j]:
                    out[r] = out.get(r, 0) + x * v
            cols.append([(r, y % p) for r, y in out.items() if y % p])


# -------------------------------------------------------------------- model


class NilpotentModel:
    """A square matrix N over F_p with N^p = 0.

    The rank sequence (r_0, ..., r_p) is computed once at construction,
    as the dimensions of the image chain im N ⊇ im N^2 ⊇ ... (see
    ``_image_chain_ranks``); it both certifies nilpotency of order <= p
    and drives Jordan-type extraction.  ``rows`` keeps the dense matrix.
    Instances are immutable.
    """

    __slots__ = ("p", "dim", "rows", "rank_sequence")

    def __init__(self, p: int, rows: Iterable[Iterable[int]]):
        # ranks are computed by elimination over F_p, which needs a field
        require_prime(p)
        mat = tuple(tuple(int(x) % p for x in row) for row in rows)
        dim = len(mat)
        if any(len(row) != dim for row in mat):
            raise ValidationError("matrix must be square")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", mat)
        ranks = _image_chain_ranks(mat, p)
        if ranks[p] != 0:
            raise ValidationError(
                f"matrix is not nilpotent of order <= {p} (rank of N^{p} is {ranks[p]})"
            )
        object.__setattr__(self, "rank_sequence", tuple(ranks))

    def __setattr__(self, name, value):
        raise AttributeError("NilpotentModel is immutable")

    def __repr__(self):
        return f"NilpotentModel(p={self.p}, dim={self.dim})"

    def to_json_dict(self) -> dict:
        entries = [
            [r, c, v]
            for r, row in enumerate(self.rows)
            for c, v in enumerate(row)
            if v
        ]
        return {"p": self.p, "dim": self.dim, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NilpotentModel":
        p = json_field(data, "p", int)
        dim = json_field(data, "dim", int)
        if dim < 0:
            raise ParseError(f"dim must be >= 0, got {dim}")
        rows = [[0] * dim for _ in range(dim)]
        seen = set()
        for n, item in enumerate(json_field(data, "entries", list)):
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError(f"entries[{n}] must be [r, c, v], got {item!r}")
            r, c, v = (json_value(x, int, f"entries[{n}][{k}]") for k, x in enumerate(item))
            if not (0 <= r < dim and 0 <= c < dim):
                raise ParseError(f"entry ({r},{c}) outside a {dim}x{dim} matrix")
            if (r, c) in seen:
                raise ParseError(f"entries[{n}] repeats entry ({r},{c})")
            seen.add((r, c))
            rows[r][c] = v
        return cls(p, rows)


def jordan_type_of(model: NilpotentModel) -> JordanType:
    """Extract the Jordan type from the rank sequence of the model."""
    r = list(model.rank_sequence) + [0]
    mult = [r[i - 1] - 2 * r[i] + r[i + 1] for i in range(1, model.p + 1)]
    jt = JordanType(model.p, tuple(mult))
    assert jt.dimension() == model.dim
    return jt


def conjugate(model: NilpotentModel, g: Sequence[Sequence[int]]) -> NilpotentModel:
    """The model g N g^{-1} for an invertible g over F_p."""
    g_inv = invert_mod_p(g, model.p)
    return NilpotentModel(
        model.p, mat_mul_mod_p(mat_mul_mod_p(g, model.rows, model.p), g_inv, model.p)
    )


def random_invertible(dim: int, p: int, rng: random.Random) -> Matrix:
    """A uniformly random-ish invertible matrix over F_p (rejection sampling)."""
    while True:
        g = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if rank_mod_p(g, p) == dim:
            return g


# ------------------------------------------------------------ constructors


def jordan_block_model(p: int, i: int) -> NilpotentModel:
    """The single i x i Jordan block (lower shift), 1 <= i <= p."""
    if not 1 <= i <= p:
        raise ValidationError(f"block size {i} out of range 1..{p}")
    rows = [[0] * i for _ in range(i)]
    for r in range(1, i):
        rows[r][r - 1] = 1
    return NilpotentModel(p, rows)


def model_from_type(jt: JordanType) -> NilpotentModel:
    """Block-diagonal nilpotent matrix realizing a given Jordan type."""
    dim = jt.dimension()
    rows = [[0] * dim for _ in range(dim)]
    offset = 0
    for size in jt.blocks():
        for r in range(1, size):
            rows[offset + r][offset + r - 1] = 1
        offset += size
    return NilpotentModel(jt.p, rows)


def power_model(model: NilpotentModel, j: int) -> NilpotentModel:
    """The model of N^j; nilpotent of every order that N is."""
    if j < 1:
        raise ValidationError(f"power j={j} must be >= 1")
    cur = [[int(r == c) for c in range(model.dim)] for r in range(model.dim)]
    base = [list(row) for row in model.rows]
    e = j
    while e:
        if e & 1:
            cur = mat_mul_mod_p(cur, base, model.p)
        e >>= 1
        if e:
            base = mat_mul_mod_p(base, base, model.p)
    return NilpotentModel(model.p, cur)


def heisenberg_model(p: int) -> NilpotentModel:
    """Induced module of the 3-dim Heisenberg Lie algebra along its x-line.

    Basis is indexed by (n, m) with 0 <= n, m <= p-1 (monomials y^n z^m),
    and the operator sends (n, m) to n * (n-1, m+1), zero when n = 0 or
    m = p-1.  Dimension p^2.
    """
    if p < 3:
        raise ValidationError(f"heisenberg model needs p >= 3, got {p}")
    dim = p * p
    idx = lambda n, m: n * p + m
    rows = [[0] * dim for _ in range(dim)]
    for n in range(p):
        for m in range(p):
            if n >= 1 and m + 1 <= p - 1:
                rows[idx(n - 1, m + 1)][idx(n, m)] = n % p
    return NilpotentModel(p, rows)


def abelian_rank2_models(p: int) -> tuple[NilpotentModel, NilpotentModel]:
    """Two operators on the p-dim module k[y]/(y^p) induced along the x-line.

    The first generator x acts as zero; the perturbed operator x + y^(p-1)
    sends the basis vector e_0 to e_{p-1} and kills everything else.
    """
    if p < 3:
        raise ValidationError(f"rank-2 abelian models need p >= 3, got {p}")
    zero = [[0] * p for _ in range(p)]
    beta = [[0] * p for _ in range(p)]
    beta[p - 1][0] = 1
    return NilpotentModel(p, zero), NilpotentModel(p, beta)


def ga2_model(p: int) -> tuple[NilpotentModel, NilpotentModel]:
    """Operators u_0 and u_0 + u_1^2 on the height-2 additive kernel module.

    On k[u_1]/(u_1^p) the first generator acts as zero and the perturbed
    one as the square of the full shift.  Requires odd p.
    """
    if p < 3:
        raise ValidationError(f"height-2 model needs odd p >= 3, got {p}")
    zero = [[0] * p for _ in range(p)]
    beta = [[0] * p for _ in range(p)]
    for r in range(2, p):
        beta[r][r - 2] = 1
    return NilpotentModel(p, zero), NilpotentModel(p, beta)


def sl2s_models(p: int, i: int) -> tuple[NilpotentModel, NilpotentModel]:
    """(e, f) actions on the p-dim Verma-type module of highest weight i-1.

    In the weight basis v_0..v_{p-1}: f shifts down the chain (a single
    block [p]) and e acts by e.v_j = j(i - j) v_{j-1}, whose coefficient
    vanishes exactly at j = i, splitting off blocks [i] and [p-i].
    """
    if p < 3:
        raise ValidationError(f"sl(2) models need p >= 3, got {p}")
    if not 1 <= i <= p - 1:
        raise ValidationError(f"highest-weight parameter i={i} out of range 1..{p - 1}")
    f_rows = [[0] * p for _ in range(p)]
    for r in range(1, p):
        f_rows[r][r - 1] = 1
    e_rows = [[0] * p for _ in range(p)]
    for j in range(1, p):
        e_rows[j - 1][j] = (j * (i - j)) % p
    return NilpotentModel(p, e_rows), NilpotentModel(p, f_rows)


def sl2_simple_models(p: int, n: int) -> tuple[NilpotentModel, NilpotentModel]:
    """(e, f) actions on the n-dim simple module, 1 <= n <= p-1.

    Simple modules are cyclic for both generators, so each action is a
    single block [n].
    """
    if p < 3:
        raise ValidationError(f"sl(2) models need p >= 3, got {p}")
    if not 1 <= n <= p - 1:
        raise ValidationError(f"simple-module dimension n={n} out of range 1..{p - 1}")
    f_rows = [[0] * n for _ in range(n)]
    for r in range(1, n):
        f_rows[r][r - 1] = 1
    e_rows = [[0] * n for _ in range(n)]
    for j in range(1, n):
        e_rows[j - 1][j] = (j * (n - j)) % p
    return NilpotentModel(p, e_rows), NilpotentModel(p, f_rows)


# ------------------------------------------------------------------- sweep


def power_restriction(jt: JordanType, j: int) -> JordanType:
    """Stable Jordan type of t^j acting on a module of type jt, at modulus p.

    The restriction splits blocks per the closed form in jtypes.restrict;
    the result is re-embedded at the original modulus p and stripped of
    projective blocks.  A probe operator of the form t^j * (unit) has the
    same rank sequence as t^j, so this is the type seen by any probe whose
    lowest-degree term is t^j.
    """
    return restrict_type(jt, j).with_modulus(jt.p).stable_part()


def pi_point_sweep(base: "NilpotentModel | JordanType") -> set[JordanType]:
    """Set of stable Jordan types over all probe powers j = 1..p.

    Only probes factoring through powers of the single given operator are
    modelled; mixed two-parameter probes reduce to their lowest-degree
    power, which has the same rank sequence.  The sweep covers the seed
    operator itself, not other vertices of its component.
    """
    jt = base if isinstance(base, JordanType) else jordan_type_of(base)
    return {power_restriction(jt, j) for j in range(1, jt.p + 1)}
