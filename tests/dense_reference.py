"""Dense matrices over F_p: the reference the sparse oracle is checked against.

Nothing in the library imports this module.  Its routines are plain
Gaussian elimination and schoolbook products on lists of rows, written
for clarity rather than speed, so that a test can compare a rank
sequence or a conjugate computed on the sparse store with one computed
the obvious way.
"""

from __future__ import annotations

import random
from typing import Sequence

from jordanquiver.errors import ValidationError
from jordanquiver.oracle import NilpotentModel

Matrix = list[list[int]]


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


def random_invertible(dim: int, p: int, rng: random.Random) -> Matrix:
    """A uniformly random-ish invertible matrix over F_p (rejection sampling)."""
    while True:
        g = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if rank_mod_p(g, p) == dim:
            return g


def dense(model: NilpotentModel) -> Matrix:
    """The matrix of a model as a list of rows, read from its sparse store."""
    rows = [[0] * model.dim for _ in range(model.dim)]
    for c, col in model.columns:
        for r, v in col:
            rows[r][c] = v
    return rows


def from_dense(p: int, rows: Sequence[Sequence[int]]) -> NilpotentModel:
    """The model of a square matrix given as a list of rows."""
    entries = [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]
    return NilpotentModel(p, len(rows), entries)

