"""Cartan matrices: the reference for the null roots and the tube stencils.

Nothing in the library imports this module.  The library tabulates the
null root of each Euclidean diagram; a test rebuilds the Cartan matrix
of the same valued graph and solves for its kernel by exact elimination
over Q, so a wrong table entry shows as a node-by-node mismatch.  The
library applies the tube matrices A and B as O(p) stencils
(``components.apply_a``/``apply_b``); ``build_cartan_pair`` materialises
them, verified mutually inverse, for the tests to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from jordanquiver.errors import ValidationError
from jordanquiver.quiver import ValuedGraph


def cartan_matrix(graph: ValuedGraph) -> list[list[int]]:
    """The matrix C(i, j) = 2*delta_ij - d(i, j) in node order."""
    n = len(graph.nodes)
    index = {v: k for k, v in enumerate(graph.nodes)}
    c = [[0] * n for _ in range(n)]
    for k in range(n):
        c[k][k] = 2
    for (i, j), val in graph.d.items():
        c[index[i]][index[j]] -= val
    return c


def integer_kernel_vector(c: list[list[int]]) -> list[int]:
    """Primitive integer vector spanning the kernel of an integer matrix.

    Expects a one-dimensional kernel; exact elimination over Q.
    """
    n = len(c)
    a = [[Fraction(x) for x in row] for row in c]
    pivots = []
    row = 0
    for col in range(n):
        pr = None
        for r in range(row, n):
            if a[r][col]:
                pr = r
                break
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        a[row] = [x / a[row][col] for x in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c0 for c0 in range(n) if c0 not in pivots]
    if len(free) != 1:
        raise ValidationError(f"kernel dimension is {len(free)}, expected 1")
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -a[r][fc]
    lcm = 1
    for x in vec:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise ValidationError("kernel vector is not strictly positive")
    return ints


Matrix = tuple[tuple[int, ...], ...]


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _identity(p: int) -> list[list[int]]:
    return [[int(i == j) for j in range(p)] for i in range(p)]


@dataclass(frozen=True)
class CartanPair:
    """The mutually inverse integer matrices A and B of size p x p.

    A is tridiagonal with diagonal (2, ..., 2, 1) and -1 on the off
    diagonals; its top-left (p-1) x (p-1) block is the Cartan matrix of
    the Dynkin diagram A_{p-1}.  B has entries min(i, l).  The identity
    A B = B A = I is verified exactly at construction.
    """

    p: int
    a: Matrix
    b: Matrix


def build_cartan_pair(p: int) -> CartanPair:
    if p < 2:
        raise ValidationError(f"p must be >= 2, got {p}")
    a = [[0] * p for _ in range(p)]
    for i in range(p):
        a[i][i] = 2
        if i + 1 < p:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    a[p - 1][p - 1] = 1
    b = [[min(i, l) + 1 for l in range(p)] for i in range(p)]
    ident = _identity(p)
    if _matmul(a, b) != ident or _matmul(b, a) != ident:
        raise ValidationError(f"A and B are not mutually inverse at p={p}")
    return CartanPair(p, tuple(map(tuple, a)), tuple(map(tuple, b)))
