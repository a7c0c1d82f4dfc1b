"""Cartan matrices and their integer kernels: the reference for the null roots.

Nothing in the library imports this module.  The library tabulates the
null root of each Euclidean diagram; a test rebuilds the Cartan matrix
of the same valued graph and solves for its kernel by exact elimination
over Q, so a wrong table entry shows as a node-by-node mismatch.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
