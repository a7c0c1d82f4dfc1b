"""A plain dict kit for one step of the image chain, the tests' reference.

Nothing in the library imports this module, and it shares no code with
the library's kernels.  Every column is copied to a dict and reduced by
the general loop, back substitution visits every pivot, and the whole
operator is read at the pivots before any basis vector is applied, so a
test can check the library's dict and packed steps, and the ranks of
whole chains, against the plain algorithm step by step.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

Operator = Mapping[int, Sequence[tuple[int, int]]]


def reduced_echelon(vectors: Iterable[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Pivot -> basis vector of the span of sparse dict vectors, in reduced echelon form.

    Each vector holds 1 at its pivot, its smallest index, and 0 at every
    other pivot.  The input dicts are consumed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(vec[lead], -1, p)
                pivots[lead] = {k: x * inv % p for k, x in vec.items()}
                break
            subtract(vec, vec[lead], prow, p)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for k in [k for k in row if k != lead and k in pivots]:
            subtract(row, row[k], pivots[k], p)
    return pivots


def subtract(vec: dict[int, int], f: int, row: Mapping[int, int], p: int) -> None:
    """vec -= f * row over F_p, in place, keeping only nonzero entries."""
    for k, x in row.items():
        y = (vec.get(k, 0) - f * x) % p
        if y:
            vec[k] = y
        else:
            del vec[k]


def apply(cols: Mapping[int, Iterable[tuple[int, int]]], vec: Iterable[tuple[int, int]],
          p: int) -> list[tuple[int, int]]:
    """The nonzero (index, value) pairs of M v over F_p, M given by its nonzero columns."""
    out: dict[int, int] = {}
    for j, x in vec:
        for r, v in cols.get(j, ()):
            out[r] = out.get(r, 0) + x * v
    return [(r, y % p) for r, y in out.items() if y % p]


def dict_step(cols: Operator, p: int) -> tuple[int, dict[int, list[tuple[int, int]]]]:
    """rank A, and A restricted to im A in the coordinates of its reduced echelon basis."""
    basis = reduced_echelon((dict(col) for col in cols.values()), p)
    coord = {q: i for i, q in enumerate(basis)}
    at_pivots = {c: [(coord[r], v) for r, v in col if r in coord] for c, col in cols.items()}
    restricted = {}
    for i, vec in enumerate(basis.values()):
        col = apply(at_pivots, vec.items(), p)
        if col:
            restricted[i] = col
    return len(basis), restricted
