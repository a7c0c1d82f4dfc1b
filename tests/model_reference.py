"""Reference nilpotent models that the tests build and the library does not.

Nothing in the library imports this module.  ``model`` builds a model
from ``(r, c, v)`` entries through ``NilpotentModel.from_json_dict``,
the library's one reader of entries, so every model here goes through
that reader's checks and is reduced and sorted into the stored form
there.  Each other builder writes its matrix as entries and passes them
to ``model``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from jordanquiver.jtypes import JordanType
from jordanquiver.oracle import NilpotentModel


def model(p: int, dim: int, entries: Iterable[Sequence[int]]) -> NilpotentModel:
    """The model of the dim x dim matrix with the given ``(r, c, v)`` entries
    over F_p, read by ``from_json_dict`` with each entry as a list."""
    return NilpotentModel.from_json_dict(
        {"p": p, "dim": dim, "entries": [list(entry) for entry in entries]})


def model_from_type(jt: JordanType) -> NilpotentModel:
    """The block-diagonal shift of Jordan type ``jt``, largest block first:
    e_c -> e_(c+1) inside each block."""
    entries, offset = [], 0
    for size in range(jt.p, 0, -1):
        for _ in range(jt.mult[size - 1]):
            entries += [(c + 1, c, 1) for c in range(offset, offset + size - 1)]
            offset += size
    return model(jt.p, offset, entries)


def power_model(base: NilpotentModel, j: int) -> NilpotentModel:
    """The model of N^j, j >= 1: column c of N^(m+1) is N times column c of N^m."""
    p, cols = base.p, dict(base.columns)
    power = {c: dict(col) for c, col in cols.items()}
    for _ in range(j - 1):
        nxt = {}
        for c, col in power.items():
            out = nxt[c] = {}
            for k, x in col.items():
                for r, v in cols.get(k, ()):
                    out[r] = (out.get(r, 0) + x * v) % p
        power = nxt
    return model(p, base.dim, [(r, c, v) for c, col in power.items() for r, v in col.items()])


def sl2_simple_models(p: int, n: int) -> tuple[NilpotentModel, NilpotentModel]:
    """(e, f) on the n-dim simple u(sl(2))-module, 1 <= n <= p-1: on the weight
    basis v_0..v_(n-1), e.v_j = j(n - j) v_(j-1) and f.v_j = v_(j+1), each a
    single block [n]."""
    e = [(j - 1, j, j * (n - j)) for j in range(1, n)]
    f = [(j + 1, j, 1) for j in range(n - 1)]
    return model(p, n, e), model(p, n, f)


def model_json_dict(built: NilpotentModel) -> dict:
    """The model JSON that ``NilpotentModel.from_json_dict`` reads, entries row-major."""
    entries = sorted([r, c, v] for c, col in built.columns for r, v in col)
    return {"p": built.p, "dim": built.dim, "entries": entries}
