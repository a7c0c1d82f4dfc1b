"""Reference nilpotent models that the tests build and the library does not.

Nothing in the library imports this module.  Each builder writes its
matrix as ``(r, c, v)`` entries and passes them to ``NilpotentModel``, so
every model here goes through the constructor's checks and is reduced
and sorted into the stored form there.
"""

from __future__ import annotations

from jordanquiver.jtypes import JordanType
from jordanquiver.oracle import NilpotentModel


def model_from_type(jt: JordanType) -> NilpotentModel:
    """The block-diagonal shift of Jordan type ``jt``, largest block first:
    e_c -> e_(c+1) inside each block."""
    entries, offset = [], 0
    for size in range(jt.p, 0, -1):
        for _ in range(jt.mult[size - 1]):
            entries += [(c + 1, c, 1) for c in range(offset, offset + size - 1)]
            offset += size
    return NilpotentModel(jt.p, offset, entries)


def power_model(model: NilpotentModel, j: int) -> NilpotentModel:
    """The model of N^j, j >= 1: column c of N^(m+1) is N times column c of N^m."""
    p, cols = model.p, dict(model.columns)
    power = {c: dict(col) for c, col in cols.items()}
    for _ in range(j - 1):
        nxt = {}
        for c, col in power.items():
            out = nxt[c] = {}
            for k, x in col.items():
                for r, v in cols.get(k, ()):
                    out[r] = (out.get(r, 0) + x * v) % p
        power = nxt
    return NilpotentModel(p, model.dim, [(r, c, v) for c, col in power.items()
                                         for r, v in col.items()])


def sl2_simple_models(p: int, n: int) -> tuple[NilpotentModel, NilpotentModel]:
    """(e, f) on the n-dim simple u(sl(2))-module, 1 <= n <= p-1: on the weight
    basis v_0..v_(n-1), e.v_j = j(n - j) v_(j-1) and f.v_j = v_(j+1), each a
    single block [n]."""
    e = [(j - 1, j, j * (n - j)) for j in range(1, n)]
    f = [(j + 1, j, 1) for j in range(n - 1)]
    return NilpotentModel(p, n, e), NilpotentModel(p, n, f)


def model_json_dict(model: NilpotentModel) -> dict:
    """The model JSON that ``NilpotentModel.from_json_dict`` reads, entries row-major."""
    entries = sorted([r, c, v] for c, col in model.columns for r, v in col)
    return {"p": model.p, "dim": model.dim, "entries": entries}
