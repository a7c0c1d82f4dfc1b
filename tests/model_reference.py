"""Reference nilpotent models that the tests build and the library does not.

Nothing in the library imports this module.  ``model`` builds a model
from ``(r, c, v)`` entries through ``NilpotentModel.from_json_dict``,
the library's one reader of entries, so every model here goes through
that reader's checks and is reduced and sorted into the stored form
there.  Each other builder writes its matrix as entries and passes them
to ``model``.  ``SIX_BY_SIX`` and ``DIM_12_AT_7`` are two dense models as
the JSON that ``oracle json --module`` reads.
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


# model JSON of a 6 x 6 matrix with no zero entry, of type [4]+[2] at p = 5
SIX_BY_SIX = (
    '{"p":5,"dim":6,"entries":[[0,0,2],[0,1,4],[0,2,2],[0,3,3],[0,4,3],[0,5,4],[1,0,1],'
    '[1,1,1],[1,2,3],[1,3,2],[1,4,3],[1,5,3],[2,0,2],[2,1,3],[2,2,4],[2,3,3],[2,4,3],[2,5,4],'
    '[3,0,1],[3,1,3],[3,2,4],[3,3,3],[3,4,4],[3,5,3],[4,0,3],[4,1,2],[4,2,1],[4,3,1],[4,4,2],'
    '[4,5,2],[5,0,4],[5,1,3],[5,2,4],[5,3,4],[5,4,4],[5,5,3]]}'
)

# model JSON of a dense conjugate of [7]+[3]+[2] at p = 7
DIM_12_AT_7 = (
    '{"p":7,"dim":12,"entries":[[0,0,3],[0,1,4],[0,2,6],[0,3,1],[0,4,4],[0,5,5],[0,6,2],'
    '[0,7,5],[0,8,4],[0,10,6],[1,0,3],[1,1,4],[1,2,5],[1,3,3],[1,4,2],[1,5,6],[1,6,2],'
    '[1,7,4],[1,8,3],[1,9,2],[1,10,6],[1,11,6],[2,1,2],[2,2,4],[2,3,6],[2,4,4],[2,5,4],'
    '[2,6,2],[2,7,6],[2,9,4],[2,10,4],[2,11,6],[3,0,3],[3,2,2],[3,3,2],[3,4,5],[3,8,6],'
    '[3,9,6],[3,10,2],[3,11,4],[4,0,2],[4,1,5],[4,2,4],[4,3,5],[4,4,4],[4,5,5],[4,6,1],'
    '[4,7,6],[4,8,4],[4,10,5],[4,11,6],[5,0,2],[5,2,3],[5,3,1],[5,4,3],[5,5,3],[5,6,5],'
    '[5,8,5],[5,10,5],[6,1,6],[6,2,6],[6,3,5],[6,4,6],[6,5,3],[6,6,6],[6,7,3],[6,8,1],'
    '[6,9,4],[6,10,2],[6,11,3],[7,0,1],[7,1,1],[7,2,4],[7,3,1],[7,4,3],[7,5,2],[7,6,5],'
    '[7,7,3],[7,8,2],[7,11,5],[8,0,2],[8,1,3],[8,2,4],[8,4,4],[8,5,1],[8,7,1],[8,9,6],'
    '[8,11,3],[9,0,3],[9,1,6],[9,2,2],[9,3,2],[9,4,5],[9,5,2],[9,6,4],[9,7,5],[9,8,3],'
    '[9,9,2],[9,10,2],[9,11,2],[10,1,1],[10,2,6],[10,4,3],[10,5,2],[10,6,4],[10,7,3],'
    '[10,8,2],[10,9,5],[10,10,1],[10,11,6],[11,0,3],[11,1,3],[11,2,4],[11,4,1],[11,5,2],'
    '[11,6,6],[11,7,6],[11,8,6],[11,10,3],[11,11,3]]}'
)
