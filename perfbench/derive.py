"""Reference arithmetic the benchmark checks outputs against.

Nothing here imports jordanquiver: every expected value comes straight
from the closed forms, so a check cannot pass because the code under test
agrees with itself.  A Jordan type is a list ``mult`` with ``mult[i-1]``
the multiplicity of the block [i].
"""

from __future__ import annotations

import random


def type_str(mult) -> str:
    """The compact grammar ``2[3]+[1]``, blocks in descending size."""
    terms = []
    for i in range(len(mult), 0, -1):
        a = mult[i - 1]
        if a:
            terms.append(f"[{i}]" if a == 1 else f"{a}[{i}]")
    return "+".join(terms)


def counts(p: int, blocks: dict) -> list:
    mult = [0] * p
    for size, a in blocks.items():
        if a:
            mult[size - 1] += a
    return mult


def random_type(rng: random.Random, p: int, top: int = 3) -> list:
    """A nonzero type at p with multiplicities in 0..top."""
    while True:
        mult = [rng.choice((0, 0, 1, 2, top)) for _ in range(p)]
        if any(mult):
            return mult


def random_partition(rng: random.Random, p: int, dim: int) -> list:
    """A type of the given dimension with blocks of size at most p."""
    mult = [0] * p
    while dim:
        size = rng.randint(1, min(p, dim))
        mult[size - 1] += 1
        dim -= size
    return mult


# ----------------------------------------------------------------- jt ops


def dimension(mult) -> int:
    return sum(i * a for i, a in enumerate(mult, 1))


def ker_dim(mult, m: int) -> int:
    return sum(min(i, m) * a for i, a in enumerate(mult, 1))


def image_dim(mult, m: int) -> int:
    return sum(max(i - m, 0) * a for i, a in enumerate(mult, 1))


def psi(mult, m: int) -> int:
    p = len(mult)
    return sum(i * mult[i - 1] for i in range(1, m)) + m * sum(mult[m - 1 : p - 1])


def stable(mult) -> list:
    return list(mult[:-1]) + [0]


def syzygy(mult) -> list:
    p = len(mult)
    out = [0] * p
    for i in range(1, p):
        out[p - i - 1] = mult[i - 1]
    return out


def restrict_block(i: int, j: int, p: int) -> list:
    """Block [i] under t^j: (j-r)[a] + r[a+1] with i = a*j + r, or i[1] if j > i.

    The result lives at nilpotency order max(2, ceil(p/j)).
    """
    p_eff = max(2, -(-p // j))
    if j > i:
        return counts(p_eff, {1: i})
    a, r = divmod(i, j)
    return counts(p_eff, {a: j - r, a + 1: r})


def restrict_type(mult, j: int) -> list:
    p = len(mult)
    out = [0] * max(2, -(-p // j))
    for i, a in enumerate(mult, 1):
        for k, b in enumerate(restrict_block(i, j, p)):
            out[k] += a * b
    return out


def dominance(a, b, convention: str) -> str:
    p = len(a)

    def key(mult):
        if convention == "image":
            return [image_dim(mult, j) for j in range(1, p + 1)]
        return [sum(i * x for i, x in enumerate(mult, 1) if i >= j) for j in range(1, p + 1)]

    u, v = key(a), key(b)
    if u == v:
        return "Equal"
    if all(x >= y for x, y in zip(u, v)):
        return "Greater"
    if all(x <= y for x, y in zip(u, v)):
        return "Less"
    return "Incomparable"


# ------------------------------------------------------------------ tubes


def stencil(n) -> list:
    """A n for the tridiagonal A: (A n)_i = 2 n_i - n_{i-1} - n_{i+1}, last diagonal 1."""
    p = len(n)
    out = []
    for i in range(p):
        v = (1 if i == p - 1 else 2) * n[i]
        if i:
            v -= n[i - 1]
        if i + 1 < p:
            v -= n[i + 1]
        out.append(v)
    return out


def tube_affine(seed, n) -> tuple[list, list]:
    """Slopes and intercepts of the tube generated by ``seed`` with multiplicities n."""
    t = stencil(list(n) + [0])
    return [a - b for a, b in zip(seed, t)], t


def first_negative(slopes, intercepts, include_p: bool):
    """(i, ql, value) of the first row that leaves N_0, or None if all stay >= 0."""
    last = len(slopes) if include_p else len(slopes) - 1
    for i in range(1, last + 1):
        s, t = slopes[i - 1], intercepts[i - 1]
        if s < 0:
            q = max(1, t // -s + 1)  # least ql >= 1 with s*ql + t < 0
            return i, q, s * q + t
        if s + t < 0:
            return i, 1, s + t
    return None


def tube_rows(slopes, intercepts, include_p: bool, ql_max: int) -> list:
    """Multiplicity vectors at ql = 1..ql_max; the p-row is 0 unless include_p."""
    s, t = list(slopes), list(intercepts)
    if not include_p:
        s[-1] = t[-1] = 0
    return [[a * q + b for a, b in zip(s, t)] for q in range(1, ql_max + 1)]


def rows_tsv(rows) -> str:
    lines = ["ql\ti\talpha_i"]
    for q, mult in enumerate(rows, 1):
        lines.extend(f"{q}\t{i}\t{a}" for i, a in enumerate(mult, 1))
    return "\n".join(lines) + "\n"


def rows_json(rows, p: int) -> list:
    return [{"ql": q, "type": {"p": p, "mult": mult}} for q, mult in enumerate(rows, 1)]


# ----------------------------------------------------------------- oracle


def heisenberg_type(p: int) -> list:
    """[p] + 2[p-1] + ... + 2[1]: the induced Heisenberg module along its x-line."""
    return [2] * (p - 1) + [1]


def _inverse_mod_p(g, p: int):
    """Inverse over F_p by Gauss-Jordan, or None when g is singular."""
    n = len(g)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = prow = [x * inv % p for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], prow)]
    return [row[n:] for row in a]


def conjugated_model(rng: random.Random, p: int, mult) -> dict:
    """Model JSON of g N g^-1, N the block-diagonal shift of type ``mult``, g random."""
    dim = dimension(mult)
    while True:
        g = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        g_inv = _inverse_mod_p(g, p)
        if g_inv is not None:
            break
    # N sends e_{r-1} to e_r inside each block, so (g N)[.][c] = g[.][c+1]
    # when c+1 is in the same block as c, and 0 when c ends its block
    ends = set()
    offset = 0
    for size in range(p, 0, -1):
        for _ in range(mult[size - 1]):
            offset += size
            ends.add(offset - 1)
    gn = [[0 if c in ends else row[c + 1] for c in range(dim)] for row in g]
    cols = list(zip(*g_inv))
    entries = []
    for r, row in enumerate(gn):
        for c, col in enumerate(cols):
            v = sum(x * y for x, y in zip(row, col)) % p
            if v:
                entries.append([r, c, v])
    return {"p": p, "dim": dim, "entries": entries}
