"""Ground-truth engine: nilpotent matrices over the prime field F_p.

The Jordan type of a concrete operator N with N^p = 0 is recovered from
its rank sequence r_m = rank(N^m) via a_i = r_{i-1} - 2 r_i + r_{i+1},
and no power N^m is ever formed.  The arithmetic is exact mod p, so
every answer here is independent of the closed-form routines in the
other modules and can be used to cross-check them.  A model stores N
once, as its nonzero columns, indices increasing and values in 1..p-1,
so building one costs what its nonzero entries cost; powers and
conjugates are composed on that store as well.  The named models write
that form; other entries are reduced and sorted into it once.

A sparse N on F_p^n, with at most n^2 / 4 nonzero entries, takes the
Krylov route.  The coordinate vectors e_t off the pivots of im N
generate F_p^n under N, so their Jordan chains N e_t, N^2 e_t, ... are
walked once and put into one echelon from the highest power down; its
size after the vectors N^j e_t is r_j.  The route certifies N^p = 0
before its ranks are taken: every chain ends before N^p, and the chains
span all of im N.  Each vector is so reduced once, where the image
chain below reduces it once per power.  Every monomial named model
takes this route.

A dense N, and an N that the Krylov route finds not nilpotent of order
<= p, runs the image chain im N ⊇ im N^2 ⊇ ...: an echelon basis of each
term, mapped through N, spans the next, so r_m is the dimension of its
m-th term.  The route is picked once per model, from N alone.  A dense
N (more than n^2 / 4 nonzero entries) runs every step on a packed kit,
which holds each row of the step's operator in one int, and does row
operations as big-integer multiply-adds.  An N that falls back from the
Krylov route runs on sparse dict columns, a reduced echelon basis and
the restriction read at its pivots, so that a step costs what the
entries of its vectors cost and a huge dim allocates nothing; once the
restriction to a term fills past n^2 / 4 it is packed once, and runs
packed to the end, as the terms only shrink.  Each entry has a slot of
2w + 1 bits, w the bit length of the slot bound (p-1) + n (p-1)^2 for
the n of the first packed step, so every p packs.  A row is reduced mod
p in whole-int steps, one multiply, shift, mask and multiply-subtract
for all its slots (Barrett), and never leaves int form.  Each coordinate
keeps its ambient slot along the chain, so restricting to the next term
masks a row to the pivot rows' slots, with no gather.  A packed step
makes one Gauss-Jordan pass down the rows of its operator A, which
reduces its columns to the reduced echelon basis B of im A, and
restricts A to im A as A_P B, A_P the pivot rows of A; the result stays
packed for the next step.  Both kernels compute the same basis and
restriction.  ``--fuzz`` checks that random conjugates of a model keep
its Jordan type: a conjugate filled past n^2 / 4 runs the packed chain,
and any other takes the Krylov route again.

Models serialize as JSON ``{"p": 5, "dim": 25, "entries": [[r, c, v], ...]}``
with sparse triplets.  ``NilpotentModel.from_json_dict`` is the one
reader of such entries, and checks each once; it, the named models and
``random_conjugate`` all build their model with ``_model``.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .errors import (
    ParseError, ValidationError, Value, field_repr, json_field, json_object, json_value,
    require_ints,
)
from .jtypes import JordanType, require_modulus, require_prime

Column = tuple[tuple[int, int], ...]
# an operator given by its nonzero columns, each as the (row, value)
# pairs of its nonzero entries
Operator = Mapping[int, Sequence[tuple[int, int]]]


# ------------------------------------------------------------ sparse F_p kit


def _insert(pivots: dict[int, dict[int, int]], col: Sequence[tuple[int, int]], p: int) -> None:
    """Add a sparse vector to an echelon basis over F_p, in place.

    ``pivots`` maps each pivot to the basis vector whose smallest index
    it is, as a dict ``index -> nonzero value`` holding 1 at its pivot.
    The vector, a sequence of ``(index, nonzero value)`` pairs with each
    index once, is reduced by the pivots it meets; what is left, if
    anything, is scaled to 1 at its smallest index and becomes a pivot.
    A one-entry vector c e_r whose index r holds no pivot yet becomes
    the pivot vector {r: 1} at once, for a dict lookup and a one-entry
    dict.
    """
    if len(col) == 1:
        r = col[0][0]
        if r not in pivots:
            pivots[r] = {r: 1}
            return
    vec = dict(col)
    while vec:
        lead = min(vec)
        prow = pivots.get(lead)
        if prow is None:
            inv = pow(vec[lead], -1, p)
            if inv != 1:
                vec = {k: x * inv % p for k, x in vec.items()}
            pivots[lead] = vec
            return
        # every index of prow is >= lead, so the next lead is larger
        _subtract(vec, vec[lead], prow, p)


def _subtract(vec: dict[int, int], f: int, row: Mapping[int, int], p: int) -> None:
    """vec -= f * row over F_p, in place, keeping only nonzero entries."""
    for k, x in row.items():
        y = (vec.get(k, 0) - f * x) % p
        if y:
            vec[k] = y
        else:
            del vec[k]


def _apply(cols: Mapping[int, Iterable[tuple[int, int]]], vec: Collection[tuple[int, int]],
           p: int) -> list[tuple[int, int]]:
    """The nonzero (index, value) pairs of M v over F_p, M given by its nonzero columns.

    A one-entry v = x e_j maps to x times column j of M, with no entry
    that vanishes, since p is prime.
    """
    if len(vec) == 1:
        (j, x), = vec
        return [(r, x * v % p) for r, v in cols.get(j, ())]
    out: dict[int, int] = {}
    for j, x in vec:
        for r, v in cols.get(j, ()):
            out[r] = out.get(r, 0) + x * v
    return [(r, z) for r, y in out.items() if (z := y % p)]


def _dict_step(cols: Operator, p: int) -> tuple[int, Operator]:
    """rank A, and A restricted to im A, for A over F_p given by its nonzero columns.

    The columns go through ``_insert``, then back substitution, from the
    last pivot, clears the other pivots from the basis vectors with more
    than one entry: each row subtracted is already 0 at the other pivots,
    so it brings in none.  That leaves the reduced echelon basis b_q of
    im A, and a vector w of im A is the sum of w[q] b_q over the pivots q.
    So the restriction, in the coordinates of that basis, has column i
    A b_i read at the pivots.  Every vector is sparse, so a step costs
    about what the nonzero entries of its vectors cost, not the square
    of the ambient dim.
    """
    basis: dict[int, dict[int, int]] = {}
    for col in cols.values():
        _insert(basis, col, p)
    for lead in sorted((q for q, row in basis.items() if len(row) > 1), reverse=True):
        row = basis[lead]
        for k in row.keys() & basis.keys() - {lead}:
            _subtract(row, row[k], basis[k], p)
    coord = {q: i for i, q in enumerate(basis)}
    restricted = {}
    for i, vec in enumerate(basis.values()):
        if col := [(coord[r], v) for r, v in _apply(cols, vec.items(), p) if r in coord]:
            restricted[i] = col
    return len(basis), restricted


# ------------------------------------------------------------ packed F_p kit

# Above a fill (nonzero entries against n^2) of 1/4, N skips the Krylov
# route and runs its image chain on packed rows, picked once from N, and
# the restriction of a fallback chain on dicts is packed.  On random
# conjugates of nilpotent Jordan types at p = 7 or 13, the two routes
# cost the same near fill 0.1 to 0.15 at n = 29 and n = 60; from 0.25 to
# 0.3 the Krylov route takes 1.0 to 2.6 times as long as the packed
# chain at n = 29 and 1.8 to 3.7 times at n = 60 (best of 7, three
# operators each, Python 3.11.7, 2 vCPUs).  On a random operator, one
# chain step costs the same on dicts and packed near fill 0.13 at n = 29
# and 0.06 at n = 60, and dicts take 1.8 to 6 times as long from 0.25 to
# 0.3.  A monomial nilpotent operator, such as every named model, has at
# most n - 1 <= n^2 / 4 entries, so 1/4 is as low as the rule goes and
# keeps them all on the Krylov route.
def _is_dense(cols: Operator, n: int) -> bool:
    """Whether an operator on F_p^n, given by its nonzero columns, fills past n^2 / 4.

    The rule compares ints, so it is exact at any n.
    """
    return 4 * sum(map(len, cols.values())) > n * n


def _packed_code(n: int, p: int) -> tuple[int, Callable[[int], int]]:
    """(W, reduce) for packed rows of an operator on F_p^n.

    A packed row over F_p keeps each entry in a slot of W = 2w + 1 bits,
    w the bit length of the slot bound (p-1) + n (p-1)^2, and is reduced
    mod p only once a step is done adding to it.  Until then a slot
    starts at most at p - 1 and gains at most (p - 1)^2 from each of at
    most n multiply-adds, so it holds some x < 2^w.  ``reduce`` takes a
    row of n such slots to v - p ((v m >> s) & Q), each slot mod p: with
    s = w + L, L the bit length of p, and m = 2^s // p + 1,
    x m / 2^s = x / p + x e / (p 2^s) for some 0 < e <= p, whose second
    term is below 2^(w - s) = 2^-L < 1/p, so floor(x m / 2^s) is
    floor(x / p) (Barrett, CRYPTO '86; Granlund-Montgomery, PLDI '94).
    x m < 2^W, so the slots' products do not overlap, and floor(x / p),
    below 2^(W - s), is what Q keeps of each slot after the shift: its
    low W - s bits.  Every p packs.  Q spans n slots, so the caller
    packs only an operator filled past n^2 / 4 (``_is_dense``), never a
    sparse one on a huge space.
    """
    w = ((p - 1) + n * (p - 1) ** 2).bit_length()
    width, s = 2 * w + 1, w + p.bit_length()
    m = (1 << s) // p + 1
    q = ((1 << n * width) - 1) // ((1 << width) - 1) * ((1 << width - s) - 1)
    return width, lambda v: v - p * (v * m >> s & q)


def _rows_of(cols: Operator, width: int) -> dict[int, int]:
    """The nonzero packed rows of an operator given by its nonzero columns.

    Row t is one int whose slot c, bits [c W, (c + 1) W) with W = ``width``,
    holds the entry (t, c) in 0..p-1; the rows are keyed by t, increasing.
    """
    rows: dict[int, int] = {}
    for c, col in cols.items():
        shift = c * width
        for r, v in col:
            rows[r] = rows.get(r, 0) | v << shift
    return dict(sorted(rows.items()))


def _packed_step(rows: Mapping[int, int], code: tuple[int, Callable[[int], int]],
                 p: int) -> tuple[int, dict[int, int]]:
    """rank A, and A restricted to im A, for A over F_p given by its nonzero packed rows.

    ``code`` is the (W, reduce) of ``_packed_code`` for the n of the
    chain's first packed step, which every later step keeps.  Each
    coordinate keeps its ambient slot: the rows of A', the restriction of
    A to im A, are keyed by the pivot rows of A, and hold their entries
    in those rows' slots.  One Gauss-Jordan pass down the rows reduces the
    columns of A, which gives the reduced echelon basis B of im A with no
    back substitution.  Row t takes one multiply-add from each pivot found
    before it, is reduced mod p, then becomes the next pivot if it is
    still nonzero at a column that holds none: the lowest set bit of the
    row masked to those columns' slots gives the smallest.  Pivot m sits
    at row t_m and column k_m, a_m is slot k_m of that row, and F_m is the
    row with slot k_m cleared.  With x the later row's slot k_m over a_m,
    mod p, row += (p - x) F_m subtracts x F_m from every slot but k_m: the
    column operations that clear row t_m outside column k_m, done on that
    one row.  A row that becomes no pivot is 0 at each column free when it
    was passed, so later pivots add nothing to it, and its slot k_m over
    a_m is b_m[t], b_m being 1 at t_m and 0 at the other pivot rows; row t
    of B holds b_m[t] in slot t_m.  The restriction is A' = A_P B, A_P the
    pivot rows of A: row t_i of A' is row t_i of A masked to the pivot
    rows' slots, plus A[t_i, j] times row j of B for each j off the pivot
    rows, r (n - r) multiply-adds in all.  A slot so gains at most
    r (p - 1)^2 in the pass and (n - r) (p - 1)^2 in A', within the slot
    bound.  B is the one reduced echelon basis of im A, its pivots t_m in
    increasing order.
    """
    width, reduce = code
    mask = (1 << width) - 1
    free, live = -1, 0  # the slots of the columns that hold no pivot yet, and of the pivot rows
    pivots: list[tuple[int, int, int, int]] = []  # (t_m, W k_m, 1 / a_m, F_m), t_m increasing
    basis: list[tuple[int, int]] = []  # (W t, row t of B) for each nonzero row off the pivot rows
    for t, v in rows.items():
        for _, shift, inv, f_row in pivots:
            if x := (v >> shift & mask) * inv % p:
                v += (p - x) * f_row
        v = reduce(v)
        if low := v & free:
            shift = ((low & -low).bit_length() - 1) // width * width
            a = v >> shift & mask
            pivots.append((t, shift, pow(a, -1, p), v ^ a << shift))
            free ^= mask << shift
            live |= mask << t * width
        elif v:  # nonzero at pivot columns only
            basis.append((t * width, sum((v >> shift & mask) * inv % p << t_m * width
                                         for t_m, shift, inv, _ in pivots)))
    restricted = {}
    for t, *_ in pivots:
        a = rows[t]
        v = a & live
        for shift, b in basis:
            if x := a >> shift & mask:
                v += x * b
        if v := reduce(v):
            restricted[t] = v
    return len(pivots), restricted


# ------------------------------------------------------------------ chain


def _krylov_ranks(dim: int, cols: Operator, p: int) -> list[int] | None:
    """(rank N^0, ..., rank N^k), rank N^(k+1) = 0, from Jordan chains; None unless N^p = 0.

    Let P be the pivots of an echelon basis of im N.  The e_t with t
    outside P span a complement C of im N, and those with N e_t != 0 are
    the generators.  Each generator's chain N e_t, N^2 e_t, ... is walked
    with ``_apply`` until it vanishes, and the vectors N^j e_t go into one
    echelon from the highest j down: after the vectors at level j its
    size is dim L_j, L_j the span of every N^i e_t with i >= j.  So each
    vector is reduced once, where the image chain reduces it once per
    power.

    The ranks are kept only when they certify N^p = 0: every chain has
    vanished by level min(p - 1, |P|), and dim L_1 = |P|.  Then L_1, a
    subspace of im N, is im N, so F_p^dim = im N + C lies in the span W
    of the chains and of the e_t outside P.  N^p is 0 on W, so N^p = 0,
    and im N^j = N^j W = L_j.  A nilpotent N always passes, since W is
    then F_p^dim by Nakayama's lemma over k[N].  A chain of a nilpotent N
    vanishes by level rank N = |P|, so a chain that goes past level
    min(p - 1, |P|) ends the walk at once.  The chains are stored as
    they are walked, so the memory follows their length, not p.
    """
    image: dict[int, dict[int, int]] = {}
    for col in cols.values():
        _insert(image, col, p)
    pivots = set(image)  # P; its basis vectors are not needed again
    del image
    top = min(p - 1, len(pivots))
    chains = []
    for t, vec in cols.items():
        if t not in pivots:
            chain = []
            while vec:
                chain.append(vec)  # N^j e_t, at level j = len(chain)
                if len(chain) > top:
                    return None
                vec = _apply(cols, vec, p)
            chains.append(chain)
    chains.sort(key=len, reverse=True)
    echelon: dict[int, dict[int, int]] = {}
    ranks = []
    for j in range(len(chains[0]) if chains else 0, 0, -1):
        # the chains of length >= j, each now ending at its vector N^j e_t
        for chain in chains:
            if len(chain) < j:
                break
            _insert(echelon, chain.pop(), p)
        ranks.append(len(echelon))
    if len(echelon) != len(pivots):
        return None
    ranks.append(dim)
    return ranks[::-1]


def _image_chain_ranks(dim: int, columns: Iterable[tuple[int, Column]], p: int) -> list[int]:
    """(rank N^0, ..., rank N^p) for a dim x dim N over F_p, given by its nonzero columns.

    The route is picked here, once, from N.  A sparse N (``_is_dense``
    false) takes ``_krylov_ranks``, which maps each vector of N's Jordan
    chains once.  A dense N runs the image chain with every step on
    packed rows, in the slots of dim coordinates.  A sparse N that the
    Krylov route finds not nilpotent of order <= p runs the image chain on
    dicts (``_dict_step``), so that the ranks it returns give the rank of
    N^p, and costs what the entries of its vectors cost, whatever dim is,
    until the restriction to a term is dense: it is then packed once, in
    the slots of that term's coordinates, and runs packed to the end, as
    the terms only shrink.  rank N^m is the dimension of im N^m, and
    im N^(m+1) = N(im N^m): a basis of im N^m mapped through N spans the
    next term of the chain.  Each step keeps the operator restricted to
    the current term, so the operator shrinks with the chain.  The chain
    decreases; once it is zero or stops shrinking it is constant, and the
    remaining ranks repeat the last one.
    """
    op, code, ranks = dict(columns), None, [dim]
    if not _is_dense(op, dim) and (krylov := _krylov_ranks(dim, op, p)):
        krylov.extend(repeat(0, p + 1 - len(krylov)))
        return krylov
    while True:
        if not code and _is_dense(op, ranks[-1]):  # one way: the restriction only shrinks
            code = _packed_code(ranks[-1], p)
            op = _rows_of(op, code[0])
        rank, op = _packed_step(op, code, p) if code else _dict_step(op, p)
        ranks.append(rank)
        if len(ranks) > p or not rank or ranks[-1] == ranks[-2]:
            ranks.extend(repeat(ranks[-1], p + 1 - len(ranks)))
            return ranks


# -------------------------------------------------------------------- model


class NilpotentModel(Value):
    """A dim x dim matrix N over F_p with N^p = 0.

    ``from_json_dict`` is the one reader of (r, c, v) entries, and checks
    them; the named models and ``random_conjugate`` build theirs from
    columns they write.  Each of them ends in ``_model``.  N is stored
    once, in ``columns``: its nonzero columns as ``(c, ((r, v), ...))``
    with c and r increasing and v in 1..p-1, so a model costs what its
    nonzero entries cost.  The rank sequence (r_0, ..., r_p),
    r_m = rank N^m, is computed once, when the model is built (see
    ``_image_chain_ranks``); it both certifies nilpotency of order <= p
    and drives Jordan-type extraction.  Instances are immutable.
    """

    __slots__ = ("p", "dim", "columns", "rank_sequence")

    def __init__(self, *args, **kwargs):
        # a model is built only by its readers, through __new__, as copy
        # and pickle build one too; a bare object would have no field set
        raise TypeError("build a NilpotentModel with NilpotentModel.from_json_dict or a named "
                        "model (heisenberg_model, abelian_rank2_models, ga2_model, sl2s_models)")

    def __repr__(self):
        return f"NilpotentModel(p={self.p}, dim={field_repr(self, 'dim')})"

    @classmethod
    def from_json_dict(cls, data: Mapping) -> NilpotentModel:
        """The model of strict model JSON, each entry read and checked once.

        Fields are checked in order: ``p`` and ``dim`` as JSON integers,
        ``dim >= 0``, then each item of ``entries`` in one pass, for its
        shape ``[r, c, v]``, its JSON integers, its range and a repeated
        (r, c), all as ParseErrors.  Only then is ``p`` tested for a prime
        and against ``sys.maxsize``, as a ValidationError, so an entry
        error comes first.  The entries, v reduced mod p, are then built
        into the model by ``_model``.
        """
        json_object(data, ("p", "dim", "entries"), name="model")
        p = json_field(data, "p", int)
        dim = json_field(data, "dim", int)
        if dim < 0:
            raise ParseError(f"dim must be >= 0, got {dim}")
        cols: dict[int, dict[int, int]] = {}
        for n, item in enumerate(json_field(data, "entries", list)):
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError(f"entries[{n}] must be [r, c, v], got {item!r}")
            r, c, v = item
            if type(r) is not int or type(c) is not int or type(v) is not int:
                for k, x in enumerate(item):
                    json_value(x, int, f"entries[{n}][{k}]")  # raises, naming the field
            if not (0 <= r < dim and 0 <= c < dim):
                raise ParseError(f"entries[{n}] has entry ({r},{c}) outside a {dim}x{dim} matrix")
            col = cols.setdefault(c, {})
            if r in col:
                raise ParseError(f"entries[{n}] repeats entry ({r},{c})")
            col[r] = v
        # ranks are computed by elimination over F_p, which needs a field,
        # and a rank sequence has length p + 1
        require_prime(p)
        require_modulus(p)
        return _model(p, dim, _columns(p, cols))


def _model(p: int, dim: int, columns: Sequence[tuple[int, Column]]) -> NilpotentModel:
    """The model of canonical ``columns``, once p and dim are checked.

    ``columns`` are N's nonzero columns as the model stores them, with c
    and r increasing, v in 1..p-1 and no column empty.  The named models
    write them so; ``from_json_dict`` and ``random_conjugate`` put theirs
    through ``_columns``.  Only the rank sequence is computed here, and
    nilpotency checked.
    """
    ranks = _image_chain_ranks(dim, columns, p)
    if ranks[p] != 0:
        raise ValidationError(
            f"matrix is not nilpotent of order <= {p} (rank of N^{p} is {ranks[p]})"
        )
    model = NilpotentModel.__new__(NilpotentModel)
    model._set(p, dim, tuple(columns), tuple(ranks))
    return model


def jordan_type_of(model: NilpotentModel) -> JordanType:
    """Extract the Jordan type from the rank sequence of the model."""
    r = list(model.rank_sequence) + [0]
    mult = [r[i - 1] - 2 * r[i] + r[i + 1] for i in range(1, model.p + 1)]
    return JordanType(model.p, tuple(mult))


def random_conjugate(model: NilpotentModel, rng: random.Random) -> NilpotentModel:
    """The model g N g^{-1} for a random invertible g = P D T_1 ... T_k over F_p.

    Each T = 1 + a E_ij (i != j, a != 0) is a random transvection, D a
    random invertible diagonal and P a random permutation.  Conjugating
    by T adds a times row j to row i, then subtracts a times column i
    from column j; conjugating by D and P rescales and relabels the
    entries.  Each factor is one row-and-column operation on the sparse
    entries, so g^{-1} is never formed.  The draws follow the entries,
    not dim: k = min(dim, 2 * entries), and D and P are drawn only on
    the indices that carry entries, P as a random injection of them
    into range(dim).  Every draw is a ``randrange``, so dim may be
    any int.  The zero model is its own conjugate and is returned as it
    is.
    """
    if not model.columns:
        return model
    p, dim = model.p, model.dim
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}

    def put(r: int, c: int, v: int) -> None:
        v %= p
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
        else:
            rows.get(r, {}).pop(c, None)
            cols.get(c, {}).pop(r, None)

    for c, col in model.columns:
        for r, v in col:
            put(r, c, v)
    # a nonzero nilpotent model has dim >= 2, so two indices can be drawn
    for _ in range(min(dim, 2 * sum(len(col) for _, col in model.columns))):
        i, j = rng.randrange(dim), rng.randrange(dim - 1)
        j += j >= i  # j != i
        a = rng.randrange(1, p)
        for c, v in list(rows.get(j, {}).items()):
            put(i, c, rows.get(i, {}).get(c, 0) + a * v)
        for r, v in list(cols.get(i, {}).items()):
            put(r, j, cols.get(j, {}).get(r, 0) - a * v)
    support = sorted({k for c, col in cols.items() if col for k in (c, *col)})
    perm = dict(zip(support, _distinct(rng, dim, len(support))))
    scale = {k: rng.randrange(1, p) for k in support}
    inverse = {k: pow(s, -1, p) for k, s in scale.items()}
    # the entries of a checked model, moved by an injection into range(dim)
    conjugate = {perm[c]: {perm[r]: scale[r] * v * inverse[c] for r, v in col.items()}
                 for c, col in cols.items() if col}
    return _model(p, dim, _columns(p, conjugate))


def _columns(p: int, cols: Mapping[int, Mapping[int, int]]) -> list[tuple[int, Column]]:
    """The canonical columns of ``{c: {r: v}}``, v any int, for ``_model``: each v
    reduced mod p, zeros and then empty columns dropped, rows and columns sorted."""
    return [(c, col) for c in sorted(cols)
            if (col := tuple(sorted([(r, x) for r, v in cols[c].items() if (x := v % p)])))]


def _distinct(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct draws from range(n) in random order, for any int n >= k.

    Floyd's algorithm draws a uniform k-subset with k ``randrange``
    calls, and a shuffle orders it; ``rng.sample(range(n), k)`` needs n
    to fit a C ssize_t.
    """
    chosen: set[int] = set()
    for top in range(n - k, n):
        t = rng.randrange(top + 1)
        chosen.add(top if t in chosen else t)
    drawn = sorted(chosen)
    rng.shuffle(drawn)
    return drawn


# ------------------------------------------------------------ constructors


def heisenberg_model(p: int) -> NilpotentModel:
    """Induced module of the 3-dim Heisenberg Lie algebra along its x-line.

    Basis is indexed by (n, m) with 0 <= n, m <= p-1 (monomials y^n z^m),
    and the operator sends (n, m) to n * (n-1, m+1), zero when n = 0 or
    m = p-1.  Dimension p^2.
    """
    require_ints(p=p)
    if p < 3:
        raise ValidationError(f"heisenberg model needs p >= 3, got {p}")
    require_modulus(p)  # before the p^2 entries are built
    require_prime(p)
    # (n, m) is the index n p + m, so (n - 1, m + 1) is n p + m - p + 1
    columns = [(c, ((c - p + 1, n),)) for n in range(1, p) for c in range(n * p, n * p + p - 1)]
    return _model(p, p * p, columns)


def abelian_rank2_models(p: int) -> tuple[NilpotentModel, NilpotentModel]:
    """Two operators on the p-dim module k[y]/(y^p) induced along the x-line.

    The first generator x acts as zero; the perturbed operator x + y^(p-1)
    sends the basis vector e_0 to e_{p-1} and kills everything else.
    """
    require_ints(p=p)
    if p < 3:
        raise ValidationError(f"rank-2 abelian models need p >= 3, got {p}")
    require_prime(p)
    require_modulus(p)
    return _model(p, p, ()), _model(p, p, ((0, ((p - 1, 1),)),))


def ga2_model(p: int) -> tuple[NilpotentModel, NilpotentModel]:
    """Operators u_0 and u_0 + u_1^2 on the height-2 additive kernel module.

    On k[u_1]/(u_1^p) the first generator acts as zero and the perturbed
    one as the square of the full shift.  Requires odd p.
    """
    require_ints(p=p)
    if p < 3:
        raise ValidationError(f"height-2 model needs odd p >= 3, got {p}")
    require_prime(p)
    require_modulus(p)
    return _model(p, p, ()), _model(p, p, [(c, ((c + 2, 1),)) for c in range(p - 2)])


def sl2s_models(p: int, i: int) -> tuple[NilpotentModel, NilpotentModel]:
    """(e, f) actions on the p-dim Verma-type module of highest weight i-1.

    In the weight basis v_0..v_{p-1}: f shifts down the chain (a single
    block [p]) and e acts by e.v_j = j(i - j) v_{j-1}, whose coefficient
    vanishes exactly at j = i, splitting off blocks [i] and [p-i].
    """
    require_ints(p=p, i=i)
    if p < 3:
        raise ValidationError(f"sl(2) models need p >= 3, got {p}")
    require_modulus(p)  # before the 2(p - 1) entries are built
    if not 1 <= i <= p - 1:
        raise ValidationError(f"highest-weight parameter i={i} out of range 1..{p - 1}")
    require_prime(p)
    # canonical columns: e has none at v_i, whose coefficient vanishes
    return (_model(p, p, [(j, ((j - 1, x),)) for j in range(1, p) if (x := j * (i - j) % p)]),
            _model(p, p, [(j, ((j + 1, 1),)) for j in range(p - 1)]))
