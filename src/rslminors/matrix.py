"""Dense exact linear algebra over the fields in :mod:`rslminors.fields`.

``FieldMatrix`` is a small row-major dense container of the element tokens
of an attached field, the form in which instances, supports and reports
hold matrices: it slices, stacks and transposes, and takes no products.
``TokenArrays`` holds the field arithmetic on arrays of tokens for every
field: elementwise ``add``, ``mul`` and ``neg``, and ``dot``, the one
matrix product.  The reduced row echelon form ``rref_rows`` is pure Python
and works for any field object.  ``minor_table``, the one minor routine
behind the minor equations and the Plucker check of an extraction, computes
every minor of one size at once, level by level, on arrays of tokens.
Rank, pivot columns, kernel, solve and column-space basis all run on one
elimination core, ``_echelon``, which picks one of five representations
once per call: rows bit-packed into uint64 words for F_2, two such
bit-planes per row for F_3 (the nonzero entries and the entries equal to
2), residues in the narrowest unsigned dtype for the prime fields from 5 up
to 2^32, and, for extension fields with tabulated logarithms, the element
tokens over F_{2^m}, which add by XOR, and Zech logarithms in odd
characteristic.  Any other field goes through the generic ``rref_rows``.
F_2 is reduced in place a byte of columns (eight pivots) at a time, with
one table of row combinations and one XOR of every row per byte, as in
M4RI's Four-Russians method.  The other representations are brought to row
echelon form one pivot at a time, each pivot clearing only the rows below
it; reading the reduced rows at some columns then back-substitutes against
the unit upper-triangular pivot block, bottom up, for those columns alone,
so a kernel pays for its free columns only.
The core takes rows as nested lists or as a list of numpy row arrays (the
rows of a Macaulay matrix) and encodes them, a block of rows at a time,
into a working copy; ``working_cell_bytes`` gives the bytes per cell it
allocates at its peak, that copy and the temporaries of its row updates
or of a back-substitution.
Matrices are immutable by convention; all operations return fresh objects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .fields import ExtensionField, PrimeField


class FieldMatrix:
    """Rows of field tokens: a container, whose products are taken on arrays
    by ``TokenArrays.dot``."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Sequence[Sequence[int]], ncols: int | None = None):
        """``ncols`` is needed only when there are no rows to take it from."""
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def random(cls, field, nrows: int, ncols: int, rng) -> "FieldMatrix":
        return cls(
            field,
            [[field.random_element(rng) for _ in range(ncols)] for _ in range(nrows)],
            ncols,
        )

    def __getitem__(self, key) -> int:
        i, j = key
        return self.rows[i][j]

    def col(self, j: int) -> list[int]:
        return [r[j] for r in self.rows]

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "FieldMatrix":
        col_idx = list(col_idx)
        return FieldMatrix(
            self.field,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            len(col_idx),
        )

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def hstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.nrows != self.nrows or other.field != self.field:
            raise ValueError("shape or field mismatch")
        return FieldMatrix(
            self.field,
            [self.rows[i] + other.rows[i] for i in range(self.nrows)],
            self.ncols + other.ncols,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.nrows}x{self.ncols} over {self.field!r})"


@dataclass
class RrefResult:
    matrix: "FieldMatrix"
    rank: int
    pivots: list[int]


def rref_rows(rows: Sequence[Sequence[int]], field) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination over any field.

    Plain Python on field tokens: the oracle the numpy elimination is checked
    against, and the path for fields too large to tabulate.
    """
    f = field
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = f.inv(m[r][c])
        if inv != 1:
            m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i == r or m[i][c] == 0:
                continue
            fac = m[i][c]
            m[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return RrefResult(FieldMatrix(f, m), r, pivots)


# -- minors ------------------------------------------------------------------


@dataclass(frozen=True)
class TokenArrays:
    """Elementwise ``add``, ``mul`` and ``neg`` on arrays of field tokens of
    type ``dtype``, and the matrix product ``dot`` built on them.

    A tabulated F_{q^m} computes on int64 tokens through its logarithm and
    exponent tables, with zero masked: a product adds logarithms, a sum is an
    XOR when q = 2 and a + b = a * (1 + b/a) through the Zech logarithms when
    q is odd.  Any other field, prime fields and extension fields too large
    to tabulate, maps its own scalar ``add``, ``mul`` and ``neg`` over object
    arrays.
    """

    dtype: object
    add: Callable
    mul: Callable
    neg: Callable

    @classmethod
    def of(cls, field) -> "TokenArrays":
        tables = field.np_tables() if isinstance(field, ExtensionField) else None
        if tables is None:
            return cls(
                object,
                np.frompyfunc(field.add, 2, 1),
                np.frompyfunc(field.mul, 2, 1),
                np.frompyfunc(field.neg, 1, 1),
            )
        log, exp, zech = tables.log, tables.exp, tables.zech
        qm1 = field.order - 1

        def mul(a, b):
            return np.where((a == 0) | (b == 0), 0, exp[(log[a] + log[b]) % qm1])

        if field.q == 2:
            return cls(np.int64, np.bitwise_xor, mul, lambda a: a)

        def add(a, b):
            la = log[a]
            z = zech[(log[b] - la) % qm1]  # log(1 + b/a)
            s = np.where(z == -1, 0, exp[(la + z) % qm1])
            return np.where(a == 0, b, np.where(b == 0, a, s))

        def neg(a):
            # -1 = g**((Q-1)/2) for odd Q
            return np.where(a == 0, 0, exp[(log[a] + qm1 // 2) % qm1])

        return cls(np.int64, add, mul, neg)

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The matrix product of a (p x t) and b (t x s), t >= 1: the t
        products a[:, u] b[u], taken in one ``mul``, folded with ``add``.  A
        vector goes in as a one-column matrix."""
        return functools.reduce(self.add, self.mul(a.T[:, :, None], b[:, None, :]))


@functools.cache
def laplace_index(n: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """``(pick, drop)`` for the e-subsets of range(n), in ``combinations``
    order: ``pick[s, u]`` is the u-th element of subset s and ``drop[s, u]``
    the position of subset s without it among the (e-1)-subsets.  The arrays
    are cached and shared, so they are read-only."""
    pos = {c: i for i, c in enumerate(combinations(range(n), e - 1))}
    subsets = list(combinations(range(n), e))
    pick = np.array(subsets, dtype=np.intp).reshape(len(subsets), e)
    drop = np.array(
        [[pos[c[:u] + c[u + 1 :]] for u in range(e)] for c in subsets], dtype=np.intp
    ).reshape(len(subsets), e)
    pick.flags.writeable = drop.flags.writeable = False
    return pick, drop


def minor_table(rows: Sequence[Sequence[int]], field, d: int) -> np.ndarray:
    """Every d x d minor of ``rows``: entry [R, C] is the minor on the R-th
    row d-subset and the C-th column d-subset, both sorted and numbered in
    ``combinations`` order.  The empty minor (d = 0) is 1.

    Built level by level, each minor a Laplace expansion along its first
    row: M_e[R, C] = Sum_u (-1)^u rows[R_0][C_u] M_{e-1}[R minus R_0,
    C minus C_u], one array product per u on ``laplace_index`` positions.
    """
    ops = TokenArrays.of(field)
    a = np.array(rows, dtype=ops.dtype).reshape(len(rows), len(rows[0]) if rows else 0)
    signed = (a, ops.neg(a))
    table = np.full((1, 1), field.one, dtype=ops.dtype)
    for e in range(1, d + 1):
        rpick, rdrop = laplace_index(a.shape[0], e)
        cpick, cdrop = laplace_index(a.shape[1], e)
        prev = table
        table = functools.reduce(ops.add, (
            ops.mul(signed[u % 2][rpick[:, :1], cpick[:, u]], prev[rdrop[:, :1], cdrop[:, u]])
            for u in range(e)
        ))
    return table


# -- the elimination core ----------------------------------------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """A uint8 array's nonzero entries as bits packed little-endian into
    uint64 words, column c at bit c % 64 of word c // 64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), (bits.shape[1] + 63) // 64 * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8")


# cells that a read or a back-substitution step works on at a time, which
# bounds their temporaries
_CHUNK = 1 << 15


def _unpack(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The entries at ``cols`` of the packed rows ``a``, rows x words x
    planes in ``_pack``'s layout on every plane, as uint8: the sum of the
    planes' bits.  Only the words from the first to the last that hold
    ``cols`` are unpacked, by ``np.unpackbits``, a block of rows at a time,
    so the temporaries stay within ``_CHUNK`` bytes."""
    nrows, _, planes = a.shape
    out = np.zeros((nrows, len(cols)), np.uint8)
    if not len(cols):
        return out
    first = int(cols.min()) >> 6
    words = a[:, first : (int(cols.max()) >> 6) + 1]
    at, bit = (cols >> 6) - first, cols & 63
    step = max(1, _CHUNK // (words.shape[1] * planes * 64))
    for i in range(0, nrows, step):
        # bit j of plane k of a word unpacks to position 64 * k + j
        bits = np.unpackbits(words[i : i + step].view(np.uint8), axis=2, bitorder="little")
        for k in range(planes):
            out[i : i + step] += bits[:, at, bit + 64 * k]
    return out


class _PackedF2:
    """F_2 rows as packed uint64 words (``_pack``), eliminated a byte of
    columns at a time by ``_eliminate_bytes``."""

    cell_bytes = 3 / 2

    def encode(self, rows) -> np.ndarray:
        return _pack(np.array(rows, dtype=np.uint8))

    def read(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return _unpack(a.reshape(a.shape + (1,)), cols)


# bit j of every byte value, as a 256 x 8 table
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint8)

# The 2^k XOR combinations of k rows in Gray-code order, each the last one
# with one row flipped: step i flips row _GRAY_FLIPS[i], and the
# combination with mask m over the rows comes at position _GRAY_INDEX[m].
_GRAY_FLIPS = np.array([(i & -i).bit_length() - 1 for i in range(1, 256)], dtype=np.intp)
_GRAY_INDEX = np.empty(256, dtype=np.uint8)
_GRAY_INDEX[np.arange(256) ^ np.arange(256) >> 1] = np.arange(256)

# nonzero values of a byte column read in row order before its distinct
# values are counted
_HEAD = 24


def _byte_basis(col: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """The reduced echelon basis of the span of the byte values ``col``, a
    byte's bit j being column j of its group, so a vector's pivot is its
    lowest set bit.

    Returns ``(rows, bits, masks)``: the indices in ``col`` of basis rows,
    one per pivot, the pivot bits ascending and, for each, the mask over
    ``rows`` whose XOR is the reduced basis vector with that pivot.  The
    first ``_HEAD`` nonzero values are tried in row order; only when they
    span less than the whole byte are the others' distinct values counted.
    """
    basis: dict[int, tuple[int, int]] = {}  # lowest bit -> (value, mask)
    rows: list[int] = []

    def add(x: int) -> bool:
        """Adds x to the basis, with the next row's bit in its mask, when x
        is outside the span."""
        m = 0
        while x:
            low = x & -x
            e = basis.get(low)
            if e is None:
                basis[low] = (x, m | 1 << len(rows))
                return True
            x ^= e[0]
            m ^= e[1]
        return False

    nz = np.flatnonzero(col)
    head = nz[:_HEAD]
    for i, x in zip(head.tolist(), col[head].tolist()):
        if add(x):
            rows.append(i)
            if len(rows) == 8:
                break
    if len(rows) < 8 and len(nz) > _HEAD:
        rest = col[nz[_HEAD:]]
        for x in np.flatnonzero(np.bincount(rest, minlength=256)).tolist():
            if add(x):
                # outside the span of the head, so x first occurs in the rest
                rows.append(int(nz[_HEAD + int(np.argmax(rest == x))]))
                if len(rows) == 8:
                    break
    leads = sorted(basis)
    # clear each pivot from the vectors with lower pivots, highest first, so
    # the vector used has no higher pivot left
    for t in reversed(leads):
        xt, mt = basis[t]
        for s in leads:
            if s == t:
                break
            xs, ms = basis[s]
            if xs & t:
                basis[s] = (xs ^ xt, ms ^ mt)
    return rows, [s.bit_length() - 1 for s in leads], [basis[s][1] for s in leads]


def _eliminate_bytes(a: np.ndarray, ncols: int) -> list[int]:
    """Reduced row echelon form, in place, of the packed F_2 rows ``a``, a
    byte of columns (eight) at a time, as M4RI does with its Four-Russians
    tables (Albrecht, Bard and Hart, ACM TOMS 37(1), 2010); returns the
    pivot columns.

    For byte g, column c at bit c % 8 of byte c // 8 of a row, the rows
    from r on are zero left of the byte, so its pivots are those of the
    span of their byte values (``_byte_basis``), k of at most eight.  One
    table holds the 2^k XOR combinations of the k basis rows, built in
    Gray-code order with one accumulate; each row's byte value picks the
    combination that clears its pivot bits, and one XOR of whole rows, as
    contiguous rows XOR fastest, updates every row.  The basis rows are
    then zero, and the reduced pivot rows go to rows r..r+k-1.  Once a byte
    holds no pivot and the rows from r on are zero, no later byte holds one
    and the scan stops.
    """
    nrows, nwords = a.shape
    a8 = a.view(np.uint8)
    # the combination tables, contiguous views of one buffer
    buf = np.empty(nwords << min(8, nrows), a.dtype)
    pivots: list[int] = []
    r = 0
    for g in range((ncols + 7) >> 3):
        if r == nrows:
            break
        basis, bits, masks = _byte_basis(a8[r:, g])
        k = len(basis)
        if k == 0:
            if a8[r:, g + 1 :].any():
                continue
            break
        tbl = buf[: nwords << k].reshape(1 << k, nwords)
        tbl[0] = 0
        picked = a[[r + i for i in basis]]
        np.bitwise_xor.accumulate(picked[_GRAY_FLIPS[: (1 << k) - 1]], axis=0, out=tbl[1:])
        # comb[v]: the table position of the basis rows whose XOR clears the
        # pivot bits of byte value v
        comb = _GRAY_INDEX[
            np.bitwise_xor.reduce(_BYTE_BITS[:, bits] * np.array(masks, np.uint8), axis=1)
        ]
        np.bitwise_xor(a, np.take(tbl, np.take(comb, a8[:, g]), axis=0), out=a)
        # the rows r..r+k-1 that are not basis rows move to the places of
        # the basis rows, which the update zeroed; every row from r on is
        # zero left of the byte, as the table's rows are
        moved = [r + i for i in basis if i >= k]
        if moved:
            a[moved] = a[[i for i in range(r, r + k) if i - r not in basis]]
        a[r : r + k] = tbl[_GRAY_INDEX[masks]]
        pivots += [8 * g + j for j in bits]
        r += k
    return pivots


class _Residues:
    """Back-substitution arithmetic on the residues that a representation of
    F_p reads out, in its dtype of k bits, which holds (p-1)^2 + p - 1 =
    p^2 - p and so p^2 - 1: p^2 - p < 2^k only when p <= 2^(k/2)."""

    def neg(self, x: np.ndarray) -> np.ndarray:
        """-x as p - x, from 1 to p, a representative that ``axpy`` takes."""
        return self.p - x

    def axpy(self, x: np.ndarray, f: np.ndarray, y: np.ndarray) -> None:
        """x += f y^T, in place, unreduced: each term is at most p (p - 1)."""
        x += np.multiply.outer(f, y)

    def reduce(self, x: np.ndarray) -> None:
        x %= self.p

    def slack(self) -> int:
        """How many ``axpy`` terms a reduced residue takes before the dtype
        could overflow: at least one, as the dtype holds p^2 - 1."""
        p = int(self.p)
        return (np.iinfo(self.p.dtype).max - (p - 1)) // (p * (p - 1))


class _Tokens:
    """Back-substitution arithmetic on the tokens of a tabulated F_{q^m}, by
    ``TokenArrays``."""

    def neg(self, x: np.ndarray) -> np.ndarray:
        return self.ops.neg(x)

    def axpy(self, x: np.ndarray, f: np.ndarray, y: np.ndarray) -> None:
        """x += f y^T, in place."""
        x[...] = self.ops.add(x, self.ops.mul(f[:, None], y))

    def reduce(self, x: np.ndarray) -> None:
        pass  # tokens are exact

    def slack(self) -> float:
        return np.inf


class _PackedF3(_Residues):
    """F_3 rows as two bit-planes of packed uint64 words (``_pack``),
    interleaved per word in an array of shape rows x words x 2: plane 0
    marks the nonzero entries and plane 1 the entries equal to 2, so plane 1
    is a subset of plane 0.  A row update is a few word operations, as in
    Boothby and Bradshaw's bitsliced F_3 (arXiv:0901.1413)."""

    zero = 0
    cell_bytes = 3 / 2
    p = np.uint8(3)

    def encode(self, rows) -> np.ndarray:
        v = np.array(rows, dtype=np.uint8)
        return np.stack((_pack(v), _pack(v >> 1)), axis=2)

    def read(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return _unpack(a, cols)

    def column(self, a: np.ndarray, c: int) -> np.ndarray:
        return a[:, c >> 6, 0] & np.uint64(1 << (c & 63))

    def normalise(self, a: np.ndarray, r: int, c: int) -> None:
        w = c >> 6
        if a[r, w, 1] >> np.uint64(c & 63) & np.uint64(1):
            a[r, w:, 1] ^= a[r, w:, 0]

    def update(self, a: np.ndarray, targets: np.ndarray, r: int, c: int) -> None:
        w = c >> 6
        x = a[targets, w:]
        xu, xs = x[..., 0], x[..., 1]
        pu, ps = a[r, w:, 0], a[r, w:, 1]
        # row - factor * pivot row adds y, the pivot row with its sign plane
        # flipped where the factor is 1 and as it is where the factor is 2;
        # flip is all ones where the row's entry at c is 1
        flip = ((xs[:, 0] >> np.uint64(c & 63)) & np.uint64(1)) - np.uint64(1)
        d = xs ^ ps ^ (pu & flip[:, None])  # xs ^ ys
        # t: x and y nonzero and equal, where x + y = -x; unequal nonzero
        # entries cancel
        t = xu & pu & ~d
        u = (xu ^ pu) | t
        x[..., 1] = u & (d ^ (t & ~xs))
        x[..., 0] = u
        a[targets, w:] = x


class _ModP(_Residues):
    """F_p elements, p >= 5, as residues in ``dtype``, an unsigned type that
    holds (p-1)^2 + p - 1, the largest value a row update forms; zero is 0.
    Every operand is a ``dtype`` scalar or array, so no step leaves the
    dtype."""

    zero = 0

    def __init__(self, p: int, dtype: np.dtype):
        self.dtype = dtype
        self.p = dtype.type(p)
        self.cell_bytes = 4 * dtype.itemsize

    def encode(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=self.dtype)

    def read(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return a[:, cols]

    def column(self, a: np.ndarray, c: int) -> np.ndarray:
        return a[:, c] != 0

    def normalise(self, a: np.ndarray, r: int, c: int) -> None:
        p = int(self.p)
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = a[r, c:] * self.dtype.type(inv) % self.p

    def update(self, a: np.ndarray, targets: np.ndarray, r: int, c: int) -> None:
        # row - factor * pivot row, as row + (p - factor) * pivot row
        p = self.p
        out = np.multiply.outer(p - a[targets, c], a[r, c:])
        out += a[targets, c:]
        out %= p
        a[targets, c:] = out


class _ZechLog(_Tokens):
    """Elements of a tabulated F_{q^m} of odd characteristic as logarithms to
    the table's generator; zero is -1, and sums go through the Zech
    logarithm table.  Normalisation and update touch only the pivot row's
    nonzero columns, as every other cell keeps its value."""

    zero = -1
    cell_bytes = 72

    def __init__(self, field: ExtensionField, tables):
        self.t = tables
        self.ops = TokenArrays.of(field)
        self.qm1 = field.order - 1
        # log(-1): -1 = g**((Q-1)/2) for odd Q
        self.log_m1 = self.qm1 // 2

    def encode(self, rows) -> np.ndarray:
        return self.t.log[np.asarray(rows, dtype=np.int64)]

    def read(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        logs = a[:, cols]
        return np.where(logs == -1, 0, self.t.exp[np.where(logs == -1, 0, logs)])

    def column(self, a: np.ndarray, c: int) -> np.ndarray:
        return a[:, c] != -1

    def normalise(self, a: np.ndarray, r: int, c: int) -> None:
        piv = int(a[r, c])
        if piv != 0:
            row = a[r, c:]
            row_nz = row != -1
            row[row_nz] = (row[row_nz] - piv) % self.qm1

    def update(self, a: np.ndarray, targets: np.ndarray, r: int, c: int) -> None:
        qm1 = self.qm1
        nz = c + np.nonzero(a[r, c:] != -1)[0]
        cells = (targets[:, None], nz)
        # log of -(factor * pivot row), then log of target + that product,
        # which is the product where the target is zero
        out = (a[targets, c][:, None] + a[r, nz] + self.log_m1) % qm1
        cur = a[cells]
        both = cur != -1
        av = cur[both]
        z = self.t.zech[(out[both] - av) % qm1]
        out[both] = np.where(z == -1, -1, (av + z) % qm1)
        a[cells] = out


class _XorF2m(_Tokens):
    """Elements of a tabulated F_{2^m} as their tokens, whose bits are the
    coordinates on the polynomial basis, so a sum is an XOR; zero is 0.
    Products go through the logarithm and exponent tables."""

    zero = 0
    cell_bytes = 32

    def __init__(self, field: ExtensionField, tables):
        self.t = tables
        self.ops = TokenArrays.of(field)
        self.qm1 = field.order - 1

    def encode(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64)

    def read(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return a[:, cols]

    def column(self, a: np.ndarray, c: int) -> np.ndarray:
        return a[:, c] != 0

    def normalise(self, a: np.ndarray, r: int, c: int) -> None:
        log = self.t.log
        piv = int(log[a[r, c]])
        if piv != 0:
            nz = c + np.nonzero(a[r, c:])[0]
            a[r, nz] = self.t.exp[(log[a[r, nz]] - piv) % self.qm1]

    def update(self, a: np.ndarray, targets: np.ndarray, r: int, c: int) -> None:
        # -(factor * pivot row) is factor * pivot row in characteristic 2,
        # and only the pivot row's nonzero columns change
        log = self.t.log
        nz = c + np.nonzero(a[r, c:])[0]
        prod = self.t.exp[(log[a[targets, c]][:, None] + log[a[r, nz]]) % self.qm1]
        a[targets[:, None], nz] ^= prod


def _representation(field):
    """The numpy representation the field eliminates in, or None: packed
    bits for F_2, two packed bit-planes for F_3, residues for the other
    prime fields below 2^32, and for tabulated extension fields the tokens
    when q = 2 and Zech logarithms when q is odd."""
    if isinstance(field, PrimeField):
        if field.q == 2:
            return _PackedF2()
        if field.q == 3:
            return _PackedF3()
        # an object dtype, for p above 2^32, has no fixed width
        dtype = np.min_scalar_type((field.q - 1) ** 2 + field.q - 1)
        return _ModP(field.q, dtype) if dtype.kind == "u" else None
    if isinstance(field, ExtensionField):
        tables = field.np_tables()
        if tables is not None:
            return _XorF2m(field, tables) if field.q == 2 else _ZechLog(field, tables)
    return None


def working_cell_bytes(field) -> float:
    """Bytes per cell ``_echelon`` and a read of the free columns allocate
    at their peak over ``field``: the working copy with one encode block or
    with the temporaries of an update that reaches every row (over F_2, one
    byte's update of every row and its table of row combinations), then the
    read, or on the ``rref_rows`` path the row lists and a Python integer
    per cell.  Each representation's figure is the tracemalloc peak on
    dense 300 x 600 matrices, rounded up.  The elimination peaks at 0.45
    over F_2, 1.29 over F_3, 3.2 itemsizes over F_5, 26 over F_{2^7} and 60
    over F_{3^7}.  The F_2 table and the rows it is accumulated from take
    up to 4 KB per 64 columns whatever the row count, 0.21 bytes a cell at
    300 rows.  Reading the free columns back, a kernel's read, peaks at
    1.09 over F_2, which unpacks a byte per cell read (1.17 on 300 x 2000),
    and the back-substitution elsewhere at 1.42 over F_3, 2.0 itemsizes
    over F_5, 16.3 over F_{2^7} and 21.9 over F_{3^7}.  The ``rref_rows``
    figure is the peak on random matrices from 12 x 40 (48 bytes over
    F_{2^21}) to 100 x 200 (41), rounded up."""
    rep = _representation(field)
    return 56 if rep is None else rep.cell_bytes


def _eliminate_pivots(rep, a: np.ndarray, ncols: int) -> list[int]:
    """Row echelon form, in place, of the encoded rows ``a``, one pivot at a
    time, every pivot 1; returns the pivot columns.

    The representation ``rep`` supplies its zero, the nonzero test of a
    column, the pivot normalisation and the row update, which reaches only
    the rows below the pivot row.  Normalisation and update touch only the
    pivot column and those right of it, where the pivot row is nonzero.  The
    rows below the last pivot found are zero left of the current column, so
    once a column holds no pivot and those rows are zero everywhere, no
    later column can hold one and the scan stops.
    """
    nrows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(rep.column(a[r:], c))[0]
        if nz.size == 0:
            # row r alone settles most such columns, so it is tested first
            if np.any(a[r] != rep.zero) or np.any(a[r + 1 :] != rep.zero):
                continue
            break  # no later column holds a pivot
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        rep.normalise(a, r, c)
        # the swap left row i zero in column c; the rows below it still are
        # the ones nz found
        if nz.size > 1:
            rep.update(a, r + nz[1:], r, c)
        pivots.append(c)
        r += 1
    return pivots


# pivots whose columns of the echelon rows are read at a time in
# ``_back_substitute``
_BLOCK = 64


def _back_substitute(rep, e: np.ndarray, pivots: list[int], cols: np.ndarray) -> np.ndarray:
    """The reduced echelon rows at ``cols`` of the echelon rows ``e`` (every
    pivot 1, at ``pivots``), as tokens.

    The reduced rows are U^-1 e, U the unit upper triangular block of ``e``
    at the pivot columns.  At a pivot column they are a unit vector.  At the
    other columns, x = e[:, cols] is swept bottom up: the rows above pivot j
    take -U[:j, j] times row j of x, which is final once the rows below it
    are.  U is read ``_BLOCK`` columns at a time, negated, and a step
    updates ``_CHUNK`` cells at a time, so the sweep's arrays are x, one
    block and one chunk's update, in the representation's token dtype.
    Residues are reduced mod p only when a row is used and when the rows
    above have taken as many updates as the dtype holds (``slack``).
    """
    piv = np.asarray(pivots, dtype=np.intp)
    r = len(piv)
    at = np.minimum(np.searchsorted(piv, cols), max(r - 1, 0))
    is_piv = piv[at] == cols if r else np.zeros(len(cols), dtype=bool)
    x = rep.read(e, cols[~is_piv])
    if x.shape[1]:
        step = max(1, _CHUNK // x.shape[1])
        slack, terms = rep.slack(), 0  # terms: updates since x was reduced
        for hi in range(r, 1, -_BLOCK):
            lo = max(hi - _BLOCK, 0)
            # row j - lo holds -U[:hi, j]
            u = np.ascontiguousarray(rep.neg(rep.read(e[:hi], piv[lo:hi])).T)
            for j in range(hi - 1, max(lo, 1) - 1, -1):
                rep.reduce(x[j])
                if np.count_nonzero(x[j]):
                    if terms == slack:
                        rep.reduce(x[:j])
                        terms = 0
                    for i in range(0, j, step):
                        k = min(i + step, j)
                        rep.axpy(x[i:k], u[j - lo, i:k], x[j])
                    terms += 1
        rep.reduce(x)
    if not is_piv.any():
        return x
    out = np.zeros((r, len(cols)), dtype=x.dtype)
    out[:, ~is_piv] = x
    out[at[is_piv], np.flatnonzero(is_piv)] = 1
    return out


def _echelon(rows, field):
    """The pivot columns of ``rows`` (nested lists or a list of row arrays)
    over ``field`` and a reader of its reduced row echelon form.  ``rows``
    is left as it was.

    Returns ``read`` and the pivot columns.  ``read(cols)`` gives the nonzero
    reduced echelon rows restricted to the columns ``cols``, as an array of
    tokens, so a caller that wants only the rank reads nothing and a kernel
    reads only the free columns.  The rows are encoded into a working copy.
    F_2 is reduced in place a byte of columns at a time
    (``_eliminate_bytes``), and ``read`` unpacks.  F_3, the other prime
    fields below 2^32 and tabulated extension fields are brought to row
    echelon form one pivot at a time, updating only the rows below the
    pivot (``_eliminate_pivots``), and ``read`` back-substitutes
    (``_back_substitute``).  Both stop once a column or byte holds no pivot
    and the rows below the last pivot are zero.  The reduced echelon form is
    unique, so ``read`` does not depend on how the rows were eliminated.
    Any other field goes through ``rref_rows``, and ``read`` gives an
    object array.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return lambda cols: np.zeros((0, len(cols)), dtype=np.uint8), []
    rep = _representation(field)
    if rep is None:
        res = rref_rows(rows, field)
        ech = res.matrix.rows[: res.rank]

        def read(cols):
            out = np.empty((res.rank, len(cols)), dtype=object)
            for i, row in enumerate(ech):
                out[i] = [row[c] for c in cols]
            return out

        return read, res.pivots
    # encoded into a fresh array an eighth of the rows at a time, so the
    # encode's temporaries are one block's
    step = -(-nrows // 8)
    first = rep.encode(rows[:step])
    a = np.empty((nrows,) + first.shape[1:], first.dtype)
    a[:step] = first
    for i in range(step, nrows, step):
        a[i : i + step] = rep.encode(rows[i : i + step])
    if isinstance(rep, _PackedF2):
        pivots = _eliminate_bytes(a, ncols)
        e = a[: len(pivots)]
        return lambda cols: rep.read(e, np.asarray(cols, dtype=np.intp)), pivots
    pivots = _eliminate_pivots(rep, a, ncols)
    e = a[: len(pivots)]
    return lambda cols: _back_substitute(rep, e, pivots, np.asarray(cols, dtype=np.intp)), pivots


def pivot_columns(rows, field) -> list[int]:
    """Pivot columns of a row echelon form, ascending.  They do not depend on
    the echelon form: column c is one exactly when some vector of the row
    space has its first nonzero entry at c."""
    return _echelon(rows, field)[1]


def rank_rows(rows, field) -> int:
    """Rank over the given field."""
    return len(pivot_columns(rows, field))


def kernel_rows(rows, field, ncols: int) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0} of the len(rows) x ncols
    matrix, as token vectors: for each free column, in order, the vector that
    is 1 there, 0 at the other free columns and minus the reduced echelon
    rows' entries of that column at the pivot columns."""
    read, pivots = _echelon(rows, field)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    ech = read(free)
    basis = np.zeros((len(free), ncols), dtype=ech.dtype)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        if isinstance(field, PrimeField):
            basis[:, pivots] = ((field.q - ech) % field.q).T
        else:
            basis[:, pivots] = TokenArrays.of(field).neg(ech).T
    return basis.tolist()


def solve_rows(rows, rhs: Sequence[int], field, ncols: int) -> list[int] | None:
    """One solution of M x = rhs in ncols unknowns, or None when the system
    is inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    read, pivots = _echelon(aug, field)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for b, pc in zip(read([ncols])[:, 0].tolist(), pivots):
        x[pc] = b
    return x


def column_space_basis(mat: FieldMatrix) -> FieldMatrix:
    """Canonical basis of the column space: reduced echelon rows of the
    transpose, transposed back, so equal spaces compare equal."""
    read, pivots = _echelon(mat.transpose().rows, mat.field)
    return FieldMatrix(mat.field, read(range(mat.nrows)).T.tolist(), len(pivots))
