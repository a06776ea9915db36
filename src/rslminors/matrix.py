"""Dense exact linear algebra over the fields in :mod:`rslminors.fields`.

``FieldMatrix`` is a small row-major dense matrix whose entries are element
tokens of an attached field.  The generic routines (reduced row echelon form,
determinant, maximal minors) are pure Python and work for any field object.
Rank, kernel, solve and column-space basis all run on one elimination core,
``_echelon``, which picks one of three representations once per call: rows
bit-packed into uint64 words for F_2, residues in the narrowest unsigned
dtype for the other prime fields below 2^32, and Zech logarithms for
extension fields with tabulated logarithms.  Any other field goes through
the generic ``rref_rows``.
Matrices are immutable by convention; all operations return fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .fields import ExtensionField, PrimeField


class FieldMatrix:
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
    def zeros(cls, field, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "FieldMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls(field, rows, n)

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

    def row(self, i: int) -> list[int]:
        return list(self.rows[i])

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

    def mul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.ncols != other.nrows or other.field != self.field:
            raise ValueError("shape or field mismatch")
        f = self.field
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            row = self.rows[i]
            acc = out[i]
            for t in range(self.ncols):
                a = row[t]
                if a == 0:
                    continue
                orow = other.rows[t]
                for j in range(other.ncols):
                    b = orow[j]
                    if b:
                        acc[j] = f.add(acc[j], f.mul(a, b))
        return FieldMatrix(f, out, other.ncols)

    def matvec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        f = self.field
        out = []
        for row in self.rows:
            acc = 0
            for a, b in zip(row, v):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.nrows}x{self.ncols} over {self.field!r})"

    # -- exact elimination ---------------------------------------------------

    def rref(self) -> "RrefResult":
        return rref_rows(self.rows, self.field)

    def rank(self) -> int:
        return rank_rows(self.rows, self.field)

    def det(self) -> int:
        return det_rows(self.rows, self.field)

    def maximal_minors(self) -> dict[tuple[int, ...], int]:
        """All maximal minors, keyed by the sorted column subset.

        Requires nrows <= ncols; the minor at subset T is the determinant of
        the columns T taken in increasing order.
        """
        if self.nrows > self.ncols:
            raise ValueError("maximal minors need nrows <= ncols")
        out = {}
        for T in combinations(range(self.ncols), self.nrows):
            out[T] = det_rows([[r[j] for j in T] for r in self.rows], self.field)
        return out


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


# -- determinants ------------------------------------------------------------


def _det_cofactor(rows, field) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    f = field
    if n == 2:
        return f.sub(f.mul(rows[0][0], rows[1][1]), f.mul(rows[0][1], rows[1][0]))
    acc = 0
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = f.mul(a, _det_cofactor(minor, f))
        acc = f.add(acc, term if j % 2 == 0 else f.neg(term))
    return acc


def _det_bareiss(rows, field) -> int:
    # fraction-free elimination; every division is exact in a field anyway
    f = field
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        inv_prev = f.inv(prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = f.sub(f.mul(m[i][j], m[k][k]), f.mul(m[i][k], m[k][j]))
                m[i][j] = f.mul(num, inv_prev)
            m[i][k] = 0
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else f.neg(d)


def det_rows(rows: Sequence[Sequence[int]], field) -> int:
    n = len(rows)
    if n and len(rows[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    if n <= 4:
        return _det_cofactor([list(r) for r in rows], field)
    return _det_bareiss(rows, field)


# -- the elimination core ----------------------------------------------------


class _PackedF2:
    """F_2 rows packed little-endian into uint64 words, column c at bit
    c % 64 of word c // 64.  Every pivot is 1, and a row update is an XOR."""

    def encode(self, rows) -> np.ndarray:
        ncols = len(rows[0])
        bits = np.packbits(np.asarray(rows, dtype=np.uint8), axis=1, bitorder="little")
        words = np.zeros((len(rows), (ncols + 63) // 64 * 8), dtype=np.uint8)
        words[:, : bits.shape[1]] = bits
        return words.view("<u8")

    def read(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return (a[:, cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)

    def column(self, a: np.ndarray, c: int) -> np.ndarray:
        return a[:, c >> 6] & np.uint64(1 << (c & 63))

    def normalise(self, a: np.ndarray, r: int, c: int) -> None:
        pass

    def update(self, a: np.ndarray, targets: np.ndarray, r: int, c: int) -> None:
        a[targets, c >> 6 :] ^= a[r, c >> 6 :]


class _ModP:
    """F_p elements as residues in ``dtype``, an unsigned type that holds
    (p-1)^2 + p - 1, the largest value a row update forms; zero is 0.  Every
    operand is a ``dtype`` scalar or array, so no step leaves the dtype."""

    def __init__(self, p: int, dtype: np.dtype):
        self.dtype = dtype
        self.p = dtype.type(p)

    def encode(self, rows) -> np.ndarray:
        # np.array copies even an array already in the dtype, which the
        # pivot loop then changes in place; np.asarray would not
        return np.array(rows, dtype=self.dtype)

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


class _ZechLog:
    """Elements of a tabulated F_{q^m} as logarithms to the table's generator;
    zero is -1, and sums go through the Zech logarithm table."""

    def __init__(self, field: ExtensionField, tables):
        self.t = tables
        self.qm1 = field.order - 1
        self.log_m1 = int(tables.log[field.neg(1)])

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
        prow = a[r, c:][None, :]
        # log of -(factor * pivot row), then log of target + that product
        prod = np.where(prow == -1, -1, (prow + a[targets, c][:, None] + self.log_m1) % qm1)
        cur = a[targets, c:]
        out = np.where(cur == -1, prod, cur)
        both = (cur != -1) & (prod != -1)
        if np.any(both):
            av = cur[both]
            z = self.t.zech[(prod[both] - av) % qm1]
            out[both] = np.where(z == -1, -1, (av + z) % qm1)
        a[targets, c:] = out


def _representation(field):
    """The numpy representation the field eliminates in, or None."""
    if isinstance(field, PrimeField):
        if field.q == 2:
            return _PackedF2()
        # an object dtype, for p above 2^32, has no fixed width
        dtype = np.min_scalar_type((field.q - 1) ** 2 + field.q - 1)
        return _ModP(field.q, dtype) if dtype.kind == "u" else None
    if isinstance(field, ExtensionField):
        tables = field.np_tables()
        if tables is not None:
            return _ZechLog(field, tables)
    return None


def _echelon(rows, field, reduced: bool):
    """Row echelon form of ``rows`` over ``field``; reduced (every pivot
    column a unit vector) when ``reduced`` is set.  ``rows`` is left as it
    was.

    Returns ``read`` and the pivot columns.  ``read(cols)`` gives the nonzero
    echelon rows restricted to the columns ``cols``, as token lists, so a
    caller that wants only the rank reads nothing and a kernel reads only
    the free columns.  F_2, the other prime fields below 2^32 and tabulated
    extension fields share the numpy pivot loop below; each representation
    supplies the nonzero test of a column, the pivot normalisation, the row
    update and the column read.  Normalisation and update touch only the
    pivot column and those right of it, where the pivot row is nonzero, so
    they are exact in the reduced form too.  Any other field goes through
    ``rref_rows``.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return lambda cols: [], []
    rep = _representation(field)
    if rep is None:
        res = rref_rows(rows, field)
        ech = res.matrix.rows[: res.rank]
        return lambda cols: [[row[c] for c in cols] for row in ech], res.pivots
    a = rep.encode(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(rep.column(a[r:], c))[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        rep.normalise(a, r, c)
        # the swap left row i zero in column c; the rows below it still are
        # the ones nz found
        targets = r + nz[1:]
        if reduced:
            targets = np.concatenate((np.nonzero(rep.column(a[:r], c))[0], targets))
        if targets.size:
            rep.update(a, targets, r, c)
        pivots.append(c)
        r += 1
    return lambda cols: rep.read(a[:r], np.asarray(cols, dtype=np.intp)).tolist(), pivots


def rank_rows(rows, field) -> int:
    """Rank over the given field."""
    return len(_echelon(rows, field, reduced=False)[1])


def kernel_rows(rows, field, ncols: int) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0} of the len(rows) x ncols
    matrix, as token vectors."""
    read, pivots = _echelon(rows, field, reduced=True)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    ech = read(free)
    basis = []
    for j, fc in enumerate(free):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(ech, pivots):
            v[pc] = field.neg(row[j])
        basis.append(v)
    return basis


def solve_rows(rows, rhs: Sequence[int], field, ncols: int) -> list[int] | None:
    """One solution of M x = rhs in ncols unknowns, or None when the system
    is inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    read, pivots = _echelon(aug, field, reduced=True)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for (b,), pc in zip(read([ncols]), pivots):
        x[pc] = b
    return x


def column_space_basis(mat: FieldMatrix) -> FieldMatrix:
    """Canonical basis of the column space: reduced echelon rows of the
    transpose, transposed back, so equal spaces compare equal."""
    read, pivots = _echelon(mat.transpose().rows, mat.field, reduced=True)
    ech = read(range(mat.nrows))
    cols = [[row[i] for row in ech] for i in range(mat.nrows)]
    return FieldMatrix(mat.field, cols, len(pivots))
