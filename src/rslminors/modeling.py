"""Bilinear modeling of the support-recovery problem.

A candidate low-weight word of the augmented code is written as a combination
Sum_i lambda_i y_i with unknown lambda over F_q, and its support is carried by
an unknown w x n coefficient matrix R over F_q.  Compatibility with the
parity-check matrix forces the (1+w) x (n-k) matrix

    Delta = [ Sum_i lambda_i s_i ; R Ht^T ]

to have rank at most w, so every maximal minor Q_J (one per (w+1)-subset J of
the rows {1..n-k}) vanishes.  Expanding Q_J along the word row, and each
w-minor of R Ht^T by Cauchy-Binet, gives a bilinear polynomial in the
lambda_i and the maximal minors r_T = |R|_{*,T}, whose coefficients are sums
of syndrome entries times w-minors of H.  H is systematic, [A | I], so a
w-minor |H|_{R,T} vanishes unless the identity columns of T lie in R, and
equation Q_J touches only the C(k+w+1, w) minors r_T whose identity columns
lie in J (``minor_support``).  The whole system is one array c[J, i, t] of
coefficients over those minors, computed at once as array products.
Unfolding it over F_q splits each coefficient into its base-q digits; the
Macaulay matrices at bi-degree (b,1) read their entries off its nonzero
positions; and Lemma 3's structural relations between the equations are
expanded on the same array, scattered back onto every minor.

Monomials are pairs (mu, T): mu is a sorted tuple of lambda indices (1-based,
repeats allowed), T a sorted w-tuple of column indices (1-based).  The order
compares the lambda-degree first, then the minors by tuple lexicography, and
breaks ties between lambda parts of equal degree by grevlex with
lambda_N < ... < lambda_1.  The Macaulay matrix lays its columns out in
descending order, so the pivot columns of its echelon form are the leading
monomials of the span of its rows; Theorem 1's leads are read off them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Optional

import numpy as np

from .fields import prime_field
from .instance import RslInstance
from .matrix import (
    TokenArrays,
    laplace_index,
    minor_table,
    pivot_columns,
    rank_rows,
    working_cell_bytes,
)

LamMono = tuple[int, ...]
MinorIndex = tuple[int, ...]
Monomial = tuple[LamMono, MinorIndex]


def grevlex_subkey(mu: LamMono, n_lambda: int) -> tuple[int, ...]:
    """Tie-break key for lambda-monomials of equal degree: grevlex with
    lambda_1 largest.  Ascending key order = ascending monomial order."""
    exp = [0] * (n_lambda + 1)
    for i in mu:
        exp[i] += 1
    return tuple(-exp[i] for i in range(n_lambda, 0, -1))


@functools.cache
def minor_support(n: int, k: int, w: int) -> np.ndarray:
    """The minors each equation can touch when H = [A | I] is (n-k) x n:
    entry [e, t] is the position, among the w-subsets of range(n) in
    ``combinations`` order, of the t-th w-subset of range(k) plus k + J_e,
    J_e the e-th (w+1)-subset of range(n-k).  Those are the minors whose
    identity columns lie in k + J_e, C(k+w+1, w) of them, ascending.  The
    array is cached and shared, so it is read-only."""
    pos = {T: t for t, T in enumerate(combinations(range(n), w))}
    info = tuple(range(k))
    cols = np.array([
        [pos[T] for T in combinations(info + tuple(k + j for j in J), w)]
        for J in combinations(range(n - k), w + 1)
    ], dtype=np.intp)
    cols.flags.writeable = False
    return cols


@dataclass
class BilinearSystem:
    """The minor equations as one coefficient array over the minors each
    equation touches.

    coeffs[e, i, t] is the coefficient of lambda_{i+1} r_T in equation e,
    where T is the minor_cols[e, t]-th w-subset of {1..n_cols} in
    ``combinations`` order; every other minor has coefficient 0 in equation
    e.  J[e] is the row subset equation e came from.
    """

    field: object
    n_cols: int  # column range of the minors: T subset of {1..n_cols}
    n_lambda: int
    w: int
    J: list[tuple[int, ...]]
    coeffs: np.ndarray
    minor_cols: np.ndarray


def build_system(inst: RslInstance, w: int) -> BilinearSystem:
    """The maximal minor Q_J of Delta on each row set J, J in ``combinations``
    order, expanded into bilinear terms.

    Expanding Q_J along the word row of Delta, and each w-minor of R Ht^T
    by Cauchy-Binet, gives

        Q_J = Sum_u (-1)^u (Sum_i lambda_i S[J_u, i]) Sum_T r_T |H|_{J minus J_u, T},

    so the coefficient of lambda_i r_T is c[J, i, T] = Sum_u (-1)^u
    S[J_u, i] |H|_{J minus J_u, T}, with |H| the table of w-minors of H over
    every row and column w-subset.  With H = [A | I], |H|_{R, T} is zero
    unless the identity columns T_I of T lie in R, so c[J, i, T] is zero
    unless T_I lies in J: only the ``minor_support`` minors of J are kept.
    That is w+1 array products, one per position u, over ``laplace_index``
    positions of (J, u).
    """
    p = inst.params
    nk = p.n - p.k
    if not 0 < w < nk:
        raise ValueError(f"need 0 < w < n-k, got w={w}")
    if w > p.r:
        raise ValueError(f"weight must be in 1..r, got {w}")
    ext = inst.field
    ops = TokenArrays.of(ext)
    minors = minor_table(inst.H.rows, ext, w)
    S = np.array(inst.S.rows, dtype=ops.dtype)
    signed = (S, ops.neg(S))
    pick, drop = laplace_index(nk, w + 1)
    cols = minor_support(p.n, p.k, w)
    c = functools.reduce(ops.add, (
        ops.mul(signed[u % 2][pick[:, u], :, None], minors[drop[:, u, None], cols][:, None, :])
        for u in range(w + 1)
    ))
    J = list(combinations(range(1, nk + 1), w + 1))
    return BilinearSystem(
        field=ext, n_cols=p.n, n_lambda=p.N, w=w, J=J, coeffs=c, minor_cols=cols
    )


def unfold_system(system: BilinearSystem) -> BilinearSystem:
    """Expand each equation over the extension field into m coordinate
    equations over F_q, the base-q digits of its coefficients, least
    significant first.  A point with F_q coordinates vanishes on the original
    iff it vanishes on all coordinates, so the solution set is preserved.
    Zero coordinate equations are kept so that counts stay m per input, and
    each keeps the minors of its equation.  The digits come from
    ``unfold_array``, in the narrowest unsigned dtype that holds q-1."""
    ext = system.field
    c = system.coeffs
    return replace(
        system,
        field=prime_field(ext.q),
        J=[J for J in system.J for _ in range(ext.m)],
        coeffs=ext.unfold_array(c).reshape(len(c) * ext.m, *c.shape[1:]),
        minor_cols=np.repeat(system.minor_cols, ext.m, axis=0),
    )


def lambda_monomials(n_lambda: int, degree: int, squarefree: bool) -> list[LamMono]:
    """All lambda-monomials of the given total degree, ascending tuples."""
    pool = range(1, n_lambda + 1)
    if squarefree:
        return [tuple(c) for c in combinations(pool, degree)]
    return [tuple(c) for c in combinations_with_replacement(pool, degree)]


@dataclass
class MacaulayMatrix:
    """All multiples of the equations at bi-degree (b,1), as one dense array.

    The field of the system picks the matrix.  Over F_2 the multipliers have
    degree 0..b-1 and the columns lambda-degree 1..b, squarefree, with
    products reduced by lambda^2 = lambda.  Over any other field the rows are
    (degree b-1 multiplier) x equation products, with formal multiset
    lambda-monomials and no reduction, and the columns are all monomials of
    lambda-degree exactly b.  ``rows`` has the dtype of the system's
    coefficients: uint8 digits over F_q, int64 tokens over a tabulated
    F_{q^m}, Python integers (object) over an untabulated one.
    """

    field: object
    b: int
    n_lambda: int
    n_cols_R: int
    w: int
    row_labels: list[tuple[LamMono, tuple[int, ...]]]
    col_labels: list[Monomial]
    rows: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.col_labels))

    def dense_rows(self) -> list[np.ndarray]:
        """The rows as a list of views of ``rows``; no cell is copied."""
        return list(self.rows)

    def rank(self) -> int:
        return rank_rows(self.dense_rows(), self.field)


class MacaulayTooLarge(MemoryError):
    """A Macaulay matrix and its elimination would exceed physical memory."""

    def __init__(self, shape: tuple[int, int], needed: float, memory: int):
        self.shape = shape
        super().__init__(
            f"its dense {shape[0]}x{shape[1]} matrix needs "
            f"{needed / 2**30:.3g} GiB, over the "
            f"{memory / 2**30:.3g} GiB of physical memory"
        )


def physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def build_macaulay(system: BilinearSystem, b: int) -> MacaulayMatrix:
    """Stack all (lambda-multiplier) x equation products at bi-degree (b,1):
    the squarefree matrix of lambda-degrees 1..b over F_2, the matrix of
    lambda-degree exactly b over any other field (F_{2^m} included).

    Rows are grouped by equation, multipliers in descending monomial order.
    Columns are enumerated in full from (n_cols, n_lambda, w), descending:
    by degree d, then minor T, then grevlex, so (mu, T), T the t-th of the
    C(n_cols, w) minors in ``combinations`` order, sits at column
    base + (C(n_cols, w) - 1 - t) * stride, where base = off[d] + (position
    of mu) and stride = (number of degree-d mu), from tables indexed by
    multiplier and lambda_i, without hashing a monomial.  Every nonzero
    coefficient c[e, i, s] of ``system.coeffs`` is scattered into one dense
    array for all multipliers at once, at the minor t = minor_cols[e, s].
    Above F_2 the products of one multiplier with distinct terms are
    distinct; over F_2 lambda_i * mu = mu for i in mu, and colliding terms
    add (XOR).

    Raises MacaulayTooLarge, before the array exists, when the array and
    what eliminating it allocates at its peak (``working_cell_bytes``) would
    exceed the machine's physical memory.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    f = system.field
    squarefree = f == prime_field(2)
    N = system.n_lambda
    mus = [
        sorted(lambda_monomials(N, d, squarefree), key=lambda mu: grevlex_subkey(mu, N))[::-1]
        for d in range(b + 1)
    ]
    mupos = {mu: i for ms in mus for i, mu in enumerate(ms)}
    minors = list(combinations(range(1, system.n_cols + 1), system.w))[::-1]
    degs = range(b, 0 if squarefree else b - 1, -1)
    col_labels = [(mu, T) for d in degs for T in minors for mu in mus[d]]
    off = [len(minors) * sum(map(len, mus[d + 1:])) for d in range(b + 1)]
    multipliers = [mu for d in degs for mu in mus[d - 1]]
    coeffs = system.coeffs
    shape = (len(system.J) * len(multipliers), len(col_labels))
    memory = physical_memory()
    needed = shape[0] * shape[1] * (coeffs.dtype.itemsize + working_cell_bytes(f))
    if memory is not None and needed > memory:
        raise MacaulayTooLarge(shape, needed, memory)
    # base[r, i - 1], stride[r, i - 1]: first column and T-stride of
    # lambda_i * multiplier r
    base = np.empty((len(multipliers), N), dtype=np.intp)
    stride = np.empty_like(base)
    for r, mu in enumerate(multipliers):
        for i in range(1, N + 1):
            pr = tuple(sorted(set(mu) | {i} if squarefree else mu + (i,)))
            base[r, i - 1] = off[len(pr)] + mupos[pr]
            stride[r, i - 1] = len(mus[len(pr)])
    eqs, lams, ts = np.nonzero(coeffs)
    values = coeffs[eqs, lams, ts]
    ts = system.minor_cols[eqs, ts]
    # row and column of every nonzero term times every multiplier
    row = eqs * len(multipliers) + np.arange(len(multipliers))[:, None]
    col = base[:, lams] + (len(minors) - 1 - ts) * stride[:, lams]
    rows = np.zeros(shape, dtype=coeffs.dtype)
    if squarefree:
        np.bitwise_xor.at(rows, (row, col), values)
    else:
        rows[row, col] = values
    return MacaulayMatrix(
        field=f, b=b, n_lambda=N, n_cols_R=system.n_cols, w=system.w,
        row_labels=[(mu, J) for J in system.J for mu in multipliers],
        col_labels=col_labels, rows=rows,
    )


def predicted_leads(inst: RslInstance, w: int) -> set[Monomial]:
    """The leading monomials Theorem 1 predicts for the span of the minor
    equations, one per J = (j, I) with j < min(I).

    The largest minor in the equation of J is r_{I+k}, with the linear form
    Sum_i s_{j,i} lambda_i as its coefficient.  So the leads of the equations
    sharing I are lambda_{c+1} r_{I+k}, c running over the pivot columns of
    the syndrome rows above row min(I).  That gives C(n-k, w+1) leads when
    the top n-k-w rows of S have full rank, and fewer otherwise.
    """
    p = inst.params
    nk = p.n - p.k
    pivots = [pivot_columns(inst.S.rows[:h], inst.field) for h in range(nk - w + 1)]
    return {
        ((c + 1,), tuple(t + p.k for t in I))
        for I in combinations(range(1, nk + 1), w)
        for c in pivots[I[0] - 1]
    }


def monomial_vector(
    col_labels: list[Monomial], lam_values: list[int], rT_values: np.ndarray, field
) -> np.ndarray:
    """Evaluate every column monomial at a point (for kernel membership).
    rT_values[t] is the minor on the t-th w-subset in ``combinations`` order;
    the labels name every w-subset, as a Macaulay matrix's do, so the t of a
    label is the rank of its T among them."""
    ops = TokenArrays.of(field)
    _, t = np.unique([T for _, T in col_labels], axis=0, return_inverse=True)
    b = max(len(mu) for mu, _ in col_labels)
    # index 0 is lambda_0 = 1, which pads the lambda-monomials to degree b
    lam = np.array([field.one, *lam_values], dtype=ops.dtype)
    mus = np.array([mu + (0,) * (b - len(mu)) for mu, _ in col_labels], dtype=np.intp)
    rT = np.array(rT_values, dtype=ops.dtype)[t.reshape(-1)]
    return functools.reduce(ops.mul, lam[mus].T, rT)


def syzygies(inst: RslInstance, system: BilinearSystem) -> tuple[list[int], list[list[int]]]:
    """Lemma 3's relations Sum_J form_J Q_J = 0 between the minor equations
    ``system`` of ``inst``, one per (w+2)-subset K of the rows {1..n-k}.

    Duplicating the word row of Delta on the rows K gives a singular square
    matrix; expanding its determinant along the duplicate row gives the
    relation, with form_{K minus K_u} = +-Sum_i S[K_u, i] lambda_i, + when
    w+u+1 is even (u 0-based).  Returns, for each relation, the number of
    monomials lambda_i lambda_j r_T (i <= j, no reduction) that survive its
    formal product, 0 for a true relation, and the relations' coefficient
    rows, one column per (J, lambda index) pair.
    """
    ops = TokenArrays.of(system.field)
    S = np.array(inst.S.rows, dtype=ops.dtype)
    signed = (S, ops.neg(S))
    w = system.w
    pick, drop = laplace_index(inst.params.n - inst.params.k, w + 2)
    forms = np.stack([signed[(w + u + 1) % 2][pick[:, u]] for u in range(w + 2)], axis=1)
    # c[J, T, j] on every minor T: the relations mix the minors of w+2 equations
    n_eqs = len(system.J)
    c = np.zeros(
        (n_eqs, math.comb(system.n_cols, w), system.n_lambda), dtype=system.coeffs.dtype
    )
    c[np.arange(n_eqs)[:, None], system.minor_cols] = system.coeffs.transpose(0, 2, 1)
    # P[K, T, i, j]: the coefficient of lambda_i (from the form) lambda_j r_T
    P = functools.reduce(ops.add, (
        ops.mul(forms[:, u, None, :, None], c[drop[:, u], :, None, :]) for u in range(w + 2)
    ))
    # lambda_i lambda_j r_T with i < j collects P[.., i, j] and P[.., j, i]
    residue = ops.add(np.triu(P), np.tril(P, -1).swapaxes(2, 3))
    stack = np.zeros((len(pick), len(system.J), system.n_lambda), dtype=ops.dtype)
    stack[np.arange(len(pick))[:, None], drop] = forms
    return (
        np.count_nonzero(residue, axis=(1, 2, 3)).tolist(),
        stack.reshape(len(pick), len(system.J) * system.n_lambda).tolist(),
    )
