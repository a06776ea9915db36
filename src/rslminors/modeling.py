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
of syndrome entries times w-minors of H; all of them are computed at once,
as array products.  Those polynomials, their unfolding over F_q, their
Macaulay matrices at bi-degree (b,1) and the structural relations between
them are built here.

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
import os
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Optional

import numpy as np

from .fields import prime_field
from .instance import RslInstance
from .matrix import TokenArrays, laplace_index, minor_table, pivot_columns, rank_rows

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


@dataclass
class BilinearEquation:
    """Polynomial with every term carrying exactly one minor factor.

    terms maps (mu, T) to a nonzero coefficient; J records which row subset
    the equation came from, when it came from one.
    """

    field: object
    terms: dict[Monomial, int]
    J: Optional[tuple[int, ...]] = None

    def evaluate(self, lam_values: list[int], rT_values: dict[MinorIndex, int]) -> int:
        f = self.field
        acc = f.zero
        for (mu, T), c in self.terms.items():
            v = c
            for i in mu:
                v = f.mul(v, lam_values[i - 1])
                if v == 0:
                    break
            if v == 0:
                continue
            v = f.mul(v, rT_values.get(T, 0))
            if v:
                acc = f.add(acc, v)
        return acc


@dataclass
class BilinearSystem:
    field: object
    n_cols: int  # column range of the minors: T subset of {1..n_cols}
    n_lambda: int
    w: int
    equations: list[BilinearEquation]


def build_system(inst: RslInstance, w: int) -> BilinearSystem:
    """All C(n-k, w+1) minor equations, J in lexicographic order."""
    p = inst.params
    nk = p.n - p.k
    if not 0 < w < nk:
        raise ValueError(f"need 0 < w < n-k, got w={w}")
    eqs = _minor_equations(inst, w)
    return BilinearSystem(field=inst.field, n_cols=p.n, n_lambda=p.N, w=w, equations=eqs)


def _minor_equations(inst: RslInstance, w: int) -> list[BilinearEquation]:
    """Maximal minor of Delta on each row set J, expanded into bilinear terms.

    Expanding Q_J along the word row of Delta, and each w-minor of R Ht^T
    by Cauchy-Binet, gives

        Q_J = Sum_u (-1)^u (Sum_i lambda_i S[J_u, i]) Sum_T r_T |H|_{J minus J_u, T},

    so the coefficient of lambda_i r_T is c[J, i, T] = Sum_u (-1)^u
    S[J_u, i] |H|_{J minus J_u, T}, with |H| the table of w-minors of H over
    every row and column w-subset.  That is w+1 array products, one per
    position u, over ``laplace_index`` positions of (J, u); each equation's
    terms are the nonzero entries of its slice c[J].
    """
    p = inst.params
    ext = inst.field
    if not 0 < w <= p.r:
        raise ValueError(f"weight must be in 1..r, got {w}")
    ops = TokenArrays.of(ext)
    nk = p.n - p.k
    minors = minor_table(inst.H.rows, ext, w)
    S = np.array(inst.S.rows, dtype=ops.dtype)
    signed = (S, ops.neg(S))
    pick, drop = laplace_index(nk, w + 1)
    c = functools.reduce(ops.add, (
        ops.mul(signed[u % 2][pick[:, u], :, None], minors[drop[:, u], None, :])
        for u in range(w + 1)
    ))
    Ts = list(combinations(range(1, p.n + 1), w))
    out = []
    for J, cJ in zip(combinations(range(1, nk + 1), w + 1), c):
        i, t = np.nonzero(cJ)
        values = cJ[i, t].tolist()
        terms = {((a + 1,), Ts[b]): v for a, b, v in zip(i.tolist(), t.tolist(), values)}
        out.append(BilinearEquation(field=ext, terms=terms, J=J))
    return out


def unfold_system(system: BilinearSystem) -> BilinearSystem:
    """Expand each equation over the extension field into m coordinate
    equations over F_q.  A point with F_q coordinates vanishes on the original
    iff it vanishes on all coordinates, so the solution set is preserved.
    Zero coordinate equations are kept so that counts stay m per input."""
    ext = system.field
    fq = prime_field(ext.q)
    out: list[BilinearEquation] = []
    for eq in system.equations:
        digit_terms: list[dict[Monomial, int]] = [{} for _ in range(ext.m)]
        for key, c in eq.terms.items():
            for jd, d in enumerate(ext.unfold(c)):
                if d:
                    digit_terms[jd][key] = d
        for jd in range(ext.m):
            out.append(BilinearEquation(field=fq, terms=digit_terms[jd], J=eq.J))
    return replace(system, field=fq, equations=out)


def lambda_monomials(n_lambda: int, degree: int, squarefree: bool) -> list[LamMono]:
    """All lambda-monomials of the given total degree, ascending tuples."""
    pool = range(1, n_lambda + 1)
    if squarefree:
        return [tuple(c) for c in combinations(pool, degree)]
    return [tuple(c) for c in combinations_with_replacement(pool, degree)]


@dataclass
class MacaulayMatrix:
    """Sparse matrix of all multiples of the equations at bi-degree (b,1).

    The field of the system picks the matrix.  Over F_2 the multipliers have
    degree 0..b-1 and the columns lambda-degree 1..b, squarefree, with
    products reduced by lambda^2 = lambda.  Over any other field the rows are
    (degree b-1 multiplier) x equation products, with formal multiset
    lambda-monomials and no reduction, and the columns are all monomials of
    lambda-degree exactly b.
    """

    field: object
    b: int
    n_lambda: int
    n_cols_R: int
    w: int
    row_labels: list[tuple[LamMono, Optional[tuple[int, ...]]]]
    col_labels: list[Monomial]
    rows: list[dict[int, int]]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.col_labels))

    def dense_rows(self) -> list[list[int]]:
        ncols = len(self.col_labels)
        out = []
        for row in self.rows:
            dense = [0] * ncols
            for idx, c in row.items():
                dense[idx] = c
            out.append(dense)
        return out

    def rank(self) -> int:
        return rank_rows(self.dense_rows(), self.field)

    def apply(self, values: list[int]) -> list[int]:
        """Matrix-vector product against a vector of column values."""
        f = self.field
        out = []
        for row in self.rows:
            acc = f.zero
            for idx, c in row.items():
                v = f.mul(c, values[idx])
                if v:
                    acc = f.add(acc, v)
            out.append(acc)
        return out


CELL_BYTES = 8  # one list reference per cell of ``dense_rows``, its cheapest dense form


class MacaulayTooLarge(MemoryError):
    """The dense form of a Macaulay matrix would exceed physical memory."""

    def __init__(self, shape: tuple[int, int], memory: int):
        self.shape = shape
        super().__init__(
            f"its dense {shape[0]}x{shape[1]} matrix needs "
            f"{shape[0] * shape[1] * CELL_BYTES / 2**30:.3g} GiB, over the "
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
    by degree d, then minor T, then grevlex, so (mu, T) sits at column
    off[d] + tpos[T] * (number of degree-d mu) + (position of mu), read from
    a table of multiplier x lambda_i products without hashing a monomial.
    The equations must be bilinear.  Above F_2 the products of one multiplier
    with distinct terms are distinct; over F_2 lambda_i * mu = mu for i in
    mu, and colliding terms add (XOR).

    Raises MacaulayTooLarge, before any row exists, when the dense form at
    CELL_BYTES per cell would exceed the machine's physical memory.
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
    tpos = {T: i for i, T in enumerate(minors)}
    degs = range(b, 0 if squarefree else b - 1, -1)
    col_labels = [(mu, T) for d in degs for T in minors for mu in mus[d]]
    off = [len(minors) * sum(map(len, mus[d + 1:])) for d in range(b + 1)]
    multipliers = [mu for d in degs for mu in mus[d - 1]]
    shape = (len(system.equations) * len(multipliers), len(col_labels))
    memory = physical_memory()
    if memory is not None and shape[0] * shape[1] * CELL_BYTES > memory:
        raise MacaulayTooLarge(shape, memory)
    places = []  # places[row][i - 1]: first column and T-stride of lambda_i * multiplier
    for mu in multipliers:
        prods = [sorted(set(mu) | {i} if squarefree else mu + (i,)) for i in range(1, N + 1)]
        places.append([(off[len(pr)] + mupos[tuple(pr)], len(mus[len(pr)])) for pr in prods])
    rows: list[dict[int, int]] = []
    for eq in system.equations:
        terms = [(i - 1, tpos[T], c) for ((i,), T), c in eq.terms.items()]
        for place in places:
            if squarefree:
                row: dict[int, int] = {}
                for i, tp, c in terms:
                    idx = place[i][0] + tp * place[i][1]
                    acc = row.pop(idx, 0) ^ c
                    if acc:
                        row[idx] = acc
            else:
                row = {place[i][0] + tp * place[i][1]: c for i, tp, c in terms}
            rows.append(row)
    return MacaulayMatrix(
        field=f, b=b, n_lambda=N, n_cols_R=system.n_cols, w=system.w,
        row_labels=[(mu, eq.J) for eq in system.equations for mu in multipliers],
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
    col_labels: list[Monomial], lam_values: list[int], rT_values: dict[MinorIndex, int], field
) -> list[int]:
    """Evaluate every column monomial at a point (for kernel membership)."""
    out = []
    for mu, T in col_labels:
        v = rT_values.get(T, 0)
        for i in mu:
            if v == 0:
                break
            v = field.mul(v, lam_values[i - 1])
        out.append(v)
    return out


@dataclass
class Syzygy:
    """Relation Sum_J form_J * Q_J = 0 with degree-1 lambda-form entries.

    Duplicating the word row of Delta on rows K (a (w+2)-subset) gives a
    singular square matrix; expanding its determinant along the duplicate row
    produces the relation.  entries maps J = K minus one element to the form
    {lambda index -> coefficient}.
    """

    entries: dict[tuple[int, ...], dict[int, int]]


def build_syzygies(inst: RslInstance, w: int) -> list[Syzygy]:
    p = inst.params
    nk = p.n - p.k
    ext = inst.field
    if not 0 < w + 2 <= nk:
        raise ValueError(f"need w + 2 <= n - k, got w={w}, n-k={nk}")
    out: list[Syzygy] = []
    for K in combinations(range(1, nk + 1), w + 2):
        entries: dict[tuple[int, ...], dict[int, int]] = {}
        for u, ku in enumerate(K, start=1):
            J = tuple(x for x in K if x != ku)
            positive = (w + u) % 2 == 0
            form: dict[int, int] = {}
            for i in range(p.N):
                s = inst.S[ku - 1, i]
                if s == 0:
                    continue
                form[i + 1] = s if positive else ext.neg(s)
            entries[J] = form
        out.append(Syzygy(entries=entries))
    return out


def apply_syzygy(syz: Syzygy, system: BilinearSystem) -> dict[Monomial, int]:
    """Formal product Sum_J form_J * Q_J with multiset lambda-monomials and no
    reduction; returns the surviving terms (empty for a true relation)."""
    f = system.field
    eq_by_J = {eq.J: eq for eq in system.equations}
    acc: dict[Monomial, int] = {}
    for J, form in syz.entries.items():
        eq = eq_by_J[J]
        for i, ci in form.items():
            for (lam, T), c in eq.terms.items():
                key = (tuple(sorted(lam + (i,))), T)
                v = f.add(acc.get(key, f.zero), f.mul(ci, c))
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
    return acc


def syzygy_stack_rows(
    syzygies: list[Syzygy], system: BilinearSystem
) -> list[list[int]]:
    """Coefficient matrix of the syzygies: one row per relation, one column
    per (J, lambda index) pair, for independence checks."""
    nk_cols = [eq.J for eq in system.equations]
    index = {
        (J, i): t
        for t, (J, i) in enumerate(
            (J, i) for J in nk_cols for i in range(1, system.n_lambda + 1)
        )
    }
    rows = []
    for syz in syzygies:
        row = [0] * len(index)
        for J, form in syz.entries.items():
            for i, c in form.items():
                row[index[(J, i)]] = c
        rows.append(row)
    return rows
