"""Solving the bilinear system and recovering the secret support.

Pipeline: shorten the instance per the chosen strategy, build and unfold the
minor equations, stack the Macaulay matrix at growing degree b (over F_2 the
squarefree one of lambda-degrees 1..b, above F_2 the one of lambda-degree
exactly b, the matrices whose shapes ``estimator.make_counts`` counts), take
the basis of its right kernel, and branch on its length: none ends the
attempt, several raise b, and one is the projective solution.  Several
often means several true solutions, not too few equations, and raising b
does not shrink such a kernel (ROADMAP item 1).  The one vector
splits back into (lambda, r_T), the Plucker coordinates invert into an
echelon-form matrix, and one linear solve over F_{q^m} gives the support
basis.  Above F_2, b may reach and pass q, as the estimator's count rule
allows on every field; a degree whose dense matrix would not fit in
physical memory ends the attempt before anything is allocated.

Verification caveat: ``attack`` checks the union of the recovered bases once,
against the original instance, never the shortened view.  Shortening drops
coordinates that the individual error vectors do need, so the per-syndrome
solvability test is meaningless on the view.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimator import bit_cost
from .fields import PrimeField
from .instance import (
    RslInstance,
    StrategyParams,
    shorten,
    verify_support,
)
from .matrix import FieldMatrix, TokenArrays, column_space_basis, kernel_rows, solve_rows
from .matrix import laplace_index, minor_table
from .modeling import (
    MacaulayMatrix,
    MacaulayTooLarge,
    build_macaulay,
    build_system,
    unfold_system,
)


class ExtractionError(RuntimeError):
    """Kernel vector does not decompose into a single (lambda, R) pair."""


# rows beyond the column count that the kernel of a tall Macaulay matrix
# is first taken on
SLACK = 16


def solve_linearized(mac: MacaulayMatrix) -> list[list[int]]:
    """Basis of the right kernel of the Macaulay matrix.  Its own function
    so that a trace can tell the attack's kernels from any other.

    Over F_q, q <= 2^16, a matrix with more than cols + ``SLACK`` rows is
    first solved on a sample of cols + ``SLACK`` of them, drawn with a fixed
    seed and kept in their order, as the estimator's cost discards the
    surplus rows.  The sample's kernel contains the matrix's, so when every
    vector of its basis vanishes on all rows, the two kernels, and their
    bases, are equal.  Otherwise the kernel of all rows is taken.
    """
    rows = mac.dense_rows()
    ncols = len(mac.col_labels)
    f = mac.field
    if isinstance(f, PrimeField) and f.q <= 1 << 16 and len(rows) > ncols + SLACK:
        basis = kernel_rows([rows[i] for i in _row_sample(len(rows), ncols + SLACK)], f, ncols)
        if all(_vanishes(mac.rows, v, f.q) for v in basis):
            return basis
    return kernel_rows(rows, f, ncols)


@functools.cache
def _row_sample(nrows: int, size: int) -> tuple[int, ...]:
    """``size`` of ``nrows`` row indices, ascending, drawn with seed 0; kept,
    as every matrix of one shape takes the same sample."""
    return tuple(sorted(random.Random(0).sample(range(nrows), size)))


def _vanishes(rows: np.ndarray, v: list[int], q: int) -> bool:
    """Whether M v = 0 over F_q, M the digits ``rows``: the columns of v's
    support, 64 at a time, weighted by v and summed in int64, exact for
    q <= 2^16.  ``einsum`` casts the digits in its own buffers, so no int64
    copy of the rows is made."""
    v = np.array(v, dtype=np.int64)
    support = np.flatnonzero(v)
    acc = np.zeros(len(rows), dtype=np.int64)
    for i in range(0, len(support), 64):
        cols = support[i : i + 64]
        acc += np.einsum("ij,j->i", rows[:, cols], v[cols], dtype=np.int64)
    return not np.any(acc % q)


def rank1_extract(mac: MacaulayMatrix, vector: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split the block Z[i, t] = lambda_{i0}^(d-1) lambda_i r_T of a kernel
    vector, read at the lowest lambda-degree d among the matrix's columns,
    into an outer product lambda x rT, T the t-th minor in ``combinations``
    order.

    ``build_macaulay`` lays the degree-d columns out last, as a (minors x
    degree-d monomials) block with the minors descending.  i0 is the first
    lambda index of the first nonzero degree-d column, so lambda_{i0} is
    nonzero and Z is the bi-degree (1,1) block times one scalar; for d = 1
    it is that block.  At the first nonzero entry Z[i, t], rT is row i and
    lambda is column t over that entry, so lambda's first nonzero entry is
    1; on a product Z every nonzero column t gives the same pair.  Z is
    compared with the product as a whole: a mismatch means the block has
    rank at least 2 (multiple distinct solutions folded into one kernel
    vector).
    """
    f = mac.field
    ops = TokenArrays.of(f)
    minors = math.comb(mac.n_cols_R, mac.w)
    d = len(mac.col_labels[-1][0])
    count = sum(len(mu) == d for mu, _ in mac.col_labels) // minors
    mus = [mu for mu, _ in mac.col_labels[-count:]]
    block = np.array(vector[-count * minors:], dtype=ops.dtype).reshape(minors, count)
    nonzero = np.flatnonzero(block != 0)
    if not len(nonzero):
        raise ExtractionError("no nonzero solution in the bilinear block")
    i0 = mus[nonzero[0] % count][0]
    row_mus = [tuple(sorted((i0,) * (d - 1) + (i,))) for i in range(1, mac.n_lambda + 1)]
    Z = block[::-1, [mus.index(mu) for mu in row_mus]].T
    nonzero = np.flatnonzero(Z != 0)
    if not len(nonzero):
        raise ExtractionError("the block vanishes: the kernel vector is no product")
    i, t = divmod(nonzero[0], minors)
    lam, rT = ops.mul(Z[:, t], f.inv(Z[i, t])), Z[i]
    if np.any(ops.mul(lam[:, None], rT) != Z):
        raise ExtractionError(
            "bilinear block has rank >= 2; the kernel mixes several "
            "solutions (raise b or shorten more)"
        )
    return lam, rT


def plucker_reconstruct(rT: np.ndarray, w: int, n_cols: int, field) -> FieldMatrix:
    """Invert the maximal-minor map: build the unique w x n_cols matrix in
    reduced echelon profile with pivot set T0 whose minors are proportional
    to the given values, rT[t] the minor on the t-th w-subset T of
    {1..n_cols} in ``combinations`` order.

    T0 is the last subset with a nonzero value.  Row u holds, at the one
    column j of each subset T = (T0 minus t_u) + j, the signed ratio
    (-1)^(u+c) r_T / r_{T0}, c the position of j in T; T = T0 puts the pivot
    1.  All minors of the result are checked against the input; a mismatch
    means the input is not the minor vector of any single matrix.
    """
    ops = TokenArrays.of(field)
    rT = np.array(rT, dtype=ops.dtype)
    nonzero = np.flatnonzero(rT != 0)
    if not len(nonzero):
        raise ExtractionError("all minors are zero")
    if len(rT) != math.comb(n_cols, w):
        raise ValueError(f"need C({n_cols}, {w}) minors for w={w}, got {len(rT)}")
    pick, drop = laplace_index(n_cols, w)
    t0 = nonzero[-1]
    scaled = ops.mul(rT, field.inv(rT[t0]))
    # (t, c, u): subset t is T0 without its u-th column, plus column c of t
    t, c, u = np.nonzero(drop[:, :, None] == drop[t0])
    rows = np.zeros((w, n_cols), dtype=ops.dtype)
    rows[u, pick[t, c]] = np.where((u + c) % 2, ops.neg(scaled[t]), scaled[t])
    Rt = FieldMatrix(field, rows.tolist())
    mismatch = np.flatnonzero(minor_table(Rt.rows, field, w)[0] != scaled)
    if len(mismatch):
        raise ExtractionError(
            f"minor mismatch at {tuple((pick[mismatch[0]] + 1).tolist())}: "
            "input is not a consistent minor vector"
        )
    return Rt


@dataclass
class RecoveredSupport:
    """Support subspace an attack recovered, checked on the original instance."""

    C: FieldMatrix  # m x d canonical column basis over F_q
    verified: bool


def recover_support(
    inst: RslInstance, lam_values: list[int], Rt: FieldMatrix
) -> FieldMatrix:
    """Canonical basis of the support read off one solution point.

    The point's word satisfies Sum_i lambda_i s_i = gamma (Rt H^T) for some
    gamma in F_{q^m}^w, whose entries span the support.  One solve over the
    extension field gives gamma; its coordinates on (1, z, .., z^(m-1)) are
    the columns of C.  inst is the (shortened) instance the extraction ran
    on; the caller verifies the basis against the original instance.
    """
    ext = inst.field
    if not any(lam_values):
        raise ExtractionError("zero lambda vector")
    ops = TokenArrays.of(ext)
    S, H, lam, rt = (
        np.array(x, dtype=ops.dtype) for x in (inst.S.rows, inst.H.rows, [lam_values], Rt.rows)
    )
    target = ops.dot(S, lam.T)[:, 0]
    coeffs = ops.dot(H, rt.T)  # (Rt H^T)^T
    gamma = solve_rows(coeffs.tolist(), target.tolist(), ext, Rt.nrows)
    if gamma is None:
        raise ExtractionError(
            "support system inconsistent: extraction was spurious"
        )
    C = FieldMatrix(Rt.field, [ext.unfold(g) for g in gamma]).transpose()
    basis = column_space_basis(C)
    if basis.ncols == 0:
        raise ExtractionError("recovered support is zero")
    return basis


@dataclass
class AttackResult:
    success: bool
    support: Optional[RecoveredSupport]
    strategy: StrategyParams
    b_history: list[dict]
    attempts: int
    message: str
    elapsed_s: float

    @property
    def verified(self) -> bool:
        return self.support is not None and self.support.verified

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "verified": self.verified,
            "strategy": {
                "delta": self.strategy.delta,
                "w": self.strategy.w,
                "a": self.strategy.a,
                "N_prime": self.strategy.N_prime,
            },
            "support_dim": self.support.C.ncols if self.support else 0,
            "support_basis": self.support.C.rows if self.support else [],
            "b_history": self.b_history,
            "attempts": self.attempts,
            "message": self.message,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _attempt(
    inst: RslInstance,
    strategy: StrategyParams,
    b_max: int,
    offset: int,
    history: list[dict],
) -> Optional[FieldMatrix]:
    # the information columns rotated by offset, the first a of them dropped
    p = inst.params
    sh = shorten(inst, [(offset + j) % p.k for j in range(strategy.a, p.k)], strategy.N_prime)
    system = build_system(sh, strategy.w)
    unfolded = unfold_system(system)
    fq = unfolded.field
    for b in range(1, b_max + 1):
        predicted_rank = bit_cost(p, strategy, b).counts.predicted_rank(p.m)
        started = time.perf_counter()
        try:
            mac = build_macaulay(unfolded, b)
        except MacaulayTooLarge as exc:
            rows, cols = exc.shape
            history.append({"offset": offset, "b": b, "rows": rows, "cols": cols,
                            "skipped": str(exc), "predicted_rank": predicted_rank})
            return None  # every higher degree is larger still
        built = time.perf_counter()
        basis = solve_linearized(mac)
        solved = time.perf_counter()
        rows, cols = mac.shape
        entry = {
            "offset": offset,
            "b": b,
            "rows": rows,
            "cols": cols,
            "kernel_dim": len(basis),
            "rank": cols - len(basis),
            "predicted_rank": predicted_rank,
            "build_s": round(built - started, 3),
            "kernel_s": round(solved - built, 3),
            "nnz": int(np.count_nonzero(mac.rows)),
        }
        history.append(entry)
        if not basis:
            return None  # no word of this weight under this strategy
        if len(basis) > 1:
            # often several true solutions, which a higher degree keeps
            # (ROADMAP item 1), rather than too few equations
            continue
        try:
            lam, rT = rank1_extract(mac, basis[0])
            Rt = plucker_reconstruct(rT, strategy.w, sh.params.n, fq)
            return recover_support(sh, lam, Rt)
        except ExtractionError as exc:
            entry["extraction_error"] = str(exc)
    return None


def attack(
    inst: RslInstance,
    strategy: StrategyParams,
    b_max: int = 3,
    max_attempts: Optional[int] = None,
) -> AttackResult:
    """Full pipeline; for delta > 0 the recovered word only spans part of the
    support, so further runs on rotated shortening sets accumulate subspaces
    until the union has dimension r or attempts run out."""
    if b_max < 1 or (max_attempts is not None and max_attempts < 1):
        raise ValueError(f"need b_max >= 1 and max_attempts >= 1, got {b_max}, {max_attempts}")
    started = time.monotonic()
    p = inst.params
    if max_attempts is None:
        max_attempts = 1 if strategy.delta == 0 else max(4, 2 * p.r)
    history: list[dict] = []
    union: Optional[FieldMatrix] = None
    attempts = 0
    # rotating the information columns by t makes shortening drop a different
    # column window; k rotations exhaust the distinct windows
    for offset in range(min(max_attempts, p.k)):
        attempts += 1
        C = _attempt(inst, strategy, b_max, offset, history)
        if C is None:
            continue
        union = C if union is None else column_space_basis(union.hstack(C))
        if union.ncols >= p.r:
            break
    elapsed = time.monotonic() - started
    if union is None:
        last = history[-1]
        counts = bit_cost(p, strategy, last["b"]).counts
        why = (
            f"b={last['b']} skipped, {last['skipped']}" if "skipped" in last
            else f"last kernel dim {last['kernel_dim']}"
        )
        return AttackResult(
            success=False,
            support=None,
            strategy=strategy,
            b_history=history,
            attempts=attempts,
            message=(
                f"no recovery up to b={b_max}: {why}, "
                f"N_leq_b={counts.N_leq_b}, M_leq_b={counts.M_leq_b}"
            ),
            elapsed_s=elapsed,
        )
    verified = verify_support(inst, union)
    success = verified and union.ncols == p.r
    message = "support recovered" if success else (
        f"partial support of dimension {union.ncols}"
        + ("" if verified else " (verification failed)")
    )
    return AttackResult(
        success=success,
        support=RecoveredSupport(C=union, verified=verified),
        strategy=strategy,
        b_history=history,
        attempts=attempts,
        message=message,
        elapsed_s=time.monotonic() - started,
    )
