"""Ground truth that only the tests read: the canonical syndrome preimages
of an instance, the planted point of a shortened system, built from the
secret witness, and the scalar rank-1 extraction and Plucker inversion,
which key the minors by their 1-based column tuples."""

from itertools import combinations

import numpy as np

from rslminors.fields import prime_field
from rslminors.instance import RslInstance, SecretWitness, StrategyParams
from rslminors.matrix import FieldMatrix, kernel_rows, minor_table
from rslminors.solver import ExtractionError


def y_vector(inst: RslInstance, i: int) -> list[int]:
    """Canonical preimage of syndrome i: zero on the first k coordinates,
    the syndrome itself on the identity block."""
    return [0] * inst.params.k + inst.S.col(i)


def minor_dict(rT, n_cols: int, w: int) -> dict[tuple[int, ...], int]:
    """A minor vector in ``combinations`` order keyed by its 1-based column
    tuples, the format of the scalar oracles."""
    return dict(zip(combinations(range(1, n_cols + 1), w), rT))


def planted_solution(
    witness: SecretWitness, strategy: StrategyParams, q: int
) -> tuple[list[int], np.ndarray, FieldMatrix]:
    """Ground-truth point of the shortened system, from the secret witness.

    Only for the full-weight strategy (w = r): lambda is any kernel vector of
    the stacked first-a-column blocks of the R_i (so the combined word
    vanishes on the dropped coordinates), and the minor values are those of
    Rt = Sum_i lambda_i R_i[:, a:], in ``combinations`` order.  Returns
    (lambda, minor values, Rt).
    """
    fq = prime_field(q)
    r = witness.C.ncols
    if strategy.w != r:
        raise ValueError("planted point construction needs w = r (delta = 0)")
    a, Np = strategy.a, strategy.N_prime
    R_list = witness.R_list[:Np]
    if len(R_list) < Np:
        raise ValueError(f"witness has {len(R_list)} coordinate blocks, need {Np}")
    R = np.array([Ri.rows for Ri in R_list], dtype=np.int64)  # R[i, rho, j]
    basis = kernel_rows(R[:, :, :a].transpose(1, 2, 0).reshape(r * a, Np).tolist(), fq, Np)
    if not basis:
        raise ExtractionError("no combination vanishes on the shortened columns")
    lam = basis[0]
    Rt = FieldMatrix(fq, (np.tensordot(lam, R[:, :, a:], axes=1) % q).tolist())
    return lam, minor_table(Rt.rows, fq, r)[0], Rt


def rank1_extract(mac, vector):
    """Scalar oracle of ``solver.rank1_extract``: lambda as a list and rT as
    a dict keyed by the minors of the lowest-degree columns."""
    f = mac.field
    d = min(len(mu) for mu, _ in mac.col_labels)
    values = dict(zip(mac.col_labels, vector))
    i0 = next((mu[0] for (mu, _), v in values.items() if len(mu) == d and v), None)
    if i0 is None:
        raise ExtractionError("no nonzero solution in the bilinear block")
    minors = {T for mu, T in mac.col_labels if len(mu) == d}
    Z = {
        (i, T): values.get((tuple(sorted((i0,) * (d - 1) + (i,))), T), 0)
        for i in range(1, mac.n_lambda + 1)
        for T in minors
    }
    T0 = max((T for (_, T), v in Z.items() if v), default=None)
    if T0 is None:
        raise ExtractionError("the block vanishes: the kernel vector is no product")
    pivot_rows = [i for i in range(1, mac.n_lambda + 1) if Z.get((i, T0))]
    i_first = pivot_rows[0]
    inv_p = f.inv(Z[(i_first, T0)])
    lam = [f.mul(Z.get((i, T0), 0), inv_p) for i in range(1, mac.n_lambda + 1)]
    rT = {T: Z.get((i_first, T), 0) for T in minors}
    for i in range(1, mac.n_lambda + 1):
        li = lam[i - 1]
        for T in minors:
            if Z.get((i, T), 0) != f.mul(li, rT[T]):
                raise ExtractionError(
                    "bilinear block has rank >= 2; the kernel mixes several "
                    "solutions (raise b or shorten more)"
                )
    return lam, rT


def plucker_reconstruct(rT, w, n_cols, field):
    """Scalar oracle of ``solver.plucker_reconstruct`` on a dict of minors
    keyed by 1-based column tuples, absent keys zero."""
    nonzero = [T for T, v in rT.items() if v]
    if not nonzero:
        raise ExtractionError("all minors are zero")
    T0 = max(nonzero)
    if len(T0) != w:
        raise ValueError(f"minor index size {len(T0)} does not match w={w}")
    inv0 = field.inv(rT[T0])
    t0set = set(T0)
    rows = [[0] * n_cols for _ in range(w)]
    for u, t in enumerate(T0, start=1):
        rows[u - 1][t - 1] = 1
    for j in range(1, n_cols + 1):
        if j in t0set:
            continue
        for u, t in enumerate(T0, start=1):
            T = tuple(sorted((t0set - {t}) | {j}))
            val = rT.get(T, 0)
            if not val:
                continue
            c = T.index(j) + 1
            x = field.mul(val, inv0)
            if (u + c) % 2 == 1:
                x = field.neg(x)
            rows[u - 1][j - 1] = x
    M = FieldMatrix(field, rows)
    minors = minor_table(rows, field, w)[0].tolist()
    for T, v in zip(combinations(range(1, n_cols + 1), w), minors):
        if v != field.mul(rT.get(T, 0), inv0):
            raise ExtractionError(
                f"minor mismatch at {T}: input is not a consistent minor vector"
            )
    return M
