"""Ground truth that only the tests read: the canonical syndrome preimages
of an instance and the planted point of a shortened system, built from the
secret witness."""

import numpy as np

from rslminors.fields import prime_field
from rslminors.instance import RslInstance, SecretWitness, StrategyParams
from rslminors.matrix import FieldMatrix, kernel_rows
from rslminors.solver import ExtractionError


def y_vector(inst: RslInstance, i: int) -> list[int]:
    """Canonical preimage of syndrome i: zero on the first k coordinates,
    the syndrome itself on the identity block."""
    return [0] * inst.params.k + inst.S.col(i)


def planted_solution(
    witness: SecretWitness, strategy: StrategyParams, q: int
) -> tuple[list[int], dict[tuple[int, ...], int], FieldMatrix]:
    """Ground-truth point of the shortened system, from the secret witness.

    Only for the full-weight strategy (w = r): lambda is any kernel vector of
    the stacked first-a-column blocks of the R_i (so the combined word
    vanishes on the dropped coordinates), and the minor values are those of
    Rt = Sum_i lambda_i R_i[:, a:].  Returns (lambda, minor values, Rt).
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
    rT = {tuple(t + 1 for t in T): v for T, v in Rt.maximal_minors().items()}
    return lam, rT, Rt
