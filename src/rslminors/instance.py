"""Rank Support Learning instances.

An instance is a systematic parity-check matrix H = [A | I] of size
(n-k) x n over F_{q^m} together with N syndromes s_i = H e_i^T, where every
error e_i has all its entries inside one secret r-dimensional F_q-subspace V
of F_{q^m}.  The attacker sees (H, S); the planted witness keeps the support
basis C (an m x r matrix over F_q whose columns are the coordinates of a
basis of V) and the coordinate matrices R_i with e_i = beta C R_i, where
beta = (1, z, ..., z**(m-1)).

The problem is interesting for N < k r; for N >= k r the support leaks from
plain linear algebra and instances carry an easy-regime flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import ExtensionField, extension_field, is_prime, prime_field
from .matrix import FieldMatrix, TokenArrays, column_space_basis, pivot_columns, rank_rows


@dataclass(frozen=True)
class RslParams:
    q: int
    m: int
    n: int
    k: int
    r: int
    N: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if not 0 < self.r <= min(self.m, self.n):
            raise ValueError(f"need 0 < r <= min(m, n), got r={self.r}")
        if self.N < 1:
            raise ValueError("N must be at least 1")

    @property
    def easy_regime(self) -> bool:
        """True when N >= k r, where the support is recoverable by direct
        linear algebra and the algebraic attack is overkill."""
        return self.N >= self.k * self.r


@dataclass
class SecretWitness:
    """Planted secret of a generated instance."""

    C: FieldMatrix  # m x r over F_q, full column rank
    R_list: list[FieldMatrix]  # N matrices, r x n over F_q

    def support_basis(self) -> FieldMatrix:
        """Canonical m x r basis of V = column span of C over F_q."""
        return column_space_basis(self.C)


@dataclass
class RslInstance:
    params: RslParams
    field: ExtensionField
    H: FieldMatrix  # (n-k) x n over F_{q^m}, systematic [A | I]
    S: FieldMatrix  # (n-k) x N over F_{q^m}

    def __post_init__(self):
        p = self.params
        if self.H.nrows != p.n - p.k or self.H.ncols != p.n:
            raise ValueError("H has wrong shape")
        if self.S.nrows != p.n - p.k or self.S.ncols != p.N:
            raise ValueError("S has wrong shape")
        if not self.is_systematic():
            raise ValueError("H is not in systematic form [A | I]")

    def is_systematic(self) -> bool:
        p = self.params
        nk = p.n - p.k
        for i in range(nk):
            for j in range(nk):
                want = 1 if i == j else 0
                if self.H[i, p.k + j] != want:
                    return False
        return True


@dataclass(frozen=True)
class StrategyParams:
    """Shortening strategy for the attack.

    delta = 0 targets words of full weight r in the code augmented by all N'
    errors, with the unique shortening length a satisfying a r < N.  delta > 0
    lowers the target weight to w = r - delta, which needs
    N >= delta (n - r + delta) to leave a solution, and frees the choice of a.
    """

    delta: int
    w: int
    a: int
    N_prime: int

    def __post_init__(self):
        if self.delta < 0 or self.w < 1 or self.a < 0 or self.N_prime < 1:
            raise ValueError("invalid strategy")


def strategy_params(
    params: RslParams, delta: int = 0, a_override: Optional[int] = None
) -> StrategyParams:
    """Derive the shortening strategy for a given delta.

    delta = 0: a is forced by a r < N <= (a+1) r, capped at k - 1 so the
    shortened code keeps dimension k - a >= 1, and only N' = a r + 1
    syndromes are kept.  delta > 0: w = r - delta,
    N' = delta (n - r + delta) + a (r - delta) with a maximal subject to
    N' <= N, a <= k - 1 and a <= n - r (the shortened code stays at least r
    long) unless overridden.  Either way the target weight must stay below
    n - k: the minor system has no equations otherwise.
    """
    n, k, r, N = params.n, params.k, params.r, params.N
    if delta < 0 or delta >= r:
        raise ValueError(f"delta must be in [0, r), got {delta}")
    w = r - delta
    if w >= n - k:
        raise ValueError(f"no minor equations: need w < n-k, got w={w}, n-k={n - k}")
    if delta == 0:
        if a_override is not None:
            raise ValueError("a is determined when delta = 0")
        a = (N + r - 1) // r - 1
        a = min(a, k - 1)
        return StrategyParams(delta=0, w=w, a=a, N_prime=a * r + 1)
    base = delta * (n - r + delta)
    if N < base:
        raise ValueError(
            f"delta={delta} infeasible: N={N} < delta*(n-r+delta)={base}"
        )
    a_max = min((N - base) // w, k - 1, n - r)
    a = a_max if a_override is None else a_override
    if not 0 <= a <= a_max:
        raise ValueError(f"a={a} outside feasible range [0, {a_max}]")
    return StrategyParams(delta=delta, w=w, a=a, N_prime=base + a * w)


def gen_instance(params: RslParams, seed: int) -> tuple[RslInstance, SecretWitness]:
    """Generate a uniformly random instance with a planted support.

    Deterministic in (params, seed).  The support basis C is resampled until
    it has full column rank r.
    """
    rng = random.Random(seed)
    ext = extension_field(params.q, params.m)
    fq = prime_field(params.q)
    for _ in range(200):
        C = FieldMatrix.random(fq, params.m, params.r, rng)
        if rank_rows(C.rows, fq) == params.r:
            break
    else:
        raise RuntimeError("could not sample a full-rank support basis")
    R_list = [
        FieldMatrix.random(fq, params.r, params.n, rng) for _ in range(params.N)
    ]
    nk = params.n - params.k
    A = FieldMatrix.random(ext, nk, params.k, rng)
    ops = TokenArrays.of(ext)
    # E[j, i] = e_i[j]: the columns of the F_q product C R_i, folded into tokens
    R = np.array([Ri.rows for Ri in R_list], dtype=np.int64)
    digits = np.einsum("cr,irj->jic", np.array(C.rows, dtype=np.int64), R) % params.q
    E = digits @ np.array([params.q**c for c in range(params.m)], dtype=ops.dtype)
    # H = [A | I], so S = A E[:k] + E[k:]
    S = ops.add(ops.dot(np.array(A.rows, dtype=ops.dtype), E[: params.k]), E[params.k :])
    H = A.hstack(FieldMatrix(ext, np.eye(nk, dtype=np.int64).tolist()))
    inst = RslInstance(params=params, field=ext, H=H, S=FieldMatrix(ext, S.tolist()))
    return inst, SecretWitness(C=C, R_list=R_list)


def check_assumption1(inst: RslInstance, w: int) -> bool:
    """True when the top n-k-w rows of the syndrome matrix have full rank
    over F_{q^m}; the echelonization of the bilinear system requires it."""
    nk = inst.params.n - inst.params.k
    if not 0 < w < nk:
        raise ValueError(f"need 0 < w < n-k, got w={w}")
    top = inst.S.rows[: nk - w]
    return rank_rows(top, inst.field) == nk - w


def shorten(inst: RslInstance, keep: Sequence[int], n_syndromes: int) -> RslInstance:
    """The view the attack solves: H on the information columns listed in
    keep (0-based, in that order) followed by its identity block, and the
    first n_syndromes syndromes.

    Dropping information columns shortens the code (n -> n-k+len(keep),
    k -> len(keep)) and leaves H systematic; the syndromes are unchanged,
    because the canonical preimages are zero on the dropped coordinates.
    The order of keep relabels coordinates, so the support is unchanged too.
    """
    p = inst.params
    keep = list(keep)
    if len(set(keep)) != len(keep) or not all(0 <= j < p.k for j in keep):
        raise ValueError(f"keep must list distinct information columns in [0, {p.k})")
    if not 0 < n_syndromes <= p.N:
        raise ValueError(f"cannot keep {n_syndromes} of {p.N} syndromes")
    nk = p.n - p.k
    new_params = RslParams(q=p.q, m=p.m, n=len(keep) + nk, k=len(keep), r=p.r, N=n_syndromes)
    H = inst.H.submatrix(range(nk), keep + list(range(p.k, p.n)))
    S = inst.S.submatrix(range(nk), range(n_syndromes))
    return RslInstance(params=new_params, field=inst.field, H=H, S=S)


def verify_support(inst: RslInstance, v_basis: FieldMatrix) -> bool:
    """Check that every syndrome admits a preimage with entries in span(V).

    v_basis is an m x d matrix over F_q whose columns are coordinates of a
    basis of a candidate subspace.  Solvability of H e^T = s_i^T with every
    entry of e restricted to the span is a linear question over F_q; it is
    decided for all syndromes at once by one elimination of the coefficient
    matrix with the unfolded syndromes appended as columns: they are all
    solvable exactly when no pivot falls in a syndrome column.
    """
    p = inst.params
    ext = inst.field
    d = v_basis.ncols
    if v_basis.nrows != p.m:
        raise ValueError("support basis must have m rows")
    ops = TokenArrays.of(ext)
    span = np.array([ext.fold(v_basis.col(t)) for t in range(d)], dtype=ops.dtype)
    H = np.array(inst.H.rows, dtype=ops.dtype)
    # the unknown x[j, t], coordinate t of entry j of e, has column j*d + t;
    # row u*m + c is digit c of equation u
    coeffs = ops.mul(H[:, :, None], span).reshape(len(H), p.n * d)
    aug = np.concatenate((coeffs, np.array(inst.S.rows, dtype=ops.dtype)), axis=1)
    rows = ext.unfold_array(aug).reshape(len(H) * p.m, aug.shape[1])
    return all(c < p.n * d for c in pivot_columns(rows, prime_field(p.q)))
