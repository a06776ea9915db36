"""Solving the bilinear system and recovering the secret support.

Pipeline: shorten the instance per the chosen strategy, build and unfold the
minor equations, stack the Macaulay matrix at growing degree b (over F_2 the
squarefree one of lambda-degrees 1..b, above F_2 the one of lambda-degree
exactly b, the matrices whose shapes ``estimator.make_counts`` counts), take
its right kernel, split the unique projective solution back into
(lambda, r_T), invert the Plucker coordinates into an echelon-form matrix,
then solve a final linear system for the support basis.

Verification caveat: a support candidate is checked against the original
instance, never the shortened view.  Shortening drops coordinates that the
individual error vectors do need, so the per-syndrome solvability test is
meaningless on the view.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .estimator import bit_cost
from .fields import prime_field
from .instance import (
    RslInstance,
    SecretWitness,
    StrategyParams,
    shorten,
    truncate_syndromes,
    verify_support,
)
from .matrix import FieldMatrix, column_space_basis, kernel_rows, solve_rows
from .modeling import (
    MacaulayMatrix,
    Monomial,
    build_macaulay,
    build_system,
    unfold_system,
)


class NoSolutionError(RuntimeError):
    """The Macaulay matrix has a trivial kernel: no word of this weight."""


class UnderdeterminedError(RuntimeError):
    """Kernel dimension above 1: not enough equations at this degree."""

    def __init__(self, message: str, kernel_dim: int):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class ExtractionError(RuntimeError):
    """Kernel vector does not decompose into a single (lambda, R) pair."""


@dataclass
class KernelSolution:
    field: object
    col_labels: list[Monomial]
    vector: list[int]
    n_lambda: int

    def values(self) -> dict[Monomial, int]:
        return dict(zip(self.col_labels, self.vector))


def solve_linearized(mac: MacaulayMatrix) -> KernelSolution:
    """Right kernel of the Macaulay matrix, expected one-dimensional."""
    basis = kernel_rows(mac.dense_rows(), mac.field, len(mac.col_labels))
    dim = len(basis)
    if dim == 0:
        raise NoSolutionError("no solution at this weight and strategy")
    if dim > 1:
        raise UnderdeterminedError(
            f"kernel dimension {dim}: insufficient equations, "
            "increase b or shorten more",
            dim,
        )
    return KernelSolution(
        field=mac.field,
        col_labels=list(mac.col_labels),
        vector=basis[0],
        n_lambda=mac.n_lambda,
    )


def rank1_extract(sol: KernelSolution) -> tuple[list[int], dict[tuple[int, ...], int]]:
    """Split the block Z[i, T] = lambda_{i0}^(d-1) lambda_i r_T of the lowest
    lambda-degree d among the columns into an outer product lambda * rT.

    i0 is any lambda index of a nonzero degree-d column, so lambda_{i0} is
    nonzero and Z is the bi-degree (1,1) block times one scalar; for d = 1
    it is that block.  The first nonzero lambda entry is normalized to 1.
    Every entry of Z is re-checked against the product; any mismatch means
    the block has rank at least 2 (multiple distinct solutions folded into
    one kernel vector).
    """
    f = sol.field
    d = min(len(mu) for mu, _ in sol.col_labels)
    values = sol.values()
    i0 = next((mu[0] for (mu, _), v in values.items() if len(mu) == d and v), None)
    if i0 is None:
        raise ExtractionError("no nonzero solution in the bilinear block")
    minors = {T for mu, T in sol.col_labels if len(mu) == d}
    Z = {
        (i, T): values.get((tuple(sorted((i0,) * (d - 1) + (i,))), T), 0)
        for i in range(1, sol.n_lambda + 1)
        for T in minors
    }
    T0 = max((T for (_, T), v in Z.items() if v), default=None)
    if T0 is None:
        raise ExtractionError("the block vanishes: the kernel vector is no product")
    pivot_rows = [i for i in range(1, sol.n_lambda + 1) if Z.get((i, T0))]
    i_first = pivot_rows[0]
    inv_p = f.inv(Z[(i_first, T0)])
    lam = [f.mul(Z.get((i, T0), 0), inv_p) for i in range(1, sol.n_lambda + 1)]
    rT = {T: Z.get((i_first, T), 0) for T in minors}
    for i in range(1, sol.n_lambda + 1):
        li = lam[i - 1]
        for T in minors:
            if Z.get((i, T), 0) != f.mul(li, rT[T]):
                raise ExtractionError(
                    "bilinear block has rank >= 2; the kernel mixes several "
                    "solutions (raise b or shorten more)"
                )
    return lam, rT


def plucker_reconstruct(
    rT: dict[tuple[int, ...], int], w: int, n_cols: int, field
) -> FieldMatrix:
    """Invert the maximal-minor map: build the unique w x n_cols matrix in
    reduced echelon profile with pivot set T0 whose minors are proportional
    to the given values.

    T0 is the largest index set with a nonzero value.  Entries off the pivot
    columns are signed ratios r_{(T0 minus t_u) + j} / r_{T0}.  All minors of
    the result are checked against the input; a mismatch means the input is
    not the minor vector of any single matrix.
    """
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
    for T0b, v in M.maximal_minors().items():
        T = tuple(t + 1 for t in T0b)
        if v != field.mul(rT.get(T, 0), inv0):
            raise ExtractionError(
                f"minor mismatch at {T}: input is not a consistent minor vector"
            )
    return M


@dataclass
class RecoveredSupport:
    """Candidate support subspace."""

    C: FieldMatrix  # m x d canonical column basis over F_q
    d: int
    verified: bool


def recover_support(
    inst: RslInstance,
    lam_values: list[int],
    Rt: FieldMatrix,
    verify_on: Optional[RslInstance] = None,
) -> RecoveredSupport:
    """Solve for the support basis C from the identity
    Sum_i lambda_i s_i = beta C (Rt H^T), beta = (1, z, .., z^(m-1)).

    inst is the (shortened) instance the extraction ran on; verification runs
    against verify_on when given (the attack passes the original instance,
    where per-syndrome preimages actually exist).
    """
    p = inst.params
    ext = inst.field
    fq = prime_field(p.q)
    if not any(lam_values):
        raise ExtractionError("zero lambda vector")
    w = Rt.nrows
    nk = p.n - p.k
    target = []
    for u in range(nk):
        acc = ext.zero
        for i, li in enumerate(lam_values):
            if li:
                acc = ext.add(acc, ext.mul(li, inst.S[u, i]))
        target.append(acc)
    P = FieldMatrix(ext, Rt.rows).mul(inst.H.transpose())
    zpow = [pow(p.q, ell) for ell in range(p.m)]  # z^ell as element tokens
    rows: list[list[int]] = []
    rhs: list[int] = []
    for u in range(nk):
        coeffs = [
            ext.unfold(ext.mul(zpow[ell], P[c, u]))
            for c in range(w)
            for ell in range(p.m)
        ]
        tdig = ext.unfold(target[u])
        for jd in range(p.m):
            rows.append([cf[jd] for cf in coeffs])
            rhs.append(tdig[jd])
    x = solve_rows(rows, rhs, fq, w * p.m)
    if x is None:
        raise ExtractionError(
            "support system inconsistent: extraction was spurious"
        )
    C = FieldMatrix(
        fq, [[x[c * p.m + ell] for c in range(w)] for ell in range(p.m)]
    )
    basis = column_space_basis(C)
    d = basis.ncols
    if d == 0:
        raise ExtractionError("recovered support is zero")
    check_inst = verify_on if verify_on is not None else inst
    return RecoveredSupport(
        C=basis,
        d=d,
        verified=verify_support(check_inst, basis),
    )


def rotate_information_columns(inst: RslInstance, offset: int) -> RslInstance:
    """Cyclically permute the first k columns of H.  The code is the same up
    to coordinate relabeling and the support is unchanged, but shortening the
    rotated instance removes a different column set."""
    p = inst.params
    if p.k == 0 or offset % p.k == 0:
        return inst
    o = offset % p.k
    perm = list(range(o, p.k)) + list(range(o)) + list(range(p.k, p.n))
    H = inst.H.submatrix(range(p.n - p.k), perm)
    return RslInstance(
        params=p, field=inst.field, H=H, S=inst.S, shortened_by=inst.shortened_by
    )


def planted_solution(
    witness: SecretWitness, strategy: StrategyParams, n: int, q: int
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
    rows = [
        [R_list[i][rho, j] for i in range(Np)]
        for rho in range(r)
        for j in range(a)
    ]
    basis = kernel_rows(rows, fq, Np)
    if not basis:
        raise ExtractionError("no combination vanishes on the shortened columns")
    lam = basis[0]
    acc_rows = []
    for rho in range(r):
        row = []
        for j in range(a, n):
            s = 0
            for i, li in enumerate(lam):
                if li and R_list[i][rho, j]:
                    s = fq.add(s, fq.mul(li, R_list[i][rho, j]))
            row.append(s)
        acc_rows.append(row)
    Rt = FieldMatrix(fq, acc_rows)
    rT = {tuple(t + 1 for t in T): v for T, v in Rt.maximal_minors().items()}
    return lam, rT, Rt


@dataclass
class AttackResult:
    success: bool
    support: Optional[RecoveredSupport]
    verified: bool
    strategy: StrategyParams
    b_history: list[dict]
    attempts: int
    message: str
    elapsed_s: float

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
            "support_dim": self.support.d if self.support else 0,
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
) -> Optional[RecoveredSupport]:
    rotated = rotate_information_columns(inst, offset)
    sh = shorten(rotated, strategy.a)
    sh = truncate_syndromes(sh, strategy.N_prime)
    system = build_system(sh, strategy.w)
    unfolded = unfold_system(system)
    fq = unfolded.field
    for b in range(1, b_max + 1):
        if fq.q > 2 and b >= fq.q:
            break  # mirrors estimator.is_feasible, which calls no b >= q feasible
        mac = build_macaulay(unfolded, b)
        entry = {
            "offset": offset,
            "b": b,
            "rows": mac.shape[0],
            "cols": mac.shape[1],
        }
        try:
            sol = solve_linearized(mac)
        except UnderdeterminedError as exc:
            entry["kernel_dim"] = exc.kernel_dim
            history.append(entry)
            continue
        except NoSolutionError:
            entry["kernel_dim"] = 0
            history.append(entry)
            return None
        entry["kernel_dim"] = 1
        try:
            lam, rT = rank1_extract(sol)
            Rt = plucker_reconstruct(rT, strategy.w, sh.params.n, fq)
            rec = recover_support(sh, lam, Rt, verify_on=inst)
        except ExtractionError as exc:
            entry["extraction_error"] = str(exc)
            history.append(entry)
            continue
        history.append(entry)
        return rec
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
    started = time.monotonic()
    p = inst.params
    if max_attempts is None:
        max_attempts = 1 if strategy.delta == 0 else max(4, 2 * p.r)
    history: list[dict] = []
    union: Optional[FieldMatrix] = None
    attempts = 0
    # rotating the information columns by t makes shortening drop a different
    # column window; k rotations exhaust the distinct windows
    for offset in range(min(max_attempts, max(p.k, 1))):
        attempts += 1
        rec = _attempt(inst, strategy, b_max, offset, history)
        if rec is None:
            continue
        union = rec.C if union is None else column_space_basis(union.hstack(rec.C))
        if union.ncols >= p.r:
            break
    elapsed = time.monotonic() - started
    if union is None:
        counts = bit_cost(p, strategy, max(b_max, 1)).to_dict()
        dim_note = next(
            (h["kernel_dim"] for h in reversed(history) if "kernel_dim" in h), None
        )
        return AttackResult(
            success=False,
            support=None,
            verified=False,
            strategy=strategy,
            b_history=history,
            attempts=attempts,
            message=(
                f"no recovery up to b={b_max}: last kernel dim {dim_note}, "
                f"N_leq_b={counts['N_leq_b']}, M_leq_b={counts['M_leq_b']}"
            ),
            elapsed_s=elapsed,
        )
    verified = verify_support(inst, union)
    support = RecoveredSupport(C=union, d=union.ncols, verified=verified)
    success = verified and union.ncols == p.r
    message = "support recovered" if success else (
        f"partial support of dimension {union.ncols}"
        + ("" if verified else " (verification failed)")
    )
    return AttackResult(
        success=success,
        support=support,
        verified=verified,
        strategy=strategy,
        b_history=history,
        attempts=attempts,
        message=message,
        elapsed_s=time.monotonic() - started,
    )
