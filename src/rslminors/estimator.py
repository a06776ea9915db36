"""Closed-form counting, solvability and bit-cost estimation.

Everything here is exact big-integer combinatorics until the final log2.  The
counts mirror the structure of the equation system: count_Nb is the number of
independent rows of the Macaulay matrix at exact bi-degree (b,1), count_Mb the
number of its columns, each with an f2 flag that keeps squarefree
lambda-monomials only.  count_Nb counts the pairs (mu, I) with
min(mu) < min(I), for every degree and field, in closed form: Vandermonde's
identity, the linearisation of C(x, w) C(x, i) and the hockey stick turn its
sum over min(mu) into O(b min(w, b)) binomials.  It is known not to be the
rank in two cases, over F_2 at b = 3 and at q = 3, b = 2 with small m
(ROADMAP item 2).
The field picks the matrix, and ``make_counts`` keeps one pair, N_leq_b and
M_leq_b, for the matrix the solver builds over it: over F_2 the squarefree
matrix of lambda-degrees 1..b, whose counts it sums over the degrees
j = 1..b, above F_2 the matrix of lambda-degree exactly b.
Linearization is feasible once the independent rows reach the column count
minus one (the solution is projective), on every field and at every degree:
above F_2 the exact-degree matrix is formal, with no reduction by
lambda^q = lambda, so the planted point stays in its kernel at b >= q too.

Cost calibration: Strassen-style elimination is charged (M_leq_b)^omega with
omega = 2.807, as if the surplus rows were discarded first, as the solver's
``solve_linearized`` does on a tall matrix over F_q: it eliminates a sample
of M_leq_b + 16 rows and takes every row only when the sample's kernel fails
its check on the rows left out.  Wiedemann is charged
3 * row_weight * M_leq_b^2 with row_weight = N' * C(k-a+1+w, w).  The
strategy picks the solver, in ``bit_cost`` alone: the fully specialized
search (delta = 0) is charged the dense solve, as the reference table
charges it, and a shortened search (delta > 0) the cheaper of the two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .counting import sphere_size
from .instance import RslParams, StrategyParams, strategy_params

OMEGA = 2.807


@lru_cache(maxsize=None)
def count_Nb(n: int, k: int, w: int, N: int, b: int, f2: bool = False) -> int:
    """Independent equations at exact bi-degree (b,1): the pairs (mu, I)
    with min(mu) < min(I), Theorem 1's leads at b = 1, mu a degree-b
    multiplier monomial and I a w-subset of {1..n-k}.  Over F_2 (f2) mu is a
    squarefree b-set of N+1 indices, P = V = N+1; above it a monomial in N
    indices, P = N+b-1 and V = N.  By v = min(mu), with x = n-k-v, c = b-1,
    D = P-(n-k) and lo = n-k - min(V, n-k-w), the count is

        Sum_{v=1..min(V, n-k-w)} C(x, w) C(P-v, c)
          = Sum_{i<=c} C(D, c-i) Sum_{t<=min(w,i)} C(w+i-t, w) C(w, t)
                [C(n-k, w+i-t+1) - C(lo, w+i-t+1)]

    by Vandermonde, C(P-v, c) = Sum_i C(D, c-i) C(x, i) with C(D, j) =
    (-1)^j C(j-D-1, j) for D < 0; the linearisation C(x, w) C(x, i) =
    Sum_t C(w+i-t, w) C(w, t) C(x, w+i-t); and the hockey stick
    Sum_{x=lo..n-k-1} C(x, j) = C(n-k, j+1) - C(lo, j+1).  The count is not
    always the rank: over F_2 at b = 3 the rank falls short by C(n-k, w+2) on
    the shapes measured, and at q = 3, b = 2 when m is small (ROADMAP item 2).
    """
    if b < 1 or w < 1 or N < 1 or n - k <= w:
        raise ValueError(
            f"need b >= 1, w >= 1, N >= 1, n-k > w, got n-k={n - k}, w={w}, N={N}, b={b}"
        )
    nk = n - k
    P, V = (N + 1, N + 1) if f2 else (N + b - 1, N)
    c, D, lo = b - 1, P - nk, nk - min(V, nk - w)
    binom_D = [math.comb(D, j) if D >= 0 else (-1) ** j * math.comb(j - D - 1, j) for j in range(b)]
    return sum(
        binom_D[c - i] * math.comb(w + i - t, w) * math.comb(w, t)
        * (math.comb(nk, w + i - t + 1) - math.comb(lo, w + i - t + 1))
        for i in range(c + 1)
        for t in range(min(w, i) + 1)
    )


@lru_cache(maxsize=None)
def count_Mb(n_eff: int, w: int, N_eff: int, b: int, f2: bool = False) -> int:
    """Macaulay columns of lambda-degree exactly b, parameters already
    strategy-adjusted; f2 counts squarefree lambda-monomials only."""
    lam = math.comb(N_eff, b) if f2 else math.comb(N_eff + b - 1, b)
    return math.comb(n_eff, w) * lam


@dataclass(frozen=True)
class CountSet:
    """Row and column counts of the solver's Macaulay matrix at one
    strategy-adjusted parameter point."""

    N_leq_b: int
    M_leq_b: int

    def predicted_rank(self, m: int) -> int:
        """The rank law of the matrix unfolded over F_q: its m N_leq_b
        independent rows, capped at M_leq_b - 1 because the planted solution
        stays in the kernel."""
        return min(m * self.N_leq_b, self.M_leq_b - 1)


def make_counts(q: int, n_eff: int, k_eff: int, w: int, N_eff: int, b: int) -> CountSet:
    """Counts of the matrix the solver builds over F_q: the squarefree
    matrix of lambda-degrees 1..b over F_2, the exact-degree-b one above."""
    if q == 2:
        degrees = range(1, b + 1)
        N_leq_b = sum(count_Nb(n_eff, k_eff, w, N_eff, j, f2=True) for j in degrees)
        M_leq_b = sum(count_Mb(n_eff, w, N_eff, j, f2=True) for j in degrees)
    else:
        N_leq_b = count_Nb(n_eff, k_eff, w, N_eff, b)
        M_leq_b = count_Mb(n_eff, w, N_eff, b)
    return CountSet(N_leq_b=N_leq_b, M_leq_b=M_leq_b)


def _counts_for(params: RslParams, strategy: StrategyParams, b: int) -> CountSet:
    a = strategy.a
    return make_counts(params.q, params.n - a, params.k - a, strategy.w, strategy.N_prime, b)


def is_feasible(params: RslParams, counts: CountSet) -> bool:
    """Linearization condition: enough independent rows to leave a line."""
    return counts.predicted_rank(params.m) == counts.M_leq_b - 1


def min_b(
    params: RslParams,
    strategy: StrategyParams,
    b_max: int = 8,
) -> Optional[tuple[int, CountSet]]:
    """Smallest b with a solvable linearization, or None up to b_max."""
    for b in range(1, b_max + 1):
        counts = _counts_for(params, strategy, b)
        if is_feasible(params, counts):
            return b, counts
    return None


@dataclass(frozen=True)
class CostReport:
    delta: int
    w: int
    a: int
    b: int
    algorithm: str
    log2_cost: float
    feasible: bool
    counts: CountSet

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "w": self.w,
            "a": self.a,
            "b": self.b,
            "algorithm": self.algorithm,
            "log2_cost": self.log2_cost,
            "feasible": self.feasible,
            "N_leq_b": self.counts.N_leq_b,
            "M_leq_b": self.counts.M_leq_b,
        }


def bit_cost(params: RslParams, strategy: StrategyParams, b: int) -> CostReport:
    """Bit cost of solving at degree b with the solver the strategy picks:
    the dense (strassen) solve when delta = 0, the cheaper of dense and
    sparse (wiedemann) when delta > 0.  Every strategy ``strategy_params``
    returns keeps k - a >= 1, N' >= 1 and w < n - k, so M_leq_b >=
    C(n-a, w) >= 3 and both logarithms are defined."""
    counts = _counts_for(params, strategy, b)
    log2_M = math.log2(counts.M_leq_b)
    w = strategy.w
    row_weight = strategy.N_prime * math.comb(params.k - strategy.a + 1 + w, w)
    strassen = OMEGA * log2_M
    wiedemann = math.log2(3 * row_weight) + 2.0 * log2_M
    dense = strategy.delta == 0 or strassen <= wiedemann
    return CostReport(
        delta=strategy.delta,
        w=strategy.w,
        a=strategy.a,
        b=b,
        algorithm="strassen" if dense else "wiedemann",
        log2_cost=strassen if dense else wiedemann,
        feasible=is_feasible(params, counts),
        counts=counts,
    )


@dataclass(frozen=True)
class CodewordStats:
    """Moments of the number of weight-w words in the error-span code."""

    expectation: Fraction
    variance: Fraction


def codeword_stats(q: int, r: int, n: int, N: int, w: int) -> CodewordStats:
    if not 0 <= w <= r:
        raise ValueError(f"need 0 <= w <= r, got w={w}")
    S = sphere_size(w, r, n, q)
    scale = Fraction(q) ** (N - r * n)
    expectation = S * scale
    variance = S * (q - 1) * (scale - scale * scale)
    return CodewordStats(expectation=expectation, variance=variance)


def delta_max(params: RslParams) -> int:
    """Largest weight reduction delta = r - w that still leaves words of
    weight w in the error-span code in expectation."""
    best = 0
    for delta in range(1, params.r):
        if params.N >= delta * (params.n - params.r + delta):
            best = delta
    return best


@dataclass(frozen=True)
class GhptCost:
    e_minus: int
    e_plus: int
    log2_cost: float
    degenerate: bool


def ghpt_cost(m: int, n: int, k: int, N: int, w: int, q: int = 2) -> GhptCost:
    """Combinatorial baseline: q^min(e-, e+) with K = km + N."""
    K = k * m + N
    t = N // n
    T = K // n
    e_minus = (w - t) * (T - t)
    e_plus = (w - t - 1) * (T - t - 1) + n * (T - t - 1)
    best = min(e_minus, e_plus)
    return GhptCost(
        e_minus=e_minus,
        e_plus=e_plus,
        log2_cost=max(best, 0) * math.log2(q),
        degenerate=best <= 0,
    )


@dataclass
class OptimizeResult:
    best: Optional[CostReport]
    rows: list[CostReport]


def optimize(
    params: RslParams,
    b_max: int = 5,
    deltas: Optional[list[int]] = None,
) -> OptimizeResult:
    """Exhaustive sweep over (delta, a, minimal b); returns every feasible
    strategy's report, costed by ``bit_cost``, and the overall cheapest.
    A delta whose strategy ``strategy_params`` rejects is skipped."""
    if deltas is None:
        deltas = list(range(0, delta_max(params) + 1))
    rows: list[CostReport] = []
    for delta in deltas:
        try:
            widest = strategy_params(params, delta)
        except ValueError:
            continue
        candidates = [widest] if delta == 0 else [
            strategy_params(params, delta, a) for a in range(widest.a + 1)
        ]
        for strat in candidates:
            found = min_b(params, strat, b_max)
            if found is not None:
                rows.append(bit_cost(params, strat, found[0]))
    best = min(rows, key=lambda r: r.log2_cost) if rows else None
    return OptimizeResult(best=best, rows=rows)


# Benchmark parameter sets (m, n, k, r, N expression, N) with the reference
# delta=0 cost/b and, where the reference avoids hybrid guessing, the
# delta>0 cost/b/w/a.  Hybrid reference entries are not comparable and carry
# None.  Reference delta=0 costs are dense-solve figures; the non-hybrid
# delta>0 references are sparse-solve figures.
TABLE2_ROWS: list[tuple] = [
    (277, 358, 179, 7, "k*(r-3)", 716, (173, 2), (174, 3, 6, 60)),
    (277, 358, 179, 7, "k*(r-2)", 895, (147, 1), None),
    (277, 358, 179, 7, "k*(r-1)", 1074, (145, 1), None),
    (281, 242, 121, 8, "k*(r-2)", 726, (170, 2), (170, 3, 7, 70)),
    (281, 242, 121, 8, "k*(r-1)", 847, (144, 1), None),
    (293, 254, 127, 8, "k*(r-2)", 762, (172, 2), (172, 3, 7, 73)),
    (293, 254, 127, 8, "k*(r-1)", 889, (145, 1), None),
    (307, 274, 137, 9, "k*(r-2)", 959, (187, 2), (187, 3, 8, 86)),
    (307, 274, 137, 9, "k*(r-1)", 1096, (159, 1), (165, 2, 8, 103)),
]

DELTA0_TOL = 2.0
DELTA_POS_TOL = 3.0


def _table2_cell(rep: Optional[CostReport], expected: tuple, tol: float,
                 shown: tuple[str, ...]) -> dict:
    """One column of a table row: the report's bits and ``shown`` fields
    beside the reference, which holds the bits and then one value for each
    leading field of ``shown``, and whether the two agree."""
    if rep is None:
        return {"feasible": False, "ok": False}
    exp_bits, *exp_rest = expected
    compared = dict(zip(shown, exp_rest))
    return {
        "expected_bits": exp_bits,
        **{f"expected_{field}": value for field, value in compared.items()},
        "bits": round(rep.log2_cost, 2),
        **{field: getattr(rep, field) for field in shown},
        "algorithm": rep.algorithm,
        "delta_bits": round(rep.log2_cost - exp_bits, 2),
        "ok": abs(rep.log2_cost - exp_bits) <= tol
        and all(getattr(rep, field) == value for field, value in compared.items()),
    }


def run_table2(b_max: int = 4) -> dict:
    """Re-derive the benchmark table and diff against the reference values.

    Both columns of a row come from one ``optimize`` sweep, over delta = 0
    alone when the row has no delta>0 reference.  The delta=0 column is the
    sweep's delta=0 report, which must match within DELTA0_TOL bits with
    equal b; the delta>0 column (non-hybrid rows only) is its cheapest
    delta>0 report, within DELTA_POS_TOL bits with equal (b, w, a).
    """
    started = time.monotonic()
    out_rows = []
    all0 = True
    allpos = True
    for m, n, k, r, label, N, ref0, refpos in TABLE2_ROWS:
        params = RslParams(q=2, m=m, n=n, k=k, r=r, N=N)
        deltas = [0] if refpos is None else list(range(delta_max(params) + 1))
        reports = optimize(params, b_max=b_max, deltas=deltas).rows
        rep0 = next((rep for rep in reports if rep.delta == 0), None)
        row: dict = {"m": m, "n": n, "k": k, "r": r, "N": N, "N_label": label}
        row["delta0"] = _table2_cell(rep0, ref0, DELTA0_TOL, ("b", "a"))
        all0 = all0 and row["delta0"]["ok"]
        if refpos is None:
            row["delta_pos"] = None
        else:
            shortened = [rep for rep in reports if rep.delta > 0]
            best = min(shortened, key=lambda rep: rep.log2_cost) if shortened else None
            row["delta_pos"] = _table2_cell(best, refpos, DELTA_POS_TOL, ("b", "w", "a"))
            allpos = allpos and row["delta_pos"]["ok"]
        out_rows.append(row)
    return {
        "rows": out_rows,
        "delta0_ok": all0,
        "delta_pos_ok": allpos,
        "ok": all0 and allpos,
        "elapsed_s": round(time.monotonic() - started, 3),
    }
