"""Counting closed forms against literal sums, the solvability threshold,
the calibrated bit-cost model, codeword statistics, and the optimizer."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, log2
from pathlib import Path

import pytest

from rslminors import estimator
from rslminors.counting import sphere_size
from rslminors.estimator import (
    DELTA0_TOL,
    DELTA_POS_TOL,
    OMEGA,
    TABLE2_ROWS,
    CountSet,
    bit_cost,
    codeword_stats,
    count_ladder,
    count_Mb,
    count_Nb,
    delta_max,
    ghpt_cost,
    is_feasible,
    make_counts,
    min_b,
    optimize,
    run_table2,
)
from rslminors.instance import RslParams, StrategyParams, strategy_params


def comb0(n, k):
    """Binomial with the vanishing convention for negative upper index."""
    return comb(n, k) if 0 <= k <= n else 0


def count_Nb_literal(n, k, w, N, b, f2=False):
    """The double sum written out term by term."""
    nk = n - k
    total = 0
    for d in range(2, nk - w + 2):
        for j in range(1, d):
            inner = comb0(N - j + 1, b - 1) if f2 else comb0(N - j + b - 1, b - 1)
            total += comb0(nk - d, w - 1) * inner
    return total


def test_count_nb_frozen():
    assert count_Nb(10, 6, 1, 3, 1) == 6 == comb(4, 2)
    assert count_Nb(10, 6, 1, 3, 2) == 14
    assert count_Nb(10, 6, 1, 3, 3, f2=True) == 11
    with pytest.raises(ValueError):
        count_Nb(10, 6, 4, 3, 1)  # w must stay below n-k
    with pytest.raises(ValueError):
        count_Nb(10, 6, 1, 3, 0)
    with pytest.raises(ValueError):
        count_Nb(10, 6, 1, -1, 1)  # no lambdas: N must be at least 1
    with pytest.raises(ValueError):
        count_Nb(10, 6, 1, 0, 1, f2=True)


def count_Nb_pairs(nk, w, N, b, f2=False):
    """Pairs (mu, I) with min(mu) < min(I), enumerated: mu a degree-b
    monomial in lambda_1..lambda_N (a b-set of 1..N+1 over F_2), I a w-set
    of 1..nk."""
    if f2:
        monomials = combinations(range(1, N + 2), b)
    else:
        monomials = combinations_with_replacement(range(1, N + 1), b)
    smallest = Counter(min(I) for I in combinations(range(1, nk + 1), w))
    return sum(count for mu in monomials for low, count in smallest.items() if mu[0] < low)


def count_Nb_sum(nk, w, N, b, f2=False):
    """The pairs counted by the smallest index v of mu: C(nk-v, w) sets I
    above v times C(P-v, b-1) monomials with smallest index v."""
    P, V = (N + 1, N + 1) if f2 else (N + b - 1, N)
    return sum(comb(nk - v, w) * comb(P - v, b - 1) for v in range(1, min(V, nk - w) + 1))


def test_count_nb_matches_literal_sum():
    # N runs past n-k-w, where the sum's range switches from the N cap to
    # the n-k-w cap
    for nk in range(3, 11):
        for w in range(1, min(nk, 5)):
            for N in range(1, nk + 3):
                for b in range(1, 6):
                    for f2 in (False, True):
                        got = count_Nb(nk + 5, 5, w, N, b, f2=f2)
                        case = (nk, w, N, b, f2)
                        assert got == count_Nb_literal(nk + 5, 5, w, N, b, f2=f2), case
                        assert got == count_Nb_sum(nk, w, N, b, f2=f2), case
                        if nk <= 7:
                            assert got == count_Nb_pairs(nk, w, N, b, f2=f2), case


def test_count_nb_closed_form_matches_the_sum_over_v():
    # D = P - (n-k) takes both signs, and min(V, n-k-w) both sides of its
    # cap, up to n-k = 200, N = 1100 and b = 6.  Every rung of one ladder
    # per shape is checked: against the sum over v everywhere, against the
    # literal double sum on every rung up to n-k = 64 and above it on the
    # top rung, which reads every h(i)
    seen = set()
    for nk in (2, 3, 4, 7, 12, 31, 64, 121, 152, 179, 200):
        for w in sorted({1, 2, 3, nk // 3, nk - 2, nk - 1}):
            if not 1 <= w < nk:
                continue
            cap = nk - w
            for N in sorted({1, 2, cap - 2, cap - 1, cap, cap + 1, nk, nk + 3, 97, 400, 1100}):
                if N < 1:
                    continue
                for f2 in (False, True):
                    rungs = list(count_ladder(nk + 3, 3, w, N, 6, f2))
                    assert len(rungs) == 6
                    for b, got in enumerate(rungs, 1):
                        P, V = (N + 1, N + 1) if f2 else (N + b - 1, N)
                        seen.add((P - nk < 0, V < cap))
                        case = (nk, w, N, b, f2)
                        assert got == count_Nb(nk + 3, 3, w, N, b, f2=f2), case
                        assert got == count_Nb_sum(nk, w, N, b, f2=f2), case
                        if nk <= 64 or b == 6:
                            assert got == count_Nb_literal(nk + 3, 3, w, N, b, f2=f2), case
    assert seen == {(neg, capped) for neg in (False, True) for capped in (False, True)}


def test_ladder_memo_leaves_the_rungs_unchanged():
    # one memo across shapes that share (n-k, w, lo) and shapes that do not
    memo = {}
    for nk, w, N, f2 in ((12, 3, 20, True), (12, 3, 30, True), (12, 3, 5, True),
                         (12, 3, 20, False), (12, 3, 9, False), (20, 3, 20, True)):
        for b_max in (2, 5, 3):
            got = list(count_ladder(nk + 4, 4, w, N, b_max, f2, memo))
            assert got == list(count_ladder(nk + 4, 4, w, N, b_max, f2)), (nk, w, N, f2, b_max)
    assert len(memo) < 6 * 3


def test_count_nb_matches_the_sum_on_every_table2_call(monkeypatch):
    # every rung run_table2 takes, read off the ladders its sweeps walk
    rungs = set()
    ladder = estimator.count_ladder

    def recording(n, k, w, N, b_max, f2=False, memo=None):
        for b, count in enumerate(ladder(n, k, w, N, b_max, f2, memo), 1):
            rungs.add((n, k, w, N, b, f2, count))
            yield count

    monkeypatch.setattr(estimator, "count_ladder", recording)
    run_table2()
    assert len(rungs) > 2000
    for n, k, w, N, b, f2, count in rungs:
        assert count == count_Nb_sum(n - k, w, N, b, f2) == count_Nb(n, k, w, N, b, f2), (
            n, k, w, N, b
        )


def make_counts_per_degree(q, n, k, w, N, b):
    """The counts degree by degree, one sum over v each: over F_2 summed
    over the degrees 1..b, above F_2 at degree b alone."""
    degrees = range(1, b + 1) if q == 2 else [b]
    return CountSet(
        N_leq_b=sum(count_Nb_sum(n - k, w, N, j, f2=q == 2) for j in degrees),
        M_leq_b=sum(count_Mb(n, w, N, j, f2=q == 2) for j in degrees),
    )


def min_b_per_degree(params, strategy, b_max=8, memo=None):
    """The smallest feasible b, trying each degree in turn."""
    a = strategy.a
    for b in range(1, b_max + 1):
        counts = make_counts_per_degree(
            params.q, params.n - a, params.k - a, strategy.w, strategy.N_prime, b
        )
        if is_feasible(params, counts):
            return b, counts
    return None


def small_params(rng, q):
    n = rng.randrange(6, 40)
    k = rng.randrange(2, n - 2)
    r = rng.randrange(1, min(6, n - k))
    return RslParams(q=q, m=rng.randrange(max(r, 2), 40), n=n, k=k, r=r,
                     N=rng.randrange(1, 4 * n))


def assert_ladder_matches_per_degree_loop(params, b_max, monkeypatch):
    rows = optimize(params, b_max=b_max).rows
    for delta in range(params.r):
        try:
            widest = strategy_params(params, delta)
        except ValueError:
            continue
        for a in ([None] if delta == 0 else range(widest.a + 1)):
            strat = strategy_params(params, delta, a)
            assert min_b(params, strat, b_max) == min_b_per_degree(params, strat, b_max), (
                params, strat
            )
    with monkeypatch.context() as patch:
        patch.setattr(estimator, "min_b", min_b_per_degree)
        assert optimize(params, b_max=b_max).rows == rows, params


@pytest.mark.parametrize("q", [2, 3, 5])
def test_min_b_and_optimize_match_the_per_degree_loop(q, monkeypatch):
    rng = random.Random(320 + q)
    for _ in range(40):
        assert_ladder_matches_per_degree_loop(small_params(rng, q), 6, monkeypatch)


def test_min_b_and_optimize_match_the_per_degree_loop_on_table2(monkeypatch):
    for m, n, k, r, _, N, _, _ in TABLE2_ROWS:
        params = RslParams(q=2, m=m, n=n, k=k, r=r, N=N)
        assert_ladder_matches_per_degree_loop(params, 4, monkeypatch)


def test_degree_one_count_is_binomial():
    for nk in range(2, 31):
        for w in range(1, min(nk, 7)):
            assert count_Nb(nk + 4, 4, w, nk, 1) == comb(nk, w + 1)


def test_degree_two_count_closed_form():
    for nk in range(3, 16):
        for w in range(1, min(nk - 1, 5)):
            for N in range(nk - w, nk + 4):
                want = N * comb(nk, w + 1) - comb(nk, w + 2)
                assert count_Nb(nk + 4, 4, w, N, 2) == want


def test_count_mb():
    assert count_Mb(6, 1, 3, 2) == 36
    assert count_Mb(6, 1, 3, 2, f2=True) == 18
    # over F_2 make_counts sums the squarefree columns of degrees 1..b
    assert make_counts(2, 6, 3, 1, 3, 3).M_leq_b == 6 * (3 + 3 + 1)
    assert make_counts(3, 6, 3, 1, 3, 3).M_leq_b == count_Mb(6, 1, 3, 3) == 6 * 10
    for n, w, N in ((6, 1, 3), (9, 2, 5)):
        assert count_Mb(n, w, N, 1) == count_Mb(n, w, N, 1, f2=True) == comb(n, w) * N


def test_min_b_threshold_is_exact():
    params = RslParams(q=2, m=281, n=242, k=121, r=8, N=726)
    strat = strategy_params(params, 0)
    assert (strat.a, strat.N_prime) == (90, 721)
    found = min_b(params, strat)
    assert found is not None and found[0] == 2
    # the b=1 comparison fails by big-integer arithmetic, not rounding
    rows_b1 = 281 * count_Nb(242 - 90, 121 - 90, 8, 721, 1, f2=True)
    cols_b1 = count_Mb(242 - 90, 8, 721, 1, f2=True)
    assert rows_b1 == 281 * comb(121, 9)
    assert cols_b1 == comb(152, 8) * 721
    assert rows_b1 < cols_b1 - 1
    counts = make_counts(2, 152, 31, 8, 721, 1)
    assert not is_feasible(params, counts)


def test_is_feasible_q3_above_q():
    # above F_2 the exact-degree matrix is formal, so the count rule decides
    # b >= q as it decides every other degree: 6 * 73 rows reach 420 - 1
    # columns at b = 4, and b = 3 falls short
    params = RslParams(q=3, m=6, n=9, k=4, r=2, N=4)
    strat = strategy_params(params, 0)
    shape = (params.n - strat.a, params.k - strat.a, strat.w, strat.N_prime)
    assert not is_feasible(params, make_counts(3, *shape, 3))
    counts = make_counts(3, *shape, 4)
    assert (counts.N_leq_b, counts.M_leq_b) == (73, 420)
    assert is_feasible(params, counts)
    assert min_b(params, strat) == (4, counts)


def solver_figures(params, strat, b):
    """(dense, sparse) bit costs of the model, recomputed from the strategy."""
    log2_M = log2(bit_cost(params, strat, b).counts.M_leq_b)
    weight = strat.N_prime * comb(params.k - strat.a + 1 + strat.w, strat.w)
    return OMEGA * log2_M, log2(3 * weight) + 2 * log2_M


def test_bit_cost_named_algorithms():
    # delta > 0 takes the cheaper solver, whichever it is
    for shape, delta, a, b, name in (
        (dict(m=40, n=20, k=10, r=3, N=20), 1, 0, 1, "strassen"),
        (dict(m=307, n=274, k=137, r=9, N=959), 1, 86, 3, "wiedemann"),
    ):
        params = RslParams(q=2, **shape)
        strat = strategy_params(params, delta, a_override=a)
        rep = bit_cost(params, strat, b)
        assert rep.algorithm == name
        assert rep.log2_cost == min(solver_figures(params, strat, b))


def test_bit_cost_charges_delta0_the_dense_solve():
    # the sparse figure, 144.56 bits, is lower here, but the reference table
    # (and estimate) charge delta = 0 the dense solve
    params = RslParams(q=2, m=277, n=358, k=179, r=7, N=895)
    strat = strategy_params(params, 0)
    strassen, wiedemann = solver_figures(params, strat, 1)
    assert round(wiedemann, 2) == 144.56
    rep = bit_cost(params, strat, 1)
    assert rep.algorithm == "strassen" and rep.log2_cost == strassen
    assert round(rep.log2_cost, 2) == 146.89
    assert rep.log2_cost == pytest.approx(OMEGA * log2(rep.counts.M_leq_b))
    assert abs(rep.log2_cost - 147) <= DELTA0_TOL


def test_bit_cost_reference_points():
    params = RslParams(q=2, m=281, n=242, k=121, r=8, N=726)
    rep = bit_cost(params, strategy_params(params, 0), 2)
    assert rep.algorithm == "strassen"
    assert abs(rep.log2_cost - 170) <= DELTA0_TOL
    params = RslParams(q=2, m=307, n=274, k=137, r=9, N=959)
    strat = strategy_params(params, 1, a_override=86)
    rep = bit_cost(params, strat, 3)
    assert rep.algorithm == "wiedemann"
    assert abs(rep.log2_cost - 187) <= DELTA_POS_TOL
    weight = strat.N_prime * comb(137 - 86 + 1 + 8, 8)
    assert rep.log2_cost == pytest.approx(
        log2(3 * weight) + 2 * log2(rep.counts.M_leq_b)
    )


def test_min_b_monotone():
    rng = random.Random(83)
    checked = 0
    while checked < 100:
        n = rng.randrange(20, 60)
        k = rng.randrange(8, n - 8)
        w = rng.randrange(2, 5)
        a = rng.randrange(0, min(k, 6))
        N_prime = rng.randrange(6, 40)
        m = rng.randrange(8, 40)
        params = RslParams(q=2, m=m, n=n, k=k, r=w, N=max(N_prime, 1))
        strat = StrategyParams(delta=1, w=w, a=a, N_prime=N_prime)
        found = min_b(params, strat, b_max=6)
        if found is None:
            continue
        b = found[0]
        # more rows per unfolding can only help
        bigger_m = RslParams(q=2, m=m + 5, n=n, k=k, r=w, N=params.N)
        fm = min_b(bigger_m, strat, b_max=6)
        assert fm is not None and fm[0] <= b
        # fewer combination variables can only help
        fewer = StrategyParams(delta=1, w=w, a=a, N_prime=max(N_prime - 1, 1))
        fn = min_b(params, fewer, b_max=6)
        assert fn is not None and fn[0] <= b
        # keeping more columns (less shortening) can only hurt
        if a >= 1:
            wider = StrategyParams(delta=1, w=w, a=a - 1, N_prime=N_prime)
            fw = min_b(params, wider, b_max=7)
            assert fw is None or fw[0] >= b
        checked += 1


def test_codeword_stats_frozen():
    st = codeword_stats(2, 2, 4, 3, 2)
    S = sphere_size(2, 2, 4, 2)
    assert st.expectation == Fraction(210, 32) == Fraction(S, 2 ** (8 - 3))
    assert float(st.expectation) == 6.5625
    st0 = codeword_stats(3, 2, 4, 3, 0)
    assert st0.expectation == Fraction(1, 3 ** (8 - 3))
    with pytest.raises(ValueError):
        codeword_stats(2, 2, 4, 3, 3)


def test_codeword_stats_variance_identity():
    for q, r, n, N, w in ((2, 2, 4, 3, 2), (2, 3, 4, 5, 2), (3, 2, 3, 4, 1)):
        st = codeword_stats(q, r, n, N, w)
        S = sphere_size(w, r, n, q)
        p = Fraction(1, q ** (r * n - N))
        assert st.expectation == S * p
        assert st.variance == S * (q - 1) * (p - p * p)


def test_delta_max_frozen():
    expected = {
        (277, 358, 179, 7, 716): 2,
        (277, 358, 179, 7, 895): 2,
        (277, 358, 179, 7, 1074): 3,
        (281, 242, 121, 8, 726): 3,
        (281, 242, 121, 8, 847): 3,
        (293, 254, 127, 8, 762): 3,
        (293, 254, 127, 8, 889): 3,
        (307, 274, 137, 9, 959): 3,
        (307, 274, 137, 9, 1096): 4,
    }
    for (m, n, k, r, N), want in expected.items():
        p = RslParams(q=2, m=m, n=n, k=k, r=r, N=N)
        d = delta_max(p)
        assert d == want
        assert N >= d * (n - r + d)
        if d + 1 < r:
            assert N < (d + 1) * (n - r + d + 1)


def test_ghpt_cost_oracle():
    m, n, k, N, w = 277, 358, 179, 895, 7
    g = ghpt_cost(m, n, k, N, w)
    K = k * m + N
    t, T = N // n, K // n
    assert g.e_minus == (w - t) * (T - t) == 695
    assert g.e_plus == (w - t - 1) * (T - t - 1) + n * (T - t - 1)
    assert g.log2_cost == min(g.e_minus, g.e_plus) * log2(2)
    assert not g.degenerate


def test_ghpt_degenerate_and_monotone():
    g = ghpt_cost(20, 10, 5, 35, 3)  # N >= w n collapses the exponent
    assert g.degenerate and g.log2_cost == 0
    last = None
    for N in range(10, 200, 10):
        e = ghpt_cost(50, 20, 10, N, 5).e_minus
        if last is not None:
            assert e <= last
        last = e


def cheapest_specialized(res):
    """The cheapest delta = 0 report of an optimizer sweep."""
    return min((r for r in res.rows if r.delta == 0), key=lambda r: r.log2_cost)


def test_optimize_reference_points():
    params = RslParams(q=2, m=277, n=358, k=179, r=7, N=1074)
    best0 = cheapest_specialized(optimize(params, b_max=4))
    assert best0.b == 1 and best0.algorithm == "strassen"
    assert abs(best0.log2_cost - 145) <= DELTA0_TOL
    params = RslParams(q=2, m=307, n=274, k=137, r=9, N=1096)
    best0 = cheapest_specialized(optimize(params, b_max=4))
    assert best0.b == 1 and abs(best0.log2_cost - 159) <= DELTA0_TOL
    params = RslParams(q=2, m=277, n=358, k=179, r=7, N=716)
    res = optimize(params, b_max=4, deltas=[1, 2])
    best = res.best
    assert (best.b, best.w, best.a) == (3, 6, 60)
    assert best.algorithm == "wiedemann"
    assert abs(best.log2_cost - 174) <= DELTA_POS_TOL


def test_table2_cells_are_rows_of_its_optimize_sweeps(monkeypatch):
    sweeps = []

    def recording(params, *args, **kwargs):
        res = optimize(params, *args, **kwargs)
        sweeps.append((params, res.rows))
        return res

    monkeypatch.setattr(estimator, "optimize", recording)
    table = run_table2()
    assert len(sweeps) == len(TABLE2_ROWS) == len(table["rows"])
    for (params, reports), row in zip(sweeps, table["rows"]):
        assert [getattr(params, key) for key in "mnkrN"] == [row[key] for key in "mnkrN"]
        cells = [(row["delta0"], [rep for rep in reports if rep.delta == 0], ("b", "a"))]
        if row["delta_pos"] is not None:
            cells.append((row["delta_pos"], [rep for rep in reports if rep.delta > 0],
                          ("b", "w", "a")))
        for cell, candidates, fields in cells:
            rep = min(candidates, key=lambda rep: rep.log2_cost)
            assert cell["bits"] == round(rep.log2_cost, 2)
            assert cell["algorithm"] == rep.algorithm
            assert [cell[field] for field in fields] == [getattr(rep, field) for field in fields]


def test_table2_counts_are_the_literal_sum():
    # the exact integers behind every cell, at the scale the table runs
    cells = 0
    for row in run_table2()["rows"]:
        params = RslParams(q=2, m=row["m"], n=row["n"], k=row["k"], r=row["r"], N=row["N"])
        for cell in (row["delta0"], row["delta_pos"]):
            if cell is None:
                continue
            w = cell.get("w", params.r)
            a = None if w == params.r else cell["a"]
            strat = strategy_params(params, params.r - w, a)
            assert strat.a == cell["a"]
            n, k = params.n - strat.a, params.k - strat.a
            degrees = range(1, cell["b"] + 1)
            want = sum(count_Nb_literal(n, k, w, strat.N_prime, j, f2=True) for j in degrees)
            assert make_counts(2, n, k, w, strat.N_prime, cell["b"]).N_leq_b == want
            cells += 1
    assert cells == 14


def test_table2_report_is_frozen():
    # the report of the sum form of count_Nb, elapsed_s left out
    snapshot = json.loads((Path(__file__).parent / "table2_snapshot.json").read_text())
    report = run_table2()
    del report["elapsed_s"]
    assert report == snapshot


def test_optimize_skips_strategies_without_minor_equations():
    # w = r = 4 >= n-k = 3 at delta = 0, w = 3 at delta = 1: no equations
    params = RslParams(q=2, m=8, n=8, k=5, r=4, N=11)
    assert delta_max(params) == 1
    for delta in (0, 1):
        with pytest.raises(ValueError):
            strategy_params(params, delta)
    assert optimize(params).rows == []


def test_optimize_empty_space():
    params = RslParams(q=2, m=6, n=10, k=6, r=2, N=5)
    res = optimize(params, b_max=0)
    assert res.best is None and res.rows == []


def test_reference_table_shape():
    assert len(TABLE2_ROWS) == 9
    assert sum(1 for row in TABLE2_ROWS if row[7] is not None) == 5
