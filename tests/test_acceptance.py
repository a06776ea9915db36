"""Acceptance gate: quantitative benchmark reproduction, exact rank laws,
statistical checks, a full end-to-end attack, and oracle equivalences.

Each test prints one summary line so a transcript shows the verdict per
criterion even when pytest output is trimmed.
"""

import math
import random
import time
from itertools import combinations, permutations, product

import numpy as np
import pytest

from rslminors.counting import sphere_size
from rslminors.estimator import (
    TABLE2_ROWS,
    count_Nb,
    min_b,
    run_table2,
)
from rslminors.fields import prime_field
from rslminors.instance import (
    RslParams,
    StrategyParams,
    gen_instance,
    shorten,
    strategy_params,
)
from rslminors.matrix import FieldMatrix, kernel_rows, rank_rows
from rslminors.modeling import build_macaulay, build_system, unfold_system
from rslminors.solver import attack, plucker_reconstruct
from rslminors.verification import (
    monte_carlo_codewords,
    run_assumption2,
    run_lemma3,
    run_prop1,
    run_thm1,
    run_thm2,
)

from oracles import planted_solution, y_vector
from test_modeling import equation_terms, macaulay_apply


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")


# Reference costs frozen here independently of the estimator module, so a
# drive-by edit to TABLE2_ROWS cannot silently weaken the check.
REFERENCE_DELTA0 = [
    (173, 2),
    (147, 1),
    (145, 1),
    (170, 2),
    (144, 1),
    (172, 2),
    (145, 1),
    (187, 2),
    (159, 1),
]
REFERENCE_DELTA_POS = {
    0: (174, 3, 6, 60),
    3: (170, 3, 7, 70),
    5: (172, 3, 7, 73),
    7: (187, 3, 8, 86),
    8: (165, 2, 8, 103),
}


def test_criterion_1_benchmark_table():
    started = time.monotonic()
    assert [row[6] for row in TABLE2_ROWS] == REFERENCE_DELTA0
    assert {
        i: row[7] for i, row in enumerate(TABLE2_ROWS) if row[7] is not None
    } == REFERENCE_DELTA_POS
    rep = run_table2()
    elapsed = time.monotonic() - started
    ok = rep["ok"] and elapsed < 60
    report(1, "benchmark table", ok)
    assert rep["delta0_ok"]
    assert rep["delta_pos_ok"]
    assert len(rep["rows"]) == 9
    for i, row in enumerate(rep["rows"]):
        d0 = row["delta0"]
        exp_bits, exp_b = REFERENCE_DELTA0[i]
        assert d0["ok"]
        assert abs(d0["bits"] - exp_bits) <= 2.0
        assert d0["b"] == exp_b
        if i in REFERENCE_DELTA_POS:
            exp_bits, exp_b, exp_w, exp_a = REFERENCE_DELTA_POS[i]
            dp = row["delta_pos"]
            assert dp["ok"]
            assert abs(dp["bits"] - exp_bits) <= 3.0
            assert (dp["b"], dp["w"], dp["a"]) == (exp_b, exp_w, exp_a)
        else:
            assert row["delta_pos"] is None
    assert elapsed < 60
    assert ok


def test_criterion_2_first_degree_rank():
    started = time.monotonic()
    rep = run_thm1()
    elapsed = time.monotonic() - started
    ok = rep["ok"] and rep["passes"] == rep["trials"] and elapsed < 120
    report(2, "degree (1,1) rank and distinct leads", ok)
    assert rep["trials"] == 40
    assert rep["passes"] == rep["trials"]
    assert rep["failures"] == []
    assert elapsed < 120
    assert ok


def test_criterion_3_higher_degree_rank():
    started = time.monotonic()
    rep = run_thm2()
    elapsed = time.monotonic() - started
    identity_ok = True
    for nk in range(3, 12):
        for w in range(1, nk - 1):
            for N in range(nk - w, nk + 5):
                closed = N * math.comb(nk, w + 1) - math.comb(nk, w + 2)
                if count_Nb(nk + 6, 6, w, N, 2) != closed:
                    identity_ok = False
    ok = rep["ok"] and rep["passes"] == rep["trials"] and identity_ok and elapsed < 300
    report(3, "degree (b,1) rank law", ok)
    assert rep["passes"] == rep["trials"]
    assert rep["failures"] == []
    assert identity_ok
    assert elapsed < 300
    assert ok


def test_criterion_4_syzygy_stack():
    rep = run_lemma3()
    ok = rep["ok"] and rep["passes"] == rep["trials"] and rep["trials"] >= 20
    report(4, "syzygies annihilate with full-rank stack", ok)
    assert rep["trials"] >= 20
    assert rep["passes"] == rep["trials"]
    assert rep["failures"] == []
    assert ok


def test_criterion_5_cumulative_rank_statistics():
    rep = run_assumption2()
    ok = rep["ok"] and rep["rate"] >= 0.95
    report(5, "cumulative F2 rank statistics", ok)
    assert rep["config"]["trials"] == 50
    assert rep["config"]["bs"] == [1, 2]
    assert rep["trials"] == 100
    assert rep["rate"] >= 0.95
    assert ok


def test_criterion_6_codeword_count_statistics():
    rep = run_prop1(trials=2000)
    cells = {(c["N"], c["w"]): c for c in rep["cells"]}
    ok = rep["ok"] and set(cells) == {(2, 1), (2, 2), (3, 1), (3, 2)}
    for cell in cells.values():
        ok = ok and cell["q"] == 2 and cell["r"] == 2 and cell["n"] == 4
        ok = ok and cell["trials"] == 2000 and abs(cell["z"]) <= 3.0
    ok = ok and cells[(3, 2)]["expected"] == pytest.approx(6.5625)
    report(6, "codeword count Monte Carlo", ok)
    assert set(cells) == {(2, 1), (2, 2), (3, 1), (3, 2)}
    for cell in cells.values():
        assert (cell["q"], cell["r"], cell["n"]) == (2, 2, 4)
        assert cell["trials"] == 2000
        assert abs(cell["z"]) <= 3.0
        assert cell["ok"]
    assert cells[(3, 2)]["expected"] == pytest.approx(6.5625)
    # the counts 1415, 6542, 2789 and 12984 of the seeds 0-3
    means = [cells[c]["mean"] for c in [(2, 1), (2, 2), (3, 1), (3, 2)]]
    assert means == [0.7075, 3.271, 1.3945, 6.492]
    assert ok


@pytest.mark.parametrize("q, r, n", [(2, 2, 4), (3, 2, 3), (5, 2, 2)])
def test_codeword_count_matches_the_kernel_words(q, r, n):
    # the same parity checks, drawn as monte_carlo_codewords draws them,
    # each kernel from kernel_rows and every nonzero combination of its
    # basis ranked by rank_rows
    fq = prime_field(q)
    rn = r * n
    trials = 30
    for seed, (N, w) in enumerate([(2, 1), (2, 2), (3, 1), (3, 2)]):
        rng = random.Random(seed)
        count = 0
        for _ in range(trials):
            parity = [[rng.randrange(q) for _ in range(rn)] for _ in range(rn - N)]
            basis = np.array(kernel_rows(parity, fq, rn)).reshape(-1, rn)
            for coeffs in list(product(range(q), repeat=len(basis)))[1:]:
                word = (np.array(coeffs) @ basis % q).reshape(r, n)
                count += rank_rows(word, fq) == w
        cell = monte_carlo_codewords(q, r, n, N, w, trials, seed=seed)
        assert cell["mean"] == count / trials


def point_vector(mac, lam, rT):
    f = mac.field
    vec = []
    for mu, T in mac.col_labels:
        v = rT.get(T, 0)
        for i in mu:
            v = f.mul(v, lam[i - 1])
        vec.append(v)
    return vec


def test_criterion_7_end_to_end_attack():
    started = time.monotonic()
    chosen = None
    for m in range(6, 21):
        params = RslParams(q=2, m=m, n=10, k=5, r=2, N=9)
        strat = strategy_params(params, 0)
        found = min_b(params, strat, 3)
        if found and found[0] == 1:
            chosen = (params, strat, found[1])
            break
    assert chosen is not None
    params, strat, counts = chosen
    assert params.m == 14
    assert strat == StrategyParams(delta=0, w=2, a=4, N_prime=9)
    assert counts.M_leq_b == 135
    assert counts.M_leq_b <= 10**5

    inst, witness = gen_instance(params, seed=3)
    result = attack(inst, strat, b_max=3)
    elapsed = time.monotonic() - started
    recovered = (
        result.success
        and result.verified
        and result.support is not None
        and result.support.C.ncols == params.r
        and result.support.C == witness.support_basis()
    )

    # replay every Macaulay the attack touched and check the planted point
    # sits in its right kernel
    membership = len(result.b_history) > 0
    for entry in result.b_history:
        keep = [(entry["offset"] + j) % params.k for j in range(strat.a, params.k)]
        sh = shorten(inst, keep, strat.N_prime)
        unfolded = unfold_system(build_system(sh, strat.w))
        mac = build_macaulay(unfolded, entry["b"])
        assert mac.shape == (entry["rows"], entry["cols"])
        lam, rT, _ = planted_solution(witness, strat, params.q)
        image = macaulay_apply(mac, point_vector(mac, lam, rT))
        membership = membership and all(v == 0 for v in image)

    ok = recovered and membership and elapsed < 300
    report(7, "end-to-end attack with planted point", ok)
    assert recovered
    assert membership
    assert elapsed < 300
    assert ok


def perm_sign(perm) -> int:
    inv = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inv % 2 else 1


def poly_accum(field, out, mono, coeff):
    if not coeff:
        return
    acc = field.add(out.get(mono, field.zero), coeff)
    if acc:
        out[mono] = acc
    elif mono in out:
        del out[mono]


def poly_mul(field, f, g):
    out = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            poly_accum(field, out, tuple(sorted(ma + mb)), field.mul(ca, cb))
    return out


def symbolic_minor(inst, J, w):
    """Determinant of the (w+1)x(w+1) stacked-word matrix on rows J of H,
    expanded by brute-force Leibniz over polynomial entries.  Variables are
    ('l', i) for the combination scalars and ('r', u, j) for the entries of
    the w x n coefficient matrix."""
    ext = inst.field
    p = inst.params
    cols = []
    for v in range(w + 1):
        h_row = [inst.H[J[v] - 1, t] for t in range(p.n)]
        # the top entry collects Sum_i lambda_i (y_i . H[J_v])
        top = {}
        for i in range(p.N):
            yi = y_vector(inst, i)
            c = ext.zero
            for t in range(p.n):
                if yi[t] and h_row[t]:
                    c = ext.add(c, ext.mul(yi[t], h_row[t]))
            if c:
                top[(("l", i + 1),)] = c
        cols.append((top, h_row))
    M = [[cols[v][0] for v in range(w + 1)]]
    for u in range(1, w + 1):
        M.append(
            [
                {
                    (("r", u, j + 1),): cols[v][1][j]
                    for j in range(p.n)
                    if cols[v][1][j]
                }
                for v in range(w + 1)
            ]
        )
    det = {}
    for perm in permutations(range(w + 1)):
        prod = {(): ext.one}
        for rowi, coli in enumerate(perm):
            prod = poly_mul(ext, prod, M[rowi][coli])
            if not prod:
                break
        sgn = perm_sign(perm)
        for mono, c in prod.items():
            poly_accum(ext, det, mono, c if sgn > 0 else ext.neg(c))
    return det


def equation_poly(system, e):
    """Expand equation e of a bilinear minor system into the same variable
    space by writing each r_T as its own Leibniz sum."""
    ext, w = system.field, system.w
    out = {}
    for (mu, T), c in equation_terms(system, e).items():
        i = mu[0]
        for sigma in permutations(range(w)):
            mono = tuple(
                sorted([("l", i)] + [("r", u + 1, T[sigma[u]]) for u in range(w)])
            )
            sgn = perm_sign(sigma)
            poly_accum(ext, out, mono, c if sgn > 0 else ext.neg(c))
    return out


def test_criterion_8_oracle_equivalences():
    rng = random.Random(5)
    minors_ok = True
    for _ in range(100):
        w = rng.choice([1, 2, 3])
        nk = w + 1 + rng.randrange(1, 3)
        n_hi = 8 if w == 3 else 10
        n = rng.randrange(max(nk + 2, 6), n_hi + 1)
        m = rng.randrange(max(2, w), 5)
        params = RslParams(q=3, m=m, n=n, k=n - nk, r=w, N=rng.randrange(2, 5))
        inst, _ = gen_instance(params, rng.randrange(2**30))
        J = tuple(sorted(rng.sample(range(1, nk + 1), w + 1)))
        system = build_system(inst, w)
        e = system.J.index(J)
        minors_ok = minors_ok and symbolic_minor(inst, J, w) == equation_poly(system, e)
    assert minors_ok

    plucker_ok = True
    for trial in range(100):
        q = 2 if trial % 2 == 0 else 3
        fq = prime_field(q)
        w = rng.choice([1, 2, 3])
        n = rng.randrange(w + 2, 8)
        while True:
            R = FieldMatrix(
                fq, [[rng.randrange(q) for _ in range(n)] for _ in range(w)]
            )
            if rank_rows(R.rows, fq) == w:
                break
        minors = {tuple(t + 1 for t in T): v for T, v in R.maximal_minors().items()}
        rec = plucker_reconstruct(minors, w, n, fq)
        rec_minors = {
            tuple(t + 1 for t in T): v for T, v in rec.maximal_minors().items()
        }
        assert set(rec_minors) == set(minors)
        pivot = next(T for T in sorted(minors) if minors[T])
        scale = fq.mul(rec_minors[pivot], fq.inv(minors[pivot]))
        plucker_ok = plucker_ok and scale != 0
        for T, v in minors.items():
            plucker_ok = plucker_ok and rec_minors[T] == fq.mul(scale, v)
    assert plucker_ok

    sphere_ok = True
    for q in (2, 3):
        fq = prime_field(q)
        for r in range(1, 4):
            for n in range(1, 4):
                by_rank = {}
                for flat in product(range(q), repeat=r * n):
                    rows = [list(flat[i * n : (i + 1) * n]) for i in range(r)]
                    rk = rank_rows(rows, fq)
                    by_rank[rk] = by_rank.get(rk, 0) + 1
                for w in range(0, min(r, n) + 1):
                    sphere_ok = sphere_ok and sphere_size(w, r, n, q) == by_rank.get(
                        w, 0
                    )
    assert sphere_ok

    ok = minors_ok and plucker_ok and sphere_ok
    report(8, "oracle equivalences", ok)
    assert ok
