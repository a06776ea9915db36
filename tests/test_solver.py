"""Kernel solving, rank-1 extraction, minor-vector inversion, and the full
attack pipeline on small planted instances."""

import random
from dataclasses import replace
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from rslminors import modeling, solver
from rslminors.estimator import bit_cost, make_counts, min_b
from rslminors.fields import extension_field, prime_field
from rslminors.instance import (
    RslParams,
    StrategyParams,
    gen_instance,
    shorten,
    strategy_params,
    verify_support,
)
from rslminors.matrix import (
    FieldMatrix,
    column_space_basis,
    kernel_rows,
    rank_rows,
    rref_rows,
    solve_rows,
)
from rslminors.modeling import (
    MacaulayMatrix,
    build_macaulay,
    build_system,
    monomial_vector,
    unfold_system,
)
from rslminors.solver import (
    ExtractionError,
    attack,
    plucker_reconstruct,
    rank1_extract,
    recover_support,
    solve_linearized,
)

from oracles import planted_solution
from test_matrix import column, scalar_product
from test_modeling import evaluate, macaulay_apply

TOY = RslParams(q=2, m=14, n=10, k=5, r=2, N=9)
TOY_SEED = 3


@pytest.fixture(scope="module")
def toy():
    return gen_instance(TOY, TOY_SEED)


@pytest.fixture(scope="module")
def toy_macaulay(toy):
    inst, _ = toy
    strat = strategy_params(TOY, 0)
    sh = shorten(inst, range(strat.a, TOY.k), TOY.N)
    system = unfold_system(build_system(sh, strat.w))
    return build_macaulay(system, 1), strat


def random_full_rank(field, w, n, rng):
    while True:
        M = FieldMatrix.random(field, w, n, rng)
        if rank_rows(M.rows, field) == w:
            return M


def test_plucker_round_trip():
    rng = random.Random(5)
    for q in (2, 3):
        f = prime_field(q)
        for _ in range(50):
            w = rng.randrange(1, 6)
            n = rng.randrange(w + 1, w + 5)
            M = random_full_rank(f, w, n, rng)
            rT = {tuple(t + 1 for t in T): v for T, v in M.maximal_minors().items()}
            rec = plucker_reconstruct(rT, w, n, f)
            assert rref_rows(rec.rows, f).matrix == rref_rows(M.rows, f).matrix


def test_plucker_rejects_bad_input():
    f = prime_field(3)
    with pytest.raises(ExtractionError):
        plucker_reconstruct({(1, 2): 0, (1, 3): 0}, 2, 3, f)
    M = FieldMatrix(f, [[1, 0, 1, 1], [0, 1, 1, 2]])
    rT = {tuple(t + 1 for t in T): v for T, v in M.maximal_minors().items()}
    with pytest.raises(ValueError):
        plucker_reconstruct(rT, 3, 4, f)
    corrupt = dict(rT)
    key = min(T for T, v in rT.items() if v)
    corrupt[key] = f.add(corrupt[key], 1)
    with pytest.raises(ExtractionError):
        plucker_reconstruct(corrupt, 2, 4, f)


def columns_only(field, col_labels, n_lambda):
    """A Macaulay matrix without rows: rank1_extract reads only its columns."""
    return MacaulayMatrix(
        field=field,
        b=max(len(mu) for mu, _ in col_labels),
        n_lambda=n_lambda,
        n_cols_R=max(max(T) for _, T in col_labels),
        w=len(col_labels[0][1]),
        row_labels=[],
        col_labels=col_labels,
        rows=[],
    )


def bilinear_labels(n_lambda, n_cols, w):
    return [
        ((i,), T)
        for i in range(1, n_lambda + 1)
        for T in combinations(range(1, n_cols + 1), w)
    ]


def test_rank1_extract_normalizes_outer_product():
    f = prime_field(3)
    lam = [0, 2, 1, 0]
    rT = {(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 3): 2, (2, 4): 0, (3, 4): 1}
    labels = bilinear_labels(4, 4, 2) + [((1, 2), (1, 2))]
    vec = [f.mul(lam[mu[0] - 1], rT[T]) for (mu, T) in labels[:-1]] + [2]
    lam_out, rT_out = rank1_extract(columns_only(f, labels, 4), vec)
    assert lam_out == [0, 1, 2, 0]
    assert rT_out == {T: f.mul(2, v) for T, v in rT.items()}
    for (mu, T), v in zip(labels[:-1], vec):
        assert f.mul(lam_out[mu[0] - 1], rT_out[T]) == v


def test_rank1_extract_rejects_mixed_solutions():
    f = prime_field(3)
    labels = bilinear_labels(3, 3, 2)
    lam = [1, 2, 0]
    rT = {(1, 2): 1, (1, 3): 1, (2, 3): 2}
    vec = [f.mul(lam[mu[0] - 1], rT[T]) for (mu, T) in labels]
    vec[1] = f.add(vec[1], 1)  # now Z has rank 2
    mac = columns_only(f, labels, 3)
    with pytest.raises(ExtractionError):
        rank1_extract(mac, vec)
    with pytest.raises(ExtractionError):
        rank1_extract(mac, [0] * len(labels))


def test_rank1_extract_reads_the_exact_degree_block():
    # exact degree 2 with lambda_1 = 0: the block is read through i0 = 2
    f = prime_field(3)
    lam = [0, 2, 1]
    rT = {(1, 2): 1, (1, 3): 2, (2, 3): 0}
    labels = [
        (mu, T) for mu in combinations_with_replacement(range(1, 4), 2) for T in rT
    ]
    vec = [f.mul(f.mul(lam[i - 1], lam[j - 1]), rT[T]) for (i, j), T in labels]
    lam_out, rT_out = rank1_extract(columns_only(f, labels, 3), vec)
    assert lam_out == [0, 1, 2]
    assert rT_out == rT  # scaled by lambda_2^2 = 1
    mixed = list(vec)
    mixed[labels.index(((2, 3), (1, 3)))] = 0
    with pytest.raises(ExtractionError):
        rank1_extract(columns_only(f, labels, 3), mixed)
    # degree 3, nonzero only at lambda_1 lambda_2 lambda_3: no product point
    cubic = [(mu, (1, 2)) for mu in combinations_with_replacement(range(1, 4), 3)]
    lone = [1 if mu == (1, 2, 3) else 0 for mu, _ in cubic]
    with pytest.raises(ExtractionError):
        rank1_extract(columns_only(f, cubic, 3), lone)


def test_solve_linearized_dense(toy_macaulay):
    mac, _ = toy_macaulay
    assert mac.shape == (140, 135)
    basis = solve_linearized(mac)
    assert len(basis) == 1
    assert any(basis[0])
    assert not any(macaulay_apply(mac, basis[0]))


def test_solve_linearized_no_solution(toy):
    inst, _ = toy
    sh = shorten(inst, [4], TOY.N)
    mac = build_macaulay(unfold_system(build_system(sh, 1)), 1)
    assert solve_linearized(mac) == []


def test_solve_linearized_underdetermined(toy_macaulay):
    mac, _ = toy_macaulay
    starved = replace(mac, rows=mac.rows[:40], row_labels=mac.row_labels[:40])
    basis = solve_linearized(starved)
    assert len(basis) >= 2
    for vec in basis:
        assert not any(macaulay_apply(starved, vec))


def kernel_row_counts(monkeypatch):
    """The row counts of the kernels that solve_linearized takes, in order."""
    counts = []

    def counted(rows, field, ncols):
        counts.append(len(rows))
        return kernel_rows(rows, field, ncols)

    monkeypatch.setattr(solver, "kernel_rows", counted)
    return counts


def test_solve_linearized_certifies_a_row_sample(monkeypatch):
    # the 1440 x 715 matrix of an attack on q = 3 at b = 1: the kernel of
    # cols + SLACK sampled rows vanishes on every row, so it is the whole
    # matrix's kernel, basis for basis
    params = RslParams(q=3, m=12, n=17, k=7, r=2, N=13)
    inst, _ = gen_instance(params, 0)
    strat = strategy_params(params, 0)
    sh = shorten(inst, range(strat.a, params.k), strat.N_prime)
    mac = build_macaulay(unfold_system(build_system(sh, strat.w)), 1)
    assert mac.shape == (1440, 715)
    counts = kernel_row_counts(monkeypatch)
    basis = solve_linearized(mac)
    assert counts == [715 + solver.SLACK]
    assert basis and basis == kernel_rows(mac.dense_rows(), mac.field, 715)


def test_attack_over_f3_12_leaves_the_scalar_tables_unbuilt(monkeypatch):
    # the list copies of exp and log cost about 40 MB over F_{3^12}: a
    # scalar field call on the attack path fails here
    params = RslParams(q=3, m=12, n=17, k=7, r=2, N=13)
    field = extension_field(3, 12)
    monkeypatch.setattr(field, "_lists", None)
    inst, witness = gen_instance(params, 0)
    assert inst.field is field
    result = attack(inst, strategy_params(params, 0), b_max=1)
    assert result.success and result.support.C == witness.support_basis()
    assert verify_support(inst, result.support.C)
    assert field._lists is None


def test_solve_linearized_falls_back_when_left_out_rows_cut_the_kernel(monkeypatch):
    # 40 unit rows, one per column, among 160 zero rows: a sample of 56
    # rows leaves unit rows out, so its kernel is not zero, its vectors do
    # not vanish on the rows left out, and the kernel of all rows is taken
    rows = np.zeros((200, 40), dtype=np.uint8)
    rows[np.arange(0, 200, 5), np.arange(40)] = 1
    mac = MacaulayMatrix(
        field=prime_field(3), b=1, n_lambda=0, n_cols_R=0, w=0,
        row_labels=[], col_labels=[((), ())] * 40, rows=rows,
    )
    counts = kernel_row_counts(monkeypatch)
    assert solve_linearized(mac) == []
    assert counts == [40 + solver.SLACK, 200]


def point_vector(mac, lam, rT):
    f = mac.field
    vec = []
    for mu, T in mac.col_labels:
        v = rT.get(T, 0)
        for i in mu:
            v = f.mul(v, lam[i - 1])
        vec.append(v)
    return vec


def test_planted_point_solves_system(toy):
    inst, witness = toy
    strat = strategy_params(TOY, 0)
    lam, rT, Rt = planted_solution(witness, strat, TOY.q)
    assert any(lam)
    sh = shorten(inst, range(strat.a, TOY.k), TOY.N)
    system = build_system(sh, strat.w)
    for e in range(len(system.J)):
        assert evaluate(system, e, lam, rT) == 0
    unfolded = unfold_system(system)
    for b in (1, 2):
        mac = build_macaulay(unfolded, b)
        vec = point_vector(mac, lam, rT)
        assert any(vec)
        assert not any(macaulay_apply(mac, vec))
    C = recover_support(sh, lam, Rt)
    assert verify_support(inst, C) and C.ncols == TOY.r
    assert C == witness.support_basis()


def test_toy_kernel_at_b3_is_the_planted_point(toy):
    # the b=3 cumulative matrix of the toy (6440x1935) has the planted point
    # as its whole kernel
    inst, witness = toy
    strat = strategy_params(TOY, 0)
    sh = shorten(inst, range(strat.a, TOY.k), strat.N_prime)
    mac = build_macaulay(unfold_system(build_system(sh, strat.w)), 3)
    assert mac.shape == (6440, 1935)
    basis = solve_linearized(mac)
    lam, rT, _ = planted_solution(witness, strat, TOY.q)
    assert basis == [monomial_vector(mac.col_labels, lam, rT, mac.field)]


def test_recover_support_rejects_garbage(toy):
    inst, _ = toy
    strat = strategy_params(TOY, 0)
    sh = shorten(inst, range(strat.a, TOY.k), TOY.N)
    f2 = prime_field(2)
    n_short = sh.params.n
    with pytest.raises(ExtractionError):
        recover_support(sh, [0] * 9, FieldMatrix(f2, [[0] * n_short] * 2))
    rng = random.Random(11)
    Rt = random_full_rank(f2, 2, n_short, rng)
    lam = [1] + [0] * 8
    with pytest.raises(ExtractionError):
        recover_support(sh, lam, Rt)


def digit_support_solve(inst, lam_values, Rt):
    """Oracle: the support solve written out over F_q.

    The unknowns are the w*m coordinates C[ell, c]; equation (u, jd) is
    digit jd of Sum_i lambda_i s_i[u] = Sum_(c, ell) C[ell, c] z^ell P[c, u]
    with P = Rt H^T, where z^ell is the element token q^ell.  Returns the
    canonical basis of C, or raises ExtractionError like recover_support.
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
        acc = 0
        for i, li in enumerate(lam_values):
            if li:
                acc = ext.add(acc, ext.mul(li, inst.S[u, i]))
        target.append(acc)
    P = FieldMatrix(ext, scalar_product(Rt.rows, inst.H.transpose().rows, ext))
    zpow = [pow(p.q, ell) for ell in range(p.m)]
    rows, rhs = [], []
    for u in range(nk):
        coeffs = [
            ext.unfold(ext.mul(zpow[ell], P[c, u])) for c in range(w) for ell in range(p.m)
        ]
        tdig = ext.unfold(target[u])
        for jd in range(p.m):
            rows.append([cf[jd] for cf in coeffs])
            rhs.append(tdig[jd])
    x = solve_rows(rows, rhs, fq, w * p.m)
    if x is None:
        raise ExtractionError("support system inconsistent")
    C = FieldMatrix(fq, [[x[c * p.m + ell] for c in range(w)] for ell in range(p.m)])
    basis = column_space_basis(C)
    if basis.ncols == 0:
        raise ExtractionError("recovered support is zero")
    return basis


def support_case(q, rng):
    """A random (inst, lam, Rt).  Rt loses rank a third of the time; half the
    cases make Sum_i lambda_i s_i = gamma (Rt H^T) hold for a random gamma,
    whose entries may span fewer than w dimensions, the rest are random."""
    m, k = rng.randrange(3, 7), rng.randrange(1, 4)
    n, N, w = k + rng.randrange(2, 5), rng.randrange(1, 5), rng.randrange(1, 4)
    params = RslParams(q=q, m=m, n=n, k=k, r=min(w, n - k, m), N=N)
    inst, _ = gen_instance(params, rng.randrange(2**30))
    ext, fq = inst.field, prime_field(q)
    Rt = FieldMatrix.random(fq, w, n, rng)
    if rng.random() < 1 / 3:
        Rt.rows[-1] = [0] * n if w == 1 else [fq.add(a, b) for a, b in zip(*Rt.rows[:2])]
    lam = [fq.random_element(rng) for _ in range(N)]
    if rng.random() < 1 / 2 and any(lam):
        gamma = [ext.random_element(rng) for _ in range(w)]
        if w > 1 and rng.random() < 1 / 2:
            gamma[-1] = gamma[0]
        gamma_rt = scalar_product([gamma], Rt.rows, ext)
        (target,) = scalar_product(gamma_rt, inst.H.transpose().rows, ext)
        i0 = next(i for i, li in enumerate(lam) if li)
        rest = [li if i != i0 else 0 for i, li in enumerate(lam)]
        s_i0 = [
            ext.mul(ext.sub(t, s), ext.inv(lam[i0]))
            for t, (s,) in zip(target, scalar_product(inst.S.rows, column(rest), ext))
        ]
        S = FieldMatrix(ext, [
            [s_i0[u] if i == i0 else x for i, x in enumerate(row)]
            for u, row in enumerate(inst.S.rows)
        ])
        inst = replace(inst, S=S)
    return inst, lam, Rt


@pytest.mark.parametrize("q", [2, 3])
def test_recover_support_matches_the_digit_solve(q):
    rng = random.Random(700 + q)
    outcomes = {"same basis": 0, "both raise": 0}
    for _ in range(120):
        inst, lam, Rt = support_case(q, rng)
        try:
            expected = digit_support_solve(inst, lam, Rt)
        except ExtractionError:
            with pytest.raises(ExtractionError):
                recover_support(inst, lam, Rt)
            outcomes["both raise"] += 1
            continue
        assert recover_support(inst, lam, Rt) == expected
        outcomes["same basis"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_rotate_information_columns(toy):
    # the attack's views keep the information columns in rotated order
    inst, witness = toy

    def rotated(offset):
        return shorten(inst, [(offset + j) % TOY.k for j in range(TOY.k)], TOY.N)

    assert rotated(0).H == inst.H
    assert rotated(TOY.k).H == inst.H
    rot = rotated(2)
    assert rot.is_systematic()
    assert rot.S == inst.S
    assert [rot.H.col(j) for j in range(TOY.k)] == [
        inst.H.col((2 + j) % TOY.k) for j in range(TOY.k)
    ]
    assert verify_support(rot, witness.support_basis())


def test_attack_full_weight(toy):
    inst, witness = toy
    strat = strategy_params(TOY, 0)
    result = attack(inst, strat, b_max=2)
    assert result.success and result.verified
    assert result.attempts == 1
    assert result.support.C == witness.support_basis()
    assert result.message == "support recovered"
    assert result.b_history and result.b_history[0]["b"] == 1
    d = result.to_dict()
    assert d["support_dim"] == TOY.r
    assert d["strategy"]["a"] == strat.a


def test_attack_reduced_weight_recovers_support():
    params = RslParams(q=2, m=20, n=9, k=4, r=3, N=13)
    inst, witness = gen_instance(params, 12)
    strat = strategy_params(params, 1)
    assert strat == StrategyParams(delta=1, w=2, a=3, N_prime=13)
    result = attack(inst, strat, b_max=2)
    assert result.success and result.verified
    assert result.support.C.ncols == 3
    assert result.support.C == witness.support_basis()


def test_attack_verifies_the_union_once(monkeypatch):
    # delta = 1 recovers the support as a union over several attempts
    params = RslParams(q=2, m=20, n=9, k=4, r=3, N=13)
    inst, _ = gen_instance(params, 12)
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_support(*args)

    monkeypatch.setattr(solver, "verify_support", counted)
    result = attack(inst, strategy_params(params, 1), b_max=2)
    assert result.success and result.attempts > 1
    assert len(calls) == 1 and calls[0][0] is inst


def test_attack_reduced_weight_stays_inside_support():
    params = RslParams(q=2, m=20, n=9, k=4, r=3, N=13)
    strat = strategy_params(params, 1)
    for seed in (2, 4):
        inst, witness = gen_instance(params, seed)
        result = attack(inst, strat, b_max=2)
        if result.support is None:
            continue
        V = witness.support_basis()
        stacked = V.hstack(result.support.C)
        assert rank_rows(stacked.rows, stacked.field) == params.r  # recovered columns lie in V


def test_attack_failure_reports_counts(toy):
    inst, _ = toy
    strat = StrategyParams(delta=1, w=1, a=4, N_prime=9)
    result = attack(inst, strat, b_max=2)
    assert not result.success and result.support is None
    assert result.attempts == 4
    assert "no recovery up to b=2" in result.message
    assert "N_leq_b=" in result.message and "M_leq_b=" in result.message


def test_attack_failure_quotes_the_counts_of_its_field():
    params = RslParams(q=3, m=8, n=8, k=4, r=2, N=4)
    inst, _ = gen_instance(params, 0)
    strat = strategy_params(params, 0)
    result = attack(inst, strat, b_max=2)
    assert not result.success
    shape = (params.n - strat.a, params.k - strat.a, strat.w, strat.N_prime, 2)
    counts = make_counts(3, *shape)
    assert (counts.N_leq_b, counts.M_leq_b) == (11, 126)
    assert make_counts(2, *shape).N_leq_b == 15  # the F_2 count differs here
    assert result.message.endswith("N_leq_b=11, M_leq_b=126")


Q3_ABOVE_Q = RslParams(q=3, m=6, n=9, k=4, r=2, N=4)


def test_attack_q3_recovers_at_min_b_above_q():
    # the estimator's smallest feasible b is 4 > q here, and the attack
    # recovers there: its last degree is min_b
    strat = strategy_params(Q3_ABOVE_Q, 0)
    b, _ = min_b(Q3_ABOVE_Q, strat)
    assert b == 4
    for seed in range(5):
        inst, witness = gen_instance(Q3_ABOVE_Q, seed)
        result = attack(inst, strat, b_max=b)
        assert result.success and result.support.C == witness.support_basis()
        assert [h["b"] for h in result.b_history] == [1, 2, 3, 4]
        assert result.b_history[-1]["kernel_dim"] == 1


Q3_B3 = RslParams(q=3, m=7, n=10, k=5, r=2, N=9)


def test_attack_q3_recovers_at_b3():
    # b = 3 > q on a 3150x2475 matrix, the largest elimination in tier-1
    inst, witness = gen_instance(Q3_B3, 0)
    result = attack(inst, strategy_params(Q3_B3, 0), b_max=3)
    assert result.success and result.support.C == witness.support_basis()
    hist = result.b_history
    assert [(h["b"], h["rows"], h["cols"]) for h in hist] == [
        (1, 70, 135),
        (2, 630, 675),
        (3, 3150, 2475),
    ]
    assert hist[-1]["kernel_dim"] == 1
    # the count holds at b = 1 and 3; at b = 2 the rank falls C(m, 2) = 21
    # short of m * N_leq_b = 595
    assert [h["rank"] for h in hist] == [70, 574, 2474]
    assert [h["predicted_rank"] for h in hist] == [70, 595, 2474]


@pytest.mark.parametrize("q", [2, 3])
def test_attack_solves_the_matrix_the_estimator_counts(q):
    shapes = [(RslParams(q=q, m=12, n=10, k=5, r=2, N=9), 2)]
    if q == 3:
        shapes.append((Q3_ABOVE_Q, 4))  # b = 3 and 4, at and above q
    for params, b_max in shapes:
        inst, _ = gen_instance(params, 0)
        strat = strategy_params(params, 0)
        result = attack(inst, strat, b_max=b_max)
        assert [h["b"] for h in result.b_history] == list(range(1, b_max + 1))
        for h in result.b_history:
            assert h["cols"] == bit_cost(params, strat, h["b"]).to_dict()["M_leq_b"]
            assert h["rank"] == h["predicted_rank"]


def test_attack_skips_a_degree_past_physical_memory(monkeypatch):
    # b = 4 of this shape is 600x420 cells at 2.5 bytes each (a uint8 digit
    # and the 1.5 bytes an F_3 elimination allocates at its peak), 630000
    # bytes; with 500 kB of memory the attack runs b = 1..3 (252000 bytes at
    # b = 3), then stops before building b = 4
    monkeypatch.setattr(modeling, "physical_memory", lambda: 500_000)
    inst, _ = gen_instance(Q3_ABOVE_Q, 0)
    result = attack(inst, strategy_params(Q3_ABOVE_Q, 0), b_max=5)
    assert not result.success
    assert [h["b"] for h in result.b_history] == [1, 2, 3, 4]
    skipped = result.b_history[-1]
    assert "kernel_dim" not in skipped and "kernel_s" not in skipped
    assert (skipped["rows"], skipped["cols"]) == (600, 420)
    assert skipped["skipped"] == (
        "its dense 600x420 matrix needs 0.000587 GiB, over the 0.000466 GiB of physical memory"
    )
    assert result.message.startswith("no recovery up to b=5: b=4 skipped, its dense 600x420")
    # the counts are those of b = 4, where the attack stopped, not of b_max
    assert result.message.endswith("N_leq_b=73, M_leq_b=420")


@pytest.mark.parametrize("b_max, max_attempts", [(0, None), (-2, None), (1, 0)])
def test_attack_rejects_an_empty_search(toy, b_max, max_attempts):
    with pytest.raises(ValueError):
        attack(toy[0], strategy_params(TOY, 0), b_max=b_max, max_attempts=max_attempts)


def test_attack_does_not_swallow_macaulay_errors(toy, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken build")

    monkeypatch.setattr(solver, "build_macaulay", broken)
    with pytest.raises(ValueError, match="broken build"):
        attack(toy[0], strategy_params(TOY, 0), b_max=1)
