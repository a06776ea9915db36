"""Each output check of the benchmark accepts the toolkit's output and
rejects a corrupted one; the tracer leaves the toolkit as it found it."""

import copy

import pytest

import checks
import tracing
from rslminors import RslParams, attack, count_Nb, gen_instance, run_table2, strategy_params


def test_rank_mod_q():
    assert checks.rank_mod_q([[1, 2], [2, 4]], 3) == 1
    assert checks.rank_mod_q([[1, 2], [1, 1]], 3) == 2
    assert checks.rank_mod_q([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2) == 2


def test_planted_word_marks_instances_the_attack_cannot_solve():
    p = RslParams(q=2, m=12, n=10, k=5, r=2, N=9)
    strategy = strategy_params(p, 0)
    shapes = []
    for seed in (0, 4, 417844697):
        _, wit = gen_instance(p, seed)
        blocks = [R.rows for R in wit.R_list[: strategy.N_prime]]
        shapes.append(checks.planted_word(blocks, strategy.a, p.q))
    assert shapes == [(1, 2), (2, 0), (1, 1)]


def test_kernel_mod_q():
    rows = [[1, 2, 0, 1], [0, 1, 1, 2]]
    basis = checks.kernel_mod_q(rows, 4, 3)
    assert len(basis) == 2
    assert all(sum(a * b for a, b in zip(r, v)) % 3 == 0 for r in rows for v in basis)


def test_check_support_rejects_wrong_basis():
    planted = [[1, 0], [0, 1], [1, 1], [0, 0]]  # m=4, r=2 over F_3
    other_basis = [[1, 1], [2, 1], [0, 2], [0, 0]]  # same span, other columns
    checks.check_support(planted, planted, 3)
    checks.check_support(other_basis, planted, 3)
    wrong = [[1, 0], [0, 1], [1, 1], [0, 1]]  # second column leaves the span
    with pytest.raises(checks.CheckFailed):
        checks.check_support(wrong, planted, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_support([[1, 2], [0, 0], [1, 2], [0, 0]], planted, 3)  # dependent
    with pytest.raises(checks.CheckFailed):
        checks.check_support([[1], [0], [1], [0]], planted, 3)  # too small


def test_check_support_on_a_real_attack():
    p = RslParams(q=3, m=8, n=10, k=4, r=2, N=7)
    inst, wit = gen_instance(p, 0)
    res = attack(inst, strategy_params(p, 0), b_max=1)
    assert res.success
    checks.check_support(res.support.C.rows, wit.C.rows, 3)
    corrupted = copy.deepcopy(res.support.C.rows)
    corrupted[-1][-1] = (corrupted[-1][-1] + 1) % 3
    with pytest.raises(checks.CheckFailed):
        checks.check_support(corrupted, wit.C.rows, 3)


def test_thm2_rank_rederivation_and_off_by_one():
    for n, k, w, N in [(9, 5, 1, 3), (10, 5, 2, 3), (11, 6, 3, 2), (12, 7, 2, 4)]:
        for b in (1, 2, 3):
            assert checks.thm2_rank(n, k, w, N, b) == count_Nb(n, k, w, N, b)
    rank = checks.thm2_rank(10, 5, 2, 3, 2)
    checks.check_thm2([(10, 5, 2, 3, 2, rank)])
    with pytest.raises(checks.CheckFailed):
        checks.check_thm2([(10, 5, 2, 3, 2, rank - 1)])


def test_check_table2_rejects_a_row_off_by_three_bits():
    report = run_table2()
    checks.check_table2(report)
    for i, key in [(0, "delta0"), (3, "delta_pos")]:
        bad = copy.deepcopy(report)
        bad["rows"][i][key]["bits"] += 3
        with pytest.raises(checks.CheckFailed):
            checks.check_table2(bad)
    bad = copy.deepcopy(report)
    bad["rows"][1]["delta0"]["b"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_table2(bad)


def test_tracer_restores_every_name():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(o, a) is not f for (o, a, _, _), f in zip(tracing.TARGETS, before))
    tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a, _, _), f in zip(tracing.TARGETS, before))
