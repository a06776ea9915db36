"""The benchmark's per-layer tracer still finds every name it wraps, and a
traced attack still reaches the kernel through those names."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
from rslminors import solver, verification  # noqa: E402
from rslminors.instance import RslParams, gen_instance, strategy_params  # noqa: E402


def test_tracer_installs_and_sees_the_attack_layers():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    params = RslParams(q=2, m=14, n=10, k=5, r=2, N=9)
    inst, _ = gen_instance(params, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(0)
        result = solver.attack(inst, strategy_params(params, 0), b_max=1)
        thm2 = verification.run_thm2(trials=1, qs=(2,), bs=(2,), seed=0)
        tracer.end()
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a, _, _), f in zip(tracing.TARGETS, before))
    assert result.success and thm2["ok"]
    names = {span[0] for span in tracer.spans}
    for name in (
        "solver.attack",
        "modeling.build_macaulay",
        "modeling.dense_rows",
        "solver.solve_linearized",
        "matrix.kernel_rows",
        "matrix.solve_rows",
        "matrix.column_space_basis",
        "instance.verify_support",
        "verification.run_thm2",
        "modeling.macaulay_rank",
        "matrix.rank_rows",
    ):
        assert name in names
