"""The benchmark's per-layer tracer still finds every name it wraps, and a
traced attack still reaches the kernel through those names.  No toolkit
module imports a name it never uses."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

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


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, ``__future__`` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "os (line 1)",
        "b (line 2)",
    ]


def test_toolkit_modules_have_no_unused_imports():
    found = {}
    for path in sorted((ROOT / "src" / "rslminors").glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}
