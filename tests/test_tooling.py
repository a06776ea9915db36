"""The benchmark's per-layer tracer still finds every name it wraps, and a
traced attack still reaches the kernel through those names.  Every source
file parses as Python 3.10.  No toolkit module imports a name it never
uses, every function, method and class it defines is named by the toolkit
or the benchmark, every dataclass field and every attribute a class sets on
``self`` is read there, and every function reads every parameter it takes.
Neither tests nor the package's ``__init__`` re-exports count as users: a
name that only tests call is dead, unless it is one of the few oracles
listed in ``TEST_ORACLES``."""

import ast
import builtins
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
from rslminors import estimator, fields, solver, verification  # noqa: E402
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
        # the spans behind solver.extract_s and solver.recover_support_s
        "solver.rank1_extract",
        "solver.plucker_reconstruct",
        "solver.recover_support",
        "matrix.solve_rows",
        "matrix.column_space_basis",
        "instance.verify_support",
        "verification.run_thm2",
        "modeling.macaulay_rank",
        "matrix.rank_rows",
    ):
        assert name in names


def test_benchmark_cache_hooks_exist():
    # the benchmark clears these memo caches before each cold job and reads
    # the counters' cache statistics; a job without them ends in run_failed
    for counter in (estimator.count_Nb, estimator.count_Mb):
        assert callable(counter.cache_clear) and callable(counter.cache_info)
        counter.cache_clear()
        assert counter.cache_info().currsize == 0
    fields.extension_field.cache_clear()
    fields.extension_field(2, 4)
    assert fields.extension_field.cache_info().currsize == 1


def test_every_source_parses_as_python_3_10():
    # the oldest Python the package supports; CI runs it too
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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


def _library_bases(cls: ast.ClassDef, tree: ast.Module) -> list[type]:
    """The bases of ``cls`` that are builtins or come from an imported module,
    not from the module's own classes."""
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    bases = []
    for base in cls.bases:
        root, *attrs = ast.unparse(base).split(".")
        if root in modules:
            obj = importlib.import_module(modules[root])
        elif hasattr(builtins, root):
            obj = getattr(builtins, root)
        else:
            continue
        for attr in attrs:
            obj = getattr(obj, attr)
        bases.append(obj)
    return bases


def _named(tree: ast.Module):
    """(name, line) of every name read, attribute taken or identifier spelled
    as a string constant (as the tracer spells its targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def unreferenced_definitions(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Functions, methods and classes defined in the ``defining`` sources
    that no source (label -> text) names outside their own definition.
    Dunder methods, which the language calls, and overrides of a library
    base class method are exempt."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    uses: dict[str, list] = {}
    for label, tree in trees.items():
        for name, line in _named(tree):
            uses.setdefault(name, []).append((label, line))
    found = []
    for label in defining:
        tree = trees[label]
        exempt = {
            id(fn)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for base in _library_bases(cls, tree)
            for fn in cls.body
            if hasattr(base, getattr(fn, "name", ""))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if id(node) in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(
                where != label or not node.lineno <= line <= node.end_lineno
                for where, line in uses.get(name, [])
            ):
                found.append((label, node.lineno, name))
    return [f"{label}:{line} {name}" for label, line, name in sorted(found)]


def _attributes_read(trees) -> set[str]:
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_dataclass_fields(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Fields of the ``@dataclass`` classes in the ``defining`` sources that
    no source (label -> text) reads as an attribute."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    read = _attributes_read(trees.values())
    found = []
    for label in defining:
        for cls in ast.walk(trees[label]):
            if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
                for d in cls.decorator_list
            ):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id not in read
                ):
                    found.append(f"{label}:{node.lineno} {cls.name}.{node.target.id}")
    return found


def test_unread_dataclass_fields_check_sees_an_unread_field():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    written: int\n"
        "class B:\n"
        "    plain: int\n"
    )
    sources = {"a.py": module, "b.py": "a = A(read=1, written=2)\na.written = a.read\n"}
    assert unread_dataclass_fields(sources, ["a.py"]) == ["a.py:5 A.written"]


def unread_self_attributes(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Attributes that a class in the ``defining`` sources sets on ``self``
    and that no source (label -> text) reads as an attribute."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    read = _attributes_read(trees.values())
    found = set()
    for label in defining:
        for cls in ast.walk(trees[label]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in read
                ):
                    found.add(f"{label}:{node.lineno} {cls.name}.{node.attr}")
    return sorted(found)


def test_unread_self_attributes_check_sees_an_unread_attribute():
    module = (
        "class A:\n"
        "    def __init__(self, x):\n"
        "        self.read = x\n"
        "        self.written = x\n"
        "        self.written += 1\n"
        "    def get(self):\n"
        "        return self.read\n"
    )
    sources = {"a.py": module, "b.py": "a = A(1)\na.written = a.get()\n"}
    assert unread_self_attributes(sources, ["a.py"]) == [
        "a.py:4 A.written",
        "a.py:5 A.written",
    ]


def user_sources() -> dict[str, str]:
    """The sources that count as users of a toolkit name: the package
    without its ``__init__``, whose re-exports use nothing, and the
    benchmark without its tests."""
    paths = [
        path for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "__init__.py"
    ] + [
        path
        for path in sorted((ROOT / "bench").rglob("*.py"))
        if not path.name.startswith("test_")
    ]
    return {str(path.relative_to(ROOT)): path.read_text() for path in paths}


# Toolkit names that only tests call, kept because the tests check the
# planted point against them.
TEST_ORACLES = {
    "monomial_vector": "the planted point's monomial vector, on the array of "
    "its minors, which the Macaulay matrix must annihilate and a solved kernel "
    "vector must equal",
}


def test_every_dataclass_field_is_read_somewhere():
    sources = user_sources()
    defining = [label for label in sources if label.startswith("src/rslminors/")]
    assert unread_dataclass_fields(sources, defining) == []


def test_every_attribute_set_on_self_is_read_somewhere():
    sources = user_sources()
    defining = [label for label in sources if label.startswith("src/rslminors/")]
    assert unread_self_attributes(sources, defining) == []


def test_unreferenced_definitions_check_sees_a_dead_name():
    module = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        return self.error(message)\n"
        "    def unused(self):\n"
        "        return P\n"
        "def traced():\n"
        "    pass\n"
        "def called():\n"
        "    return called()\n"
    )
    sources = {"a.py": module, "b.py": "TARGET = 'traced'\nprint(P)\n"}
    assert unreferenced_definitions(sources, ["a.py"]) == [
        "a.py:5 unused",
        "a.py:9 called",
    ]


def test_every_toolkit_definition_is_named_somewhere():
    sources = user_sources()
    defining = [label for label in sources if label.startswith("src/rslminors/")]
    flagged = unreferenced_definitions(sources, defining)
    # a stale oracle entry fails as surely as a new dead name
    assert sorted(entry.split()[-1] for entry in flagged) == sorted(TEST_ORACLES), flagged


def _functions(node: ast.AST, in_class: bool = False):
    """Every function under ``node`` that is not a method: module-level
    functions and functions nested in a function or a method body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_class:
            yield child
        yield from _functions(child, isinstance(child, ast.ClassDef))


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters of the functions in the sources (label -> text) that the
    function's body never reads.  Methods are exempt: the representations
    of one protocol share a signature whether or not each reads every
    argument."""
    found = []
    for label, source in sources.items():
        for fn in _functions(ast.parse(source)):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            found += [
                f"{label}:{fn.lineno} {fn.name} {a.arg}" for a in params if a.arg not in read
            ]
    return found


def test_unread_parameters_check_sees_an_unread_parameter():
    module = (
        "def f(a, b, *rest, c=1, **kw):\n"
        "    def inner(x, y):\n"
        "        return x\n"
        "    return a + c + len(rest) + len(kw)\n"
        "class K:\n"
        "    def method(self, unused):\n"
        "        def nested(z):\n"
        "            return 0\n"
        "        return nested\n"
    )
    assert unread_parameters({"a.py": module}) == [
        "a.py:1 f b",
        "a.py:2 inner y",
        "a.py:7 nested z",
    ]


def test_every_function_parameter_is_read():
    sources = {
        path.name: path.read_text()
        for path in sorted((ROOT / "src" / "rslminors").glob("*.py"))
    }
    assert unread_parameters(sources) == []
