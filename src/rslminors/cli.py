"""Command-line front end: generate, inspect, attack, estimate, verify.

Every subcommand is deterministic given its flags and seed, and every report
embeds the full configuration and the toolkit version.  Exit codes: 0 success;
1 a failed gate (``estimate --table2``, ``verify``) or unreadable input; 2 an
attack that ends without a verified support; 64 usage error.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import operator
import re
import sys
from typing import Optional

from .estimator import delta_max, ghpt_cost, optimize, run_table2
from .fields import is_prime
from .instance import RslParams, gen_instance, strategy_params
from .instance_io import InstanceFormatError, load_instance, save_instance
from .solver import attack
from .verification import SUITES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_TOKEN = re.compile(r"\s*(\d+|[kr()+*-])")
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def eval_n_expression(text: str, k: int, r: int) -> int:
    """Evaluate an expression over {k, r, integers, +, -, *} with parentheses,
    e.g. "k*(r-1)".  The lexer admits only those tokens, so Python's parser
    never sees "0x10", "1_0" or a newline; a number token is read in decimal,
    so "09" is nine."""
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if mo is None:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:].strip()[:8]!r}")
            break
        tokens.append(mo.group(1))
        pos = mo.end()
    source = " ".join(str(int(t)) if t.isdigit() else t for t in tokens)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError:
        raise ValueError(f"not an expression: {text.strip()!r}") from None

    def value(node: ast.AST) -> int:
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.Name) and node.id in ("k", "r"):
            return k if node.id == "k" else r
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        raise ValueError(f"unexpected {ast.unparse(node)!r} in {text.strip()!r}")

    return value(tree.body)


def _emit(report: dict, fmt: str, out_path: Optional[str], text_lines: list[str]) -> None:
    if fmt == "json":
        payload = json.dumps(report, indent=2)
    else:
        payload = "\n".join(text_lines)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _version() -> str:
    from . import __version__

    return __version__


def _base_report(command: str, args: argparse.Namespace) -> dict:
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "command") and value is not None
    }
    return {"version": _version(), "command": command, "config": config}


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return int(text)


def _prime(text: str) -> int:
    if not text.isdigit() or not is_prime(int(text)):
        raise argparse.ArgumentTypeError(f"must be prime, got {text!r}")
    return int(text)


def _params_from_args(args: argparse.Namespace, missing_hint: str = "") -> RslParams:
    missing = [f for f in ("m", "n", "k", "r", "N") if getattr(args, f) is None]
    if missing:
        flags = ", ".join("--" + f for f in missing)
        raise ValueError(f"missing parameter flags: {flags}{missing_hint}")
    N = eval_n_expression(args.N, args.k, args.r)
    if N < 1:
        raise ValueError(f"N expression evaluates to {N}, need at least 1")
    return RslParams(q=args.q, m=args.m, n=args.n, k=args.k, r=args.r, N=N)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    inst, witness = gen_instance(params, args.seed)
    save_instance(args.output, inst, None if args.public_only else witness)
    print(
        f"wrote {args.output}: q={params.q} m={params.m} n={params.n} "
        f"k={params.k} r={params.r} N={params.N} seed={args.seed}"
        + (" (public only)" if args.public_only else "")
    )
    if params.easy_regime:
        print(
            f"warning: easy regime (N={params.N} >= k*r={params.k * params.r}); "
            "the support is linear-algebra recoverable"
        )
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        inst, witness = load_instance(args.instance)
    except (OSError, InstanceFormatError) as exc:
        print(f"inspect: {exc}", file=sys.stderr)
        return EXIT_FAIL
    p = inst.params
    report = _base_report("inspect", args)
    report.update(
        {
            "params": {"q": p.q, "m": p.m, "n": p.n, "k": p.k, "r": p.r, "N": p.N},
            "modulus": list(inst.field.modulus),
            "systematic": inst.is_systematic(),
            "easy_regime": p.easy_regime,
            "has_secret": witness is not None,
            "delta_max": delta_max(p),
        }
    )
    strategies = []
    for delta in range(delta_max(p) + 1):
        try:
            s = strategy_params(p, delta)
        except ValueError:
            continue
        strategies.append(
            {"delta": delta, "w": s.w, "a": s.a, "N_prime": s.N_prime}
        )
    report["strategies"] = strategies
    lines = [
        f"instance {args.instance}",
        f"  q={p.q} m={p.m} n={p.n} k={p.k} r={p.r} N={p.N}",
        f"  systematic={report['systematic']} easy_regime={p.easy_regime} "
        f"secret={report['has_secret']}",
        "  strategies (delta, w, a, N'): "
        + "; ".join(
            f"({s['delta']}, {s['w']}, {s['a']}, {s['N_prime']})" for s in strategies
        ),
    ]
    _emit(report, args.report, args.output, lines)
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    witness = None
    if args.instance:
        try:
            inst, witness = load_instance(args.instance)
        except (OSError, InstanceFormatError) as exc:
            print(f"attack: {exc}", file=sys.stderr)
            return EXIT_FAIL
    else:
        try:
            params = _params_from_args(args, " (give --instance or full parameters)")
        except ValueError as exc:
            print(f"attack: {exc}", file=sys.stderr)
            return EXIT_USAGE
        inst, witness = gen_instance(params, args.seed)
    p = inst.params
    try:
        strategy = strategy_params(p, args.delta, args.a)
    except ValueError as exc:
        print(f"attack: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = attack(
        inst,
        strategy,
        b_max=args.b_max,
        max_attempts=args.max_attempts,
    )
    report = _base_report("attack", args)
    report.update(result.to_dict())
    planted_match = None
    if witness is not None and result.support is not None:
        planted_match = result.support.C == witness.support_basis()
    report["planted_match"] = planted_match
    lines = [
        f"attack: {result.message}",
        f"  strategy delta={strategy.delta} w={strategy.w} a={strategy.a} "
        f"N'={strategy.N_prime}, b_max={args.b_max}",
        f"  verified={result.verified} dim={result.support.C.ncols if result.support else 0}"
        + ("" if planted_match is None else f" planted_match={planted_match}"),
        f"  elapsed={result.elapsed_s:.2f}s",
    ]
    for h in result.b_history:
        lines.append(
            f"  b={h['b']} offset={h['offset']} rows={h['rows']} cols={h['cols']}"
            + (
                f" skipped: {h['skipped']}" if "skipped" in h
                else f" kernel_dim={h['kernel_dim']} rank={h['rank']}"
                f" predicted_rank={h['predicted_rank']}"
                f" build_s={h['build_s']} kernel_s={h['kernel_s']} nnz={h['nnz']}"
            )
            + (f" extraction_error={h['extraction_error']}" if "extraction_error" in h else "")
        )
    _emit(report, args.report, args.output, lines)
    return EXIT_OK if result.verified else EXIT_INFEASIBLE


def cmd_estimate(args: argparse.Namespace) -> int:
    report = _base_report("estimate", args)
    if args.table2:
        table = run_table2(b_max=args.b_max if args.b_max is not None else 4)
        report.update(table)
        lines = ["benchmark table reproduction (delta=0 and non-hybrid delta>0):"]
        for row in table["rows"]:
            d0 = row["delta0"]
            lines.append(
                f"  m={row['m']} n={row['n']} k={row['k']} r={row['r']} "
                f"N={row['N']} ({row['N_label']}): "
                f"bits={d0.get('bits')} expected={d0.get('expected_bits')} "
                f"b={d0.get('b')} delta_bits={d0.get('delta_bits')} ok={d0['ok']}"
            )
            dp = row["delta_pos"]
            if dp is not None:
                lines.append(
                    f"    delta>0: bits={dp.get('bits')} expected={dp.get('expected_bits')}"
                    f" (b,w,a)=({dp.get('b')},{dp.get('w')},{dp.get('a')})"
                    f" expected ({dp.get('expected_b')},{dp.get('expected_w')},{dp.get('expected_a')})"
                    f" ok={dp['ok']}"
                )
        lines.append(f"overall ok={table['ok']} elapsed={table['elapsed_s']}s")
        _emit(report, args.report, args.output, lines)
        return EXIT_OK if table["ok"] else EXIT_FAIL
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        print(f"estimate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    deltas = None
    if args.deltas:
        try:
            deltas = [int(x) for x in args.deltas.split(",")]
        except ValueError:
            print(f"estimate: bad --deltas {args.deltas!r}", file=sys.stderr)
            return EXIT_USAGE
        outside = [d for d in deltas if not 0 <= d < params.r]
        if outside:
            bad = ",".join(map(str, outside))
            print(f"estimate: --deltas {bad} outside [0, r) = [0, {params.r})", file=sys.stderr)
            return EXIT_USAGE
    res = optimize(params, b_max=args.b_max if args.b_max is not None else 5, deltas=deltas)
    ghpt = ghpt_cost(params.m, params.n, params.k, params.N, params.r, q=params.q)
    report.update(
        {
            "params": {"q": params.q, "m": params.m, "n": params.n, "k": params.k,
                       "r": params.r, "N": params.N},
            "rows": [row.to_dict() for row in res.rows],
            "best": res.best.to_dict() if res.best else None,
            "ghpt": {
                "e_minus": ghpt.e_minus,
                "e_plus": ghpt.e_plus,
                "log2_cost": ghpt.log2_cost,
                "degenerate": ghpt.degenerate,
            },
        }
    )
    lines = [
        f"estimate: q={params.q} m={params.m} n={params.n} k={params.k} "
        f"r={params.r} N={params.N}",
        "  delta  w    a    b  algorithm  bits      feasible",
    ]
    for row in sorted(res.rows, key=lambda x: (x.delta, x.log2_cost)):
        d = row.to_dict()
        lines.append(
            f"  {d['delta']:<6}{d['w']:<5}{d['a']:<5}{d['b']:<3}"
            f"{d['algorithm']:<11}{d['log2_cost']:<10.2f}{d['feasible']}"
        )
    if res.best:
        bd = res.best.to_dict()
        lines.append(
            f"  best: delta={bd['delta']} a={bd['a']} b={bd['b']} "
            f"{bd['algorithm']} {bd['log2_cost']:.2f} bits"
        )
    else:
        lines.append("  no feasible strategy up to b_max")
    lines.append(
        f"  combinatorial baseline: {ghpt.log2_cost:.2f} bits"
        + (" (degenerate: exponent <= 0)" if ghpt.degenerate else "")
    )
    _emit(report, args.report, args.output, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    run = SUITES[args.suite]
    options = {
        "trials": args.trials,
        "qs": None if args.q is None else (args.q,),
        "bs": None if args.b is None else (args.b,),
        "seed": args.seed,
        "quarantine_dir": args.quarantine_dir,
    }
    accepted = inspect.signature(run).parameters
    for flag, key in (("--q", "qs"), ("--b", "bs")):
        if options[key] is not None and key not in accepted:
            print(f"verify: {flag} does not apply to suite {args.suite}", file=sys.stderr)
            return EXIT_USAGE
    kwargs = {key: v for key, v in options.items() if key in accepted and v is not None}
    report = _base_report("verify", args)
    result = run(**kwargs)
    report.update(result, config={**report["config"], **result["config"]})
    lines = [
        f"verify {args.suite}: trials={report['trials']} "
        + (
            f"passes={report['passes']} "
            if "passes" in report
            else ""
        )
        + f"ok={report['ok']}"
    ]
    if report.get("failures"):
        for fail in report["failures"]:
            lines.append(f"  failure: {json.dumps(fail)}")
    for cell in report.get("cells", []):
        lines.append(
            f"  N={cell['N']} w={cell['w']}: mean={cell['mean']:.4f} "
            f"expected={cell['expected']:.4f} z={cell['z']:.2f} ok={cell['ok']}"
        )
    lines.append(f"elapsed {report['elapsed_s']}s")
    _emit(report, args.report, args.output, lines)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rslminors",
        description="Algebraic support-recovery toolkit for rank-metric "
        "syndrome batches sharing one error support.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, require: bool):
        sp.add_argument("--q", type=int, default=2, help="base field size (default 2)")
        sp.add_argument("--m", type=int, required=require, help="extension degree")
        sp.add_argument("--n", type=int, required=require, help="code length")
        sp.add_argument("--k", type=int, required=require, help="code dimension")
        sp.add_argument("--r", type=int, required=require, help="support dimension")
        sp.add_argument(
            "--N",
            type=str,
            required=require,
            help="syndrome count, an integer or expression in k and r like 'k*(r-1)'",
        )

    def add_report(sp):
        sp.add_argument("--report", choices=("text", "json"), default="text")
        sp.add_argument("-o", "--output", help="write the report to this file")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    add_params(p_gen, require=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True, help="instance file to write")
    p_gen.add_argument(
        "--public-only", action="store_true", help="omit the SECRET block"
    )
    p_gen.set_defaults(func=cmd_gen)

    p_ins = sub.add_parser("inspect", help="summarize an instance file")
    p_ins.add_argument("instance", help="instance file to read")
    add_report(p_ins)
    p_ins.set_defaults(func=cmd_inspect)

    p_att = sub.add_parser("attack", help="run the support-recovery attack")
    p_att.add_argument("--instance", help="instance file (else give parameters)")
    add_params(p_att, require=False)
    p_att.add_argument("--seed", type=int, default=0, help="seed for inline generation")
    p_att.add_argument("--delta", type=int, default=0, help="weight reduction r - w")
    p_att.add_argument("--a", type=int, default=None, help="shortening length override")
    p_att.add_argument("--b-max", type=_positive_int, default=3, dest="b_max")
    p_att.add_argument(
        "--max-attempts", type=_positive_int, default=None, dest="max_attempts"
    )
    add_report(p_att)
    p_att.set_defaults(func=cmd_attack)

    p_est = sub.add_parser("estimate", help="bit-cost estimates and sweeps")
    add_params(p_est, require=False)
    p_est.add_argument("--b-max", type=_positive_int, default=None, dest="b_max")
    p_est.add_argument("--deltas", type=str, default=None, help="comma list, e.g. 0,1,2")
    p_est.add_argument(
        "--table2",
        action="store_true",
        help="reproduce the built-in benchmark rows and diff against references",
    )
    add_report(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_ver = sub.add_parser("verify", help="run experimental confirmation suites")
    p_ver.add_argument("suite", choices=tuple(SUITES))
    p_ver.add_argument("--trials", type=_positive_int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--q", type=_prime, default=None, help="restrict to one base field")
    p_ver.add_argument("--b", type=_positive_int, default=None, help="restrict to one degree")
    p_ver.add_argument(
        "--quarantine-dir",
        default=".",
        dest="quarantine_dir",
        help="directory for failing instances (default current directory)",
    )
    add_report(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
