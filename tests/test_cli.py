"""Exit codes, report shapes, and expression handling of the command-line
front end."""

import json

import pytest

from rslminors import __version__, modeling
from rslminors.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    eval_n_expression,
    main,
)
from rslminors.instance import RslParams, gen_instance, shorten
from rslminors.instance_io import load_instance
from rslminors.modeling import build_system, unfold_system

from test_modeling import macaulay_reference

TOY_ARGS = [
    "--q", "2", "--m", "14", "--n", "10", "--k", "5", "--r", "2",
    "--N", "9", "--seed", "3",
]


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy.rsl"
    assert main(["gen", *TOY_ARGS, "-o", str(path)]) == EXIT_OK
    return path


def test_eval_n_expression():
    assert eval_n_expression("k*(r-1)", 4, 3) == 8
    assert eval_n_expression("k*(r-2)", 179, 7) == 895
    assert eval_n_expression("2+3*4", 0, 0) == 14
    assert eval_n_expression("10-2-3", 0, 0) == 5
    assert eval_n_expression("(k+r)*(k-r)", 5, 2) == 21
    assert eval_n_expression(" 42 ", 0, 0) == 42
    assert eval_n_expression("09", 4, 3) == 9
    assert eval_n_expression("k\n+1", 4, 3) == 5
    for bad in (
        "k*(x+1)", "", "k*", "(k", "k)", "3 4",
        "1_0", "0x10", "-k", "k**2", "k/2", "2(3)",
    ):
        with pytest.raises(ValueError):
            eval_n_expression(bad, 4, 3)


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "toy12.rsl"
    rc = main([
        "gen", "--q", "2", "--m", "12", "--n", "12", "--k", "4", "--r", "3",
        "--N", "9", "--seed", "7", "-o", str(path),
    ])
    assert rc == EXIT_OK
    assert f"wrote {path}" in capsys.readouterr().out
    inst, witness = load_instance(str(path))
    direct, direct_wit = gen_instance(RslParams(q=2, m=12, n=12, k=4, r=3, N=9), 7)
    assert inst.params == direct.params
    assert inst.H == direct.H and inst.S == direct.S
    assert witness is not None and witness.C == direct_wit.C


def test_gen_easy_regime_warning(tmp_path, capsys):
    path = tmp_path / "easy.rsl"
    rc = main([
        "gen", "--q", "2", "--m", "6", "--n", "6", "--k", "2", "--r", "2",
        "--N", "4", "-o", str(path),
    ])
    assert rc == EXIT_OK
    assert "easy regime" in capsys.readouterr().out


def test_gen_bad_expression(tmp_path, capsys):
    rc = main([
        "gen", "--q", "2", "--m", "6", "--n", "6", "--k", "2", "--r", "2",
        "--N", "k*(x+1)", "-o", str(tmp_path / "x.rsl"),
    ])
    assert rc == EXIT_USAGE
    assert "gen:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "attack", "estimate"])
def test_non_prime_q_is_a_usage_error(command, tmp_path, capsys):
    argv = [command, "--q", "4", "--m", "6", "--n", "6", "--k", "2", "--r", "2", "--N", "3"]
    if command == "gen":
        argv += ["-o", str(tmp_path / "x.rsl")]
    assert main(argv) == EXIT_USAGE
    # one line, without attack's hint for missing flags
    assert capsys.readouterr().err == f"{command}: q must be prime, got 4\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--q", "4", "--q: must be prime, got '4'"), ("--b", "0", "--b: must be at least 1")],
    ids=["q4", "b0"],
)
def test_verify_rejects_a_non_prime_q_and_b_below_1(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm2", flag, value])
    assert exc.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_gen_missing_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--q", "2", "--m", "6", "-o", str(tmp_path / "x.rsl")])
    assert exc.value.code == EXIT_USAGE


def test_inspect_json(toy_file, tmp_path):
    out = tmp_path / "inspect.json"
    rc = main(["inspect", str(toy_file), "--report", "json", "-o", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["version"] == __version__
    assert rep["command"] == "inspect"
    assert rep["params"] == {"q": 2, "m": 14, "n": 10, "k": 5, "r": 2, "N": 9}
    assert rep["systematic"] is True
    assert rep["easy_regime"] is False
    assert rep["has_secret"] is True
    assert rep["strategies"][0] == {"delta": 0, "w": 2, "a": 4, "N_prime": 9}
    assert len(rep["modulus"]) == 15


def test_inspect_text(toy_file, capsys):
    assert main(["inspect", str(toy_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "strategies (delta, w, a, N')" in out


def test_inspect_missing_file(tmp_path, capsys):
    rc = main(["inspect", str(tmp_path / "nope.rsl")])
    assert rc == EXIT_FAIL
    assert "inspect:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "2", "--m", "21", "--n", "10", "--k", "5", "--r", "2", "--N", "9", "--seed", "1"],
        ["--q", "3", "--m", "13", "--n", "10", "--k", "5", "--r", "2", "--N", "9", "--seed", "0",
         "--b-max", "3"],
    ],
    ids=["f2_21", "f3_13"],
)
def test_attack_recovers_over_an_untabulated_field(argv, tmp_path):
    # q^m above TABLE_LIMIT: the equations are built and unfolded on object
    # arrays
    out = tmp_path / "attack.json"
    assert main(["attack", *argv, "--report", "json", "-o", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["success"] is True and rep["planted_match"] is True


def test_attack_recovers_toy(toy_file, tmp_path, capsys):
    out = tmp_path / "attack.json"
    rc = main([
        "attack", "--instance", str(toy_file), "--b-max", "2",
        "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["success"] is True
    assert rep["planted_match"] is True
    assert rep["support_dim"] == 2
    assert rep["strategy"] == {"delta": 0, "w": 2, "a": 4, "N_prime": 9}
    assert rep["config"]["b_max"] == 2
    assert rep["b_history"][0]["b"] == 1
    # each degree that built its matrix times the build and the kernel
    for h in rep["b_history"]:
        assert h["build_s"] >= 0 and h["kernel_s"] >= 0
    assert main(["attack", "--instance", str(toy_file), "--b-max", "2"]) == EXIT_OK
    lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("  b=")]
    assert lines and all(" build_s=" in x and " kernel_s=" in x for x in lines)


def test_attack_reports_the_nonzero_count(toy_file, tmp_path, capsys):
    out = tmp_path / "attack.json"
    rc = main([
        "attack", "--instance", str(toy_file), "--b-max", "2",
        "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    inst, _ = load_instance(str(toy_file))
    p, strategy = inst.params, rep["strategy"]
    for h in rep["b_history"]:
        assert 0 < h["nnz"] <= h["rows"] * h["cols"]
        keep = [(h["offset"] + j) % p.k for j in range(strategy["a"], p.k)]
        sh = shorten(inst, keep, strategy["N_prime"])
        _, _, rows = macaulay_reference(unfold_system(build_system(sh, strategy["w"])), h["b"])
        assert h["nnz"] == sum(map(len, rows))
    assert main(["attack", "--instance", str(toy_file), "--b-max", "2"]) == EXIT_OK
    lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("  b=")]
    assert [x.rsplit(" nnz=", 1)[1] for x in lines] == [str(h["nnz"]) for h in rep["b_history"]]


def test_attack_public_only(tmp_path):
    path = tmp_path / "pub.rsl"
    assert main(["gen", *TOY_ARGS, "--public-only", "-o", str(path)]) == EXIT_OK
    inst, witness = load_instance(str(path))
    assert witness is None
    out = tmp_path / "attack.json"
    rc = main([
        "attack", "--instance", str(path), "--b-max", "2",
        "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["planted_match"] is None
    assert rep["verified"] is True


@pytest.mark.parametrize("command", ["attack", "estimate"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_b_max_below_1_is_a_usage_error(toy_file, command, value, capsys):
    # attack --b-max 0 used to run no degree and exit 2 with "no recovery up
    # to b=0"; estimate --b-max 0 printed "no feasible strategy"
    argv = ["--instance", str(toy_file)] if command == "attack" else EST40[1:]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--b-max", value])
    assert exc.value.code == EXIT_USAGE
    assert f"--b-max: must be at least 1, got '{value}'" in capsys.readouterr().err


def test_attack_shortening_as_wide_as_k_fails_cleanly(capsys):
    # N = 13 at r = 3 asks for a = 4 = k; shortening stops at k - 1
    rc = main([
        "attack", "--q", "2", "--m", "14", "--n", "9", "--k", "4", "--r", "3",
        "--N", "13", "--b-max", "1",
    ])
    assert rc == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "no recovery up to b=1" in out and "a=3" in out


def test_attack_without_minor_equations_is_a_usage_error(capsys):
    # w = r = 3 equals n-k: the minor system would have no equations
    rc = main(["attack", "--q", "2", "--m", "8", "--n", "8", "--k", "5", "--r", "3", "--N", "9"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == (
        "attack: no minor equations: need w < n-k, got w=3, n-k=3\n"
    )


def test_attack_shortening_leaves_room_for_the_support(capsys):
    # delta = 4 used to pick a = 5, leaving n - a = 5 < r = 6 coordinates
    rc = main([
        "attack", "--q", "2", "--m", "8", "--n", "10", "--k", "6", "--r", "6",
        "--N", "50", "--delta", "4", "--b-max", "1",
    ])
    assert rc == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "strategy delta=4 w=2 a=4 " in out and "no recovery up to b=1" in out


def test_attack_runs_on_a_degree_one_field(tmp_path, capsys):
    path = tmp_path / "m1.rsl"
    argv = ["--q", "2", "--m", "1", "--n", "6", "--k", "3", "--r", "1", "--N", "2"]
    assert main(["gen", *argv, "-o", str(path)]) == EXIT_OK
    assert main(["attack", "--instance", str(path)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == ""


def test_attack_q3_recovers_at_exact_degree_two(capsys):
    # above F_2 the attack solves the exact-degree matrix, 1080x675 at b=2
    rc = main([
        "attack", "--q", "3", "--m", "12", "--n", "10", "--k", "5", "--r", "2",
        "--N", "9", "--b-max", "2", "--seed", "0",
    ])
    assert rc == EXIT_OK
    assert "b=2 offset=0 rows=1080 cols=675 kernel_dim=1" in capsys.readouterr().out


def test_attack_q5_recovers_at_the_predicted_rank(tmp_path):
    # F_5 eliminates as residues and F_{5^8} through Zech logarithms; the
    # b=2 matrix is 560x420, of rank 419
    out = tmp_path / "q5.json"
    rc = main([
        "attack", "--q", "5", "--m", "8", "--n", "9", "--k", "4", "--r", "2", "--N", "7",
        "--seed", "0", "--b-max", "2", "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["verified"] is True and rep["planted_match"] is True
    h = rep["b_history"][-1]
    assert (h["b"], h["rows"], h["cols"], h["rank"]) == (2, 560, 420, 419)
    assert h["rank"] == h["predicted_rank"]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="kernels of dimension > 1 are not searched (ROADMAP item 1)",
)
@pytest.mark.parametrize("argv", [
    # F1: the planted lambda-system has a kernel of dimension > 1
    ["--m", "12", "--n", "10", "--k", "5", "--r", "2", "--N", "9", "--b-max", "2", "--seed", "4"],
    # delta = 1: several rank-2 words lie in the support
    ["--m", "20", "--n", "9", "--k", "4", "--r", "3", "--N", "13", "--delta", "1", "--seed", "0",
     "--b-max", "2"],
], ids=["f1-seed4", "delta1-seed0"])
def test_attack_recovers_from_a_kernel_of_several_solutions(argv, capsys):
    assert main(["attack", "--q", "2", *argv]) == EXIT_OK


def test_attack_stops_cleanly_before_a_matrix_past_physical_memory(monkeypatch, capsys):
    # b = 4 of this shape needs 630000 bytes (600x420 cells at 2.5 bytes);
    # with 500 kB the attack stops there with one line and exits 2
    monkeypatch.setattr(modeling, "physical_memory", lambda: 500_000)
    rc = main([
        "attack", "--q", "3", "--m", "6", "--n", "9", "--k", "4", "--r", "2",
        "--N", "4", "--b-max", "5",
    ])
    assert rc == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "attack: no recovery up to b=5: b=4 skipped, its dense 600x420 matrix" in out
    assert "  b=4 offset=0 rows=600 cols=420 skipped: its dense 600x420 matrix" in out


def test_attack_bad_strategy(toy_file, capsys):
    assert main(["attack", "--instance", str(toy_file), "--delta", "5"]) == EXIT_USAGE
    assert main(["attack", "--instance", str(toy_file), "--a", "99"]) == EXIT_USAGE
    capsys.readouterr()


def test_attack_needs_instance_or_params(capsys):
    rc = main(["attack", "--m", "14", "--n", "10"])
    assert rc == EXIT_USAGE
    assert "give --instance or full parameters" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_attack_rejects_max_attempts_below_1(toy_file, value, capsys):
    # zero attempts used to run nothing and exit 2 with "last kernel dim None"
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--instance", str(toy_file), "--max-attempts", value])
    assert exc.value.code == EXIT_USAGE
    assert f"--max-attempts: must be at least 1, got '{value}'" in capsys.readouterr().err


def test_estimate_single_row(tmp_path, capsys):
    out = tmp_path / "est.json"
    args = [
        "estimate", "--m", "277", "--n", "358", "--k", "179", "--r", "7",
        "--N", "k*(r-1)", "--deltas", "0", "--b-max", "3",
    ]
    rc = main([*args, "--report", "json", "-o", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["params"]["N"] == 1074
    keys = {"delta", "w", "a", "b", "algorithm", "log2_cost", "feasible", "N_leq_b", "M_leq_b"}
    assert rep["rows"] and all(set(row) == keys for row in rep["rows"])
    best = rep["best"]
    assert best["delta"] == 0 and best["b"] == 1
    assert best["algorithm"] == "strassen"
    assert abs(best["log2_cost"] - 145) <= 2
    assert "ghpt" in rep and rep["ghpt"]["degenerate"] is False
    assert main(args) == EXIT_OK
    text = capsys.readouterr().out
    assert "best: delta=0" in text
    assert "combinatorial baseline:" in text


def test_estimate_table2(tmp_path):
    out = tmp_path / "table2.json"
    rc = main(["estimate", "--table2", "--report", "json", "-o", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["ok"] is True and rep["delta0_ok"] is True
    assert len(rep["rows"]) == 9


def test_estimate_usage_errors(capsys):
    assert main(["estimate", "--m", "277"]) == EXIT_USAGE
    rc = main([
        "estimate", "--m", "277", "--n", "358", "--k", "179", "--r", "7",
        "--N", "716", "--deltas", "0,x",
    ])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_estimate_rejects_deltas_outside_0_to_r(capsys):
    # r = 3: -1 and 7 used to print "no feasible strategy" and exit 0
    assert main([*EST40, "--deltas=-1,7"]) == EXIT_USAGE
    assert capsys.readouterr().err == "estimate: --deltas -1,7 outside [0, r) = [0, 3)\n"
    # a delta inside [0, r) without a valid strategy is an ordinary answer
    assert main([*EST40, "--deltas", "2"]) == EXIT_OK
    assert "no feasible strategy up to b_max" in capsys.readouterr().out


def test_estimate_q3_lists_a_strategy_above_b_equal_q(capsys):
    # the count rule alone decides b = 4 > q feasible; the attack recovers there
    rc = main(["estimate", "--q", "3", "--m", "6", "--n", "9", "--k", "4", "--r", "2", "--N", "4"])
    assert rc == EXIT_OK
    assert "best: delta=0 a=1 b=4 strassen" in capsys.readouterr().out


def test_estimate_without_minor_equations_lists_no_strategy(capsys):
    rc = main(["estimate", "--q", "2", "--m", "8", "--n", "8", "--k", "5", "--r", "4", "--N", "11"])
    assert rc == EXIT_OK
    assert "no feasible strategy up to b_max" in capsys.readouterr().out


EST40 = ["estimate", "--m", "40", "--n", "20", "--k", "10", "--r", "3", "--N", "20"]


@pytest.mark.parametrize("flag", ["--alpha-c", "--alpha-lambda"])
def test_estimate_has_no_hybrid_guessing_flag(flag, capsys):
    # estimate prices only the strategies the attack runs
    with pytest.raises(SystemExit) as exc:
        main([*EST40, flag, "0"])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


def test_verify_prop1(tmp_path):
    out = tmp_path / "prop1.json"
    rc = main([
        "verify", "prop1", "--trials", "400", "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert len(rep["cells"]) == 4
    assert all(abs(c["z"]) <= 3 for c in rep["cells"])


def test_verify_thm1_short_run(tmp_path):
    out = tmp_path / "thm1.json"
    rc = main([
        "verify", "thm1", "--trials", "2", "--q", "2",
        "--quarantine-dir", str(tmp_path), "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["ok"] is True and rep["trials"] >= 2


def test_verify_report_keeps_the_cli_config(tmp_path):
    # the suite's own config adds to the CLI's rather than replacing it
    out = tmp_path / "thm2.json"
    rc = main([
        "verify", "thm2", "--trials", "1", "--q", "2", "--b", "2",
        "--quarantine-dir", str(tmp_path), "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert config["suite"] == "thm2" and config["report"] == "json"
    assert config["quarantine_dir"] == str(tmp_path)
    assert config["qs"] == [2] and config["bs"] == [2] and config["trials"] == 1


@pytest.mark.parametrize("suite", ["thm1", "prop1"])
def test_verify_rejects_zero_trials(suite, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--trials", "0"])
    assert exc.value.code == EXIT_USAGE
    assert "--trials: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(["thm1", "--trials", "1", "--b", "7"], "--b"), (["prop1", "--q", "3"], "--q")],
    ids=["thm1-b", "prop1-q"],
)
def test_verify_rejects_a_flag_the_suite_does_not_take(argv, flag, capsys):
    assert main(["verify", *argv]) == EXIT_USAGE
    assert capsys.readouterr().err == f"verify: {flag} does not apply to suite {argv[0]}\n"


def test_verify_bad_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9"])
    assert exc.value.code == EXIT_USAGE


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
