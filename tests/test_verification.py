"""The failure path of the confirmation suites: with the expected count (or
the observed rank) forced wrong, every case fails, each failure is reported
with its fixed keys, and every failing rank-law instance is quarantined to a
file that reads back with its witness."""

import dataclasses
import json
import types

import pytest

from rslminors import verification
from rslminors.cli import EXIT_FAIL, main
from rslminors.instance import verify_support
from rslminors.instance_io import load_instance
from rslminors.modeling import MacaulayMatrix

REPORT_KEYS = ["suite", "trials", "passes", "ok", "failures", "config", "elapsed_s"]
GATED_KEYS = ["suite", "trials", "passes", "rate", "ok", "failures", "config", "elapsed_s"]


def _never_comb(*args):
    return -1


# suite -> (runner kwargs, (owner, attribute, replacement), failure keys)
FORCED = {
    "assumption1": (
        {"trials": 3, "qs": (2,)},
        (verification, "check_assumption1", lambda inst, w: False),
        ["trial", "q", "params"],
    ),
    "thm1": (
        {"trials": 2, "qs": (2,)},
        (verification, "math", types.SimpleNamespace(comb=_never_comb)),
        ["trial", "q", "params", "rank", "expected", "leads_distinct", "quarantine"],
    ),
    "thm2": (
        {"trials": 1, "qs": (2,), "bs": (1, 2)},
        (verification, "count_Nb", lambda *args, **kwargs: -1),
        ["trial", "q", "b", "params", "rank", "expected", "quarantine"],
    ),
    "lemma3": (
        {"trials": 2, "qs": (2,)},
        (verification, "math", types.SimpleNamespace(comb=_never_comb)),
        ["trial", "q", "params", "nonzero_residues", "stack_rank", "expected_rank",
         "quarantine"],
    ),
    "assumption2": (
        {"trials": 2, "bs": (1,)},
        (MacaulayMatrix, "rank", lambda self: -1),
        ["trial", "b", "params", "rank", "expected"],
    ),
}
QUARANTINED = ("thm1", "thm2", "lemma3")
GATED = ("assumption1", "assumption2")


@pytest.mark.parametrize("suite", sorted(FORCED))
def test_every_forced_failure_is_reported(suite, tmp_path, monkeypatch):
    kwargs, (owner, attr, fake), failure_keys = FORCED[suite]
    monkeypatch.setattr(owner, attr, fake)
    if suite in QUARANTINED:
        kwargs = {**kwargs, "quarantine_dir": str(tmp_path)}
    rep = getattr(verification, f"run_{suite}")(seed=1, **kwargs)

    assert list(rep) == (GATED_KEYS if suite in GATED else REPORT_KEYS)
    assert rep["suite"] == suite and rep["ok"] is False
    assert rep["passes"] == 0 and rep["trials"] == len(rep["failures"]) > 0
    if suite in GATED:
        assert rep["rate"] == 0.0
    for fail in rep["failures"]:
        assert list(fail) == failure_keys
    if suite not in QUARANTINED:
        assert list(tmp_path.iterdir()) == []
        return
    names = [f"quarantine_{suite}_{n}.rsl" for n in range(1, rep["trials"] + 1)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for n, fail in enumerate(rep["failures"], 1):
        assert fail["quarantine"] == str(tmp_path / f"quarantine_{suite}_{n}.rsl")
        inst, witness = load_instance(fail["quarantine"])
        params = {k: v for k, v in fail["params"].items() if k not in ("w", "seed")}
        assert vars(inst.params) == params
        assert witness is not None and verify_support(inst, witness.support_basis())


def test_thm1_reports_a_system_missing_an_equation(monkeypatch):
    build_system = verification.build_system

    def short_system(inst, w):
        system = build_system(inst, w)
        return dataclasses.replace(
            system, J=system.J[:-1], coeffs=system.coeffs[:-1], minor_cols=system.minor_cols[:-1]
        )

    monkeypatch.setattr(verification, "build_system", short_system)
    rep = verification.run_thm1(trials=10, seed=3)
    assert rep["ok"] is False and rep["passes"] == 0 and rep["trials"] == 20
    for fail in rep["failures"]:
        assert fail["rank"] == fail["expected"] - 1 and fail["leads_distinct"] is False


def test_forced_failures_without_quarantine_dir_write_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verification, "count_Nb", lambda *args, **kwargs: -1)
    rep = verification.run_thm2(trials=1, qs=(2,), bs=(2,), seed=1)
    assert [fail["quarantine"] for fail in rep["failures"]] == [None]
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_exits_1_on_a_forced_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verification, "count_Nb", lambda *args, **kwargs: -1)
    out = tmp_path / "thm2.json"
    rc = main([
        "verify", "thm2", "--trials", "1", "--q", "2", "--b", "2",
        "--quarantine-dir", str(tmp_path), "--report", "json", "-o", str(out),
    ])
    assert rc == EXIT_FAIL
    rep = json.loads(out.read_text())
    assert rep["ok"] is False and rep["trials"] == 1
    assert rep["config"]["qs"] == [2] and rep["config"]["bs"] == [2]
    assert (tmp_path / "quarantine_thm2_1.rsl").exists()
    rc = main([
        "verify", "thm2", "--trials", "1", "--q", "2", "--b", "2",
        "--quarantine-dir", str(tmp_path),
    ])
    assert rc == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verify thm2: trials=1 passes=0 ok=False"
    assert lines[1].startswith('  failure: {"trial": 0, "q": 2, "b": 2, "params": ')
