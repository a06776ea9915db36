"""The benchmark's four workloads.

A workload sets up once, then runs rounds of jobs.  Every round holds the
same jobs in the same proportions, so the share of jobs that fail is the
same in every run, however long.  A job is a call into the toolkit's public
API (timed) and a check of its output against :mod:`checks` (not timed).
A check returns "ok" or "failed" for a job that fails as a known fault
predicts, and raises :class:`checks.CheckFailed` for a wrong output.
"""

from __future__ import annotations

import random
from typing import Callable

import checks
import rslminors.estimator as estimator
import rslminors.fields as fields
import rslminors.instance as instance
import rslminors.modeling as modeling
import rslminors.solver as solver
import rslminors.verification as verification

Job = tuple[Callable[[], object], Callable[[object], str]]


class AttackWorkload:
    """Full-weight attacks on fresh planted instances of one shape.

    Today's attack cannot solve a fresh instance whose planted
    lambda-system has a kernel of dimension above 1 (fault F1 in the
    README), nor one whose planted word has rank below r, and how many of
    those a seed draws varies.  Such draws are replaced by the next draw.
    Each round instead runs one fixed F1 instance that does not depend on
    the seed, so F1 costs the same share of every run.
    """

    FRESH_PER_ROUND = 2  # and one F1 job
    POOL = 8  # fresh instances made in set-up; rounds reuse them after that

    def __init__(self, name: str, params: dict, b_max: int, f1_seed: int):
        self.name = name
        self.params = instance.RslParams(**params)
        self.b_max = b_max
        self.f1_seed = f1_seed

    def _planted(self, seed: int, strategy) -> tuple:
        inst, wit = instance.gen_instance(self.params, seed)
        blocks = [R.rows for R in wit.R_list[: strategy.N_prime]]
        return inst, wit.C.rows, checks.planted_word(blocks, strategy.a, self.params.q)

    def setup(self, seed: int) -> None:
        fields.extension_field.cache_clear()  # fresh field: the tables are rebuilt
        self.strategy = instance.strategy_params(self.params, 0)
        self.f1 = self._planted(self.f1_seed, self.strategy)
        if self.f1[2][0] < 2:
            raise RuntimeError(f"{self.name}: seed {self.f1_seed} is no F1 instance")
        rng = random.Random(f"{self.name}/{seed}")
        self.fresh = []
        while len(self.fresh) < self.POOL:
            planted = self._planted(rng.randrange(2**31), self.strategy)
            if planted[2] == (1, self.params.r):
                self.fresh.append(planted)

    def round(self, i: int) -> list[Job]:
        k = self.FRESH_PER_ROUND
        picks = [self.fresh[(i * k + j) % self.POOL] for j in range(k)]
        return [self._job(p) for p in picks] + [self._job(self.f1)]

    def _job(self, planted) -> Job:
        inst, support, (lam_dim, _) = planted

        def call():
            return solver.attack(inst, self.strategy, b_max=self.b_max)

        def check(res) -> str:
            if res.support is not None:
                if not res.support.verified:
                    raise checks.CheckFailed("attack returned an unverified support")
                checks.check_support(res.support.C.rows, support, self.params.q)
            if res.success:
                return "ok"
            if lam_dim == 1:
                raise checks.CheckFailed(
                    f"attack failed ({res.message}) although the planted "
                    "lambda-system has a one-dimensional kernel"
                )
            return "failed"

        return call, check


class Thm2Workload:
    """Exact Macaulay rank checks over F_{q^m} against Theorem 2.

    A job runs run_thm2 on the same four seeds, in an order drawn from the
    workload seed: 160 rank checks in about 5 s.  One run_thm2 call takes
    0.7 to 1.8 s depending on the shapes its seed draws, so single calls on
    seeds drawn afresh in every run gave medians that spread by a third
    between runs.  A fixed batch, like the fixed table of estimate_table2,
    does the same work in every run, and a job of seconds averages over
    the machine's slow spells.
    """

    QS = (2, 3)
    MS = range(6, 13)  # the extension degrees verification.sample_family draws
    JOB_SEEDS = random.Random("verify_thm2").sample(range(2**30), 4)
    CHECKS_PER_CALL = 2 * 10 * 2  # qs x trials x bs

    def __init__(self):
        self.name = "verify_thm2"
        self.records: list[tuple[int, int, int, int, int, int]] = []
        original = modeling.MacaulayMatrix.rank
        records = self.records

        def rank(mac):
            got = original(mac)
            nk = max(max(J) for _, J in mac.row_labels)
            records.append((mac.n_cols_R, mac.n_cols_R - nk, mac.w, mac.n_lambda, mac.b, got))
            return got

        # Records every rank for the check, for the life of the process.
        modeling.MacaulayMatrix.rank = rank

    def setup(self, seed: int) -> None:
        fields.extension_field.cache_clear()
        for q in self.QS:
            for m in self.MS:
                fields.extension_field(q, m).np_tables()
        self.rng = random.Random(f"{self.name}/{seed}")

    def round(self, i: int) -> list[Job]:
        order = list(self.JOB_SEEDS)
        self.rng.shuffle(order)

        def call():
            self.records.clear()
            reports = [
                verification.run_thm2(trials=10, qs=self.QS, bs=(2, 3), seed=s, quarantine_dir=None)
                for s in order
            ]
            return reports, list(self.records)

        def check(out) -> str:
            reports, records = out
            want = self.CHECKS_PER_CALL * len(order)
            if len(records) != want or sum(r["trials"] for r in reports) != want:
                raise checks.CheckFailed(f"{len(records)} rank checks, expected {want}")
            checks.check_thm2(records)
            for report in reports:
                if not report["ok"]:
                    raise checks.CheckFailed(f"run_thm2 reports failures: {report['failures']}")
            return "ok"

        return [(call, check)]


class Table2Workload:
    """Cold re-derivations of Table 2: estimator and counting code only.

    A job re-derives the table REPEATS times, each time on memo caches
    cleared just before, as every `estimate --table2` process starts with
    them empty.  One derivation takes about 0.3 s, shorter than the slow
    spells of a shared machine, so single derivations were either fast or
    slow and their median flipped between runs.
    """

    REPEATS = 8

    def __init__(self):
        self.name = "estimate_table2"

    def setup(self, seed: int) -> None:
        pass  # no inputs: the table is fixed

    def round(self, i: int) -> list[Job]:
        def call():
            reports = []
            for _ in range(self.REPEATS):
                estimator.count_Nb.cache_clear()
                estimator.count_Mb.cache_clear()
                reports.append(estimator.run_table2())
            return reports

        def check(reports) -> str:
            for report in reports:
                checks.check_table2(report)
                if not report["ok"]:
                    raise checks.CheckFailed("run_table2 reports a row outside its tolerance")
            return "ok"

        return [(call, check)]


WORKLOADS = {
    "attack_f2": lambda: AttackWorkload(
        "attack_f2", dict(q=2, m=12, n=10, k=5, r=2, N=9), b_max=2, f1_seed=4
    ),
    "attack_f3": lambda: AttackWorkload(
        "attack_f3", dict(q=3, m=12, n=17, k=7, r=2, N=13), b_max=1, f1_seed=9
    ),
    "verify_thm2": Thm2Workload,
    "estimate_table2": Table2Workload,
}
