"""Experimental confirmation drivers for the rank laws and statistics.

Each suite generates fresh instances from a fixed-seed family, runs the
corresponding modeling or counting check, and returns a report dict.  Rank
law suites (thm1, thm2, lemma3) demand 100% agreement and serialize any
offending instance to a quarantine file so the failure can be replayed.
"""

from __future__ import annotations

import math
import os
import random
import time
from itertools import product
from typing import Optional

import numpy as np

from .estimator import codeword_stats, count_Nb, make_counts
from .fields import prime_field
from .instance import (
    RslInstance,
    RslParams,
    SecretWitness,
    check_assumption1,
    gen_instance,
)
from .instance_io import save_instance
from .matrix import pivot_columns, rank_rows
from .modeling import build_macaulay, build_system, predicted_leads, syzygies, unfold_system

# Seeds _gen_passing tries after the first before it gives up.
MAX_REGEN = 25
# Pass rate at which the assumption2 suite passes.
ASSUMPTION2_THRESHOLD = 0.95


def sample_family(rng: random.Random, q: int) -> tuple[RslParams, int]:
    """Small random instance shape: 6 <= m <= 12, 8 <= n <= 14 (<= 11 when
    w = 3 to bound Macaulay width at b = 3), w + 2 <= n - k <= w + 3,
    N in {n-k-w, n-k-w+1}."""
    w = rng.choice([1, 2, 3])
    nk = w + rng.choice([2, 3])
    n_hi = 11 if w == 3 else 14
    n = rng.randrange(max(8, nk + 2), n_hi + 1)
    k = n - nk
    m = rng.randrange(6, 13)
    r = w + rng.choice([0, 1, 2])
    N = nk - w + rng.choice([0, 1])
    return RslParams(q=q, m=m, n=n, k=k, r=r, N=N), w


def _gen_passing(
    params: RslParams, w: int, seed: int
) -> tuple[RslInstance, SecretWitness, int]:
    """Generate an instance satisfying the full-rank syndrome assumption,
    bumping the seed on failure.  Returns (inst, witness, seed_used)."""
    for s in range(seed, seed + MAX_REGEN + 1):
        inst, wit = gen_instance(params, s)
        if check_assumption1(inst, w):
            return inst, wit, s
    raise RuntimeError(
        f"no instance satisfying the rank assumption after {MAX_REGEN} retries "
        f"(params {params})"
    )


def _tally(
    suite: str,
    cases,
    config: dict,
    quarantine_dir: Optional[str] = None,
    gate: Optional[float] = None,
) -> dict:
    """Run a suite's ``(ok, failure, instance, witness)`` cases and report.

    A failing case with an instance is saved, with its witness, to
    ``quarantine_<suite>_<n>.rsl`` in ``quarantine_dir`` (when given), n
    counting the cases from 1.  Without a ``gate`` the suite must pass every
    case; with one, the report carries the pass rate and the suite passes at
    that rate."""
    started = time.monotonic()
    passes = 0
    total = 0
    failures = []
    for ok, failure, inst, witness in cases:
        total += 1
        if ok:
            passes += 1
            continue
        if inst is not None:
            path = None
            if quarantine_dir is not None:
                os.makedirs(quarantine_dir, exist_ok=True)
                path = os.path.join(quarantine_dir, f"quarantine_{suite}_{total}.rsl")
                save_instance(path, inst, witness)
            failure["quarantine"] = path
        failures.append(failure)
    report = {"suite": suite, "trials": total, "passes": passes}
    if gate is not None:
        report["rate"] = passes / total if total else 0.0
    report["ok"] = passes == total if gate is None else report["rate"] >= gate
    report.update(
        failures=failures, config=config, elapsed_s=round(time.monotonic() - started, 3)
    )
    return report


def run_assumption1(trials: int = 50, qs=(2, 3), seed: int = 0) -> dict:
    """Fraction of fresh instances whose top n-k-w syndrome rows have full
    rank.  Failures are expected to be rare (probability about q^-m per
    missing dimension); the suite passes at a 90% rate."""

    def cases():
        rng = random.Random(seed)
        for q in qs:
            for t in range(trials):
                params, w = sample_family(rng, q)
                inst, _ = gen_instance(params, seed=rng.randrange(2**30))
                failure = {"trial": t, "q": q, "params": vars(params) | {"w": w}}
                yield check_assumption1(inst, w), failure, None, None

    config = {"trials": trials, "qs": list(qs), "seed": seed}
    return _tally("assumption1", cases(), config, gate=0.9)


def run_thm1(
    trials: int = 20,
    qs=(2, 3),
    seed: int = 0,
    quarantine_dir: Optional[str] = None,
) -> dict:
    """Rank of the minor system over F_{q^m} must equal C(n-k, w+1), and the
    leading monomials of its span must be the ones ``predicted_leads`` gives.

    One elimination of the degree-(1,1) Macaulay matrix gives both: its
    columns run in descending monomial order, so its pivot columns are the
    leading monomials of the span.  A failure's ``leads_distinct`` says
    whether the leading monomials are the predicted ones."""

    def cases():
        rng = random.Random(seed)
        for q in qs:
            for t in range(trials):
                params, w = sample_family(rng, q)
                inst, wit, used_seed = _gen_passing(params, w, rng.randrange(2**30))
                system = build_system(inst, w)
                mac = build_macaulay(system, 1)
                pivots = pivot_columns(mac.dense_rows(), mac.field)
                got = len(pivots)
                want = math.comb(params.n - params.k, w + 1)
                leads_ok = {mac.col_labels[c] for c in pivots} == predicted_leads(inst, w)
                failure = {
                    "trial": t,
                    "q": q,
                    "params": vars(params) | {"w": w, "seed": used_seed},
                    "rank": got,
                    "expected": want,
                    "leads_distinct": leads_ok,
                }
                yield got == want and leads_ok, failure, inst, wit

    config = {"trials": trials, "qs": list(qs), "seed": seed}
    return _tally("thm1", cases(), config, quarantine_dir)


def run_thm2(
    trials: int = 20,
    qs=(2, 3),
    bs=(2, 3),
    seed: int = 0,
    quarantine_dir: Optional[str] = None,
) -> dict:
    """Rank of the degree-(b,1) Macaulay matrix over F_{q^m} must equal the
    closed-form count of independent equations, for every requested b."""

    def cases():
        rng = random.Random(seed)
        for q in qs:
            for t in range(trials):
                params, w = sample_family(rng, q)
                inst, wit, used_seed = _gen_passing(params, w, rng.randrange(2**30))
                system = build_system(inst, w)
                for b in bs:
                    mac = build_macaulay(system, b)
                    got = mac.rank()
                    want = count_Nb(params.n, params.k, w, params.N, b)
                    failure = {
                        "trial": t,
                        "q": q,
                        "b": b,
                        "params": vars(params) | {"w": w, "seed": used_seed},
                        "rank": got,
                        "expected": want,
                    }
                    yield got == want, failure, inst, wit

    config = {"trials": trials, "qs": list(qs), "bs": list(bs), "seed": seed}
    return _tally("thm2", cases(), config, quarantine_dir)


def run_lemma3(
    trials: int = 20,
    qs=(2, 3),
    seed: int = 0,
    quarantine_dir: Optional[str] = None,
) -> dict:
    """Every constructed relation must annihilate the minor system
    symbolically, and the stacked relation coefficients must have rank
    C(n-k, w+2) when the syndrome rows are generic."""

    def cases():
        rng = random.Random(seed)
        for q in qs:
            for t in range(trials):
                params, w = sample_family(rng, q)
                nk = params.n - params.k
                inst, wit, used_seed = _gen_passing(params, w, rng.randrange(2**30))
                residues, stack = syzygies(inst, build_system(inst, w))
                rank = rank_rows(stack, inst.field)
                want = math.comb(nk, w + 2)
                failure = {
                    "trial": t,
                    "q": q,
                    "params": vars(params) | {"w": w, "seed": used_seed},
                    "nonzero_residues": sum(1 for rv in residues if rv),
                    "stack_rank": rank,
                    "expected_rank": want,
                }
                yield all(rv == 0 for rv in residues) and rank == want, failure, inst, wit

    config = {"trials": trials, "qs": list(qs), "seed": seed}
    return _tally("lemma3", cases(), config, quarantine_dir)


def _sample_rank_brackets(rng: random.Random, bs) -> tuple[RslParams, int]:
    """Draw a q=2 shape inside the validity domain of the cumulative rank
    formula: w = r >= 2, N at least n - k - w + 1 so the degree sum
    saturates, and every tested degree sitting below the solving threshold
    by a 2^N margin so the planted solution space never caps the rank."""
    while True:
        w = rng.choice([2, 3])
        nk = w + rng.choice([2, 3])
        N = nk - w + 1 + rng.randrange(3)
        k = rng.randrange(4, 9)
        n = nk + k
        m = rng.randrange(6, 13)
        ok = True
        for b in bs:
            counts = make_counts(2, n, k, w, N, b)
            if m * counts.N_leq_b > counts.M_leq_b - 2**N:
                ok = False
                break
        if ok:
            return RslParams(q=2, m=m, n=n, k=k, r=w, N=N), w


def run_assumption2(trials: int = 50, bs=(1, 2), seed: int = 0) -> dict:
    """Over F_2, the unfolded cumulative Macaulay rank should equal
    min(m * N_leq_b, M_leq_b - 1) for most random instances drawn from
    the formula's validity domain."""

    def cases():
        rng = random.Random(seed)
        for t in range(trials):
            params, w = _sample_rank_brackets(rng, bs)
            inst, _ = gen_instance(params, seed=rng.randrange(2**30))
            system = build_system(inst, w)
            unfolded = unfold_system(system)
            for b in bs:
                mac = build_macaulay(unfolded, b)
                got = mac.rank()
                counts = make_counts(params.q, params.n, params.k, w, params.N, b)
                want = counts.predicted_rank(params.m)
                failure = {
                    "trial": t,
                    "b": b,
                    "params": vars(params) | {"w": w},
                    "rank": got,
                    "expected": want,
                }
                yield got == want, failure, None, None

    config = {
        "trials": trials, "bs": list(bs), "seed": seed, "threshold": ASSUMPTION2_THRESHOLD
    }
    return _tally("assumption2", cases(), config, gate=ASSUMPTION2_THRESHOLD)


def monte_carlo_codewords(
    q: int, r: int, n: int, N: int, w: int, trials: int, seed: int = 0
) -> dict:
    """Empirical mean of the number of rank-w words in a random code of
    dimension >= N, drawn as the kernel of a uniform (rn - N) x rn parity
    check, compared against the predicted mean and standard error.

    Every nonzero r x n word over F_q is ranked once, so the cost grows as
    q^(rn); the only caller, ``run_prop1``, takes q=2, r=2, n=4, 255 words.
    A trial's count is the number of rank-w words its parity check sends to
    zero, which are the nonzero words of its kernel, and one product of
    every trial's parity check with those words decides them all."""
    rng = random.Random(seed)
    fq = prime_field(q)
    rn = r * n
    n_parity = rn - N
    # the narrowest dtype that holds the product's entries, at most
    # rn (q-1)^2: the product is the peak, a byte a cell at q=2
    dtype = np.min_scalar_type(rn * (q - 1) ** 2)
    words = np.array(list(product(range(q), repeat=rn))[1:], dtype=dtype)
    rank_w = words[[rank_rows(word.reshape(r, n), fq) == w for word in words]]
    parity = np.array(
        [rng.randrange(q) for _ in range(trials * n_parity * rn)], dtype=dtype
    ).reshape(trials, n_parity, rn)
    images = parity @ rank_w.T
    images %= q
    count_total = int(np.count_nonzero(~images.any(axis=1)))
    stats = codeword_stats(q, r, n, N, w)
    mean = count_total / trials
    expected = float(stats.expectation)
    se = math.sqrt(float(stats.variance) / trials)
    z = abs(mean - expected) / se if se > 0 else 0.0
    return {
        "q": q,
        "r": r,
        "n": n,
        "N": N,
        "w": w,
        "trials": trials,
        "mean": mean,
        "expected": expected,
        "variance": float(stats.variance),
        "stderr": se,
        "z": z,
        "ok": z <= 3.0,
    }


def run_prop1(trials: int = 2000, seed: int = 0) -> dict:
    """Monte Carlo check of the codeword count statistics on the fixed grid
    q=2, r=2, n=4, N in {2,3}, w in {1,2}."""
    started = time.monotonic()
    cells = []
    ok = True
    for i, (N, w) in enumerate([(2, 1), (2, 2), (3, 1), (3, 2)]):
        cell = monte_carlo_codewords(2, 2, 4, N, w, trials, seed=seed + i)
        cells.append(cell)
        ok = ok and cell["ok"]
    return {
        "suite": "prop1",
        "trials": trials,
        "cells": cells,
        "ok": ok,
        "failures": [c for c in cells if not c["ok"]],
        "config": {"trials": trials, "seed": seed},
        "elapsed_s": round(time.monotonic() - started, 3),
    }


SUITES = {
    "assumption1": run_assumption1,
    "thm1": run_thm1,
    "thm2": run_thm2,
    "lemma3": run_lemma3,
    "assumption2": run_assumption2,
    "prop1": run_prop1,
}
