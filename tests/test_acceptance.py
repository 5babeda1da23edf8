"""Acceptance suite: the criteria that no selftest check states, each
printing a pass/fail line.

Criteria 1-8 (the word problem, the level laws, the witness sets, balls and
spheres, the ultrametric, the deletion laws, stabilization and the exact
distribution) are checks of ``kiselman.selftest.CHECKS``, which
``tests/test_selftest.py`` runs one per case.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they complete.
"""

import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from kiselman import stochastic as st


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_9_monte_carlo():
    n, trials, seed = 3, 100_000, 20240817
    p = (1 / 3, 1 / 3, 1 / 3)
    rep = st.simulate(n, p, trials=trials, seed=seed, mode="full")
    exact_mean = float(n * n)
    exact_var = sum((1.0 - v) / v**2 for v in p)
    se = math.sqrt(exact_var / trials)
    mean_ok = abs(rep.mean - exact_mean) < 3.0 * se
    verdict = st.verify_distribution(rep, st.exact_hitting_pmf(np.asarray(p)))
    ok = mean_ok and verdict.tv_distance < 0.01 and rep.crosscheck_failures == 0
    report(
        "criterion 9: n=3 uniform Monte Carlo (mean "
        f"{rep.mean:.4f} vs 9 within 3 SE, TV {verdict.tv_distance:.4f} < 0.01, "
        "zero crosscheck failures)",
        ok,
    )


def test_criterion_10_determinism():
    p = (0.2, 0.3, 0.5)
    args = dict(trials=5000, seed=5150, mode="full")
    serial = st.simulate(3, p, **args).to_json()
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(st.simulate, 3, p, **args) for _ in range(2)]
        concurrent = [f.result().to_json() for f in futures]
    ok = all(out == serial for out in concurrent)
    enum_cmd = [sys.executable, "-m", "kiselman.cli", "enumerate", "--n", "3"]
    out1 = subprocess.run(enum_cmd, capture_output=True, timeout=120).stdout
    out2 = subprocess.run(enum_cmd, capture_output=True, timeout=120).stdout
    ok &= out1 == out2 and len(out1) > 0
    sim_cmd = [
        sys.executable, "-m", "kiselman.cli",
        "simulate", "--n", "3", "--p", "0.2,0.3,0.5", "--trials", "2000", "--seed", "5150",
    ]
    out3 = subprocess.run(sim_cmd, capture_output=True, timeout=300).stdout
    out4 = subprocess.run(sim_cmd, capture_output=True, timeout=300).stdout
    ok &= out3 == out4 and len(out3) > 0
    report("criterion 10: byte-identical repeated runs (serial and concurrent)", ok)
