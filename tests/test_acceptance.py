"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kiselman import core, enumeration, level_metric as lm, morphisms, stochastic as st
from kiselman.enumeration import _all_words as all_words, _subsets as subsets
from conftest import KNOWN_SIZES


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def random_positive_p(rng, n):
    p = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
    return p / p.sum()


def test_criterion_1_word_problem(oracle2, oracle3):
    """Reduce-equality coincides with the congruence oracle, rank <= 3, length <= 8."""
    mismatches = 0
    for n, oracle in ((2, oracle2), (3, oracle3)):
        canon_of_class = {}
        for w in all_words(n, 8):
            cls = oracle.class_ids[w]
            canon = core.reduce(n, w).letters
            if canon_of_class.setdefault(cls, canon) != canon:
                mismatches += 1
        # distinct classes must reduce to distinct canonical words
        values = list(canon_of_class.values())
        mismatches += len(values) - len(set(values))
    report("criterion 1: word-problem correctness vs oracle (rank <= 3, len <= 8)",
           mismatches == 0)


def test_criterion_2_level_agreement(universe2, universe3):
    ok = True
    for universe in (universe2, universe3):
        for x in universe:
            by_def = lm.level_by_definition(x)
            ok &= by_def == lm.level_by_recursion(x.rank, x.letters)
            ok &= by_def == lm.m_function(x)
    report("criterion 2: level-by-definition = recursion = m on ranks 2 and 3", ok)


def test_criterion_3_right_multiplication(universe2, universe3, universe4):
    violations = 0
    for universe in (universe2, universe3):
        n = universe.rank
        for x in universe:
            lvl = lm.level_by_definition(x)
            for i in range(1, n + 1):
                want = lvl - 1 if i == lvl else lvl
                if lm.level_by_definition(x * core.generator(n, i)) != want:
                    violations += 1
    rng = np.random.default_rng(2024)
    elems = universe4.elements
    for _ in range(10_000):
        x = elems[rng.integers(len(elems))]
        i = int(rng.integers(1, 5))
        lvl = lm.level_by_definition(x)
        want = lvl - 1 if i == lvl else lvl
        if lm.level_by_definition(x * core.generator(4, i)) != want:
            violations += 1
    report("criterion 3: right-multiplication level law (full <= 3, 10^4 random at 4)",
           violations == 0)


def test_criterion_4_set_identities(universe2, universe3, universe4):
    ok = True
    for universe in (universe2, universe3, universe4):
        n = universe.rank
        for x in universe:
            a_set, b_set = lm.level_sets(x)
            ok &= a_set == b_set
        f = core.zero(n)
        rset = lm.r_set(universe)
        ok &= lm.ball(universe, f, 1) == rset
        ok &= len(rset) == 1 + KNOWN_SIZES[n - 1]
        sphere_n = lm.sphere(universe, f, n)
        low = [x for x in universe if core.content(x) <= frozenset(range(1, n))]
        ok &= sphere_n == low
        ok &= len(sphere_n) == KNOWN_SIZES[n - 1]
    report("criterion 4: witness-set equality, B(f,1)=R sizing, top sphere (ranks 2-4)", ok)


def test_criterion_5_ultrametric(universe2, universe3, universe4):
    violations = 0
    elems2 = universe2.elements
    for x in elems2:
        for y in elems2:
            d = lm.distance(x, y)
            if (d == 0) != (x == y) or d != lm.distance(y, x):
                violations += 1
            for z in elems2:
                if d > max(lm.distance(x, z), lm.distance(z, y)):
                    violations += 1
    rng = np.random.default_rng(31337)
    for universe, count in ((universe3, 50_000), (universe4, 50_000)):
        elems = universe.elements
        idx = rng.integers(len(elems), size=(count, 3))
        for a, b, c in idx:
            x, y, z = elems[a], elems[b], elems[c]
            if lm.distance(x, y) > max(lm.distance(x, z), lm.distance(z, y)):
                violations += 1
    for universe in (universe2, universe3, universe4):
        f = core.zero(universe.rank)
        for x in universe:
            if lm.distance(x, f) != lm.level_by_definition(x):
                violations += 1
    report("criterion 5: ultrametric axioms and d(x,f) = level", violations == 0)


def test_criterion_6_deletion_laws(universe2, universe3):
    ok = True
    n = 2
    for x in universe2:
        for s1 in subsets(n):
            for s2 in subsets(n):
                ok &= morphisms.delete(s1, morphisms.delete(s2, x)) == morphisms.delete(
                    s1 | s2, x
                )
                ok &= morphisms.delete(s1, core.idempotent(n, s2)) == core.idempotent(
                    n, s2 - s1
                )
        for m in range(1, n + 1):
            am = core.generator(n, m)
            ok &= morphisms.delete(range(1, m), x) * am == morphisms.delete(
                range(1, m + 1), x
            ) * am
        for i in range(n + 1):
            ei = core.idempotent(n, range(1, i + 1))
            for j in range(i + 1):
                ok &= x * ei == morphisms.delete(range(1, j + 1), x) * ei
    rng = np.random.default_rng(606)
    n = 3
    elems = universe3.elements
    sets3 = list(subsets(n))
    for _ in range(10_000):
        x = elems[rng.integers(len(elems))]
        s1 = sets3[rng.integers(len(sets3))]
        s2 = sets3[rng.integers(len(sets3))]
        m = int(rng.integers(1, n + 1))
        i = int(rng.integers(0, n + 1))
        j = int(rng.integers(0, i + 1))
        ok &= morphisms.delete(s1, morphisms.delete(s2, x)) == morphisms.delete(s1 | s2, x)
        ok &= morphisms.delete(s1, core.idempotent(n, s2)) == core.idempotent(n, s2 - s1)
        am = core.generator(n, m)
        ok &= morphisms.delete(range(1, m), x) * am == morphisms.delete(
            range(1, m + 1), x
        ) * am
        ei = core.idempotent(n, range(1, i + 1))
        ok &= x * ei == morphisms.delete(range(1, j + 1), x) * ei
    report("criterion 6: deletion-endomorphism laws (full rank 2, 10^4 random rank 3)", ok)


def _stabilization_specs():
    specs = []
    for n in (2, 3, 4):
        lengths = (1, 2, 3) if n == 2 else (1, 2)
        for length in lengths:
            for cycle in itertools.product(range(1, n + 1), repeat=length):
                specs.append(st.SequenceSpec(n, cycle=cycle))
        full = tuple(range(1, n + 1))
        for pre in range(1, n + 1):
            specs.append(st.SequenceSpec(n, preamble=(pre,), cycle=full))
    return specs


def test_criterion_7_stabilization():
    specs = _stabilization_specs()
    ok = len(specs) >= 50
    for spec in specs:
        trace = st.partial_products(spec)
        ok &= trace.stabilized
        recurring = set(spec.cycle)
        if set(spec.preamble) <= recurring:
            ok &= trace.value == st.eventual_value(spec)
            ok &= trace.value == core.idempotent(spec.rank, recurring)
        if recurring == set(range(1, spec.rank + 1)):
            ok &= trace.value == core.zero(spec.rank)
    report(f"criterion 7: stabilization over {len(specs)} periodic specs (ranks 2-4)", ok)


def test_criterion_8_exact_distribution():
    rng = np.random.default_rng(888)
    max_cdf_gap = 0.0
    max_mean_gap = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(25):
            p = random_positive_p(rng, n)
            pmf = st.exact_hitting_pmf(p, k_max=120)
            gap = float(np.abs(pmf.cdf() - st.chain_hitting_cdf(p, 120)).max())
            max_cdf_gap = max(max_cdf_gap, gap)
            full = st.exact_hitting_pmf(p)
            max_mean_gap = max(max_mean_gap, abs(full.mean() - float((1.0 / p).sum())))
    ok = max_cdf_gap <= 1e-12 and max_mean_gap <= 1e-9
    report(
        "criterion 8: chain vs convolution CDF <= 1e-12 and pmf mean = sum(1/p_i) "
        f"(cdf gap {max_cdf_gap:.2e}, mean gap {max_mean_gap:.2e})",
        ok,
    )


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
