import math

import numpy as np
import pytest

from kiselman import core, stochastic as st
from kiselman.enumeration import BudgetExceededError, enumerate_elements

# every element of K_3 but e is the product after some step of a trial
K3_STEP_PRODUCTS = [x.letters for x in enumerate_elements(3) if x.letters]


def random_positive_p(rng, n):
    p = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
    return p / p.sum()


def test_spec_validation():
    with pytest.raises(ValueError):
        st.SequenceSpec(3)  # no cycle, no prefix
    with pytest.raises(ValueError):
        st.SequenceSpec(3, cycle=(1,), prefix=(1,))
    with pytest.raises(core.MalformedWordError):
        st.SequenceSpec(3, cycle=(4,))


def test_constant_sequence_stabilizes_immediately():
    trace = st.partial_products(st.SequenceSpec(3, cycle=(1,)))
    assert trace.stabilized
    assert trace.stable_index == 1
    assert trace.value == core.generator(3, 1)


def test_full_cycle_reaches_zero():
    trace = st.partial_products(st.SequenceSpec(3, cycle=(1, 2, 3)))
    assert trace.stabilized
    assert trace.value == core.zero(3)


def test_two_letter_cycle():
    trace = st.partial_products(st.SequenceSpec(3, cycle=(1, 2)))
    assert trace.value == core.idempotent(3, {1, 2})
    assert trace.value.letters == (2, 1)


def test_preamble_inside_cycle():
    spec = st.SequenceSpec(3, preamble=(3,), cycle=(3, 1))
    trace = st.partial_products(spec)
    assert trace.value == st.eventual_value(spec) == core.idempotent(3, {1, 3})
    assert trace.value.letters == (3, 1)


def test_eventual_value_requires_recurring_preamble():
    spec = st.SequenceSpec(3, preamble=(2,), cycle=(1,))
    with pytest.raises(ValueError):
        st.eventual_value(spec)
    # iteration still works and here the preamble letter survives
    trace = st.partial_products(spec)
    assert trace.stabilized
    assert trace.value == core.reduce(3, (2, 1))


def test_explicit_prefix_never_certifies():
    trace = st.partial_products(st.SequenceSpec(3, prefix=(1, 1, 1, 1)))
    assert not trace.stabilized
    with pytest.raises(ValueError):
        _ = trace.value


def test_transition_matrix_layout():
    chain = st.transition_matrix([0.3, 0.7])
    expected = np.array([[1.0, 0.0, 0.0], [0.3, 0.7, 0.0], [0.0, 0.7, 0.3]])
    assert np.allclose(chain.matrix, expected)
    assert np.allclose(chain.matrix.sum(axis=1), 1.0)
    assert chain.initial.tolist() == [0.0, 0.0, 1.0]


def test_nearly_deterministic_chain():
    # mass concentrated on a_1 makes the last decrement near-certain once
    # the chain reaches state 1; absorption state stays absorbing
    chain = st.transition_matrix([0.999, 0.001])
    assert chain.matrix[0, 0] == 1.0
    assert chain.matrix[1, 0] == pytest.approx(0.999)


def test_invalid_probability_vectors():
    with pytest.raises(ValueError):
        st.transition_matrix([0.5, 0.4])
    with pytest.raises(ValueError):
        st.exact_hitting_pmf([1.0, 0.0])
    with pytest.raises(ValueError):
        st.simulate(2, [1.0, 0.0], trials=1, seed=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_probabilities_are_rejected(bad):
    # NaN passes both the sign check and the sum check unless caught first
    for p in ([bad, 0.5], [0.5, bad], [bad, bad]):
        with pytest.raises(ValueError, match="finite"):
            st.validate_probabilities(p)
        with pytest.raises(ValueError):
            st.exact_hitting_pmf(p)
        with pytest.raises(ValueError):
            st.simulate(2, p, trials=1, seed=0, mode="level")


def test_pmf_uniform_rank2():
    pmf = st.exact_hitting_pmf([0.5, 0.5], k_max=12)
    assert pmf.probs[0] == pmf.probs[1] == 0.0
    for k in range(2, 13):
        assert pmf.probs[k] == pytest.approx((k - 1) * 2.0**-k, abs=1e-15)


def test_pmf_support_starts_at_n():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        p = random_positive_p(rng, n)
        pmf = st.exact_hitting_pmf(p)
        assert np.all(pmf.probs[:n] == 0.0)
        assert pmf.probs[n] == pytest.approx(float(np.prod(p)), rel=1e-12)


def test_pmf_default_truncation_tail():
    pmf = st.exact_hitting_pmf([0.2, 0.3, 0.5])
    assert pmf.tail_mass < 1e-9
    assert pmf.tail_mass >= 0.0


def test_pmf_default_truncation_is_the_first_k_with_enough_mass():
    pmf = st.exact_hitting_pmf([0.999, 0.001])
    assert pmf.k_max == 20714
    cum = pmf.cdf()
    assert cum[-1] >= 1.0 - st.PMF_TAIL > cum[-2]
    p = [1.0 - 3e-5, 3e-5]
    pmf = st.exact_hitting_pmf(p)
    assert pmf.k_max == 690739
    assert pmf.mean() == pytest.approx(sum(1.0 / v for v in p), rel=1e-9)


def test_pmf_truncation_must_be_nonnegative():
    assert st.exact_hitting_pmf([0.5, 0.5], k_max=0).probs.tolist() == [0.0]
    with pytest.raises(ValueError):
        st.exact_hitting_pmf([0.5, 0.5], k_max=-1)


def test_pmf_support_budget():
    with pytest.raises(BudgetExceededError):
        st.exact_hitting_pmf([0.5, 0.5], k_max=st.PMF_MAX_K + 1)
    assert st.exact_hitting_pmf([0.5, 0.5], k_max=st.PMF_MAX_K).k_max == st.PMF_MAX_K
    # about 20 / 1e-7 terms are needed: past the budget
    with pytest.raises(BudgetExceededError):
        st.exact_hitting_pmf([1.0 - 1e-7, 1e-7])


def test_simulation_reproducible():
    p = (0.2, 0.3, 0.5)
    rep1 = st.simulate(3, p, trials=500, seed=99, mode="level")
    rep2 = st.simulate(3, p, trials=500, seed=99, mode="level")
    assert rep1.to_json() == rep2.to_json()
    rep3 = st.simulate(3, p, trials=500, seed=100, mode="level")
    assert rep1.to_json() != rep3.to_json()


def test_simulation_full_mode_crosschecks():
    rep = st.simulate(3, (0.2, 0.3, 0.5), trials=300, seed=7, mode="full")
    assert rep.crosscheck_trials == 300
    assert rep.crosscheck_failures == 0
    assert min(rep.histogram) >= 3
    assert sum(rep.histogram.values()) == rep.trials
    assert st.SimulationReport.from_json(rep.to_json()).to_json() == rep.to_json()


def test_simulation_mean_matches_expectation():
    p = (0.2, 0.3, 0.5)
    trials = 20000
    rep = st.simulate(3, p, trials=trials, seed=4, mode="level")
    exact_mean = sum(1.0 / v for v in p)
    exact_var = sum((1.0 - v) / v**2 for v in p)
    assert abs(rep.mean - exact_mean) < 3.0 * math.sqrt(exact_var / trials)


def test_transition_frequencies():
    p = (0.2, 0.3, 0.5)
    rep = st.simulate(3, p, trials=20000, seed=11, mode="level")
    for state, (stay, down) in rep.transition_counts.items():
        visits = stay + down
        if visits >= 1000:
            freq = down / visits
            se = math.sqrt(p[state - 1] * (1 - p[state - 1]) / visits)
            assert abs(freq - p[state - 1]) < 3.0 * se


@pytest.mark.parametrize("n, trials", [(3, 2000), (5, 1000)])
def test_full_mode_histogram_equals_level_mode(n, trials):
    p = tuple(np.full(n, 1.0 / n))
    full = st.simulate(n, p, trials=trials, seed=31, mode="full")
    level = st.simulate(n, p, trials=trials, seed=31, mode="level")
    assert full.crosscheck_trials > 0
    assert full.histogram == level.histogram
    assert full.transition_counts == level.transition_counts


def test_full_mode_checks_each_visited_pair_once(monkeypatch):
    level_by_definition = st.level_by_definition
    checked = []

    def counting(x):
        checked.append(x)
        return level_by_definition(x)

    monkeypatch.setattr(st, "level_by_definition", counting)
    rep = st.simulate(3, (0.2, 0.3, 0.5), trials=300, seed=7, mode="full")
    assert rep.crosscheck_trials == 300
    assert sorted(x.letters for x in set(checked)) == sorted(K3_STEP_PRODUCTS)
    assert len(checked) <= 3 * 18  # one call per visited (element, letter) pair


@pytest.mark.parametrize("letters", K3_STEP_PRODUCTS, ids=core.format_word)
def test_misreported_level_is_caught(letters, monkeypatch):
    level_by_definition = st.level_by_definition

    def misreporting(x):
        true_level = level_by_definition(x)
        return true_level + 1 if x.letters == letters else true_level

    monkeypatch.setattr(st, "level_by_definition", misreporting)
    with pytest.raises(st.CrosscheckError):
        st.simulate(3, (0.2, 0.3, 0.5), trials=300, seed=7, mode="full")


def test_wrong_product_is_caught(monkeypatch):
    multiply = st.multiply
    a3, a2 = core.generator(3, 3), core.generator(3, 2)

    def dropping(x, y):
        # a_3 a_2 (level 1) comes out as a_3 (level 2)
        return x if (x, y) == (a3, a2) else multiply(x, y)

    monkeypatch.setattr(st, "multiply", dropping)
    with pytest.raises(st.CrosscheckError):
        st.simulate(3, (0.2, 0.3, 0.5), trials=300, seed=7, mode="full")


def test_crosscheck_stride_for_rank4():
    rep = st.simulate(4, (0.25, 0.25, 0.25, 0.25), trials=300, seed=21, mode="full")
    assert rep.crosscheck_trials == 3  # every 100th trial
    assert rep.crosscheck_failures == 0


def test_verify_self_consistency():
    pmf = st.exact_hitting_pmf([0.5, 0.5])
    control = st.sample_from_pmf(pmf, trials=50000, seed=17)
    verdict = st.verify_distribution(control, pmf)
    assert verdict.passed


@pytest.mark.parametrize("p, trials, bound", [
    ((0.1, 0.15, 0.2, 0.25, 0.3), 20_000, 0.0405),
    ((0.2, 0.3, 0.5), 100_000, 0.0135),
    ((0.5, 0.5), 100_000, 0.0102),
])
def test_tv_tolerance_values(p, trials, bound):
    assert st.tv_tolerance(st.exact_hitting_pmf(p), trials) == pytest.approx(bound, abs=5e-5)


def test_verify_negative_control():
    pmf_wrong = st.exact_hitting_pmf([1 / 3, 1 / 3, 1 / 3])
    rep = st.simulate(2, (0.5, 0.5), trials=50000, seed=23, mode="level")
    pmf_wrong = st.HittingTimePMF(
        p=np.array([0.5, 0.5]), probs=pmf_wrong.probs, tail_mass=pmf_wrong.tail_mass
    )
    verdict = st.verify_distribution(rep, pmf_wrong)
    assert not verdict.passed


CHI2_GRID_DOFS = [*range(1, 60), 99, 100, 250, 501, 1000, 2001, 5000]


@pytest.mark.parametrize("dof", CHI2_GRID_DOFS)
def test_chi2_sf_matches_scipy(dof):
    """The closed form agrees with scipy.special.chdtrc to a relative 1e-10
    (2.5e-12 at worst on this grid) wherever chdtrc exceeds 1e-280, for x
    from 0.01 to 5·dof + 50 and densely around the mean dof."""
    special = pytest.importorskip("scipy.special")
    spread = 6 * math.sqrt(2 * dof)
    xs = np.concatenate([
        np.geomspace(0.01, 5 * dof + 50, 60),
        np.linspace(max(0.01, dof - spread), dof + spread + 10, 40),
    ])
    for x in xs.tolist():
        expected = special.chdtrc(dof, x)
        if expected > 1e-280:
            assert st.chi2_sf(dof, x) == pytest.approx(expected, rel=1e-10, abs=0)


def test_chi2_sf_edges():
    assert math.isnan(st.chi2_sf(0, 0.0))
    assert math.isnan(st.chi2_sf(0, 3.0))
    for dof in (1, 2, 7, 100):
        assert st.chi2_sf(dof, 0.0) == 1.0
        assert st.chi2_sf(dof, -2.5) == 1.0
        assert st.chi2_sf(dof, math.inf) == 0.0


def test_one_bin_verdict_fails():
    pmf = st.exact_hitting_pmf([0.5, 0.5])
    verdict = st.verify_distribution(st.sample_from_pmf(pmf, trials=6, seed=1), pmf, tv_bound=1.0)
    assert verdict.dof == 0
    assert math.isnan(verdict.chi2_pvalue)
    assert not verdict.passed
