import hashlib
import math
import time

import numpy as np
import pytest

from kiselman import core, levelchain, stochastic as st
from kiselman.enumeration import BudgetExceededError, enumerate_elements
from conftest import sample_from_pmf

# every element of K_3 but e is the product after some step of a trial
K3_STEP_PRODUCTS = [x.letters for x in enumerate_elements(3) if x.letters]


def random_positive_p(rng, n):
    p = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
    return p / p.sum()


def test_spec_validation():
    with pytest.raises(ValueError):
        st.SequenceSpec(3)  # no cycle
    with pytest.raises(core.MalformedWordError):
        st.SequenceSpec(3, cycle=(4,))


def test_constant_sequence_stabilizes_immediately():
    trace = st.partial_products(st.SequenceSpec(3, cycle=(1,)))
    assert trace.stable_index == 1
    assert trace.value == core.generator(3, 1)


def test_full_cycle_reaches_zero():
    trace = st.partial_products(st.SequenceSpec(3, cycle=(1, 2, 3)))
    assert trace.value == core.zero(3)
    # a horizon that ends before a full cycle passes unchanged certifies nothing
    horizon = trace.stable_index + 2
    with pytest.raises(BudgetExceededError, match=f"within horizon {horizon}"):
        st.partial_products(trace.spec, horizon=horizon)


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
    assert trace.value == core.reduce(3, (2, 1))


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


def test_chain_cdf_truncation_must_be_nonnegative():
    assert st.chain_hitting_cdf([0.5, 0.5], 0).tolist() == [0.0]
    with pytest.raises(ValueError, match="k_max"):
        st.chain_hitting_cdf([0.5, 0.5], -1)


def test_chain_cdf_truncation_budget():
    with pytest.raises(BudgetExceededError):
        st.chain_hitting_cdf([0.5, 0.5], st.PMF_MAX_K + 1)


def test_pmf_support_budget(monkeypatch):
    with pytest.raises(BudgetExceededError):
        st.exact_hitting_pmf([0.5, 0.5], k_max=st.PMF_MAX_K + 1)
    # about 20 / 1e-7 terms are needed: past the budget
    with pytest.raises(BudgetExceededError):
        st.exact_hitting_pmf([1.0 - 1e-7, 1e-7])
    # the edge of the budget, at a budget whose whole pass is cheap
    monkeypatch.setattr(levelchain, "PMF_MAX_K", 1000)
    assert st.exact_hitting_pmf([0.5, 0.5], k_max=1000).k_max == 1000
    with pytest.raises(BudgetExceededError):
        st.exact_hitting_pmf([0.5, 0.5], k_max=1001)


def numpy_validation(p):
    """The numpy checks that ``levelchain.validate_probabilities`` replaced,
    kept as the reference for its refusals."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise ValueError("need a probability vector of length n >= 2")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > st.PROBABILITY_SUM_TOL:
        raise ValueError("probabilities do not sum to 1")
    return p


def refused(validate, p) -> bool:
    try:
        validate(p)
    except ValueError:
        return True
    return False


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("p", [
    [], [0.5], 0.5, "0.5,0.5", [[0.5, 0.5]], [[0.5], [0.5]], np.array([[0.5, 0.5]]),
    [NAN, 0.5], [0.5, NAN], [INF, 0.5], [0.5, -INF], [-0.5, 1.5], [0.6, 0.5, -0.1],
    [0.5, 0.4], [0.5, 0.5 + 2e-12], [0.5, 0.5 - 2e-12], [0.3] * 4,
], ids=repr)
def test_refusals_match_the_numpy_checks(p):
    assert refused(numpy_validation, p)
    assert refused(levelchain.validate_probabilities, p)
    assert refused(st.validate_probabilities, p)


def test_accepted_vectors_give_the_same_floats():
    rng = np.random.default_rng(37)
    vectors = [[0.5, 0.5], [1, 0], (0.2, 0.3, 0.5), [0.5, 0.5 + 5e-13], np.array([0.3, 0.7]),
               ["0.25", "0.75"], [0.1] * 10]
    vectors += [random_positive_p(rng, n) for n in range(2, 12) for _ in range(5)]
    for p in vectors:
        expected = numpy_validation(p).tolist()
        assert list(levelchain.validate_probabilities(p)) == expected
        assert st.validate_probabilities(p).tolist() == expected


@pytest.mark.parametrize("p", [[1.0, 0.0], [0.0, 0.5, 0.5]])
def test_a_zero_probability_is_refused_by_the_pass(p):
    assert (numpy_validation(p) <= 0).any()
    with pytest.raises(ValueError, match="positive probability"):
        levelchain.hitting_pmf(p)
    with pytest.raises(ValueError, match="positive probability"):
        st.exact_hitting_pmf(p)


def numpy_mean(pmf) -> float:
    """E[T] by numpy's inverse and matrix power, the formula that
    ``levelchain.tail_mean`` evaluates by substitution and squaring."""
    head = float(np.arange(len(pmf.probs)) @ pmf.probs)
    chain = st.transition_matrix(pmf.p)
    q = chain.matrix[1:, 1:]
    r = chain.matrix[1:, 0]
    pi = chain.initial[1:]
    k = pmf.k_max
    inv = np.linalg.inv(np.eye(chain.n) - q)
    qk = np.linalg.matrix_power(q, k)
    return head + float(pi @ qk @ ((k + 1) * inv + q @ (inv @ inv)) @ r)


def test_mean_matches_the_numpy_formula():
    # the grid of selftest.check_pmf_mean, each p also at short truncations
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            p = random_positive_p(rng, n)
            for k_max in (None, 0, 5, 40):
                pmf = st.exact_hitting_pmf(p, k_max)
                assert pmf.mean() == pytest.approx(numpy_mean(pmf), rel=1e-12, abs=0)
    pmf = st.exact_hitting_pmf([1.0 - 3e-5, 3e-5])
    assert pmf.mean() == pytest.approx(numpy_mean(pmf), rel=1e-12, abs=0)


def test_hopeless_default_truncation_is_refused_before_the_pass():
    # T >= G_2, so P(T > PMF_MAX_K) >= (1 - 1e-7)^PMF_MAX_K, about 0.9
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="pmf tail mass stays above"):
        st.exact_hitting_pmf([1.0 - 1e-7, 1e-7])
    assert time.perf_counter() - start < 0.1


def test_simulation_reproducible():
    p = (0.2, 0.3, 0.5)
    rep1 = st.simulate(3, p, trials=500, seed=99, mode="level")
    rep2 = st.simulate(3, p, trials=500, seed=99, mode="level")
    assert rep1.to_json() == rep2.to_json()
    rep3 = st.simulate(3, p, trials=500, seed=100, mode="level")
    assert rep1.to_json() != rep3.to_json()


# sha256 of the report bytes: trial t draws from default_rng([seed, t]), so
# any change to the streams, the draws or the serialisation shows here
@pytest.mark.parametrize("n, p, trials, seed, mode, digest", [
    (2, (0.5, 0.5), 500, 0, "level",
     "996daff7ed357335533fff72a7e968fe3dcdf696869183045c76132c309e8957"),
    (3, (0.2, 0.3, 0.5), 300, 2**32, "full",
     "92e28a9aa730648ed9be698a2bf0d45a0b80eb331881d4212f2b00225498c794"),
    # trials 0, 100 and 200 are crosschecked
    (5, (0.1, 0.15, 0.2, 0.25, 0.3), 201, 2**64 + 7, "full",
     "4b669636b802127a5a0597fec21824b48280d4ea03e19c40b0f9cf03ae188044"),
    # spans several seeding chunks
    (3, (0.2, 0.3, 0.5), 3000, 901, "level",
     "cde3c25183e7c047808b6cc8cc3914c0093f891334637180b326fdeac0335640"),
    # lanes that run for thousands of steps, in many passes
    (2, (0.999, 0.001), 200, 3, "level",
     "b04059eda5d7c06e8878ad0340344613076ace7c90078b2a6f3be310cefccece"),
    # ten levels; trials 0, 100 and 200 are walked
    (10, (0.1,) * 10, 300, 10, "full",
     "6b9ef3e33177f90a7b8031757e47197e477f65e5c37d051d95c7782b6aab4bdf"),
    # three seeding chunks, the last of one trial; every trial is walked
    (3, (0.2, 0.3, 0.5), 2 * st.SEED_CHUNK + 1, 2**32 + 5, "full",
     "46eb08d85198bff37bf096aea652af00f06285c7670d4ee395f916a975632be2"),
])
def test_simulation_report_bytes(n, p, trials, seed, mode, digest):
    report = st.simulate(n, p, trials=trials, seed=seed, mode=mode)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_trial_streams_refuse_a_range_across_2_to_the_32():
    top = 2**32
    assert len(st._trial_streams(5, top - 3, top)[0]) == 3
    assert len(st._trial_streams(5, top, top + 3)[0]) == 3
    with pytest.raises(ValueError, match="2\\^32"):
        st._trial_streams(5, top - 3, top + 3)
    with pytest.raises(ValueError):
        st._trial_streams(5, 7, 7)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        st.simulate(2, (0.5, 0.5), trials=10, seed=-1)


def test_wrong_stream_seed_is_caught(monkeypatch):
    trial_streams = st._trial_streams

    def corrupted(seed, start, stop):
        streams = trial_streams(seed, start, stop)
        if start == st.SEED_CHUNK:  # the second chunk's first state only
            streams[1][0] ^= np.uint64(1)  # the low half of the state
        return streams

    monkeypatch.setattr(st, "_trial_streams", corrupted)
    st.simulate(2, (0.5, 0.5), trials=st.SEED_CHUNK, seed=1, mode="level")
    with pytest.raises(st.CrosscheckError, match=f"trial {st.SEED_CHUNK} differs"):
        st.simulate(2, (0.5, 0.5), trials=st.SEED_CHUNK + 1, seed=1, mode="level")


def _lanes(pairs):
    """(state, inc) ints as the four uint64 arrays of st._trial_streams."""
    mask = (1 << 64) - 1
    return tuple(np.array(column, np.uint64) for column in zip(
        *[(s >> 64, s & mask, i >> 64, i & mask) for s, i in pairs]))


TOP = (1 << 128) - 1
EDGE_STREAMS = [(0, 1), (0, TOP), (TOP, 1), (TOP, TOP), (1 << 127, 1 << 64 | 1)]


@pytest.mark.parametrize("size", [1, 16, 1000])
def test_lane_draws_equal_numpy(size):
    rng = np.random.default_rng(size)
    pairs = [(int.from_bytes(rng.bytes(16), "little"), int.from_bytes(rng.bytes(16), "little") | 1)
             for _ in range(6)] + EDGE_STREAMS
    draws, advanced = st._lane_draws(_lanes(pairs), size)
    assert draws.shape == (len(pairs), size)
    for lane, (state, inc) in enumerate(pairs):
        bitgen = np.random.PCG64()
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        assert np.array_equal(draws[lane], np.random.Generator(bitgen).random(size))
        # the advanced lane is the generator's state after its size draws
        after = [int(column[lane]) for column in advanced]
        assert bitgen.state["state"] == {"state": after[0] << 64 | after[1],
                                         "inc": after[2] << 64 | after[3]}


def test_corrupted_jump_table_is_caught(monkeypatch):
    jump_table = st._jump_table

    def corrupted():
        high, low = (column.copy() for column in jump_table())
        low[0] ^= np.uint64(1 << 40)  # G_1, which every lane's first draw reads
        return high, low

    monkeypatch.setattr(st, "_jump_table", corrupted)
    with pytest.raises(st.CrosscheckError, match="stream of trial 0 differs"):
        st.simulate(2, (0.5, 0.5), trials=10, seed=1, mode="level")


@pytest.mark.parametrize("p", [(0.1,) * 10, (0.5, 0.5 - 5e-13)])
def test_top_draw_maps_to_the_last_letter(p):
    # the running sums of these p end below 1; the bounds must still cover [0, 1)
    bounds = st._bounds(st.validate_probabilities(p))
    top = np.nextafter(1.0, 0.0)
    assert bounds[-1] == 1.0
    assert st._letters(bounds, np.array([0.0, top])).tolist() == [1, len(p)]


def _reference_run(n, p, trials, seed):
    """Per-trial hitting times and stay counts, one default_rng draw at a time."""
    cum = np.cumsum(p).tolist()
    times, stays = [], [0] * (n + 1)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        lvl, steps = n, 0
        while lvl:
            letter = int(np.searchsorted(cum, rng.random(), side="right")) + 1
            steps += 1
            if letter == lvl:
                lvl -= 1
            else:
                stays[lvl] += 1
        times.append(steps)
    return times, stays


@pytest.mark.parametrize("n, p, trials, seed", [
    (4, (0.4, 0.3, 0.2, 0.1), 300, 5),
    (2, (0.99, 0.01), 50, 6),
])
def test_lane_scan_equals_a_one_draw_walk(n, p, trials, seed):
    times, stays = _reference_run(n, p, trials, seed)
    report = st.simulate(n, p, trials=trials, seed=seed, mode="level")
    assert report.histogram == {t: times.count(t) for t in set(times)}
    assert report.transition_counts == {lvl: [stays[lvl], trials] for lvl in range(1, n + 1)}


def test_step_budget_names_the_lowest_trial(monkeypatch):
    times, _ = _reference_run(3, (0.2, 0.3, 0.5), 200, 12)
    budget = sorted(times)[-5]  # a handful of trials run past it
    monkeypatch.setattr(st, "STEP_BUDGET", budget)
    lowest = next(t for t, steps in enumerate(times) if steps > budget)
    with pytest.raises(BudgetExceededError, match=f"trial {lowest} exceeded step budget"):
        st.simulate(3, (0.2, 0.3, 0.5), trials=200, seed=12, mode="level")
    monkeypatch.setattr(st, "STEP_BUDGET", max(times))
    assert st.simulate(3, (0.2, 0.3, 0.5), trials=200, seed=12, mode="level").trials == 200


def test_step_budget_of_a_diverging_trial():
    with pytest.raises(BudgetExceededError, match=f"trial 0 exceeded step budget {st.STEP_BUDGET}"):
        st.simulate(2, (1.0 - 1e-8, 1e-8), trials=2, seed=1, mode="level")


@pytest.mark.parametrize("trials", [0, -3, True, 2.5, "10", None])
def test_trials_must_be_a_positive_int(trials):
    with pytest.raises(ValueError, match="trials"):
        st.simulate(2, (0.5, 0.5), trials=trials, seed=0, mode="level")


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
    level_by_definition, g = st.level_by_definition, st.g
    checked, laws = [], []

    def counting(x):
        checked.append(x)
        return level_by_definition(x)

    def counting_g(lvl, i):
        laws.append((lvl, i))
        return g(lvl, i)

    monkeypatch.setattr(st, "level_by_definition", counting)
    monkeypatch.setattr(st, "g", counting_g)
    rep = st.simulate(3, (0.2, 0.3, 0.5), trials=300, seed=7, mode="full")
    assert rep.crosscheck_trials == 300
    assert sorted(x.letters for x in set(checked)) == sorted(K3_STEP_PRODUCTS)
    assert len(checked) <= 3 * 18  # one call per visited (element, letter) pair
    assert len(laws) <= 3 * 18  # the level law once per visited pair
    assert len(checked) == len(set(checked))  # each element's level once


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
    multiply = core.multiply
    a3, a2 = core.generator(3, 3), core.generator(3, 2)

    def dropping(x, y):
        # a_3 a_2 (level 1) comes out as a_3 (level 2)
        return x if (x, y) == (a3, a2) else multiply(x, y)

    monkeypatch.setattr(core, "multiply", dropping)
    with pytest.raises(st.CrosscheckError):
        st.simulate(3, (0.2, 0.3, 0.5), trials=300, seed=7, mode="full")


@pytest.mark.parametrize("shift", [1, -1])
def test_scan_disagreeing_with_the_walk_is_caught(shift, monkeypatch):
    scan = st._scan

    def shifted(*args):
        times, rows = scan(*args)
        times[5] += shift  # trial 5's walk reaches the zero at another step
        return times, rows

    monkeypatch.setattr(st, "_scan", shifted)
    with pytest.raises(st.CrosscheckError, match="1 level/product mismatches"):
        st.simulate(3, (0.2, 0.3, 0.5), trials=10, seed=7, mode="full")


def test_crosscheck_stride_for_rank4():
    rep = st.simulate(4, (0.25, 0.25, 0.25, 0.25), trials=300, seed=21, mode="full")
    assert rep.crosscheck_trials == 3  # every 100th trial
    assert rep.crosscheck_failures == 0


def test_verify_self_consistency():
    pmf = st.exact_hitting_pmf([0.5, 0.5])
    control = sample_from_pmf(pmf, trials=50000, seed=17)
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
    # 6 trials pool into one bin; in 4, no bin reaches an expected count of 5
    for trials in (6, 4):
        verdict = st.verify_distribution(sample_from_pmf(pmf, trials, seed=1), pmf, tv_bound=1.0)
        assert verdict.dof == 0
        assert math.isnan(verdict.chi2_pvalue)
        assert not verdict.passed


def test_default_bounds_are_the_rule():
    # a fixed TV bound of 0.01 failed this correct run (TV 0.0253)
    p = (0.1, 0.15, 0.2, 0.25, 0.3)
    rep = st.simulate(5, p, trials=20_000, seed=3, mode="full")
    pmf = st.exact_hitting_pmf(p)
    verdict = st.verify_distribution(rep, pmf)
    assert verdict.tv_bound == st.tv_tolerance(pmf, 20_000)
    assert verdict.pvalue_floor == st.PVALUE_FLOOR
    assert verdict.passed
