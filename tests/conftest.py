import numpy as np
import pytest

from kiselman import congruence_oracle, enumerate_elements, stochastic

# |K_n|.  At n = 2, 3, 4 the automaton's walk equals the oracle's least words
# of the classes, in order, so its count is the class count
# (``selftest.check_reduction_matches_oracle``); for n <= 6 the walk equals
# the BFS over ``multiply`` (``selftest.check_enumeration_matches_bfs`` to
# n = 5, tests/test_enumeration.py at n = 6); n = 7..10 rest on the
# automaton count alone.
KNOWN_SIZES = {
    1: 2, 2: 5, 3: 18, 4: 115, 5: 1710, 6: 83_973, 7: 22_263_378,
    8: 64_146_328_635, 9: 5_387_481_983_035_854, 10: 53_332_505_278_384_935_836_485,
}


def sample_from_pmf(pmf, trials, seed):
    """An inverse-CDF sample of ``pmf`` as a report: an exact sampler, the
    control that ``verify_distribution`` is tested against."""
    rng = np.random.default_rng(seed)
    draws = np.searchsorted(pmf.cdf(), rng.random(trials))
    histogram = {}
    for k in draws.tolist():
        histogram[k] = histogram.get(k, 0) + 1
    return stochastic.SimulationReport(
        rank=len(pmf.p),
        p=tuple(float(v) for v in pmf.p),
        trials=trials,
        seed=seed,
        mode="resample",
        rng=stochastic.RNG_ALGORITHM,
        histogram=histogram,
        mean=float(draws.mean()),
        variance=float(draws.var()),
        crosscheck_trials=0,
        crosscheck_failures=0,
    )


@pytest.fixture(scope="session")
def universe2():
    return enumerate_elements(2)


@pytest.fixture(scope="session")
def universe3():
    return enumerate_elements(3)


@pytest.fixture(scope="session")
def universe4():
    return enumerate_elements(4)


@pytest.fixture(scope="session")
def oracle2():
    return congruence_oracle(2, max_len=8)
