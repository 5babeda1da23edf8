"""Every failure path that ships, one row each: a failed internal check
raises ``CrosscheckError``, a refusal ``BudgetExceededError`` and bad input
a ``ValueError``.  A check row breaks the computation its check guards, by
patching, and asserts that the check catches it."""

import dataclasses
import json

import pytest

from kiselman import core, enumeration, level_metric, levelchain, stochastic
from kiselman.core import BudgetExceededError, CrosscheckError, MalformedWordError


def _report_without(key):
    payload = json.loads(stochastic.simulate(2, (0.5, 0.5), trials=20, seed=1).to_json())
    del payload[key]
    return json.dumps(payload)


def _identity_delete(members, x):
    return x


# (id, [(module, attribute, patched value)], call, raised, message pattern)
CASES = [
    ("oracle-unstable", [(enumeration, "_closure_roots", lambda n, m: ([0, 1], [0, 0]))],
     lambda: enumeration.congruence_oracle(2, 1), CrosscheckError, "slack"),
    ("growth-ratios", [(enumeration, "_count", lambda n: 2**n)],
     lambda: enumeration.cardinality_table(4), CrosscheckError, "growth ratios"),
    ("level-search-runs-out", [(level_metric, "delete", _identity_delete)],
     lambda: level_metric.level_by_definition(core.generator(3, 1)), CrosscheckError,
     "unreachable"),
    ("m-search-runs-out", [(level_metric, "multiply", lambda x, y: x)],
     lambda: level_metric.m_function(core.unit(3)), CrosscheckError, "unreachable"),
    ("distance-search-runs-out", [(level_metric, "delete", _identity_delete)],
     lambda: level_metric.distance(core.generator(3, 1), core.generator(3, 2)),
     CrosscheckError, "unreachable"),
    ("pmf-tail-past-budget-after-the-pass", [(levelchain, "PMF_MAX_K", 1000)],
     lambda: levelchain.hitting_pmf((0.1,) * 10), BudgetExceededError, "past k = 200"),
    ("pmf-truncation-past-budget-at-n", [],
     lambda: levelchain.hitting_pmf((0.1,) * 10, k_max=levelchain.max_k(10) + 1),
     BudgetExceededError, "budget 200000 at n = 10"),
    ("chain-rows-past-budget", [], lambda: levelchain.transition_rows((0.0005,) * 2000),
     BudgetExceededError, "n = 2000: over 4000000 entries"),
    ("bins-too-few-to-test", [],
     lambda: stochastic.chi2_bins(stochastic.exact_hitting_pmf((0.5, 0.5)), 4),
     ValueError, "4 trials are too few to test"),
    ("sample-too-small-to-test", [],
     lambda: stochastic.verify_distribution(stochastic.simulate(2, (0.5, 0.5), 5, seed=1),
                                            stochastic.exact_hitting_pmf((0.5, 0.5))),
     ValueError, "5 trials are too few to test"),
    ("automaton-states-past-budget", [(enumeration, "STATE_BUDGET", 100)],
     lambda: enumeration.enumerate_elements(6), BudgetExceededError,
     "more than 100 states"),
    ("automaton-idempotents-past-budget", [],
     lambda: enumeration.cardinality_table(19), BudgetExceededError,
     "automaton of K_19 has more than 262144 states"),
    ("oracle-rank-below-2", [], lambda: enumeration.congruence_oracle(1, 3), ValueError,
     "rank"),
    ("p-length-differs-from-n", [], lambda: stochastic.simulate(3, (0.5, 0.5), 10, seed=0),
     ValueError, "length 2 != n = 3"),
    ("unknown-mode", [], lambda: stochastic.simulate(2, (0.5, 0.5), 10, seed=0, mode="walk"),
     ValueError, "unknown mode"),
    ("seed-not-an-int", [], lambda: stochastic.simulate(2, (0.5, 0.5), 10, seed=2.5),
     ValueError, "seed"),
    ("seed-a-bool", [], lambda: stochastic.simulate(2, (0.5, 0.5), 10, seed=True),
     ValueError, "seed"),
    ("report-rank-differs-from-pmf", [],
     lambda: stochastic.verify_distribution(
         dataclasses.replace(stochastic.simulate(2, (0.5, 0.5), 20, seed=1), rank=3),
         stochastic.exact_hitting_pmf((0.5, 0.5))),
     ValueError, "disagree on n"),
    ("report-lacks-a-key", [],
     lambda: stochastic.SimulationReport.from_json(_report_without("rank")), ValueError,
     "'rank'"),
    ("unparsable-word", [], lambda: core.parse_word("1 x 2"), MalformedWordError,
     "cannot parse"),
    ("rank-below-2", [], lambda: core.validate_word(1, ()), ValueError, "rank"),
]


@pytest.mark.parametrize("patches, call, raised, pattern",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_failure_path(patches, call, raised, pattern, monkeypatch):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    with pytest.raises(raised, match=pattern):
        call()
