"""The congruence oracle's components closure against the union-find
reference, its independence from the reducer and the automaton, its memory
and its refusal."""

import subprocess
import sys
import tracemalloc

import pytest

from kiselman import _reduce_py, core, enumeration
from reference_oracle import closure_roots

BOUNDS = [(2, m) for m in range(9)] + [(3, m) for m in range(9)] + [(4, m) for m in range(7)]


@pytest.mark.parametrize("n, max_len", BOUNDS)
def test_components_closure_matches_union_find(n, max_len):
    _, roots_small, roots_large = closure_roots(n, max_len)
    assert enumeration._closure_roots(n, max_len) == (roots_small, roots_large)


def test_oracle_calls_neither_the_reducer_nor_the_automaton(monkeypatch):
    expected = enumeration.congruence_oracle(3, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call this")

    for module, name in ((core, "reduce"), (core, "multiply"), (_reduce_py, "reduce_word"),
                         (_reduce_py, "_follow"), (enumeration, "_follow"),
                         (enumeration, "_count")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):  # the patches are seen by the module's own calls
        enumeration.enumerate_elements(3)
    assert enumeration.congruence_oracle(3, 5) == expected


def test_oracle_traced_peak_stays_small():
    enumeration.congruence_oracle(2, 1)  # loads numpy outside the trace
    tracemalloc.start()
    try:
        partition = enumeration.congruence_oracle(3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert partition.num_classes == 18
    assert peak < 6_000_000


def test_budget_refusal_loads_no_numpy():
    # a fresh interpreter, since this test process has long since loaded numpy
    probe = """
import sys
from kiselman import enumeration
try:
    enumeration.congruence_oracle(3, max_len=12)
except enumeration.BudgetExceededError:
    print("refused", "numpy" in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=300)
    assert result.stdout.split() == ["refused", "False"], result.stderr


class Admitted(Exception):
    """Raised in place of the closure: the budget let the call through."""


ADMITTED = [(2, 5), (2, 8), (2, 17), (3, 7), (3, 8), (3, 9), (4, 6), (4, 7), (5, 5)]
REFUSED = [(2, 18), (2, 19), (3, 10), (4, 8), (5, 6), (6, 5)]


def test_budget_admits_and_refuses_by_the_word_universe(monkeypatch):
    def admitted(n, max_len):
        raise Admitted

    monkeypatch.setattr(enumeration, "_closure_roots", admitted)
    for n, max_len in ADMITTED:
        with pytest.raises(Admitted):
            enumeration.congruence_oracle(n, max_len)
    for n, max_len in REFUSED:
        with pytest.raises(enumeration.BudgetExceededError):
            enumeration.congruence_oracle(n, max_len)


def test_the_costliest_old_edge_is_refused_without_numpy():
    # (2, 19) took 7 s and 311 MB under the old budget of 5,000,000 words
    probe = """
import sys
from kiselman import enumeration
try:
    enumeration.congruence_oracle(2, max_len=19)
except enumeration.BudgetExceededError:
    print("refused", "numpy" in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=300)
    assert result.stdout.split() == ["refused", "False"], result.stderr
