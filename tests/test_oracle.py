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

    for module, name in ((core, "reduce"), (core, "multiply"),
                         (_reduce_py, "reduce_word"), (enumeration, "_automaton")):
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
