"""The pure-Python append fold agrees with the restart reducer it is checked
against (``reference_reduce``) on every word."""

import random

import pytest

from kiselman._reduce_py import extend, reduce_word as reduce_py
from reference_reduce import reduce_word as reduce_reference


def _random_word(rng, n, lo, hi):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(lo, hi)))


@pytest.mark.parametrize("count, lo, hi", [(20_000, 0, 40), (3_000, 40, 150)])
def test_fold_matches_reference(count, lo, hi):
    rng = random.Random(hi)
    for _ in range(count):
        w = _random_word(rng, rng.randint(2, 8), lo, hi)
        assert reduce_py(w) == reduce_reference(w), w


def test_extend_matches_reference():
    rng = random.Random(7)
    for _ in range(5_000):
        n = rng.randint(2, 8)
        x = reduce_reference(_random_word(rng, n, 0, 40))
        y = _random_word(rng, n, 0, 40)
        assert extend(x, y) == reduce_reference(x + y), (x, y)
