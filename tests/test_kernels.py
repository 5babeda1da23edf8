"""The pure-Python append fold agrees with the restart reducer it is checked
against (``reference_reduce``) on every word, at ranks 2-8 and 200-1000, and
``reduce --n 1000`` has no quadratic cliff."""

import os
import random
import subprocess
import sys

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


@pytest.mark.parametrize("width, count, longest", [(8, 100, 300), (30, 50, 200), (None, 50, 300)],
                         ids=["window-8", "window-30", "uniform"])
def test_fold_matches_reference_at_large_rank(width, count, longest):
    # ranks 200-1000; a word drawn from a window of at most 9 or 31 consecutive
    # letters cascades: most of its appends drop a letter or delete an old one
    rng = random.Random(longest + (width or 0))
    for _ in range(count):
        n = rng.randint(200, 1000)
        lo = 1 if width is None else rng.randint(1, n - width)
        hi = n if width is None else lo + rng.randint(2, width)
        w = tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, longest)))
        assert reduce_py(w) == reduce_reference(w), w


def test_reduce_at_rank_1000_has_no_cliff():
    # 20,000 seeded letters at n = 1000 reduce in about 0.3 s on a 2-CPU VM; a
    # fold that scanned the whole word for every letter took 25 s
    rng = random.Random(1000)
    word = " ".join(str(rng.randint(1, 1000)) for _ in range(20_000))
    argv = [sys.executable, "-m", "kiselman.cli", "reduce", "--n", "1000", "--word", word]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=5,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 19_318
