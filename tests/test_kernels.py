"""The pure-Python append fold agrees with the restart reducer it is checked
against (``reference_reduce``) on every word, at ranks 2-8 and 200-1000,
every product reaches it through ``reduce_word`` alone, and ``reduce --n
1000`` has no quadratic cliff."""

import os
import random
import subprocess
import sys

import pytest

from kiselman import _reduce_py, core, enumeration
from kiselman._reduce_py import reduce_word as reduce_py
from reference_reduce import reduce_word as reduce_reference


def _random_word(rng, n, lo, hi):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(lo, hi)))


@pytest.mark.parametrize("count, lo, hi", [(20_000, 0, 40), (3_000, 40, 150)])
def test_fold_matches_reference(count, lo, hi):
    rng = random.Random(hi)
    for _ in range(count):
        w = _random_word(rng, rng.randint(2, 8), lo, hi)
        assert reduce_py(w) == reduce_reference(w), w


def test_canonical_word_then_letters_matches_reference():
    # a product's fold: a canonical word followed by arbitrary letters
    rng = random.Random(7)
    for _ in range(5_000):
        n = rng.randint(2, 8)
        x = reduce_reference(_random_word(rng, n, 0, 40))
        y = _random_word(rng, n, 0, 40)
        assert reduce_py((*x, *y)) == reduce_reference(x + y), (x, y)


def test_products_reach_the_kernel_only_through_reduce_word(monkeypatch):
    assert [name for name, obj in vars(_reduce_py).items()
            if callable(obj) and not name.startswith("_")] == ["reduce_word"]
    reduce_word, fold = _reduce_py.reduce_word, _reduce_py._fold
    calls, open_calls = [], []

    def wrapped(letters):
        calls.append(tuple(letters))
        open_calls.append(1)
        try:
            return reduce_word(letters)
        finally:
            open_calls.pop()

    def guarded(letters):
        assert open_calls, "the fold was reached outside reduce_word"
        return fold(letters)

    # every namespace that binds the kernel, however it imported it
    bound = [module for name, module in sorted(sys.modules.items())
             if name.startswith("kiselman") and getattr(module, "reduce_word", None) is reduce_word]
    assert {core, enumeration} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "reduce_word", wrapped)
    monkeypatch.setattr(_reduce_py, "_fold", guarded)

    x, y = core.reduce(4, (3, 1, 4, 2)), core.reduce(4, (2, 4, 1))
    calls.clear()
    assert core.multiply(x, y).letters == reduce_reference((3, 1, 4, 2, 2, 4, 1))
    assert calls == [(3, 1, 4, 2, 2, 4, 1)]

    table = core.RightCayley(4)
    calls.clear()
    y = table.add(0, 2)
    assert table.elements[table.add(y, 3)].letters == (2, 3)
    assert calls == [(2,), (2, 3)]

    universe = enumeration.enumerate_elements(4)
    calls.clear()
    universe.truncations
    # one fold per (image, letter) product, each a canonical word and one letter
    assert calls and all(w[:-1] in universe.position for w in calls)
    assert len(set(calls)) == len(calls)


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
