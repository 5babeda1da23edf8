"""The reduction kernels agree on every word: the pure-Python append fold
with the restart reducer it is checked against (``reference_reduce``), and
the compiled kernel, which runs the restart algorithm, with the fold."""

import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from kiselman._reduce_py import extend, reduce_word as reduce_py
from kiselman.enumeration import _all_words
from reference_reduce import reduce_word as reduce_reference

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """``_speedups`` built by ``setup.py`` into a temporary directory, so that
    no extension lands next to the sources (it would switch the backend)."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc})")
    out = tmp_path_factory.mktemp("speedups")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    built = sorted((out / "kiselman").glob("_speedups*"))
    assert proc.returncode == 0 and built, proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("kiselman._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exhaustive_small_words(compiled):
    for n in (2, 3):
        for w in _all_words(n, 6):
            assert compiled.reduce_word(w) == reduce_py(w)


def test_random_long_words(compiled):
    rng = random.Random(42)
    for _ in range(2000):
        n = rng.randint(2, 6)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 40)))
        assert compiled.reduce_word(w) == reduce_py(w)


def test_accepts_lists_and_tuples(compiled):
    assert compiled.reduce_word([1, 2, 1]) == (2, 1)
    assert reduce_py([1, 2, 1]) == (2, 1)
    assert compiled.reduce_word(()) == ()


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
