"""Each algebraic law of ``kiselman.selftest.CHECKS`` as its own test case."""

import pytest

from kiselman import selftest


@pytest.mark.parametrize(
    "name, check", selftest.CHECKS, ids=[fn.__name__ for _, fn in selftest.CHECKS]
)
def test_check(name, check):
    assert check(), name
