"""Each algebraic law of ``kiselman.selftest.CHECKS`` as its own test case,
and faults on K_4 that the widened checks must catch."""

import pytest

from kiselman import core, level_metric, selftest


@pytest.mark.parametrize(
    "name, check", selftest.CHECKS, ids=[fn.__name__ for _, fn in selftest.CHECKS]
)
def test_check(name, check):
    assert check(), name


@pytest.mark.parametrize("symmetric", [False, True])
def test_distance_wrong_on_one_pair_of_k4_is_caught(monkeypatch, symmetric):
    # a symmetric lie keeps d symmetric, so only the triangle inequality fails
    x, y = core.reduce(4, (2, 1)), core.reduce(4, (3, 1))
    pairs = {(x, y), (y, x)} if symmetric else {(x, y)}
    distance = level_metric.distance

    def lying(a, b):
        return distance(a, b) + ((a, b) in pairs)

    monkeypatch.setattr(level_metric, "distance", lying)
    assert selftest.check_ultrametric_axioms() is False


def test_level_wrong_on_one_element_of_k4_is_caught(monkeypatch):
    x = core.reduce(4, (4, 3))  # level 2, reported as 3
    level = level_metric.level_by_definition

    def lying(y):
        return level(y) + (y == x)

    monkeypatch.setattr(level_metric, "level_by_definition", lying)
    assert selftest.check_right_multiplication_law() is False
