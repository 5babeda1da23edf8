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


def _tau_fixing_k4(x, tau=core.tau):
    return x if x.rank == 4 else tau(x)


def _content_losing_4(x):
    return frozenset(x.letters) - ({4} if x.rank == 4 and len(x.letters) > 4 else set())


def _multiply_truncating_k4(x, y, multiply=core.multiply):
    if x.rank == 4 and len(x.letters) >= 5:
        x = core.Element(4, x.letters[:-1])
    return multiply(x, y)


@pytest.mark.parametrize("name, fault, check", [
    ("tau", _tau_fixing_k4, selftest.check_tau_antiautomorphism),
    ("content", _content_losing_4, selftest.check_content_homomorphism),
    ("multiply", _multiply_truncating_k4, selftest.check_associativity),
], ids=["tau", "content", "associativity"])
def test_fault_only_on_k4_is_caught(name, fault, check, monkeypatch):
    monkeypatch.setattr(core, name, fault)
    assert check() is False
