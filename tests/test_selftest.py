"""Each algebraic law of ``kiselman.selftest.CHECKS`` as its own test case,
faults on K_4 that the widened checks must catch, and faults in the level
chain's law that its two checks must catch."""

import pytest

from kiselman import _reduce_py, core, enumeration, level_metric, levelchain, selftest


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


def test_state_rule_broken_in_the_walk_and_the_kernel_alike_is_caught(monkeypatch):
    # a rule that never blocks a_1 lets 1 2 1 into the walk and into the
    # kernel's products alike, so the walk still equals the BFS, and only the
    # definition of a canonical word catches it
    follow = _reduce_py._follow

    def never_blocking_1(v, b, j):
        return follow(v, b, j) & ~2

    for module in (_reduce_py, enumeration):
        monkeypatch.setattr(module, "_follow", never_blocking_1)
    assert enumeration.enumerate_elements(2).elements == selftest.bfs_elements(2)
    assert selftest.check_enumeration_matches_bfs() is False


def _moved_entry_table(universe):
    """The truncation table with the last element's depth-2 entry moved
    into e's class."""
    rows = [list(row) for row in universe.truncations]
    rows[2][-1] = rows[2][0]
    broken = enumeration.ElementList(rank=universe.rank, elements=universe.elements)
    broken.__dict__["truncations"] = tuple(map(tuple, rows))
    return broken


def _moved_member_classes(universe):
    """The depth-2 classes, which ``classes`` caches, with the last element
    moved into e's class (truncation id 0)."""
    grouped = universe.classes(2)
    last = len(universe) - 1
    next(ks for ks in grouped.values() if last in ks).remove(last)
    grouped[0].append(last)
    return universe


@pytest.mark.parametrize("fault", [_moved_entry_table, _moved_member_classes],
                         ids=["table", "classes"])
def test_truncation_entry_moved_to_another_class_on_k4_is_caught(fault, monkeypatch):
    enumerate_elements = enumeration.enumerate_elements

    def faulty(n, *args):
        universe = enumerate_elements(n, *args)
        return fault(universe) if n == 4 else universe

    monkeypatch.setattr(enumeration, "enumerate_elements", faulty)
    assert selftest.check_truncation_table() is False


@pytest.mark.parametrize("scale", [0.0, 1.001], ids=["zero", "0.1%-off"])
def test_wrong_tail_mean_is_caught(scale, monkeypatch):
    # at k_max = 5 and 40 the tail is most of E[T], so 0.1% of it is far past the 1e-9 tolerance
    tail = levelchain._tail

    def scaled(p, k_max, stage):
        mass, mean = tail(p, k_max, stage)
        return mass, scale * mean

    monkeypatch.setattr(levelchain, "_tail", scaled)
    assert selftest.check_pmf_mean() is False


def test_level_1_row_with_stay_and_move_swapped_is_caught(monkeypatch):
    transition_rows = levelchain.transition_rows

    def swapped(p):
        rows = transition_rows(p)
        rows[1][0], rows[1][1] = rows[1][1], rows[1][0]
        return rows

    monkeypatch.setattr(levelchain, "transition_rows", swapped)
    assert selftest.check_chain_vs_convolution() is False
