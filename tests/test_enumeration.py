import itertools

import pytest

from kiselman import core, enumeration, morphisms, selftest, tau
from conftest import KNOWN_SIZES


def test_rank2_enumeration(universe2):
    assert {x.letters for x in universe2} == {(), (1,), (2,), (1, 2), (2, 1)}


def test_known_sizes(universe2, universe3, universe4):
    assert len(universe2) == KNOWN_SIZES[2]
    assert len(universe3) == KNOWN_SIZES[3]
    assert len(universe4) == KNOWN_SIZES[4]


def test_cap_flags_incomplete():
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.enumerate_elements(3, cap=4)
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.cardinality_table(max_rank=3, cap=KNOWN_SIZES[3] - 1)
    assert len(enumeration.enumerate_elements(3, cap=KNOWN_SIZES[3])) == KNOWN_SIZES[3]


def test_walk_matches_bfs_at_rank_6():
    walked = enumeration.enumerate_elements(6).elements
    assert walked == selftest.bfs_elements(6)
    for x in walked:
        assert core.is_canonical(x.letters)
        assert core.reduce(6, x.letters).letters == x.letters


def test_closure_under_operations(universe3):
    elems = set(universe3)
    for x in universe3:
        assert tau(x) in elems
        for i in (1, 2, 3):
            assert x * core.generator(3, i) in elems
            assert core.generator(3, i) * x in elems
        for k in range(4):
            for subset in itertools.combinations((1, 2, 3), k):
                assert morphisms.delete(subset, x) in elems


def test_canonical_words_are_fixed_points(universe4):
    for x in universe4:
        assert core.is_canonical(x.letters)


def test_shortlex_order(universe3):
    keys = [x.shortlex_key for x in universe3]
    assert keys == sorted(keys)


def test_oracle_relation_classes(oracle2):
    assert oracle2.same_class((1, 2, 1), (2, 1, 2))
    assert oracle2.same_class((1, 2, 1), (2, 1))
    assert oracle2.same_class((1,), (1, 1))
    assert not oracle2.same_class((1,), (2,))


def test_oracle_class_count(oracle2):
    # this run is itself the oracle; the count is frozen as a fixture
    assert oracle2.num_classes == KNOWN_SIZES[2]


def test_dual_method_agreement(oracle2, oracle3, universe2, universe3):
    # the automaton walk against the congruence oracle
    assert oracle2.num_classes == len(universe2)
    assert oracle3.num_classes == len(universe3)


def test_oracle_budget_guard():
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.congruence_oracle(3, max_len=12)


def test_cardinality_table():
    table = enumeration.cardinality_table(max_rank=4)
    assert table == [(2, KNOWN_SIZES[2]), (3, KNOWN_SIZES[3]), (4, KNOWN_SIZES[4])]
    for n, count in table:
        assert count > 2**n


def test_cardinality_table_counts_to_rank_10():
    table = enumeration.cardinality_table(max_rank=10, cap=10**23)
    assert table == [(n, KNOWN_SIZES[n]) for n in range(2, 11)]
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.cardinality_table(max_rank=10, cap=10**22)


def test_cardinality_table_below_rank_2_is_rejected():
    with pytest.raises(ValueError):
        enumeration.cardinality_table(max_rank=1)
