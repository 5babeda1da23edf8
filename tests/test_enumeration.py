import itertools
import time

import pytest

from kiselman import core, enumeration, morphisms, selftest, tau
from conftest import KNOWN_SIZES
from reference_automaton import automaton, state_rule_image


def test_rank2_enumeration(universe2):
    assert {x.letters for x in universe2} == {(), (1,), (2,), (1, 2), (2, 1)}


def test_known_sizes(universe2, universe3, universe4):
    assert len(universe2) == KNOWN_SIZES[2]
    assert len(universe3) == KNOWN_SIZES[3]
    assert len(universe4) == KNOWN_SIZES[4]


def test_budgets_refuse_the_list_and_the_count(monkeypatch):
    # ELEMENT_BUDGET caps the list: one below |K_3|, it refuses K_3, and K_4
    # already at K_3, the first rank past it
    monkeypatch.setattr(enumeration, "ELEMENT_BUDGET", KNOWN_SIZES[3] - 1)
    for n in (3, 4):
        with pytest.raises(enumeration.BudgetExceededError, match=f"K_{n} .* K_3 has 18"):
            enumeration.enumerate_elements(n)
    monkeypatch.setattr(enumeration, "ELEMENT_BUDGET", KNOWN_SIZES[3])
    assert len(enumeration.enumerate_elements(3)) == KNOWN_SIZES[3]
    # STATE_BUDGET bounds the count: K_3's automaton has 13 states
    monkeypatch.setattr(enumeration, "STATE_BUDGET", 12)
    with pytest.raises(enumeration.BudgetExceededError, match="K_3 has more than 12 states"):
        enumeration.cardinality_table(max_rank=3)


def test_large_rank_is_refused_early():
    # |K_7| > ELEMENT_BUDGET refuses every larger rank after counting K_2..K_7,
    # also at a rank whose state bits 1 << 2n would not fit in memory
    start = time.perf_counter()
    for n in (*range(7, 19), 40, 10**12):
        with pytest.raises(enumeration.BudgetExceededError, match="K_7 has 22263378"):
            enumeration.enumerate_elements(n)
    assert time.perf_counter() - start < 2.0


def test_automaton_state_count():
    # the bit-packed reference automaton against the state rule, for n <= 12
    # (24,577 states at n = 12): its states map one to one onto the states
    # (v, B), the map commutes with the moves, and its path counts are
    # cardinality_table's.  K_n's automaton has n·2^(n-1) + 1 states, the count
    # STATE_BUDGET is priced on: K_15's 245,761 are admitted and K_16's 524,289
    # refused
    sizes = dict(enumeration.cardinality_table(max_rank=12))
    for n in range(2, 13):
        count, start, moves = automaton(n)
        assert len(moves) == n * 2 ** (n - 1) + 1
        assert count == sizes[n] == KNOWN_SIZES.get(n, count)
        image = {s: state_rule_image(n, s) for s in moves}
        assert len(set(image.values())) == len(image) and image[start] == 0
        # the images hold the rule's start and are closed under its moves, so
        # they are all of its states
        rule = enumeration._Moves(n)
        for s, out in moves.items():
            assert rule[image[s]] == [image[t] for _, t in out]
    assert 15 * 2**14 + 1 <= enumeration.STATE_BUDGET < 16 * 2**15 + 1


def test_automaton_past_its_states_is_refused_before_it_is_built():
    # K_16, K_17 and K_18 have 2^n below STATE_BUDGET but n·2^(n-1) + 1 states past it
    start = time.perf_counter()
    for n in (16, 17, 18):
        with pytest.raises(enumeration.BudgetExceededError, match=f"K_{n} has more than"):
            enumeration.cardinality_table(n)
    assert time.perf_counter() - start < 0.5


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


def test_oracle_check_refuses_a_longer_congruent_word(monkeypatch):
    # the padded word is congruent to the canonical one, but not the least
    reduce = core.reduce

    def padded(n, w):
        letters = reduce(n, w).letters
        return core.Element(n, letters + letters[-1:])

    monkeypatch.setattr(core, "reduce", padded)
    assert selftest.check_reduction_matches_oracle() is False


def test_oracle_budget_guard():
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.congruence_oracle(3, max_len=12)
    # decided without building n ** (max_len + 3)
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.congruence_oracle(3, max_len=10**18)


def test_oracle_negative_length_is_refused():
    with pytest.raises(ValueError, match="max_len"):
        enumeration.congruence_oracle(3, max_len=-1)


def test_cardinality_table():
    table = enumeration.cardinality_table(max_rank=4)
    assert table == [(2, KNOWN_SIZES[2]), (3, KNOWN_SIZES[3]), (4, KNOWN_SIZES[4])]
    for n, count in table:
        assert count > 2**n


def test_cardinality_table_counts_to_rank_10():
    table = enumeration.cardinality_table(max_rank=10)
    assert table == [(n, KNOWN_SIZES[n]) for n in range(2, 11)]


def test_cardinality_table_below_rank_2_is_rejected():
    with pytest.raises(ValueError):
        enumeration.cardinality_table(max_rank=1)
    with pytest.raises(ValueError, match="rank"):
        enumeration.enumerate_elements(1)


def test_classes_refuse_a_depth_outside_0_to_rank(universe3):
    # a negative depth would index the list of depths from its end
    for r in (-1, 4):
        with pytest.raises(ValueError, match=f"depth must lie in 0..3, got {r}"):
            universe3.classes(r)
    assert sorted(universe3.classes(3)) == [0] and len(universe3.classes(0)) == len(universe3)


def test_truncation_table_calls_no_delete(monkeypatch):
    def refuse(*args):
        raise AssertionError("the truncation table called delete")

    monkeypatch.setattr(morphisms, "delete", refuse)
    monkeypatch.setattr(morphisms, "word_delete", refuse)
    rows = enumeration.enumerate_elements(5).truncations
    assert len(rows) == 6
    assert rows[0] == tuple(range(KNOWN_SIZES[5])) and rows[5] == (0,) * KNOWN_SIZES[5]


def test_element_list_and_partition_behave_as_frozen_records():
    import copy
    import pickle

    universe = enumeration.enumerate_elements(2)
    assert repr(universe) == (
        "ElementList(rank=2, elements=(Element(rank=2, letters=()), "
        "Element(rank=2, letters=(1,)), Element(rank=2, letters=(2,)), "
        "Element(rank=2, letters=(1, 2)), Element(rank=2, letters=(2, 1))))"
    )
    twin = enumeration.ElementList(rank=2, elements=universe.elements)
    assert twin == universe and hash(twin) == hash(universe)
    assert universe != enumeration.enumerate_elements(3) and universe != (2, universe.elements)
    assert twin.position[core.reduce(2, (2, 1, 2)).letters] == 4
    assert twin.truncations == universe.truncations == ((0, 1, 2, 3, 4), (0, 0, 2, 2, 2),
                                                        (0, 0, 0, 0, 0))
    for change in (lambda: setattr(universe, "rank", 3), lambda: delattr(universe, "elements")):
        with pytest.raises(AttributeError):
            change()
    for copied in (copy.copy(universe), pickle.loads(pickle.dumps(universe))):
        assert copied == universe and len(copied) == 5 and list(copied) == list(universe)

    partition = enumeration.congruence_oracle(2, 1)
    assert repr(partition) == (
        "CongruencePartition(rank=2, max_len=1, class_ids={(): 0, (1,): 1, (2,): 2}, "
        "least_words=((), (1,), (2,)))"
    )
    assert partition == enumeration.CongruencePartition(
        rank=2, max_len=1, class_ids=dict(partition.class_ids),
        least_words=partition.least_words)
    assert partition != enumeration.congruence_oracle(2, 2)
    assert partition != (partition.rank, partition.max_len, partition.class_ids,
                         partition.least_words)
    with pytest.raises(TypeError):
        hash(partition)
    with pytest.raises(AttributeError):
        partition.max_len = 2
    assert pickle.loads(pickle.dumps(partition)) == partition == copy.copy(partition)
