import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiselman import core
from reference_reduce import reduce_word as reduce_reference

words = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n), max_size=8).map(tuple)
    )
)


def test_idempotent_generator_relation():
    assert core.reduce(2, (1, 1)) == core.generator(2, 1)


def test_braidlike_relations_rank2():
    # i=2, j=1: both three-letter relation words collapse to (2, 1)
    assert core.reduce(2, (1, 2, 1)).letters == (2, 1)
    assert core.reduce(2, (2, 1, 2)).letters == (2, 1)


def test_empty_word_is_unit():
    assert core.reduce(3, ()) == core.unit(3)
    assert core.parse_word("") == ()


def test_mixed_gap_word_is_canonical():
    # between the two 2s sit a 1 (smaller) and a 3 (larger): no rule applies
    assert core.reduce(3, (2, 1, 3, 2)).letters == (2, 1, 3, 2)


def test_letter_out_of_range_rejected():
    with pytest.raises(core.MalformedWordError):
        core.reduce(2, (3,))


def test_rank_mismatch_rejected():
    with pytest.raises(core.RankMismatchError):
        core.multiply(core.unit(2), core.unit(3))


def test_unit_and_zero_absorption():
    for n in (2, 3):
        e, f = core.unit(n), core.zero(n)
        x = core.reduce(n, (2, 1))
        assert e * x == x == x * e
        assert f * x == f == x * f


def test_multiply_matches_presentation():
    a1 = core.generator(2, 1)
    a21 = core.reduce(2, (2, 1))
    assert core.multiply(a1, a21) == a21


def test_content():
    assert core.content(core.unit(2)) == frozenset()
    assert core.content(core.reduce(2, (2, 1))) == frozenset({1, 2})


def test_idempotent_ordering_and_zero():
    assert core.idempotent(3, {1, 3}).letters == (3, 1)
    assert core.idempotent(3, ()) == core.unit(3)
    assert core.idempotent(3, {1, 2, 3}) == core.zero(3)
    with pytest.raises(core.MalformedWordError):
        core.idempotent(3, {4})


def test_idempotent_of_repeated_members_is_canonical():
    # a_i a_i = a_i: a repeated member is one letter
    assert core.idempotent(3, [2, 2]) == core.generator(3, 2)
    assert core.idempotent(3, [1, 3, 1, 3]).letters == (3, 1)
    assert core.tau(core.idempotent(3, [2, 2])) == core.generator(3, 2)


def test_power_examples():
    x = core.reduce(2, (1, 2))
    assert core.power(x, 1) == x
    assert core.power(x, 2) == core.idempotent(2, {1, 2})
    assert core.power(x, 1) != core.idempotent(2, {1, 2})
    with pytest.raises(ValueError):
        core.power(x, 0)


def test_power_stops_once_it_is_idempotent(monkeypatch):
    x = core.reduce(4, (2, 4, 1, 3))
    calls = []
    multiply = core.multiply
    monkeypatch.setattr(core, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    assert core.power(x, 10**6) == core.idempotent(4, {1, 2, 3, 4})
    assert len(calls) <= len(core.content(x)) + 1


def test_right_cayley_multiplies_each_pair_once(monkeypatch):
    # each pair is one fold of the kernel, and each element one Element
    calls, built = [], []
    reduce_word, init = core.reduce_word, core.Element.__init__
    monkeypatch.setattr(core, "reduce_word", lambda w: calls.append(1) or reduce_word(w))
    monkeypatch.setattr(core.Element, "__init__", lambda *a: built.append(1) or init(*a))
    table = core.RightCayley(3)
    assert table.elements == [core.unit(3)] and table.moves == [[0] * 4]
    del calls[:], built[:]
    x = 0
    while x < len(table.elements):
        for i in (1, 2, 3):
            assert table.moves[x][i] == 0  # unfilled until the pair is added
            y = table.add(x, i)
            assert table.moves[x][i] == y != 0  # no x·a_i is e
        x += 1
    assert len(calls) == 18 * 3
    assert len(built) == 17  # e was built with the table
    assert len(table.elements) == 18 and len(set(table.elements)) == 18
    assert all(table.elements[table.moves[x][i]] == core.multiply(y, core.generator(3, i))
               for x, y in enumerate(table.elements) for i in (1, 2, 3))
    assert table.ids == {x.letters: k for k, x in enumerate(table.elements)}
    assert [len(x.letters) for x in table.elements] == sorted(len(x.letters) for x in table.elements)


def test_tau_examples():
    assert core.tau(core.unit(2)) == core.unit(2)
    assert core.tau(core.generator(2, 1)) == core.generator(2, 2)
    x = core.reduce(2, (1, 2))
    assert core.tau(x) == x


@given(words)
@settings(max_examples=300, deadline=None)
def test_reduce_is_idempotent(data):
    n, w = data
    x = core.reduce(n, w)
    assert core.reduce(n, x.letters) == x


@given(words)
@settings(max_examples=300, deadline=None)
def test_canonical_between_occurrence_invariant(data):
    n, w = data
    letters = core.reduce(n, w).letters
    for p, v in enumerate(letters):
        for q in range(p + 1, len(letters)):
            if letters[q] != v:
                continue
            gap = letters[p + 1 : q]
            assert any(t < v for t in gap) and any(t > v for t in gap)
            break


def test_word_round_trip():
    w = (2, 1, 3, 2)
    assert core.parse_word(core.format_word(w)) == w
    assert core.parse_word("2, 1, 3, 2") == w


def _random_word(rng, n, max_len):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))


def test_is_canonical_matches_reducer():
    for n in range(2, 9):
        rng = random.Random(n)
        for _ in range(1000):
            w = _random_word(rng, n, 30)
            canonical = reduce_reference(w)
            # random words, canonical words, and canonical words plus one letter
            for v in (w, canonical, canonical + (rng.randint(1, n),)):
                assert core.is_canonical(v) == (reduce_reference(v) == v), v


def _assert_append_matches_reducer(x):
    for j in range(1, x.rank + 1):
        appended = core.multiply(x, core.generator(x.rank, j))
        assert appended.letters == reduce_reference(x.letters + (j,)), (x, j)


def test_append_generator_matches_reducer(universe4):
    for x in universe4:
        _assert_append_matches_reducer(x)
    for n in range(3, 9):
        rng = random.Random(n)
        for _ in range(3000):
            canonical = reduce_reference(_random_word(rng, n, 40))
            _assert_append_matches_reducer(core.Element(n, canonical))


def test_element_behaves_as_a_frozen_record():
    import copy
    import pickle

    x = core.Element(rank=3, letters=(1, 2))
    assert repr(x) == "Element(rank=3, letters=(1, 2))"
    assert x == core.reduce(3, (1, 2)) and hash(x) == hash(core.reduce(3, (1, 2)))
    assert x != core.Element(2, (1, 2)) and x != core.Element(3, (2, 1))
    assert x != (3, (1, 2)) and (3, (1, 2)) != x
    for change in (lambda: setattr(x, "rank", 4), lambda: delattr(x, "letters"),
                   lambda: setattr(x, "other", 0)):
        with pytest.raises(AttributeError):
            change()
    assert x.rank == 3 and x.letters == (1, 2)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and twin is not x and repr(twin) == repr(x)
    assert {x: 1}[core.reduce(3, (1, 1, 2))] == 1


def test_budget_refusal_is_defined_once():
    from kiselman import enumeration, levelchain, stochastic

    assert enumeration.BudgetExceededError is core.BudgetExceededError
    assert levelchain.BudgetExceededError is core.BudgetExceededError
    assert stochastic.BudgetExceededError is core.BudgetExceededError


def test_check_failure_is_defined_once():
    from kiselman import enumeration, level_metric, stochastic

    assert issubclass(core.CrosscheckError, AssertionError)
    assert enumeration.CrosscheckError is core.CrosscheckError
    assert level_metric.CrosscheckError is core.CrosscheckError
    assert stochastic.CrosscheckError is core.CrosscheckError
