import random

import pytest

from kiselman import core, enumerate_elements, level_metric as lm
from kiselman.core import BudgetExceededError
from conftest import KNOWN_SIZES


def test_level_of_unit_and_zero():
    assert lm.level_by_definition(core.zero(3)) == 0
    assert lm.level_by_definition(core.unit(3)) == 3


def test_level_of_partial_idempotent():
    # e_{[3] minus [1]} = a_3 a_2 has level 1
    assert lm.level_by_definition(core.reduce(3, (3, 2))) == 1
    assert lm.level(core.reduce(3, (3, 2))) == 1


def test_g_examples():
    assert all(lm.g(0, j) == 0 for j in (1, 2, 3))
    assert lm.g(3, 3) == 2
    assert lm.g(2, 3) == 2


def test_recursion_examples():
    assert lm.level_by_recursion(3, ()) == 3
    assert lm.level_by_recursion(3, (3, 2, 1)) == 0
    assert core.reduce(3, (3, 2, 1)) == core.zero(3)
    assert lm.level_by_recursion(3, (1, 2)) == 3


def test_m_examples():
    assert lm.m_function(core.zero(3)) == 0
    assert lm.m_function(core.unit(3)) == 3


def test_distance_examples(universe2):
    assert lm.distance(core.generator(2, 1), core.generator(2, 2)) == 2
    for x in universe2:
        assert lm.distance(x, x) == 0
    with pytest.raises(core.RankMismatchError):
        lm.distance(core.unit(2), core.unit(3))


def test_ball_examples(universe2):
    f = core.zero(2)
    assert lm.ball(universe2, f, 0) == [f]
    b1 = lm.ball(universe2, f, 1)
    assert {x.letters for x in b1} == {(2, 1), (2,), (1, 2)}
    assert len(b1) == 1 + KNOWN_SIZES[1]


def test_r_set(universe2, universe3):
    r2 = lm.r_set(universe2)
    assert {x.letters for x in r2} == {(2,), (2, 1), (1, 2)}
    assert core.zero(2) in lm.ball(universe2, core.zero(2), 1)
    r3 = lm.r_set(universe3)
    assert len(r3) == 1 + KNOWN_SIZES[2]


def _brute_force_metric_sets(universe, center):
    """(ball, sphere) as functions of r, from ``distance`` alone."""
    d = [lm.distance(center, x) for x in universe]
    return (
        lambda r: [x for x, dx in zip(universe, d) if dx <= r],
        lambda r: [x for x, dx in zip(universe, d) if dx == r],
    )


def test_ball_and_sphere_match_brute_force(universe2, universe3, universe4):
    cases = [(u, list(u)) for u in (universe2, universe3, universe4)]
    universe5 = enumerate_elements(5)
    cases.append((universe5, random.Random(5).sample(universe5.elements, 20)))
    for universe, centres in cases:
        n = universe.rank
        for c in centres:
            ball, sphere = _brute_force_metric_sets(universe, c)
            for r in range(-1, n + 2):
                assert lm.ball(universe, c, r) == ball(r)
                assert lm.sphere(universe, c, r) == sphere(r)


# the sizes of the balls of radius r in K_n, ascending: the fibres of the
# depth-r truncation onto K_(n-r), the fibre of e being K_r
BALL_SIZES = {
    (4, 2): [5, 13, 13, 26, 58],
    (4, 3): [18, 97],
    (5, 3): [18, 97, 97, 337, 1161],
    (5, 4): [115, 1595],
    (6, 4): [115, 1595, 1595, 11575, 69093],
    (6, 5): [1710, 82263],
}


def test_ball_sizes_to_rank_6(universe4):
    universes = {4: universe4, 5: enumerate_elements(5), 6: enumerate_elements(6)}
    for (n, r), sizes in BALL_SIZES.items():
        universe = universes[n]
        assert sorted(map(len, universe.classes(r).values())) == sizes
        assert len(lm.ball(universe, core.unit(n), r)) == KNOWN_SIZES[r]


def test_ball_and_sphere_reject_wrong_rank(universe3):
    for fn in (lm.ball, lm.sphere):
        for r in (-1, 1, 5):
            with pytest.raises(core.RankMismatchError):
                fn(universe3, core.zero(2), r)


def test_corrupt_truncation_table_is_caught(universe2):
    from kiselman.enumeration import ElementList

    broken = ElementList(rank=2, elements=universe2.elements)
    rows = list(universe2.truncations)
    rows[1] = (0,) * len(universe2)  # claims every element is within 1 of every other
    broken.__dict__["truncations"] = tuple(rows)
    with pytest.raises(core.CrosscheckError, match="truncation table disagrees"):
        lm.ball(broken, core.unit(2), 1)


def test_searches_by_definition_refuse_ranks_past_the_budget():
    top = lm.SEARCH_MAX_RANK
    assert lm.level_by_definition(core.generator(top, 1)) == top
    x, y = core.generator(top + 1, 1), core.generator(top + 1, 2)
    for search in (lm.level_by_definition, lm.m_function, lm.level_sets,
                   lambda x: lm.distance(x, y)):
        with pytest.raises(BudgetExceededError, match=f"rank {top + 1} exceeds budget {top}"):
            search(x)


def test_distance_to_the_zero_at_the_top_rank_is_answered():
    top = lm.SEARCH_MAX_RANK
    assert lm.distance(core.generator(top, 1), core.zero(top)) == top


def test_searches_by_definition_refuse_long_words_past_the_work_budget():
    top = lm.SEARCH_MAX_RANK
    # the edges: the absorption searches admit one letter at the top rank and
    # 239 at rank 64, the deletion searches 2,468 at rank 64 and 2,244 at the
    # top rank; distance prices each of its words as a deletion search, so
    # it admits 2,467 and 2,230 letters against e, and two words of 1,639
    # letters at rank 256
    lm._require_searchable(top, 1, absorbs=True)
    lm._require_searchable(64, 239, absorbs=True)
    lm._require_searchable(64, 2468)
    lm._require_searchable(top, 2244)
    lm._require_searchable(64, 2467, 0)
    lm._require_searchable(top, 2230, 0)
    lm._require_searchable(256, 1639, 1639)
    # the budget reads the word's length alone, before any work, so a word of
    # repeated letters stands for a canonical word of that length
    for n, length, searches in [
        (top, 2, (lm.m_function, lm.level_sets)),
        (64, 240, (lm.m_function, lm.level_sets)),
        (64, 2469, (lm.level_by_definition,)),
        (top, 2245, (lm.level_by_definition,)),
        (64, 2468, (lambda x: lm.distance(x, core.unit(64)),)),
        (top, 2231, (lambda x: lm.distance(x, core.unit(top)),)),
    ]:
        x = core.Element(n, (1,) * length)
        for search in searches:
            with pytest.raises(BudgetExceededError, match=f"rank {n} on {length} letters"):
                search(x)
    x = core.Element(256, (1,) * 1640)
    with pytest.raises(BudgetExceededError, match="rank 256 on 3280 letters"):
        lm.distance(x, x)


def test_distance_of_two_long_words_is_priced_word_by_word():
    # two 1,200-letter words at rank 256: 307 M units as one word of 2,400
    # letters, past the budget, and 169 M as two words
    x = core.Element(256, (1,) * 1200)
    assert lm.distance(x, x) == 0


# the calls each search by definition makes on x = a_3 a_1 a_4 a_2 a_5 a_3, of
# level 4 and at distance 5 from a_2: one zero at most, then one test per depth
SEARCH_CALLS = {
    "level_by_definition": (lm.level_by_definition, {"delete": 5, "idempotent": 5}),
    "m_function": (lm.m_function, {"zero": 1, "idempotent": 5, "multiply": 5}),
    "level_sets": (lm.level_sets, {"zero": 1, "delete": 6, "idempotent": 12, "multiply": 6}),
    "distance": (lambda x: lm.distance(x, core.generator(5, 2)), {"delete": 10}),
}


@pytest.mark.parametrize("search, expected", SEARCH_CALLS.values(), ids=SEARCH_CALLS)
def test_search_by_definition_calls(search, expected, monkeypatch):
    calls = {}

    def counted(name, fn):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return call

    for name in ("delete", "idempotent", "multiply", "zero"):
        monkeypatch.setattr(lm, name, counted(name, getattr(lm, name)))
    x = core.reduce(5, (3, 1, 4, 2, 5, 3))
    assert x.letters == (3, 1, 4, 2, 5, 3) and lm.level(x) == 4
    search(x)
    assert calls == expected
