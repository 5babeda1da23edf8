import random

import pytest

from kiselman import core, enumerate_elements, level_metric as lm
from conftest import KNOWN_SIZES


def test_level_of_unit_and_zero():
    assert lm.level_by_definition(core.zero(3)) == 0
    assert lm.level_by_definition(core.unit(3)) == 3


def test_level_of_partial_idempotent():
    # e_{[3] minus [1]} = a_3 a_2 has level 1
    assert lm.level_by_definition(core.reduce(3, (3, 2))) == 1


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
