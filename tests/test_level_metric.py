import itertools
import random

import pytest

from kiselman import core, enumerate_elements, level_metric as lm
from tests.conftest import KNOWN_SIZES


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


def test_three_level_routes_agree(universe2, universe3):
    for universe in (universe2, universe3):
        for x in universe:
            by_def = lm.level_by_definition(x)
            assert by_def == lm.level_by_recursion(x.rank, x.letters)
            assert by_def == lm.m_function(x)


def test_recursion_on_arbitrary_words():
    for length in range(7):
        for w in itertools.product((1, 2, 3), repeat=length):
            assert lm.level_by_recursion(3, w) == lm.level_by_definition(core.reduce(3, w))


def test_level_sets_examples(universe3):
    n = 3
    a_f, b_f = lm.level_sets(core.zero(n))
    assert a_f == b_f == frozenset(range(n + 1))
    a_e, b_e = lm.level_sets(core.unit(n))
    assert a_e == b_e == frozenset({n})
    for x in universe3:
        a_set, b_set = lm.level_sets(x)
        assert a_set == b_set
        assert a_set == frozenset(range(lm.level_by_definition(x), n + 1))


def test_right_multiplication_law(universe3):
    for x in universe3:
        lvl = lm.level_by_definition(x)
        for i in range(1, 4):
            expected = lvl - 1 if i == lvl else lvl
            assert lm.level_by_definition(x * core.generator(3, i)) == expected


def test_left_multiplication_law(universe3):
    for x in universe3:
        lvl = lm.level_by_definition(x)
        for i in (1, 2):
            assert lm.level_by_definition(core.generator(3, i) * x) == lvl
    low_content = [y for y in universe3 if core.content(y) <= frozenset({1, 2})]
    for y in low_content:
        for x in universe3:
            assert lm.level_by_definition(y * x) == lm.level_by_definition(x)


def test_top_generator_can_drop_level():
    n = 3
    an = core.generator(n, n)
    for j in range(n):
        x = core.idempotent(n, range(j + 1, n))
        assert lm.level_by_definition(an * x) == j


def test_submultiplicativity(universe3):
    rng = random.Random(3)
    elems = list(universe3)
    for _ in range(500):
        x, y = rng.choice(elems), rng.choice(elems)
        assert lm.level_by_definition(x * y) <= min(
            lm.level_by_definition(x), lm.level_by_definition(y)
        )


def test_level_n_characterization(universe3):
    for x in universe3:
        assert (lm.level_by_definition(x) == 3) == (core.content(x) <= frozenset({1, 2}))


def test_zero_propagation(universe3):
    f = core.zero(3)
    for x in universe3:
        for k in (2, 3):
            if x * core.generator(3, k) == f:
                assert x == f
        for r in (1, 2):
            if core.generator(3, r) * x == f:
                assert x == f


def test_distance_examples(universe2):
    assert lm.distance(core.generator(2, 1), core.generator(2, 2)) == 2
    for x in universe2:
        assert lm.distance(x, x) == 0
        assert lm.distance(x, core.zero(2)) == lm.level_by_definition(x)
    with pytest.raises(core.RankMismatchError):
        lm.distance(core.unit(2), core.unit(3))


def test_ultrametric_axioms(universe3):
    elems = list(universe3)
    for x in elems:
        for y in elems:
            d = lm.distance(x, y)
            assert (d == 0) == (x == y)
            assert d == lm.distance(y, x)
    rng = random.Random(9)
    for _ in range(3000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert lm.distance(x, y) <= max(lm.distance(x, z), lm.distance(z, y))


def test_ball_requires_complete_universe(universe3):
    from kiselman.enumeration import ElementList

    partial = ElementList(rank=3, elements=universe3.elements[:4], complete=False)
    with pytest.raises(lm.IncompleteUniverseError):
        lm.ball(partial, core.zero(3), 1)


def test_ball_examples(universe2):
    f = core.zero(2)
    assert lm.ball(universe2, f, 0) == [f]
    b1 = lm.ball(universe2, f, 1)
    assert {x.letters for x in b1} == {(2, 1), (2,), (1, 2)}
    assert len(b1) == 1 + KNOWN_SIZES[1]


def test_sphere_top_radius(universe3):
    expected = [x for x in universe3 if core.content(x) <= frozenset({1, 2})]
    assert lm.sphere(universe3, core.zero(3), 3) == expected
    assert len(expected) == KNOWN_SIZES[2]


def test_r_set(universe2, universe3):
    r2 = lm.r_set(universe2)
    assert {x.letters for x in r2} == {(2,), (2, 1), (1, 2)}
    assert core.zero(2) in lm.ball(universe2, core.zero(2), 1)
    r3 = lm.r_set(universe3)
    assert len(r3) == 1 + KNOWN_SIZES[2]
    assert r3 == lm.ball(universe3, core.zero(3), 1)


def test_r_set_structure_theorem(universe3):
    n = 3
    a1 = core.generator(n, 1)
    sub = [x for x in universe3 if 1 not in core.content(x)]
    built = {core.idempotent(n, range(2, n + 1))}
    for x in sub:
        built.add(x * a1 * core.idempotent(n, range(2, lm.m_function(x) + 1)))
    assert built == set(lm.r_set(universe3))


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


def test_ball_and_sphere_reject_wrong_rank(universe3):
    for fn in (lm.ball, lm.sphere):
        for r in (-1, 1, 5):
            with pytest.raises(core.RankMismatchError):
                fn(universe3, core.zero(2), r)


def test_corrupt_truncation_table_is_caught(universe2):
    from kiselman.enumeration import ElementList

    broken = ElementList(rank=2, elements=universe2.elements, complete=True)
    rows = list(universe2.truncations)
    rows[1] = (0,) * len(universe2)  # claims every element is within 1 of every other
    broken.__dict__["truncations"] = tuple(rows)
    with pytest.raises(AssertionError):
        lm.ball(broken, core.unit(2), 1)
