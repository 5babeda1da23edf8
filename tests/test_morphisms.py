import pytest

from kiselman import core, morphisms
from kiselman.enumeration import _all_words, _subsets


def test_dn_member_examples():
    assert morphisms.dn_member(morphisms.identity_matrix(3))
    assert not morphisms.dn_member(((0, 1), (1, 0)))
    assert morphisms.dn_member(((1, 1), (1, 1)))


def test_dn_product_examples():
    ident = morphisms.identity_matrix(2)
    m = ((1, 1), (0, 1))
    assert morphisms.dn_product(ident, m) == m
    assert morphisms.dn_product(((1, 0), (0, 0)), ((0, 0), (0, 1))) == ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        morphisms.dn_product(ident, morphisms.identity_matrix(3))


def test_diagonal_product_is_intersection():
    for x in _subsets(3):
        for y in _subsets(3):
            assert morphisms.dn_product(
                morphisms.diagonal_matrix(3, x), morphisms.diagonal_matrix(3, y)
            ) == morphisms.diagonal_matrix(3, x & y)


def test_deletion_matrix():
    assert morphisms.deletion_matrix(3, ()).matrix == morphisms.identity_matrix(3)
    assert morphisms.deletion_matrix(3, {2}).matrix == morphisms.diagonal_matrix(3, {1, 3})
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    assert morphisms.deletion_matrix(3, {1, 2, 3}).matrix == zero


def test_invalid_endomorphism_rejected():
    with pytest.raises(morphisms.InvalidEndomorphismError):
        morphisms.EndomorphismSpec(((0, 1), (1, 0)))


def test_apply_identity_is_identity(universe3):
    ident = morphisms.EndomorphismSpec(morphisms.identity_matrix(3))
    for x in universe3:
        assert morphisms.apply_endomorphism(ident, x) == x


def test_apply_deletion_on_generators():
    spec = morphisms.deletion_matrix(3, {1})
    assert morphisms.apply_endomorphism(spec, core.generator(3, 1)) == core.unit(3)
    assert morphisms.apply_endomorphism(spec, core.generator(3, 2)) == core.generator(3, 2)
    assert morphisms.apply_endomorphism(spec, core.reduce(3, (2, 1))) == core.generator(3, 2)


def test_apply_is_homomorphism(universe3):
    spec = morphisms.EndomorphismSpec(((1, 0, 0), (1, 1, 0), (0, 0, 1)))
    for x in universe3.elements[:8]:
        for y in universe3.elements[:8]:
            assert morphisms.apply_endomorphism(spec, x * y) == morphisms.apply_endomorphism(
                spec, x
            ) * morphisms.apply_endomorphism(spec, y)


def test_word_delete():
    assert morphisms.word_delete((), (2, 1, 3, 2)) == (2, 1, 3, 2)
    assert morphisms.word_delete({1, 2}, (2, 1, 3, 2)) == (3,)
    u, v = (1, 2), (3, 1)
    assert morphisms.word_delete({1}, u + v) == morphisms.word_delete(
        {1}, u
    ) + morphisms.word_delete({1}, v)


def test_delete_representative_independent(oracle3):
    # the element-level deletion must not depend on the chosen word
    for subset in _subsets(3):
        for w in _all_words(3, 5):
            via_word = core.reduce(3, morphisms.word_delete(subset, w))
            via_element = morphisms.delete(subset, core.reduce(3, w))
            assert via_word == via_element


def test_delete_empty_set_is_identity(universe3):
    for x in universe3:
        assert morphisms.delete((), x) == x


def test_delete_matches_matrix_action(universe3):
    for subset in _subsets(3):
        spec = morphisms.deletion_matrix(3, subset)
        for x in universe3:
            assert morphisms.delete(subset, x) == morphisms.apply_endomorphism(spec, x)

