from kiselman import morphisms


def test_word_delete():
    assert morphisms.word_delete((), (2, 1, 3, 2)) == (2, 1, 3, 2)
    assert morphisms.word_delete({1, 2}, (2, 1, 3, 2)) == (3,)
    u, v = (1, 2), (3, 1)
    assert morphisms.word_delete({1}, u + v) == morphisms.word_delete(
        {1}, u
    ) + morphisms.word_delete({1}, v)


def test_delete_empty_set_is_identity(universe3):
    for x in universe3:
        assert morphisms.delete((), x) == x
