"""Deletion endomorphisms of K_n.

Deleting a set X of generators sends a_i to the unit for i in X and fixes
the other generators.  On a word it drops the letters in X; the result may
not be canonical, so ``delete`` reduces it again.
"""

from __future__ import annotations

from kiselman._reduce_py import reduce_word
from kiselman.core import Element


def word_delete(members, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Drop every letter whose index lies in ``members``."""
    drop = set(members)
    return tuple(i for i in letters if i not in drop)


def delete(members, x: Element) -> Element:
    """The deletion endomorphism applied to an element."""
    return Element(x.rank, reduce_word(word_delete(members, x.letters)))
