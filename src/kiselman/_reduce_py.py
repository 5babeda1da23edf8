"""Pure-Python word reduction kernel: a fold of one-letter appends.

A word is canonical iff between any two consecutive occurrences of the same
index i there is a letter below i and a letter above i.  Deleting the right
occurrence of a pair whose gap holds no letter above i (an empty gap
included), or the left one of a pair whose gap holds no letter below i,
keeps the element.  Canonical words are unique (Kudryavtseva & Mazorchuk
2009), so any order of such deletions that leaves no such pair reaches the
canonical word.

Letters are appended one at a time to a canonical word w.  Appending j can
only break the pair (last j, new j), whose gap g holds no j:

- no earlier j, or g has letters on both sides of j: j is appended;
- g is empty or entirely below j: the new j is dropped;
- g is entirely above j: the old j is deleted.  What stands before it is a
  prefix of w, so canonical, and the letters of g and then j are appended
  to it again.

A drop or a deletion removes one letter from w and the letters still to be
appended, so the fold ends.
"""


def extend(canonical, letters):
    """The canonical word of ``canonical``, which must be canonical, followed
    by ``letters``.  Returns a tuple of ints."""
    return _fold(list(canonical), letters)


def reduce_word(letters):
    """Reduce a word (sequence of 1-based generator indices) to canonical form.

    Returns a tuple of ints.
    """
    return _fold([], letters)


def _fold(w, letters):
    todo = list(letters)  # the letters still to be appended, the next one last
    todo.reverse()
    while todo:
        j = todo.pop()
        if j in w:
            gap = w[::-1]
            gap = gap[: gap.index(j)]  # the letters after the last j, last first
            if not gap or max(gap) < j:
                continue
            if min(gap) > j:
                del w[-len(gap) - 1 :]
                todo.append(j)
                todo += gap
                continue
        w.append(j)
    return tuple(w)
