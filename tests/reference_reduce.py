"""The restart reducer: the reference the append fold is checked against.

A word over generator indices is rewritten by repeatedly locating the
leftmost pair of consecutive occurrences of the same index i and, when
every letter strictly between them is smaller than i, deleting the right
occurrence; when every letter in the gap is larger than i, deleting the
left occurrence.  Adjacent equal letters (empty gap) delete the right one.
Each step shortens the word, so the loop terminates.  A fixed point has,
between any two consecutive occurrences of i, at least one letter below i
and at least one above it.
"""


def reduce_word(letters):
    """Reduce a word (sequence of 1-based generator indices) to canonical form.

    Returns a tuple of ints.
    """
    w = list(letters)
    changed = True
    while changed:
        changed = False
        length = len(w)
        for p in range(length - 1):
            v = w[p]
            q = p + 1
            while q < length and w[q] != v:
                q += 1
            if q == length:
                continue
            below = False
            above = False
            for t in range(p + 1, q):
                if w[t] < v:
                    below = True
                else:
                    above = True
            if not above:
                del w[q]
                changed = True
                break
            if not below:
                del w[p]
                changed = True
                break
    return tuple(w)
