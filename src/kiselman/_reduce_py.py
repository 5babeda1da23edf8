"""Pure-Python word reduction kernel: a fold of one-letter appends, driven by
the state of the canonical-word automaton.

A word is canonical iff between any two consecutive occurrences of the same
index i there is a letter below i and a letter above i.  Deleting the right
occurrence of a pair whose gap holds no letter above i (an empty gap
included), or the left one of a pair whose gap holds no letter below i,
keeps the element.  Canonical words are unique (Kudryavtseva & Mazorchuk
2009), so any order of such deletions that leaves no such pair reaches the
canonical word.

The state of a canonical word w is (v, B): v is its last letter and B the
set of letters u != v that occurred and whose gap since their last
occurrence lies on one side of u, that is the letters that cannot follow.
The gap of such a u ends in v, so it lies above u iff v > u.  The empty
word has v = 0, as if it ended in a letter below every other, and B
empty.  :func:`_follow` states the rule once; ``enumeration`` walks and
counts the canonical words with it.

Letters are appended one at a time to a canonical word w with state
(v, B), and the fold keeps one B per prefix of w.  Appending j can only
break the pair (last j, new j):

- j = v, or j in B with j > v: the gap is empty or entirely below j, so
  the new j is dropped;
- j in B with j < v: the gap is entirely above j, so the old j is deleted.
  The scan back to it costs as much as the gap, which is then appended
  again, so no position of a letter is stored.  What stands before the
  old j is a prefix of w, so canonical with its state on the stack, and
  the letters of the gap and then j are appended to it again;
- otherwise j is appended with the B that :func:`_follow` gives.

A drop or a deletion removes one letter from w and the letters still to be
appended, so the fold ends.

:func:`reduce_word` is the kernel's one entry point.  A product x·y is the
fold of x's canonical word followed by y's letters, so it pays O(|x|)
appends to rebuild the stack of B.

On a 2-CPU VM, ``reduce --n 1000`` on 20,000 seeded letters takes about
0.3-0.4 s per process.  Per call (best of 31 runs of 1,000 calls): 15 us
for a far-from-canonical word of rank 4-8 and 10-120 letters, 1.6 us for
a nearly canonical word that ``delete`` filters out of a K_5 element, and
3.0 us for a K_5 element of 6 or more letters followed by one letter,
most of it spent appending the element's letters again.
"""


def reduce_word(letters):
    """Reduce a word (sequence of 1-based generator indices) to canonical form.

    Returns a tuple of ints.
    """
    return _fold(letters)


def _follow(v, b, j):
    """The blocked set after appending a letter j that may follow a
    canonical word with state (v, B), as a bitmask with bit u for the
    letter u: the letters of B strictly between v and j are unblocked,
    since the gap of each now holds letters on both of its sides, and v is
    blocked, since its gap is j.  j may follow iff j != v and j is not in
    B.  The mask below also clears the lower of v and j: v is then set
    again, and j is not in B."""
    return b & ~((1 << j) - (1 << v) if j > v else (1 << v) - (1 << j)) | 1 << v


def _fold(letters):
    # the canonical word so far, the B of each of its prefixes, and its state
    w, blocked, v, b = [], [], 0, 0
    todo = list(letters)  # the letters still to be appended, the next one last
    todo.reverse()
    while todo:
        j = todo.pop()
        if b >> j & 1:  # j != v, since v is never in B
            if j < v:  # delete the old j, then append the gap and j again
                k = len(w) - 2
                while w[k] != j:
                    k -= 1
                todo += [j, *w[:k:-1]]
                del w[k:], blocked[k:]
                v, b = (w[-1], blocked[-1]) if w else (0, 0)
        elif j != v:
            v, b = j, _follow(v, b, j)
            w.append(j)
            blocked.append(b)
    return tuple(w)
