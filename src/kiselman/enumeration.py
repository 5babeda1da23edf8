"""Enumeration and counting of K_n, and the brute-force congruence oracle.

K_n is built from its canonical words (see ``_reduce_py``): a word is
canonical iff between any two consecutive occurrences of a letter there is
a letter below it and a letter above it, and each element has exactly one
canonical word (Kudryavtseva & Mazorchuk 2009).  So the canonical words are
the words accepted by a finite automaton, whose states are the kernel's
(last letter, blocked set) pairs and whose moves are ``_reduce_py._follow``.
K_n is enumerated by a shortlex walk of that automaton, and |K_n| is its
number of accepted words, a path count.  Moves are computed, not stored:
each state's once per walk or count, and the count keeps a state's moves
only until its own count is known.  On a 2-CPU VM ``enumerate_elements(6)``
takes 0.09-0.15 s, most of it building the 83,973 elements, and
``cardinality_table(15)`` 3.3-3.8 s with a 46 MB peak RSS (32 MB traced by
``tracemalloc``).  Neither calls ``multiply`` or the reducer.

The oracle computes the congruence generated by the defining relations
on all words up to a length bound, applying every shortening relation
instance in every context, as the connected components of the relation
graph.  A word's index is its shortlex position, so each relation instance
is an arithmetic map from the indices of one length to those of the next
shorter, and the edges are numpy arrays generated block by block; min-label
propagation with pointer jumping names each class by its least index, which
is its least word.  Running the closure at two consecutive bounds and
comparing the roots of the short words is the slack-stability check.  The
oracle never calls the reducer, ``multiply`` or the automaton.  It loads
numpy only after the word universe is checked against its budget, so
importing this module loads no numpy, and a refusal loads none either.

Every budget here refuses with ``BudgetExceededError``, and every failed
check (the oracle's slack stability, the growth of |K_n|) raises
``CrosscheckError``.  Both are defined once, in ``core``, and re-exported
here.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product as iter_product

from kiselman._reduce_py import _follow, reduce_word
from kiselman.core import (BudgetExceededError, CrosscheckError, Element, Frozen, _set_field,
                           validate_word)

ORACLE_SLACK = 2  # extra word length over max_len within which relations apply
# largest word universe n ** (max_len + ORACLE_SLACK + 1) the oracle closes; at
# the edge, congruence_oracle(2, 17) takes 1.4 s and a 97 MB peak on a 2-CPU VM
ORACLE_BUDGET = 1 << 20
# most elements K_n's list may hold: K_6 has 83,973 and K_7 22,263,378
ELEMENT_BUDGET = 1_000_000
# most states the canonical-word automaton may have: K_n's has n·2^(n-1) + 1,
# so K_15's 245,761 states are admitted (cardinality_table(15) takes 3.3-3.8 s
# and a 46 MB peak RSS on a 2-CPU VM) and K_16's 524,289 refused before any is
# built
STATE_BUDGET = 1 << 18


class ElementList(Frozen):
    """All of K_n in shortlex order, as built by a shortlex walk of the
    canonical-word automaton."""

    _fields = ("rank", "elements")

    def __init__(self, rank: int, elements: tuple[Element, ...]):
        _set_field(self, "rank", rank)
        _set_field(self, "elements", elements)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rank, self.elements) == (other.rank, other.elements)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        """Canonical word -> the position of its element in ``elements``.
        Canonical words are unique, so the word alone is the key; it hashes
        and compares in C, where an Element key runs Python code."""
        return {x.letters: k for k, x in enumerate(self.elements)}

    @cached_property
    def truncations(self) -> tuple[tuple[int, ...], ...]:
        """``truncations[i][k]``: the position of delete([i], elements[k]),
        for depths i = 0..rank.  Built on first use, in one shortlex pass per
        depth that calls no ``delete``.

        For k >= 1 the canonical word of elements[k] is that of an earlier
        element p, its prefix, followed by one letter a_v.  Deleting [i] is
        a homomorphism that sends a_v to e when v <= i and fixes it
        otherwise, so row i at k is row i at p when v <= i, and otherwise
        the position of elements[row i at p] * a_v: one fold of that
        element's canonical word and v, made once per (image, v), since the
        product does not depend on the depth.  On a 2-CPU VM the table takes
        1.7-3.5 ms at n = 5 and 0.15-0.26 s at n = 6.

        d(x, y) <= i iff x and y have the same depth-i entry.
        """
        words = [x.letters for x in self.elements]
        position = self.position
        steps = [(position[w[:-1]], w[-1]) for w in words[1:]]
        rows = [tuple(range(len(words)))]
        products: dict[tuple[int, int], int] = {}  # (image position, v) -> position
        for i in range(1, self.rank + 1):
            row = [0]
            for p, v in steps:
                image = row[p]
                if v > i:
                    key = (image, v)
                    image = products.get(key)
                    if image is None:
                        image = products[key] = position[reduce_word((*words[key[0]], v))]
                row.append(image)
            rows.append(tuple(row))
        return tuple(rows)

    def classes(self, r: int) -> dict[int, list[int]]:
        """The balls of radius r, for 0 <= r <= rank: each depth-r
        truncation id -> the positions with that id, ascending, so the
        members stay in shortlex order.  Grouped from ``truncations`` on
        first use of each depth.  Raises ``ValueError`` for any other r."""
        if not 0 <= r <= self.rank:
            raise ValueError(f"depth must lie in 0..{self.rank}, got {r}")
        grouped = self._classes[r]
        if not grouped:  # a depth has at least one class
            for k, t in enumerate(self.truncations[r]):
                grouped.setdefault(t, []).append(k)
        return grouped

    @cached_property
    def _classes(self) -> list[dict[int, list[int]]]:
        return [{} for _ in range(self.rank + 1)]


class _Moves(dict):
    """The moves of K_n's canonical-word automaton, computed on first use.
    A state (v, B) of ``_reduce_py`` is packed into one int,
    v·2^(n+1) + B, so that it hashes as an int; the start state, of the
    empty word, is 0.  Each state -> the states its moves reach, in
    ascending letter order: the move by w reaches (w, _follow(v, B, w)), so
    its letter is the next state >> (n + 1).  Every state accepts."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, state: int) -> list[int]:
        n = self.n
        v, b = divmod(state, 2 << n)
        return self.setdefault(state, [w * (2 << n) + _follow(v, b, w)
                                       for w in range(1, n + 1) if w != v and not b >> w & 1])


def _count(n: int) -> int:
    """|K_n|, the number of words K_n's automaton accepts.

    The automaton has n·2^(n-1) + 1 states: the start and every (v, B)
    with B a subset of [n] minus v.  Raises ``BudgetExceededError``, before
    any state is built, iff that count passes STATE_BUDGET; n is compared
    with the budget's bit length first, so 2^(n-1) is never formed for a
    large n.  A count that visits more states raises ``CrosscheckError``,
    so the count the refusal rests on is checked on every admitted count.
    The words are finite in number, so the automaton is acyclic: its path
    counts are summed children first, on an explicit stack.  A state is
    stacked again below its uncounted children, and its moves are kept
    only until its count is known.
    """
    if n >= STATE_BUDGET.bit_length() or (states := n * 2 ** (n - 1) + 1) > STATE_BUDGET:
        raise BudgetExceededError(f"the automaton of K_{n} has more than {STATE_BUDGET} states")
    moves, counts, stack = _Moves(n), {}, [0]
    while stack:
        s = stack.pop()
        if s not in counts:  # a state may be stacked more than once
            pending = [t for t in moves[s] if t not in counts]
            if pending:
                stack += [s, *pending]
            else:
                counts[s] = 1 + sum(map(counts.__getitem__, moves.pop(s)))
            if len(moves) + len(counts) > states:
                raise CrosscheckError(f"the automaton of K_{n} has more than {states} states")
    return counts[0]


def enumerate_elements(n: int) -> ElementList:
    """All of K_n in shortlex order: the canonical words, walked length by
    length with letters in ascending order.

    Raises ``BudgetExceededError``, before building any element, if K_n has
    more than ELEMENT_BUDGET elements.  K_m is the submonoid of K_n on
    a_1, ..., a_m, so |K_m| <= |K_n| for m <= n: the ranks are counted from
    m = 2 up, and the first |K_m| past the budget refuses K_n, whatever n.
    """
    validate_word(n, ())
    for m in range(2, n + 1):
        if (count := _count(m)) > ELEMENT_BUDGET:
            raise BudgetExceededError(
                f"K_{n} has more than {ELEMENT_BUDGET} elements: K_{m} has {count}")
    moves, words, layer = _Moves(n), [()], [((), 0)]
    ones = [(v,) for v in range(n + 1)]  # each one-letter word, made once
    while layer:
        layer = [(w + ones[t >> n + 1], t) for w, s in layer for t in moves[s]]
        words += [w for w, _ in layer]
    return ElementList(rank=n, elements=tuple([Element(n, w) for w in words]))


class CongruencePartition(Frozen):
    """Partition of all words of length <= max_len into congruence classes.

    ``class_ids`` maps each word tuple to its class id (ids are dense,
    ordered by least word); ``least_words[id]`` is the shortlex-least word
    of class ``id``.  An instance is unhashable, since ``class_ids`` is a
    dict.
    """

    _fields = ("rank", "max_len", "class_ids", "least_words")

    def __init__(self, rank: int, max_len: int, class_ids: dict, least_words: tuple):
        _set_field(self, "rank", rank)
        _set_field(self, "max_len", max_len)
        _set_field(self, "class_ids", class_ids)
        _set_field(self, "least_words", least_words)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rank, self.max_len, self.class_ids, self.least_words) == (
                other.rank, other.max_len, other.class_ids, other.least_words)
        return NotImplemented

    @property
    def num_classes(self) -> int:
        return len(self.least_words)

    def same_class(self, u, v) -> bool:
        return self.class_ids[tuple(u)] == self.class_ids[tuple(v)]


def _all_words(n: int, max_len: int):
    """All words over [n] of length 0..max_len, in shortlex order."""
    yield ()
    for length in range(1, max_len + 1):
        for w in iter_product(range(1, n + 1), repeat=length):
            yield w


def _subsets(n: int):
    """All subsets of [n] as frozensets, in increasing size order."""
    items = range(1, n + 1)
    for k in range(n + 1):
        yield from map(frozenset, combinations(items, k))


def _closure_roots(n: int, max_len: int) -> tuple[list[int], list[int]]:
    """The congruence closure at bounds max_len + ORACLE_SLACK and one
    more, as connected components: the root of each word of length
    <= max_len at both bounds.

    A word of length L has index off[L] plus its base-n value, so indices
    are in shortlex order, and a relation instance at position p maps a
    length-L index to a length-(L - 1) index by arithmetic.  The edges are
    generated one (length, position, relation) block at a time.  Every
    label is a smaller-or-equal index in the same component; a pass hooks
    the larger label of each edge's ends to the smaller (``minimum.at``),
    and pointer jumping (``label = label[label]``) then flattens the
    trees.  At the fixpoint every edge joins equal labels and each label is
    its component's least index, which is its class's least word, no longer
    than any member: the root lists are equal iff the partitions are.
    Only the caller's budget check bounds the universe, so numpy is loaded
    here, after it.
    """
    import numpy as np

    bound = max_len + ORACLE_SLACK
    off = [0]  # off[L]: the index of the first word of length L
    for length in range(bound + 2):
        off.append(off[-1] + n**length)
    # ORACLE_BUDGET caps n ** (bound + 1), so every index fits in int32
    label = np.arange(off[-1], dtype=np.int32)
    # the (source, target) digits of the relation instances, digit d standing
    # for the letter a_(d + 1): a_i a_i -> a_i on two letters, and
    # a_i a_j a_i -> a_i a_j and a_j a_i a_j -> a_i a_j (j < i) on three
    pairs = np.array([(i * n + i, i) for i in range(n)], dtype=np.int32)
    triples = np.array(
        [(i * n * n + j * n + i, i * n + j) for i in range(n) for j in range(i)]
        + [(j * n * n + i * n + j, i * n + j) for i in range(n) for j in range(i)],
        dtype=np.int32,
    )

    def edges(length: int):
        for width, digits in ((2, pairs), (3, triples)):
            for p in range(length - width + 1):
                tail = n ** (length - width - p)
                prefix = np.arange(n**p, dtype=np.int32)[:, None, None]
                suffix = np.arange(tail, dtype=np.int32)
                source = digits[:, 0, None] * tail + suffix + off[length]
                target = digits[:, 1, None] * tail + suffix + off[length - 1]
                yield (
                    (prefix * n ** (length - p) + source).ravel(),
                    (prefix * n ** (length - p - 1) + target).ravel(),
                )

    def close(top: int) -> list[int]:
        while True:
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label[:] = jumped
            changed = False
            for length in range(2, top + 1):
                for source, target in edges(length):
                    a, b = label[source], label[target]
                    differ = a != b
                    if differ.any():
                        changed = True
                        np.minimum.at(label, np.maximum(a, b)[differ], np.minimum(a, b)[differ])
            if not changed:
                return label[: off[max_len + 1]].tolist()

    return close(bound), close(bound + 1)


def congruence_oracle(n: int, max_len: int) -> CongruencePartition:
    """Exact congruence classes of all words of length <= max_len, each
    named by its least word.

    Relation instances are applied in every context within length bound
    max_len + ORACLE_SLACK; stability against bound max_len + ORACLE_SLACK
    + 1 is required, so both closures are computed.
    """
    validate_word(n, ())
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    bound = max_len + ORACLE_SLACK
    size = 1
    for _ in range(bound + 1):  # n ** (bound + 1), stopped once past the budget
        size *= n
        if size > ORACLE_BUDGET:
            raise BudgetExceededError(
                f"word universe n={n}, bound={bound + 1} exceeds budget {ORACLE_BUDGET}"
            )
    roots_small, roots_large = _closure_roots(n, max_len)
    if roots_small != roots_large:
        raise CrosscheckError(
            f"oracle classes differ between slack {ORACLE_SLACK} and {ORACLE_SLACK + 1}"
        )
    words = list(_all_words(n, max_len))
    ids = {root: i for i, root in enumerate(sorted(set(roots_small)))}
    return CongruencePartition(
        rank=n,
        max_len=max_len,
        class_ids={words[k]: ids[root] for k, root in enumerate(roots_small)},
        least_words=tuple(words[root] for root in ids),
    )


def cardinality_table(max_rank: int) -> list[tuple[int, int]]:
    """[(n, |K_n|)] for n = 2..max_rank, counted without building any
    element; raises ``BudgetExceededError`` if some automaton has more than
    STATE_BUDGET states.  The ranks are counted from the largest down, so a
    refusal comes at once, before any smaller rank is counted.  Consecutive
    ratios must be strictly increasing."""
    validate_word(max_rank, ())
    table = [(n, _count(n)) for n in range(max_rank, 1, -1)][::-1]
    ratios = [b / a for (_, a), (_, b) in zip(table, table[1:])]
    if any(r2 <= r1 for r1, r2 in zip(ratios, ratios[1:])):
        raise CrosscheckError(f"growth ratios not increasing: {ratios}")
    return table
