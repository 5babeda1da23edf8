"""Enumeration of K_n and the brute-force congruence oracle.

The enumeration is a breadth-first walk of the right Cayley graph starting
at the unit, deduplicating by canonical word; it returns all of K_n or
raises ``BudgetExceededError``.  The oracle materializes all words up to a
length bound and computes the congruence generated by the defining
relations by union-find, applying every shortening relation instance in
every context.  Because each relation instance connects a longer word to a
shorter one, processing words in increasing length order discovers exactly
the edges available within the bound; running the closure at two
consecutive bounds and comparing the restricted partitions is the
slack-stability check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iter_product

from kiselman.core import Element, generator, multiply, unit
from kiselman.morphisms import delete

ORACLE_SLACK = 2  # extra word length over max_len within which relations apply
ORACLE_BUDGET = 5_000_000  # largest word universe the oracle materializes


class BudgetExceededError(RuntimeError):
    """A computation would exceed its budget: the enumeration cap, the
    oracle's word universe, the exact pmf's support or a simulated trial's
    step count."""


class OracleInstabilityError(RuntimeError):
    """The congruence classes changed between slack levels; the length bound
    is too small to trust."""


@dataclass(frozen=True)
class ElementList:
    """All of K_n, materialized in shortlex order."""

    rank: int
    elements: tuple[Element, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def index(self) -> dict[Element, int]:
        """Element -> its position in ``elements``."""
        return {x: k for k, x in enumerate(self.elements)}

    @cached_property
    def truncations(self) -> tuple[tuple[int, ...], ...]:
        """``truncations[i][k]``: the position of delete([i], elements[k]),
        for depths i = 0..rank.  Built on first use.

        d(x, y) <= i iff x and y have the same depth-i entry.
        """
        index = self.index
        return tuple(
            tuple(index[delete(range(1, i + 1), x)] for x in self.elements)
            for i in range(self.rank + 1)
        )


def enumerate_elements(n: int, cap: int = 1_000_000) -> ElementList:
    """BFS over right multiplication by generators, deduplicated.

    Raises ``BudgetExceededError`` as soon as more than ``cap`` elements
    are found.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    gens = [generator(n, i) for i in range(1, n + 1)]
    e = unit(n)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for a in gens:
                y = multiply(x, a)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise BudgetExceededError(f"K_{n} has more than {cap} elements")
        frontier = nxt
    return ElementList(rank=n, elements=tuple(sorted(seen, key=lambda x: x.shortlex_key)))


@dataclass(frozen=True)
class CongruencePartition:
    """Partition of all words of length <= max_len into congruence classes."""

    rank: int
    max_len: int
    class_ids: dict  # word tuple -> class id (ids are dense, ordered by shortlex minimum)
    num_classes: int

    def same_class(self, u, v) -> bool:
        return self.class_ids[tuple(u)] == self.class_ids[tuple(v)]


def _all_words(n: int, max_len: int):
    """All words over [n] of length 0..max_len, in increasing length order."""
    yield ()
    for length in range(1, max_len + 1):
        for w in iter_product(range(1, n + 1), repeat=length):
            yield w


def _subsets(n: int):
    """All subsets of [n] as frozensets, in increasing size order."""
    items = range(1, n + 1)
    for k in range(n + 1):
        yield from map(frozenset, combinations(items, k))


def _closure_roots(n: int, bound_small: int, bound_large: int, keep_len: int):
    """Union-find congruence closure; returns the root maps for words of
    length <= keep_len at both bounds."""
    words = list(_all_words(n, bound_large))
    index = {w: k for k, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def snapshot() -> dict:
        return {w: find(index[w]) for w in words if len(w) <= keep_len}

    snap_small = None
    for w in words:
        if snap_small is None and len(w) > bound_small:
            snap_small = snapshot()
        length = len(w)
        k = index[w]
        for p in range(length - 1):
            a, b = w[p], w[p + 1]
            if a == b:
                # a_i a_i -> a_i
                union(k, index[w[: p + 1] + w[p + 2 :]])
            if p + 2 < length:
                c = w[p + 2]
                if a == c and b < a:
                    # a_i a_j a_i -> a_i a_j  (j < i)
                    union(k, index[w[: p + 2] + w[p + 3 :]])
                if a == c and b > a:
                    # a_j a_i a_j -> a_i a_j  (j < i)
                    union(k, index[w[:p] + (b, a) + w[p + 3 :]])
    if snap_small is None:
        snap_small = snapshot()
    return snap_small, snapshot()


def _label(roots: dict) -> dict:
    """Relabel a root map with dense ids in shortlex-first-seen order."""
    ids: dict = {}
    out = {}
    for w in sorted(roots, key=lambda w: (len(w), w)):
        root = roots[w]
        if root not in ids:
            ids[root] = len(ids)
        out[w] = ids[root]
    return out


def congruence_oracle(n: int, max_len: int) -> CongruencePartition:
    """Exact congruence classes of all words of length <= max_len.

    Relation instances are applied in every context within length bound
    max_len + ORACLE_SLACK; stability against bound max_len + ORACLE_SLACK
    + 1 is required, so both closures are computed.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    bound = max_len + ORACLE_SLACK
    if n ** (bound + 1) > ORACLE_BUDGET:
        raise BudgetExceededError(
            f"word universe n={n}, bound={bound + 1} exceeds budget {ORACLE_BUDGET}"
        )
    roots_small, roots_large = _closure_roots(n, bound, bound + 1, max_len)
    labels_small = _label(roots_small)
    labels_large = _label(roots_large)
    if labels_small != labels_large:
        raise OracleInstabilityError(
            f"classes differ between slack {ORACLE_SLACK} and {ORACLE_SLACK + 1}"
        )
    return CongruencePartition(
        rank=n,
        max_len=max_len,
        class_ids=labels_small,
        num_classes=len(set(labels_small.values())),
    )


def cardinality_table(max_rank: int = 4, cap: int = 1_000_000) -> list[tuple[int, int]]:
    """[(n, |K_n|)] for n = 2..max_rank; raises ``BudgetExceededError`` if
    some K_n has more than ``cap`` elements.  Consecutive ratios must be
    strictly increasing."""
    if max_rank < 2:
        raise ValueError(f"rank must be at least 2, got {max_rank}")
    table = [(n, len(enumerate_elements(n, cap=cap))) for n in range(2, max_rank + 1)]
    ratios = [b / a for (_, a), (_, b) in zip(table, table[1:])]
    if any(r2 <= r1 for r1, r2 in zip(ratios, ratios[1:])):
        raise AssertionError(f"growth ratios not increasing: {ratios}")
    return table
