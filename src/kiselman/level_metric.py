"""The level function on K_n, the ultrametric it induces, and metric sets.

The level of x is the least i such that deleting generators 1..i from x
leaves the idempotent on {i+1, ..., n}.  It equals the least i with
x * e_{[i]} = f, and is computable by folding the one-step update ``g``
over any word representing x, starting from n.  The map
d(x, y) = min { i : deleting 1..i from both gives equal elements } is an
ultrametric with d(x, f) equal to the level of x.

So d(x, y) <= r iff x and y have the same depth-r truncation: the balls
of radius r are the classes of the depth-r row of the truncation table of
the enumeration of K_n (an ``ElementList``, which always holds all of K_n).
The table is built in one shortlex pass per depth, with no call to
``delete``: 1.7-3.5 ms at n = 5 and 0.15-0.26 s at n = 6 on a 2-CPU VM.  ``ball``
returns the centre's class, and ``sphere`` keeps the members of the
radius-r class outside the centre's depth-(r - 1) class, so neither scans
K_n.  ``distance``, computed by definition, spot-checks each answer.  A failed spot check, or a
search by definition that runs out although a theorem says it cannot,
raises ``CrosscheckError``.

The searches by definition (``level_by_definition``, ``m_function``,
``level_sets`` and ``distance``) take time that grows with n and the word
length: the absorption searches as n^2 (|x| + 1)(n + |x|), the deletion
searches as (n + 2|x|)^2 for each word they filter.  So each refuses,
with ``BudgetExceededError`` and before it builds anything of size n, a
rank past SEARCH_MAX_RANK or an estimated work past SEARCH_BUDGET.
"""

from __future__ import annotations

from kiselman.core import (
    BudgetExceededError,
    CrosscheckError,
    Element,
    RankMismatchError,
    idempotent,
    multiply,
    validate_word,
    zero,
)
from kiselman.morphisms import delete

# largest rank a search by definition runs at: m_function(a_1) takes 0.5-0.8 s
# there on a 2-CPU VM, and 4.1 s at rank 1,024
SEARCH_MAX_RANK = 512
# most work a search by definition may do, in the units of
# _require_searchable's cost models: on a 2-CPU VM a unit takes 3-8 ns, and
# the slowest admitted searches take 1-2 s
SEARCH_BUDGET = 300_000_000


def _require_searchable(n: int, *lengths: int, absorbs: bool = False) -> None:
    """Refuse a search by definition at rank n on words of ``lengths``
    letters when n passes SEARCH_MAX_RANK or its estimated work passes
    SEARCH_BUDGET.

    An absorption step (``absorbs``, one word) appends the i letters of
    e_[i] to x, and each may cascade through the n + |x| letters of the
    product, so the steps i <= n take about n^2 (|x| + 1)(n + |x|) units.
    A deletion step builds a word of up to n letters, filters each word and
    reduces what is left, whose cascades grow as |x|^2 / n, so the steps
    take about 12 (n + 2|x|)^2 units per word: fitted on elements of ranks
    64-512 and up to 16 n letters, 12 n^2 + 48 n|x| + 48 |x|^2 units at
    4-5 ns each, and at the edge, n + 2|x| = 5,000, they take 1-2 s on a
    2-CPU VM.  ``distance`` filters and reduces its two words separately at
    each depth, and its units take as long as a level search's: 3.4-6.2 ns
    against 3.6-6.4 ns on the same elements (ranks 64-512, 100-2,400
    letters a word)."""
    if n > SEARCH_MAX_RANK:
        raise BudgetExceededError(
            f"a search by definition at rank {n} exceeds budget {SEARCH_MAX_RANK}")
    if absorbs:
        (length,) = lengths
        work = n * n * (length + 1) * (n + length)
    else:
        work = sum(12 * (n + 2 * length) ** 2 for length in lengths)
    if work > SEARCH_BUDGET:
        raise BudgetExceededError(f"a search by definition at rank {n} on {sum(lengths)} letters "
                                  f"exceeds work budget {SEARCH_BUDGET}")


def _interval(i: int) -> range:
    """[i] = {1, ..., i}; [0] is empty."""
    return range(1, i + 1)


def _deletes_to_rest(x: Element):
    """The deletion definition: i -> whether deleting 1..i from x leaves
    e_{{i+1,...,n}}."""
    n = x.rank
    return lambda i: delete(_interval(i), x) == idempotent(n, range(i + 1, n + 1))


def _absorbs(x: Element):
    """The absorption definition: i -> whether x * e_{[i]} = f."""
    n = x.rank
    f = zero(n)
    return lambda i: multiply(x, idempotent(n, _interval(i))) == f


def _least(holds, n: int, start: int = 0) -> int:
    """The least i in start..n for which ``holds(i)``; a theorem says i = n
    qualifies, so running out is a failed check."""
    for i in range(start, n + 1):
        if holds(i):
            return i
    raise CrosscheckError("unreachable: i = n always qualifies")


def level_by_definition(x: Element) -> int:
    """min { i in 0..n : deleting 1..i from x yields e_{{i+1,...,n}} }."""
    _require_searchable(x.rank, len(x.letters))
    return _least(_deletes_to_rest(x), x.rank)


def g(i: int, j: int) -> int:
    """One-step level update under right multiplication by a_j."""
    return i - 1 if i == j else i


def level_by_recursion(rank: int, letters) -> int:
    """Fold ``g`` over any representative word, starting from level n."""
    letters = validate_word(rank, letters)
    lvl = rank
    for j in letters:
        lvl = g(lvl, j)
    return lvl


def level(x: Element) -> int:
    """Level of an element, via the recursion on its canonical word."""
    return level_by_recursion(x.rank, x.letters)


def m_function(x: Element) -> int:
    """min { i in 0..n : x * e_{[i]} = f }; coincides with the level."""
    _require_searchable(x.rank, len(x.letters), absorbs=True)
    return _least(_absorbs(x), x.rank)


def level_sets(x: Element) -> tuple[frozenset[int], frozenset[int]]:
    """The deletion-based and absorption-based witness sets (provably equal).

    First set: { i : deleting 1..i from x gives e_{{i+1,...,n}} }.
    Second set: { i : x * e_{[i]} = f }.
    """
    # its absorption steps outweigh its deletion steps for n >= 4
    _require_searchable(x.rank, len(x.letters), absorbs=True)
    depths = range(x.rank + 1)
    return frozenset(filter(_deletes_to_rest(x), depths)), frozenset(filter(_absorbs(x), depths))


def distance(x: Element, y: Element) -> int:
    """Ultrametric: least truncation depth at which x and y agree."""
    if x.rank != y.rank:
        raise RankMismatchError(f"rank {x.rank} vs {y.rank}")
    _require_searchable(x.rank, len(x.letters), len(y.letters))
    if x == y:
        return 0
    return _least(lambda i: delete(_interval(i), x) == delete(_interval(i), y), x.rank, 1)


def _centre_class(universe, center: Element, r: int) -> tuple[list[int], int]:
    """The positions of the centre's depth-r truncation class, which is its
    ball of radius r (0 <= r <= n) in shortlex order, and the centre's own
    position."""
    k = universe.position[center.letters]
    return universe.classes(r)[universe.truncations[r][k]], k


def _spot_checked(center: Element, r: int, members: list[Element], exact: bool) -> list[Element]:
    """Recompute d(center, x) by definition for the last member x, so that
    every answer read off the truncation table is checked independently."""
    if members:
        d = distance(center, members[-1])
        if not (d == r if exact else d <= r):
            raise CrosscheckError(f"truncation table disagrees with distance: d = {d}, r = {r}")
    return members


def _require_same_rank(universe, center: Element) -> None:
    if center.rank != universe.rank:
        raise RankMismatchError(f"rank {center.rank} vs {universe.rank}")


def ball(universe, center: Element, r: int) -> list[Element]:
    """Closed metric ball, in shortlex order: the centre's class of
    elements with the same depth-r truncation."""
    _require_same_rank(universe, center)
    if r < 0:
        return []
    if r > universe.rank:
        return list(universe.elements)
    elements = universe.elements
    members = [elements[k] for k in _centre_class(universe, center, r)[0]]
    return _spot_checked(center, r, members, exact=False)


def sphere(universe, center: Element, r: int) -> list[Element]:
    """Metric sphere, in shortlex order: the ball of radius r without the
    members of the centre's depth-(r - 1) class."""
    if r < 1:
        return ball(universe, center, r)
    _require_same_rank(universe, center)
    if r > universe.rank:
        return []
    elements = universe.elements
    positions, k = _centre_class(universe, center, r)
    inner = universe.truncations[r - 1]
    inner_key = inner[k]
    members = [elements[j] for j in positions if inner[j] != inner_key]
    return _spot_checked(center, r, members, exact=True)


def r_set(universe) -> list[Element]:
    """All x with x * a_1 = f; coincides with the radius-1 ball around f."""
    n = universe.rank
    f = zero(n)
    a1 = idempotent(n, {1})
    return [x for x in universe.elements if multiply(x, a1) == f]
