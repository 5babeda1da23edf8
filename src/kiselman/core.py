"""Elements of the monoid K_n and their basic operations.

K_n is presented by generators a_1, ..., a_n (n >= 2) subject to

    a_i a_i = a_i        and        a_i a_j a_i = a_j a_i a_j = a_i a_j

for j < i.  An element is stored as its canonical word (see ``_reduce_py``):
the one word of the element with no pair of consecutive equal letters
whose gap lies entirely below or entirely above them.  Two elements are
equal iff their ranks and canonical words coincide.

The package's own exception classes are all defined here, one per outcome
of the CLI's exit-code contract: ``CrosscheckError`` for a failed check
(exit 1), ``MalformedWordError`` and ``RankMismatchError``, both
``ValueError``s, for bad input (exit 2), and ``BudgetExceededError`` for a
refusal (exit 3).  Any other bad input raises a plain ``ValueError``.
"""

from __future__ import annotations

from kiselman._reduce_py import extend, reduce_word

_set_field = object.__setattr__


class BudgetExceededError(RuntimeError):
    """A computation would exceed its budget: the enumeration cap (a rank
    with 2^n past it is refused at once), the rank of a search by definition
    (``level_metric.SEARCH_MAX_RANK``), the oracle's word universe, the exact
    pmf's support, a simulated trial's step count or a partial product's
    horizon.

    It is every budget's one refusal, and it lives here, beside the
    algebra, so that the CLI maps it to exit 3 having loaded only ``core``.
    """


class CrosscheckError(AssertionError):
    """An internal cross-check failed: a computed answer disagrees with an
    independent computation of it, or a loop that a theorem says must end
    ran out.  The oracle's slack stability, the growth of |K_n|, the
    distance spot check of balls and spheres, the level computations and
    the simulation's streams and walks all raise it.

    It is every check's one failure, defined here so that a numpy-free
    module can raise it and the CLI maps it to exit 1.  It derives from
    ``AssertionError``, which the CLI and the selftest catch.
    """


class MalformedWordError(ValueError):
    """A letter falls outside the generator range [1, rank]."""


class RankMismatchError(ValueError):
    """Operands live in monoids of different rank."""


def parse_word(text: str) -> tuple[int, ...]:
    """Parse whitespace- or comma-separated generator indices; '' is empty."""
    cleaned = text.replace(",", " ").strip()
    if not cleaned:
        return ()
    try:
        return tuple(int(tok) for tok in cleaned.split())
    except ValueError as exc:
        raise MalformedWordError(f"cannot parse word {text!r}") from exc


def format_word(letters: tuple[int, ...]) -> str:
    return " ".join(str(i) for i in letters)


def validate_word(rank: int, letters) -> tuple[int, ...]:
    if rank < 2:
        raise ValueError(f"rank must be at least 2, got {rank}")
    letters = tuple(letters)
    for i in letters:
        if not 1 <= i <= rank:
            raise MalformedWordError(f"letter {i} out of range [1, {rank}]")
    return letters


class Frozen:
    """A record whose fields are set once, by ``__init__`` through
    ``_set_field``: what a frozen dataclass is, written out, since importing
    ``dataclasses`` (and the ``inspect`` it loads) costs every CLI process
    more than the command it runs.  A subclass names its fields in
    ``_fields`` and defines ``__eq__`` and ``__hash__`` on them."""

    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Element(Frozen):
    """An element of K_n, keyed by its canonical word.

    Construct through :func:`reduce` (or the named constructors below);
    instantiating with a non-canonical word breaks equality semantics.
    """

    _fields = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...]):
        _set_field(self, "rank", rank)
        _set_field(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rank, self.letters) == (other.rank, other.letters)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_word(self.letters) if self.letters else "e"

    @property
    def shortlex_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)


def reduce(rank: int, letters) -> Element:
    """Map an arbitrary word to the element of K_n it represents."""
    return Element(rank, reduce_word(validate_word(rank, letters)))


def unit(rank: int) -> Element:
    return reduce(rank, ())


def generator(rank: int, i: int) -> Element:
    return reduce(rank, (i,))


def idempotent(rank: int, members) -> Element:
    """e_X: the product of generators of X in strictly decreasing order."""
    word = validate_word(rank, sorted(members, reverse=True))
    # strictly decreasing words are already canonical
    return Element(rank, word)


def zero(rank: int) -> Element:
    """f = e_{[n]}, the two-sided zero."""
    return idempotent(rank, range(1, rank + 1))


def multiply(x: Element, y: Element) -> Element:
    if x.rank != y.rank:
        raise RankMismatchError(f"rank {x.rank} vs {y.rank}")
    return Element(x.rank, extend(x.letters, y.letters))


def content(x: Element) -> frozenset[int]:
    """The set of generator indices occurring in x (representative-free)."""
    return frozenset(x.letters)


def power(x: Element, k: int) -> Element:
    """x^k for k >= 1; equals e_{c(x)} once k >= |c(x)|.

    Stops at the first power with x^(j+1) = x^j: every later power equals
    it, so at most |c(x)| + 1 products are taken whatever k is."""
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    acc = x
    for _ in range(k - 1):
        nxt = multiply(acc, x)
        if nxt == acc:
            break
        acc = nxt
    return acc


def tau(x: Element) -> Element:
    """The antiautomorphism induced by a_i -> a_{n-i+1}.

    The mirrored canonical word is canonical, so it is not reduced: reversing
    a word keeps the letters of each gap between two occurrences of a
    letter, and the flip swaps the letters below and above."""
    return Element(x.rank, tuple([x.rank + 1 - i for i in reversed(x.letters)]))


def is_canonical(letters: tuple[int, ...]) -> bool:
    """True iff between any two consecutive occurrences of the same index
    there is at least one smaller and at least one larger letter.

    One O(L * n) pass that never calls the reducer, so it checks the
    reducer independently.
    """
    # letter -> 1 (a smaller letter) | 2 (a larger letter) seen since it last occurred
    gaps: dict[int, int] = {}
    for v in letters:
        if gaps.get(v, 3) != 3:
            return False
        for u in gaps:
            if v < u:
                gaps[u] |= 1
            elif v > u:
                gaps[u] |= 2
        gaps[v] = 0
    return True


class RightCayley:
    """The right Cayley graph of K_n from e, filled on demand: the elements
    reached from e by right products with generators, numbered in the order
    they are reached, e first.  ``elements[x]`` is element x, and
    ``moves[x][i]`` is the id of x·a_i, or 0 (the id of e, which no x·a_i
    is) until :meth:`add` multiplies the pair, which it does once.

    A sparse walk adds only the pairs it visits.  Adding every pair of each
    element in id order is a breadth-first search, so the ids are then in
    breadth-first order."""

    def __init__(self, n: int):
        self.n = n
        self.generators = [generator(n, i) for i in range(1, n + 1)]
        self.elements = [unit(n)]
        self.ids = {self.elements[0]: 0}
        self.moves = [[0] * (n + 1)]

    def add(self, x: int, i: int) -> int:
        """Multiply element x by a_i, number the product if it is new, record
        the move and return the product's id."""
        after = multiply(self.elements[x], self.generators[i - 1])
        y = self.moves[x][i] = self.ids.setdefault(after, len(self.elements))
        if y == len(self.elements):
            self.elements.append(after)
            self.moves.append([0] * (self.n + 1))
        return y
