"""Endomorphisms of K_n via Boolean matrices, and deletion endomorphisms.

End(K_n) is isomorphic to the monoid D_n of n x n Boolean matrices that
avoid [[0,1],[1,0]] as a 2x2 submatrix (rows x<y, columns i<j).  A matrix M
encodes the endomorphism a_i -> e_{X_i} where X_i is the set of rows with a
1 in column i.  Deleting the generators indexed by X corresponds to the
diagonal matrix of the complement of X.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from kiselman._reduce_py import reduce_word
from kiselman.core import Element, idempotent, multiply, unit

BoolMatrix = tuple[tuple[int, ...], ...]


class InvalidEndomorphismError(ValueError):
    """The matrix is not in D_n, so it encodes no endomorphism."""


def identity_matrix(n: int) -> BoolMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def diagonal_matrix(n: int, members) -> BoolMatrix:
    """Diagonal Boolean matrix with 1 at (i, i) iff i in members (1-based)."""
    ones = set(members)
    return tuple(
        tuple(1 if i == j and (i + 1) in ones else 0 for j in range(n))
        for i in range(n)
    )


def dn_member(matrix: BoolMatrix) -> bool:
    """True iff no row pair x<y and column pair i<j selects [[0,1],[1,0]]."""
    n = len(matrix)
    for x in range(n):
        for y in range(x + 1, n):
            for i in range(n):
                for j in range(i + 1, n):
                    if (
                        matrix[x][i] == 0
                        and matrix[x][j] == 1
                        and matrix[y][i] == 1
                        and matrix[y][j] == 0
                    ):
                        return False
    return True


def dn_product(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product (join of meets)."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"size mismatch: {n} vs {len(b)}")
    return tuple(
        tuple(int(any(a[i][k] and b[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class EndomorphismSpec:
    """An endomorphism of K_n given by its matrix in D_n.

    ``column_sets[i]`` is X_{i+1}: the image of a_{i+1} is e_{X_{i+1}}.
    """

    matrix: BoolMatrix
    column_sets: tuple[frozenset[int], ...] = field(init=False)

    def __post_init__(self):
        if not dn_member(self.matrix):
            raise InvalidEndomorphismError(
                "matrix contains the forbidden 2x2 pattern [[0,1],[1,0]]"
            )
        n = len(self.matrix)
        cols = tuple(
            frozenset(x + 1 for x in range(n) if self.matrix[x][i])
            for i in range(n)
        )
        object.__setattr__(self, "column_sets", cols)

    @property
    def size(self) -> int:
        return len(self.matrix)


def deletion_matrix(n: int, members) -> EndomorphismSpec:
    """The endomorphism deleting the generators indexed by ``members``."""
    complement = set(range(1, n + 1)) - set(members)
    return EndomorphismSpec(diagonal_matrix(n, complement))


def apply_endomorphism(psi: EndomorphismSpec, x: Element) -> Element:
    """Apply a_i -> e_{X_i} letterwise and reduce."""
    if psi.size != x.rank:
        raise ValueError(f"matrix size {psi.size} vs element rank {x.rank}")
    acc = unit(x.rank)
    for i in x.letters:
        acc = multiply(acc, idempotent(x.rank, psi.column_sets[i - 1]))
    return acc


def word_delete(members, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Drop every letter whose index lies in ``members``."""
    drop = set(members)
    return tuple(i for i in letters if i not in drop)


def delete(members, x: Element) -> Element:
    """The deletion endomorphism applied to an element (word-filter fast path)."""
    # filtering can break canonicity, so re-reduce
    return Element(x.rank, reduce_word(word_delete(members, x.letters)))
