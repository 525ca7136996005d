"""Exact rational linear algebra.

Everything in this package reduces to linear algebra over the rationals:
inverting the Cayley matrix, whose columns are the linear forms, and the
kernels of weight systems where no inverse gives them; the dual polytopes
and the rank they need are closed forms (`nef_partition`).  All of it must
be exact -- denominators like 147 compound under elimination and no float
mode exists -- and every operation returns fresh immutable values.

A matrix is integer rows ``num`` over one positive denominator ``den``,
kept canonical: gcd(den, every entry) = 1, so ``den`` is the least common
denominator of the entries and ``==`` and ``hash`` are structural.  Every
matrix built from a specification is integral (den = 1); only inverses,
kernels and solutions carry a denominator, and it is one small number
(the modulus Delta for the Cayley inverse).

Elimination is fraction-free Gauss-Jordan on integer rows (Bareiss 1968;
sympy's ``rref_den`` is the same idea): ``row <- a*row - b*pivot_row``,
then divided by the gcd of its entries.  Every row stays a nonzero
multiple of the row the same steps give over the rationals, so the pivots
are the same, and the result is the integer reduced row echelon form with
each pivot row left undivided: pivot row i divided by its pivot is row i
of the unique rational RREF.  Each update touches only the columns where
the pivot row is nonzero (elsewhere the row is just scaled by a, or
copied when a = 1): the same arithmetic as the dense update, so the same
rows, for less work on the sparse Cayley and difference matrices and on
the identity half of ``[num | I]``.  Inverses, solutions and kernel
vectors are read off the result over the LCM of the pivots and then
reduced to canonical form.  No matrix product is formed: ``is_inverse``
decides whether a times b is the identity one row of the integer product
at a time, each formed by adding ``x * b_row_j`` over the nonzero entries
x = row[j] of a's row, so a zero entry costs nothing (the sparse Cayley
matrix has about three nonzeros a row against its dense inverse).  Row i
must be a.den * b.den * e_i, and the first row that is not ends the check.

Serialization convention: a rational prints as ``"p/q"``, or ``"p"`` when
the denominator is 1; a matrix is a list of rows of such strings.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

from .record import record


class RationalLinalgError(Exception):
    """Base class for errors raised by this module."""


class SingularMatrixError(RationalLinalgError):
    """The matrix has determinant zero where a nonsingular one is required."""


class DimensionMismatchError(RationalLinalgError):
    """Operand shapes are incompatible."""


class NotAPermutationError(RationalLinalgError):
    """The image sequence is not a bijection on {1..size}."""


def ratio_str(p: int, q: int) -> str:
    """p/q for q > 0 in lowest terms, as "p/q", or "p" when the denominator is 1."""
    if p == 0:
        return "0"
    g = math.gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


@record
class Matrix:
    """Immutable dense rational matrix: integer rows ``num`` over one denominator ``den``.

    The constructor takes num and den as given and expects them canonical
    (den > 0, gcd(den, every entry) = 1); integer rows with den = 1 always
    are.  from_rows builds a matrix from int rows.
    """

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        if self.num:
            width = len(self.num[0])
            if any(len(row) != width for row in self.num):
                raise DimensionMismatchError("ragged rows")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "Matrix":
        """Int rows, kept as they are; any other entry (Fraction, float, bool, str)
        raises TypeError."""
        num = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(num))) <= {int}:
            x = next(x for x in chain.from_iterable(num) if type(x) is not int)
            raise TypeError(f"matrix entry must be an int, got {type(x).__name__} {x!r}")
        return Matrix(num)

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.num)

    @property
    def cols(self) -> int:
        return len(self.num[0]) if self.num else 0

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.num)), self.den) if self.num else self

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[list[str]]:
        """Each entry as `ratio_str`, rendered once per distinct numerator."""
        den = self.den
        text = {x: ratio_str(x, den) for x in set().union(*self.num)}
        return [list(map(text.__getitem__, row)) for row in self.num]

    def __str__(self) -> str:
        cells = self.to_json()
        widths = [max(len(row[j]) for row in cells) for j in range(self.cols)] if cells else []
        return "\n".join("[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]"
                         for row in cells)


def is_inverse(a: Matrix, b: Matrix) -> bool:
    """Whether a times b is the identity of a's size, decided in integers row by row.

    The canonical product is the identity exactly when the integer product
    of the numerators is a.den * b.den times it: row i, formed over the
    nonzero entries of a's row, must be a.den * b.den * e_i, and the first
    row that is not decides.  Raises DimensionMismatchError when
    a.cols != b.rows.
    """
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, den = a.rows, a.den * b.den
    if b.cols != n:
        return False
    zero = [0] * n
    for i, row in enumerate(a.num):
        acc = zero
        for x, b_row in zip(row, b.num):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        if acc[i] != den or acc.count(0) != n - 1:
            return False
    return True


def _canonical(num: tuple[tuple[int, ...], ...], den: int) -> Matrix:
    """num / den (den > 0) with the common factor of den and the entries cancelled."""
    if den > 1:
        g = math.gcd(den, *chain.from_iterable(num))
        if g > 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
    return Matrix(num, den)


@record
class PermutationMap:
    """Bijection on {1..size}, stored as the 1-based image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise NotAPermutationError(f"not a bijection: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.size + 1))

    def matrix(self) -> Matrix:
        """Permutation matrix P with P e_j = e_{images[j]}."""
        n = self.size
        return Matrix(tuple(tuple(int(self.images[j] == i + 1) for j in range(n))
                            for i in range(n)))

    def to_json(self) -> list[int]:
        return list(self.images)


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by the gcd of its entries (unchanged when that is 0 or 1)."""
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """In-place fraction-free Gauss-Jordan elimination of integer rows on the
    first ncols columns; returns (rank, pivots).

    Pivot choice is the first row with a nonzero entry in the pivot column
    (lowest row index), which keeps golden outputs deterministic.  On
    return rows[:rank] is the integer RREF (see the module docstring):
    primitive rows, zero in every other pivot column, pivot rows not
    divided by their pivots.  rows[rank:] are nonzero multiples of what
    rational elimination leaves there: only their zero pattern (which
    augmented columns are inconsistent) means anything.

    The pivot row is zero left of the pivot column, so ``a*row - b*pivot_row``
    is ``a*row`` outside the pivot row's support: only the support columns
    are updated, and the row is copied rather than scaled when a = 1.  The
    arithmetic, and so every row, is that of the dense update.
    """
    work = [_primitive(row) for row in rows]
    rank = 0
    pivots = []
    nrows = len(work)
    width = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        p = prow[col]
        support = [(j, prow[j]) for j in range(col, width) if prow[j]]
        for r in range(nrows):
            c = work[r][col]
            if r != rank and c:
                g = math.gcd(p, c)
                a, b = p // g, c // g
                row = work[r]
                new = row[:] if a == 1 else [a * x for x in row]
                for j, y in support:
                    new[j] -= b * y
                work[r] = _primitive(new)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    rows[:] = work
    return rank, pivots


def invert(m: Matrix) -> Matrix:
    """Exact inverse: one elimination of [num | I], read off over the LCM of the pivots."""
    if not m.is_square():
        raise DimensionMismatchError("can only invert a square matrix")
    n = m.rows
    aug = [list(row) + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(m.num)]
    rank, _ = _eliminate(aug, n)
    if rank < n:
        raise SingularMatrixError("matrix is singular")
    # the pivots are the diagonal; (num/den)^-1 = den * num^-1
    d = math.lcm(*(aug[i][i] for i in range(n)))
    scale = [m.den * d // aug[i][i] for i in range(n)]
    return _canonical(tuple(tuple([x * s for x in row[n:]]) for row, s in zip(aug, scale)), d)


def _kernel_columns(m: Matrix) -> list[tuple[int, tuple[int, ...]]]:
    """(free column f, primitive integer kernel vector) for each free column of m.

    The vector is a positive multiple of the one that is 1 at f and 0 at
    the other free columns.
    """
    work = [list(row) for row in m.num]
    _, pivots = _eliminate(work, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        d = math.lcm(*(work[i][pcol] for i, pcol in enumerate(pivots) if work[i][free]))
        vec = [0] * m.cols
        vec[free] = d
        for i, pcol in enumerate(pivots):
            vec[pcol] = -work[i][free] * (d // work[i][pcol])
        basis.append((free, tuple(_primitive(vec))))
    return basis


def integer_kernel(m: Matrix) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : m x = 0}, one vector per free column: the
    rational basis vector that is 1 at its free column and 0 at the other free
    columns, scaled by a positive factor to coprime integers."""
    return [vec for _, vec in _kernel_columns(m)]


def primitive_integer_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping the sign pattern."""
    return tuple(_primitive(list(v)))
