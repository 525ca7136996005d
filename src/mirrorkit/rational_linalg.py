"""Exact rational linear algebra.

Everything in this package reduces to linear algebra over the rationals:
inverting the Cayley matrix, solving for the linear forms, kernel
computations for weight systems and dual polytopes.  All of it must be
exact -- denominators like 147 compound under elimination and no float
mode exists -- so matrices carry ``fractions.Fraction`` entries and every
operation returns fresh immutable values.

The arithmetic inside the kernels runs on Python integers.  Elimination
scales each row to integers by the LCM of its denominators and keeps it
integral (``row <- a*row - b*pivot_row``, then divided by its gcd); every
row stays a nonzero multiple of the row the same Gauss-Jordan steps give
in ``Fraction``s, so the pivots are the same, and dividing each pivot row
by its pivot gives the reduced row echelon form, which is unique.  The
product of two matrices scales each left row and each right column to
integers the same way and divides each integer dot product once.

Serialization convention: a rational prints as ``"p/q"``, or ``"p"`` when
the denominator is 1; a matrix is a list of rows of such strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalLinalgError(Exception):
    """Base class for errors raised by this module."""


class SingularMatrixError(RationalLinalgError):
    """The matrix has determinant zero where a nonsingular one is required."""


class DimensionMismatchError(RationalLinalgError):
    """Operand shapes are incompatible."""


class NotAPermutationError(RationalLinalgError):
    """The image sequence is not a bijection on {1..size}."""


def rat_str(x: Fraction | int) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_parse(s: str | int) -> Fraction:
    return Fraction(s)


def _as_fraction(x: Fraction | int) -> Fraction:
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"matrix entry must be an int or a Fraction, got {type(x).__name__} {x!r}")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals (row-major tuple of tuples)."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise DimensionMismatchError("ragged rows")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Fraction | int]]) -> "Matrix":
        """Fraction entries are kept as they are, ints become Fractions, and
        anything else (float, bool, str) raises TypeError."""
        return Matrix(tuple(tuple(map(_as_fraction, row)) for row in rows))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        return Matrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix subtraction shape mismatch")
        return Matrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = [_integer_row(col) for col in zip(*other.entries)]
        out = []
        for row in self.entries:
            a, da = _integer_row(row)
            out.append(tuple(Fraction(sum(map(mul, a, b)), da * db) for b, db in cols))
        return Matrix(tuple(out))

    def mul_vector(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(v):
            raise DimensionMismatchError("matrix-vector shape mismatch")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.entries)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [[rat_str(x) for x in row] for row in self.entries]

    @staticmethod
    def from_json(data: Sequence[Sequence[str | int]]) -> "Matrix":
        return Matrix.from_rows([[rat_parse(x) for x in row] for row in data])

    def __str__(self) -> str:
        widths = [max(len(rat_str(self.entries[i][j])) for i in range(self.rows))
                  for j in range(self.cols)] if self.entries else []
        lines = []
        for row in self.entries:
            lines.append("[ " + "  ".join(rat_str(x).rjust(w) for x, w in zip(row, widths)) + " ]")
        return "\n".join(lines)


@dataclass(frozen=True)
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

    def inverse(self) -> "PermutationMap":
        inv = [0] * self.size
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return PermutationMap(tuple(inv))

    def is_involution(self) -> bool:
        return all(self.images[j - 1] == i + 1 for i, j in enumerate(self.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.size + 1))

    def compose(self, other: "PermutationMap") -> "PermutationMap":
        """self after other: i -> self(other(i))."""
        return PermutationMap(tuple(self(other(i)) for i in range(1, self.size + 1)))

    def matrix(self) -> Matrix:
        """Permutation matrix P with P e_j = e_{images[j]}."""
        n = self.size
        return Matrix.from_rows([[1 if self.images[j] == i + 1 else 0
                                  for j in range(n)] for i in range(n)])

    def to_json(self) -> list[int]:
        return list(self.images)


def _integer_row(xs: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """(d*xs as integers, d) with d the LCM of the denominators of xs."""
    xs = list(xs)
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by the gcd of its entries (unchanged when that is 0 or 1)."""
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[int, list[int]]:
    """In-place Gauss-Jordan elimination on the first ncols columns; returns (rank, pivots).

    Pivot choice is the first row with a nonzero entry in the pivot column
    (lowest row index), which keeps golden outputs deterministic.  The
    work is in integers (see the module docstring); on return rows[:rank]
    is the reduced row echelon form in Fractions, pivot row i divided by
    its pivot.  rows[rank:] come back as lists of integers, nonzero
    multiples of what Fraction elimination leaves there: only their zero
    pattern (which augmented columns are inconsistent) means anything.
    """
    work = [_primitive(_integer_row(row)[0]) for row in rows]
    rank = 0
    pivots = []
    nrows = len(work)
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        p = prow[col]
        for r in range(nrows):
            c = work[r][col]
            if r != rank and c:
                g = math.gcd(p, c)
                a, b = p // g, c // g
                work[r] = _primitive([a * x - b * y for x, y in zip(work[r], prow)])
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    for i, col in enumerate(pivots):
        p = work[i][col]
        work[i] = [Fraction(x, p) for x in work[i]]
    rows[:] = work
    return rank, pivots


def invert(m: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan elimination on [m | I]."""
    if not m.is_square():
        raise DimensionMismatchError("can only invert a square matrix")
    n = m.rows
    aug = [list(m.entries[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rank, pivots = _eliminate(aug, n)
    if rank < n:
        raise SingularMatrixError("matrix is singular")
    assert pivots == list(range(n))
    return Matrix(tuple(tuple(aug[i][n:]) for i in range(n)))


def solve(m: Matrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Solve m x = rhs exactly for square nonsingular m."""
    if not m.is_square():
        raise DimensionMismatchError("solve requires a square matrix")
    if len(rhs) != m.rows:
        raise DimensionMismatchError("right-hand side length mismatch")
    n = m.rows
    aug = [list(m.entries[i]) + [Fraction(rhs[i])] for i in range(n)]
    rank, pivots = _eliminate(aug, n)
    if rank < n:
        raise SingularMatrixError("matrix is singular")
    assert pivots == list(range(n))
    return tuple(aug[i][n] for i in range(n))


def pivot_columns(m: Matrix) -> list[int]:
    """Lowest-index columns of m that are linearly independent (the pivots)."""
    work = [list(row) for row in m.entries]
    _, pivots = _eliminate(work, m.cols)
    return pivots


def rank(m: Matrix) -> int:
    return len(pivot_columns(m))


def lcm_of_denominators(m: Matrix) -> int:
    """Smallest positive integer d with d*m integer-valued (1 for the empty matrix)."""
    return math.lcm(*(x.denominator for row in m.entries for x in row))


def right_kernel(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of {x : m x = 0}, one vector per free column, deterministic order."""
    work = [list(row) for row in m.entries]
    r, pivots = _eliminate(work, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[free] = ONE
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -work[row_idx][free]
        basis.append(tuple(vec))
    return basis


def solve_many(m: Matrix, rhs_cols: Sequence[Sequence[Fraction | int]]
               ) -> list[tuple[Fraction, ...] | None]:
    """Particular solutions of m x = b for each column b of rhs_cols, None when inconsistent.

    One elimination of [m | b_1 ... b_r]: the pivots depend on m alone, so
    each column gets exactly the solution a one-column solve would.  m may
    be rectangular or rank-deficient; free variables are set to zero.
    """
    if any(len(b) != m.rows for b in rhs_cols):
        raise DimensionMismatchError("right-hand side length mismatch")
    n = m.cols
    aug = [list(m.entries[i]) + [Fraction(b[i]) for b in rhs_cols] for i in range(m.rows)]
    r, pivots = _eliminate(aug, n)
    out: list[tuple[Fraction, ...] | None] = []
    for c in range(n, n + len(rhs_cols)):
        if any(aug[i][c] != 0 for i in range(r, m.rows)):
            out.append(None)
            continue
        x = [ZERO] * n
        for row_idx, pcol in enumerate(pivots):
            x[pcol] = aug[row_idx][c]
        out.append(tuple(x))
    return out


def solve_general(m: Matrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...] | None:
    """One particular solution of m x = rhs, or None when inconsistent (see solve_many)."""
    return solve_many(m, [rhs])[0]


def primitive_integer_vector(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping the sign pattern."""
    return tuple(_primitive(_integer_row(v)[0]))


def vectors_proportional(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """True when u and v span the same line (2x2 minors all vanish), both nonzero."""
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return False
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True
