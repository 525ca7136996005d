"""Rational views of the program's results that only the tests read.

The program works in integer numerators over one denominator; these
helpers give the same results as Fractions, so tests can compare them with
sympy and with hand-computed values.
"""

from fractions import Fraction

from mirrorkit.rational_linalg import _kernel_columns, solve_den


def right_kernel(m):
    """Basis of {x : m x = 0}, one vector per free column, deterministic order:
    each is 1 at its free column and 0 at the other free columns."""
    return [tuple(Fraction(x, vec[free]) for x in vec) for free, vec in _kernel_columns(m)]


def solve_many(m, rhs_cols):
    """Particular solutions of m x = b for each column b of rhs_cols, None when
    inconsistent (solve_den's solutions as Fractions)."""
    cols, d, _ = solve_den(m, rhs_cols)
    return [None if x is None else tuple(Fraction(v, d) for v in x) for x in cols]


def support_phi(deltas, q, y):
    """Value of the block-q support function at y: -min over vertices of <x, y>."""
    y = [Fraction(b) for b in y]
    return -min(sum(a * b for a, b in zip(v, y)) for v in deltas[q - 1].vertices)


def reduced_numerators(form):
    """(A, B, D, d) of a LinearForm over its own denominator; gcd of all entries is 1."""
    a, b, dd = form.numerators(form.den)
    return a, b, dd, form.den
