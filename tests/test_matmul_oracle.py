"""The row certificate `is_inverse`, which decides whether a b == I without
forming the product, against the dense product."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from mirrorkit.ci_model import build_cayley  # noqa: E402
from mirrorkit.rational_linalg import (  # noqa: E402
    _canonical,
    DimensionMismatchError,
    invert,
    is_inverse,
    Matrix,
    SingularMatrixError,
)

from oracles import dense_matmul, identity  # noqa: E402
from paper_data import L_8, L_8_INV, L_13, L_13_INV, matrix_from_json  # noqa: E402
from specgen import nonsingular_cayley_specs, oracle_specs  # noqa: E402

# mostly zeros, as in the Cayley and difference matrices, with some entries
# far past a machine word
ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))


@st.composite
def _matrix(draw, rows, cols):
    zero_row = [0] * cols
    num = [draw(st.one_of(st.just(zero_row), st.lists(ENTRIES, min_size=cols, max_size=cols)))
           for _ in range(rows)]
    return _canonical(tuple(map(tuple, num)), draw(st.integers(1, 60)))


def _is_identity(a, b):
    """The oracle: the dense product of a and b is the identity of a's size."""
    return dense_matmul(a, b) == identity(a.rows)


def _perturbed(m, i, j, d):
    """m with d added to the numerator of entry (i, j), put in canonical form."""
    num = [list(row) for row in m.num]
    num[i][j] += d
    return _canonical(tuple(map(tuple, num)), m.den)


def _agrees(a, b):
    got = is_inverse(a, b)
    assert got == _is_identity(a, b)
    return got


@st.composite
def _invertible(draw):
    """A nonsingular matrix, its entries mostly small, some zero, some past a word."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))
    num = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    m = _canonical(num, draw(st.integers(1, 60)))
    try:
        return m, invert(m)
    except SingularMatrixError:
        assume(False)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_invertible(), st.data())
@example((Matrix(((2, 0), (0, 3))), _canonical(((3, 0), (0, 2)), 6)), None)
def test_is_inverse_matches_the_oracle(pair, data):
    m, inv = pair
    # both orders: the inverse, with its denominator, as the left operand too
    assert _agrees(m, inv) and _agrees(inv, m)
    if data is None:
        return
    for a, b in ((m, inv), (inv, m)):
        i, j = (data.draw(st.integers(0, a.rows - 1)) for _ in range(2))
        d = data.draw(st.integers(-3, 3).filter(bool))
        assert not _agrees(_perturbed(a, i, j, d), b)
        assert not _agrees(a, _perturbed(b, i, j, d))
        assert not _agrees(a, _canonical(b.num, b.den * (d * d + 1)))


@st.composite
def _any_operands(draw):
    """Operands of any shapes: b's row count is a's column count about half the time."""
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    b_rows = draw(st.one_of(st.just(inner), st.integers(1, 5)))
    return draw(_matrix(rows, inner)), draw(_matrix(b_rows, cols))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_any_operands())
@example((Matrix(()), Matrix(())))
@example((Matrix(((), ())), Matrix(())))
@example((_canonical(((3, 0), (0, 3)), 3), Matrix(((1, 0),))))
@example((_canonical(((3, 0), (0, 3)), 3), Matrix(((1, 0), (0, 1)))))
@example((Matrix(((1, 0), (0, 1))), Matrix(((1, 0, 0), (0, 1, 0)))))
def test_is_inverse_raises_where_matmul_does(operands):
    # the product a b is defined exactly when a.cols == b.rows
    a, b = operands
    if a.cols != b.rows:
        with pytest.raises(DimensionMismatchError):
            is_inverse(a, b)
        return
    assert is_inverse(a, b) == _is_identity(a, b)


def test_is_inverse_on_the_paper_matrices():
    for data, inverse in ((L_8, L_8_INV), (L_13, L_13_INV)):
        m, inv = Matrix.from_rows(data), matrix_from_json(inverse)
        assert _agrees(m, inv) and _agrees(inv, m)
        assert not _agrees(m, _canonical(inv.num, 2 * inv.den))
        assert not _agrees(inv, _canonical(m.num, 2))
        for i in range(m.rows):
            for j in range(m.rows):
                for a, b in ((_perturbed(m, i, j, 1), inv), (m, _perturbed(inv, i, j, 1)),
                             (_perturbed(inv, i, j, -1), m), (inv, _perturbed(m, i, j, -1))):
                    assert not _agrees(a, b)


def test_is_inverse_on_every_nonsingular_cayley_matrix(fixtures_dir):
    # the run's check, L L^-1 = I, and the same check with one entry of L^-1
    # changed, on the oracle set and the random nonsingular Cayley specs
    checked = 0
    for spec in oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300):
        m = build_cayley(spec).matrix
        try:
            inv = invert(m)
        except SingularMatrixError:
            continue
        assert _agrees(m, inv)
        i = checked % m.rows
        assert not _agrees(m, _perturbed(inv, i, (i + checked) % m.rows, 1))
        checked += 1
    assert checked == 516
