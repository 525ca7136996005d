"""The sparse-aware matrix product against the dense one it replaces."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mirrorkit.rational_linalg import _canonical, Matrix  # noqa: E402

from oracles import dense_matmul  # noqa: E402
from paper_data import L_8, L_8_INV, L_13, L_13_INV, matrix_from_json  # noqa: E402

# mostly zeros, as in the Cayley and difference matrices, with some entries
# far past a machine word
ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))


@st.composite
def _matrix(draw, rows, cols):
    zero_row = [0] * cols
    num = [draw(st.one_of(st.just(zero_row), st.lists(ENTRIES, min_size=cols, max_size=cols)))
           for _ in range(rows)]
    return _canonical(tuple(map(tuple, num)), draw(st.integers(1, 60)))


@st.composite
def _operands(draw):
    rows, inner, cols = (draw(st.integers(1, 7)) for _ in range(3))
    return draw(_matrix(rows, inner)), draw(_matrix(inner, cols))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_operands())
@example((Matrix(((0, 0), (1, 2), (0, 0))), _canonical(((3, 0, 1), (5, 2, 0)), 7)))
@example((_canonical(((2, 0, 0, 4),), 3), Matrix(((0,), (0,), (0,), (0,)))))
def test_matmul_matches_the_dense_product(operands):
    a, b = operands
    got = a @ b
    assert got == dense_matmul(a, b)
    assert (got.rows, got.cols) == (a.rows, b.cols)


def test_matmul_matches_the_dense_product_on_the_paper_matrices():
    for data, inverse in ((L_8, L_8_INV), (L_13, L_13_INV)):
        m, inv = Matrix.from_rows(data), matrix_from_json(inverse)
        assert inv.den > 1
        for a, b in ((m, inv), (inv, m), (m, m), (inv, inv)):
            assert a @ b == dense_matmul(a, b)
        assert m @ inv == inv @ m == Matrix.identity(m.rows)
