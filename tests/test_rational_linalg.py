import math
import random
from fractions import Fraction

import pytest

from mirrorkit.rational_linalg import (
    _eliminate,
    DimensionMismatchError,
    integer_kernel,
    Matrix,
    SingularMatrixError,
    invert,
    primitive_integer_vector,
    ratio_str,
)

from oracles import (
    column,
    entries,
    entry,
    dense_matmul,
    fraction_matrix,
    identity,
    integer_row,
    is_involution,
    rank,
    rat_str,
    right_kernel,
    solve_den,
    solve_many,
    vectors_proportional,
)
from mirrorkit.ci_model import build_cayley
from mirrorkit.pipeline import generate_family
from paper_data import L_8, L_8_INV, L_13, L_13_INV, matrix_from_json

F = Fraction


def _mul_vector(m, v):
    """m v in Fractions, entry by entry: the oracle for a solution or kernel vector."""
    return tuple(sum((a * F(b) for a, b in zip(row, v)), F(0)) for row in entries(m))


def _integer_rows(data):
    """Each row scaled by the LCM of its denominators (the rows _eliminate takes)."""
    out = []
    for row in data:
        d = math.lcm(*(F(x).denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


def _assert_integer_rref(got, ref, rank):
    """got[:rank] is the rational RREF ref[:rank] with each row times its pivot."""
    for g, r in zip(got[:rank], ref[:rank]):
        assert all(type(x) is int for x in g)
        pivot = next(x for x in g if x)
        assert g == [x * pivot for x in r]


def _rank_by_minors(rows):
    """Independent rank oracle: largest r with a nonzero r x r minor."""
    m, n = len(rows), len(rows[0])

    def det(idx_r, idx_c):
        if not idx_r:
            return Fraction(1)
        total = Fraction(0)
        sign = 1
        for pos, c in enumerate(idx_c):
            total += sign * rows[idx_r[0]][c] * det(idx_r[1:], idx_c[:pos] + idx_c[pos + 1:])
            sign = -sign
        return total

    from itertools import combinations
    for r in range(min(m, n), 0, -1):
        for idx_r in combinations(range(m), r):
            for idx_c in combinations(range(n), r):
                if det(idx_r, idx_c) != 0:
                    return r
    return 0


def test_invert_identity():
    assert invert(identity(5)) == identity(5)


def test_invert_printed_8x8():
    m = Matrix.from_rows(L_8)
    expected = matrix_from_json(L_8_INV)
    assert dense_matmul(m, expected) == identity(8)  # the transcription itself
    assert invert(m) == expected


def test_invert_printed_13x13():
    m = Matrix.from_rows(L_13)
    expected = matrix_from_json(L_13_INV)
    assert dense_matmul(m, expected) == identity(13)
    assert invert(m) == expected


def test_invert_quadric_cayley_multiplies_back():
    m = Matrix.from_rows([
        [2, 0, 1, 0, 0],
        [0, 2, 1, 0, 0],
        [0, 0, 1, 0, 1],
        [1, 1, 0, 1, 0],
        [0, 0, 0, 1, 0],
    ])
    inv = invert(m)
    assert dense_matmul(m, inv) == identity(5)
    assert dense_matmul(inv, m) == identity(5)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert(Matrix.from_rows([[1, 1], [1, 1]]))


def test_solve_identity():
    assert solve_many(identity(3), [[1, 2, 3]]) == [(1, 2, 3)]


def test_solve_quadric_transpose_per_z_coefficient():
    # hand back-substitution oracle: xi = ((1-z)/2, (1-z)/2, z, z, 1-z)
    lt = Matrix.from_rows([
        [2, 0, 1, 0, 0],
        [0, 2, 1, 0, 0],
        [0, 0, 1, 0, 1],
        [1, 1, 0, 1, 0],
        [0, 0, 0, 1, 0],
    ]).transpose()
    constants, z_coeffs = solve_many(lt, [[1, 1, 1, 1, 0], [0, 0, 0, 0, 1]])
    assert constants == (Fraction(1, 2), Fraction(1, 2), 0, 0, 1)
    assert z_coeffs == (Fraction(-1, 2), Fraction(-1, 2), 1, 1, -1)


def test_solve_errors():
    assert solve_many(Matrix.from_rows([[1, 1], [1, 1]]), [[1, 0]]) == [None]
    with pytest.raises(DimensionMismatchError):
        solve_many(identity(2), [[1, 2, 3]])


@pytest.mark.parametrize("rows,expected", [
    ([[0, 0, 0]] * 3, 0),
    ([[1 if i == j else 0 for j in range(4)] for i in range(4)], 4),
    ([[1, -1], [-1, 1]], 1),
])
def test_rank_small(rows, expected):
    m = Matrix.from_rows(rows)
    assert rank(m) == expected == _rank_by_minors(entries(m))


def test_rank_row_permutation_invariant():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(5)]
        base = rank(fraction_matrix(rows))
        rng.shuffle(rows)
        assert rank(fraction_matrix(rows)) == base


def test_lcm_of_denominators():
    # den is the least common denominator of the entries
    assert matrix_from_json(L_8_INV).den == 147
    assert matrix_from_json(L_13_INV).den == 27
    assert Matrix.from_rows([[1, 2], [3, 4]]).den == 1
    # normalized matrix needs no further scaling
    scaled = fraction_matrix([[x * 147 for x in row]
                              for row in entries(matrix_from_json(L_8_INV))])
    assert scaled.den == 1
    assert scaled.num == matrix_from_json(L_8_INV).num


def test_invert_random_roundtrip():
    rng = random.Random(11)
    done = 0
    while done < 20:
        n = rng.randint(1, 6)
        m = fraction_matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(n)] for _ in range(n)])
        try:
            inv = invert(m)
        except SingularMatrixError:
            continue
        assert dense_matmul(m, inv) == identity(n)
        assert dense_matmul(inv, m) == identity(n)
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        [x] = solve_many(m, [rhs])
        assert _mul_vector(m, x) == tuple(rhs)
        done += 1


def test_right_kernel_and_general_solve():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = right_kernel(m)
    assert len(basis) == 2
    for vec in basis:
        assert _mul_vector(m, vec) == (0, 0)
    assert integer_kernel(m) == [(-2, 1, 0), (-3, 0, 1)]
    assert solve_many(m, [[1, 2], [1, 3]])[1] is None
    assert solve_many(m, [[1, 2]])[0] is not None


def test_solve_many_matches_per_column_solve_general():
    # rank 2: row 3 = row 1 + row 2, column 3 = column 1 + column 2
    m = Matrix.from_rows([[1, 2, 3, 0], [0, 1, 1, 2], [1, 3, 4, 2]])
    cols = [
        [1, 2, 3],    # consistent
        [1, 2, 4],    # inconsistent
        [0, 0, 0],    # zero right-hand side
        [F(1, 3), F(-2, 7), F(1, 21)],
        [0, 0, 1],    # inconsistent
    ]
    got = solve_many(m, cols)
    assert got == [solve_many(m, [b])[0] for b in cols]
    assert [x is None for x in got] == [False, True, False, False, True]
    assert got[2] == (0, 0, 0, 0)
    for x, b in zip(got, cols):
        if x is not None:
            assert _mul_vector(m, x) == tuple(F(v) for v in b)
            assert x[2] == 0 and x[3] == 0   # free columns set to zero
    assert solve_many(m, []) == []


def test_solve_many_random_columns():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        rhs = [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(rng.randint(1, 4))]
        # a column in the range of m is always consistent
        rhs.append(list(_mul_vector(m, [F(rng.randint(-3, 3)) for _ in range(cols)])))
        got = solve_many(m, rhs)
        assert got == [solve_many(m, [b])[0] for b in rhs]
        assert got[-1] is not None
        for x, b in zip(got, rhs):
            consistent = rank(fraction_matrix([list(r) + [v] for r, v in
                                               zip(entries(m), b)])) == rank(m)
            assert (x is not None) == consistent
            if x is not None:
                assert _mul_vector(m, x) == tuple(F(v) for v in b)


def test_solve_many_shape_mismatch():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatchError):
        solve_many(m, [[1, 2], [1, 2, 3]])


def _random_matrix(rng, rows, cols, max_den=1):
    """Entries in [-4, 4], over denominators up to max_den when it is above 1;
    about a third get a row that combines two others."""
    def den():
        return rng.randint(1, max_den) if max_den > 1 else 1

    data = [[F(rng.randint(-4, 4), den()) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.35:
        a, b, c = rng.sample(range(rows), 3)
        s, t = F(rng.randint(-2, 2), den()), rng.randint(-2, 2)
        data[a] = [s * x + t * y for x, y in zip(data[b], data[c])]
    return data


def _sympy_cases(count, seed, square=False, max_den=1):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 12)
        cols = rows if square else rng.randint(1, 12)
        yield rng, _random_matrix(rng, rows, cols, max_den)


def _sympy_fraction(x):
    return F(int(x.p), int(x.q))


def test_invert_and_rank_match_sympy():
    _check_invert_and_rank_against_sympy(_sympy_cases(40, 2024, square=True))


def test_invert_and_rank_match_sympy_rational_entries():
    _check_invert_and_rank_against_sympy(_sympy_cases(40, 2034, square=True, max_den=6))


def _check_invert_and_rank_against_sympy(cases):
    sympy = pytest.importorskip("sympy")
    singular = 0
    for _, data in cases:
        m = fraction_matrix(data)
        ref = sympy.Matrix(data)
        assert rank(m) == ref.rank()
        if ref.det() == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            inv = ref.inv()
            assert invert(m) == fraction_matrix(
                [[_sympy_fraction(x) for x in inv.row(i)] for i in range(inv.rows)])
    assert singular >= 5


def test_right_kernel_matches_sympy():
    _check_right_kernel_against_sympy(_sympy_cases(40, 2025))


def test_right_kernel_matches_sympy_rational_entries():
    _check_right_kernel_against_sympy(_sympy_cases(40, 2035, max_den=6))


def _check_right_kernel_against_sympy(cases):
    sympy = pytest.importorskip("sympy")
    for _, data in cases:
        ref = [tuple(_sympy_fraction(x) for x in v) for v in sympy.Matrix(data).nullspace()]
        # both take one vector per free column, with a 1 there and 0 at other free columns
        assert right_kernel(fraction_matrix(data)) == ref


def test_solve_many_matches_sympy():
    _check_solve_many_against_sympy(_sympy_cases(30, 2026), max_den=1)


def test_solve_many_matches_sympy_rational_entries():
    _check_solve_many_against_sympy(_sympy_cases(30, 2036, max_den=6), max_den=6)


def _check_solve_many_against_sympy(cases, max_den):
    sympy = pytest.importorskip("sympy")
    inconsistent = 0
    for rng, data in cases:
        rows = len(data)
        rhs = [[F(rng.randint(-5, 5), rng.randint(1, max_den) if max_den > 1 else 1)
                for _ in range(rows)] for _ in range(3)]
        ref = sympy.Matrix(data)
        for b, got in zip(rhs, solve_many(fraction_matrix(data), rhs)):
            try:
                sol, params = ref.gauss_jordan_solve(sympy.Matrix(b))
            except ValueError:
                inconsistent += 1
                assert got is None
                continue
            sol = sol.subs({p: 0 for p in params})
            assert got == tuple(_sympy_fraction(x) for x in sol)
    assert inconsistent >= 5


def _fraction_gauss_jordan(rows, ncols):
    """Reference elimination in Fractions: the loop the integer kernel replaced.

    Same pivot rule (first nonzero row at or below the rank) and the same
    early stop once every row holds a pivot.
    """
    rank = 0
    pivots = []
    nrows = len(rows)
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots


def _elimination_cases(seed, count):
    """(rows, ncols): rational entries, rectangular and rank-deficient shapes,
    zero rows, and augmented columns (ncols below the width)."""
    rng = random.Random(seed)
    for i in range(count):
        rows, width = rng.randint(1, 9), rng.randint(1, 9)
        data = _random_matrix(rng, rows, width, max_den=rng.choice((1, 3, 12)))
        if rng.random() < 0.3:
            data[rng.randrange(rows)] = [F(0)] * width
        if rows > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(rows), 2)
            data[a] = [F(rng.randint(-3, 3), rng.randint(1, 5)) * x for x in data[b]]
        yield data, rng.randint(0, width) if i % 3 == 0 else width


def test_eliminate_matches_fraction_gauss_jordan():
    deficient = augmented = 0
    for data, ncols in _elimination_cases(7, 400):
        got = _integer_rows(data)
        ref = [list(r) for r in data]
        rank_got, pivots_got = _eliminate(got, ncols)
        rank_ref, pivots_ref = _fraction_gauss_jordan(ref, ncols)
        assert (rank_got, pivots_got) == (rank_ref, pivots_ref)
        _assert_integer_rref(got, ref, rank_got)
        # rows past the rank are scaled: only their zero pattern is kept
        assert [[x != 0 for x in r] for r in got[rank_got:]] == \
            [[x != 0 for x in r] for r in ref[rank_ref:]]
        deficient += rank_ref < min(len(data), ncols)
        augmented += any(any(x != 0 for x in r) for r in ref[rank_ref:])
    assert deficient >= 50 and augmented >= 20


def _dense_eliminate(rows, ncols):
    """Reference: the dense fraction-free update, every column of every row.

    The kernel restricts ``a*row - b*pivot_row`` to the pivot row's support;
    the rows must come out the same, entry for entry.
    """
    work = [_primitive_ref(row) for row in rows]
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
                work[r] = _primitive_ref([a * x - b * y for x, y in zip(work[r], prow)])
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    rows[:] = work
    return rank, pivots


def _primitive_ref(ints):
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else list(ints)


def _dense_oracle_cases(seed):
    """(name, integer rows, ncols) covering the shapes the kernel meets."""
    rng = random.Random(seed)
    for _ in range(60):
        # tall and rank-deficient: a random (rows x r) times (r x width) product
        r, width = rng.randint(1, 4), rng.randint(2, 8)
        rows = rng.randint(width, width + 6)
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(r)]
        yield "tall", [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)]
                       for lr in left], width
    for _ in range(60):
        n = rng.randint(1, 9)
        m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        yield "identity-augmented", [row + [int(i == j) for j in range(n)]
                                     for i, row in enumerate(m)], n
        rhs = rng.randint(1, 4)
        yield "rhs-augmented", [row + [rng.randint(-9, 9) for _ in range(rhs)]
                                for row in m], n
    for _ in range(60):
        rows, width = rng.randint(1, 12), rng.randint(1, 12)
        yield "sparse", [[rng.choice((0,) * 6 + (1, -1)) for _ in range(width)]
                         for _ in range(rows)], width
    for _ in range(40):
        n = rng.randint(1, 7)
        yield "dense", [[rng.randint(-10**6, 10**6) for _ in range(n + 2)]
                        for _ in range(n)], n
    for _ in range(30):
        rows, width = rng.randint(2, 8), rng.randint(1, 8)
        data = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(1, rows - 1)):
            data[i] = [0] * width
        yield "zero-rows", data, rng.randint(0, width)
    for rows, width in ((1, 1), (3, 5), (6, 2)):
        yield "all-zero", [[0] * width for _ in range(rows)], width


def test_eliminate_matches_the_dense_update():
    seen = set()
    for name, data, ncols in _dense_oracle_cases(11):
        got, ref = [list(r) for r in data], [list(r) for r in data]
        assert _eliminate(got, ncols) == _dense_eliminate(ref, ncols), name
        assert got == ref, name
        seen.add(name)
    for data in (L_8, L_13):
        n = len(data)
        got = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(data)]
        ref = [list(r) for r in got]
        assert _eliminate(got, n) == _dense_eliminate(ref, n)
        assert got == ref
    assert len(seen) == 7


def test_eliminate_on_the_paper_matrices():
    for data in (L_8, L_13):
        width = len(data) * 2
        got = [list(row) + [int(i == j) for j in range(len(data))]
               for i, row in enumerate(data)]
        ref = [[F(x) for x in r] for r in got]
        assert _eliminate(got, width) == _fraction_gauss_jordan(ref, width)
        _assert_integer_rref(got, ref, len(data))


def test_matmul_matches_fraction_product():
    rng = random.Random(9)
    for _ in range(60):
        rows, inner, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(inner)]
             for _ in range(rows)]
        b = [[F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(cols)]
             for _ in range(inner)]
        if rng.random() < 0.3:
            b[rng.randrange(inner)] = [rng.randint(-3, 3) for _ in range(cols)]  # int entries
        got = dense_matmul(fraction_matrix(a), fraction_matrix(b))
        naive = tuple(tuple(sum((a[i][t] * b[t][j] for t in range(inner)), F(0))
                            for j in range(cols)) for i in range(rows))
        assert got == fraction_matrix(naive)   # canonical num / den
        assert entries(got) == naive
        assert all(isinstance(x, F) for row in entries(got) for x in row)


def test_primitive_and_proportional():
    assert primitive_integer_vector(integer_row([Fraction(2, 3), Fraction(4, 3)])[0]) == (1, 2)
    assert primitive_integer_vector([4, -6, 0]) == (2, -3, 0)
    assert vectors_proportional([Fraction(1), Fraction(2)], [Fraction(3), Fraction(6)])
    assert not vectors_proportional([Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)])
    assert not vectors_proportional([Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)])


def test_permutation_map():
    from mirrorkit.rational_linalg import NotAPermutationError, PermutationMap
    p = PermutationMap((2, 1, 3))
    assert p.images[0] == 2 and p.images[2] == 3
    assert is_involution(p) and not p.is_identity()
    assert not is_involution(PermutationMap((2, 3, 1)))
    assert dense_matmul(p.matrix(), p.matrix()) == identity(3)
    with pytest.raises(NotAPermutationError):
        PermutationMap((1, 1, 3))
    with pytest.raises(NotAPermutationError):
        PermutationMap((1, 2, 4))


def test_rational_serialization():
    assert rat_str(Fraction(19, 147)) == "19/147"
    assert rat_str(Fraction(-3)) == "-3"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    assert rat_str(5) == "5" and rat_str(0) == "0"
    assert all(ratio_str(p, q) == rat_str(Fraction(p, q))
               for p in range(-13, 14) for q in range(1, 13))
    m = matrix_from_json(L_8_INV)
    assert matrix_from_json(m.to_json()) == m
    assert m.to_json() == [[str(x) for x in row] for row in L_8_INV]


def test_to_json_renders_each_distinct_entry_as_its_cell_would(spec_6_2):
    # each distinct numerator is rendered once and shared by its cells: the
    # strings are the per-cell ratio_str, on inverses with repeated entries,
    # random matrices and the empty ones
    rng = random.Random(7)
    matrices = [invert(build_cayley(spec).matrix)
                for spec in (spec_6_2, generate_family(3), generate_family(7))]
    matrices += [Matrix(tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(3)),
                        rng.randint(1, 12)) for _ in range(50)]
    matrices += [Matrix(()), Matrix(((), ()))]
    for m in matrices:
        assert m.to_json() == [[ratio_str(x, m.den) for x in row] for row in m.num]
    assert len({x for row in matrices[2].num for x in row}) == 10


def test_from_rows_gives_integer_rows_over_the_least_denominator():
    # Fraction rows are the oracle's (fraction_matrix); from_rows takes int rows only
    rows = [[F(3, 7), 2], [0, F(-1, 14)]]
    with pytest.raises(TypeError, match="must be an int, got Fraction"):
        Matrix.from_rows(rows)
    m = fraction_matrix(rows)
    assert (m.num, m.den) == (((6, 28), (0, -1)), 14)
    assert entries(m) == ((F(3, 7), F(2)), (F(0), F(-1, 14)))   # the view equals the input
    assert entry(m, 1, 1) == F(-1, 14) and column(m, 0) == (F(3, 7), 0)
    ints = [[1, -2], [3, 0]]
    assert Matrix.from_rows(ints).num == ((1, -2), (3, 0)) and Matrix.from_rows(ints).den == 1
    # equal rationals, however written, give equal matrices and hashes
    same = fraction_matrix([[F(6, 14), F(4, 2)], [F(0, 5), F(2, -28)]])
    assert same == m and hash(same) == hash(m)
    assert fraction_matrix([[F(2), 4]]) == Matrix.from_rows([[2, 4]])
    assert fraction_matrix([[F(1, 2)]]) != fraction_matrix([[F(1, 3)]])
    rng = random.Random(3)
    for _ in range(200):
        data = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)] for _ in range(2)]
        m = fraction_matrix(data)
        assert entries(m) == tuple(map(tuple, data))
        assert m.den == math.lcm(*(x.denominator for row in data for x in row))
        assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1
        assert all(type(x) is int for row in m.num for x in row)


def test_invert_of_a_cayley_matrix_builds_no_fraction(monkeypatch, spec_6_1, spec_6_2, quadric):
    from mirrorkit.ci_model import build_cayley
    count = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    for spec in (spec_6_1, spec_6_2, quadric):
        matrix = build_cayley(spec).matrix
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        inverse = invert(matrix)
        assert count == 0
        Fraction(1, 2)   # the counter does see a construction
        assert count == 1
        monkeypatch.undo()
        count = 0
        assert dense_matmul(matrix, inverse) == identity(matrix.rows)


def test_kernel_and_solution_denominators():
    m = Matrix.from_rows([[2, 4, 1], [0, 3, 3]])
    # integer_kernel is right_kernel scaled to coprime integers, positive at the free column
    for vec, ints in zip(right_kernel(m), integer_kernel(m)):
        assert primitive_integer_vector(integer_row(vec)[0]) == ints
    rhs = [[1, 1], [F(1, 2), 0], [2, 7]]
    cols, den, r = solve_den(m, rhs)
    solutions = solve_many(m, rhs)
    assert den == math.lcm(*(x.denominator for col in solutions for x in col)) == 12
    assert [tuple(F(x, den) for x in c) for c in cols] == solutions
    assert r == rank(m) == 2
    # the third value is the rank of m, whatever the right-hand sides
    assert solve_den(Matrix.from_rows([[1, 1], [1, 1]]), [[1, 0]]) == ([None], 1, 1)
    assert solve_den(identity(2), [[2, 4]]) == ([(2, 4)], 1, 2)
    # the pivot 2 does not survive into the denominator of x = (1, 0)
    assert solve_den(Matrix.from_rows([[2, 1]]), [[2]]) == ([(1, 0)], 1, 1)


def test_from_rows_cayley_entries_are_fractions(spec_6_1, spec_6_2, quadric):
    # a Cayley matrix is int rows over 1; its entries read as Fractions in the oracle view
    from mirrorkit.ci_model import build_cayley
    for spec in (spec_6_1, spec_6_2, quadric):
        m = build_cayley(spec).matrix
        assert m.den == 1 and all(type(e) is int for row in m.num for e in row)
        assert all(type(e) is Fraction for row in entries(m) for e in row)


@pytest.mark.parametrize("entry", [0.5, True, False, "1", 1.0])
def test_from_rows_rejects_other_entry_types(entry):
    with pytest.raises(TypeError):
        Matrix.from_rows([[entry]])
    with pytest.raises(TypeError):
        Matrix.from_rows([[1, 2], [3, entry]])
