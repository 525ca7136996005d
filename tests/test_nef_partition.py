import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from mirrorkit.ci_model import (
    Block,
    CISpec,
    WeightSystem,
    build_cayley,
    derive_weights,
    difference_matrix,
    validate,
)
from mirrorkit.mellin import solve_xi
from mirrorkit.nef_partition import (
    LatticePolytope,
    _closed_form_duals,
    _kernel_basis,
    build_deltas,
    magic_square_check,
    pairing_flags,
    solve_dual_partition,
)
from mirrorkit.pipeline import MirrorPair, generate_family
from mirrorkit.record import replace
from mirrorkit.rational_linalg import (
    Matrix,
    integer_kernel,
    invert,
)
from mirrorkit.transposition import InternalInvariantError, NoValidShapeError, TranspositionError

from oracles import (
    column,
    columns,
    dense_matmul,
    double_transpose,
    duals,
    entries,
    i_coeffs,
    minkowski_dim,
    pivot_columns,
    rank,
    sigma_dual_generators,
    solve_den,
    support_phi,
    z_coeffs,
)
from specgen import (generate_valid_specs, nonsingular_cayley_specs, oracle_specs,
                     random_cayley_spec, singular_cayley_specs)

F = Fraction

FAMILIES = [generate_family(m) for m in range(3, 13)]
SEEDED = generate_valid_specs(200)


def test_build_deltas_quadric(quadric):
    deltas = build_deltas(quadric, derive_weights(quadric))
    assert deltas[0].vertices == ((0, 0), (1, -1), (-1, 1))
    assert deltas[0].kernel_basis == ((-1, 1),) or deltas[0].kernel_basis == ((1, -1),)


def test_build_deltas_6_2(spec_6_2):
    deltas = build_deltas(spec_6_2, derive_weights(spec_6_2))
    assert deltas[0].vertices == (
        (0, 0, 0, 0, 0),
        (6, -1, -1, -1, -1),
        (-1, 6, -1, 0, -1),
        (-1, -1, 6, -1, 0),
        (-1, -1, -1, 2, -1),
        (-1, -1, -1, -1, 2),
    )


def _indicator_spec() -> CISpec:
    # both blocks consist of their own indicator monomial
    return CISpec(n=2, k=2, blocks=(
        Block(exponents=((1, 0),), index_set=(1,)),
        Block(exponents=((0, 1),), index_set=(2,)),
    ))


def test_build_deltas_indicator_block_is_origin():
    spec = _indicator_spec()
    deltas = build_deltas(spec, derive_weights(spec))
    assert deltas[0].vertices == ((0, 0),)
    assert deltas[1].vertices == ((0, 0),)


def test_minkowski_dim(quadric, spec_6_2):
    for spec, expected in ((quadric, 1), (spec_6_2, 4)):
        dim = minkowski_dim(build_deltas(spec, derive_weights(spec)))
        assert dim == expected == spec.n - spec.k


def test_minkowski_dim_degenerate_flagged():
    # repeated directions span too little
    poly = LatticePolytope(3, ((0, 0, 0), (1, -1, 0), (2, -2, 0)), ())
    assert minkowski_dim([poly]) == 1   # a full sum would span 2


def test_support_phi_quadric(quadric):
    deltas = build_deltas(quadric, derive_weights(quadric))
    assert support_phi(deltas, 1, (F(1), F(0))) == 1
    assert support_phi(deltas, 1, (F(0), F(0))) == 0


def test_support_phi_rational_argument(spec_6_2):
    deltas = build_deltas(spec_6_2, derive_weights(spec_6_2))
    for y in [(F(1, 3), F(-2, 7), F(0), F(5, 2), F(-1)), (1, 0, 0, 0, 0), (0,) * 5]:
        expected = -min(sum(F(a) * F(b) for a, b in zip(v, y)) for v in deltas[0].vertices)
        assert support_phi(deltas, 1, y) == expected


def _greedy_section(n, k, weights):
    """Oracle: add e_0, e_1, ... whenever it raises the rank, until n - k are chosen."""
    rows = [list(v) for v in weights.vectors]
    chosen = []
    for i in range(n):
        candidate = rows + [[int(j == i) for j in range(n)]]
        if rank(Matrix.from_rows(candidate)) > len(rows):
            rows = candidate
            chosen.append(i)
        if len(chosen) == n - k:
            break
    return chosen


def _section(pair):
    """The coordinate section of the run's nef solve: the nonzero rows of its P.

    Row j of P is zero exactly when j is the last support position of a
    weight vector (`_closed_form_duals`), and the section is every other
    position.
    """
    return [j for j, row in enumerate(pair.nef.p_matrix.num) if any(row)]


def test_section_indices_match_greedy_completion():
    checked = 0
    for spec in FAMILIES + SEEDED:
        pair = MirrorPair(spec)
        try:
            section = _section(pair)
        except TranspositionError:
            continue
        assert section == _greedy_section(spec.n, spec.k, pair.weights)
        checked += 1
    assert checked == 70


def _pivot_section(kernel_basis):
    """Oracle: the pivot columns of the weight-kernel basis, as rows.

    The basis maps Q^n onto Q^n / span(weights), column i being the image
    of e_i, so its pivot columns are the greedy lowest-index completion.
    """
    return pivot_columns(Matrix.from_rows(kernel_basis))


def test_coordinate_section_is_the_pivot_columns_of_the_kernel_basis(fixtures_dir):
    for _, pair in _nef_sides(fixtures_dir):
        assert _section(pair) == _pivot_section(_kernel_basis(pair.weights))


def test_kernel_basis_is_the_integer_kernel_of_the_weights(fixtures_dir):
    # the closed form against the elimination it replaces, on both sides of
    # every spec whose transposition succeeds
    specs, checked = oracle_specs(fixtures_dir), 0
    for spec in specs:
        pair = MirrorPair(spec)
        sides = [pair.weights]
        try:
            sides.append(pair.tweights)
        except TranspositionError:
            pass
        for weights in sides:
            assert _kernel_basis(weights) == tuple(integer_kernel(Matrix(weights.vectors)))
            checked += 1
    assert len(specs) == 216 and checked == 216 + 76


def _transported_target(spec, tr) -> Matrix:
    """Oracle: the transposed difference matrix carried back onto the original rows.

    Entry (i, c) is row c of difference_matrix(tr.tspec) at the variable that
    carries original monomial i, through row_to_var and i_lambda.
    """
    t_diff = difference_matrix(tr.tspec).num
    i_lam = spec.i_lambda()
    var_of = dict(tr.row_to_var)
    return Matrix(tuple(tuple(t_diff[c][var_of[i_lam[i]] - 1] for c in range(spec.n))
                        for i in range(spec.n)))


def test_nef_target_is_the_transpositions_matrix(fixtures_dir):
    transposable = 0
    for spec in oracle_specs(fixtures_dir):
        try:
            tr = MirrorPair(spec).tr
        except TranspositionError:
            continue
        assert tr.diff.transpose() == _transported_target(spec, tr)
        transposable += 1
    assert transposable == 76


def test_solve_rank_is_the_minkowski_dimension(fixtures_dir):
    # the rank of the sectioned solve, with or without the nef target, is
    # the dimension minkowski_dim finds by its own elimination
    for spec, pair in _nef_sides(fixtures_dir):
        section = _section(pair)
        a_cols = Matrix(tuple(tuple(row[j] for j in section)
                              for row in difference_matrix(spec).num))
        dim = minkowski_dim(build_deltas(spec, pair.weights))
        for target in (pair.tr.diff.num, ()):
            assert solve_den(a_cols, target)[2] == dim == spec.n - spec.k


def test_every_side_of_a_transposition_has_rank_n_minus_k(fixtures_dir):
    # the lemma the closed form rests on: build_transpose returns only a
    # transposition whose weight kernel has dimension k, and its difference
    # matrix is the spec's transposed with rows permuted, so the spec, the
    # transposed spec and the double transpose all have rank n - k, singular
    # Cayley matrix or not
    transposed = 0
    for spec in oracle_specs(fixtures_dir) + singular_cayley_specs():
        pair = MirrorPair(spec)
        try:
            tr = pair.tr
        except TranspositionError:
            continue
        tr2 = double_transpose(pair)
        tspec2 = tr2.tspec
        assert rank(tr.diff) == rank(tr2.diff) == spec.n - spec.k
        for side, weights in ((spec, pair.weights), (tr.tspec, pair.tweights),
                              (tspec2, WeightSystem(tspec2.weights))):
            dim = minkowski_dim(build_deltas(side, weights))
            assert rank(side.diff) == dim == side.n - side.k
        transposed += 1
    assert transposed == 76 + len(singular_cayley_specs())


def _nef_sides(fixtures_dir):
    """(spec, pair) for every oracle spec whose run reaches the nef stage."""
    sides = []
    for spec in oracle_specs(fixtures_dir):
        pair = MirrorPair(spec)
        try:
            pair.tr
        except TranspositionError:
            continue
        sides.append((spec, pair))
    assert len(sides) == 76
    return sides


def _certificate_specs(fixtures_dir):
    """The oracle set (with the families m = 1..12), the first 300 nonsingular
    random specs, 300 seeded random_cayley_spec draws with k <= 3 and the
    families m = 13..20."""
    draws = (random_cayley_spec(random.Random(44000 + i), 3, 3) for i in range(300))
    return (oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300)
            + [spec for spec in draws if spec is not None]
            + [generate_family(m) for m in range(13, 21)])


def test_dual_vertices_solve_a_p_equals_t(fixtures_dir):
    # the nef-partition duality A * P = T, in integers over P.den, on every
    # spec whose run reaches the nef stage: the property the closed form's
    # certificate proves, checked on its output
    reached = 0
    for spec in _certificate_specs(fixtures_dir):
        pair = MirrorPair(spec)
        if not validate(spec, pair).hard_ok:
            continue
        try:
            p = pair.nef.p_matrix
        except TranspositionError:
            continue
        a_p = dense_matmul(spec.diff, Matrix(p.num))
        assert a_p.num == tuple(tuple(p.den * t for t in row)
                                for row in pair.tr.diff.transpose().num)
        reached += 1
    assert reached == 213


def test_target_is_the_difference_matrix_with_columns_permuted_by_lambda(fixtures_dir):
    # T[i][c] = A[i][lambda(c) - 1], against the transported oracle as well
    for spec, pair in _nef_sides(fixtures_dir):
        a_rows, lam = difference_matrix(spec).num, pair.tr.lam.images
        permuted = Matrix(tuple(tuple(row[j - 1] for j in lam) for row in a_rows))
        assert pair.tr.diff.transpose() == permuted == _transported_target(spec, pair.tr)


def test_closed_form_duals_are_the_solved_ones(fixtures_dir):
    # the closed form against one elimination of [A_section | T]: the same
    # integer columns over the same least common denominator
    for spec, pair in _nef_sides(fixtures_dir):
        section = _section(pair)
        a_rows = difference_matrix(spec).num
        sols, scale, dim = solve_den(
            Matrix(tuple(tuple(row[j] for j in section) for row in a_rows)), pair.tr.diff.num)
        assert dim == spec.n - spec.k
        cols = []
        for sol in sols:
            full = [0] * spec.n
            for j, x in zip(section, sol):
                full[j] = x
            cols.append(full)
        closed = _closed_form_duals(a_rows, pair.tr, pair.weights)
        assert closed == Matrix(tuple(zip(*cols)), scale)
        assert closed == pair.nef.p_matrix


def test_integral_section_exactly_when_the_last_support_weights_are_one(fixtures_dir):
    # the closed form's denominator is the LCM of w_q at its last support
    # position, over the gcd of w_q
    outcomes = set()
    for _, pair in _nef_sides(fixtures_dir):
        lasts = [w[max(i for i, g in enumerate(w) if g)] for w in pair.weights.vectors]
        integral = pair.nef.flags["integral_P_section"]
        assert integral == all(g == 1 for g in lasts)
        outcomes.add(integral)
    assert outcomes == {True, False}


ROW_CLAUSE = "nef certificate: row c of tr.diff is not column lambda(c) of A"
KER_CLAUSE = "nef certificate: a weight vector is not in ker A"


def test_closed_form_refuses_data_that_does_not_certify(spec_6_1):
    # a target other than A with permuted columns, or weights outside ker A:
    # an internal error naming the clause
    pair = MirrorPair(spec_6_1)
    tr, weights, a_rows = pair.tr, pair.weights, spec_6_1.diff.num
    assert isinstance(_closed_form_duals(a_rows, tr, weights), Matrix)
    num = [list(row) for row in tr.diff.num]
    num[0][0] += 1
    with pytest.raises(InternalInvariantError) as exc:
        _closed_form_duals(a_rows, replace(tr, diff=Matrix(tuple(map(tuple, num)))), weights)
    assert str(exc.value) == ROW_CLAUSE
    w = [list(v) for v in weights.vectors]
    w[0][0] += 1
    with pytest.raises(InternalInvariantError) as exc:
        _closed_form_duals(a_rows, tr, WeightSystem(tuple(map(tuple, w))))
    assert str(exc.value) == KER_CLAUSE
    # P does not depend on how the weight lines are scaled
    doubled = WeightSystem(tuple(tuple(2 * g for g in v) for v in weights.vectors))
    assert _closed_form_duals(a_rows, tr, doubled) == _closed_form_duals(a_rows, tr, weights)


def _fraction_flags(spec, nef):
    """Oracle for the pairing flags: the clauses evaluated on the rational vertices."""
    a_rows = entries(difference_matrix(spec))
    flags = {
        "phi_kronecker": all(
            -min(sum(F(a) * b for a, b in zip(v, m)) for v in nef.deltas[q - 1].vertices)
            == (1 if q == l else 0)
            for l, grp in enumerate(duals(nef), start=1) for m in grp
            for q in range(1, spec.k + 1)),
        "cone_pairings_nonnegative": all(
            sum(F(a) * b for a, b in zip(v, m)) >= 0
            for v in nef.sigma_generators for m in sigma_dual_generators(nef)),
    }
    off, own, cross = True, True, True
    j_indices = {}
    for l, grp in enumerate(duals(nef), start=1):
        for r, m in enumerate(grp, start=1):
            for q in range(1, spec.k + 1):
                vals = [sum(a * b for a, b in zip(a_rows[spec.b(q - 1) + j], m))
                        for j in range(spec.taus[q - 1])]
                if q == l:
                    odd = [j for j, v in enumerate(vals, start=1) if v != -1]
                    off &= len(odd) <= 1
                    own &= not odd
                else:
                    odd = [j for j, v in enumerate(vals, start=1) if v != 0]
                    cross &= len(odd) <= 1 and all(vals[j - 1] > 0 for j in odd)
                if odd:
                    j_indices[(l, r, q)] = odd[0]
    flags["five_six_1_off_vertex"] = off
    flags["five_six_2_own_vertex"] = own
    flags["five_six_34_cross_block"] = cross
    return flags, j_indices


def test_integer_pairings_match_rational_evaluation():
    checked = 0
    non_integral = 0
    for spec in FAMILIES[:6] + SEEDED:
        pair = MirrorPair(spec)
        try:
            nef = solve_dual_partition(spec, pair.tr, pair.weights, pair.tweights)
        except NoValidShapeError:
            continue
        flags, j_indices = _fraction_flags(spec, nef)
        assert {name: nef.flags[name] for name in flags} == flags
        assert nef.j_indices == j_indices
        assert nef.pairings == dense_matmul(difference_matrix(spec), nef.p_matrix)
        checked += 1
        non_integral += not nef.flags["integral_P_section"]
    assert checked >= 50 and non_integral >= 1


# (false, true) counts of every nef flag over the specs that reach the nef
# stage; a change to any flag's truth table shows up here as a reviewed diff
NEF_FLAG_CENSUS = {
    "seeded": (60, {
        "minkowski_dim": (0, 60), "integral_P_section": (1, 59),
        "integral_P_exists": (0, 60), "phi_kronecker": (55, 5),
        "cone_pairings_nonnegative": (0, 60), "five_six_1_off_vertex": (3, 57),
        "five_six_2_own_vertex": (60, 0), "five_six_34_cross_block": (0, 60),
        "lemma52_G_identity": (1, 59), "lemma52_TG_identity": (1, 59),
        "lemma52_lambda_identity": (9, 51)}),
    "families": (11, {
        "minkowski_dim": (0, 11), "integral_P_section": (0, 11),
        "integral_P_exists": (0, 11), "phi_kronecker": (0, 11),
        "cone_pairings_nonnegative": (0, 11), "five_six_1_off_vertex": (0, 11),
        "five_six_2_own_vertex": (11, 0), "five_six_34_cross_block": (0, 11),
        "lemma52_G_identity": (0, 11), "lemma52_TG_identity": (0, 11),
        "lemma52_lambda_identity": (11, 0)}),
    "fixtures": (4, {
        "minkowski_dim": (0, 4), "integral_P_section": (2, 2),
        "integral_P_exists": (0, 4), "phi_kronecker": (0, 4),
        "cone_pairings_nonnegative": (0, 4), "five_six_1_off_vertex": (2, 2),
        "five_six_2_own_vertex": (4, 0), "five_six_34_cross_block": (0, 4),
        "lemma52_G_identity": (2, 2), "lemma52_TG_identity": (2, 2),
        "lemma52_lambda_identity": (1, 3)}),
}


def test_nef_flag_census(spec_6_1, spec_6_2, quadric, corrupted):
    sets = {"seeded": SEEDED, "families": [generate_family(2)] + FAMILIES,
            "fixtures": [spec_6_1, spec_6_2, quadric, corrupted]}
    for name, specs in sets.items():
        reached, counts = 0, {}
        for spec in specs:
            pair = MirrorPair(spec)
            try:
                nef = solve_dual_partition(spec, pair.tr, pair.weights, pair.tweights)
            except TranspositionError:
                continue
            reached += 1
            for flag, value in nef.flags.items():
                false_true = counts.setdefault(flag, [0, 0])
                false_true[value] += 1
        assert (reached, {f: tuple(c) for f, c in counts.items()}) == NEF_FLAG_CENSUS[name]


# hand-built targets: rows in blocks of 3 and 2, dual vertices 0-2 owned by
# block 1 and 3-4 by block 2; T[i][c] = -1 on the own block, 0 across
HAND_TAUS = (3, 2)
HAND_DUALS = ((0, 1, 2), (3, 4))
FLAG_NAMES = ("phi_kronecker", "cone_pairings_nonnegative", "five_six_1_off_vertex",
              "five_six_2_own_vertex", "five_six_34_cross_block")


def _hand_target(**entries):
    t = [[-1 if (i < 3) == (c < 3) else 0 for c in range(5)] for i in range(5)]
    for key, value in entries.items():   # t<i><c>=value
        t[int(key[1])][int(key[2])] = value
    return t


def _hand_flags(t):
    flags, j_indices = pairing_flags(t, HAND_TAUS, HAND_DUALS)
    assert tuple(flags) == FLAG_NAMES
    return {name for name, value in flags.items() if not value}, j_indices


def test_pairing_flags_all_hold_on_the_kronecker_target():
    assert _hand_flags(_hand_target()) == (set(), {})


def test_pairing_flags_negative_own_pairing():
    # <diff_0, dual_0> = -2: the cone pairing -2 + 1 is negative and phi_1 is 2
    assert _hand_flags(_hand_target(t00=-2)) == (
        {"cone_pairings_nonnegative", "phi_kronecker", "five_six_2_own_vertex"},
        {(1, 1, 1): 1})


def test_pairing_flags_negative_cross_pairing():
    # row 3 (block 2) pairs to -1 with a vertex of block 1: a negative cone
    # pairing, phi_2 = 1 off the diagonal and a negative cross-block j
    assert _hand_flags(_hand_target(t30=-1)) == (
        {"cone_pairings_nonnegative", "phi_kronecker", "five_six_34_cross_block"},
        {(1, 1, 2): 1})


def test_pairing_flags_two_cross_block_nonzeros():
    # two positive cross-block pairings: no single j_q, the cone still holds
    assert _hand_flags(_hand_target(t31=1, t41=2)) == ({"five_six_34_cross_block"}, {})


def test_pairing_flags_two_own_block_exceptions():
    # vertex 1 of block 1 pairs (0, -1, 2) with its own rows: phi_1 is still 1
    assert _hand_flags(_hand_target(t01=0, t21=2)) == (
        {"five_six_1_off_vertex", "five_six_2_own_vertex"}, {(1, 2, 1): 1})


def test_pairing_flags_phi_not_kronecker():
    # vertex 0 of block 2 pairs to 0 with both of its own rows: phi_2 is 0, not 1
    assert _hand_flags(_hand_target(t33=0, t43=0)) == (
        {"phi_kronecker", "five_six_1_off_vertex", "five_six_2_own_vertex"},
        {(2, 1, 2): 1})


def _shift_exists_by_search(col, weights):
    """Can the Fraction column be shifted by real multiples of the weight
    vectors into Z^n?  Per block, one period of the finest admissible step c
    searched exhaustively."""
    for vec in weights.vectors:
        support = [(g, col[i]) for i, g in enumerate(vec) if g]
        if all(p.denominator == 1 for _, p in support):
            continue
        step = math.lcm(*(g * p.denominator for g, p in support))
        if not any(all((F(j, step) * g + p).denominator == 1 for g, p in support)
                   for j in range(step)):
            return False
    return True


def test_integral_representative_closed_form_matches_search(spec_6_1, spec_6_2, quadric,
                                                             corrupted):
    # why integral_P_exists is True by construction: column c of P is e_j,
    # j = lambda(c) - 1, or e_j - w_q / w_q[j] where j is the last support
    # position of w_q, so adding w_q / w_q[j] in that case gives e_j
    reached = shifted = 0
    for spec in SEEDED + [generate_family(2)] + FAMILIES + [spec_6_1, spec_6_2, quadric,
                                                            corrupted]:
        pair = MirrorPair(spec)
        try:
            nef = solve_dual_partition(spec, pair.tr, pair.weights, pair.tweights)
        except TranspositionError:
            continue
        reached += 1
        assert nef.flags["integral_P_exists"]
        p, vectors = nef.p_matrix, pair.weights.vectors
        for c, lam_c in enumerate(pair.tr.lam.images):
            col, j = column(p, c), lam_c - 1
            assert _shift_exists_by_search(col, pair.weights)
            w = next(w for w in vectors if w[j])
            last = max(i for i, g in enumerate(w) if g)
            shift = F(1, w[j]) if j == last else 0
            assert [x + shift * g for x, g in zip(col, w)] == [int(i == j) for i in range(spec.n)]
            shifted += any(x.denominator > 1 for x in col)
    assert reached == 75 and shifted >= 1


def test_solve_dual_partition_quadric(quadric):
    # one-dimensional hand solve: the pairing of (1,-1) with m must be the
    # transposed difference row, giving m = (1,0) and (-1,0) in the section
    tr = MirrorPair(quadric).tr
    nef = solve_dual_partition(quadric, tr, derive_weights(quadric), derive_weights(tr.tspec))
    assert duals(nef) == (((F(1), F(0)), (F(-1), F(0))),)
    assert nef.flags["phi_kronecker"]
    assert nef.flags["cone_pairings_nonnegative"]
    assert nef.flags["minkowski_dim"]
    assert nef.flags["integral_P_section"]
    assert nef.p_matrix == Matrix.from_rows([[1, -1], [0, 0]])


def test_solve_dual_partition_6_1(spec_6_1):
    tr = MirrorPair(spec_6_1).tr
    nef = solve_dual_partition(spec_6_1, tr, derive_weights(spec_6_1), derive_weights(tr.tspec))
    assert nef.flags["phi_kronecker"]
    assert nef.flags["cone_pairings_nonnegative"]
    assert nef.flags["minkowski_dim"]
    assert nef.flags["integral_P_section"]
    # phi evaluations re-checked through the public evaluator
    deltas = nef.deltas
    for l, grp in enumerate(duals(nef), start=1):
        for m in grp:
            for q in range(1, spec_6_1.k + 1):
                assert support_phi(deltas, q, m) == (1 if q == l else 0)


def test_degenerate_minkowski_sum_is_rejected_first(quadric):
    # the difference rows (1,-1,0), (-1,1,0), 0 span one dimension, not n - k = 2:
    # no transposition of this spec exists, and another spec's transposition
    # fails the certificate's first clause, an internal error
    spec = CISpec(n=3, k=1, blocks=(Block(
        exponents=((2, 0, 1), (0, 2, 1), (1, 1, 1)), index_set=(1, 2, 3)),))
    weights = WeightSystem(((1, 1, 1),))
    fermat = CISpec(n=3, k=1, blocks=(Block(
        exponents=((3, 0, 0), (0, 3, 0), (0, 0, 3)), index_set=(1, 2, 3)),))
    assert minkowski_dim(build_deltas(spec, weights)) == 1
    for other in (fermat, quadric):
        tr = MirrorPair(other).tr
        with pytest.raises(InternalInvariantError) as exc:
            solve_dual_partition(spec, tr, weights, WeightSystem(tr.tspec.weights))
        assert str(exc.value) == ROW_CLAUSE


def test_solve_dual_partition_guard(spec_6_1, spec_6_2, quadric):
    # mismatched transposition data fails the closed form's certificate, an
    # internal error naming the clause: the quadric's transposition for
    # example 6.2 (other block sizes), or a target A does not reproduce
    tr = MirrorPair(quadric).tr
    with pytest.raises(InternalInvariantError) as exc:
        solve_dual_partition(spec_6_2, tr, derive_weights(spec_6_2), derive_weights(tr.tspec))
    assert str(exc.value) == ROW_CLAUSE
    pair = MirrorPair(spec_6_1)
    num = [list(row) for row in pair.tr.diff.num]
    num[0][0] += 1
    tr = replace(pair.tr, diff=Matrix(tuple(map(tuple, num))))
    with pytest.raises(InternalInvariantError) as exc:
        solve_dual_partition(spec_6_1, tr, pair.weights, WeightSystem(tr.tspec.weights))
    assert str(exc.value) == ROW_CLAUSE


def test_nonsingular_callers_meet_the_same_errors(spec_6_2, quadric):
    # no caller vouches for L any more: on mismatched data every caller meets
    # the internal error of the clause that fails, whatever the Minkowski
    # dimension or the block sizes
    spec = CISpec(n=3, k=1, blocks=(Block(
        exponents=((2, 0, 1), (0, 2, 1), (1, 1, 1)), index_set=(1, 2, 3)),))
    fermat = CISpec(n=3, k=1, blocks=(Block(
        exponents=((3, 0, 0), (0, 3, 0), (0, 0, 3)), index_set=(1, 2, 3)),))
    cases = [(spec, MirrorPair(fermat).tr, WeightSystem(((1, 1, 1),))),
             (spec, MirrorPair(quadric).tr, WeightSystem(((1, 1, 1),))),
             (spec_6_2, MirrorPair(quadric).tr, derive_weights(spec_6_2))]
    for spec, tr, weights in cases:
        with pytest.raises(InternalInvariantError) as exc:
            solve_dual_partition(spec, tr, weights, WeightSystem(tr.tspec.weights))
        assert str(exc.value) == ROW_CLAUSE


def test_cone_generators_quadric(quadric):
    tr = MirrorPair(quadric).tr
    nef = solve_dual_partition(quadric, tr, derive_weights(quadric), derive_weights(tr.tspec))
    sigma, sigma_dual = nef.sigma_generators, sigma_dual_generators(nef)
    assert sigma == ((0, 0, 1), (1, -1, 1), (-1, 1, 1))
    assert sigma_dual[0] == (F(0), F(0), F(1))
    # unit pairing of the apex generators
    assert sum(a * b for a, b in zip(sigma[0], sigma_dual[0])) == 1


def test_cone_pairings_6_1(spec_6_1):
    tr = MirrorPair(spec_6_1).tr
    nef = solve_dual_partition(spec_6_1, tr, derive_weights(spec_6_1), derive_weights(tr.tspec))
    sigma, sigma_dual = nef.sigma_generators, sigma_dual_generators(nef)
    for v in sigma:
        for m in sigma_dual:
            assert sum(F(a) * b for a, b in zip(v, m)) >= 0


def test_torus_embedding(quadric, spec_6_2):
    assert difference_matrix(quadric) == Matrix.from_rows([[1, -1], [-1, 1]])
    rows = entries(difference_matrix(spec_6_2))
    deltas = build_deltas(spec_6_2, derive_weights(spec_6_2))
    assert sorted(tuple(int(x) for x in r) for r in rows) == \
        sorted(deltas[0].vertices[1:])
    # identity-difference block gives zero rows
    spec = _indicator_spec()
    assert all(not any(r) for r in entries(difference_matrix(spec)))


def test_magic_square_6_1(spec_6_1):
    cm = build_cayley(spec_6_1)
    forms = solve_xi(cm, invert(cm.matrix))
    report = magic_square_check(cm, forms)
    assert report.found
    # witness really is a bijection matching the coefficients
    for q, pairs in report.witnesses.items():
        qq = report.assignments[q]
        seen = set()
        for b, i in pairs:
            assert z_coeffs(columns(forms)[b - 1])[q - 1] == \
                i_coeffs(columns(forms)[spec_6_1.a(qq) - 1])[i - 1]
            assert i not in seen
            seen.add(i)
        assert seen == set(range(1, spec_6_1.n + 1))


def test_magic_square_quadric_brute_force(quadric):
    cm = build_cayley(quadric)
    forms = solve_xi(cm, invert(cm.matrix))
    report = magic_square_check(cm, forms)
    # oracle: brute force over the two candidate bijections
    p = [z_coeffs(columns(forms)[b - 1])[0] for b in cm.i_lambda]
    w = [i_coeffs(columns(forms)[quadric.a(1) - 1])[i] for i in range(quadric.n)]
    feasible = any(all(p[b] == w[sigma[b]] for b in range(2))
                   for sigma in permutations(range(2)))
    assert feasible
    assert report.found


def test_magic_square_multiset_mismatch(spec_6_2):
    cm = build_cayley(spec_6_2)
    forms = solve_xi(cm, invert(cm.matrix))
    # direct multiset comparison oracle
    p = sorted(z_coeffs(columns(forms)[b - 1])[0] for b in cm.i_lambda)
    w = sorted(i_coeffs(columns(forms)[spec_6_2.a(1) - 1]))
    assert p != w
    assert not magic_square_check(cm, forms).found


def test_nef_json(quadric):
    tr = MirrorPair(quadric).tr
    nef = solve_dual_partition(quadric, tr, derive_weights(quadric), derive_weights(tr.tspec))
    data = nef.to_json()
    assert data["P"] == [["1", "-1"], ["0", "0"]]
    assert data["flags"]["phi_kronecker"]
