import itertools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mirrorkit import transposition
from mirrorkit.ci_model import (
    Block,
    CISpec,
    SpecError,
    WeightSystem,
    build_cayley,
    charges,
    derive_weights,
    read_weights,
    validate,
    weight_hint,
)
from mirrorkit.rational_linalg import (
    Matrix,
    integer_kernel,
    primitive_integer_vector,
)
from mirrorkit.transposition import (
    NoInvolutiveNuError,
    NoValidShapeError,
    find_rho,
)
from mirrorkit.pipeline import MirrorPair, generate_family, run_verify
from mirrorkit.record import replace
from mirrorkit.poincare import poincare_structure, verify_duality

from oracles import (
    apply_variable_permutation,
    block_match,
    dense_matmul,
    double_transpose,
    double_transpose_relabel,
    entries,
    entry,
    fraction_matrix,
    identity,
    integer_row,
    involutive,
    kernel_rows,
    rank,
    recovered,
    recovered_data,
    right_kernel,
    vectors_proportional,
)
from specgen import (direct_sum, generate_valid_specs, nonsingular_cayley_specs, oracle_specs,
                     random_cayley_spec, singular_cayley_specs)


def test_transpose_6_1_self_transposed(spec_6_1):
    tr = MirrorPair(spec_6_1).tr
    assert tr.tspec.blocks == spec_6_1.blocks  # the mirror equals the original
    assert tr.nu.images == (2, 1)
    assert dense_matmul(tr.nu_star, tr.nu_star) == identity(2)


def test_transpose_6_2_printed_mirror(spec_6_2):
    tr = MirrorPair(spec_6_2).tr
    blk = tr.tspec.blocks[0]
    assert blk.exponents == (
        (7, 0, 0, 0, 0),
        (0, 7, 0, 0, 0),
        (0, 0, 7, 0, 0),
        (0, 1, 0, 3, 0),
        (0, 0, 1, 0, 3),
    )
    assert blk.index_set == (1, 2, 3, 4, 5)
    assert derive_weights(tr.tspec).vectors == ((1, 1, 1, 2, 2),)


def test_transpose_quadric_identity_maps(quadric):
    tr = MirrorPair(quadric).tr
    assert tr.tspec.blocks == quadric.blocks
    assert tr.nu.images == (1,)
    assert tr.lam.images == (1, 2)
    assert tr.condition_flags["lambda_v_identity"]


def test_transposed_spec_validates(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric):
        assert validate(MirrorPair(spec).tr.tspec).ok


def test_permuted_transpose_identity(spec_6_1, spec_6_2, quadric):
    # the new Cayley matrix is entrywise a row/column permuted transpose
    for spec in (spec_6_1, spec_6_2, quadric):
        tr = MirrorPair(spec).tr
        cm = build_cayley(spec)
        tcm = build_cayley(tr.tspec)
        n, k = spec.n, spec.k
        var_to_row = {v: r for r, v in tr.row_to_var}
        old_col_of_row = []
        for q in range(1, k + 1):
            src = tr.block_sources[q - 1]
            old_col_of_row.extend(spec.blocks[src - 1].index_set)
            old_col_of_row.extend([n + 2 * src, n + 2 * src - 1, n + 2 * k + src])
        old_row_of_col = [var_to_row[p] for p in range(1, n + 1)]
        for q in range(1, k + 1):
            a = spec.a(tr.block_sources[q - 1])
            old_row_of_col.extend([a - 1, a - 2])
        for q in range(1, k + 1):
            old_row_of_col.append(spec.a(tr.block_sources[q - 1]))
        for r in range(cm.size):
            for c in range(cm.size):
                assert entry(tcm.matrix, r, c) == \
                    entry(cm.matrix, old_row_of_col[c] - 1, old_col_of_row[r] - 1)


def test_row_multiset_equals_column_multiset(spec_6_1, spec_6_2):
    # transposition permutes entries, never alters them
    for spec in (spec_6_1, spec_6_2):
        tr = MirrorPair(spec).tr
        cm = build_cayley(spec)
        tcm = build_cayley(tr.tspec)
        rows = sorted(sorted(row) for row in entries(tcm.matrix))
        cols = sorted(sorted(col) for col in entries(cm.matrix.transpose()))
        assert rows == cols


def test_involution(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric):
        assert involutive(MirrorPair(spec))
    assert involutive(MirrorPair(generate_family(4)))


def test_no_valid_shape():
    # sizes {tau} = {2}, index-set sizes = {1, 1} as multisets differ for k=1?
    # use k=2 with tau = (2, 2) but index sets of sizes (1, 3)
    spec = CISpec(n=4, k=2, blocks=(
        Block(exponents=((2, 0, 0, 0), (0, 2, 0, 0)), index_set=(1,)),
        Block(exponents=((0, 0, 2, 0), (0, 0, 0, 2)), index_set=(2, 3, 4)),
    ))
    with pytest.raises(NoValidShapeError):
        MirrorPair(spec).tr


def test_weight_classes_that_fit_no_block_size():
    # the size multisets match and nu exists, and the weight kernel splits into
    # two positive classes, but of sizes 1 and 3 against tau = (2, 2)
    spec = CISpec(n=4, k=2, blocks=(
        Block(exponents=((1, 0, 0, 1), (0, 1, 0, 0)), index_set=(1, 4)),
        Block(exponents=((1, 0, 1, 0), (0, 1, 1, 1)), index_set=(2, 3)),
    ))
    pair = MirrorPair(spec)
    assert pair._class_hint == ((-2, 1), (0, -1), (0, -1), (0, -1))
    for basis in (None, lambda: pair._class_hint):
        with pytest.raises(NoValidShapeError,
                           match="no variable group of size 2 left for block position 1"):
            transposition.build_transpose(pair.cm, basis)


def test_symmetry_conditions_quadric(quadric):
    tr = MirrorPair(quadric).tr
    assert tr.rho.images == (1, 2)
    assert tr.condition_flags["rho_symmetric_3_11"]
    assert tr.condition_flags["t_rho_symmetric_3_11T"]


def test_symmetry_conditions_6_1_nu_twisted(spec_6_1):
    tr = MirrorPair(spec_6_1).tr
    assert find_rho(spec_6_1, derive_weights(spec_6_1))[1] == (2, 1)
    assert "rho pairs index sets with permuted block ranges" in tr.notes
    assert tr.condition_flags["rho_symmetric_3_11"]


def test_t_rho_is_the_mirror_rho():
    # t_rho is searched once, as the mirror's own rho, with the weights
    # derive_weights finds for the transposed spec
    differ = 0
    for spec in generate_valid_specs(200):
        pair = MirrorPair(spec)
        try:
            tr = pair.tr
        except transposition.TranspositionError:
            continue
        assert tr.t_rho == find_rho(tr.tspec, derive_weights(tr.tspec))[0]
        assert double_transpose(pair).rho == tr.t_rho
        differ += tr.rho != tr.t_rho
    assert differ == 8


def _involution_matching_recursive(n, allowed):
    """Oracle: the first involution by recursive backtracking, each i placed in
    ascending order as a fixed point or paired with a j in allowed[i] that allows i."""
    images = {}

    def place(i):
        if i > n:
            return True
        if i in images:
            return place(i + 1)
        for j in sorted(allowed[i]):
            if j in images and images[j] != i:
                continue
            if j == i:
                images[i] = i
                if place(i + 1):
                    return True
                del images[i]
            elif j not in images and i in allowed[j]:
                images[i], images[j] = j, i
                if place(i + 1):
                    return True
                del images[i], images[j]
        return False

    if place(1):
        return tuple(images[i] for i in range(1, n + 1))
    return None


def _allowed_by_keys(keys):
    """allowed[i]: the j whose (range, target, weight) key is i's with range and target swapped."""
    return {i: {j for j, other in enumerate(keys, start=1) if other == (t, r, w)}
            for i, (r, t, w) in enumerate(keys, start=1)}


def test_involution_matching_matches_the_recursive_search():
    # class-structured keys, as find_rho builds them: up to 3 ranges and 2 weights
    rng = random.Random(7)
    found = missing = paired = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        ranges, weights = rng.randint(1, 3), rng.randint(1, 2)
        keys = [(rng.randint(1, ranges), rng.randint(1, ranges), rng.randint(1, weights))
                for _ in range(n)]
        expected = _involution_matching_recursive(n, _allowed_by_keys(keys))
        assert transposition._class_matching(keys) == expected
        found += expected is not None
        missing += expected is None
        paired += expected is not None and expected != tuple(range(1, n + 1))
    assert found > 100 and missing > 100 and paired > 100


def test_class_matching_is_linear_where_a_class_is_one_short():
    # one class of m variables against a partner class of m + 1, n = 2001: the
    # recursive search explores every partial matching before it gives up
    m = 1000
    keys = [(1, 2, 1)] * m + [(2, 1, 1)] * (m + 1)
    start = time.perf_counter()
    assert transposition._class_matching(keys) is None
    # equal classes, and one fixed point, are zipped in order
    keys[-1] = (1, 1, 1)
    assert transposition._class_matching(keys) == (
        tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1)) + (2 * m + 1,))
    assert time.perf_counter() - start < 1.0


def test_find_rho_on_a_thousand_variables():
    # one Fermat block x_i^1010 over all 1010 variables: one class of 1010
    # fixed points
    n = 1010
    spec = CISpec(n=n, k=1, blocks=(Block(
        exponents=tuple(tuple(n if j == i else 0 for j in range(n)) for i in range(n)),
        index_set=tuple(range(1, n + 1))),))
    rho, pi = find_rho(spec, WeightSystem(((1,) * n,)))
    assert rho.is_identity() and pi == (1,)


def test_find_rho_generates_one_pairing_on_eight_quadrics(fixtures_dir, monkeypatch):
    # the identity pairing admits a rho, and the pairings are generated one at
    # a time, so none of the other 8! - 1 = 40,319 is built
    quadric = json.loads((fixtures_dir / "derived_quadric.json").read_text())
    spec = CISpec.from_json(direct_sum(*[quadric] * 8))
    generated = []

    def counted(*args):
        for pi in itertools.permutations(*args):
            generated.append(pi)
            yield pi

    monkeypatch.setattr(transposition, "itertools", SimpleNamespace(permutations=counted))
    rho, pi = find_rho(spec, derive_weights(spec))
    assert pi == tuple(range(1, 9)) and len(generated) == 1
    assert rho.is_identity()


def _allowed_by_scan(spec, pi, diag):
    """Oracle: allowed[i] by scanning all of i's target range, for each i."""
    owner_set = {i: q for q, blk in enumerate(spec.blocks, start=1) for i in blk.index_set}
    ranges = {q: set(spec.block_range(q)) for q in range(1, spec.k + 1)}
    return {i: {j for j in ranges[pi[owner_set[i] - 1]] if diag[j - 1] == diag[i - 1]
                and i in ranges[pi[owner_set[j] - 1]]}
            for i in range(1, spec.n + 1)}


def test_allowed_images_match_the_scan_and_rho_the_sorted_search(fixtures_dir):
    # on both sides of every transposable spec, under every size-compatible
    # pairing, the class construction gives the rho or None of the recursive
    # search over the scanned allowed sets; the first pairing that admits a
    # rho, with the pairings sorted identity first and then lexicographically,
    # is the one find_rho returns, with that rho
    checked = 0
    for spec in oracle_specs(fixtures_dir):
        pair = MirrorPair(spec)
        try:
            pair.tr
        except transposition.TranspositionError:
            continue
        for side in (pair, pair.mirror):
            s, diag = side.spec, side.weights.diagonal
            identity = tuple(range(1, s.k + 1))
            pairings = sorted((pi for pi in itertools.permutations(identity)
                               if all(len(s.blocks[q - 1].index_set) == s.taus[pi[q - 1] - 1]
                                      for q in identity)),
                              key=lambda p: (p != identity, p))
            range_of = {j: q for q in identity for j in s.block_range(q)}
            first = None
            for pi in pairings:
                target = {i: p for blk, p in zip(s.blocks, pi) for i in blk.index_set}
                rho = transposition._class_matching(
                    [(range_of[i], target[i], diag[i - 1]) for i in range(1, s.n + 1)])
                assert rho == _involution_matching_recursive(s.n, _allowed_by_scan(s, pi, diag))
                if first is None and rho is not None:
                    first = rho, pi
            assert (side.rho and (side.rho[0].images, side.rho[1])) == first
            checked += 1
    assert checked == 152  # both sides of the 76 transposable specs


def _g_rho_symmetric(rho, diag):
    """Oracle: G*rho built as a matrix, G = diag(diag), and compared with its transpose."""
    n = len(rho)
    g_rho = Matrix.from_rows(
        [[diag[i] if rho[j] == i + 1 else 0 for j in range(n)] for i in range(n)])
    return g_rho == g_rho.transpose()


def test_find_rho_symmetric_flag_matches_the_matrix_test(fixtures_dir):
    checked = 0
    for spec in oracle_specs(fixtures_dir):
        pair = MirrorPair(spec)
        try:
            pair.tr
        except transposition.TranspositionError:
            continue
        flags = pair.tr.condition_flags
        assert flags["rho_symmetric_3_11"] == (pair.rho is not None)
        assert flags["t_rho_symmetric_3_11T"] == (pair.rho is not None
                                                  and pair.mirror.rho is not None)
        for side in (pair, pair.mirror):
            # find_rho pairs only equal weights, which makes G*rho symmetric (3.11)
            if side.rho is not None:
                assert _g_rho_symmetric(side.rho[0].images, side.weights.diagonal)
                checked += 1
    assert checked == 152  # both sides of the 76 transposable specs


def _canonical_key(spec):
    """Oracle: the block multiset the double transpose was compared by."""
    return sorted((tuple(sorted(b.exponents)), tuple(b.index_set)) for b in spec.blocks)


def _recovered_original_data(spec, recovered, sigma, rec_weights):
    """Oracle: the double transpose's weights matched back to the original blocks.

    rec_weights are the weights of the double transpose before relabelling
    by sigma; recovered is the relabelled double transpose.
    """
    match = []
    used = set()
    for blk in spec.blocks:
        key = (sorted(blk.exponents), tuple(blk.index_set))
        found = None
        for m, rblk in enumerate(recovered.blocks, start=1):
            if m in used:
                continue
            if (sorted(rblk.exponents), tuple(rblk.index_set)) == key:
                found = m
                break
        if found is None:
            return None
        used.add(found)
        match.append(found)
    vecs = []
    for m in match:
        raw = rec_weights.vectors[m - 1]
        full = [0] * spec.n
        for p, g in enumerate(raw, start=1):
            full[sigma[p - 1] - 1] = g
        vecs.append(tuple(full))
    weights = WeightSystem(tuple(vecs))
    return weights, charges(spec, weights)


def _assert_block_match_agrees(pair, tr2, rec_spec):
    """The oracle's block match and recovered data against the test's own, for
    the double transpose tr2's relabelling applied to rec_spec; returns the match."""
    sigma = double_transpose_relabel(pair.spec, pair.tr, tr2)
    rec = apply_variable_permutation(rec_spec, sigma)
    match, data = block_match(pair.spec, rec), recovered_data(pair.spec, rec)
    assert (match is not None) == (_canonical_key(rec) == _canonical_key(pair.spec))
    assert data == _recovered_original_data(pair.spec, rec, sigma, WeightSystem(rec_spec.weights))
    assert (data is None) == (match is None)
    return match


def test_block_match_agrees_with_the_block_key_and_recovered_data(fixtures_dir):
    transposable = reordered = broken = 0
    for spec in oracle_specs(fixtures_dir):
        pair = MirrorPair(spec)
        try:
            tr2 = double_transpose(pair)
        except transposition.TranspositionError:
            continue
        tspec2 = tr2.tspec
        transposable += 1
        assert involutive(pair)
        _assert_block_match_agrees(pair, tr2, tspec2)
        if spec.k < 2:
            continue
        # the same double transpose with its blocks and weights listed in reverse,
        # and with the index sets of two blocks swapped
        match = _assert_block_match_agrees(pair, tr2, CISpec(
            n=spec.n, k=spec.k, blocks=tspec2.blocks[::-1], weights=tspec2.weights[::-1]))
        reordered += match == tuple(range(spec.k - 1, -1, -1))
        first, last = tspec2.blocks[0], tspec2.blocks[-1]
        swapped = (Block(first.exponents, last.index_set),) + tspec2.blocks[1:-1] + (
            Block(last.exponents, first.index_set),)
        broken += _assert_block_match_agrees(pair, tr2, CISpec(
            n=spec.n, k=spec.k, blocks=swapped, weights=tspec2.weights)) is None
    assert transposable == 76 and reordered > 0 and broken > 0


def test_apply_variable_permutation_moves_weights_with_blocks(spec_6_2):
    sigma = (2, 3, 1, 5, 4)
    moved = apply_variable_permutation(spec_6_2, sigma)
    assert moved.weights is not None
    for before, after in zip(spec_6_2.weights, moved.weights):
        assert all(after[sigma[p] - 1] == before[p] for p in range(spec_6_2.n))
    assert moved.blocks == apply_variable_permutation(
        CISpec(spec_6_2.n, spec_6_2.k, spec_6_2.blocks), sigma).blocks
    assert apply_variable_permutation(
        CISpec(spec_6_2.n, spec_6_2.k, spec_6_2.blocks), sigma).weights is None


def _no_rho_spec() -> CISpec:
    # index-set sizes (1, 3) cannot be paired with the block sizes (2, 2), so
    # no permutation maps the index-set indicators onto the weight supports
    return CISpec(n=4, k=2, blocks=(
        Block(exponents=((0, 0, 1, 0), (0, 0, 0, 2)), index_set=(3,)),
        Block(exponents=((2, 0, 0, 1), (1, 1, 0, 1)), index_set=(1, 2, 4)),
    ))


# the smallest spec whose double transpose carries the derived weights out of
# order: x2 with index set {2}, then x1 with index set {1}; lam lists x2 first
PI_SWAPPED = CISpec(n=2, k=2, blocks=(Block(exponents=((0, 1),), index_set=(2,)),
                                      Block(exponents=((1, 0),), index_set=(1,))))


def test_recovered_data_carries_the_weights_in_the_order_pi():
    pair = MirrorPair(PI_SWAPPED)
    assert pair.weights.vectors == ((1, 0), (0, 1))
    assert transposition.home_order(PI_SWAPPED, pair.tr) == (2, 1)
    weights, qm = pair.recovered_data
    assert weights.vectors == ((0, 1), (1, 0))
    assert (weights, qm) == recovered_data(PI_SWAPPED, recovered(pair))
    # the recovered grading is not the derived one in order, and every duality
    # identity holds
    duality = next(s for s in run_verify(PI_SWAPPED).stages if s.name == "duality")
    assert all(duality.flags.values())


def _closed_form_specs(fixtures_dir):
    """The oracle set, the first 300 nonsingular random specs, every 10th of 1000
    seeded random_cayley_spec draws with k <= 3, the families m = 1..30 (every
    third above the oracle set's 12), the pi != id spec and the singular-L specs."""
    draws = (random_cayley_spec(random.Random(30000 + i), 3, 3) for i in range(0, 1000, 10))
    return (oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300)
            + [spec for spec in draws if spec is not None]
            + [generate_family(m) for m in range(13, 31, 3)]
            + [PI_SWAPPED] + singular_cayley_specs())


def test_recovered_data_is_the_double_transpose(fixtures_dir):
    # the double transpose a run no longer builds, relabelled and matched block
    # by block (oracles.recovered_data), is the derived weights in the order pi
    # with their charges, on every spec that transposes; the singular-L specs
    # are read through pair.tr without validate, as `mirrorkit transpose` does
    transposed = permuted = 0
    for spec in _closed_form_specs(fixtures_dir):
        pair = MirrorPair(spec)
        try:
            pair.tr
        except SpecError:
            continue
        rec = recovered(pair)
        assert block_match(spec, rec) == tuple(range(spec.k))
        assert pair.recovered_data == recovered_data(spec, rec)
        transposed += 1
        permuted += pair.recovered_data[0] != pair.weights
    assert (transposed, permuted) == (202, 20)


def test_no_rho(quadric):
    spec = _no_rho_spec()
    assert validate(spec).ok
    assert find_rho(spec, derive_weights(spec)) is None
    # without a rho on the spec's side, both symmetry flags fail and say why
    pair = MirrorPair(quadric)
    tr = transposition.complete_transpose(pair.cm, transposition.build_transpose(pair.cm),
                                          pair.mirror.cm, None, pair.mirror.rho)
    assert pair.mirror.rho is not None
    assert tr.rho is None and tr.t_rho is None
    assert not tr.condition_flags["rho_symmetric_3_11"]
    assert not tr.condition_flags["t_rho_symmetric_3_11T"]
    assert "no permutation maps index sets onto weight supports" in tr.notes


def _choose_nu_scan(taus, tilde_taus):
    """Oracle: the smallest involution over all k! permutations."""
    k = len(taus)
    best = None
    for perm in itertools.permutations(range(1, k + 1)):
        if any(taus[perm[j] - 1] != tilde_taus[j] for j in range(k)):
            continue
        if any(perm[perm[j] - 1] != j + 1 for j in range(k)):
            continue
        if best is None or perm < best:
            best = perm
    return best


def test_choose_nu_matches_the_permutation_scan():
    cases = 0
    for k in range(1, 6):
        for taus in itertools.product((1, 2, 3), repeat=k):
            for tilde_taus in sorted(set(itertools.permutations(taus))):
                expected = _choose_nu_scan(taus, tilde_taus)
                if expected is None:
                    with pytest.raises(NoInvolutiveNuError):
                        transposition._choose_nu(taus, tilde_taus)
                else:
                    assert transposition._choose_nu(taus, tilde_taus).images == expected
                cases += 1
    assert cases == 5403


def test_choose_nu_is_immediate_at_twenty_blocks():
    # 20! permutations would never finish; pairs (1, 2) <-> (2, 1) and fixed 3s
    taus = (1, 2, 3, 3) * 5
    tilde_taus = (2, 1, 3, 3) * 5
    start = time.perf_counter()
    nu = transposition._choose_nu(taus, tilde_taus)
    assert time.perf_counter() - start < 1.0
    assert nu.images == sum(((j + 2, j + 1, j + 3, j + 4) for j in range(0, 20, 4)), ())


def test_family_m3_is_the_cubic_example(spec_6_1):
    assert generate_family(3).blocks == spec_6_1.blocks


def test_family_m4_valid():
    spec = generate_family(4)
    assert spec.n == 9 and spec.k == 2
    assert validate(spec).ok


def test_family_m2_computed_outcome():
    # the construction is stated for cubes and higher; as computed, the m=2
    # member satisfies every check, so it is accepted rather than rejected
    report = validate(generate_family(2))
    assert report.ok


def test_transpose_json(spec_6_2):
    tr = MirrorPair(spec_6_2).tr
    data = tr.to_json()
    again = CISpec.from_json(data["tspec"])
    assert again == tr.tspec


def _weight_classes_padded(diff, k):
    """Oracle: each group's weight ray from the whole difference matrix with one
    unit row per variable outside the group."""
    kernel = right_kernel(diff)
    if len(kernel) != k:
        raise NoValidShapeError(
            f"weight kernel has dimension {len(kernel)}, expected {k}")
    n = diff.cols
    basis_rows = [tuple(vec[i] for vec in kernel) for i in range(n)]
    classes = []
    for i, row in enumerate(basis_rows):
        if all(x == 0 for x in row):
            raise NoValidShapeError(f"variable {i + 1} carries no weight")
        for cls in classes:
            if vectors_proportional(basis_rows[cls[0]], row):
                cls.append(i)
                break
        else:
            classes.append([i])
    if len(classes) != k:
        raise NoValidShapeError(
            f"weight kernel splits into {len(classes)} support groups, expected {k}")
    result = []
    for cls in classes:
        constraints = [list(row) for row in entries(diff)]
        for i in range(n):
            if i not in cls:
                constraints.append([Fraction(int(j == i)) for j in range(n)])
        sub = right_kernel(fraction_matrix(constraints))
        if len(sub) != 1:
            raise NoValidShapeError("support group does not carry a unique weight ray")
        gen = primitive_integer_vector(integer_row(sub[0])[0])
        vals = [gen[i] for i in cls]
        if all(v < 0 for v in vals):
            vals = [-v for v in vals]
        if any(v <= 0 for v in vals):
            raise NoValidShapeError("no positive weight vector on a support group")
        result.append((cls, tuple(vals)))
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_weight_classes_match_padded_kernel(monkeypatch):
    seen = []
    real = transposition._weight_classes

    def recording(diff, k, basis):
        # build_transpose without a basis: _weight_classes eliminates diff
        assert basis is None
        seen.append((diff, k))
        return real(diff, k)

    monkeypatch.setattr(transposition, "_weight_classes", recording)
    specs = [generate_family(m) for m in range(2, 13)] + generate_valid_specs(200)
    for spec in specs:
        try:
            # the spec and its transpose
            transposition.build_transpose(build_cayley(
                transposition.build_transpose(build_cayley(spec)).tspec))
        except transposition.TranspositionError:
            pass
    outcomes = [_outcome(real, diff, k) for diff, k in seen]
    assert outcomes == [_outcome(_weight_classes_padded, diff, k) for diff, k in seen]
    assert len(seen) > len(specs)
    # the per-group ray is what changed; its failure is among the outcomes
    assert "NoValidShapeError: no positive weight vector on a support group" in outcomes


# (specs that transpose, flag -> (false, true)) per spec set: every transpose
# condition flag and every duality identity.  Only M_Y = PO_Xbar compares two
# different ratios, and it is false only on the corrupted fixture.
_TRUE = {"size_multisets_1_11", "involution_nu", "row_multiset_identity",
         "lambda_matrix_identity", "rho_symmetric_3_11", "t_rho_symmetric_3_11T",
         "M_X = PO_Ybar", "PO_Ybar = P_A_Y", "M_Y = PO_Xbar", "PO_Xbar = P_A_X"}
TRANSPOSE_FLAG_CENSUS = {
    "seeded": (60, {**{f: (0, 60) for f in _TRUE}, "lambda_v_identity": (2, 58)}),
    "families": (11, {**{f: (0, 11) for f in _TRUE}, "lambda_v_identity": (11, 0)}),
    "fixtures": (4, {**{f: (0, 4) for f in _TRUE}, "lambda_v_identity": (1, 3),
                     "M_Y = PO_Xbar": (1, 3)}),
}


def test_transpose_and_duality_flag_census(spec_6_1, spec_6_2, quadric, corrupted):
    sets = {"seeded": generate_valid_specs(200),
            "families": [generate_family(m) for m in range(2, 13)],
            "fixtures": [spec_6_1, spec_6_2, quadric, corrupted]}
    for name, specs in sets.items():
        reached, counts = 0, {}
        for spec in specs:
            pair = MirrorPair(spec)
            try:
                flags = dict(pair.tr.condition_flags)
            except transposition.TranspositionError:
                continue
            reached += 1
            flags.update(verify_duality(pair.structure_ratio, poincare_structure(*pair.recovered_data),
                                        not pair.unbalanced).identities)
            for flag, value in flags.items():
                counts.setdefault(flag, [0, 0])[value] += 1
        assert (reached, {f: tuple(c) for f, c in counts.items()}) == TRANSPOSE_FLAG_CENSUS[name]


def test_transposed_sides_take_the_weights_derive_weights_finds(fixtures_dir):
    # the transposition's ray for each weight class is the kernel of the
    # submatrix derive_weights eliminates for that block, so a MirrorPair's
    # transposed side and double transpose take tspec.weights unsolved
    specs = (generate_valid_specs(200) + [generate_family(m) for m in range(1, 13)]
             + [CISpec.load(f) for f in sorted(fixtures_dir.glob("*.json"))])
    sides = 0
    for spec in specs:
        pair = MirrorPair(spec)
        for _ in range(2):
            try:
                tspec = transposition.build_transpose(pair.cm).tspec
            except transposition.TranspositionError:
                break
            assert derive_weights(tspec) == WeightSystem(tspec.weights)
            pair = pair.mirror
            assert pair.weights == WeightSystem(tspec.weights)
            sides += 1
    assert sides == 152


def _built_diff(cm):
    """The transposed difference matrix build_transpose builds for cm, by its helper."""
    spec = cm.spec
    nu = transposition._choose_nu(spec.taus, tuple(len(b.index_set) for b in spec.blocks))
    return transposition._transposed_rows(cm, tuple(sorted(range(1, spec.k + 1), key=nu)))[1]


def _record_bases(monkeypatch, every: bool = False) -> list:
    """Record (diff, k, basis) of every _weight_classes call that is given a basis,
    or of every call when every is set.  Given a basis, build_transpose reads the
    classes before it builds diff, so diff is built here from the Cayley
    matrix of the build_transpose call, with the same helper."""
    given, cms = [], []
    real_build, real = transposition.build_transpose, transposition._weight_classes

    def building(cm, basis=None):
        cms.append(cm)
        return real_build(cm, basis)

    def recording(diff, k, basis=None):
        if every or basis is not None:
            given.append((_built_diff(cms[-1]) if diff is None else diff, k, basis))
        return real(diff, k, basis)

    monkeypatch.setattr(transposition, "build_transpose", building)
    monkeypatch.setattr(transposition, "_weight_classes", recording)
    return given


def test_weight_classes_are_read_before_the_transposed_rows(monkeypatch, fixtures_dir):
    # given a basis, build_transpose reads the weight classes off it before it
    # builds the transposed blocks and diff: where the read fails it raises the
    # elimination's message and builds none; where it succeeds, and with no
    # basis, it builds them once, and the result is the elimination's
    built = []
    real = transposition._transposed_rows
    monkeypatch.setattr(transposition, "_transposed_rows",
                        lambda *args: built.append(args) or real(*args))
    messages = []
    transposed = 0
    for spec in oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300):
        pair = MirrorPair(spec)
        hint = pair._class_hint
        del built[:]
        eliminated = _outcome(transposition.build_transpose, pair.cm)
        assert len(built) <= 1
        if hint is None or not built:   # no basis, or no shape before the classes
            continue
        diff = real(*built[0])[1]
        del built[:]
        read = _outcome(transposition.build_transpose, pair.cm, lambda: hint)
        assert read == eliminated
        classes = _outcome(transposition._weight_classes, None, spec.k, hint)
        assert classes == _outcome(transposition._weight_classes, diff, spec.k)
        if isinstance(classes, str):
            assert built == [] and read == classes
            messages.append(re.sub(r"\d+", "N", classes))
        else:
            assert len(built) == 1
            transposed += not isinstance(read, str)
    assert Counter(messages) == {
        "NoValidShapeError: variable N carries no weight": 172,
        "NoValidShapeError: no positive weight vector on a support group": 34,
        "NoValidShapeError: weight kernel splits into N support groups, expected N": 7}
    assert transposed == 178


def test_certified_reads_match_the_eliminations(monkeypatch, fixtures_dir):
    # the weights read off L^-1 are the ones derive_weights solves for, on both
    # sides; the weight classes read off a kernel basis are the ones the
    # elimination finds, on both sides of every spec that transposes; and where
    # the read fails, it raises the elimination's message
    real = transposition._weight_classes
    given = _record_bases(monkeypatch)
    mirrors = 0
    for spec in oracle_specs(fixtures_dir):
        pair = MirrorPair(spec)
        assert read_weights(spec, pair.inverse) == derive_weights(spec) == pair.weights
        try:
            double_transpose(pair)
        except transposition.TranspositionError:
            continue
        tspec = pair.mirror.spec
        assert read_weights(tspec, MirrorPair(tspec).inverse) == derive_weights(tspec)
        mirrors += 1
    outcomes = [(_outcome(real, diff, k, basis), _outcome(real, diff, k))
                for diff, k, basis in given]
    assert all(read == eliminated for read, eliminated in outcomes)
    assert sum(not isinstance(read, str) for read, _ in outcomes) == 2 * mirrors == 152
    assert len(outcomes) == 268


WEIGHT_MESSAGES = {
    "NoPositiveSolutionError: block N: only the zero weight solves the system",
    "NoPositiveSolutionError: block N: no strictly positive weight vector exists",
    "AmbiguousWeightsError: block N: weight solution space has dimension N",
}
CLASS_MESSAGES = {
    "NoValidShapeError: weight kernel has dimension N, expected N",
    "NoValidShapeError: variable N carries no weight",
    "NoValidShapeError: weight kernel splits into N support groups, expected N",
    "NoValidShapeError: no positive weight vector on a support group",
}


def test_kernel_reads_raise_the_eliminations_messages(monkeypatch):
    # on random nonsingular specs, most without weights or classes, the closed
    # form reads give exactly what derive_weights and the elimination of
    # tr.diff give, message for message, and every message of theirs that a
    # nonsingular L can reach is reached ("block q owns no variables" needs an
    # empty block range, whose y and s columns make L singular).  The classes
    # are given H exactly where M' = 0; elsewhere the kernel is below k and
    # the elimination names its dimension
    real = transposition._weight_classes
    given = _record_bases(monkeypatch, every=True)
    weight_seen, class_seen = set(), set()
    for spec in nonsingular_cayley_specs(300):
        pair = MirrorPair(spec)
        derived = _outcome(derive_weights, spec)
        # the read finds no weights exactly where derive_weights raises
        assert read_weights(spec, pair.inverse) == (None if isinstance(derived, str) else derived)
        assert _outcome(lambda: pair.weights) == derived
        del given[:]
        _outcome(lambda: pair._shape)
        outcomes = [(derived, weight_seen)]
        if given:  # the transposition reached its classes
            (diff, k, basis), = given
            m2 = transposition.inverse_hint(pair.cm, pair.inverse)[1]
            assert (basis is None) == any(map(any, m2))
            eliminated = _outcome(real, diff, k)
            if basis is not None:
                assert _outcome(real, diff, k, basis) == eliminated
            outcomes.append((eliminated, class_seen))
        for outcome, seen in outcomes:
            if isinstance(outcome, str):
                seen.add(re.sub(r"\d+", "N", outcome))
    assert weight_seen == WEIGHT_MESSAGES
    assert class_seen == CLASS_MESSAGES


def _repeated(rows, sizes):
    return [tuple(row) for row, size in zip(rows, sizes) for _ in range(size)]


def test_kernel_bases_satisfy_their_relations(monkeypatch, fixtures_dir):
    # (1) spec.diff C = M and (2) tr.diff H = M', each row of M repeated per
    # monomial of its block and each row of M' per index of its block, so
    # ker spec.diff = C ker M and ker tr.diff = H ker M' (C and H are
    # injective): both have dimension k - rank M = k - rank M', so M = 0
    # exactly when M' = 0, and the transposition is given H exactly then.
    # (3) once the transposition has a shape, that dimension is k, so M = M'
    # = 0 and C is a basis of ker spec.diff: C moved by lambda, which the
    # oracle double transpose reads its classes off, spans its kernel, the
    # step of the proof in MirrorPair.recovered_data
    given = _record_bases(monkeypatch, every=True)
    specs = oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300)
    transposed = short = unhanded = shaped = 0
    for spec in specs:
        pair = MirrorPair(spec)
        k, taus = spec.k, spec.taus
        c, m = weight_hint(spec, pair.inverse)
        assert [tuple(row) for row in dense_matmul(spec.diff, Matrix(c)).num] == _repeated(m, taus)
        dim = len(integer_kernel(spec.diff))
        assert dim == k - rank(Matrix(m)) == len(kernel_rows(c, m)[0])
        short += dim < k
        h, m2 = transposition.inverse_hint(pair.cm, pair.inverse)
        assert any(map(any, m)) == any(map(any, m2))
        del given[:]
        try:
            double_transpose(pair)
        except SpecError:
            pass
        if not given:
            continue
        (diff, _, basis), *mirror = given
        if any(map(any, m2)):
            assert basis is None
            unhanded += 1
        else:
            assert basis == h == kernel_rows(h, m2)
        nu = transposition._choose_nu(taus, tuple(len(b.index_set) for b in spec.blocks))
        sources = sorted(range(1, k + 1), key=nu)
        sizes = [len(spec.blocks[src - 1].index_set) for src in sources]
        assert ([tuple(row) for row in dense_matmul(diff, Matrix(h)).num]
                == _repeated([m2[src - 1] for src in sources], sizes))
        assert len(integer_kernel(diff)) == dim == k - rank(Matrix(m2))
        transposed += 1
        has_shape = not isinstance(_outcome(lambda: pair._shape), str)
        assert bool(mirror) == has_shape
        if has_shape:
            assert not any(map(any, m)) and not any(map(any, m2))
            (diff2, _, basis2), = mirror
            assert basis2 == tuple(c[i - 1] for i in pair._shape.lam.images)
            assert not any(any(row) for row in dense_matmul(diff2, Matrix(basis2)).num)
            assert len(integer_kernel(diff2)) == rank(Matrix(basis2)) == k
            shaped += 1
    # every oracle spec has weights; 100 random ones have a kernel below k,
    # and 98 of them reach their classes
    assert (len(specs), transposed, short, unhanded, shaped) == (516, 489, 100, 98, 178)


def test_a_mirror_of_a_spec_without_weights_reads_its_classes(monkeypatch):
    # a spec may have a transposition shape but no weights: the oracle double
    # transpose still reads its classes off C moved by lambda, so nothing
    # eliminates them, and its shape is the elimination's, or raises its message
    without_basis = []
    real = transposition._weight_classes
    monkeypatch.setattr(transposition, "_weight_classes", lambda diff, k, basis=None: (
        without_basis.append(basis is None)) or real(diff, k, basis))
    seen = raised = 0
    for spec in nonsingular_cayley_specs(300):
        pair = MirrorPair(spec)
        if (isinstance(_outcome(lambda: pair._shape), str)
                or not isinstance(_outcome(derive_weights, spec), str)):
            continue
        del without_basis[:]
        tr2 = _outcome(lambda: double_transpose(pair))
        assert without_basis == [False]
        shape = _outcome(lambda: pair.mirror._shape)
        assert shape == _outcome(transposition.build_transpose, build_cayley(pair.mirror.spec))
        assert isinstance(tr2, str) == isinstance(shape, str)
        if isinstance(tr2, str):
            assert tr2 == shape
        seen += 1
        raised += isinstance(shape, str)
    assert (seen, raised) == (4, 3)


@pytest.mark.parametrize("entries", [[(0, 0)], [(4, 7)], [(-1, -1)], [(3, 9), (3, 2), (8, 0)]])
def test_a_corrupted_mirror_cayley_matrix_names_its_first_mismatch(spec_6_1, entries):
    # the mirror's Cayley matrix moved by one at some 0-based (r, c): the
    # permuted-transpose check names the first in row-major order, 1-based
    pair = MirrorPair(spec_6_1)
    tcm = pair.mirror.cm
    num = [list(row) for row in tcm.matrix.num]
    entries = [(r % tcm.size, c % tcm.size) for r, c in entries]
    for r, c in entries:
        num[r][c] += 1
    pair.mirror.cm = replace(tcm, matrix=Matrix(tuple(map(tuple, num))))
    r, c = min(entries)
    with pytest.raises(transposition.InternalInvariantError,
                       match=rf"^transpose mismatch at new entry \({r + 1},{c + 1}\)$"):
        pair.tr
