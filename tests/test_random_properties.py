"""Property suite over randomly generated valid small specifications.

The generator constructs specs that satisfy the structural conditions by
design and keeps only those whose weights re-derive uniquely and whose
Cayley matrix is nonsingular; every identity below must then hold with no
failures tolerated.
"""

from fractions import Fraction

import pytest

from mirrorkit.ci_model import build_cayley, derive_weights, charges
from mirrorkit.horn_system import horn_operators, index_partition
from mirrorkit.mellin import ZForm, classify_forms, solve_xi
from mirrorkit.pipeline import MirrorPair
from mirrorkit.rational_linalg import invert
from mirrorkit.transposition import NoInvolutiveNuError, NoValidShapeError

from oracles import (classify_by_pattern, column_sums, columns, dense_matmul, identity,
                     involutive, minkowski_dim, z_coeffs)
from specgen import generate_valid_specs

SPECS = generate_valid_specs(200)


def test_generated_enough():
    assert len(SPECS) >= 200


def test_inverse_identity_everywhere():
    for spec in SPECS:
        cm = build_cayley(spec)
        inv = invert(cm.matrix)
        assert dense_matmul(cm.matrix, inv) == identity(cm.size)
        assert dense_matmul(inv, cm.matrix) == identity(cm.size)


def test_column_sums_and_global_relation():
    for spec in SPECS:
        forms = MirrorPair(spec).forms
        sums = column_sums(forms)
        assert all(sums.values()), (spec, sums)


def test_special_form_shapes():
    # per block: the two z forms and the reflected one, exactly
    for spec in SPECS:
        forms = MirrorPair(spec).forms
        for nu in range(1, spec.k + 1):
            a = spec.a(nu)
            z_nu = ZForm.z(nu, spec.k)
            assert forms.xi(a - 2) == z_nu
            assert forms.xi(a - 1) == z_nu
            assert forms.xi(a) == z_nu.reflect()


def test_classification_never_fails():
    for spec in SPECS:
        cm = build_cayley(spec)
        forms = solve_xi(cm, invert(cm.matrix))
        assert classify_by_pattern(cm, forms) == classify_forms(cm)


def test_horn_degree_balance():
    for spec in SPECS:
        forms = MirrorPair(spec).forms
        delta, cols = forms.den, columns(forms)
        for q in range(1, spec.k + 1):
            plus, minus, _ = index_partition(forms, q)
            pos = sum(int(z_coeffs(cols[a - 1])[q - 1] * delta) for a in plus)
            neg = -sum(int(z_coeffs(cols[a - 1])[q - 1] * delta) for a in minus)
            assert pos == neg > 0
        for op in horn_operators(spec, forms):
            assert op.degrees[0] == op.degrees[1]


def test_involution_where_transposable():
    transposable = 0
    for spec in SPECS:
        try:
            tr = MirrorPair(spec).tr
        except (NoValidShapeError, NoInvolutiveNuError):
            continue
        transposable += 1
        assert involutive(MirrorPair(spec)), spec
        # shape preservation: the transposed index sets still partition
        aggregate = sorted(i for blk in tr.tspec.blocks for i in blk.index_set)
        assert aggregate == list(range(1, spec.n + 1))
    assert transposable >= 20  # the suite must actually exercise the mirror


def test_transposed_weights_are_block_supported():
    for spec in SPECS:
        try:
            tr = MirrorPair(spec).tr
        except (NoValidShapeError, NoInvolutiveNuError):
            continue
        w = derive_weights(tr.tspec)
        for q, vec in enumerate(w.vectors, start=1):
            rng = set(tr.tspec.block_range(q))
            for i, g in enumerate(vec, start=1):
                assert (g > 0) == (i in rng)


def test_charges_nonnegative_and_cy():
    for spec in SPECS:
        w = derive_weights(spec)
        qm = charges(spec, w)
        assert all(c >= 0 for row in qm.entries for c in row)
        for q in range(1, spec.k + 1):
            assert sum(qm.column(q)) == sum(w.vectors[q - 1])


def test_minkowski_dimension_bounded():
    # the shifted polytopes live in the weight kernel, so the span can never
    # exceed n - k; equality is the sum condition, not guaranteed
    from mirrorkit.nef_partition import build_deltas
    for spec in SPECS:
        deltas = build_deltas(spec, derive_weights(spec))
        assert minkowski_dim(deltas) <= spec.n - spec.k
