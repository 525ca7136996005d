"""Acceptance suite: the exit criteria, one test and one printed line each.

All comparisons are exact (rationals, integers, multisets); there are no
numeric tolerances anywhere.
"""

import time
from fractions import Fraction

from mirrorkit.ci_model import build_cayley, charges, derive_weights
from mirrorkit.horn_system import horn_operators
from mirrorkit.mellin import (
    ZForm,
    factorize_xi,
    lemma_form,
    solve_xi,
    sort_forms,
    verify_theorem_31,
)
from mirrorkit.nef_partition import magic_square_check, build_deltas, solve_dual_partition
from mirrorkit.pipeline import MirrorPair, generate_family
from mirrorkit.poincare import (
    poincare_structure,
    series_coefficients_1d,
    series_expand,
    verify_duality,
)
from mirrorkit.rational_linalg import Matrix, invert
from mirrorkit.transposition import NoInvolutiveNuError, NoValidShapeError

from oracles import (FractionZForm, column_sums, columns, dense_matmul, duals, gamma_equal,
                     i_coeffs, identity, involutive, minkowski_dim, support_phi, z_coeffs,
                     zform)
from paper_data import L_8, L_8_INV, L_13, L_13_INV, matrix_from_json
from specgen import generate_valid_specs

F = Fraction


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS  {criterion}" + (f"  [{detail}]" if detail else ""))


def test_criterion_1_golden_matrices(spec_6_1, spec_6_2):
    """Printed Cayley matrices and inverses reproduce entry-exactly, < 1 s each."""
    t0 = time.monotonic()
    cm = build_cayley(spec_6_1)
    assert cm.matrix == Matrix.from_rows(L_13)
    assert invert(cm.matrix) == matrix_from_json(L_13_INV)
    t1 = time.monotonic()
    assert t1 - t0 < 1.0
    cm = build_cayley(spec_6_2)
    assert cm.matrix == Matrix.from_rows(L_8)
    assert invert(cm.matrix) == matrix_from_json(L_8_INV)
    assert time.monotonic() - t1 < 1.0
    report("criterion 1: golden 13x13 and 8x8 matrices with exact inverses")


def _theorem_products(spec):
    cm = build_cayley(spec)
    forms = solve_xi(cm, invert(cm.matrix))
    tr = MirrorPair(spec).tr
    tweights = derive_weights(tr.tspec)
    xi = factorize_xi(tr, forms, tweights)
    lemma = lemma_form(cm, forms)
    rep, product = verify_theorem_31(tr, xi, forms, charges(tr.tspec, tweights))
    return rep, product, lemma, tr


def test_criterion_2_mellin_forms(spec_6_1, spec_6_2):
    """Gamma-argument multisets match the printed closed forms exactly."""
    # original 6.2: Gamma(xi)^3 Gamma(2 xi)^2 / Gamma(7 xi), xi = (1-z)/7
    rep, product, lemma, tr = _theorem_products(spec_6_2)
    xi = zform((F(-1, 7),), F(1, 7))
    assert sort_forms(product.numerator) == sort_forms([xi] * 3 + [xi.scale(2)] * 2)
    assert sort_forms(product.denominator) == sort_forms([xi.scale(7)])
    assert rep.identity_holds and rep.reduces_to_lemma_form
    assert gamma_equal(product, lemma)

    # transposed 6.2: Gamma(3 xi) Gamma(2 xi)^2 Gamma(7 xi)^2 / Gamma(21 xi),
    # xi = (1-z)/21
    rep_t, product_t, lemma_t, _ = _theorem_products(tr.tspec)
    xi_t = zform((F(-1, 21),), F(1, 21))
    assert sort_forms(product_t.numerator) == sort_forms(
        [xi_t.scale(3)] + [xi_t.scale(2)] * 2 + [xi_t.scale(7)] * 2)
    assert sort_forms(product_t.denominator) == sort_forms([xi_t.scale(21)])
    assert gamma_equal(product_t, lemma_t)

    # 6.1: Gamma(xi1)^3 Gamma(xi2)^4 / (Gamma(3 xi1 + xi2) Gamma(3 xi2))
    rep1, product1, lemma1, _ = _theorem_products(spec_6_1)
    xi1 = zform((F(-1, 3), F(1, 9)), F(2, 9))
    xi2 = zform((F(0), F(-1, 3)), F(1, 3))
    assert sort_forms(product1.numerator) == sort_forms([xi1] * 3 + [xi2] * 4)
    three_xi1_plus_xi2 = (FractionZForm.of(xi1.scale(3)) + FractionZForm.of(xi2)).integer()
    assert sort_forms(product1.denominator) == sort_forms(
        [three_xi1_plus_xi2, xi2.scale(3)])
    assert gamma_equal(product1, lemma1)
    report("criterion 2: Mellin Gamma products for 6.2, its mirror, and 6.1")


def test_criterion_3_duality(spec_6_1, spec_6_2, quadric, corrupted):
    """The polynomial duality chains pass everywhere; the corrupted fixture fails."""
    cases = [spec_6_2, spec_6_1, quadric,
             generate_family(3), generate_family(4), generate_family(5)]
    for spec in cases:
        t0 = time.monotonic()
        pair = MirrorPair(spec)
        rep = verify_duality(pair.structure_ratio, poincare_structure(*pair.recovered_data),
                             not pair.unbalanced)
        assert rep.ok, rep
        assert time.monotonic() - t0 < 1.0
    pair = MirrorPair(corrupted)
    bad = verify_duality(pair.structure_ratio, poincare_structure(*pair.recovered_data),
                         not pair.unbalanced)
    assert not bad.ok
    assert not bad.identities["M_Y = PO_Xbar"]  # the violated identity, named
    report("criterion 3: duality on 6.2, 6.1, quadric, family m=3,4,5 + negative control")


def test_criterion_4_property_suite():
    """>= 200 random valid specs: every structural identity, zero failures."""
    specs = generate_valid_specs(200)
    assert len(specs) >= 200
    for spec in specs:
        cm = build_cayley(spec)
        inv = invert(cm.matrix)
        assert dense_matmul(cm.matrix, inv) == identity(cm.matrix.rows)
        forms = solve_xi(cm, inv)
        assert all(column_sums(forms).values())
        for nu in range(1, spec.k + 1):
            a = spec.a(nu)
            z_nu = ZForm.z(nu, spec.k)
            assert forms.xi(a - 2) == z_nu
            assert forms.xi(a - 1) == z_nu
            assert forms.xi(a) == z_nu.reflect()
        for op in horn_operators(spec, forms):
            assert op.degrees[0] == op.degrees[1]
    report("criterion 4: 200-spec property suite, zero failures")


def test_criterion_5_involution(spec_6_1, spec_6_2):
    """Double transposition returns the spec, on the examples and random specs."""
    assert involutive(MirrorPair(spec_6_1))
    assert involutive(MirrorPair(spec_6_2))
    count = 0
    for spec in generate_valid_specs(200):
        try:
            MirrorPair(spec).tr
        except (NoValidShapeError, NoInvolutiveNuError):
            continue
        assert involutive(MirrorPair(spec)), spec
        count += 1
    report(f"criterion 5: involution on both examples and {count} random mirrors")


def test_criterion_6_nef_partition(spec_6_1, quadric):
    """Dual partition solves with nonnegative cone pairings and Kronecker phi."""
    for spec in (quadric, spec_6_1):
        tr = MirrorPair(spec).tr
        nef = solve_dual_partition(spec, tr, derive_weights(spec), derive_weights(tr.tspec))
        assert nef.flags["minkowski_dim"]
        assert nef.flags["cone_pairings_nonnegative"]
        assert nef.flags["phi_kronecker"]
        for l, grp in enumerate(duals(nef), start=1):
            for m in grp:
                for q in range(1, spec.k + 1):
                    assert support_phi(nef.deltas, q, m) == (1 if q == l else 0)
        deltas = build_deltas(spec, derive_weights(spec))
        assert minkowski_dim(deltas) == spec.n - spec.k
    # quadric oracle, solved by hand in one dimension
    tr = MirrorPair(quadric).tr
    nef_q = solve_dual_partition(quadric, tr, derive_weights(quadric), derive_weights(tr.tspec))
    assert duals(nef_q) == (((F(1), F(0)), (F(-1), F(0))),)
    report("criterion 6: nef partitions on the quadric and 6.1")


def test_criterion_7_magic_square(spec_6_1):
    """The coefficient-matching bijection exists on the cubic example."""
    cm = build_cayley(spec_6_1)
    forms = solve_xi(cm, invert(cm.matrix))
    rep = magic_square_check(cm, forms)
    assert rep.found
    assert sorted(rep.assignments.values()) == [1, 2]
    for q, pairs in rep.witnesses.items():
        qq = rep.assignments[q]
        for b, i in pairs:
            assert z_coeffs(columns(forms)[b - 1])[q - 1] == \
                i_coeffs(columns(forms)[spec_6_1.a(qq) - 1])[i - 1]
    report("criterion 7: magic-square witness bijection on 6.1")


def test_criterion_8_series_sanity(spec_6_2):
    """Series of the structural algebra matches brute-force enumeration."""
    w = derive_weights(spec_6_2)
    assert w.vectors == ((3, 2, 2, 7, 7),)
    ratio = poincare_structure(w, charges(spec_6_2, w))

    counts = [0] * 8
    def rec(idx, total):
        if total > 7:
            return
        if idx == 5:
            counts[total] += 1
            return
        e = 0
        while total + e * (3, 2, 2, 7, 7)[idx] <= 7:
            rec(idx + 1, total + e * (3, 2, 2, 7, 7)[idx])
            e += 1
    rec(0, 0)
    assert counts == [1, 0, 2, 1, 3, 2, 5, 5]
    assert series_coefficients_1d(series_expand(ratio, 7), 7) == counts
    report("criterion 8: order-7 series equals brute-force enumeration")
