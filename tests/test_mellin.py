import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from mirrorkit import ci_model, mellin
from mirrorkit.ci_model import build_cayley, charges, derive_weights
from mirrorkit.mellin import (
    GammaProduct,
    ZForm,
    XiFactorization,
    classify_forms,
    factorize_xi,
    lemma_form,
    solve_xi,
    sort_forms,
    verify_theorem_31,
)
from mirrorkit.pipeline import MirrorPair, generate_family, run_verify
from mirrorkit.poincare import poincare_structure
from mirrorkit.rational_linalg import Matrix, invert
from mirrorkit.transposition import inverse_hint, TranspositionError

from oracles import (
    ClassificationFailureError,
    FractionZForm,
    IdentityViolatedError,
    LemmaShapeViolationError,
    NotFactorizableError,
    check_constant_rows,
    check_factorization,
    check_lemma_shape,
    classify_by_pattern,
    column_sums,
    column,
    columns,
    constant,
    contraction,
    degree_balanced,
    dense_matmul,
    entries,
    entry,
    fraction_matrix,
    gamma_equal,
    i_coeffs,
    identity,
    linear_form,
    over_one_denominator,
    with_column,
    z_coeffs,
    zeta_coeffs,
    zform,
)
from paper_data import L_8_INV, L_13_INV, matrix_from_json
from specgen import nonsingular_cayley_specs, oracle_specs, random_cayley_spec

F = Fraction


def zf(consts, *coeffs):
    return zform(tuple(F(c) for c in coeffs), F(consts))


def test_solve_xi_quadric(quadric):
    # hand solution of the five scalar equations
    forms = MirrorPair(quadric).forms
    assert [forms.xi(a) for a in range(1, len(forms) + 1)] == [
        zf(F(1, 2), F(-1, 2)), zf(F(1, 2), F(-1, 2)), zf(0, 1), zf(0, 1), zf(1, -1)]


def test_solve_xi_6_1_printed_forms(spec_6_1):
    forms = MirrorPair(spec_6_1).forms
    # the printed xi^(1) variant with the shifted constant matches (1.6):
    # -(z1-1)/3 + (z2-1)/9, not -(z1-1)/3 + z2/9
    xi1 = zf(F(2, 9), F(-1, 3), F(1, 9))
    xi2 = zf(F(1, 3), 0, F(-1, 3))
    assert forms.xi(2) == xi1
    assert forms.xi(1) == xi2
    assert [forms.xi(a) for a in (8, 9, 10)] == [xi2] * 3


def test_forms_match_printed_inverse(spec_6_1, spec_6_2):
    for spec, printed in ((spec_6_1, L_13_INV), (spec_6_2, L_8_INV)):
        forms = MirrorPair(spec).forms
        inv = matrix_from_json(printed)
        n, k = spec.n, spec.k
        for a, form in enumerate(columns(forms), start=1):
            col = column(inv, a - 1)
            assert i_coeffs(form) == col[:n]
            assert zeta_coeffs(form) == col[n:n + 2 * k]
            assert z_coeffs(form) == col[n + 2 * k:]


def test_sum_at_base_point(spec_6_1, spec_6_2, quadric):
    # forced by the global relation: at i=0, zeta=0 the forms sum to 2k with
    # all z-dependence cancelling
    for spec in (spec_6_1, spec_6_2, quadric):
        forms = MirrorPair(spec).forms
        total = FractionZForm.of(forms.xi(1))
        for a in range(2, len(forms) + 1):
            total = total + FractionZForm.of(forms.xi(a))
        assert total.integer() == zform(tuple(F(0) for _ in range(spec.k)), F(2 * spec.k))


def test_resubstitution_identity(spec_6_1, spec_6_2, quadric):
    # t(L) . Xi(z) reproduces (1,...,1, z_1,...,z_k) identically in z
    for spec in (spec_6_1, spec_6_2, quadric):
        cm = build_cayley(spec)
        forms = solve_xi(cm, invert(cm.matrix))
        n, k = spec.n, spec.k
        for c in range(cm.size):
            total = FractionZForm((F(0),) * k, F(0))
            for a in range(cm.size):
                assert entry(cm.matrix, a, c) == cm.matrix.num[a][c]   # an integral matrix
                total = total + FractionZForm.of(forms.xi(a + 1).scale(cm.matrix.num[a][c]))
            if c < n + 2 * k:
                assert total.integer() == zform(tuple(F(0) for _ in range(k)), F(1))
            else:
                assert total.integer() == ZForm.z(c - n - 2 * k + 1, k)


def test_compute_delta(spec_6_1, spec_6_2, quadric):
    # oracle: denominator lcm of an inverse verified by multiplying back
    for spec, expected in ((spec_6_2, 147), (spec_6_1, 27), (quadric, 4)):
        cm = build_cayley(spec)
        inv = invert(cm.matrix)
        assert dense_matmul(cm.matrix, inv) == identity(cm.size)
        d = 1
        for row in entries(inv):
            for x in row:
                d = d * x.denominator // math.gcd(d, x.denominator)
        assert d == expected
        assert solve_xi(cm, invert(cm.matrix)).den == expected


def test_forms_are_the_inverse_columns_over_its_denominator(spec_6_2):
    # no per-form gcd: form a is column a of L^-1's numerators over Delta = 147,
    # and its xi() is still reduced
    pair = MirrorPair(spec_6_2)
    assert pair.forms.inverse is pair.inverse and pair.forms.den == 147
    for a, form in enumerate(columns(pair.forms)):
        assert form.num == tuple(row[a] for row in pair.inverse.num)
        assert form.den == pair.inverse.den == 147
        assert pair.forms.xi(a + 1) == form.xi()
        assert form.xi().den in (1, 3, 7, 21, 49, 147)
        assert math.gcd(form.xi().den, *form.xi().num) == 1


def test_classify_forms(spec_6_1, spec_6_2, quadric):
    for spec, expected in (
        (quadric, ("c", "c", "a", "c", "b")),
        (spec_6_2, ("c", "c", "c", "c", "c", "a", "c", "b")),
        (spec_6_1, ("c",) * 4 + ("a", "c", "b") + ("c",) * 3 + ("a", "c", "b")),
    ):
        cm = build_cayley(spec)
        assert classify_forms(cm) == expected
        assert classify_by_pattern(cm, solve_xi(cm, invert(cm.matrix))) == expected


def test_s_row_forms_are_pure(spec_6_1):
    # the s-row columns of the printed inverse are unit vectors at the z slots
    forms = MirrorPair(spec_6_1).forms
    assert forms.xi(5) == zf(0, 1, 0)   # a^1 - 2 = 5
    assert forms.xi(11) == zf(0, 0, 1)  # a^2 - 2 = 11


def test_check_sum_rules_against_printed_inverse(spec_6_1, spec_6_2):
    # oracle: explicit column sums of the transcribed matrices
    for spec, printed in ((spec_6_1, L_13_INV), (spec_6_2, L_8_INV)):
        inv = matrix_from_json(printed)
        n, k = spec.n, spec.k
        for j in range(n):
            assert sum(entry(inv, j, a) for a in range(inv.cols)) == 0
        for q in range(k):
            assert sum(entry(inv, n + 2 * k + q, a) for a in range(inv.cols)) == 0
        assert all(column_sums(MirrorPair(spec).forms).values())


def test_lemma_form_quadric(quadric):
    product = lemma_form(build_cayley(quadric), MirrorPair(quadric).forms)
    expected = sort_forms([zf(0, 1), zf(F(1, 2), F(-1, 2)), zf(F(1, 2), F(-1, 2))])
    assert product.numerator == expected
    assert product.denominator == ()


def test_lemma_form_6_2_is_the_printed_formula(spec_6_2):
    product = lemma_form(build_cayley(spec_6_2), MirrorPair(spec_6_2).forms)
    expected = sort_forms(
        [zf(0, 1)] + [zf(F(1, 7), F(-1, 7))] * 3 + [zf(F(2, 7), F(-2, 7))] * 2)
    assert product.numerator == expected


def test_lemma_form_6_1_is_the_printed_formula(spec_6_1):
    product = lemma_form(build_cayley(spec_6_1), MirrorPair(spec_6_1).forms)
    xi1 = zf(F(2, 9), F(-1, 3), F(1, 9))
    xi2 = zf(F(1, 3), 0, F(-1, 3))
    expected = sort_forms([zf(0, 1, 0), zf(0, 0, 1)] + [xi1] * 3 + [xi2] * 4)
    assert product.numerator == expected


def test_factorize_xi_quadric(quadric):
    tr = MirrorPair(quadric).tr
    forms = MirrorPair(quadric).forms
    xi = factorize_xi(tr, forms, derive_weights(tr.tspec))
    assert xi.factors == ((1, 1),)
    assert xi.xi_forms == (zf(F(1, 2), F(-1, 2)),)


def test_factorize_xi_6_2(spec_6_2):
    tr = MirrorPair(spec_6_2).tr
    forms = MirrorPair(spec_6_2).forms
    xi = factorize_xi(tr, forms, derive_weights(tr.tspec))
    assert xi.factors == ((1, 1, 1, 2, 2),)
    assert xi.xi_forms == (zf(F(1, 7), F(-1, 7)),)
    assert xi.p_tilde == fraction_matrix([[F(1, 7)]])


def test_factorize_xi_unequal_ratios():
    # doctoring one monomial form breaks the proportionality that
    # factorize_xi proves and the oracle checks
    from mirrorkit.ci_model import CISpec
    quadric = CISpec.load("src/mirrorkit/fixtures/derived_quadric.json")
    tr = MirrorPair(quadric).tr
    forms = MirrorPair(quadric).forms
    check_factorization(tr, forms, derive_weights(tr.tspec))
    f = columns(forms)[0]
    broken = with_column(forms, 1, linear_form(i_coeffs(f), zeta_coeffs(f), (F(1, 3),)))
    with pytest.raises(NotFactorizableError):
        check_factorization(tr, broken, derive_weights(tr.tspec))


def test_classify_rejects_a_fractional_pure_z_form(quadric):
    # a constant-row form's z part must be exactly -z_nu; -z_nu / 2 has the
    # shape but not the value (the s-row forms are z_nu by the certificate)
    cm = build_cayley(quadric)
    forms = MirrorPair(quadric).forms
    f = columns(forms)[4]
    assert cm.row_labels[4][1] == "constant-row" and z_coeffs(f) == (-1,)
    doctored = with_column(forms, 5, linear_form(i_coeffs(f), zeta_coeffs(f), (F(-1, 2),)))
    for check in (check_constant_rows, classify_by_pattern):
        with pytest.raises(ClassificationFailureError, match="form 5 matches no pattern"):
            check(cm, doctored)


def test_classify_rejects_zero_form(quadric):
    cm = build_cayley(quadric)
    forms = solve_xi(cm, invert(cm.matrix))
    k = quadric.k
    zero = linear_form((F(0),) * quadric.n, (F(0),) * (2 * k), (F(0),) * k)
    with pytest.raises(ClassificationFailureError, match="form 1 is identically zero"):
        classify_by_pattern(cm, with_column(forms, 1, zero))
    with pytest.raises(ClassificationFailureError, match="form 5 matches no pattern"):
        check_constant_rows(cm, with_column(forms, 5, zero))


def test_lemma_shape_violation(quadric):
    # corrupt the product or the constant row's form so that its base-point
    # value is no longer z_1 or 1 - z_1 (the s-row's form is z_1 by the
    # certified inverse, so the check does not read it); lemma_form proves the
    # shape from the weights, so the oracle's check_lemma_shape makes it
    cm = build_cayley(quadric)
    forms = solve_xi(cm, invert(cm.matrix))
    for a, message in ((4, "row 4: expected z1"), (5, "row 5: expected 1 - z1")):
        f = columns(forms)[a - 1]
        doctored = with_column(forms, a, linear_form(i_coeffs(f), zeta_coeffs(f),
                                                     (z_coeffs(f)[0] / 2,)))
        with pytest.raises(LemmaShapeViolationError, match=f"^{message}$"):
            check_lemma_shape(cm, doctored)


def test_theorem_identity_violated(quadric):
    # a common form scaled by 1/3 contracts to (1 - z)/3, not to 1 - z_m:
    # verify_theorem_31 proves the contraction, and the oracle checks it
    tr = MirrorPair(quadric).tr
    forms = MirrorPair(quadric).forms
    tq = charges(tr.tspec, derive_weights(tr.tspec))
    good = factorize_xi(tr, forms, derive_weights(tr.tspec))
    assert contraction(tr, good, tq) == tr.block_sources
    bad = XiFactorization((good.xi_forms[0].scale(1, 3),), good.factors,
                          good.row_groups, good.p_tilde)
    with pytest.raises(IdentityViolatedError):
        contraction(tr, bad, tq)


def test_theorem_quadric(quadric):
    tr = MirrorPair(quadric).tr
    forms, tw = MirrorPair(quadric).forms, derive_weights(tr.tspec)
    xi = factorize_xi(tr, forms, tw)
    report, product = verify_theorem_31(tr, xi, forms, charges(tr.tspec, tw))
    assert report.identity_holds and report.reduces_to_lemma_form
    assert gamma_equal(product, lemma_form(build_cayley(quadric), forms))
    # Gamma(xi)^2 / Gamma(2 xi) with xi = (1-z)/2
    assert list(product.numerator) == [zf(F(1, 2), F(-1, 2))] * 2
    assert list(product.denominator) == [zf(1, -1)]


def test_theorem_6_1_denominators(spec_6_1):
    tr = MirrorPair(spec_6_1).tr
    forms, tw = MirrorPair(spec_6_1).forms, derive_weights(tr.tspec)
    xi = factorize_xi(tr, forms, tw)
    report, product = verify_theorem_31(tr, xi, forms, charges(tr.tspec, tw))
    assert report.identity_holds
    assert report.matches_nu_inverse
    assert report.block_to_z == contraction(tr, xi, charges(tr.tspec, tw)) == tr.nu.images
    # 3 xi^(1) + xi^(2) = 1 - z1 and 3 xi^(2) = 1 - z2
    assert sort_forms(product.denominator) == sort_forms([zf(1, -1, 0), zf(1, 0, -1)])


def test_theorem_31_reads_the_charges_and_plain_product_it_is_given(monkeypatch):
    # it reads the charges it is given, and no plain product: the reduction
    # to it is proved, not compared
    pair = MirrorPair(generate_family(5))
    tr, forms, tq = pair.tr, pair.forms, pair.tcharges
    xi = factorize_xi(tr, forms, pair.tweights)
    expected = verify_theorem_31(tr, xi, forms, tq)

    def rebuilt(*args):
        raise AssertionError("verify_theorem_31 rebuilt what it was handed")

    monkeypatch.setattr(mellin, "lemma_form", rebuilt)
    monkeypatch.setattr(mellin, "charges", rebuilt, raising=False)
    monkeypatch.setattr(ci_model, "charges", rebuilt)
    assert verify_theorem_31(tr, xi, forms, tq) == expected


def test_gamma_reflection_normalization():
    a = GammaProduct((zf(0, 1),), (), delta=7)
    b = GammaProduct((), (zf(1, -1),), delta=7)
    assert gamma_equal(a, b)
    c = GammaProduct((zf(F(1, 2), F(-1, 2)),), (), delta=7)
    assert not gamma_equal(a, c)


def test_gamma_product_display(spec_6_2):
    cm = build_cayley(spec_6_2)
    product = lemma_form(cm, solve_xi(cm, invert(cm.matrix)))
    assert str(product) == \
        "Gamma(z1)*Gamma((1 - z1)/7)^3*Gamma((2 - 2*z1)/7)^2"


def _oracle_specs():
    from specgen import generate_valid_specs
    fixtures = [ci_model.CISpec.load(f"src/mirrorkit/fixtures/{name}.json")
                for name in ("example_6_1", "example_6_2", "derived_quadric")]
    return (list(generate_valid_specs(200)) + [generate_family(m) for m in range(2, 13)]
            + fixtures)


def test_integer_forms_match_the_fraction_oracle():
    # every integer form against the Fraction split of its inverse column
    for spec in _oracle_specs():
        pair = MirrorPair(spec)
        inverse, forms = pair.inverse, pair.forms
        n, k = spec.n, spec.k
        for a, form in enumerate(columns(forms)):
            col = column(inverse, a)
            assert (i_coeffs(form), zeta_coeffs(form), z_coeffs(form)) == \
                (col[:n], col[n:n + 2 * k], col[n + 2 * k:])
            assert constant(forms.xi(a + 1)) == sum(col[:n + 2 * k])
            assert forms.xi(a + 1) == zform(col[n + 2 * k:], sum(col[:n + 2 * k]))
            assert (form.num, form.den) == (tuple(row[a] for row in inverse.num), inverse.den)
            oracle = linear_form(col[:n], col[n:n + 2 * k], col[n + 2 * k:])
            assert over_one_denominator((form, oracle))[1] == form
        assert forms.den == inverse.den
        cols = [column(inverse, a) for a in range(len(forms))]
        assert column_sums(forms) == {
            "i_column_sums_vanish": all(sum(c[j] for c in cols) == 0 for j in range(n)),
            "z_column_sums_vanish": all(sum(c[n + 2 * k + q] for c in cols) == 0
                                        for q in range(k)),
            "zeta_column_sums_one": all(sum(c[n + l] for c in cols) == 1 for l in range(2 * k)),
            "constants_sum_2k": sum(sum(c[:n + 2 * k]) for c in cols) == 2 * k,
        }


def test_column_sums_fail_on_a_doctored_form(quadric):
    # the oracle's integer sums see a change that keeps every other form
    forms = MirrorPair(quadric).forms
    f = columns(forms)[0]
    doctored = with_column(forms, 1, linear_form(i_coeffs(f), zeta_coeffs(f),
                                                 (z_coeffs(f)[0] + F(1, 3),)))
    assert doctored.den == 12
    assert column_sums(doctored) == {
        "i_column_sums_vanish": True, "z_column_sums_vanish": False,
        "zeta_column_sums_one": True, "constants_sum_2k": True}
    doctored = with_column(forms, 1, linear_form((i_coeffs(f)[0] + 1, *i_coeffs(f)[1:]),
                                                 zeta_coeffs(f), z_coeffs(f)))
    assert column_sums(doctored) == {
        "i_column_sums_vanish": False, "z_column_sums_vanish": True,
        "zeta_column_sums_one": True, "constants_sum_2k": False}


def test_sum_rules_fail_on_a_doctored_form(monkeypatch, quadric):
    # the sum rules are proved from L v = 1, v the indicator of the y columns:
    # a Cayley matrix whose row 1 gave its y entry to row 2 ends run_verify,
    # right after validation, as an internal error
    cm = build_cayley(quadric)
    mellin.check_y_rows(cm)
    num = [list(row) for row in cm.matrix.num]
    y1 = quadric.n
    assert num[0][y1] == num[1][y1] == 1
    num[0][y1], num[1][y1] = 0, 2
    moved = ci_model.CayleyMatrix(Matrix(tuple(map(tuple, num))), cm.row_labels,
                                  cm.col_labels, cm.a_indices, cm.i_lambda, quadric)
    message = "Cayley row 1 does not have one 1 among the y columns"
    with pytest.raises(mellin.MellinError, match=f"^{message}$"):
        mellin.check_y_rows(moved)
    validate = ci_model.validate

    def validate_then_move(spec, pair):
        report = validate(spec, pair)
        pair.cm = moved
        return report

    monkeypatch.setattr(ci_model, "validate", validate_then_move)
    report = run_verify(quadric)
    assert [s.name for s in report.stages] == ["validate"]
    assert report.internal_error == message
    assert (report.exit_code(False), report.exit_code(True)) == (3, 3)


def test_a_doctored_factor_does_not_reduce_to_the_plain_product(spec_6_2):
    # Theorem 3.1's numerator must be the multiset of the monomial forms: one
    # factor 1 of xi^(1) made 2 keeps the set of factors and the contraction
    # identity, but the product no longer reduces to the plain one (the
    # oracles: verify_theorem_31 proves both for the factors it is built from)
    pair = MirrorPair(spec_6_2)
    xi, lemma = pair.xi, pair.lemma
    assert pair.theorem31[0].reduces_to_lemma_form and gamma_equal(pair.theorem31[1], lemma)
    assert xi.factors == ((1, 1, 1, 2, 2),)
    doctored = XiFactorization(xi.xi_forms, ((1, 1, 2, 2, 2),), xi.row_groups, xi.p_tilde)
    report, product = verify_theorem_31(pair.tr, doctored, pair.forms, pair.tcharges)
    assert contraction(pair.tr, doctored, pair.tcharges) == pair.theorem31[0].block_to_z
    assert set(product.numerator) == set(pair.theorem31[1].numerator)
    assert not gamma_equal(product, lemma)


def test_the_proofs_premises_hold_on_the_oracle_set(fixtures_dir):
    # the premises of the proofs that replaced run-time checks, on the oracle
    # set, 300 nonsingular specs and a seeded sample of random_cayley_spec:
    # - every row of L has one 1 among the y columns (the sum rules);
    # - the checks the weights decide (the constant rows' forms and the plain
    #   product's shape, in the oracles) fail exactly where weight_hint's M is
    #   not 0, and so never on a spec with weights (where M = 0); where they
    #   pass, the three-pattern oracle gives the row kinds' tags.  A spec
    #   without weights can have M = 0 (its kernel's classes are not its
    #   blocks, or not positive): no reader of the forms reaches it;
    # - where the transposition resolves, it read its classes off the basis H
    #   of the certified L^-1 (M' = 0), and the char-polys degrees and M_X
    #   balance;
    # - there, Theorem 3.1 as factorize_xi and verify_theorem_31 prove it: the
    #   oracles' factorization and contraction hold, every product-row
    #   constant is 0 and every monomial-row xi vanishes at z = 1, so
    #   xi^(nu) = p_tilde . (1 - z), the contraction is block_sources, which
    #   is nu's images, the row groups partition cm.i_lambda and the product
    #   reduces to the plain one
    def failure(check, cm, forms):
        try:
            check(cm, forms)
        except (ClassificationFailureError, LemmaShapeViolationError) as exc:
            return str(exc)

    sample = (random_cayley_spec(random.Random(40000 + i), 3, 3) for i in range(100))
    counts = Counter()
    for spec in oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300) + [
            spec for spec in sample if spec is not None]:
        pair = MirrorPair(spec)
        cm, forms = pair.cm, pair.forms
        n, k = spec.n, spec.k
        assert all(sum(row[n:n + 2 * k]) == cm.matrix.den for row in cm.matrix.num)
        assert all(column_sums(forms).values())
        try:
            pair.weights
            weighted = True
        except ci_model.SpecError:
            weighted = False
        m_zero = not any(map(any, ci_model.weight_hint(spec, pair.inverse)[1]))
        assert m_zero or not weighted
        unclassified = failure(check_constant_rows, cm, forms)
        assert (unclassified is None) == (failure(check_lemma_shape, cm, forms) is None) == m_zero
        if unclassified is None:
            assert classify_forms(cm) == classify_by_pattern(cm, forms)
        else:
            with pytest.raises(ClassificationFailureError, match=f"^{unclassified}$"):
                classify_by_pattern(cm, forms)
        if not weighted:
            counts["no weights, M = 0" if m_zero else "no weights, M != 0"] += 1
            continue
        try:
            pair.tr
        except TranspositionError:
            counts["not transposed"] += 1
            continue
        h, m_prime = inverse_hint(cm, pair.inverse)
        assert pair.certified and not any(map(any, m_prime)) and pair._class_hint == h
        assert all(len(p.at_zero) == len(p.at_infinity) for p in pair.char_polys)
        assert degree_balanced(poincare_structure(pair.tweights, pair.tcharges))
        tr, xi, (report, product) = pair.tr, pair.xi, pair.theorem31
        check_factorization(tr, forms, pair.tweights)
        assert not any(forms.constants[spec.a(nu) - 2] for nu in range(1, k + 1))
        assert not any(sum(forms.xi_nums[r - 1]) for r in cm.i_lambda)
        p_tilde = xi.p_tilde
        assert [ZForm.reduced((*(-x for x in row), sum(row)), p_tilde.den)
                for row in p_tilde.num] == list(xi.xi_forms)
        assert (report.block_to_z == contraction(tr, xi, pair.tcharges) == tr.block_sources
                == tr.nu.images)
        assert sorted(chain.from_iterable(xi.row_groups)) == list(cm.i_lambda)
        assert gamma_equal(product, pair.lemma)
        counts["factorized"] += 1
    assert counts == {"no weights, M != 0": 111, "no weights, M = 0": 51,
                      "not transposed": 201, "factorized": 186}


def test_every_gamma_product_is_sorted_on_both_sides(fixtures_dir):
    # GammaProduct.__str__ renders each side in its stored order: every product
    # lemma_form and verify_theorem_31 build on the oracle set is sorted on
    # both sides, so the text is the one a re-sort would give
    def display(forms):
        return "*".join(f"Gamma({f})" + (f"^{m}" if m > 1 else "")
                        for f, m in Counter(sort_forms(forms)).items()) or "1"

    counts = Counter()
    for spec in oracle_specs(fixtures_dir):
        pair = MirrorPair(spec)
        products = [("lemma", pair.lemma)]
        try:
            products.append(("theorem31", pair.theorem31[1]))
        except (mellin.MellinError, ci_model.SpecError):
            pass
        for name, product in products:
            for side in (product.numerator, product.denominator):
                assert side == sort_forms(side)
            text = display(product.numerator)
            if product.denominator:
                text += f" / [{display(product.denominator)}]"
            assert str(product) == text
            counts[name] += 1
    assert counts == {"lemma": 216, "theorem31": 76}


def test_run_verify_builds_no_fraction(monkeypatch):
    # the forms, both Gamma products, Theorem 3.1 and the Horn runs are
    # integer numerators over one denominator; no Fraction anywhere in a run
    specs = [generate_family(7)] + _oracle_specs()[-3:]
    before = [json.dumps(run_verify(spec).to_json()) for spec in specs]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    Fraction(1, 2)   # the counter does see a construction
    assert built == [(1, 2)]
    for spec, expected in zip(specs, before):
        built.clear()
        report = run_verify(spec)
        assert json.dumps(report.to_json()) == expected
        assert built == []


def test_run_verify_builds_no_entry_view():
    # the forms, Delta, sum rules, classification, Horn counts, magic square
    # and the nef JSON all read integer rows: a Matrix has no Fraction entry
    # view to build (the tests' is `oracles.entries`), and no module imports one
    from mirrorkit import rational_linalg
    assert not any(hasattr(Matrix, name) for name in ("entries", "col", "__getitem__"))
    assert not hasattr(rational_linalg, "Fraction")
    for spec in [generate_family(7)] + _oracle_specs()[-3:]:
        assert run_verify(spec).internal_error is None
