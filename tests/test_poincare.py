import itertools
import random

from mirrorkit.ci_model import ChargeMatrix, WeightSystem, charges, derive_weights
from mirrorkit.poincare import (
    _expand_product,
    CyclotomicRatio,
    poincare_structure,
    series_coefficients_1d,
    series_expand,
    verify_duality,
)
from mirrorkit.pipeline import MirrorPair, generate_family

from oracles import degree_balanced, ratio_equal


def brute_force_weighted_count(weights, order):
    """Independent oracle: number of monomials of each weighted degree."""
    counts = [0] * (order + 1)

    def rec(idx, total):
        if total > order:
            return
        if idx == len(weights):
            counts[total] += 1
            return
        e = 0
        while total + e * weights[idx] <= order:
            rec(idx + 1, total + e * weights[idx])
            e += 1

    rec(0, 0)
    return counts


def test_poincare_structure_6_2(spec_6_2):
    w = derive_weights(spec_6_2)
    ratio = poincare_structure(w, charges(spec_6_2, w))
    assert ratio == CyclotomicRatio.build(
        1, [(1, 21)], [(1, 3), (1, 2), (1, 2), (1, 7), (1, 7)])


def test_poincare_structure_quadric(quadric):
    w = derive_weights(quadric)
    assert poincare_structure(w, charges(quadric, w)) == \
        CyclotomicRatio.build(1, [(1, 2)], [(1, 1), (1, 1)])


def test_poincare_formal_cancellation():
    w = WeightSystem(((4,),))
    q = ChargeMatrix(((4,),))
    assert poincare_structure(w, q) == CyclotomicRatio(1, (), ())


def test_poincare_euler_quadric(quadric):
    # the Euler series of the mirror is the same product over the transposed data
    tr = MirrorPair(quadric).tr
    tw = derive_weights(tr.tspec)
    assert poincare_structure(tw, charges(tr.tspec, tw)) == \
        CyclotomicRatio.build(1, [(1, 2)], [(1, 1), (1, 1)])


def test_empty_ratio_is_one():
    assert CyclotomicRatio(0, (), ()).num == ()
    assert series_expand(CyclotomicRatio(0, (), ()), 3) == {(): 1}


def test_ratio_equal_reflexive(spec_6_2):
    w = derive_weights(spec_6_2)
    ratio = poincare_structure(w, charges(spec_6_2, w))
    assert ratio_equal(ratio, ratio)


def test_ratio_equal_cancellation_aware():
    a = CyclotomicRatio.build(1, [(1, 2), (1, 5)], [(1, 1), (1, 5)])
    b = CyclotomicRatio.build(1, [(1, 2)], [(1, 1)])
    assert a == b  # canonical cancellation
    assert ratio_equal(a, b)
    c = CyclotomicRatio.build(1, [(1, 3)], [(1, 1)])
    assert not ratio_equal(b, c)


def test_ratio_equal_equivalence_properties():
    rng = random.Random(5)
    ratios = []
    for _ in range(8):
        num = [(1, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        den = [(1, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        ratios.append(CyclotomicRatio.build(1, num, den))
    for a, b, c in itertools.product(ratios, repeat=3):
        assert ratio_equal(a, a)
        if ratio_equal(a, b):
            assert ratio_equal(b, a)
        if ratio_equal(a, b) and ratio_equal(b, c):
            assert ratio_equal(a, c)


def _uncancelled_ratio_equal(a, b):
    """Reference: expand every factor of both cross-multiplied sides, no cancelling."""
    return (_expand_product(tuple(a.num) + tuple(b.den), a.k)
            == _expand_product(tuple(b.num) + tuple(a.den), a.k))


def test_ratio_equal_cancels_to_the_uncancelled_answer_on_factor_lists():
    rng = random.Random(17)
    outcomes = []
    for _ in range(300):
        k = rng.randint(1, 3)

        def factors(count):
            return tuple((rng.randint(1, k), rng.choice((-2, -1, 0, 1, 1, 2, 3, 4, 6)))
                         for _ in range(count))

        # hand-built, so zero exponents and repeated factors survive
        a = CyclotomicRatio(k, factors(rng.randint(0, 4)), factors(rng.randint(0, 4)))
        shared = factors(rng.randint(0, 3))
        if rng.random() < 0.5:   # the same function with extra common factors
            b = CyclotomicRatio(k, a.num + shared, a.den + shared)
        else:
            b = CyclotomicRatio(k, factors(rng.randint(0, 4)) + shared,
                                factors(rng.randint(0, 4)) + shared)
        got = ratio_equal(a, b)
        assert got == _uncancelled_ratio_equal(a, b), (a, b)
        outcomes.append(got)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def test_ratio_equal_with_different_factor_multisets():
    # (1-t^-1)(1-t^-3)/(1-t^-2)^2 = (1-t)(1-t^3)/(1-t^2)^2: no factor in common
    a = CyclotomicRatio.build(1, [(1, -1), (1, -3)], [(1, -2), (1, -2)])
    b = CyclotomicRatio.build(1, [(1, 1), (1, 3)], [(1, 2), (1, 2)])
    assert a != b
    assert ratio_equal(a, b) and _uncancelled_ratio_equal(a, b)
    # one sign off: (1-t^-1)/(1-t^-2) = t (1-t)/(1-t^2)
    c = CyclotomicRatio.build(1, [(1, -1)], [(1, -2)])
    d = CyclotomicRatio.build(1, [(1, 1)], [(1, 2)])
    assert not ratio_equal(c, d) and not _uncancelled_ratio_equal(c, d)
    # an uncancelled hand-built ratio against its canonical form
    e = CyclotomicRatio(2, ((1, 1), (2, 3), (1, 2)), ((1, 1),))
    f = CyclotomicRatio.build(2, [(2, 3), (1, 2)], [])
    assert e != f and ratio_equal(e, f)


def _duality_ratio_pair(spec):
    """The two sides of M_Y = PO_Xbar, the one identity verify_duality compares."""
    pair = MirrorPair(spec)
    return (poincare_structure(*pair.recovered_data),
            poincare_structure(pair.effective_weights, pair.charges))


def test_ratio_equal_matches_uncancelled_expansion_on_duality_ratios(corrupted):
    # verify_duality's `==` agrees with both expansions
    for m in range(3, 13):
        a, b = _duality_ratio_pair(generate_family(m))
        assert ratio_equal(a, b) is True
        assert _uncancelled_ratio_equal(a, b)
        assert a == b
    a, b = _duality_ratio_pair(corrupted)
    assert ratio_equal(a, b) is False
    assert not _uncancelled_ratio_equal(a, b)
    assert a != b


def test_series_expand_geometric():
    ratio = CyclotomicRatio.build(1, [(1, 2)], [(1, 1), (1, 1)])
    assert series_coefficients_1d(series_expand(ratio, 3), 3) == [1, 2, 2, 2]


def test_series_expand_constant():
    assert series_expand(CyclotomicRatio(1, (), ()), 5) == {(0,): 1}


def test_zero_exponent_factor_is_the_zero_polynomial():
    # 1 - t^0 = 0, not -1
    assert _expand_product([(1, 0)], 1) == {}
    assert _expand_product([(2, 3), (1, 0)], 2) == {}
    zero = CyclotomicRatio(1, ((1, 0),), ((1, 1),))  # bypasses canonical construction
    assert series_expand(zero, 4) == {}


def test_series_expand_rejects_degenerate_denominator():
    from mirrorkit.poincare import NotExpandableError
    import pytest
    bad = CyclotomicRatio(1, (), ((1, 0),))  # bypasses canonical construction
    with pytest.raises(NotExpandableError):
        series_expand(bad, 3)


def test_series_expand_term_cap(monkeypatch):
    import pytest
    from mirrorkit import poincare
    assert poincare.SERIES_TERM_CAP == 2000
    assert issubclass(poincare.SeriesLimitError, poincare.PoincareError)
    k1 = CyclotomicRatio.build(1, [(1, 2)], [(1, 1), (1, 1)])
    k2 = CyclotomicRatio.build(2, [], [(1, 1), (2, 1)])   # every monomial appears
    monkeypatch.setattr(poincare, "SERIES_TERM_CAP", 45)
    assert series_coefficients_1d(series_expand(k1, 44), 44) == [1, 2] + [2] * 43   # C(45, 1)
    assert len(series_expand(k2, 8)) == 45                        # C(10, 2) = 45 terms
    expanded = []
    monkeypatch.setattr(poincare, "_poly_mul", lambda *args: expanded.append(args))
    with pytest.raises(poincare.SeriesLimitError,
                       match=r"order 45 in 1 variable\(s\) allows 46 series terms, "
                             r"above the cap of 45"):
        series_expand(k1, 45)
    with pytest.raises(poincare.SeriesLimitError, match="order 9 in 2 variable"):
        series_expand(k2, 9)
    assert expanded == []   # refused before any product was taken


def test_series_expand_6_2_matches_enumeration(spec_6_2):
    w = derive_weights(spec_6_2)
    ratio = poincare_structure(w, charges(spec_6_2, w))
    # brute-force enumeration under weights (3,2,2,7,7); the degree-21
    # relation cannot affect orders <= 7
    oracle = brute_force_weighted_count((3, 2, 2, 7, 7), 7)
    assert oracle == [1, 0, 2, 1, 3, 2, 5, 5]
    assert series_coefficients_1d(series_expand(ratio, 7), 7) == oracle


def test_series_coefficients_nonnegative(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric):
        w = derive_weights(spec)
        ratio = poincare_structure(w, charges(spec, w))
        table = series_expand(ratio, 6)
        assert all(c >= 0 for c in table.values())


def test_degree_balance(spec_6_1, spec_6_2, quadric, corrupted):
    # MirrorPair.unbalanced is P_A's degree balance: its blocks are the
    # variables where structure_ratio's numerator and denominator degrees
    # differ, and by as much as its two sums
    unbalanced = []
    for spec in (spec_6_1, spec_6_2, quadric, corrupted):
        pair = MirrorPair(spec)
        ratio = pair.structure_ratio
        gaps = {q: sum(d for v, d in ratio.num if v == q) - sum(d for v, d in ratio.den if v == q)
                for q in range(1, spec.k + 1)}
        assert {q: lhs - rhs for q, lhs, rhs in pair.unbalanced} == {
            q: gap for q, gap in gaps.items() if gap}
        assert degree_balanced(ratio) == (not pair.unbalanced)
        unbalanced.append(pair.unbalanced)
    assert unbalanced == [(), (), (), ((1, 21, 22),)]


def test_verify_duality_positive_cases(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric,
                 generate_family(3), generate_family(4), generate_family(5)):
        pair = MirrorPair(spec)
        report = verify_duality(pair.structure_ratio, poincare_structure(*pair.recovered_data),
                                not pair.unbalanced)
        assert report.ok, (spec, report)


def test_verify_duality_corrupted_weights(corrupted):
    pair = MirrorPair(corrupted)
    report = verify_duality(pair.structure_ratio, poincare_structure(*pair.recovered_data),
                            not pair.unbalanced)
    assert not report.ok
    assert not report.identities["M_Y = PO_Xbar"]


def test_multivariate_series_6_1(spec_6_1):
    w = derive_weights(spec_6_1)
    ratio = poincare_structure(w, charges(spec_6_1, w))
    table = series_expand(ratio, 2)
    # the ratio reduces to (1-t1^3)(1-t2^3) / ((1-t1)^3 (1-t2)^3): the
    # grading-one relation cancels one of the four block-one variables
    assert table[(1, 0)] == 3
    assert table[(0, 1)] == 3
    assert table[(0, 0)] == 1
