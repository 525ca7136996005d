import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mirrorkit import horn_system
from mirrorkit.ci_model import ChargeMatrix, WeightSystem, charges, derive_weights
from mirrorkit.horn_system import (
    FactorLimitError,
    HornError,
    char_polys,
    horn_operators,
    index_partition,
    restricted_operator,
    symmetry_report,
)
from mirrorkit.mellin import Forms
from mirrorkit.pipeline import MirrorPair, generate_family
from mirrorkit.poincare import CyclotomicRatio, poincare_structure
from mirrorkit.rational_linalg import Matrix

from oracles import (check_horn_sides, columns, constant, DegenerateOperatorError, entry,
                     rat_str, ratio_equal, z_coeffs)
from paper_data import L_8_INV, matrix_from_json
from specgen import generate_valid_specs, nonsingular_cayley_specs, oracle_specs


def test_index_partition_quadric(quadric):
    forms = MirrorPair(quadric).forms
    assert index_partition(forms, 1) == ((3, 4), (1, 2, 5), ())


def test_index_partition_6_2_against_printed_signs(spec_6_2):
    # oracle: signs in the z-row of the printed inverse
    inv = matrix_from_json(L_8_INV)
    signs = [entry(inv, 7, a) for a in range(8)]
    plus = tuple(a + 1 for a, s in enumerate(signs) if s > 0)
    minus = tuple(a + 1 for a, s in enumerate(signs) if s < 0)
    forms = MirrorPair(spec_6_2).forms
    assert index_partition(forms, 1) == (plus, minus, ())


def test_index_partition_zero_class(spec_6_1):
    forms = MirrorPair(spec_6_1).forms
    plus, minus, zero = index_partition(forms, 1)
    assert 1 in zero  # the first cube never sees the first deformation


def test_horn_degrees_match(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric):
        forms = MirrorPair(spec).forms
        delta, cols = forms.den, columns(forms)
        for op in horn_operators(spec, forms):
            degp, degq = op.degrees
            assert degp == degq
            assert op.delta_power == delta
            # degree equals the positive-side numerator sum
            expected = sum(int(z_coeffs(cols[a - 1])[op.q - 1] * delta)
                           for a in index_partition(forms, op.q)[0])
            assert degp == expected


def test_p_and_q_have_equal_degree_on_a_certified_inverse(fixtures_dir):
    # the proof in horn_operators: on a certified L^-1 every s-row sums to 0,
    # its positive entries count P's factors and its negative ones Q's, and it
    # is nonzero, so both sides are nonempty: the sign-class check the oracle
    # keeps (`check_horn_sides`) passes, as it fails on a doctored inverse,
    # one column (0, 0 | 1)
    with pytest.raises(DegenerateOperatorError, match="variable 1: empty sign class"):
        check_horn_sides(Forms(Matrix(((0,), (0,), (1,))), 1))
    operators = 0
    for spec in oracle_specs(fixtures_dir) + nonsingular_cayley_specs(300):
        pair = MirrorPair(spec)
        assert pair.certified
        forms = pair.forms
        assert all(sum(row) == 0 and any(row) for row in forms.s_rows)
        check_horn_sides(forms)
        for op in horn_operators(spec, forms):
            assert op.degrees[0] == op.degrees[1] > 0
            operators += 1
    assert operators == 779


def test_horn_factor_shape(quadric):
    forms = MirrorPair(quadric).forms
    op = horn_operators(quadric, forms)[0]
    # positive side: the two coefficient-one rows, Delta = 4 factors each
    assert op.degrees == (8, 8)
    factors = _factors(op.p_runs)
    assert sorted(f.shift for f in factors) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert all(f.coeffs == (Fraction(-1),) for f in factors)
    # the expanded side's leading coefficient is 1, and its constant term 0
    assert math.prod(f.coeffs[0] for f in factors) == 1
    assert math.prod(f.const + f.shift for f in factors) == 0


@dataclass(frozen=True)
class _Factor:
    """Reference single factor c0 + shift + sum_q c_q * theta_q, formatted on its own."""

    coeffs: tuple[Fraction, ...]
    const: Fraction
    shift: int

    def __str__(self) -> str:
        parts = []
        total = self.const + self.shift
        if total or not any(self.coeffs):
            parts.append(rat_str(total))
        for q, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            mag = rat_str(abs(c))
            body = f"th{q}" if mag == "1" else f"{mag}*th{q}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return "(" + " ".join(parts) + ")"

    def to_json(self) -> dict:
        return {"coeffs": {f"th{q}": rat_str(c) for q, c in enumerate(self.coeffs, start=1) if c},
                "const": rat_str(self.const), "shift": self.shift}


def _factors(runs):
    """The single factors a side's runs stand for."""
    return tuple(_Factor(tuple(Fraction(c, den) for c in coeffs), Fraction(const, den), j)
                 for coeffs, const, den, count in runs for j in range(count))


def _per_factor_operators(spec, forms):
    """Reference: every factor negates its form's z-coefficients afresh, and
    the operator's JSON and text format every factor on its own."""
    delta, cols = forms.den, columns(forms)
    ops = []
    for q in range(1, spec.k + 1):
        plus, minus, _ = index_partition(forms, q)
        sides = [[_Factor(tuple(-c for c in z_coeffs(cols[a - 1])),
                          constant(cols[a - 1].xi()), j)
                  for a in rows for j in range(abs(int(z_coeffs(cols[a - 1])[q - 1] * delta)))]
                 for rows in (plus, minus)]
        p, qq = ("".join(str(f) for f in side) or "1" for side in sides)
        text = f"{p} - s{q}{f'^{delta}' if delta != 1 else ''} * {qq}"
        ops.append((tuple(sides[0]), tuple(sides[1]), text,
                    {"q": q, "p_factors": [f.to_json() for f in sides[0]],
                     "q_factors": [f.to_json() for f in sides[1]],
                     "delta_power": delta, "variable": "s"}))
    return ops


def test_horn_operators_match_per_factor_construction(spec_6_1, spec_6_2, quadric, corrupted):
    specs = ([generate_family(m) for m in range(2, 13)]
             + [spec_6_1, spec_6_2, quadric, corrupted] + list(generate_valid_specs(200)))
    for spec in specs:
        forms = MirrorPair(spec).forms
        ops = horn_operators(spec, forms)
        reference = _per_factor_operators(spec, forms)
        assert len(ops) == len(reference) == spec.k
        for op, (ref_p, ref_q, ref_str, ref_json) in zip(ops, reference):
            assert (_factors(op.p_runs), _factors(op.q_runs)) == (ref_p, ref_q)
            assert op.degrees == (len(ref_p), len(ref_q))
            js = op.to_json()
            assert js == ref_json
            assert str(op) == ref_str
            # the factors of one run share one coeffs dict, and an equal run
            # later on the same side reuses the first one's factor dicts
            for runs, factors in ((op.p_runs, js["p_factors"]), (op.q_runs, js["q_factors"])):
                start, first = 0, {}
                for run in runs:
                    chunk, start = factors[start:start + run[3]], start + run[3]
                    assert len({id(f["coeffs"]) for f in chunk}) == 1
                    assert all(a is b for a, b in zip(first.setdefault(run, chunk), chunk))


def test_horn_factor_count_guard(quadric, monkeypatch):
    assert horn_system.FACTOR_COUNT_CAP == 10**6
    assert issubclass(FactorLimitError, HornError)
    m12 = generate_family(12)
    assert max(d for op in horn_operators(m12, MirrorPair(m12).forms) for d in op.degrees) == 1800
    forms = MirrorPair(quadric).forms
    monkeypatch.setattr(horn_system, "FACTOR_COUNT_CAP", 8)  # the quadric's 8 per side
    assert horn_operators(quadric, forms)[0].degrees == (8, 8)
    monkeypatch.setattr(horn_system, "FACTOR_COUNT_CAP", 7)
    with pytest.raises(FactorLimitError, match="variable 1: 8 p-factors exceed the cap of 7"):
        horn_operators(quadric, forms)


def test_horn_operators_hold_one_run_per_form(quadric):
    forms = MirrorPair(quadric).forms
    op = horn_operators(quadric, forms)[0]
    assert op.p_runs == (((-1,), 0, 1, 4), ((-1,), 0, 1, 4))
    assert op.degrees == (8, 8)
    assert len(op.q_runs) == len(index_partition(forms, 1)[1])


def test_restricted_operator_quadric(quadric):
    tr = MirrorPair(quadric).tr
    tw = derive_weights(tr.tspec)
    tq = charges(tr.tspec, tw)
    op = restricted_operator(tw, tq, 1)
    assert op.degrees == (2, 2)


def test_restricted_operator_6_2(spec_6_2):
    tr = MirrorPair(spec_6_2).tr
    tw = derive_weights(tr.tspec)
    tq = charges(tr.tspec, tw)
    op = restricted_operator(tw, tq, 1)
    # transposed weights (1,1,1,2,2): degree 7 on both sides
    assert sum(tw.support_values(1)) == 7
    assert op.degrees == (7, 7)


@pytest.mark.parametrize("name", ["example_6_1", "family_3"])
def test_restricted_operator_two_variables(name, spec_6_1):
    pair = MirrorPair(spec_6_1 if name == "example_6_1" else generate_family(3))
    ops = [restricted_operator(pair.tweights, pair.tcharges, q) for q in (1, 2)]
    assert [op.degrees for op in ops] == [(4, 4), (3, 3)]
    for q, op in enumerate(ops, start=1):
        # every right factor is restricted to the axis of t_q
        for coeffs, *_ in op.q_runs:
            assert [i for i, c in enumerate(coeffs, start=1) if c] == [q]


def test_char_polys_quadric(quadric):
    tr = MirrorPair(quadric).tr
    tw = derive_weights(tr.tspec)
    tq = charges(tr.tspec, tw)
    pair = char_polys(tw, tq, 1)
    assert pair.chi == 2
    assert pair.at_infinity == (1, 0, -1)          # 1 - t^2
    assert pair.at_zero == (1, -2, 1)              # (1 - t)^2
    assert pair.factored("zero") == "(1-λ^1)^2"


def test_char_polys_weight_one():
    w = WeightSystem(((1,),))
    q = ChargeMatrix(((1,),))
    pair = char_polys(w, q, 1)
    assert pair.at_zero == (1, -1)


def test_char_polys_6_1(spec_6_1):
    tr = MirrorPair(spec_6_1).tr
    tw = derive_weights(tr.tspec)
    tq = charges(tr.tspec, tw)
    assert char_polys(tw, tq, 1).chi == 4
    assert char_polys(tw, tq, 2).chi == 3
    # zero charge contributes no factor; degrees still balance
    assert char_polys(tw, tq, 2).infinity_exponents == (3,)


def test_m_function_quadric(quadric):
    tr = MirrorPair(quadric).tr
    tw = derive_weights(tr.tspec)
    tq = charges(tr.tspec, tw)
    assert poincare_structure(tw, tq) == CyclotomicRatio.build(1, [(1, 2)], [(1, 1), (1, 1)])


def test_m_function_formal_cancellation():
    w = WeightSystem(((2, 3),))
    q = ChargeMatrix(((0,),))
    # charges formally equal to weights cancel to one
    w2 = WeightSystem(((2, 3),))
    q2 = ChargeMatrix(((2,),))
    ratio = poincare_structure(w2, q2)
    assert ratio == CyclotomicRatio.build(1, [(1, 2)], [(1, 2), (1, 3)])
    full_cancel = poincare_structure(WeightSystem(((5,),)), ChargeMatrix(((5,),)))
    assert full_cancel == CyclotomicRatio(1, (), ())


def test_m_function_is_char_poly_ratio(spec_6_1, spec_6_2, quadric):
    # definitional consistency: the product over gradings of the two
    # characteristic polynomials reproduces the ratio
    for spec in (spec_6_1, spec_6_2, quadric):
        tr = MirrorPair(spec).tr
        tw = derive_weights(tr.tspec)
        tq = charges(tr.tspec, tw)
        num = []
        den = []
        for q in range(1, spec.k + 1):
            pair = char_polys(tw, tq, q)
            num.extend((q, d) for d in pair.infinity_exponents)
            den.extend((q, d) for d in pair.zero_exponents)
        assert ratio_equal(poincare_structure(tw, tq),
                           CyclotomicRatio.build(spec.k, num, den))


def test_symmetry_report(spec_6_1, spec_6_2, quadric):
    for spec, orders, torders in (
        (spec_6_2, (21,), (7,)),
        (quadric, (2,), (2,)),
        (spec_6_1, (3, 3), (3, 3)),
    ):
        tr = MirrorPair(spec).tr
        w, tw = derive_weights(spec), derive_weights(tr.tspec)
        rep = symmetry_report(w, charges(spec, w), tw, charges(tr.tspec, tw))
        assert rep.q_bars == orders
        assert rep.t_q_bars == torders

