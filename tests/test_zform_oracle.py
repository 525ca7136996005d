"""The integer ZForm against the Fraction arithmetic it replaces, on random rationals."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mirrorkit.mellin import GammaProduct, ZForm, sort_forms  # noqa: E402

from oracles import canonical_multiset, coeffs, constant, FractionZForm  # noqa: E402

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=24)
# few values, so that sorting meets equal constants and equal forms
SMALL_RATIONALS = st.sampled_from([Fraction(p, q) for q in (1, 2, 3, 6) for p in range(-q, q + 1)])


def _oracle_forms(k, values=RATIONALS):
    return st.builds(FractionZForm, st.tuples(*[values] * k), values)


def _agrees(z, oracle):
    """z is canonical and has the oracle's value, text and JSON."""
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1
    assert (coeffs(z), constant(z)) == (oracle.coeffs, oracle.const)
    assert z == oracle.integer() and hash(z) == hash(oracle.integer())
    assert str(z) == str(oracle)
    assert z.to_json() == oracle.to_json()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_integer_zform_operations_match_the_fraction_oracle(data):
    k = data.draw(st.integers(1, 3))
    a, b = data.draw(_oracle_forms(k)), data.draw(_oracle_forms(k))
    p, q = data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6))
    za, zb = a.integer(), b.integer()
    _agrees(za, a)
    _agrees(za.scale(p), a.scale(p))
    _agrees(za.scale(p, q), a.scale(Fraction(p, q)))
    _agrees(za.reflect(), a.reflect())
    assert (za == zb) == (a == b)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_sort_forms_is_the_fraction_key_order(data):
    k = data.draw(st.integers(1, 3))
    forms = data.draw(st.lists(_oracle_forms(k, SMALL_RATIONALS), max_size=8))
    expected = tuple(f.integer() for f in sorted(forms, key=FractionZForm.sort_key))
    assert sort_forms(f.integer() for f in forms) == expected
    numerator, denominator = forms[::2], forms[1::2]
    product = GammaProduct(tuple(f.integer() for f in numerator),
                           tuple(f.integer() for f in denominator), 1)
    assert canonical_multiset(product) == tuple(
        f.integer() for f in sorted(numerator + [d.reflect() for d in denominator],
                                    key=FractionZForm.sort_key))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unit_forms_match_the_fraction_oracle(k):
    for q in range(1, k + 1):
        unit = FractionZForm(tuple(Fraction(int(i == q - 1)) for i in range(k)), Fraction(0))
        _agrees(ZForm.z(q, k), unit)
        _agrees(ZForm.one_minus_z(q, k), unit.reflect())
