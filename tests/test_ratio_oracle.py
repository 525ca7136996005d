"""`verify_duality`'s `==` against the expansion it replaces, on built ratios.

Two `CyclotomicRatio.build` ratios whose exponents are all >= 1 are equal
rational functions exactly when they are equal records (the unique
factorization proof in `verify_duality`'s docstring).  Here that is checked
against `oracles.ratio_equal`, which expands both cross-multiplied sides,
on ratios in up to three variables that share factors.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mirrorkit.poincare import CyclotomicRatio  # noqa: E402

from oracles import ratio_equal  # noqa: E402


def _factors(k, max_size):
    return st.lists(st.tuples(st.integers(1, k), st.integers(1, 6)), max_size=max_size)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_built_ratios_are_equal_functions_exactly_when_equal_records(data):
    # b is a's function over other shared factors (equal), a's with one factor
    # moved to the other side (unequal), or drawn afresh (mostly unequal)
    k = data.draw(st.integers(1, 3))
    num, den = data.draw(_factors(k, 4)), data.draw(_factors(k, 4))
    shared_a, shared_b = data.draw(_factors(k, 3)), data.draw(_factors(k, 3))
    a = CyclotomicRatio.build(k, num + shared_a, den + shared_a)
    mode = data.draw(st.sampled_from(("same", "moved", "other")))
    if mode == "other":
        num, den = data.draw(_factors(k, 4)), data.draw(_factors(k, 4))
    elif mode == "moved" and num + den:
        i = data.draw(st.integers(0, len(num) + len(den) - 1))
        if i < len(num):
            num, den = num[:i] + num[i + 1:], den + [num[i]]
        else:
            i -= len(num)
            num, den = num + [den[i]], den[:i] + den[i + 1:]
    b = CyclotomicRatio.build(k, num + shared_b, den + shared_b)
    assert all(d >= 1 for _, d in a.num + a.den + b.num + b.den)
    assert ratio_equal(a, b) == (a == b)
