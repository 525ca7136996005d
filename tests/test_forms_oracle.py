"""The view of L^-1 that `mellin.solve_xi` gives against the per-column oracle.

Every read of the view, S, the constants, xi(a) and the forms payload's
strings, must equal what one `oracles.LinearForm` per column gives.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mirrorkit.ci_model import build_cayley  # noqa: E402
from mirrorkit.mellin import Forms, solve_xi  # noqa: E402
from mirrorkit.rational_linalg import _canonical, invert  # noqa: E402

from conftest import FIXTURES  # noqa: E402
from oracles import columns  # noqa: E402
from specgen import nonsingular_cayley_specs, oracle_specs  # noqa: E402

SPECS = oracle_specs(FIXTURES) + nonsingular_cayley_specs(300)[::5]


def _agrees(forms):
    """Each read of the view equals the oracle's, column by column."""
    k, cols = forms.k, columns(forms)
    assert len(forms) == len(cols)
    for a, form in enumerate(cols, start=1):
        assert tuple(row[a - 1] for row in forms.s_rows) == \
            tuple(form.z_num(q) for q in range(1, k + 1))
        assert forms.xi_nums[a - 1] == (*form.num[-k:], sum(form.num[:-k]))
        assert forms.constants[a - 1] == sum(form.num[:-k])
        assert forms.xi(a) == form.xi()
        assert forms.xi(a) is forms.xi(a)   # cached per column
    assert forms.to_json() == [f.to_json() for f in cols]
    assert [str(forms.xi(a)) for a in range(1, len(forms) + 1)] == [str(f.xi()) for f in cols]


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(SPECS))
def test_view_reads_match_the_oracle_on_cayley_inverses(spec):
    cm = build_cayley(spec)
    _agrees(solve_xi(cm, invert(cm.matrix)))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_view_reads_match_the_oracle_on_integer_matrices(data):
    # the reads are functions of (inverse, k) alone: any integer matrix over a
    # denominator with n + 3k rows, canonical as every Matrix is
    k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    size = n + 3 * k
    entries = st.lists(st.integers(-6, 6), min_size=size, max_size=size)
    num = data.draw(st.lists(entries, min_size=size, max_size=size))
    den = data.draw(st.integers(1, 12))
    _agrees(Forms(_canonical(tuple(map(tuple, num)), den), k))
