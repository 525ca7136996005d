"""Cyclotomic ratios: graded Poincaré series and their duality.

The structural algebra of a weighted complete intersection has a Poincaré
series of the classical quotient shape prod (1 - t^{charge}) over
prod (1 - t^{weight}); the Euler-characteristic generating function and the
monodromy ratio M are that same product over the transposed data, so
``poincare_structure`` builds all three.  Ratios live here as multisets of
(variable, exponent) factors, cancelled to a canonical record; on ratios
whose exponents are all >= 1, as every `poincare_structure` is, equal
records are exactly equal rational functions (`verify_duality`).

A charge of zero contributes no factor: such a pairing couples a block to a
grading it does not touch, and the product formula skips it (the degree
count per grading, `pipeline.MirrorPair.unbalanced`, is unaffected).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from .ci_model import ChargeMatrix, SERIES_TERM_CAP, WeightSystem
from .record import record


Poly = dict[tuple[int, ...], int]  # exponent vector -> integer coefficient


class PoincareError(Exception):
    pass


class NotExpandableError(PoincareError):
    pass


class SeriesLimitError(PoincareError):
    """A series expansion would have more than SERIES_TERM_CAP terms."""


@record
class CyclotomicRatio:
    """Ratio of products of factors (1 - lambda_q^d), canonically cancelled."""

    k: int
    num: tuple[tuple[int, int], ...]  # (variable 1..k, exponent d >= 1), sorted
    den: tuple[tuple[int, int], ...]

    @staticmethod
    def build(k: int, num: Iterable[tuple[int, int]],
              den: Iterable[tuple[int, int]]) -> "CyclotomicRatio":
        ns = Counter((q, d) for q, d in num if d)
        ds = Counter((q, d) for q, d in den if d)
        common = ns & ds
        return CyclotomicRatio(k, tuple(sorted((ns - common).elements())),
                               tuple(sorted((ds - common).elements())))

    def __str__(self) -> str:
        def side(factors):
            if not factors:
                return "1"
            var = (lambda q: "t" if self.k == 1 else f"t{q}")
            parts = []
            for (q, d), m in sorted(Counter(factors).items()):
                body = f"(1-{var(q)}^{d})" if d != 1 else f"(1-{var(q)})"
                parts.append(body + (f"^{m}" if m > 1 else ""))
            return "".join(parts)
        return f"{side(self.num)} / {side(self.den)}" if self.den else side(self.num)

    def to_json(self) -> dict:
        return {"k": self.k, "num": [list(p) for p in self.num],
                "den": [list(p) for p in self.den]}


# ---------------------------------------------------------------------------
# exact polynomial helpers
# ---------------------------------------------------------------------------


def _poly_mul(a: Poly, b: Poly, order: int | None = None) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if order is not None and sum(e) > order:
                continue
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _factor_poly(q: int, d: int, k: int) -> Poly:
    """The polynomial 1 - t_q^d, which is zero when d == 0."""
    if d == 0:
        return {}
    zero = tuple(0 for _ in range(k))
    e = tuple(d if i == q - 1 else 0 for i in range(k))
    return {zero: 1, e: -1}


def _expand_product(factors, k: int, order: int | None = None) -> Poly:
    poly: Poly = {tuple(0 for _ in range(k)): 1}
    for q, d in factors:
        poly = _poly_mul(poly, _factor_poly(q, d, k), order)
    return poly


def series_expand(r: CyclotomicRatio, order: int) -> dict[tuple[int, ...], int]:
    """Power-series coefficients of r up to total degree `order`, exact integers.

    The monomials of total degree <= order in k variables, C(order + k, k)
    of them, bound the term count; above SERIES_TERM_CAP it raises
    SeriesLimitError before expanding anything.
    """
    if any(d < 1 for _, d in r.den):
        raise NotExpandableError("denominator factor with exponent < 1")
    k = r.k
    terms = math.comb(order + k, k)
    if terms > SERIES_TERM_CAP:
        raise SeriesLimitError(f"order {order} in {k} variable(s) allows {terms} series terms, "
                               f"above the cap of {SERIES_TERM_CAP}")
    poly = _expand_product(r.num, k, order)
    for q, d in r.den:
        geo: Poly = {}
        m = 0
        while m * d <= order:
            geo[tuple(m * d if i == q - 1 else 0 for i in range(k))] = 1
            m += 1
        poly = _poly_mul(poly, geo, order)
    return poly


def series_coefficients_1d(table: dict[tuple[int, ...], int], order: int) -> list[int]:
    """Coefficients by total degree 0..order of a table series_expand returned."""
    out = [0] * (order + 1)
    for e, c in table.items():
        out[sum(e)] += c
    return out


# ---------------------------------------------------------------------------
# the graded series
# ---------------------------------------------------------------------------


def poincare_structure(weights: WeightSystem, qm: ChargeMatrix) -> CyclotomicRatio:
    """Charges upstairs, weights downstairs, per grading.

    Over the spec's weights this is the structural-algebra series P_A; over
    the transposed weights and charges it is both the monodromy ratio M and
    the Euler-characteristic series PO of the mirror partner.
    """
    k = qm.k
    num = [(nu, qm.entries[q - 1][nu - 1]) for nu in range(1, k + 1)
           for q in range(1, k + 1)]
    den = [(nu, g) for nu in range(1, k + 1) for g in weights.support_values(nu)]
    return CyclotomicRatio.build(k, num, den)


@record
class DualityReport:
    identities: dict[str, bool]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.identities.values())

    def to_json(self) -> dict:
        return {"identities": dict(self.identities), "notes": list(self.notes), "ok": self.ok}


def verify_duality(p_a_x: CyclotomicRatio, m_y: CyclotomicRatio,
                   balanced: bool) -> DualityReport:
    """Check the monodromy / Euler-characteristic / structural-series equalities.

    p_a_x is poincare_structure of the spec's weights as annotated and their
    charges, m_y is poincare_structure of `MirrorPair.recovered_data`: the
    double transpose's weights in the original block order, read off the first
    transposition, and their charges, and balanced whether p_a_x has equal
    numerator and denominator degree in each variable
    (`MirrorPair.unbalanced`).  M, PO and P_A are one formula
    (poincare_structure), so M_X = PO_Ybar, PO_Ybar = P_A_Y and
    PO_Xbar = P_A_X hold by construction: each side is the ratio of the
    transposed data, or of the annotated data.  M_Y = PO_Xbar is the one real
    comparison: the recovered grading data against the annotated one, which
    differ where the annotation does.  M_X, the ratio of the transposed data,
    is degree-balanced in each variable, as column q of its charges sums to
    its weight vector q (`horn_system.char_polys`), so it is not built.

    M_Y = PO_Xbar is decided as `m_y == p_a_x`, by unique factorization:
    - 1 - t^d = -prod over n | d of Phi_n(t), so prod_d (1 - t_q^d)^(m_d) is
      +-prod_n Phi_n(t_q)^(e_n), with e_n the sum of m_d over d with n | d.
    - The Phi_n(t_q) are distinct irreducibles of Z[t_1..t_k], so the rational
      function fixes every e_n.  At the largest d with m_d != 0, e_d = m_d,
      and by descending induction it fixes every net exponent m_d in every
      variable.
    - `CyclotomicRatio.build` cancels what num and den share, so each factor
      sits on one side, as often as its net exponent says, and both sides are
      sorted.  So two built ratios whose exponents are all >= 1 are equal
      functions exactly when they are equal records.
    - Both sides are `poincare_structure` of grading data: charges, which pair
      nonnegative exponents with nonnegative weights (build drops the zeros),
      and weights, >= 1 on their supports.  So both meet that premise.
    Without it the records can differ on one function:
    (1 - t^-1)(1 - t^-3) / (1 - t^-2)^2 = (1 - t)(1 - t^3) / (1 - t^2)^2.
    """
    identities = {"M_X = PO_Ybar": True, "PO_Ybar = P_A_Y": True,
                  "M_Y = PO_Xbar": m_y == p_a_x, "PO_Xbar = P_A_X": True}
    notes = []
    if not identities["M_Y = PO_Xbar"]:
        notes.append("monodromy ratio from the double transpose disagrees "
                     "with the annotated grading data")
    if not balanced:
        notes.append("P_A_X: numerator/denominator degrees unbalanced")
    return DualityReport(identities=identities, notes=tuple(notes))
