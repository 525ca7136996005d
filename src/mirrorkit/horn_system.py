"""Horn-type operators and monodromy characteristic polynomials.

The sign pattern of the z-coefficients of the linear forms splits the row
index set per deformation variable; the positive side builds the left
factor product, the negative side the right one, neither is empty, and the
two degrees agree because the column sums vanish (`horn_operators`).
Operators stay in factored symbolic form, which is canonical; the examples
reach degree 21.  The sign classes and the
factor counts of z_q are read off row q of S (`mellin.Forms`).

A form contributes Delta*|c| factors to a side, one per shift j, that
differ only in j.  A side is therefore stored as runs (coeffs, const, den,
count), one per form, in integers: the negated z-numerators and the
constant numerator of the form's ZForm over its denominator.  A run stands
for the factors (const + sum_q coeffs_q * theta_q) / den + j for j < count.
Building an operator is O(forms), its degree is the sum of the counts, and
its JSON and text are formatted once per distinct run of a side.  The JSON
payload is read-only: a run's factor dicts share one coeffs dict, and equal
runs of a side share their factor dicts.  The factor count of each side is
bounded by ``FACTOR_COUNT_CAP``, checked in integers before any run is built.
"""

from __future__ import annotations

from collections import Counter

from .ci_model import ChargeMatrix, CISpec, WeightSystem
from .rational_linalg import ratio_str
from .record import record

FACTOR_COUNT_CAP = 10**6


class HornError(Exception):
    pass


class FactorLimitError(HornError):
    """An operator side would have more than FACTOR_COUNT_CAP factors."""


# (coeffs, const, den, count): the factors (const + sum_q coeffs_q * theta_q) / den + j
# for j < count, with integer coeffs and const over den > 0
Run = tuple[tuple[int, ...], int, int, int]


def _runs_str(runs: tuple[Run, ...]) -> str:
    """Every factor of the runs, in order, as (const + j + theta terms); each
    distinct run is rendered once."""
    out, seen = [], {}
    for run in runs:
        if run not in seen:
            coeffs, const, den, count = run
            terms = []
            for q, c in enumerate(coeffs, start=1):
                if c:
                    mag = ratio_str(abs(c), den)
                    terms.append((c > 0, f"th{q}" if mag == "1" else f"{mag}*th{q}"))
            factors = []
            for j in range(count):
                total = const + j * den
                parts = [ratio_str(total, den)] if total or not terms else []
                for positive, body in terms:
                    if not parts:
                        parts.append(body if positive else f"-{body}")
                    else:
                        parts.append(f"+ {body}" if positive else f"- {body}")
                factors.append("(" + " ".join(parts) + ")")
            seen[run] = "".join(factors)
        out.append(seen[run])
    return "".join(out) or "1"


def _runs_json(runs: tuple[Run, ...]) -> list[dict]:
    """One read-only dict per factor: a run's factors share one coeffs dict, and
    an equal run later in the runs reuses the first one's factor dicts."""
    out, seen = [], {}
    for run in runs:
        if run not in seen:
            coeffs, const, den, count = run
            cj = {f"th{q}": ratio_str(c, den) for q, c in enumerate(coeffs, start=1) if c}
            cs = ratio_str(const, den)
            seen[run] = [{"coeffs": cj, "const": cs, "shift": j} for j in range(count)]
        out += seen[run]
    return out


@record
class HornOperator:
    """Factored operator P - (variable)^delta_power * Q, each side as factor runs."""

    q: int
    p_runs: tuple[Run, ...]
    q_runs: tuple[Run, ...]
    delta_power: int
    variable: str = "s"

    @property
    def degrees(self) -> tuple[int, int]:
        return sum(r[3] for r in self.p_runs), sum(r[3] for r in self.q_runs)

    def __str__(self) -> str:
        p, qq = _runs_str(self.p_runs), _runs_str(self.q_runs)
        power = f"^{self.delta_power}" if self.delta_power != 1 else ""
        return f"{p} - {self.variable}{self.q}{power} * {qq}"

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p_factors": _runs_json(self.p_runs),
            "q_factors": _runs_json(self.q_runs),
            "delta_power": self.delta_power,
            "variable": self.variable,
        }


def index_partition(forms: Forms, q: int) -> tuple[tuple[int, ...], ...]:
    """Row indices split by the sign of the z_q coefficient: by S row q."""
    plus, minus, zero = [], [], []
    for a, c in enumerate(forms.s_rows[q - 1], start=1):
        (plus if c > 0 else minus if c < 0 else zero).append(a)
    return tuple(plus), tuple(minus), tuple(zero)


def horn_operators(spec: CISpec, forms: Forms) -> tuple[HornOperator, ...]:
    """One operator per deformation variable, factors counted by the integer
    z-numerators with respect to the global modulus.

    Form a with z-coefficients z_a contributes the run of factors
    const_a + j - <z_a, theta> for j < Delta*|z_aq|, counted in integers as
    |z_aq numerator| = |S[q - 1][a - 1]|, as every form is over Delta; every
    side's count is checked against FACTOR_COUNT_CAP before any run is built.

    On a certified L^-1, P and Q have equal degree and neither is empty:
    `check_y_rows` and L L^-1 = I give L^-1 1 = v, the indicator of the y
    columns, so every s-row of L^-1 sums to 0.  S row q is such a row, so
    its positive entries sum to minus its negative ones, and those are the
    two sides' counts; it holds Delta at block q's s-row, whose form is z_q
    (`mellin.classify_forms`), so neither side is empty.
    """
    sides = []
    for q in range(1, spec.k + 1):
        plus, minus, _ = index_partition(forms, q)
        row = forms.s_rows[q - 1]
        counts = []
        for name, rows in (("p", plus), ("q", minus)):
            side = [(a, abs(row[a - 1])) for a in rows]
            total = sum(b for _, b in side)
            if total > FACTOR_COUNT_CAP:
                raise FactorLimitError(f"variable {q}: {total} {name}-factors "
                                       f"exceed the cap of {FACTOR_COUNT_CAP}")
            counts.append(side)
        sides.append(counts)
    # per form, its run without the count: (negated z-numerators, const numerator, den)
    heads = [(tuple(-c for c in xi.num[:-1]), xi.num[-1], xi.den)
             for xi in map(forms.xi, range(1, len(forms) + 1))]

    def runs(side) -> tuple[Run, ...]:
        return tuple((*heads[a - 1], b) for a, b in side)

    return tuple(HornOperator(q, runs(p_side), runs(q_side), forms.den)
                 for q, (p_side, q_side) in enumerate(sides, start=1))


def restricted_operator(tweights: WeightSystem, tcharges: ChargeMatrix,
                        nu: int) -> HornOperator:
    """Operator annihilating the inverse transform, restricted to one torus axis.

    Left factors run over the transposed weight entries g: (-g*theta + r)
    for r < g.  Right factors run over the per-block charges c under weight
    nu: (c*theta - r) for r < c.  Each factor is a run of one.
    """
    k = tcharges.k

    def axis(c: int) -> tuple[int, ...]:
        return tuple(c if i == nu - 1 else 0 for i in range(k))

    left = tuple((axis(-g), r, 1, 1)
                 for g in tweights.support_values(nu) for r in range(g))
    right = tuple((axis(c), -r, 1, 1) for c in tcharges.column(nu) for r in range(c))
    return HornOperator(nu, left, right, 1, variable="t")


@record
class CharPolyPair:
    """Monodromy characteristic polynomials around the origin and infinity."""

    q: int
    chi: int
    at_zero: tuple[int, ...]       # coefficients, ascending degree
    at_infinity: tuple[int, ...]
    zero_exponents: tuple[int, ...]
    infinity_exponents: tuple[int, ...]

    @staticmethod
    def _poly(exponents) -> tuple[int, ...]:
        coeffs = [1]
        for d in exponents:
            nxt = coeffs + [0] * d
            for i, c in enumerate(coeffs):
                nxt[i + d] -= c
            coeffs = nxt
        return tuple(coeffs)

    def factored(self, side: str) -> str:
        exps = self.zero_exponents if side == "zero" else self.infinity_exponents
        return " ".join(f"(1-λ^{d})" + (f"^{m}" if m > 1 else "")
                        for d, m in sorted(Counter(exps).items())) or "1"

    def to_json(self) -> dict:
        return {
            "q": self.q, "chi": self.chi,
            "at_zero": list(self.at_zero), "at_infinity": list(self.at_infinity),
            "at_zero_factored": self.factored("zero"),
            "at_infinity_factored": self.factored("infinity"),
        }


def char_polys(tweights: WeightSystem, tcharges: ChargeMatrix, q: int) -> CharPolyPair:
    """Both polynomials for grading q: weights at the origin, charges at infinity.

    Zero charges contribute no factor (their block is invisible to this
    grading).  The two have equal degree, so the char-polys stage is ok
    without comparing them: tweights are the class rays of a basis of
    ker tr.diff (`transposition.build_transpose`, on a certified L^-1 or by
    elimination), and a k-dimensional kernel whose rows split into k
    proportional classes holds each class's ray.  So every monomial of
    transposed block j pairs with weight vector q as ind_j does, block j's
    charge is <ind_j, tw_q>, and as the index sets partition the variables
    the charges of column q sum to sum(tw_q), the degree at the origin.
    """
    zero_exps = tuple(tweights.support_values(q))
    inf_exps = tuple(c for c in tcharges.column(q) if c)
    pair = CharPolyPair(
        q=q,
        chi=sum(zero_exps),
        at_zero=CharPolyPair._poly(zero_exps),
        at_infinity=CharPolyPair._poly(inf_exps),
        zero_exponents=zero_exps,
        infinity_exponents=inf_exps,
    )
    return pair


@record
class SymmetryReport:
    """Cyclic symmetry orders on both sides of the mirror pair."""

    q_bars: tuple[int, ...]
    t_q_bars: tuple[int, ...]
    weight_divisibility: dict[str, bool]

    def group(self, side: str) -> str:
        orders = self.q_bars if side == "original" else self.t_q_bars
        return " x ".join(f"Z_{d}" for d in orders)

    def to_json(self) -> dict:
        return {
            "quantum_orders": list(self.q_bars),
            "transposed_quantum_orders": list(self.t_q_bars),
            "quantum_group": self.group("original"),
            "transposed_quantum_group": self.group("transposed"),
            "weight_divisibility": dict(self.weight_divisibility),
        }


def symmetry_report(weights: WeightSystem, qm: ChargeMatrix,
                    tweights: WeightSystem, tqm: ChargeMatrix) -> SymmetryReport:
    """Cyclic group orders: column LCMs of the charge matrices on both sides.

    qm and tqm are the charge matrices of weights and tweights.  Also
    reports, per grading, whether every weight divides the matching cyclic
    order; this holds in the cleanest examples but not universally, so it
    is informational.
    """
    divis = {}
    for q in range(1, qm.k + 1):
        bar = qm.column_lcm(q)
        divis[f"weights_divide_order_{q}"] = all(
            bar % g == 0 for g in weights.support_values(q))
    for q in range(1, tqm.k + 1):
        bar = tqm.column_lcm(q)
        divis[f"transposed_weights_divide_order_{q}"] = all(
            bar % g == 0 for g in tweights.support_values(q))
    return SymmetryReport(
        q_bars=qm.column_lcms,
        t_q_bars=tqm.column_lcms,
        weight_divisibility=divis,
    )
