"""Linear forms of the inverse Cayley matrix and Gamma-product identities.

Inverting the Cayley matrix turns the period integral's Mellin transform
into a product of Gamma factors with affine-linear arguments, one per
matrix row.  This module reads those forms off the inverse, checks the y
columns of L (`check_y_rows`), proves the structural sum rules, the form
classification (`classify_forms`) and the plain product's shape
(`lemma_form`) from that check, the certified L L^-1 = I and the weights,
and verifies the two closed-form Gamma products (the plain one with a
Gamma(z) prefactor per block, and the factorized one expressed through the
transposed weight data) as exact argument-multiset identities.

The forms are the columns of the inverse, integer rows over one
denominator, Delta.  `solve_xi` returns one view of that matrix (`Forms`),
no object per form: the plain product, the Horn counts and the magic
square read its integer entries.  A Gamma
argument (ZForm, a form's xi) is integer numerators over one denominator
too, so the plain and factorized products, their sort order and Theorem
3.1's contraction are integer arithmetic.

Gamma products are compared up to reflection: a denominator factor
Gamma(1-x) and a numerator factor Gamma(x) differ by pi/sin(pi x), which is
precisely the periodic ambiguity the identities allow.  Canonicalization
moves every denominator factor to the numerator through x -> 1-x and
compares multisets.
"""

from __future__ import annotations

import math
from collections import Counter

from .ci_model import CayleyMatrix, ChargeMatrix, WeightSystem
from .rational_linalg import _canonical, Matrix, ratio_str
from .record import lazy, record


class MellinError(Exception):
    pass


class NotFactorizableError(MellinError):
    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class IdentityViolatedError(MellinError):
    def __init__(self, q: int, message: str):
        super().__init__(f"block {q}: {message}")
        self.q = q


# ---------------------------------------------------------------------------
# affine forms
# ---------------------------------------------------------------------------


@record
class ZForm:
    """Affine form c_0 + sum_q c_q z_q over the k deformation variables.

    Kept as integer numerators ``num = (c_1, ..., c_k, c_0)`` over one
    positive denominator ``den``, canonical: gcd(den, every numerator) = 1,
    so ``==`` and ``hash`` are structural.  Scaling, reflection, the sort
    order (sort_forms), str and JSON all work in these integers.  The
    constructor expects canonical num and den; reduced cancels a common
    factor.
    """

    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def reduced(num: tuple[int, ...], den: int) -> "ZForm":
        """num / den (den > 0) with the common factor of den and num cancelled."""
        g = math.gcd(den, *num)
        if g > 1:
            return ZForm(tuple(x // g for x in num), den // g)
        return ZForm(num, den)

    def scale(self, p: int, q: int = 1) -> "ZForm":
        """(p/q) * self, for integers p and q > 0."""
        return ZForm.reduced(tuple(p * x for x in self.num), q * self.den)

    def reflect(self) -> "ZForm":
        """1 - self."""
        return ZForm((*(-c for c in self.num[:-1]), self.den - self.num[-1]), self.den)

    @staticmethod
    def z(q: int, k: int) -> "ZForm":
        return ZForm((*(int(i == q - 1) for i in range(k)), 0))

    @staticmethod
    def one_minus_z(q: int, k: int) -> "ZForm":
        return ZForm.z(q, k).reflect()

    def __str__(self) -> str:
        c0, d = self.num[-1], self.den
        terms = [str(c0)] if c0 else []
        for q, ci in enumerate(self.num[:-1], start=1):
            if ci == 0:
                continue
            mag = abs(ci)
            body = f"z{q}" if mag == 1 else f"{mag}*z{q}"
            if not terms:
                terms.append(body if ci > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if ci > 0 else f"- {body}")
        num = " ".join(terms) if terms else "0"
        if d == 1:
            return num
        return f"({num})/{d}" if " " in num else f"{num}/{d}"

    def to_json(self) -> dict:
        d = self.den
        return {"coeffs": [ratio_str(c, d) for c in self.num[:-1]],
                "const": ratio_str(self.num[-1], d)}


def sort_forms(forms) -> tuple[ZForm, ...]:
    """The forms ordered by (const, coeffs) as rationals: compared as integer
    numerators over the LCM of their denominators."""
    forms = tuple(forms)
    d = math.lcm(*(f.den for f in forms))

    def key(f: ZForm) -> tuple[int, ...]:
        m = d // f.den
        return (f.num[-1] * m, *[x * m for x in f.num[:-1]])

    return tuple(sorted(forms, key=key))


@record
class Forms:
    """The forms of a run: form a is column a of L^-1 = inverse, its i, zeta and z
    coefficients over ``den``, Delta, which every form shares.  ``s_rows`` (S,
    the last k rows) holds the z-numerators, ``constants`` each column's sum
    over the i and zeta rows (the +1 shifts of those slots), ``xi_nums[a - 1]``
    form a's z and constant numerators, and ``xi(a)``, form a at i = zeta = 0,
    their ZForm, built on first read and shared by equal columns (42% of the
    columns of a `random-small` deck repeat an earlier one's).
    """

    inverse: Matrix
    k: int

    def __len__(self) -> int:
        return self.inverse.cols

    @property
    def den(self) -> int:
        return self.inverse.den

    @lazy
    def s_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.inverse.num[self.inverse.rows - self.k:]

    @lazy
    def constants(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.inverse.num[:self.inverse.rows - self.k])))

    @lazy
    def xi_nums(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.s_rows, self.constants))

    @lazy
    def _xi(self) -> dict[tuple[int, ...], ZForm]:
        return {}

    def xi(self, a: int) -> ZForm:
        nums = self.xi_nums[a - 1]
        xi = self._xi.get(nums)
        if xi is None:
            xi = self._xi[nums] = ZForm.reduced(nums, self.inverse.den)
        return xi

    def to_json(self) -> list[dict]:
        """Per form, its coefficient strings, the column of the inverse's
        strings split (i | zeta | z), and its constant."""
        d, z = self.den, self.inverse.rows - self.k
        n = z - 2 * self.k
        return [{"i_coeffs": list(col[:n]), "zeta_coeffs": list(col[n:z]),
                 "z_coeffs": list(col[z:]), "const": ratio_str(c, d)}
                for col, c in zip(zip(*self.inverse.to_json()), self.constants)]


# ---------------------------------------------------------------------------
# Gamma products
# ---------------------------------------------------------------------------


@record
class GammaProduct:
    """Product of Gamma factors, canonical up to the periodic reflection ambiguity.

    Each side is sorted (`sort_forms`), as `lemma_form` and
    `verify_theorem_31` build them, so `__str__` renders it in order.
    """

    numerator: tuple[ZForm, ...]
    denominator: tuple[ZForm, ...]
    delta: int

    def canonical_multiset(self) -> tuple[ZForm, ...]:
        """All arguments as numerator factors, denominators reflected through 1-x."""
        return sort_forms((*self.numerator, *(d.reflect() for d in self.denominator)))

    def __str__(self) -> str:
        def side(forms):
            return "*".join(
                f"Gamma({f})" + (f"^{m}" if m > 1 else "")
                for f, m in Counter(forms).items()) or "1"
        num = side(self.numerator)
        if not self.denominator:
            return num
        return f"{num} / [{side(self.denominator)}]"

    def to_json(self) -> dict:
        return {
            "numerator": [f.to_json() for f in self.numerator],
            "denominator": [f.to_json() for f in self.denominator],
            "delta": self.delta,
            "note": "up to a Delta-periodic factor",
        }


def gamma_equal(a: GammaProduct, b: GammaProduct) -> bool:
    return a.canonical_multiset() == b.canonical_multiset()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def solve_xi(cm: CayleyMatrix, inverse: Matrix) -> Forms:
    """One form per matrix row: the view of the inverse's columns over its denominator."""
    return Forms(inverse, cm.spec.k)


def check_y_rows(cm: CayleyMatrix) -> None:
    """Raise MellinError unless L v = 1, v the indicator of the y columns.

    `build_cayley` puts one 1 among the y columns of each row.  Then, as
    L L^-1 = I is certified, L^-1 1 = v: summed over the forms (the columns
    of L^-1), the i and z coefficients give 0, each zeta coefficient 1 and
    the constants (the i and zeta sums) 2k: the forms stage's four flags.
    """
    n, k, m = cm.spec.n, cm.spec.k, cm.matrix
    for r, row in enumerate(m.num, start=1):
        if sum(row[n:n + 2 * k]) != m.den:
            raise MellinError(f"Cayley row {r} does not have one 1 among the y columns")


def classify_forms(cm: CayleyMatrix) -> tuple[str, ...]:
    """Each form's pattern, read off its row kind.

    s-rows give the pure form z_nu (type a); constant rows carry zeta_{2nu-1}
    + zeta_{2nu} - z_nu (type b); monomial and product rows pair each z_l
    against -zeta_{2l-1} only (type c).  With L x = e_a for the form x of
    row a (L L^-1 = I is certified): column s_nu of L is the unit at block
    nu's s-row, whose form is then z_nu; the s-rows y_{2l-1} + s_l give
    zeta_{2l-1} = -z_l on every other row, and the constant rows y_{2l} give
    zeta_{2l} = [a is block l's constant row].  That leaves the z part of
    the constant row a(nu)'s form, -zeta_{2j-1} in z_j: over Delta, -Delta
    e_nu plus column nu of `ci_model.weight_hint`'s M, which is -Delta e_nu
    as M = 0 wherever the spec has weights (`ci_model.read_weights`; a
    nonsingular L without M = 0 has a kernel of dimension k - rank M < k,
    and `derive_weights` raises).  Every reader of the tags and of the plain
    product has read the weights first: `validate` before the forms stage,
    `mirrorkit mellin` through the transposition's rho.
    """
    tag = {"s-row": "a", "constant-row": "b", "monomial": "c", "product-row": "c"}
    return tuple(tag[kind] for _, kind, _ in cm.row_labels)


def lemma_form(cm: CayleyMatrix, forms: Forms) -> GammaProduct:
    """The plain Gamma product: Gamma(z_nu) per block times Gamma(xi_j) over monomial rows.

    Each block's s-row, product-row and constant-row forms are z_nu, z_nu
    and 1 - z_nu, so they add nothing but the prefactor and a reflected
    pair.  The s-row's is z_nu by the certified L L^-1 = I, the other two by
    M = 0, as the spec has weights (`classify_forms`), and by the index sets
    partitioning the variables.  Column a(nu) of L^-1 has y_{2j} =
    delta_{j nu} (the constant rows), y_{2j-1} = delta_{j nu} (M = 0) and
    s = -e_nu (the s-rows); the product rows give its x-part x
    ind_j . x = -delta_{j nu}, so sum x = -1 and its constant is -1 + 2 = 1.
    The vector (-x, y_odd = -e_nu, y_even = 0, s = e_nu) satisfies every row
    of L against e_{a(nu) - 1}, so it is column a(nu) - 1: the form z_nu,
    of constant 1 - 1 = 0.
    """
    k = cm.spec.k
    numerator = [ZForm.z(nu, k) for nu in range(1, k + 1)]
    numerator.extend(map(forms.xi, cm.i_lambda))
    return GammaProduct(sort_forms(numerator), (), forms.den)


@record
class XiFactorization:
    """Common forms xi^(nu) with the transposed weights as proportionality factors."""

    xi_forms: tuple[ZForm, ...]                  # one per transposed block position
    factors: tuple[tuple[int, ...], ...]         # transposed weight values per block
    row_groups: tuple[tuple[int, ...], ...]      # matrix rows grouped per block
    p_tilde: Matrix | None                       # xi = p_tilde . (1 - z), when expressible

    def to_json(self) -> dict:
        return {
            "xi_forms": [f.to_json() for f in self.xi_forms],
            "factors": [list(f) for f in self.factors],
            "row_groups": [list(g) for g in self.row_groups],
            "p_tilde": self.p_tilde.to_json() if self.p_tilde else None,
        }


def factorize_xi(tr: TransposeResult, forms: Forms, tweights: WeightSystem) -> XiFactorization:
    """Group the monomial-row forms by the transposed blocks and factor them.

    The form of matrix row a must equal (transposed weight of its image
    variable) times a common form xi^(nu), where nu is the transposed block
    whose variable range receives the row: the base row's form over its factor
    defines xi^(nu), and every form is over Delta, so row r with factor c must
    have base_factor * xi_nums[r - 1] = c * xi_nums[base - 1].
    """
    tsp = tr.tspec
    diag = tweights.diagonal
    xi_forms = []
    factor_lists = []
    row_groups = []
    for q in range(1, tsp.k + 1):
        rng = tsp.block_range(q)
        rows = sorted((v, r) for r, v in tr.row_to_var if v in set(rng))
        group_rows = tuple(r for _, r in rows)
        factors = tuple(diag[v - 1] for v, _ in rows)
        base_row, base_factor = group_rows[0], factors[0]
        nums = forms.xi_nums
        base = nums[base_row - 1]
        for r, c in zip(group_rows[1:], factors[1:]):
            if [base_factor * x for x in nums[r - 1]] != [c * x for x in base]:
                raise NotFactorizableError(
                    r, f"form is not {c} times the common form of block {q}")
        xi_forms.append(ZForm.reduced(base, forms.den * base_factor))
        factor_lists.append(factors)
        row_groups.append(group_rows)

    p_tilde = None
    if not any(sum(f.num) for f in xi_forms):   # every xi^(nu) vanishes at z = (1, ..., 1)
        d = math.lcm(*(f.den for f in xi_forms))
        p_tilde = _canonical(tuple(tuple(-c * (d // f.den) for c in f.num[:-1])
                                   for f in xi_forms), d)
    return XiFactorization(tuple(xi_forms), tuple(factor_lists),
                           tuple(row_groups), p_tilde)


@record
class Theorem31Report:
    identity_holds: bool
    block_to_z: tuple[int, ...]       # block q's charge contraction equals 1 - z_{block_to_z[q-1]}
    matches_nu_inverse: bool
    reduces_to_lemma_form: bool
    symbolic: str                     # the product written through the xi symbols

    def to_json(self) -> dict:
        return {
            "identity_holds": self.identity_holds,
            "block_to_z": list(self.block_to_z),
            "matches_nu_inverse": self.matches_nu_inverse,
            "reduces_to_lemma_form": self.reduces_to_lemma_form,
            "symbolic": self.symbolic,
        }


def _symbolic_product(xi: "XiFactorization", contraction) -> str:
    """Render the factorized product through the xi^(q) symbols."""
    def sym(c, q):
        return f"xi^({q})" if c == 1 else f"{c}*xi^({q})"

    parts = []
    for q, factors in enumerate(xi.factors, start=1):
        for c, m in sorted(Counter(factors).items()):
            parts.append(f"Gamma({sym(c, q)})" + (f"^{m}" if m > 1 else ""))
    dens = []
    for row in contraction:
        terms = [sym(c, q) for q, c in enumerate(row, start=1) if c]
        dens.append("Gamma(" + " + ".join(terms) + ")")
    return "*".join(parts) + " / [" + "*".join(dens) + "]"


def verify_theorem_31(tr: TransposeResult, xi: XiFactorization, forms: Forms, tq: ChargeMatrix,
                      lemma: GammaProduct) -> tuple[Theorem31Report, GammaProduct]:
    """Check the charge contraction identity and emit the factorized Gamma product.

    tq holds the charges of the transposed spec under its derived weights
    and lemma is the plain product (lemma_form).  For each transposed block
    q the contraction sum_nu (charge of block q under weight nu) * xi^(nu)
    must equal 1 - z_m for some m, bijectively.  The resulting product of
    Gamma((weight) * xi^(nu)) over all transposed weight entries divided by
    the k contraction Gammas must reduce to the plain product by reflection
    alone.  Its numerator is the multiset of the xi of `cm.i_lambda`, which
    `build_transpose` maps one to one onto the variables the transposed blocks
    partition (the row groups), as `factorize_xi` checked each row's xi
    equal to its factor times xi^(nu).
    """
    k = tr.tspec.k
    # the xi^(nu) numerators over their common denominator
    den = math.lcm(*(f.den for f in xi.xi_forms))
    scaled = [[x * (den // f.den) for x in f.num] for f in xi.xi_forms]
    block_to_z = []
    used = set()
    for q in range(1, k + 1):
        row = tq.entries[q - 1]
        d = ZForm.reduced(tuple(sum(t * v[i] for t, v in zip(row, scaled))
                                for i in range(k + 1)), den)
        match = next((m for m in range(1, k + 1)
                      if m not in used and d == ZForm.one_minus_z(m, k)), None)
        if match is None:
            raise IdentityViolatedError(q, f"contraction gives {d}, not of the form 1 - z_m")
        used.add(match)
        block_to_z.append(match)

    # _choose_nu builds nu as an involution, so nu^-1 = nu
    matches_nu_inverse = tuple(block_to_z) == tr.nu.images

    numerator = []
    for xi_nu, factors in zip(xi.xi_forms, xi.factors):
        numerator.extend(xi_nu.scale(c) for c in factors)
    denominator = [ZForm.one_minus_z(m, k) for m in block_to_z]
    product = GammaProduct(sort_forms(numerator), sort_forms(denominator), forms.den)

    report = Theorem31Report(
        identity_holds=True,
        block_to_z=tuple(block_to_z),
        matches_nu_inverse=matches_nu_inverse,
        reduces_to_lemma_form=gamma_equal(product, lemma),
        symbolic=_symbolic_product(xi, tq.entries),
    )
    return report, product
