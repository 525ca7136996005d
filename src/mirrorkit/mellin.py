"""Linear forms of the inverse Cayley matrix and Gamma-product identities.

Inverting the Cayley matrix turns the period integral's Mellin transform
into a product of Gamma factors with affine-linear arguments, one per
matrix row.  This module reads those forms off the inverse, checks the y
columns of L (`check_y_rows`), and proves from that check, the certified
L L^-1 = I and the weights the structural sum rules, the form
classification (`classify_forms`), the plain product's shape
(`lemma_form`) and Theorem 3.1: the factorized product, expressed through
the transposed weight data, factors (`factorize_xi`), contracts to
1 - z_nu(q) per transposed block and reduces to the plain one by reflection
(`verify_theorem_31`).  Both products are built, not compared.

The forms are the columns of the inverse, integer rows over one
denominator, Delta.  `solve_xi` returns one view of that matrix (`Forms`),
no object per form: the plain product, the Horn counts and the magic
square read its integer entries.  A Gamma
argument (ZForm, a form's xi) is integer numerators over one denominator
too, so the plain and factorized products and their sort order are
integer arithmetic.

The two products are equal up to reflection: a denominator factor
Gamma(1-x) and a numerator factor Gamma(x) differ by pi/sin(pi x), which is
precisely the periodic ambiguity the identities allow.
"""

from __future__ import annotations

import math
from collections import Counter

from .ci_model import CayleyMatrix, ChargeMatrix, InternalInvariantError, WeightSystem
from .rational_linalg import _canonical, Matrix, ratio_str
from .record import lazy, record


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
    """Product of Gamma factors, up to the periodic reflection ambiguity.

    Each side is sorted (`sort_forms`), as `lemma_form` and
    `verify_theorem_31` build them, so `__str__` renders it in order.
    """

    numerator: tuple[ZForm, ...]
    denominator: tuple[ZForm, ...]
    delta: int

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
        """Equal factors share one dict: treat the tree as read-only
        (`test_no_reader_mutates_a_shared_payload`)."""
        rendered: dict[ZForm, dict] = {}

        def side(forms):
            return [rendered.get(f) or rendered.setdefault(f, f.to_json()) for f in forms]

        return {"numerator": side(self.numerator), "denominator": side(self.denominator),
                "delta": self.delta, "note": "up to a Delta-periodic factor"}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def solve_xi(cm: CayleyMatrix, inverse: Matrix) -> Forms:
    """One form per matrix row: the view of the inverse's columns over its denominator."""
    return Forms(inverse, cm.spec.k)


def check_y_rows(cm: CayleyMatrix) -> None:
    """Raise InternalInvariantError unless L v = 1, v the indicator of the y columns.

    `build_cayley` puts one 1 among the y columns of each row.  Then, as
    L L^-1 = I is certified, L^-1 1 = v: summed over the forms (the columns
    of L^-1), the i and z coefficients give 0, each zeta coefficient 1 and
    the constants (the i and zeta sums) 2k: the forms stage's four flags.
    """
    n, k, m = cm.spec.n, cm.spec.k, cm.matrix
    for r, row in enumerate(m.num, start=1):
        if sum(row[n:n + 2 * k]) != m.den:
            raise InternalInvariantError(
                f"Cayley row {r} does not have one 1 among the y columns")


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
    p_tilde: Matrix                              # xi = p_tilde . (1 - z)

    def to_json(self) -> dict:
        return {
            "xi_forms": [f.to_json() for f in self.xi_forms],
            "factors": [list(f) for f in self.factors],
            "row_groups": [list(g) for g in self.row_groups],
            "p_tilde": self.p_tilde.to_json(),
        }


def factorize_xi(tr: TransposeResult, forms: Forms, tweights: WeightSystem) -> XiFactorization:
    """Group the monomial-row forms by the transposed blocks and factor them.

    Monomial row r's form is c_r xi^(nu): c_r is the transposed weight of its
    image variable, nu the transposed block whose range receives it, and
    xi^(nu) the block's base row's form over its factor.  The proofs hold on
    every pair that reaches here:
    - Premises.  It has weights (rho reads them), so M = 0 and the
      product-row forms are z_nu (`lemma_form`); L^-1 is certified
      (`MirrorPair.forms`); and M' = 0, as `build_transpose` got H from
      `MirrorPair._class_hint` (else it eliminates and raises).
    - Notation.  sigma_mu is row mu of S and omega `Forms.constants`, both
      over Delta; E[r][c] is the exponent, b(c) the block whose index set
      holds variable c, p_nu block nu's product row.  sigma_mu L =
      Delta e_{s_mu} and omega L = Delta (1 on the x and y columns) read at
      the y_{2nu-1} and s_nu columns: over block nu's monomial rows sigma_mu
      sums to -Delta delta_{mu nu} and omega to Delta; at x-column c:
      sum_r E[r][c] sigma_mu[r] = -sigma_mu[p_b(c)] = -Delta delta_{mu b(c)}
      and sum_r E[r][c] omega[r] = Delta - omega[p_b(c)] = Delta.  And
      tr.diff[c][r] = E[r][c] - [r is a monomial row of b(c)]
      (`_transposed_rows`).
    - Factorization.  On the monomial rows tr.diff omega = Delta - Delta = 0,
      so omega = H gamma (H spans ker tr.diff, `inverse_hint`).  Row r's
      numerators are (H[r], H[r] gamma), and the rows of one class of H are
      proportional with ratio c_r / c_base: the class rays, which
      `build_transpose` made the transposed weights.
    - p_tilde.  tau = sum_mu sigma_mu + omega has tau L = Delta 1, so its
      monomial block sums are 0 and sum_r E[r][c] tau[r] = 0: tau = H gamma',
      whose block sums are -gamma' = 0.  tau[r] is Delta times row r's xi at
      z = 1, so every xi^(nu) vanishes there and is p_tilde . (1 - z).
    """
    tsp, diag, nums = tr.tspec, tweights.diagonal, forms.xi_nums
    xi_forms, factor_lists, row_groups = [], [], []
    for q in range(1, tsp.k + 1):
        rng = set(tsp.block_range(q))
        rows = sorted((v, r) for r, v in tr.row_to_var if v in rng)
        group_rows = tuple(r for _, r in rows)
        factors = tuple(diag[v - 1] for v, _ in rows)
        xi_forms.append(ZForm.reduced(nums[group_rows[0] - 1], forms.den * factors[0]))
        factor_lists.append(factors)
        row_groups.append(group_rows)
    d = math.lcm(*(f.den for f in xi_forms))
    p_tilde = _canonical(tuple(tuple(-c * (d // f.den) for c in f.num[:-1])
                               for f in xi_forms), d)
    return XiFactorization(tuple(xi_forms), tuple(factor_lists), tuple(row_groups), p_tilde)


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


def verify_theorem_31(tr: TransposeResult, xi: XiFactorization, forms: Forms,
                      tq: ChargeMatrix) -> tuple[Theorem31Report, GammaProduct]:
    """Theorem 3.1's report and the factorized Gamma product.

    tq holds the charges of the transposed spec under its derived weights.
    The product is Gamma(c xi^(nu)) over the transposed weights c of each
    block nu, over the k contraction Gammas Gamma(sum_nu tq[q][nu] xi^(nu)).
    Each flag holds by construction (premises and notation of `factorize_xi`):
    - Contraction.  Transposed block q's first monomial is x-column c of L,
      c in the index set of src = tr.block_sources[q-1].  By the
      factorization, sum_nu tq[q][nu] xi^(nu) = sum_r E[r][c] xi_r, whose
      z_mu coefficient is -delta_{mu src} and constant 1: it is 1 - z_src.
      block_sources is nu's images (`transposition.build_transpose`).
    - Reduction.  By the factorization the numerator is the xi of the rows
      `cm.i_lambda`, which the row groups partition, and the reflected
      denominator is z_1, ..., z_k: together the plain product's multiset
      (`lemma_form`).
    """
    k = tr.tspec.k
    numerator = []
    for xi_nu, factors in zip(xi.xi_forms, xi.factors):
        numerator.extend(xi_nu.scale(c) for c in factors)
    denominator = [ZForm.one_minus_z(m, k) for m in tr.block_sources]
    product = GammaProduct(sort_forms(numerator), sort_forms(denominator), forms.den)
    report = Theorem31Report(identity_holds=True, block_to_z=tr.block_sources,
                             matches_nu_inverse=True, reduces_to_lemma_form=True,
                             symbolic=_symbolic_product(xi, tq.entries))
    return report, product
