"""Rational views of the program's results that only the tests read.

The program works in integer numerators over one denominator; these
helpers give the same results as Fractions, so tests can compare them with
sympy and with hand-computed values:

* a `Matrix`'s entries (`entries`, `entry`, `column`), and `fraction_matrix`,
  a matrix from rows that hold Fractions;
* `LinearForm`, one form as its own object, the per-column oracle of the
  view `mellin.solve_xi` gives: `columns` splits a view into them, and
  `with_column` builds the view of a copy of L^-1 with one column doctored;
* a `LinearForm`'s coefficients (`i_coeffs`, `zeta_coeffs`, `z_coeffs`), a
  `ZForm`'s (`coeffs`, `constant`), and `linear_form` and `zform`, which build
  each from int or Fraction values, and `over_one_denominator`, which puts
  a tuple of forms over one denominator, as the view holds them;
* the forms' four column sums (`column_sums`) and the three-pattern
  classifier (`classify_by_pattern`), which the run proves from L's shape
  and the certified L L^-1 = I instead of computing;
* the checks the run proves instead of making, each with its own error:
  the constant rows' forms (`check_constant_rows`, ClassificationFailureError)
  and the plain product's shape (`check_lemma_shape`,
  LemmaShapeViolationError), which the weights decide, the Horn sides'
  sign classes (`check_horn_sides`, DegenerateOperatorError), the degree
  balance of a ratio (`degree_balanced`), which the transposed side's
  char-polys and M_X have by their weights, and Theorem 3.1's factorization
  (`check_factorization`, NotFactorizableError), contraction (`contraction`,
  IdentityViolatedError) and reduction (`gamma_equal` of the products'
  `canonical_multiset`), which the weights, the certified L^-1 and M' = 0
  decide (`mellin.factorize_xi`, `mellin.verify_theorem_31`);
* a nef stage's dual vertices (`duals`, `sigma_dual_generators`), and the
  rank, pivot columns and Minkowski dimension (`rank`, `pivot_columns`,
  `minkowski_dim`) that the nef certificate proves instead of computing;
* `ratio_equal`, equality of two CyclotomicRatios as rational functions by
  expansion, which `verify_duality` decides as `==` by unique factorization,
  on the sparse multivariate product (`_poly_mul`, `_factor_poly`,
  `_expand_product`) that also gives `truncated_expansion`, the oracle of
  `poincare.series_expand`, and the full products of the char-polys;
* `dense_matmul` and `identity`, the matrix product and unit matrix the
  program never forms;
* the transposed side a run no longer builds as a MirrorPair (`mirror_side`),
  the entrywise comparison of its Cayley matrix with L that a run makes on the
  data alone (`permuted_transpose_mismatch`), and the double transpose a run
  no longer builds (`double_transpose`), relabelled
  onto the spec's variables (`recovered`) and matched to its blocks
  (`block_match`, `recovered_data`, `involutive`): the oracle of
  `MirrorPair.recovered_data`, which reads it off the first transposition;
* `rat_str` and `integer_row` for Fractions, and the eliminations and
  Fraction arithmetic the program's closed forms replaced.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from mirrorkit import transposition
from mirrorkit.ci_model import (Block, build_cayley, charges, CISpec, SpecError, weight_hint,
                                 WeightSystem)
from mirrorkit.mellin import Forms, sort_forms, ZForm
from mirrorkit.rational_linalg import ratio_str
from mirrorkit.nef_partition import _with_block_axes
from mirrorkit.pipeline import MirrorPair
from mirrorkit.poincare import PoincareError
from mirrorkit.rational_linalg import (
    DimensionMismatchError,
    Matrix,
    SingularMatrixError,
    _canonical,
    _eliminate,
    _kernel_columns,
    integer_kernel,
)


def rat_str(x):
    """A Fraction or int as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def integer_row(xs):
    """(d*xs as integers, d) with d the LCM of the denominators of xs."""
    xs = list(xs)
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def fraction_matrix(rows):
    """The Matrix of int or Fraction rows: the entries over the LCM of their denominators."""
    rows = [list(row) for row in rows]
    den = math.lcm(*(x.denominator for x in chain.from_iterable(rows)))
    return Matrix(tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                        for row in rows), den)


def entries(m):
    """The entries of a Matrix as Fractions."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.num)


def entry(m, i, j):
    return Fraction(m.num[i][j], m.den)


def column(m, j):
    return tuple(Fraction(row[j], m.den) for row in m.num)


def zform(coeffs, const):
    """The ZForm with these int or Fraction coefficients and constant."""
    num, den = integer_row((*coeffs, const))
    return ZForm(tuple(num), den)


def coeffs(z):
    """A ZForm's coefficients c_1..c_k as Fractions."""
    return tuple(Fraction(c, z.den) for c in z.num[:-1])


def constant(z):
    """A ZForm's constant c_0 as a Fraction."""
    return Fraction(z.num[-1], z.den)


@dataclass(frozen=True)
class LinearForm:
    """One affine form with formal arguments i_1..i_n, z_1..z_k, zeta_1..zeta_2k.

    Its coefficients are integer numerators ``num`` over one positive
    denominator ``den``, in the order (i | zeta | z) of a column of the
    inverse Cayley matrix, not reduced.  The constant collects the +1 shifts
    attached to the i and zeta slots, so the base-point value (all i and
    zeta at zero) is const + <z-part, z>, its xi().
    """

    num: tuple
    den: int
    k: int

    @property
    def n(self):
        return len(self.num) - 3 * self.k

    def z_num(self, q):
        """The numerator of the z_q coefficient."""
        return self.num[len(self.num) - self.k + q - 1]

    def xi(self):
        """Specialization at i = 0, zeta = 0."""
        z = len(self.num) - self.k
        return ZForm.reduced((*self.num[z:], sum(self.num[:z])), self.den)

    def to_json(self):
        d, n, z = self.den, self.n, len(self.num) - self.k
        strs = [ratio_str(x, d) for x in self.num]
        return {"i_coeffs": strs[:n], "zeta_coeffs": strs[n:z], "z_coeffs": strs[z:],
                "const": ratio_str(sum(self.num[:z]), d)}


def columns(forms):
    """The LinearForms of a `mellin.Forms` view: one per column of its inverse."""
    return tuple(LinearForm(col, forms.den, forms.k) for col in zip(*forms.inverse.num))


def with_column(forms, a, form):
    """The view of a copy of the forms' inverse whose column a is the LinearForm
    form, every column over the LCM of the denominators."""
    cols = list(columns(forms))
    cols[a - 1] = form
    cols = over_one_denominator(cols)
    return Forms(_canonical(tuple(zip(*(f.num for f in cols))), cols[0].den), forms.k)


def linear_form(i_coeffs, zeta_coeffs, z_coeffs):
    """The LinearForm with these int or Fraction coefficients (its constant is
    their i and zeta sum)."""
    num, den = integer_row((*i_coeffs, *zeta_coeffs, *z_coeffs))
    return LinearForm(tuple(num), den, len(z_coeffs))


def over_one_denominator(forms):
    """The forms, each over the LCM of their denominators."""
    d = math.lcm(*(f.den for f in forms))
    return tuple(LinearForm(tuple(x * (d // f.den) for x in f.num), d, f.k) for f in forms)


def column_sums(forms):
    """The sum rules, per name, from the column sums of the view's forms over
    their one denominator Delta: the i and z numerator sums 0, the zeta sums
    Delta, and the constants 2k * Delta."""
    k, delta = forms.k, forms.den
    n = len(forms) - 3 * k
    sums = [sum(col) for col in zip(*(f.num for f in columns(forms)))]
    z0 = n + 2 * k
    return {"i_column_sums_vanish": not any(sums[:n]),
            "z_column_sums_vanish": not any(sums[z0:]),
            "zeta_column_sums_one": all(x == delta for x in sums[n:z0]),
            "constants_sum_2k": sum(sums[:z0]) == 2 * k * delta}


class ClassificationFailureError(Exception):
    """A form matches no structural pattern."""


class LemmaShapeViolationError(Exception):
    def __init__(self, index: int, message: str):
        super().__init__(f"row {index}: {message}")
        self.index = index


class DegenerateOperatorError(Exception):
    """A variable with an empty positive or negative index side."""


def check_constant_rows(cm, forms):
    """Raise ClassificationFailureError unless the z part of each constant row
    a(nu)'s form is -z_nu: the one pattern `mellin.classify_forms` does not
    read off L's shape, proved from the weights' M = 0 instead."""
    k, d = cm.spec.k, forms.den
    for nu, a in enumerate(cm.a_indices, start=1):
        if forms.xi_nums[a - 1][:k] != tuple(-d if q == nu else 0 for q in range(1, k + 1)):
            raise ClassificationFailureError(f"form {a} matches no pattern")


def check_lemma_shape(cm, forms):
    """Raise LemmaShapeViolationError unless each block's product-row and
    constant-row forms are z_nu and 1 - z_nu, as `mellin.lemma_form` proves."""
    k, d = cm.spec.k, forms.den
    for nu in range(1, k + 1):
        a = cm.spec.a(nu)
        unit = tuple(d if q == nu else 0 for q in range(1, k + 1))
        if forms.xi_nums[a - 2] != (*unit, 0):
            raise LemmaShapeViolationError(a - 1, f"expected z{nu}")
        if forms.xi_nums[a - 1] != (*(-x for x in unit), d):
            raise LemmaShapeViolationError(a, f"expected 1 - z{nu}")


def check_horn_sides(forms):
    """Raise DegenerateOperatorError unless every S row has a positive and a
    negative entry: both sides of each Horn operator (`horn_operators`)."""
    for q, row in enumerate(forms.s_rows, start=1):
        if not (any(c > 0 for c in row) and any(c < 0 for c in row)):
            raise DegenerateOperatorError(f"variable {q}: empty sign class")


class NotFactorizableError(Exception):
    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class IdentityViolatedError(Exception):
    def __init__(self, q: int, message: str):
        super().__init__(f"block {q}: {message}")
        self.q = q


def check_factorization(tr, forms, tweights):
    """Raise NotFactorizableError unless each monomial row's form is its
    transposed weight c times the common form of its transposed block: row r
    with factor c against the block's base row with factor c_base,
    c_base * xi_nums[r - 1] = c * xi_nums[base - 1]."""
    diag = tweights.diagonal
    for q in range(1, tr.tspec.k + 1):
        rng = set(tr.tspec.block_range(q))
        rows = sorted((v, r) for r, v in tr.row_to_var if v in rng)
        (v0, base), nums = rows[0], forms.xi_nums
        for v, r in rows[1:]:
            c = diag[v - 1]
            if [diag[v0 - 1] * x for x in nums[r - 1]] != [c * x for x in nums[base - 1]]:
                raise NotFactorizableError(
                    r, f"form is not {c} times the common form of block {q}")


def contraction(tr, xi, tq):
    """Per transposed block q, the m with sum_nu tq[q][nu] xi^(nu) = 1 - z_m, each m
    used once; raise IdentityViolatedError when a block has none."""
    k = tr.tspec.k
    den = math.lcm(*(f.den for f in xi.xi_forms))
    scaled = [[x * (den // f.den) for x in f.num] for f in xi.xi_forms]
    block_to_z = []
    for q in range(1, k + 1):
        row = tq.entries[q - 1]
        d = ZForm.reduced(tuple(sum(t * v[i] for t, v in zip(row, scaled))
                                for i in range(k + 1)), den)
        match = next((m for m in range(1, k + 1)
                      if m not in block_to_z and d == ZForm.one_minus_z(m, k)), None)
        if match is None:
            raise IdentityViolatedError(q, f"contraction gives {d}, not of the form 1 - z_m")
        block_to_z.append(match)
    return tuple(block_to_z)


def canonical_multiset(product):
    """A GammaProduct's arguments as numerator factors, denominators reflected
    through 1 - x."""
    return sort_forms((*product.numerator, *(d.reflect() for d in product.denominator)))


def gamma_equal(a, b):
    """Whether two GammaProducts agree up to reflection."""
    return canonical_multiset(a) == canonical_multiset(b)


def _poly_mul(a, b, order=None):
    """The product of two polynomials, dicts exponent vector -> coefficient,
    without the terms of total degree above order; only nonzero terms."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if order is not None and sum(e) > order:
                continue
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _factor_poly(q, d, k):
    """The polynomial 1 - t_q^d, which is zero when d == 0."""
    if d == 0:
        return {}
    zero = tuple(0 for _ in range(k))
    e = tuple(d if i == q - 1 else 0 for i in range(k))
    return {zero: 1, e: -1}


def _expand_product(factors, k, order=None):
    """prod (1 - t_q^d) over the factors (q, d), truncated at total degree order."""
    poly = {tuple(0 for _ in range(k)): 1}
    for q, d in factors:
        poly = _poly_mul(poly, _factor_poly(q, d, k), order)
    return poly


def truncated_expansion(ratio, order):
    """A CyclotomicRatio's power series to total degree order, multiplied out
    over k variables at once: each denominator factor is its geometric
    series, truncated at order."""
    k = ratio.k
    poly = _expand_product(ratio.num, k, order)
    for q, d in ratio.den:
        geo = {tuple(m * d if i == q - 1 else 0 for i in range(k)): 1
               for m in range(order // d + 1)}
        poly = _poly_mul(poly, geo, order)
    return poly


def ratio_equal(a, b):
    """Exact equality of two CyclotomicRatios as rational functions, by
    cross-multiplied expansion: the oracle of `verify_duality`'s `==`.

    A factor (1 - t_q^d) with d != 0 is a nonzero element of an integral
    domain, so the factors a.num + b.den and b.num + a.den have in common
    are cancelled before expanding.  Zero exponents are never cancelled.
    """
    if a.k != b.k:
        raise PoincareError("variable counts differ")
    left = Counter(tuple(a.num) + tuple(b.den))
    right = Counter(tuple(b.num) + tuple(a.den))
    common = Counter({f: m for f, m in (left & right).items() if f[1]})
    return (_expand_product((left - common).elements(), a.k)
            == _expand_product((right - common).elements(), a.k))


def degree_balanced(ratio):
    """Whether a CyclotomicRatio has equal numerator and denominator degree in
    each variable."""
    return all(sum(d for v, d in ratio.num if v == q) == sum(d for v, d in ratio.den if v == q)
               for q in range(1, ratio.k + 1))


def classify_by_pattern(cm, forms):
    """Tag each form of the view by the first structural pattern it matches, a (pure z_nu),
    b (zeta_{2nu-1} + zeta_{2nu} - z_nu) or c (each z_l against -zeta_{2l-1}
    only), and raise ClassificationFailureError when a form matches none or
    its tag is not its row kind's."""
    k = cm.spec.k
    tags = []
    for a, form in enumerate(columns(forms), start=1):
        _, kind, _ = cm.row_labels[a - 1]
        num, one = form.num, form.den
        z0 = len(num) - k          # the z numerators are num[z0:]
        zeta = num[form.n:z0]
        if not any(num):
            raise ClassificationFailureError(f"form {a} is identically zero")
        tag = None
        if not any(num[:z0]) and [c for c in num[z0:] if c] == [one]:
            tag = "a"
        for nu in range(1, k + 1):
            zc = [0] * k
            zc[nu - 1] = -one
            zetac = [0] * (2 * k)
            zetac[2 * nu - 2] = zetac[2 * nu - 1] = one
            if tag is None and list(num[z0:]) == zc and list(zeta) == zetac:
                tag = "b"
        if tag is None and all(zeta[2 * l - 1] == 0 and zeta[2 * l - 2] == -num[z0 + l - 1]
                               for l in range(1, k + 1)):
            tag = "c"
        if tag is None:
            raise ClassificationFailureError(f"form {a} matches no pattern")
        expected = {"s-row": "a", "constant-row": "b", "monomial": "c", "product-row": "c"}[kind]
        if tag != expected:
            raise ClassificationFailureError(
                f"form {a} tagged {tag} but its row kind {kind} requires {expected}")
        tags.append(tag)
    return tuple(tags)


def i_coeffs(form):
    return tuple(Fraction(x, form.den) for x in form.num[:form.n])


def zeta_coeffs(form):
    return tuple(Fraction(x, form.den) for x in form.num[form.n:len(form.num) - form.k])


def z_coeffs(form):
    return coeffs(form.xi())


def duals(nef):
    """Per block, its dual vertices (columns of P) as Fractions."""
    return tuple(tuple(column(nef.p_matrix, c) for c in cols) for cols in nef.dual_idx)


def sigma_dual_generators(nef):
    return _with_block_axes(duals(nef), nef.p_matrix.rows, Fraction(0), Fraction(1))


def pivot_columns(m):
    """Lowest-index columns of a Matrix that are linearly independent (the pivots)."""
    work = [list(row) for row in m.num]
    _, pivots = _eliminate(work, m.cols)
    return pivots


def rank(m):
    return len(pivot_columns(m))


def minkowski_dim(deltas):
    """Rank of the span of all the polytopes' vertices: the dimension of their
    Minkowski sum, n - k on every side of a transposition, which the nef
    certificate proves instead of computing."""
    rows = [v for d in deltas for v in d.vertices if any(v)]
    return rank(Matrix.from_rows(rows)) if rows else 0


def right_kernel(m):
    """Basis of {x : m x = 0}, one vector per free column, deterministic order:
    each is 1 at its free column and 0 at the other free columns."""
    return [tuple(Fraction(x, vec[free]) for x in vec) for free, vec in _kernel_columns(m)]


def solve_den(m, rhs_cols):
    """Particular solutions of m x = b for each column b, as integer vectors over
    one common denominator: (d*x per column, or None when inconsistent; d; rank m).

    One elimination of [m | b_1 ... b_r]: the pivots depend on m alone, so
    each column gets exactly the solution a one-column solve would.  m may
    be rectangular or rank-deficient; free variables are set to zero.  d
    is the least common denominator of the consistent solutions.  The
    reference the nef stage's closed-form dual vertices are tested against.
    """
    if any(len(b) != m.rows for b in rhs_cols):
        raise DimensionMismatchError("right-hand side length mismatch")
    n = m.cols
    aug = []
    for i, row in enumerate(m.num):
        # num x = den * b; row i scaled by the LCM e of its right-hand denominators
        rhs, e = integer_row(b[i] for b in rhs_cols)
        aug.append([x * e for x in row] + [m.den * y for y in rhs])
    r, pivots = _eliminate(aug, n)
    d = math.lcm(*(aug[i][pcol] for i, pcol in enumerate(pivots)))
    out = []
    for c in range(n, n + len(rhs_cols)):
        if any(aug[i][c] for i in range(r, m.rows)):
            out.append(None)
            continue
        x = [0] * n
        for i, pcol in enumerate(pivots):
            x[pcol] = aug[i][c] * (d // aug[i][pcol])
        out.append(tuple(x))
    g = math.gcd(d, *chain.from_iterable(x for x in out if x is not None))
    if g > 1:
        out = [None if x is None else tuple(v // g for v in x) for x in out]
        d //= g
    return out, d, r


def solve_many(m, rhs_cols):
    """Particular solutions of m x = b for each column b of rhs_cols, None when
    inconsistent (solve_den's solutions as Fractions)."""
    cols, d, _ = solve_den(m, rhs_cols)
    return [None if x is None else tuple(Fraction(v, d) for v in x) for x in cols]


def dense_matmul(a, b):
    """The matrix product a b as every column's dot product with every row,
    zeros included: the rows `is_inverse` forms over the nonzero entries only."""
    cols = list(zip(*b.num))
    num = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.num)
    return _canonical(num, a.den * b.den)


def identity(n):
    """The n x n identity Matrix."""
    return Matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def support_phi(deltas, q, y):
    """Value of the block-q support function at y: -min over vertices of <x, y>."""
    y = [Fraction(b) for b in y]
    return -min(sum(a * b for a, b in zip(v, y)) for v in deltas[q - 1].vertices)


def is_involution(p):
    """True when the PermutationMap p is its own inverse."""
    return all(p.images[j - 1] == i + 1 for i, j in enumerate(p.images))


@dataclass(frozen=True)
class FractionZForm:
    """The affine form const + sum_q coeffs_q z_q in Fraction arithmetic: the
    oracle for the integer numerators of mellin.ZForm, whose sums, scalings,
    reflections, text, JSON and (const, coeffs) order must agree with it."""

    coeffs: tuple[Fraction, ...]
    const: Fraction

    @staticmethod
    def of(z):
        """The oracle form with a ZForm's value."""
        return FractionZForm(coeffs(z), constant(z))

    def integer(self):
        """The ZForm with this value."""
        return zform(self.coeffs, self.const)

    def __add__(self, other):
        return FractionZForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                             self.const + other.const)

    def scale(self, c):
        c = Fraction(c)
        return FractionZForm(tuple(c * a for a in self.coeffs), c * self.const)

    def reflect(self):
        """1 - self."""
        return FractionZForm(tuple(-a for a in self.coeffs), 1 - self.const)

    def sort_key(self):
        return (self.const, self.coeffs)

    def __str__(self) -> str:
        d = math.lcm(*(x.denominator for x in (self.const, *self.coeffs)))
        terms = []
        c0 = self.const * d
        if c0:
            terms.append(str(c0.numerator))
        for q, c in enumerate(self.coeffs, start=1):
            ci = int(c * d)
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
        return {"coeffs": [rat_str(c) for c in self.coeffs], "const": rat_str(self.const)}


def vectors_proportional(u, v) -> bool:
    """True when u and v span the same line (2x2 minors all vanish), both nonzero:
    the reference for the one-pass grouping of `ci_model.rays_by_class`."""
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return False
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


def kernel_rows(factor, relations):
    """The rows of factor·K, K an integer basis of ker relations (k x k, from
    `transposition.inverse_hint`): the rows of a basis of factor·ker relations,
    factor injective.  The elimination of M' that H alone replaces where M' = 0."""
    kernel = integer_kernel(Matrix(relations))
    return tuple(tuple(sum(map(mul, row, vec)) for vec in kernel) for row in factor)


def kernel_basis(pair):
    """The rows of a basis of ker spec.diff, one per variable: C
    (`ci_model.weight_hint`) on a nonsingular L, else the derived weights'
    rows; None without weights."""
    inverse = pair._inversion
    if not isinstance(inverse, SingularMatrixError):
        return weight_hint(pair.spec, inverse)[0]
    try:
        return tuple(zip(*pair.weights.vectors))
    except SpecError:
        return None


def permuted_transpose_mismatch(cm, tcm, row_to_var, block_sources):
    """The message "transpose mismatch at new entry (r,c)" for the first entry,
    row-major and 1-based, where tcm is not L transposed with its rows and
    columns permuted as a transposition's bookkeeping says, or None: every
    entry compared, the oracle of `transposition._verify_permuted_transpose`,
    which reads only the data."""
    spec = cm.spec
    n, k = spec.n, spec.k
    var_to_row = {v: r for r, v in row_to_var}

    # new row index -> old column index (in matrix coordinates)
    old_col_of_row: list[int] = []
    for q in range(1, k + 1):
        src = block_sources[q - 1]
        for c in spec.blocks[src - 1].index_set:
            old_col_of_row.append(c)
        old_col_of_row.append(n + 2 * src)        # s-term row from old y_{2 src}
        old_col_of_row.append(n + 2 * src - 1)    # product row from old y_{2 src - 1}
        old_col_of_row.append(n + 2 * k + src)    # constant row from old s_src

    # new column index -> old row index
    old_row_of_col: list[int] = [var_to_row[p] for p in range(1, n + 1)]
    for q in range(1, k + 1):
        a = spec.a(block_sources[q - 1])
        old_row_of_col.extend([a - 1, a - 2])     # y_{2q-1}, y_{2q}
    for q in range(1, k + 1):
        old_row_of_col.append(spec.a(block_sources[q - 1]))  # s_q

    size = spec.total_rows
    old, new = cm.matrix.num, tcm.matrix.num
    for r in range(size):
        for c in range(size):
            if new[r][c] != old[old_row_of_col[c] - 1][old_col_of_row[r] - 1]:
                return f"transpose mismatch at new entry ({r + 1},{c + 1})"
    return None


def mirror_side(pair):
    """The transposed side as its own MirrorPair, handed `pair.tweights`: what a
    run no longer builds, for the tests that read its Cayley matrix or rho."""
    mirror = MirrorPair(pair.tr.tspec)
    mirror.weights = pair.tweights
    return mirror


def double_transpose(pair):
    """tr.tspec transposed and checked in full, the second transposition a run
    reads off the first: `build_transpose` of tr.tspec's Cayley matrix, built
    here, its classes read off the spec's kernel basis moved by lambda,
    `complete_transpose` with tr.tspec's rho, and a third Cayley matrix
    compared with it entry by entry (`permuted_transpose_mismatch`).  Needs
    only the spec's transposition shape."""
    shape, basis = pair._shape, kernel_basis(pair)
    tspec = shape.tspec
    tcm = build_cayley(tspec)
    hint = None if basis is None else tuple(basis[i - 1] for i in shape.lam.images)
    shape2 = transposition.build_transpose(tcm, lambda: hint)
    found = transposition.find_rho(tspec, WeightSystem(tspec.weights))
    tr2 = transposition.complete_transpose(tcm, shape2, found)
    mismatch = permuted_transpose_mismatch(tcm, build_cayley(tr2.tspec), tr2.row_to_var,
                                           tr2.block_sources)
    if mismatch:
        raise transposition.InternalInvariantError(mismatch)
    return tr2


def double_transpose_relabel(spec, tr, tr2):
    """sigma[p-1] = original variable recovered at position p of tr2.tspec."""
    i_lam = list(tr.tspec.i_lambda())
    var_to_row2 = {v: r for r, v in tr2.row_to_var}
    sigma = []
    for p in range(1, spec.n + 1):
        row = var_to_row2[p]                    # monomial row of tspec
        mono_pos = i_lam.index(row) + 1         # its position among tspec monomials
        sigma.append(tr.lam.images[mono_pos - 1])  # the original variable it came from
    return tuple(sigma)


def apply_variable_permutation(spec, sigma):
    """Relabel variable p as sigma[p-1], in the blocks and in the weights if any.

    Blocks and weight vectors keep their order; only the variables move.
    """
    def remap(vec):
        out = [0] * spec.n
        for p, val in enumerate(vec, start=1):
            out[sigma[p - 1] - 1] = val
        return tuple(out)
    blocks = tuple(Block(exponents=tuple(remap(v) for v in b.exponents),
                         index_set=tuple(sorted(sigma[i - 1] for i in b.index_set)))
                   for b in spec.blocks)
    weights = None if spec.weights is None else tuple(map(remap, spec.weights))
    return CISpec(n=spec.n, k=spec.k, blocks=blocks, weights=weights)


def recovered(pair, tr2=None):
    """The double transpose (tr2, else `double_transpose`) with its blocks and
    weights relabelled onto the spec's variables."""
    tr2 = double_transpose(pair) if tr2 is None else tr2
    return apply_variable_permutation(tr2.tspec, double_transpose_relabel(pair.spec, pair.tr, tr2))


def block_match(spec, rec):
    """Per block of spec, the 0-based index of the first unused block of rec with its
    exponents (as a set) and index set; None when some block has none (rec is not
    spec: the double transpose is not home)."""
    match = []
    for blk in spec.blocks:
        key = (sorted(blk.exponents), tuple(blk.index_set))
        m = next((m for m, rblk in enumerate(rec.blocks) if m not in match
                  and (sorted(rblk.exponents), rblk.index_set) == key), None)
        if m is None:
            return None
        match.append(m)
    return tuple(match)


def recovered_data(spec, rec):
    """rec's weights in spec's block order (`block_match`) and their charges, or
    None when rec is not home."""
    match = block_match(spec, rec)
    if match is None:
        return None
    weights = WeightSystem(tuple(rec.weights[m] for m in match))
    return weights, charges(spec, weights)


def involutive(pair):
    """Whether the double transpose returns home."""
    return block_match(pair.spec, recovered(pair)) is not None
