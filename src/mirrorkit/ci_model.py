"""Complete-intersection specifications and the Cayley-trick matrix.

A specification consists of k blocks on n torus variables.  Block q
contributes a sum of tau_q monomials plus a "product" equation
``prod_{j in I_q} x_j + 1`` whose index sets partition {1..n}.  The whole
system is folded into one polynomial via the Cayley trick, whose exponent
vectors form the square (n+3k) x (n+3k) matrix L that drives everything
downstream.

Conventions (fixed for byte-identical golden output):
  * variable indexing is 1-based in all I/O;
  * Cayley columns are ordered x_1..x_n, y_1..y_{2k}, s_1..s_k;
  * block q's own variables occupy positions b_{q-1}+1 .. b_q where
    b_q = tau_1 + ... + tau_q;
  * the s-term row multiplies y_{2q-1} (the printed 13x13 example fixes
    this reading: its row 5 has units in the y_1 and s_1 columns).
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from typing import Sequence

from .rational_linalg import (
    integer_kernel,
    Matrix,
    primitive_integer_vector,
    SingularMatrixError,
)
from .record import field, lazy, record

# `poincare.series_expand` refuses an order whose term-count estimate
# C(order + k, k) exceeds this.  An expansion costs O(order) per factor and
# O(1) per term: the largest allowed order takes under 1 ms at k = 1, 2 and 3
# with CPython 3.11 on a 2-core x86-64 VM.  It is defined here, and not in
# `poincare`, so that the CLI's help can state it without loading `poincare`.
SERIES_TERM_CAP = 2000


# the error classes, through PoincareError, that `cli._main` maps to exit codes
class SpecError(Exception):
    """Base class for specification-level failures."""


class SpecInvalidError(SpecError):
    """The specification violates a structural requirement."""


class NoPositiveSolutionError(SpecError):
    """No positive weight system satisfies the quasihomogeneity equations."""


class AmbiguousWeightsError(SpecError):
    """The weight solution space has dimension > 1; refusing to guess."""


class TranspositionError(SpecError):
    pass


class InternalInvariantError(TranspositionError):
    """A construction identity that must hold was violated (implementation bug)."""


class HornError(Exception):
    pass


class PoincareError(Exception):
    pass


def _invalid(path: str, expected: str, value) -> SpecInvalidError:
    if isinstance(value, (dict, list)):
        got = "an object" if isinstance(value, dict) else "a list"
    else:
        got = json.dumps(value, default=repr)
    return SpecInvalidError(f"{path}: expected {expected}, got {got}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _field(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecInvalidError(f"{path}: missing")
    return obj[key]


def _positive_int(obj: dict, key: str) -> int:
    x = _field(obj, key, key)
    if not _is_int(x) or x < 1:
        raise _invalid(key, "a positive integer", x)
    return x


def _list(x, path: str) -> list:
    if not isinstance(x, list):
        raise _invalid(path, "a list", x)
    return x


def _int_list(x, path: str) -> tuple[int, ...]:
    for j, e in enumerate(_list(x, path)):
        if not _is_int(e):
            raise _invalid(f"{path}[{j}]", "an integer", e)
    return tuple(x)


def _int_rows(x, path: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_list(row, f"{path}[{i}]") for i, row in enumerate(_list(x, path)))


@record
class Block:
    """One block: exponent rows of its monomial sum plus its product index set."""

    exponents: tuple[tuple[int, ...], ...]
    index_set: tuple[int, ...]  # sorted, 1-based

    @property
    def tau(self) -> int:
        return len(self.exponents)

    def indicator(self, n: int) -> tuple[int, ...]:
        members = set(self.index_set)
        return tuple(1 if i + 1 in members else 0 for i in range(n))


@record
class CISpec:
    n: int
    k: int
    blocks: tuple[Block, ...]
    weights: tuple[tuple[int, ...], ...] | None = None  # optional, one length-n vector per block

    # -- block layout --------------------------------------------------------

    @lazy
    def taus(self) -> tuple[int, ...]:
        return tuple(b.tau for b in self.blocks)

    @lazy
    def _prefix(self) -> tuple[int, ...]:
        return tuple(accumulate(self.taus, initial=0))

    def b(self, q: int) -> int:
        """Cumulative monomial count b^q = tau_1 + ... + tau_q (q in 0..k).

        A q past the last block (a spec whose k exceeds its block count)
        counts every block.
        """
        return self._prefix[min(q, len(self.blocks))]

    def block_range(self, q: int) -> tuple[int, ...]:
        """1-based variable positions owned by block q."""
        return tuple(range(self.b(q - 1) + 1, self.b(q) + 1))

    def a(self, nu: int) -> int:
        """Row index a^nu = b^nu + 3*nu of the last row of block nu (1-based)."""
        return self.b(nu) + 3 * nu

    @property
    def total_rows(self) -> int:
        return self.n + 3 * self.k

    def i_lambda(self) -> tuple[int, ...]:
        """Monomial row indices: {1..L} minus the three special rows per block."""
        special = set()
        for nu in range(1, self.k + 1):
            a = self.a(nu)
            special.update((a - 2, a - 1, a))
        return tuple(i for i in range(1, self.total_rows + 1) if i not in special)

    def monomial_rows(self, nu: int) -> tuple[int, ...]:
        """Row indices a^{nu-1}+1 .. a^{nu-1}+tau_nu of block nu's monomials."""
        start = self.a(nu - 1)
        return tuple(range(start + 1, start + 1 + self.taus[nu - 1]))

    @lazy
    def diff(self) -> Matrix:
        """The spec's difference_matrix, built once: `derive_weights` and the nef solve read it."""
        return difference_matrix(self)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "k": self.k,
            "blocks": [
                {"exponents": [list(v) for v in blk.exponents],
                 "index_set": list(blk.index_set)}
                for blk in self.blocks
            ],
        }
        if self.weights is not None:
            data["weights"] = [list(w) for w in self.weights]
        return data

    @staticmethod
    def from_json(data) -> "CISpec":
        """Parse decoded JSON strictly: every count and entry a JSON integer, n, k >= 1.

        Raises SpecInvalidError naming the JSON path of the first value of
        the wrong shape (for example ``blocks[0].exponents[1][0]``); a
        fraction or a boolean is never read as an integer.  Keys other than
        n, k, blocks and weights are ignored.
        """
        if not isinstance(data, dict):
            raise _invalid("specification", "a JSON object", data)
        n, k = _positive_int(data, "n"), _positive_int(data, "k")
        blocks = []
        for i, blk in enumerate(_list(_field(data, "blocks", "blocks"), "blocks")):
            path = f"blocks[{i}]"
            if not isinstance(blk, dict):
                raise _invalid(path, "an object", blk)
            exponents = _int_rows(_field(blk, "exponents", f"{path}.exponents"),
                                  f"{path}.exponents")
            index_set = _int_list(_field(blk, "index_set", f"{path}.index_set"),
                                  f"{path}.index_set")
            blocks.append(Block(exponents=exponents, index_set=tuple(sorted(index_set))))
        weights = None
        if data.get("weights") is not None:
            weights = _int_rows(data["weights"], "weights")
        return CISpec(n=n, k=k, blocks=tuple(blocks), weights=weights)

    @staticmethod
    def load(path) -> "CISpec":
        with open(path, "r", encoding="utf-8") as fh:
            return CISpec.from_json(json.load(fh))


@record
class WeightSystem:
    """One nonnegative integer weight vector per block, supported on its own range."""

    vectors: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        """Entry i = the weight of variable i under its owning block."""
        n = len(self.vectors[0])
        diag = [0] * n
        for vec in self.vectors:
            for i, g in enumerate(vec):
                if g:
                    diag[i] = g
        return tuple(diag)

    def support_values(self, q: int) -> tuple[int, ...]:
        """Nonzero entries of block q's vector in position order (1-based q)."""
        return tuple(g for g in self.vectors[q - 1] if g)

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


@record
class ChargeMatrix:
    """entries[j][q] = pairing of block j+1's first monomial with weight vector q+1."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.entries)

    def column(self, q: int) -> tuple[int, ...]:
        return tuple(row[q - 1] for row in self.entries)

    def column_lcm(self, q: int) -> int:
        """LCM of the nonzero charges in column q (the cyclic group order)."""
        return math.lcm(*(c for c in self.column(q) if c))

    @property
    def column_lcms(self) -> tuple[int, ...]:
        """One LCM per weight vector (column); a spec whose block count differs
        from its k gives a non-square matrix."""
        width = len(self.entries[0]) if self.entries else 0
        return tuple(self.column_lcm(q) for q in range(1, width + 1))

    def to_json(self) -> dict:
        return {"entries": [list(r) for r in self.entries], "column_lcms": list(self.column_lcms)}


ROW_MONOMIAL = "monomial"
ROW_S = "s-row"
ROW_PRODUCT = "product-row"
ROW_CONSTANT = "constant-row"


@record
class CayleyMatrix:
    matrix: Matrix
    row_labels: tuple[tuple[int, str, int], ...]  # (block, kind, monomial index or 0)
    col_labels: tuple[str, ...]
    a_indices: tuple[int, ...]  # a^1 .. a^k, 1-based
    i_lambda: tuple[int, ...]
    spec: CISpec = field(repr=False)

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "row_labels": [list(lbl) for lbl in self.row_labels],
            "col_labels": list(self.col_labels),
            "a_indices": list(self.a_indices),
            "i_lambda": list(self.i_lambda),
        }


@record
class ValidationReport:
    checks: dict[str, bool]
    notes: tuple[str, ...]
    weights: WeightSystem | None
    charges: ChargeMatrix | None

    HARD = ("partition", "tau_sum", "exponent_shape", "weights_solvable", "cayley_nonsingular")
    SOFT = ("weights_supplied_consistent", "calabi_yau")

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def hard_ok(self) -> bool:
        return all(self.checks.get(name, False) for name in self.HARD)

    def to_json(self) -> dict:
        return {
            "checks": dict(self.checks),
            "notes": list(self.notes),
            "weights": self.weights.to_json() if self.weights else None,
            "charges": self.charges.to_json() if self.charges else None,
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# weight derivation
# ---------------------------------------------------------------------------


def difference_matrix(spec: CISpec) -> Matrix:
    """Rows v - indicator, over all blocks in order; the torus embedding exponents.

    Every weight vector lies in its kernel.
    """
    rows = []
    for blk in spec.blocks:
        ind = blk.indicator(spec.n)
        for v in blk.exponents:
            rows.append(tuple(a - b for a, b in zip(v, ind)))
    return Matrix.from_rows(rows)


def derive_weights(spec: CISpec) -> WeightSystem:
    """Solve the quasihomogeneity equations for the primitive positive weights.

    Block q's vector is supported on its own variable range; the pairing of
    every monomial of every block against it must match the pairing of that
    block's product indicator.  The solution per block must be a single
    positive ray, reported primitively.  A structurally invalid spec raises
    SpecInvalidError, as in build_cayley.

    This is the definition of the derived weights and the oracle of
    `read_weights`; a run solves for them here only when the Cayley matrix
    is singular, and otherwise only to raise the error of a spec that
    `read_weights` finds without weights.
    """
    _check_structure(spec)
    diffs = spec.diff.num
    vectors = []
    for q in range(1, spec.k + 1):
        cols = [i - 1 for i in spec.block_range(q)]
        if not cols:
            raise NoPositiveSolutionError(f"block {q} owns no variables")
        kernel = integer_kernel(Matrix(tuple(tuple(row[c] for c in cols) for row in diffs)))
        if len(kernel) == 0:
            raise NoPositiveSolutionError(f"block {q}: only the zero weight solves the system")
        if len(kernel) > 1:
            raise AmbiguousWeightsError(
                f"block {q}: weight solution space has dimension {len(kernel)}")
        gen = kernel[0]
        if all(x <= 0 for x in gen):
            gen = tuple(-x for x in gen)
        if any(x <= 0 for x in gen):
            raise NoPositiveSolutionError(
                f"block {q}: no strictly positive weight vector exists")
        full = [0] * spec.n
        for c, g in zip(cols, gen):
            full[c] = g
        vectors.append(tuple(full))
    return WeightSystem(tuple(vectors))


def weight_hint(spec: CISpec, inverse: Matrix
                ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(C, M), den times the matrices with ker spec.diff = C·ker M, for L^-1 = inverse
    (C injective).

    C[i][nu] = L^-1[x_i, a(nu)] and M[j][nu] = delta_{j nu} - L^-1[y_{2j-1}, a(nu)],
    a(nu) block nu's constant row.  Column a(nu) of L^-1 solves L u = e_{a(nu)},
    whose rows of block j give spec.diff C = M (row j once per monomial of
    block j) and ind_j . C = -e_j.  Conversely a w in ker spec.diff, with
    t_j = ind_j . w, is the x-part of a u with L u = -sum_j t_j e_{a(j)}.
    """
    n, k, den = spec.n, spec.k, inverse.den
    cols = [spec.a(nu) - 1 for nu in range(1, k + 1)]
    c = tuple(tuple(inverse.num[i][a] for a in cols) for i in range(n))
    m = tuple(tuple(den * (j == nu) - inverse.num[n + 2 * j][a] for nu, a in enumerate(cols))
              for j in range(k))
    return c, m


def rays_by_class(rows: Sequence[Sequence[int]]
                  ) -> list[tuple[list[int], tuple[int, ...]]] | None:
    """Positions grouped by proportional rows, in order of first appearance (members
    ascending), each with its ray: the entries at its positions of the column where
    its first row is first nonzero, made primitive with the first one positive;
    None when some row is zero.  For the rows of a basis of a kernel, one per
    coordinate, they are the kernel's, whichever basis is given."""
    classes: list[tuple[int, list[int]]] = []  # (t, members)
    for i, row in enumerate(rows):
        if not any(row):
            return None
        for t, cls in classes:
            first = rows[cls[0]]
            a, b = row[t], first[t]
            if a and all(a * x == b * y for x, y in zip(first, row)):
                cls.append(i)
                break
        else:
            classes.append((next(t for t, x in enumerate(row) if x), [i]))
    result = []
    for t, cls in classes:
        vals = [rows[i][t] for i in cls]
        g = math.gcd(*vals) * (1 if vals[0] > 0 else -1)
        result.append((cls, tuple(v // g for v in vals)))
    return result


def read_weights(spec: CISpec, inverse: Matrix) -> WeightSystem | None:
    """The weights `derive_weights` solves for, read off L^-1 = inverse; None when
    there are none.

    ker spec.diff = C·ker M (`weight_hint`) has dimension k - rank M, so the
    weights need M = 0, and C's k columns then span the kernel.  They are the
    classes of C's rows (`rays_by_class`) when these are the block ranges
    with positive rays: each block's kernel is then the line of its ray.
    Otherwise `derive_weights` raises, as its k rays would span the kernel.
    """
    k, n = spec.k, spec.n
    c, m = weight_hint(spec, inverse)
    classes = None if any(map(any, m)) else rays_by_class(c)
    ranges = [list(range(spec.b(q - 1), spec.b(q))) for q in range(1, k + 1)]
    if (classes is None or [cls for cls, _ in classes] != ranges
            or any(v <= 0 for _, ray in classes for v in ray)):
        return None
    return WeightSystem(tuple((0,) * cls[0] + ray + (0,) * (n - 1 - cls[-1])
                              for cls, ray in classes))


def supplied_weights(spec: CISpec) -> WeightSystem | None:
    """The spec's own weight annotation as a WeightSystem, if shape-valid."""
    if spec.weights is None:
        return None
    if len(spec.weights) != spec.k:
        raise SpecInvalidError("weights: expected one vector per block")
    for q, vec in enumerate(spec.weights, start=1):
        if len(vec) != spec.n:
            raise SpecInvalidError(f"weights[{q}]: expected length {spec.n}")
        rng = set(spec.block_range(q))
        for i, g in enumerate(vec, start=1):
            if i in rng and g <= 0:
                raise SpecInvalidError(f"weights[{q}]: position {i} must be positive")
            if i not in rng and g != 0:
                raise SpecInvalidError(f"weights[{q}]: position {i} must be zero")
    return WeightSystem(spec.weights)


def _proportional_int(u: Sequence[int], v: Sequence[int]) -> bool:
    return primitive_integer_vector(u) == primitive_integer_vector(v)


def charges(spec: CISpec, w: WeightSystem) -> ChargeMatrix:
    """entries[j][q] = <first monomial of block j, weight vector q>."""
    entries = []
    for blk in spec.blocks:
        v = blk.exponents[0]
        entries.append(tuple(sum(a * g for a, g in zip(v, vec)) for vec in w.vectors))
    return ChargeMatrix(tuple(entries))


# ---------------------------------------------------------------------------
# Cayley matrix
# ---------------------------------------------------------------------------


def build_cayley(spec: CISpec) -> CayleyMatrix:
    """Assemble the (n+3k) x (n+3k) exponent matrix of the Cayley polynomial.

    Per block nu the rows are, in order: the tau_nu monomials (each with a
    unit in the y_{2nu-1} column), the s-term row (y_{2nu-1} and s_nu), the
    product row (index-set indicator plus y_{2nu}), and the constant row
    (y_{2nu} alone).
    """
    _check_structure(spec)
    n, k = spec.n, spec.k
    size = spec.total_rows
    rows: list[list[int]] = []
    labels: list[tuple[int, str, int]] = []

    def unit(pos: int) -> list[int]:
        row = [0] * size
        row[pos] = 1
        return row

    for nu, blk in enumerate(spec.blocks, start=1):
        y_odd = n + 2 * nu - 2      # 0-based column of y_{2nu-1}
        y_even = n + 2 * nu - 1     # y_{2nu}
        s_col = n + 2 * k + nu - 1  # s_nu
        for r, v in enumerate(blk.exponents, start=1):
            row = list(v) + [0] * (3 * k)
            row[y_odd] = 1
            rows.append(row)
            labels.append((nu, ROW_MONOMIAL, r))
        srow = unit(y_odd)
        srow[s_col] = 1
        rows.append(srow)
        labels.append((nu, ROW_S, 0))
        prow = list(blk.indicator(n)) + [0] * (3 * k)
        prow[y_even] = 1
        rows.append(prow)
        labels.append((nu, ROW_PRODUCT, 0))
        rows.append(unit(y_even))
        labels.append((nu, ROW_CONSTANT, 0))

    col_labels = tuple([f"x{i}" for i in range(1, n + 1)]
                       + [f"y{i}" for i in range(1, 2 * k + 1)]
                       + [f"s{i}" for i in range(1, k + 1)])
    return CayleyMatrix(
        matrix=Matrix.from_rows(rows),
        row_labels=tuple(labels),
        col_labels=col_labels,
        a_indices=tuple(spec.a(nu) for nu in range(1, k + 1)),
        i_lambda=spec.i_lambda(),
        spec=spec,
    )


def _check_structure(spec: CISpec) -> None:
    problems = _structure_problems(spec)
    if problems:
        raise SpecInvalidError("; ".join(message for _, message in problems))


def _structure_problems(spec: CISpec) -> list[tuple[str, str]]:
    """(failed check, message) for each structural defect, in message order."""
    problems = []
    if spec.k != len(spec.blocks):
        problems.append(("tau_sum", f"k={spec.k} but {len(spec.blocks)} blocks given"))
    if sum(spec.taus) != spec.n:
        problems.append(("tau_sum", f"sum of block sizes {sum(spec.taus)} != n={spec.n}"))
    seen: dict[int, int] = {}   # index -> the first block that lists it
    for q, blk in enumerate(spec.blocks, start=1):
        if not blk.index_set:
            problems.append(("partition", f"block {q}: empty index set"))
        for i in blk.index_set:
            if not 1 <= i <= spec.n:
                problems.append(("partition", f"block {q}: index {i} out of range"))
            if i in seen:
                problems.append(("partition", f"block {q}: index {i} repeated" if seen[i] == q
                                 else f"index {i} appears in two index sets"))
            seen.setdefault(i, q)
        for v in blk.exponents:
            if len(v) != spec.n:
                problems.append(("exponent_shape",
                                 f"block {q}: exponent vector of length {len(v)}"))
            elif any(e < 0 for e in v):
                problems.append(("exponent_shape", f"block {q}: negative exponent"))
    # with every index in range and none repeated, covering means counting n
    if not problems and len(seen) != spec.n:
        problems.append(("partition", "index sets do not cover {1..n}"))
    return problems


def validate(spec: CISpec, pair=None) -> ValidationReport:
    """Run every structural and arithmetic check; failures land in the report.

    The derived weights, the charges and the Cayley inverse are read from
    `pair`, the run's `pipeline.MirrorPair` of spec (a fresh one if none
    is given), so a run that goes on to use them builds each once.
    """
    if pair is None:
        from .pipeline import MirrorPair
        pair = MirrorPair(spec)
    checks: dict[str, bool] = {}
    notes: list[str] = []

    problems = _structure_problems(spec)
    failed = {check for check, _ in problems}
    for check in ("partition", "tau_sum", "exponent_shape"):
        checks[check] = check not in failed
    notes.extend(message for _, message in problems)

    derived: WeightSystem | None = None
    if checks["partition"] and checks["tau_sum"] and checks["exponent_shape"]:
        try:
            derived = pair.weights
            checks["weights_solvable"] = True
        except (NoPositiveSolutionError, AmbiguousWeightsError) as exc:
            checks["weights_solvable"] = False
            notes.append(str(exc))
    else:
        checks["weights_solvable"] = False

    supplied = None
    try:
        supplied = supplied_weights(spec)
    except SpecInvalidError as exc:
        notes.append(str(exc))
        checks["weights_supplied_consistent"] = False
    if supplied is not None and derived is not None:
        consistent = all(
            _proportional_int(s, d) for s, d in zip(supplied.vectors, derived.vectors))
        checks["weights_supplied_consistent"] = consistent
        if not consistent:
            notes.append("supplied weights are not proportional to the derived ones")
    elif "weights_supplied_consistent" not in checks:
        checks["weights_supplied_consistent"] = True

    effective = supplied if supplied is not None else derived
    if effective is not None:
        qm = pair.charges
        notes.extend(f"anticanonical balance fails for block {q}: {lhs} != {rhs}"
                     for q, lhs, rhs in pair.unbalanced)
        checks["calabi_yau"] = not pair.unbalanced
    else:
        checks["calabi_yau"] = False
        qm = None

    if checks["partition"] and checks["tau_sum"] and checks["exponent_shape"]:
        try:
            pair.inverse
            checks["cayley_nonsingular"] = True
        except SingularMatrixError:
            checks["cayley_nonsingular"] = False
            notes.append("Cayley matrix is singular")
    else:
        checks["cayley_nonsingular"] = False

    return ValidationReport(checks=checks, notes=tuple(notes),
                            weights=effective, charges=qm)
