"""Lattice polytopes of the blocks and the dual nef-partition solve.

Shifting each block's monomials by its product indicator puts the block
polytopes into the common weight-kernel sublattice; their Minkowski sum
should fill it.  The dual vertices P solve A * P = T (Batyrev-Borisov
1996): the pairings of the original difference vectors (the rows of A)
with the dual vertices reproduce the transposed difference matrix
(``TransposeResult.diff``, T its transpose).  P is pinned modulo the
weight lines by a coordinate section, every position but the last of each
weight support (``_last_support``).

No elimination is needed.  T is A with its columns permuted by lambda, so
column c of P is e_j, j = lambda(c) - 1, moved into the section along a
weight line (``_closed_form_duals``).  Its certificate, that identity and
the weights in ker A, holds on every spec's own transposition and proves
the rank n - k that makes P the one solution in the section
(``solve_dual_partition``).  A failed clause is a construction bug, a
`transposition.InternalInvariantError` naming it; the stage has no other
failure.

Once A * P == T holds, every pairing of a difference row with a dual
vertex is an entry of T, so the pairing conditions are lookups in T
(``pairing_flags``).  Block q's polytope is the origin and block q's
difference rows, so its support function at dual vertex c is
-min(0, min over block-q rows i of T[i, c]); the cone pairings are
T[i, c] + delta and delta.

The per-vertex equality clauses printed alongside the matrix equation are
internally inconsistent, so they are validated and reported rather than
imposed; the matrix equation is the primary solve path.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .ci_model import CayleyMatrix, CISpec, WeightSystem
from .rational_linalg import Matrix
from .record import record
from .transposition import InternalInvariantError


@record
class LatticePolytope:
    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]      # origin first, then distinct shifts
    kernel_basis: tuple[tuple[int, ...], ...]  # basis of the weight-kernel sublattice

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim,
                "vertices": [list(v) for v in self.vertices],
                "kernel_basis": [list(v) for v in self.kernel_basis]}


def _kernel_basis(weights: WeightSystem) -> tuple[tuple[int, ...], ...]:
    """The basis `integer_kernel` gives of the weights' kernel, in closed form.

    The weight vectors are positive on disjoint supports that cover every
    position, so elimination pivots on the first position p of each support;
    the basis vector of each other position i, in ascending i, is
    (w_p e_i - w_i e_p) / gcd(w_p, w_i).
    """
    pivot = {}   # non-pivot position -> (the first position of its support, its weight vector)
    for vec in weights.vectors:
        support = [i for i, g in enumerate(vec) if g]
        pivot.update((i, (support[0], vec)) for i in support[1:])
    basis = []
    for i, (p, vec) in sorted(pivot.items()):
        g = math.gcd(vec[p], vec[i])
        v = [0] * len(vec)
        v[i], v[p] = vec[p] // g, -(vec[i] // g)
        basis.append(tuple(v))
    return tuple(basis)


def build_deltas(spec: CISpec, weights: WeightSystem) -> tuple[LatticePolytope, ...]:
    """One polytope per block: the origin plus the block's distinct rows of A,
    the shifted monomials."""
    basis = _kernel_basis(weights)
    a_rows = spec.diff.num
    out = []
    for q in range(len(spec.blocks)):
        pts: list[tuple[int, ...]] = [(0,) * spec.n]
        for row in a_rows[spec.b(q):spec.b(q + 1)]:
            if row not in pts:
                pts.append(row)
        out.append(LatticePolytope(spec.n, tuple(pts), basis))
    return tuple(out)


def pairing_flags(t_rows, taus: Sequence[int], dual_idx: Sequence[Sequence[int]]
                  ) -> tuple[dict[str, bool], dict[tuple[int, int, int], int]]:
    """The pairing conditions of the dual vertices, read off the target matrix T.

    t_rows[i][c] is the pairing of difference row i with dual vertex c; the
    rows come in blocks of sizes taus, and dual_idx[l - 1] lists, in order,
    the columns holding block l's dual vertices.  Returns the flags and the
    j indices, keyed (block l, vertex r, other block q).
    """
    starts = [sum(taus[:q]) for q in range(len(taus))]
    cols = list(zip(*t_rows))
    phi_kronecker = cone = True
    five_six_1 = True   # within-block pairings -1 with at most one exception
    five_six_2 = True   # the exceptional own-block pairing also -1 (printed clause)
    five_six_34 = True  # cross-block: zeros except at most one nonnegative j_q
    j_indices: dict[tuple[int, int, int], int] = {}
    for l, idx in enumerate(dual_idx, start=1):
        for r, c in enumerate(idx, start=1):
            for q, (start, tau) in enumerate(zip(starts, taus), start=1):
                vals = cols[c][start:start + tau]
                low = min(0, *vals)
                # phi_q at the vertex is -low; the cone pairings are vals + delta_ql
                phi_kronecker &= -low == (q == l)
                cone &= low + (q == l) >= 0
                if q == l:
                    exceptional = [j for j, v in enumerate(vals, start=1) if v != -1]
                    five_six_1 &= len(exceptional) <= 1
                    five_six_2 &= not exceptional
                    if exceptional:
                        j_indices[(l, r, q)] = exceptional[0]
                else:
                    nonzero = [j for j, v in enumerate(vals, start=1) if v]
                    five_six_34 &= len(nonzero) <= 1 and all(vals[j - 1] > 0 for j in nonzero)
                    if len(nonzero) == 1:
                        j_indices[(l, r, q)] = nonzero[0]
    flags = {"phi_kronecker": phi_kronecker, "cone_pairings_nonnegative": cone,
             "five_six_1_off_vertex": five_six_1, "five_six_2_own_vertex": five_six_2,
             "five_six_34_cross_block": five_six_34}
    return flags, j_indices


def _with_block_axes(groups, n: int, zero, one) -> tuple[tuple, ...]:
    """Per block l, (0, e_l) and then (m, e_l) for each vertex m of groups[l - 1]."""
    k = len(groups)
    out = []
    for l, grp in enumerate(groups):
        eps = tuple(one if i == l else zero for i in range(k))
        out.append((zero,) * n + eps)
        out.extend(tuple(m) + eps for m in grp)
    return tuple(out)


@record
class NefPartitionData:
    deltas: tuple[LatticePolytope, ...]
    dual_idx: tuple[tuple[int, ...], ...]  # per block, the columns of P holding its dual vertices
    p_matrix: Matrix
    pairings: Matrix                       # <diff_i, dual_c>
    sigma_generators: tuple[tuple[int, ...], ...]
    j_indices: dict[tuple[int, int, int], int]   # (block l, vertex r, other block q) -> j_q
    flags: dict[str, bool]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        # the dual vertices and their generators are the columns of P's strings
        p_json = self.p_matrix.to_json()
        cols = list(zip(*p_json))
        groups = [[cols[c] for c in idx] for idx in self.dual_idx]
        return {
            "deltas": [d.to_json() for d in self.deltas],
            "duals": [[list(m) for m in grp] for grp in groups],
            "P": p_json,
            "pairings": self.pairings.to_json(),
            "sigma_generators": [list(v) for v in self.sigma_generators],
            "sigma_dual_generators": [list(v) for v in _with_block_axes(
                groups, self.p_matrix.rows, "0", "1")],
            "j_indices": {f"{l},{r},{q}": j for (l, r, q), j in self.j_indices.items()},
            "flags": dict(self.flags),
            "notes": list(self.notes),
        }


def _last_support(weights: WeightSystem) -> dict[int, tuple[int, ...]]:
    """Each weight vector, keyed by the last position of its support."""
    return {max(i for i, g in enumerate(w) if g): w for w in weights.vectors}


def _closed_form_duals(a_rows, tr: TransposeResult, weights: WeightSystem) -> Matrix:
    """P in the coordinate section, read off lambda and the weights
    (`solve_dual_partition`), once its certificate holds: row c of tr.diff is
    column lambda(c) of A, and every weight vector lies in ker A.  That
    identity makes rank A = rank tr.diff = n - k, so A_section has full
    column rank and P is the one solution of A * P = T in the section.  A
    failed clause raises InternalInvariantError naming it.
    """
    lam = tr.lam.images
    a_cols = list(zip(*a_rows))
    if len(lam) != len(a_cols) or tr.diff.num != tuple(a_cols[i - 1] for i in lam):
        raise InternalInvariantError("nef certificate: row c of tr.diff is not column "
                                     "lambda(c) of A")
    if any(sum(map(mul, row, w)) for w in weights.vectors for row in a_rows):
        raise InternalInvariantError("nef certificate: a weight vector is not in ker A")
    last = _last_support(weights)
    scale = math.lcm(*(w[j] // math.gcd(*w) for j, w in last.items()))
    cols = []
    for j in (i - 1 for i in lam):
        w = last.get(j)
        if w is None:
            col = [0] * len(lam)
            col[j] = scale
        else:
            col = [0 if i == j else -(scale * g // w[j]) for i, g in enumerate(w)]
        cols.append(col)
    return Matrix(tuple(zip(*cols)), scale)


def solve_dual_partition(spec: CISpec, tr: TransposeResult, weights: WeightSystem,
                         tweights: WeightSystem) -> NefPartitionData:
    """Solve for the dual vertices and verify the nef-partition conditions.

    The pairing of row i of the difference matrix A with dual vertex c is
    prescribed by the transposed difference matrix: T[i][c] is entry (c, i)
    of tr.diff, whose columns are the original variables.  Solutions are
    taken in the fixed coordinate section, every position but the last of
    each weight support (`_last_support`); integrality is reported,
    not required.  weights and tweights are the derived weights of spec and
    of tr.tspec.

    T is A with its columns permuted by lambda: T[i][c] = A[i][lambda(c) - 1].
    New monomial c is column lambda(c) of L on the monomial rows, so its
    entry at row i is the exponent E[i][lambda(c) - 1]; its block's indicator
    is 1 exactly on the monomial rows of its source block, and lambda(c) lies
    in that block's index set.  The index sets partition the variables, so
    both indicator terms are [block of row i = source block of c], and they
    cancel.  With every weight vector in ker A, the dual vertices then have
    a closed form (`_closed_form_duals`): column c of P is e_j, j = lambda(c) - 1,
    unless j is the last support position of some w_q, where it is
    e_j - w_q / w_q[j], zero at j and -w_q[i] / w_q[j] elsewhere on the
    support; scale is the least common denominator.

    That form needs A_section of full column rank, so the Minkowski dimension
    (the rank of A, module docstring) must be n - k, and the certificate
    proves it: the rows of tr.diff are the columns of A, so rank A is the
    rank of tr.diff, which is n - k because `build_transpose` returns only a
    transposition whose weight kernel has dimension k (`_weight_classes`
    checks it on an exact basis: read off L^-1, handed to a mirror as the
    spec's kernel basis moved by lambda, or eliminated).  So the flag
    `minkowski_dim` is True.  On the spec's own transposition and derived
    weights both clauses of the certificate hold: the first is the identity
    above, and each derived weight vector pairs every difference row to 0
    (`ci_model.derive_weights`), so it lies in ker A.  Only another spec's
    data fails one, and `_closed_form_duals` raises InternalInvariantError
    naming it.
    """
    n, k = spec.n, spec.k
    notes: list[str] = []
    flags: dict[str, bool] = {}

    deltas = build_deltas(spec, weights)
    a_rows = spec.diff.num
    pairings = tr.diff.transpose()   # entry (i, c): new monomial c at original variable i

    # once A * P == T holds, every pairing below is an entry of T, and
    # rank A = rank tr.diff = n - k
    p_matrix = _closed_form_duals(a_rows, tr, weights)
    flags["minkowski_dim"] = True
    flags["integral_P_section"] = p_matrix.den == 1
    # each column is e_j or e_j - w_q / w_q[j]; adding w_q / w_q[j] makes it e_j
    flags["integral_P_exists"] = True
    if not flags["integral_P_section"]:
        notes.append("dual vertices are not integral in the chosen section"
                     "; integral representatives exist modulo the weight lines")

    # dual vertices of block l are the columns of the transposed block sourced
    # from l: that block's monomials are the transposed polynomials realizing
    # the dual polytope, so the grouping follows the block bijection
    dual_idx = []   # per block l, the columns of P holding its dual vertices
    for l in range(1, k + 1):
        pos_l = tr.block_sources.index(l) + 1
        base = tr.tspec.b(pos_l - 1)
        dual_idx.append(tuple(base + r for r in range(tr.tspec.taus[pos_l - 1])))

    pair_flags, j_indices = pairing_flags(pairings.num, spec.taus, dual_idx)
    flags.update(pair_flags)

    blocks = [a_rows[spec.b(q):spec.b(q) + tau] for q, tau in enumerate(spec.taus)]
    sigma = _with_block_axes(blocks, n, 0, 1)

    diag = weights.diagonal
    flags["lemma52_G_identity"] = all(g == 1 for g in diag)
    flags["lemma52_TG_identity"] = all(g == 1 for g in tweights.diagonal)
    flags["lemma52_lambda_identity"] = tr.lam.is_identity()

    return NefPartitionData(
        deltas=deltas, dual_idx=tuple(dual_idx), p_matrix=p_matrix, pairings=pairings,
        sigma_generators=sigma,
        j_indices=j_indices, flags=flags, notes=tuple(notes),
    )


@record
class MagicSquareReport:
    found: bool
    assignments: dict[int, int]                       # variable block q -> constant row block
    witnesses: dict[int, tuple[tuple[int, int], ...]]  # q -> ((row b, variable), ...)

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "assignments": {str(q): b for q, b in self.assignments.items()},
            "witnesses": {str(q): [list(p) for p in w] for q, w in self.witnesses.items()},
        }


def magic_square_check(cm: CayleyMatrix, forms: Forms) -> MagicSquareReport:
    """Match the z-coefficients over monomial rows against a constant-row column.

    For each deformation variable q, look for a constant row whose variable
    coefficients form the same multiset as the z_q coefficients of the
    monomial-row forms; a witness bijection is produced by sorted matching.
    The natural pairing q -> q is tried first, and the assignment across
    all q must be one-to-one.  Both sides are entries of L^-1 over Delta: S
    row q at the monomial rows, and the x-rows at the constant row's column.
    """
    spec = cm.spec
    k, n = spec.k, spec.n
    i_lam = cm.i_lambda
    x_rows = forms.inverse.num[:n]

    def witness(q, qq):
        s_row, a = forms.s_rows[q - 1], spec.a(qq) - 1
        pvals = sorted((s_row[b - 1], b) for b in i_lam)
        wvals = sorted((row[a], i) for i, row in enumerate(x_rows, start=1))
        if [v for v, _ in pvals] != [v for v, _ in wvals]:
            return None
        return tuple((b, i) for (_, b), (_, i) in zip(pvals, wvals))

    assignments: dict[int, int] = {}
    witnesses: dict[int, tuple[tuple[int, int], ...]] = {}
    used: set[int] = set()
    for q in range(1, k + 1):
        found = None
        for qq in [q] + [x for x in range(1, k + 1) if x != q]:
            if qq in used:
                continue
            w = witness(q, qq)
            if w is not None:
                found = (qq, w)
                break
        if found is None:
            return MagicSquareReport(False, assignments, witnesses)
        used.add(found[0])
        assignments[q] = found[0]
        witnesses[q] = found[1]
    return MagicSquareReport(True, assignments, witnesses)
