"""Transposed mirror candidate construction.

Transposing the Cayley matrix and re-reading its rows as monomials yields
a new complete intersection of the same combinatorial shape.  The row and
column bookkeeping is fixed by the matrix structure itself:

  * each x-column of L becomes a monomial of the transposed system, and the
    columns sharing an index set form one new block;
  * each old product row becomes a y-variable carried by those monomials,
    the old s-term and constant rows become the remaining y and s variables;
  * the new index set of a block is the set of old monomial rows of the
    block it came from.

What the matrix does not fix is the order of the new blocks and variables.
We order blocks so the new size sequence equals the original one (forced by
the size-multiset condition and required for the double transposition to
return home), and group variables by the disjoint-support decomposition of
the weight kernel, which is exactly the grouping that admits positive
block-supported weights.  Within a group, old rows stay in ascending
order.  Both paper examples reproduce verbatim under these rules.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .ci_model import Block, CayleyMatrix, CISpec, rays_by_class, SpecError, WeightSystem
from .rational_linalg import integer_kernel, Matrix, PermutationMap
from .record import record, replace


class TranspositionError(SpecError):
    pass


class NoValidShapeError(TranspositionError):
    """No row/column permutation of the transpose has the required block shape."""


class NoInvolutiveNuError(TranspositionError):
    """Every shape-valid block matching fails the involution requirement."""


class InternalInvariantError(TranspositionError):
    """A construction identity that must hold was violated (implementation bug)."""


# find_rho's answer: (rho, pi block pairing)
RhoFound = tuple[PermutationMap, tuple[int, ...]]


@record
class TransposeResult:
    tspec: CISpec
    nu: PermutationMap             # nu(j) = position of old block j in the new order
    nu_star: Matrix                # k x k permutation matrix, column j = e_{nu(j)}
    lam: PermutationMap            # lam(r) = old column feeding new monomial r
    row_to_var: tuple[tuple[int, int], ...]  # (old matrix row, new variable position)
    block_sources: tuple[int, ...]  # position q -> old block index
    diff: Matrix                   # new difference rows over the old monomial rows, ascending
    rho: PermutationMap | None
    t_rho: PermutationMap | None
    condition_flags: dict[str, bool]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "tspec": self.tspec.to_json(),
            "nu": self.nu.to_json(),
            "nu_star": self.nu_star.to_json(),
            "lambda": self.lam.to_json(),
            "row_to_var": [list(p) for p in self.row_to_var],
            "block_sources": list(self.block_sources),
            "rho": self.rho.to_json() if self.rho else None,
            "t_rho": self.t_rho.to_json() if self.t_rho else None,
            "condition_flags": dict(self.condition_flags),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _choose_nu(taus: tuple[int, ...], tilde_taus: tuple[int, ...]) -> PermutationMap:
    """Smallest involution nu with tau_{nu(j)} = tilde_tau_j for every j.

    Each unset j takes its smallest compatible unset partner m >= j: a compatible
    pair keeps the (tau, tilde_tau) type counts balanced, so greedy never dead-ends.
    """
    k = len(taus)
    images = [0] * k
    for j in range(k):
        if images[j]:
            continue
        m = next((m for m in range(j, k) if not images[m] and taus[m] == tilde_taus[j]
                  and taus[j] == tilde_taus[m]), None)
        if m is None:
            raise NoInvolutiveNuError("no involutive block matching exists")
        images[j], images[m] = m + 1, j + 1
    return PermutationMap(tuple(images))


def _weight_classes(diff: Matrix | None, k: int, basis: Sequence[Sequence[int]] | None = None
                    ) -> list[tuple[list[int], tuple[int, ...]]]:
    """Partition columns of `diff` into k groups each carrying a positive kernel vector.

    Returns (0-based positions, primitive positive weights) per group, or raises
    NoValidShapeError when the kernel does not decompose that way.  basis holds
    the rows of a basis of ker diff, one per column; diff is eliminated only
    when none is given, and is not read (it may be None) when one is.  Each
    check reads the kernel, whichever basis: its dimension, its zero
    coordinates, its classes and their rays' signs.
    """
    if basis is None:
        kernel = integer_kernel(diff)
        basis = [tuple(vec[i] for vec in kernel) for i in range(diff.cols)]
    if len(basis[0]) != k:
        raise NoValidShapeError(
            f"weight kernel has dimension {len(basis[0])}, expected {k}")
    classes = rays_by_class(basis)
    if classes is None:
        i = next(i for i, row in enumerate(basis) if not any(row))
        raise NoValidShapeError(f"variable {i + 1} carries no weight")
    if len(classes) != k:
        raise NoValidShapeError(
            f"weight kernel splits into {len(classes)} support groups, expected {k}")
    if any(v <= 0 for _, vals in classes for v in vals):
        raise NoValidShapeError("no positive weight vector on a support group")
    return classes


def inverse_hint(cm: CayleyMatrix, inverse: Matrix
                 ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(H, M'), den times the matrices with ker tr.diff = H·ker M', for L^-1 = inverse
    and tr.diff the difference matrix of `build_transpose(cm)`.

    H[p][nu] = L^-1[s_nu, cm.i_lambda[p]] (the p-th monomial row) and M'[J][nu] =
    delta_{J nu} - L^-1[s_nu, a(J) - 1] (block J's product row).  A z in
    ker tr.diff with block sums S over the monomial rows extends to a row
    vector u with u L = -sum_nu S_nu e_{s_nu}, so z = H(-S); conversely
    tr.diff H = M' (row J once per index of block J), and H c has block sums -c.
    So H is a basis of ker tr.diff exactly when M' = 0.
    """
    n, k, den = cm.spec.n, cm.spec.k, inverse.den
    s_rows = inverse.num[n + 2 * k:n + 3 * k]
    h = tuple(tuple(row[r - 1] for row in s_rows) for r in cm.i_lambda)
    m = tuple(tuple(den * (j == nu) - row[a - 2] for nu, row in enumerate(s_rows))
              for j, a in enumerate(cm.a_indices))
    return h, m


def _transposed_rows(cm: CayleyMatrix, block_sources: tuple[int, ...]) -> tuple[list, Matrix]:
    """Per block position, (monomial columns, their raw exponents, raw index set),
    and the transposed difference matrix of those exponents minus the index sets.

    A raw position is the index of an old monomial row in cm.i_lambda, ascending;
    a raw exponent is an x-column of L restricted to those rows.
    """
    L, raw_vars = cm.matrix.num, cm.i_lambda
    raw_index = {row: i for i, row in enumerate(raw_vars)}
    blocks, diff_rows = [], []
    for src in block_sources:
        cols = cm.spec.blocks[src - 1].index_set
        exps = [tuple(L[row - 1][c - 1] for row in raw_vars) for c in cols]
        # the new index set: the source block's monomial rows
        iset = [raw_index[row] for row in cm.spec.monomial_rows(src)]
        members = set(iset)
        ind = [int(i in members) for i in range(len(raw_vars))]
        diff_rows.extend(tuple(a - b for a, b in zip(v, ind)) for v in exps)
        blocks.append((cols, exps, iset))
    return blocks, Matrix(tuple(diff_rows))


def build_transpose(cm: CayleyMatrix, basis: Callable[[], Sequence | None] | None = None
                    ) -> TransposeResult:
    """The transposed specification and its permutation bookkeeping, unchecked.

    Only the shape flags are set; `complete_transpose` adds the identities
    that need the transposed side's Cayley matrix and weights.  The weight
    classes are read by `_weight_classes` off basis(), the rows of a basis of
    the weight kernel (`inverse_hint`'s H, or a mirror's handed basis), called
    once the size multisets and nu have matched.  Given a basis, the classes
    are read first and the transposed blocks and difference matrix
    (`_transposed_rows`) are built only once they succeed; without one, the
    difference matrix is built first and eliminated.
    """
    spec = cm.spec
    n, k = spec.n, spec.k
    taus = spec.taus
    tilde_taus = tuple(len(b.index_set) for b in spec.blocks)
    flags: dict[str, bool] = {}

    flags["size_multisets_1_11"] = sorted(taus) == sorted(tilde_taus)
    if not flags["size_multisets_1_11"]:
        raise NoValidShapeError(
            f"monomial counts {taus} and index-set sizes {tilde_taus} differ as multisets")

    nu = _choose_nu(taus, tilde_taus)
    block_sources = tuple(sorted(range(1, k + 1), key=nu))  # position q -> old block

    given = None if basis is None else basis()
    if given is None:
        new_blocks_raw, diff = _transposed_rows(cm, block_sources)
        classes = _weight_classes(diff, k, given)
    else:  # a spec whose read fails builds no rows
        classes = _weight_classes(None, k, given)
        new_blocks_raw, diff = _transposed_rows(cm, block_sources)

    # assign one class to each block position, matching sizes; ties broken by
    # the smallest raw position in the class
    unassigned = sorted(range(k), key=lambda c: classes[c][0][0])
    assigned: list[int] = []
    for q in range(1, k + 1):
        want = taus[q - 1]
        pick = next((c for c in unassigned if len(classes[c][0]) == want), None)
        if pick is None:
            raise NoValidShapeError(
                f"no variable group of size {want} left for block position {q}")
        assigned.append(pick)
        unassigned.remove(pick)

    var_map = [0] * n  # raw position -> new 1-based position
    weights = []
    pos = 1
    for c in assigned:
        members, vals = classes[c]  # members ascend by construction
        full = [0] * n
        for raw_pos, val in zip(members, vals):
            var_map[raw_pos] = pos
            full[pos - 1] = val
            pos += 1
        weights.append(tuple(full))

    def relabel(vec) -> tuple[int, ...]:
        out = [0] * n
        for raw_pos, val in enumerate(vec):
            out[var_map[raw_pos] - 1] = val
        return tuple(out)

    tblocks = []
    lam: list[int] = []
    for cols, exps, iset in new_blocks_raw:
        tblocks.append(Block(
            exponents=tuple(relabel(v) for v in exps),
            index_set=tuple(sorted(var_map[i] for i in iset)),
        ))
        lam.extend(cols)
    tspec = CISpec(n=n, k=k, blocks=tuple(tblocks), weights=tuple(weights))

    row_to_var = tuple((row, var_map[i]) for i, row in enumerate(cm.i_lambda))
    return TransposeResult(
        tspec=tspec, nu=nu, nu_star=nu.matrix(), lam=PermutationMap(tuple(lam)),
        row_to_var=row_to_var, block_sources=block_sources, diff=diff,
        rho=None, t_rho=None, condition_flags=flags, notes=(),
    )


def complete_transpose(cm: CayleyMatrix, tr: TransposeResult, tcm: CayleyMatrix,
                       found: RhoFound | None, t_found: RhoFound | None) -> TransposeResult:
    """Check the construction identities of `build_transpose` and attach rho / t_rho.

    tcm is the Cayley matrix of tr.tspec; found and t_found are `find_rho` of
    the spec and of tr.tspec, each with its derived weights.
    """
    spec = cm.spec
    _verify_permuted_transpose(cm, tcm, tr.row_to_var, tr.block_sources)
    flags = dict(tr.condition_flags)
    # _choose_nu pairs the images two at a time or raises NoInvolutiveNuError
    flags["involution_nu"] = True
    # the entrywise check raises unless the new matrix is the row/column permuted
    # transpose, which implies both identities: its monomial rows are the old
    # monomial columns, selected by lambda
    flags["row_multiset_identity"] = True
    flags["lambda_matrix_identity"] = True
    flags["lambda_v_identity"] = _lambda_v_identity(spec, tr.lam.images, tr.row_to_var)
    notes = list(tr.notes)
    rho = t_rho = None
    if found is None:
        flags["rho_symmetric_3_11"] = False
        flags["t_rho_symmetric_3_11T"] = False
        notes.append("no permutation maps index sets onto weight supports")
    else:
        rho, pi = found
        t_rho = t_found[0] if t_found else None
        # find_rho pairs only equal weights, so each rho it returns is symmetric
        flags["rho_symmetric_3_11"] = True
        flags["t_rho_symmetric_3_11T"] = t_found is not None
        if pi != tuple(range(1, spec.k + 1)):
            notes.append("rho pairs index sets with permuted block ranges")
    return replace(tr, rho=rho, t_rho=t_rho, condition_flags=flags, notes=tuple(notes))


def _verify_permuted_transpose(cm: CayleyMatrix, tcm: CayleyMatrix,
                               row_to_var: tuple[tuple[int, int], ...],
                               block_sources: tuple[int, ...]) -> None:
    """Entrywise check: the new Cayley matrix is a row/column permuted transpose."""
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
                raise InternalInvariantError(
                    f"transpose mismatch at new entry ({r + 1},{c + 1})")


def _lambda_v_identity(spec, lam, row_to_var) -> bool:
    """Whether lambda . V = TV, n x k 0/1 matrices: row r of lambda . V is new monomial
    r + 1, 1 at column j when lam[r] lies in block j's index set; row r of TV is new
    variable r + 1, 1 at column j when it comes from a monomial row of block j.
    nu is never read; `test_transpose_and_duality_flag_census` pins where it is false."""
    k = spec.k
    n = spec.n
    membership = {}
    for j, blk in enumerate(spec.blocks, start=1):
        for i in blk.index_set:
            membership[i] = j
    lam_v = [[1 if membership[lam[r]] == j + 1 else 0 for j in range(k)]
             for r in range(n)]
    var_map = dict(row_to_var)
    tv = [[0] * k for _ in range(n)]
    for j in range(1, k + 1):
        for row in spec.monomial_rows(j):
            tv[var_map[row] - 1][j - 1] = 1
    return lam_v == tv


# ---------------------------------------------------------------------------
# involution and symmetry conditions
# ---------------------------------------------------------------------------


def home_order(spec: CISpec, tr: TransposeResult) -> tuple[int, ...]:
    """pi: per block position q of the double transpose, the spec block whose
    weights it carries once relabelled (`pipeline.MirrorPair.recovered_data`).

    The blocks are taken in the order of their first variable in lam, and
    position q takes the first unused one with tr.tspec.taus[q - 1] variables,
    the rule by which `build_transpose` assigns the transposed spec's classes.
    """
    block_of = {i: q for q in range(1, spec.k + 1) for i in spec.block_range(q)}
    unused = list(dict.fromkeys(block_of[i] for i in tr.lam.images))
    order = []
    for tau in tr.tspec.taus:
        q = next(q for q in unused if spec.taus[q - 1] == tau)
        unused.remove(q)
        order.append(q)
    return tuple(order)


def find_rho(spec: CISpec, weights: WeightSystem) -> RhoFound | None:
    """An involution rho mapping each index set onto a block's variable range.

    Returns (rho images, pi block pairing) or None.  Tries the size-compatible
    block pairings in lexicographic order, so the identity first, and stops
    at the first that admits a rho; the pairings are generated one at a time,
    never all k! of them.  rho pairs only variables of equal weight, so G*rho
    is symmetric by construction (condition (3.11)).
    """
    diag = weights.diagonal
    range_of = {j: q for q in range(1, spec.k + 1) for j in spec.block_range(q)}
    for pi in itertools.permutations(range(1, spec.k + 1)):
        if all(len(blk.index_set) == spec.taus[p - 1] for blk, p in zip(spec.blocks, pi)):
            target = {i: p for blk, p in zip(spec.blocks, pi) for i in blk.index_set}
            rho = _class_matching([(range_of[i], target[i], diag[i - 1])
                                   for i in range(1, spec.n + 1)])
            if rho is not None:
                return PermutationMap(rho), pi
    return None


def _class_matching(keys: Sequence[tuple[int, int, int]]) -> tuple[int, ...] | None:
    """An involution pairing each i with a j whose key is i's with range and target
    swapped, or None; keys[i-1] = (range, target range, weight).

    Variables of one key form a class.  Where range = target each member is
    fixed; any other class needs a partner class (target, range, weight) of
    its size, and its m-th member is paired with the partner's m-th.  That is
    the first involution found by placing each i in ascending order.
    """
    classes: dict[tuple[int, int, int], list[int]] = {}
    for i, key in enumerate(keys, start=1):
        classes.setdefault(key, []).append(i)
    images = [0] * len(keys)
    for (r, t, w), members in classes.items():
        partners = members if r == t else classes.get((t, r, w), [])
        if len(partners) != len(members):
            return None
        for i, j in zip(members, partners):
            images[i - 1] = j
    return tuple(images)
