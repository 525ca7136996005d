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
from typing import Callable, Iterable, Sequence

from .ci_model import (Block, CayleyMatrix, CISpec, InternalInvariantError, rays_by_class,
                       TranspositionError, WeightSystem)
from .rational_linalg import integer_kernel, Matrix, PermutationMap
from .record import record, replace


class NoValidShapeError(TranspositionError):
    """No row/column permutation of the transpose has the required block shape."""


class NoInvolutiveNuError(TranspositionError):
    """Every shape-valid block matching fails the involution requirement."""


# find_rho's answer: (rho, pi block pairing)
RhoFound = tuple[PermutationMap, tuple[int, ...]]


@record
class TransposeResult:
    tspec: CISpec
    nu: PermutationMap             # nu(j) = position of old block j in the new order
    lam: PermutationMap            # lam(r) = old column feeding new monomial r
    row_to_var: tuple[tuple[int, int], ...]  # (old matrix row, new variable position)
    diff: Matrix                   # new difference rows over the old monomial rows, ascending
    rho: PermutationMap | None
    t_rho: PermutationMap | None
    condition_flags: dict[str, bool]
    notes: tuple[str, ...]

    @property
    def block_sources(self) -> tuple[int, ...]:
        """Position q -> old block nu^-1(q), which is nu(q) as nu is an involution."""
        return self.nu.images

    def to_json(self) -> dict:
        return {
            "tspec": self.tspec.to_json(),
            "nu": self.nu.to_json(),
            "nu_star": self.nu.matrix().to_json(),  # column j = e_{nu(j)}
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


def _size_first(candidates: Iterable[int], size: Callable[[int], int],
                sizes: Sequence[int]) -> list[int]:
    """Per position q, the first candidate left of size sizes[q - 1], up to the
    first position none fits: the one rule by which `build_transpose` places
    weight classes and `home_order` spec blocks (`MirrorPair.recovered_data`)."""
    left, picks = list(candidates), []
    for want in sizes:
        pick = next((c for c in left if size(c) == want), None)
        if pick is None:
            break
        left.remove(pick)
        picks.append(pick)
    return picks


def build_transpose(cm: CayleyMatrix, basis: Callable[[], Sequence | None] | None = None
                    ) -> TransposeResult:
    """The transposed specification and its permutation bookkeeping, unchecked.

    Only the shape flags are set; `complete_transpose` checks the rest and
    adds rho and t_rho.  The weight classes are read by `_weight_classes` off
    basis(), the rows of a basis of the weight kernel (`inverse_hint`'s H, or
    any basis a caller holds), called once the size multisets and nu have
    matched.  Given a basis, the classes are read first and the transposed
    blocks and difference matrix (`_transposed_rows`) are built only once
    they succeed; without one, the difference matrix is built first and
    eliminated.
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

    given = None if basis is None else basis()
    if given is None:
        new_blocks_raw, diff = _transposed_rows(cm, nu.images)
        classes = _weight_classes(diff, k, given)
    else:  # a spec whose read fails builds no rows
        classes = _weight_classes(None, k, given)
        new_blocks_raw, diff = _transposed_rows(cm, nu.images)

    # one class per block position by `_size_first`, the classes ordered by
    # their smallest raw position
    assigned = _size_first(sorted(range(k), key=lambda c: classes[c][0][0]),
                           lambda c: len(classes[c][0]), taus)
    if len(assigned) < k:   # position len(assigned) + 1 found none
        raise NoValidShapeError(f"no variable group of size {taus[len(assigned)]} left "
                                f"for block position {len(assigned) + 1}")

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
        tspec=tspec, nu=nu, lam=PermutationMap(tuple(lam)), row_to_var=row_to_var,
        diff=diff, rho=None, t_rho=None, condition_flags=flags, notes=(),
    )


def complete_transpose(cm: CayleyMatrix, tr: TransposeResult,
                       found: RhoFound | None) -> TransposeResult:
    """Check the construction identities of `build_transpose` and attach rho / t_rho.

    found is `find_rho` of the spec and its derived weights; t_rho is `find_rho`
    of tr.tspec and its weights, searched only when found is not None.
    """
    spec = cm.spec
    _verify_permuted_transpose(cm, tr.tspec, tr.row_to_var, tr.block_sources)
    flags = dict(tr.condition_flags)
    # _choose_nu pairs the images two at a time or raises NoInvolutiveNuError
    flags["involution_nu"] = True
    # the check raises unless the new matrix is the row/column permuted
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
        t_found = find_rho(tr.tspec, WeightSystem(tr.tspec.weights))
        t_rho = t_found[0] if t_found else None
        # find_rho pairs only equal weights, so each rho it returns is symmetric
        flags["rho_symmetric_3_11"] = True
        flags["t_rho_symmetric_3_11T"] = t_found is not None
        if pi != tuple(range(1, spec.k + 1)):
            notes.append("rho pairs index sets with permuted block ranges")
    return replace(tr, rho=rho, t_rho=t_rho, condition_flags=flags, notes=tuple(notes))


def _verify_permuted_transpose(cm: CayleyMatrix, tspec: CISpec,
                               row_to_var: tuple[tuple[int, int], ...],
                               block_sources: tuple[int, ...]) -> None:
    """Check that B = `build_cayley(tspec)`, not built, is L transposed with its
    rows and columns permuted, on the entries of B that carry data; raise
    InternalInvariantError naming B's first wrong entry, row-major, 1-based.

    With l = block_sources[q - 1], B's rows of block q are L's columns of l:
    its monomial rows the columns c of l's index set in order (one exponent
    row each, by `_transposed_rows`), its s-term, product and constant rows
    y_{2l}, y_{2l-1} and s_l.  B's columns are L's rows: variable p the
    monomial row that row_to_var maps to p, and y_{2q-1}, y_{2q} and s_q l's
    product, s-term and constant rows.  `build_cayley`'s layout settles every
    entry outside B's x columns in its monomial and product rows:
    - at (y_{2q-1}, y_{2q}, s_q), B's s-term, product and constant rows of
      block q read [1, 0, 1], [0, 1, 0] and [0, 1, 0]; at (y_{2l}, y_{2l-1},
      s_l), L's product, s-term and constant rows of block l read [1, 0, 0],
      [0, 1, 1] and [1, 0, 0], the transpose; across two blocks both are zero;
    - among the y and s columns a monomial row of B is 1 at y_{2q-1} alone;
      at its column c, L's product rows are 1 only for block l, the one index
      set holding c, and L's s-term and constant rows are zero;
    - B's s-term and constant rows are zero on the x columns, as L's monomial
      rows are at y_{2l} and s_l.
    What is left is data: the exponent row of c in tspec's block q must be
    column c of L read at the rows row_to_var maps, and the index set of
    block q the variables whose rows are l's monomial rows, where L's column
    y_{2l-1} is 1.  They are compared in B's row order, so the first mismatch
    is the one a comparison of all of B with L names.
    """
    spec, num = cm.spec, cm.matrix.num
    var_to_row = {v: r for r, v in row_to_var}
    rows = [var_to_row[p] for p in range(1, tspec.n + 1)]  # L's row of each new variable
    for q, (l, blk) in enumerate(zip(block_sources, tspec.blocks), start=1):
        own = set(spec.monomial_rows(l))
        cols = spec.blocks[l - 1].index_set
        expected = [*(tuple(num[r - 1][c - 1] for r in rows) for c in cols),
                    tuple(int(r in own) for r in rows)]
        at = [*tspec.monomial_rows(q), tspec.a(q) - 1]  # B's rows of the two, 1-based
        for r, want, got in zip(at, expected, (*blk.exponents, blk.indicator(tspec.n))):
            if got != want:
                c = next(c for c, (x, y) in enumerate(zip(got, want), start=1) if x != y)
                raise InternalInvariantError(f"transpose mismatch at new entry ({r},{c})")


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
    weights it carries once relabelled (`pipeline.MirrorPair.recovered_data`):
    `_size_first` of the blocks, in the order of their first variable in lam."""
    block_of = {i: q for q in range(1, spec.k + 1) for i in spec.block_range(q)}
    first_seen = dict.fromkeys(block_of[i] for i in tr.lam.images)
    return tuple(_size_first(first_seen, lambda q: spec.taus[q - 1], tr.tspec.taus))


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
