"""Verification pipeline: every stage in order, one consolidated report.

Every stage reads one MirrorPair, which builds each derived object and
stage result of a run once, on first use; `run_verify` and the CLI commands
are views of one pair, and `soft_failures` is their one soft-failure rule.
The forms are one view of L^-1 (`mellin.Forms`), built once per run, that
every stage reading them shares; the forms stage renders its payload from it.

`run_verify` validates the spec, checks L's y columns (`mellin.check_y_rows`)
and L L^-1 = I (`MirrorPair.certified`), where an exception is an internal
error and a failed check ends the run, as every later stage reads L^-1, then
runs `STAGES` in order.  A CLI command that reads the forms without `verify`
meets a failed L L^-1 = I as the forms' InternalInvariantError.
An entry (name, builder, needs, errors, flag) is a whole stage.
`builder(pair, order)` returns the ok `Stage`.  A verdict that the run's
settled facts decide is proved at its stage function, not checked: the
forms' classification and the plain product's shape by the weights
(`mellin.classify_forms`), Theorem 3.1's factorization, contraction and
reduction by the weights, the certified L^-1 and M' = 0
(`mellin.factorize_xi`, `mellin.verify_theorem_31`), the char-polys
degrees and the M_X balance by the transposed weights
(`horn_system.char_polys`), the nef dual vertices' certificate by the
transposition (`nef_partition.solve_dual_partition`), and M_Y = PO_Xbar by
unique factorization (`poincare.verify_duality`).  The stage is left out
when a stage in `needs` raised.  An exception of a class `errors` names
("module.Class", read by `raisable`) fails it in place: hard with flag
None, the stage not ok (`horn` at its factor cap); soft otherwise, as the
stage checks a sufficient hypothesis (`transpose`, the one soft stage), the
stage ok with `flag` false and the soft failure "<name>: <error>".  A
`transposition.InternalInvariantError` ends the run as an internal error.  The
report is hard_ok when every stage is ok; strict mode exits nonzero on a soft
failure.  To add a stage, add its builder and its entry.

Only `ci_model`, `rational_linalg` and `record` load with this module.  The
stage modules, `transposition`, `mellin`, `horn_system`, `poincare` and
`nef_partition`, load on first use: each name is a `StageModule`, here and in
`cli`, until its first attribute read imports the module and rebinds the name
to it.  So a process compiles only the stage modules its command reads, and
`verify` reads them all.
"""

from __future__ import annotations

import importlib
import sys

from . import ci_model
from .ci_model import Block, CayleyMatrix, ChargeMatrix, CISpec, WeightSystem
from .rational_linalg import invert, is_inverse, Matrix, SingularMatrixError
from .record import field, lazy, record


class StageModule:
    """A stage module's global name until the name's first attribute read.

    That read imports the module through `importlib.import_module`, whose
    per-module lock makes a concurrent first reader wait until the module has
    run, and binds the module itself to the name in `namespace`, so every later
    read is a plain global.
    """

    __slots__ = ("_name", "_namespace")

    def __init__(self, name: str, namespace: dict):
        self._name, self._namespace = name, namespace

    def __getattr__(self, attr: str):
        module = importlib.import_module(f"{__package__}.{self._name}")
        self._namespace[self._name] = module
        return getattr(module, attr)


# raisable's answers that name every class: they cannot change any more
_RAISABLE: dict[tuple[str, ...], tuple[type, ...]] = {}


def raisable(*names: str) -> tuple[type, ...]:
    """The classes named "module.Class" whose module has run, for an `except`.

    A class of a stage module that has not run cannot have been raised, so the
    tuple catches what the named classes would, and loads no module.
    """
    classes = _RAISABLE.get(names)
    if classes is None:
        found = [getattr(sys.modules.get(f"{__package__}.{module}"), cls, None)
                 for module, _, cls in (name.partition(".") for name in names)]
        # None also while another thread runs the module
        classes = tuple(cls for cls in found if cls is not None)
        if len(classes) == len(names):
            _RAISABLE[names] = classes
    return classes


horn_system = StageModule("horn_system", globals())
mellin = StageModule("mellin", globals())
nef_partition = StageModule("nef_partition", globals())
poincare = StageModule("poincare", globals())
transposition = StageModule("transposition", globals())

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOFT_FAILURE = 2
EXIT_INTERNAL = 3


# generate_family refuses m above this: the spec holds (2m+1)^2 exponents,
# and building and dumping it at m = 400 already peaks at 61 MB
FAMILY_M_MAX = 200


def generate_family(m: int) -> CISpec:
    """The two-block family on 2m+1 variables generalizing the cubic example.

    Block one is the sum of (m+1) m-th powers with the product over
    variables 2..m+1; block two chains each of those against a fresh
    m-th power, with the product over variable 1 and the tail block.
    Raises ValueError, before building anything, unless 1 <= m <= FAMILY_M_MAX.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if m > FAMILY_M_MAX:
        raise ValueError(f"m must be at most {FAMILY_M_MAX}, got {m}")
    n = 2 * m + 1
    b1 = Block(
        exponents=tuple(tuple(m if j == i else 0 for j in range(n)) for i in range(m + 1)),
        index_set=tuple(range(2, m + 2)),
    )
    b2_rows = []
    for i in range(1, m + 1):
        row = [0] * n
        row[i] = 1          # x_i (position i+1, 0-based i)
        row[m + i] = m      # x_{i+m}
        b2_rows.append(tuple(row))
    b2 = Block(exponents=tuple(b2_rows),
               index_set=tuple([1] + list(range(m + 2, 2 * m + 2))))
    return CISpec(n=n, k=2, blocks=(b1, b2))


class MirrorPair:
    """A spec and its transposed mirror: each derived object built once, lazily.

    A property that raises is not cached, so reading it again raises again;
    only the inversion of L holds a failure, so that a singular L is
    eliminated once whichever reader comes first.  The transposed side is
    itself a MirrorPair (`mirror`), handed its weights when it is built; it
    builds its Cayley matrix and rho for the transposition's checks, holds no
    reference back, so no cycle outlives a run, and is never transposed: the
    double transpose is read off the first transposition (`recovered_data`).
    Sharing never depends on spec equality.  The one inverse L^-1 serves
    both sides: k x k blocks of it give a basis C of the spec's weight kernel
    (`ci_model.weight_hint`, where M = 0) and H of the transposition's
    (`transposition.inverse_hint`, where M' = 0), and the weights and weight
    classes of both sides are the classes of these bases.  So a run
    eliminates [L | I], and nothing else, on a nonsingular L.
    `ci_model.derive_weights` runs only on a singular L or to name the error
    of a spec without weights, and `build_transpose` eliminates only where no
    basis is known: on a singular L or where M' != 0, to name the kernel's
    dimension.
    """

    def __init__(self, spec: CISpec):
        self.spec = spec

    @lazy
    def cm(self) -> CayleyMatrix:
        return ci_model.build_cayley(self.spec)

    @lazy
    def _inversion(self) -> Matrix | SingularMatrixError:
        """L^-1, or the error inverting a singular L raised."""
        try:
            return invert(self.cm.matrix)
        except SingularMatrixError as exc:
            return exc

    @property
    def inverse(self) -> Matrix:
        """L^-1; raises SingularMatrixError when L is singular."""
        inverse = self._inversion
        if isinstance(inverse, SingularMatrixError):
            raise inverse.with_traceback(None)
        return inverse

    @lazy
    def certified(self) -> bool:
        """Whether L L^-1 = I (`rational_linalg.is_inverse`), decided once per run:
        the cayley stage reports it, and `forms` and `_class_hint` read it."""
        return is_inverse(self.cm.matrix, self.inverse)

    @lazy
    def forms(self) -> mellin.Forms:
        """The forms, one view of the columns of L^-1 (`mellin.solve_xi`) that
        every stage reads.  Every reader of them relies on L L^-1 = I, so they
        raise `transposition.InternalInvariantError` when it fails."""
        if not self.certified:
            raise transposition.InternalInvariantError("L L^-1 is not the identity")
        return mellin.solve_xi(self.cm, self.inverse)

    @lazy
    def weights(self) -> WeightSystem:
        """The derived weights, read off L^-1 (`ci_model.read_weights`);
        `ci_model.derive_weights` solves for them when L is singular, and
        raises the error when the read finds none."""
        inverse = self._inversion
        weights = (None if isinstance(inverse, SingularMatrixError)
                   else ci_model.read_weights(self.spec, inverse))
        return ci_model.derive_weights(self.spec) if weights is None else weights

    @lazy
    def effective_weights(self) -> WeightSystem:
        """Supplied weights when present and shape-valid (even if inconsistent), else derived.

        A malformed annotation falls back to the derived weights, as in
        `ci_model.validate`, which reports it as a soft failure.
        """
        try:
            supplied = ci_model.supplied_weights(self.spec)
        except ci_model.SpecInvalidError:
            supplied = None
        return self.weights if supplied is None else supplied

    @lazy
    def charges(self) -> ChargeMatrix:
        """Charges of the effective weights."""
        return ci_model.charges(self.spec, self.effective_weights)

    @lazy
    def unbalanced(self) -> tuple[tuple[int, int, int], ...]:
        """(q, charges, weights) for each block q where the sum of column q of the
        charges is not the sum of effective weight vector q: where the
        anticanonical balance (`validate`'s calabi_yau) fails, and where P_A
        (`structure_ratio`, whose degrees in t_q these sums are, up to factors
        it cancels from both sides) is not degree-balanced."""
        qm, w = self.charges, self.effective_weights
        sums = ((q, sum(qm.column(q)), sum(w.vectors[q - 1])) for q in range(1, self.spec.k + 1))
        return tuple((q, lhs, rhs) for q, lhs, rhs in sums if lhs != rhs)

    @lazy
    def structure_ratio(self) -> poincare.CyclotomicRatio:
        """The structural series P_A of the effective weights and their charges."""
        return poincare.poincare_structure(self.effective_weights, self.charges)

    @lazy
    def _class_hint(self) -> tuple[tuple[int, ...], ...] | None:
        """The rows of a basis of the weight kernel `build_transpose` reads the classes
        off, or None to eliminate: H (`transposition.inverse_hint`) when
        L L^-1 = I is certified and M' = 0; None on a singular L, on an
        uncertified L^-1, or when M' != 0 and the kernel, of dimension
        k - rank M' < k, fails.  H is a basis of ker tr.diff only on a correct
        L^-1, and the char-polys and duality proofs read the transposed
        weights as its rays (`horn_system.char_polys`)."""
        inverse = self._inversion
        if isinstance(inverse, SingularMatrixError) or not self.certified:
            return None
        h, m = transposition.inverse_hint(self.cm, inverse)
        return None if any(map(any, m)) else h

    @lazy
    def _shape(self) -> transposition.TransposeResult:
        return transposition.build_transpose(self.cm, lambda: self._class_hint)

    @lazy
    def mirror(self) -> MirrorPair:
        """The transposed side, handed its weights: it builds only what the
        transposition's checks read, its Cayley matrix and its rho.

        `build_transpose` takes each weight class's ray from the kernel of the
        transposed difference matrix, read off the basis `_class_hint` gives.
        It spans the kernel of the class's columns, in ascending order: the
        submatrix `derive_weights` would eliminate for that block, so its
        primitive positive ray is the same and is not solved for again.
        """
        mirror = MirrorPair(self._shape.tspec)
        mirror.weights = WeightSystem(mirror.spec.weights)
        return mirror

    @lazy
    def rho(self) -> transposition.RhoFound | None:
        """`find_rho` of the spec and its derived weights; the mirror's is t_rho."""
        return transposition.find_rho(self.spec, self.weights)

    @lazy
    def tr(self) -> transposition.TransposeResult:
        # rho before mirror: a spec without weights raises here, before the
        # mirror would ask it for its kernel basis and solve for them again
        shape, found = self._shape, self.rho
        return transposition.complete_transpose(self.cm, shape, self.mirror.cm, found,
                                                self.mirror.rho)

    @lazy
    def tweights(self) -> WeightSystem:
        """The derived weights of the transposed spec.

        They are handed out only once the transposition is checked, so a
        reader meets the transposition's errors first.
        """
        self.tr
        return self.mirror.weights

    @lazy
    def tcharges(self) -> ChargeMatrix:
        return ci_model.charges(self.tr.tspec, self.tweights)

    @lazy
    def recovered_data(self) -> tuple[WeightSystem, ChargeMatrix]:
        """The double transpose's weights in the original block order, and their
        charges: the derived weights in the order pi (`transposition.home_order`),
        for the duality check to compare with the annotated grading data.

        This is what transposing tr.tspec again, relabelling it onto the spec's
        variables and matching its blocks to the spec's gives, so no second
        transposition is built.  With tau and tilde_tau the spec's block and
        index-set sizes, and Y = tr.tspec:
        - Blocks.  nu is an involution with tau_nu(j) = tilde_tau_j, so
          tilde_tau_nu(j) = tau_j.  Y's block q is the spec's block nu(q)
          transposed: tilde_tau_nu(q) = tau_q monomials, an index set of
          tau_nu(q) = tilde_tau_q.  So Y's sizes are the spec's, `_choose_nu`
          picks the same nu for Y, and the double transpose's block q is Y's
          block nu(q), which is the spec's block nu(nu(q)) = q.
        - Entries.  `_verify_permuted_transpose` certified that Y's Cayley
          matrix is L transposed with rows and columns permuted, so
          transposing it again gives L with rows and columns permuted.  Y's
          monomial r + 1 (raw position r of Y's transposition) is the spec's
          variable lam(r + 1); relabelled so, block q of the double transpose
          has block q's exponents and index set, and the first unused
          matching block of each spec block is its own: the match is the
          identity.
        - Weights.  Y's transposed difference matrix is A = spec.diff with
          columns moved by lam and rows permuted (`nef_partition`: row c of
          tr.diff is column lam(c) of A), so its kernel is ker A moved by lam.
          ker A has the dimension k of ker tr.diff, so the derived weights span
          it and its classes are the spec's block ranges with their rays.  So
          Y's weight classes group raw position r by the block whose range
          holds lam(r + 1), with that block's ray: positive, k of them, of the
          sizes tau, and Y transposes.  `build_transpose` takes the classes by
          their smallest raw position and gives block position q the first
          unused one of Y's tau_q variables, which is pi(q); relabelled,
          position q carries block pi(q)'s derived weights.
        pi differs from the identity only where equal block sizes meet lam
        out of order, which is why the weights are not simply the derived ones.
        """
        weights = WeightSystem(tuple(self.weights.vectors[q - 1]
                                     for q in transposition.home_order(self.spec, self.tr)))
        if weights == self.effective_weights:
            return weights, self.charges
        return weights, ci_model.charges(self.spec, weights)

    # the stage results, wired here once for run_verify and the CLI commands
    @lazy
    def lemma(self) -> mellin.GammaProduct:
        """The plain Gamma product."""
        return mellin.lemma_form(self.cm, self.forms)

    @lazy
    def xi(self) -> mellin.XiFactorization:
        return mellin.factorize_xi(self.tr, self.forms, self.tweights)

    @lazy
    def theorem31(self) -> tuple[mellin.Theorem31Report, mellin.GammaProduct]:
        """Theorem 3.1's report and the factorized product."""
        return mellin.verify_theorem_31(self.tr, self.xi, self.forms, self.tcharges)

    @lazy
    def horn(self) -> tuple[horn_system.HornOperator, ...]:
        return horn_system.horn_operators(self.spec, self.forms)

    @lazy
    def char_polys(self) -> tuple[horn_system.CharPolyPair, ...]:
        """Per grading q, the characteristic polynomials of the transposed data."""
        return tuple(horn_system.char_polys(self.tweights, self.tcharges, q)
                     for q in range(1, self.spec.k + 1))

    @lazy
    def duality(self) -> poincare.DualityReport:
        """M_Y = PO_Xbar compares P_A of the recovered data with `structure_ratio`,
        P_A of the annotated data; where the two data are one, it is that ratio
        compared with itself, so P_A is not built again."""
        recovered = self.recovered_data
        m_y = (self.structure_ratio if recovered == (self.effective_weights, self.charges)
               else poincare.poincare_structure(*recovered))
        return poincare.verify_duality(self.structure_ratio, m_y, not self.unbalanced)

    @lazy
    def nef(self) -> nef_partition.NefPartitionData:
        """The dual vertices in closed form: the transposition proves the rank
        they need and their certificate (`nef_partition.solve_dual_partition`)."""
        return nef_partition.solve_dual_partition(self.spec, self.tr, self.weights, self.tweights)

    @lazy
    def magic(self) -> nef_partition.MagicSquareReport:
        return nef_partition.magic_square_check(self.cm, self.forms)


# per stage, the flags whose failure is a soft failure (empty: every flag); the
# other nef flags (five_six_*, lemma52_*, integral_P_*) are informational
SOFT_FLAGS = {"validate": ci_model.ValidationReport.SOFT, "transpose": (), "duality": (),
              "nef": ("phi_kronecker", "cone_pairings_nonnegative", "minkowski_dim")}


def soft_failures(stage: str, flags: dict[str, bool]) -> list[str]:
    """The soft failures among a stage's flags: what `verify` lists, and `--strict` fails on."""
    return [f"{stage}: {name}" for name in (SOFT_FLAGS[stage] or flags)
            if not flags.get(name, True)]


@record
class Stage:
    name: str
    ok: bool
    flags: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    text: list[str] = field(default_factory=list)   # verify's text lines, not in to_json

    def to_json(self) -> dict:
        """Fresh flags and notes, but the stage's own payload, not a copy: treat
        the tree as read-only (`test_no_reader_mutates_a_shared_payload`)."""
        return {"name": self.name, "ok": self.ok, "flags": dict(self.flags),
                "notes": list(self.notes), "payload": self.payload}


@record
class PipelineReport:
    stages: list[Stage]
    hard_ok: bool
    soft_failures: list[str]
    internal_error: str | None = None

    def exit_code(self, strict: bool) -> int:
        if self.internal_error:
            return EXIT_INTERNAL
        if not self.hard_ok:
            return EXIT_INVALID
        if strict and self.soft_failures:
            return EXIT_SOFT_FAILURE
        return EXIT_OK

    def to_json(self) -> dict:
        """The stages' `to_json` trees: they share the report's payloads, so the
        result is read-only (`test_no_reader_mutates_a_shared_payload`)."""
        return {
            "stages": [s.to_json() for s in self.stages],
            "hard_ok": self.hard_ok,
            "soft_failures": list(self.soft_failures),
            "internal_error": self.internal_error,
        }


def _transpose(pair: MirrorPair, order: int):
    tr = pair.tr
    return Stage("transpose", True, dict(tr.condition_flags), list(tr.notes), tr.to_json())


def _forms(pair: MirrorPair, order: int):
    forms = pair.forms
    tags = mellin.classify_forms(pair.cm)
    # the sum rules hold by `mellin.check_y_rows` and the certified L L^-1 = I
    sums = dict.fromkeys(("i_column_sums_vanish", "z_column_sums_vanish",
                          "zeta_column_sums_one", "constants_sum_2k"), True)
    text = {}   # columns with equal numerators share one xi, rendered once
    xi = [text.get(nums) or text.setdefault(nums, str(forms.xi(a)))
          for a, nums in enumerate(forms.xi_nums, start=1)]
    return Stage("forms", True, sums, payload={"delta": forms.den, "forms": forms.to_json(),
                                               "xi": xi, "tags": list(tags)})


def _mellin_plain(pair: MirrorPair, order: int):
    lemma = pair.lemma
    display = str(lemma)
    return Stage("mellin-plain", True, payload={"product": lemma.to_json(), "display": display},
                 text=[display])


def _mellin_factorized(pair: MirrorPair, order: int):
    xi, (t31, product) = pair.xi, pair.theorem31
    # Theorem 3.1 holds by construction (`mellin.factorize_xi`, `verify_theorem_31`)
    flags = dict.fromkeys(("factorizable", "identity_holds", "matches_nu_inverse",
                           "reduces_to_lemma_form"), True)
    display, xi_forms = str(product), [str(f) for f in xi.xi_forms]
    return Stage("mellin-factorized", True, flags,
                 payload={"xi_factorization": xi.to_json(), "product": product.to_json(),
                          "display": display, "symbolic": t31.symbolic, "xi_forms": xi_forms,
                          "block_to_z": t31.block_to_z},
                 text=[t31.symbolic, *(f"   xi^({q}) = {form}"
                                       for q, form in enumerate(xi_forms, start=1)), display])


def _horn(pair: MirrorPair, order: int):
    # P and Q have equal degree on a certified inverse (`horn_operators`)
    ops = pair.horn
    return Stage("horn", True, payload={"operators": [op.to_json() for op in ops],
                                        "degrees": [op.degrees for op in ops]})


def _char_polys(pair: MirrorPair, order: int):
    # each pair's two polynomials have equal degree (`horn_system.char_polys`)
    return Stage("char-polys", True,
                 payload={"pairs": [p.to_json() for p in pair.char_polys]})


def _duality(pair: MirrorPair, order: int):
    duality = pair.duality
    payload = duality.to_json()
    if pair.spec.k == 1:
        payload["structure_series"] = poincare.series_coefficients_1d(
            poincare.series_expand(pair.structure_ratio, order), order)
    return Stage("duality", True, dict(duality.identities), list(duality.notes), payload)


def _nef(pair: MirrorPair, order: int):
    nef = pair.nef
    return Stage("nef", True, dict(nef.flags), list(nef.notes), nef.to_json())


def _magic_square(pair: MirrorPair, order: int):
    # found/not-found is a property report, not a condition flag: absence is a
    # fact about the spec, not a failed hypothesis
    magic = pair.magic
    return Stage("magic-square", True, {"found": magic.found}, payload=magic.to_json())


# (name, builder, needs, errors, flag): the stages after the Cayley check (module docstring);
# the errors are named "module.Class" (`raisable`)
STAGES = (
    ("transpose", _transpose, (), ("transposition.TranspositionError",), "transposable"),
    ("forms", _forms, (), (), None),
    ("mellin-plain", _mellin_plain, (), (), None),
    ("mellin-factorized", _mellin_factorized, ("transpose",), (), None),
    ("horn", _horn, (), ("horn_system.HornError",), None),
    ("char-polys", _char_polys, ("transpose",), (), None),
    ("duality", _duality, ("transpose",), (), None),
    ("nef", _nef, ("transpose",), (), None),
    ("magic-square", _magic_square, (), (), None),
)


def run_verify(spec: CISpec, order: int = 8) -> PipelineReport:
    """Run the whole chain; never raises for spec-level problems."""
    pair = MirrorPair(spec)
    report = ci_model.validate(spec, pair)
    stages = [Stage("validate", report.hard_ok, dict(report.checks), list(report.notes),
                    report.to_json())]
    if not report.hard_ok:
        return PipelineReport(stages, False, [])
    soft = soft_failures("validate", report.checks)

    try:
        cm = pair.cm
        mellin.check_y_rows(cm)
        stages.append(Stage("cayley", pair.certified, payload=cm.to_json()))
    except Exception as exc:  # construction must not fail on a valid spec
        return PipelineReport(stages, True, soft, internal_error=str(exc))
    if not stages[-1].ok:     # every later stage reads L^-1
        return PipelineReport(stages, False, soft)

    raised: set[str] = set()
    for name, build, needs, errors, flag in STAGES:
        if raised.intersection(needs):
            continue
        try:
            stage = build(pair, order)
            soft += soft_failures(name, stage.flags) if name in SOFT_FLAGS else []
        except raisable("transposition.InternalInvariantError") as exc:
            return PipelineReport(stages, all(s.ok for s in stages), soft, str(exc))
        except raisable(*errors) as exc:
            raised.add(name)
            stage = Stage(name, flag is not None, {flag: False} if flag else {}, [str(exc)])
            soft += [f"{name}: {exc}"] if flag else []
        stages.append(stage)

    return PipelineReport(stages, all(s.ok for s in stages), soft)
