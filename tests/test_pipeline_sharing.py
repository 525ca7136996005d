"""One run builds each object of the chain once: call counts of the builders.

`from .ci_model import build_cayley` copies the binding into the importing
module, so a builder is counted by rebinding it in every mirrorkit module.
"""

import contextlib
import gc
import io
import json
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mirrorkit import (ci_model, cli, mellin, nef_partition, pipeline, poincare,
                       rational_linalg, transposition)
from mirrorkit.ci_model import CISpec
from mirrorkit.horn_system import horn_operators, index_partition
from mirrorkit.pipeline import MirrorPair, generate_family, run_verify
from mirrorkit.record import lazy

from oracles import columns, constant, double_transpose, mirror_side, z_coeffs
from specgen import oracle_specs, singular_cayley_specs

BUILDERS = ((ci_model, "build_cayley"), (ci_model, "charges"), (ci_model, "derive_weights"),
            (ci_model, "difference_matrix"), (rational_linalg, "invert"),
            (rational_linalg, "is_inverse"), (transposition, "build_transpose"),
            (transposition, "complete_transpose"), (transposition, "find_rho"),
            (mellin, "solve_xi"))


@pytest.fixture
def calls(monkeypatch) -> Counter:
    counts: Counter = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mirrorkit"]
    for owner, attr in BUILDERS:
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn, _name=attr, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return counts


def test_run_verify_builds_each_object_once(calls):
    run_verify(generate_family(5))
    # validation reads the run's pair, which builds one Cayley matrix, the
    # spec's, and one inverse; the spec's weights are read off the inverse,
    # the transposed spec's come with the transposition
    assert calls["build_transpose"] == 1
    assert calls["build_cayley"] == 1
    assert calls["derive_weights"] == 0
    assert calls["invert"] == 1
    # the cayley stage and the forms read one certificate of L L^-1 = I, and
    # every stage that reads the forms reads one view of L^-1
    assert calls["is_inverse"] == 1
    assert calls["solve_xi"] == 1
    # the spec's difference matrix, once for its weights and the nef solve; the
    # nef target is the transposition's own matrix
    assert calls["difference_matrix"] == 1


def _count_eliminations(monkeypatch) -> list:
    """Record (rows, columns eliminated, width) of every elimination."""
    shapes = []
    real = rational_linalg._eliminate

    def counted(rows, ncols):
        shapes.append((len(rows), ncols, len(rows[0]) if rows else 0))
        return real(rows, ncols)

    monkeypatch.setattr(rational_linalg, "_eliminate", counted)
    return shapes


@pytest.mark.parametrize("m", [5, 7, 12])
def test_run_verify_eliminates_once(calls, monkeypatch, m):
    # one elimination of [L | I] for the inverse, and nothing else: the
    # spec's weights need M = 0 and the transposition's classes M' = 0, each
    # basis is then read off L^-1, and the double transpose's classes, the
    # other sides' weights and the dual vertices are read without one
    shapes = _count_eliminations(monkeypatch)
    spec = generate_family(m)
    run_verify(spec)
    size = spec.total_rows
    assert shapes == [(size, size, 2 * size)]
    assert calls["derive_weights"] == 0


def test_the_kernel_basis_is_read_only_off_a_certified_inverse(monkeypatch, quadric):
    # H is a basis of ker tr.diff only on a correct L^-1, and the char-polys
    # and duality proofs rest on it: an uncertified L^-1 gives no basis, so
    # build_transpose eliminates, as on a singular L
    pair = MirrorPair(quadric)
    assert pair._class_hint == transposition.inverse_hint(pair.cm, pair.inverse)[0]
    num = [list(row) for row in pair.inverse.num]
    num[0][2] += 1   # an x-row entry: H and M' read only the s-rows
    wrong = pipeline.Matrix(tuple(map(tuple, num)), pair.inverse.den)
    monkeypatch.setattr(pipeline, "invert", lambda m: wrong)
    pair = MirrorPair(quadric)
    assert not pair.certified
    assert not any(map(any, transposition.inverse_hint(pair.cm, pair.inverse)[1]))
    assert pair._class_hint is None


def test_run_verify_on_a_spec_that_does_not_transpose_eliminates_no_kernel(
        monkeypatch, calls, fixtures_dir):
    # on every oracle spec that does not transpose, 116 of them in the weight
    # classes, the error is read off the kernel basis: nothing eliminates
    # tr.diff or a block's columns of spec.diff, only [L | I] (the spec's
    # weights need M = 0, the classes' basis is H as M' = 0); the other 24
    # fail on their block sizes before the basis is read
    eliminated = []
    real = transposition._weight_classes
    monkeypatch.setattr(transposition, "_weight_classes", lambda diff, k, basis: (
        basis is None and eliminated.append(diff)) or real(diff, k, basis))
    shapes = _count_eliminations(monkeypatch)
    specs = oracle_specs(fixtures_dir)
    calls.clear()  # building the oracle set solves for weights
    failed = in_classes = 0
    for spec in specs:
        del shapes[:]
        report = run_verify(spec)
        transpose = next(s for s in report.stages if s.name == "transpose")
        if transpose.flags.get("transposable", True):
            continue
        failed += 1
        in_classes += "weight" in transpose.notes[0]
        size = spec.total_rows
        assert spec.n > spec.k
        assert shapes == [(size, size, 2 * size)]
    assert (failed, in_classes) == (140, 116)
    assert eliminated == []
    assert calls["derive_weights"] == 0


def test_a_singular_cayley_matrix_is_inverted_once(calls):
    # the weights ask for the inverse before validation does: the failed
    # inversion is held, not repeated, and the weights are solved for
    spec = CISpec.from_json({"n": 2, "k": 1,
                             "blocks": [{"exponents": [[1, 0], [1, 0]], "index_set": [1, 2]}]})
    report = run_verify(spec)
    assert report.stages[0].flags["cayley_nonsingular"] is False
    assert "Cayley matrix is singular" in report.stages[0].notes
    assert calls["invert"] == 1
    assert calls["derive_weights"] == 1
    pair = MirrorPair(spec)
    for _ in range(2):
        with pytest.raises(rational_linalg.SingularMatrixError, match="^matrix is singular$"):
            pair.inverse
    assert calls["invert"] == 2


def test_a_pair_is_freed_by_reference_counting():
    # nothing a pair builds refers back to it: no cycle keeps a run's
    # inverse, forms and stage results alive until the cyclic collector runs
    pair = MirrorPair(generate_family(3))
    pair.duality
    ref = weakref.ref(pair)
    gc.disable()
    try:
        del pair
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["family_3", "example_6_1.json", "example_6_2.json"])
def test_a_mirror_outlives_its_origin_with_its_bases(monkeypatch, fixtures_dir, name):
    # a run builds no MirrorPair of tr.tspec; the oracle's (`mirror_side`) is
    # handed its weights, so with its origin gone it builds its Cayley matrix
    # and rho eliminating nothing, and transposed, it gives the double
    # transpose, eliminating only its own [L | I] for its classes
    spec = (generate_family(3) if name == "family_3"
            else CISpec.load(fixtures_dir / name))
    expected = double_transpose(MirrorPair(spec))
    pair = MirrorPair(spec)
    mirror = mirror_side(pair)
    ref = weakref.ref(pair)
    del pair
    assert ref() is None
    shapes = _count_eliminations(monkeypatch)
    mirror.cm, mirror.rho
    assert shapes == []
    assert mirror.tr == expected
    size = spec.total_rows
    assert shapes == [(size, size, 2 * size)]


def _withhold_the_kernel_bases(monkeypatch):
    # no weight kernel is read off L^-1: derive_weights solves for the spec's
    # weights, and with the spec's basis H withheld, _weight_classes
    # eliminates tr.diff
    monkeypatch.setattr(ci_model, "read_weights", lambda spec, inverse: None)
    withheld = lazy(lambda self: None)
    withheld.__set_name__(MirrorPair, "_class_hint")
    monkeypatch.setattr(MirrorPair, "_class_hint", withheld)


def test_run_verify_is_unchanged_when_no_read_certifies(monkeypatch, fixtures_dir):
    # with every kernel basis withheld, the weights and the weight classes come
    # from derive_weights and the elimination in _weight_classes: every report
    # and exit code is the same as with the reads
    specs = oracle_specs(fixtures_dir)

    def reports():
        return [(json.dumps(report.to_json(), sort_keys=True), report.exit_code(True))
                for report in map(run_verify, specs)]

    read = reports()
    solved = Counter()
    real = ci_model.derive_weights

    def counted(spec):
        solved["derive_weights"] += 1
        return real(spec)

    monkeypatch.setattr(ci_model, "derive_weights", counted)
    _withhold_the_kernel_bases(monkeypatch)
    assert reports() == read
    assert solved["derive_weights"] == len(specs)


def test_singular_cayley_output_is_unchanged_when_no_read_certifies(monkeypatch, tmp_path):
    # a spec with a singular L still transposes: the transpose and poincare
    # output is the same as with every kernel basis withheld, and only the
    # spec's side eliminates for its classes, as no run transposes the mirror
    paths = []
    for i, spec in enumerate(singular_cayley_specs()):
        path = tmp_path / f"singular_{i}.json"
        path.write_text(json.dumps(spec.to_json()))
        paths.append(path)
    calls = []
    real = transposition._weight_classes
    monkeypatch.setattr(transposition, "_weight_classes", lambda diff, k, basis: (
        basis is None and calls.append(k)) or real(diff, k, basis))

    def outputs():
        runs, eliminated = [], Counter()
        for path in paths:
            for command in ("transpose", "poincare"):
                for fmt in ("text", "json"):
                    out, err = io.StringIO(), io.StringIO()
                    before = len(calls)
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main([command, "--input", str(path), "--format", fmt])
                    runs.append((out.getvalue(), err.getvalue(), code))
                    eliminated[command] += len(calls) - before
        return runs, eliminated

    # one elimination per run, for the spec's classes, with the basis H or
    # without: a singular L has none to read
    read, eliminated = outputs()
    assert eliminated == {"transpose": 2 * len(paths), "poincare": 2 * len(paths)}
    _withhold_the_kernel_bases(monkeypatch)
    refused, eliminated = outputs()
    assert refused == read
    assert eliminated == {"transpose": 2 * len(paths), "poincare": 2 * len(paths)}


@pytest.mark.parametrize("name", ["example_6_1.json", "example_6_2.json", "derived_quadric.json",
                                  "family_5", "family_7", "family_12"])
def test_run_verify_builds_each_construction_once(calls, fixtures_dir, name):
    # one transposition per run: the spec's Cayley matrix, one shape and one
    # check of it, which reads tr.tspec's data and builds no Cayley matrix of
    # it, and two rho (the spec's and t_rho); the double transpose is read off
    # the first transposition
    spec = (CISpec.load(fixtures_dir / name) if name.endswith(".json")
            else generate_family(int(name.split("_")[1])))
    assert run_verify(spec).hard_ok
    assert [calls[f] for f in ("build_cayley", "build_transpose", "complete_transpose",
                               "find_rho")] == [1, 1, 1, 2]
    # the spec's and the transposed side's charges: the double transpose's
    # weights are the effective ones here, so it reads the spec's
    assert calls["charges"] == 2


STAGE_FUNCTIONS = ("lemma_form", "factorize_xi", "verify_theorem_31", "horn_operators",
                   "char_polys", "verify_duality", "solve_dual_partition", "magic_square_check")


@pytest.mark.parametrize("name", STAGE_FUNCTIONS)
def test_each_stage_is_wired_once(name):
    # run_verify and the CLI commands read the MirrorPair property that calls
    # the stage function; nothing else in the package calls it
    src = Path(cli.__file__).parent
    calls = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(rf"\b{name}\(", line) and not line.lstrip().startswith("def ")]
    assert len(calls) == 1 and calls[0][0] == "pipeline.py", calls


@pytest.mark.parametrize("name", ["corrupted_weights", "derived_quadric", "example_6_1",
                                  "example_6_2"])
def test_run_verify_reads_one_view_of_the_forms(calls, fixtures_dir, name):
    report = run_verify(CISpec.load(fixtures_dir / f"{name}.json"))
    assert [s.name for s in report.stages][2:5] == ["transpose", "forms", "mellin-plain"]
    assert calls["solve_xi"] == calls["is_inverse"] == 1


@pytest.mark.parametrize("command, bound", [("mellin", 2), ("poincare", 3), ("horn", 2),
                                            ("nef", 2)])
def test_cli_views_share_the_chain(calls, fixtures_dir, command, bound):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--input", str(fixtures_dir / "example_6_1.json")]) == 0
    assert calls["build_cayley"] <= bound
    assert calls["derive_weights"] <= bound
    # each certifies L L^-1 = I once, poincare for the kernel basis H it reads
    # off L^-1 (`_class_hint`); it reads no form, the others one view of L^-1
    assert calls["is_inverse"] == 1
    assert calls["solve_xi"] == (command != "poincare")


@pytest.mark.parametrize("m", [3, 7, 12])
def test_nef_solve_eliminates_a_fixed_number_of_times(monkeypatch, m):
    # a direct call reads the dual vertices off lambda and the weights, whatever
    # n is: the transposition proves the rank they need, so nothing is solved
    # (an elimination fallback made 1; one solve per vertex made 15, 31 and 51)
    pair = MirrorPair(generate_family(m))
    tr, weights, tweights = pair.tr, pair.weights, pair.tweights
    count = Counter()
    real = rational_linalg._eliminate

    def counted(*args):
        count["eliminate"] += 1
        return real(*args)

    monkeypatch.setattr(rational_linalg, "_eliminate", counted)
    nef_partition.solve_dual_partition(pair.spec, tr, weights, tweights)
    assert count["eliminate"] == 0


@pytest.mark.parametrize("m", [3, 7, 12])
def test_nef_closed_form_eliminates_nothing(monkeypatch, m):
    # the run path takes the same closed form: once the pair holds its
    # transposition and weights, its nef stage eliminates nothing and equals a
    # direct call
    direct = MirrorPair(generate_family(m))
    solved = nef_partition.solve_dual_partition(direct.spec, direct.tr, direct.weights,
                                                direct.tweights)
    pair = MirrorPair(generate_family(m))
    pair.tr, pair.weights, pair.tweights
    count = Counter()
    real = rational_linalg._eliminate

    def counted(*args):
        count["eliminate"] += 1
        return real(*args)

    monkeypatch.setattr(rational_linalg, "_eliminate", counted)
    assert pair.nef == solved
    assert count["eliminate"] == 0


def test_nef_solves_when_the_pair_holds_a_singular_inversion(monkeypatch):
    # the nef stage does not ask whether L inverted: with a failed inversion
    # held, the dual vertices are the same and nothing is eliminated for them
    closed = MirrorPair(generate_family(3)).nef
    pair = MirrorPair(generate_family(3))
    pair.tr
    pair._inversion = rational_linalg.SingularMatrixError("matrix is singular")
    count = Counter()
    real = rational_linalg._eliminate

    def counted(*args):
        count["eliminate"] += 1
        return real(*args)

    monkeypatch.setattr(rational_linalg, "_eliminate", counted)
    assert pair.nef == closed
    assert count["eliminate"] == 0


@pytest.mark.parametrize("m", [3, 7])
def test_horn_factors_of_one_form_share_its_data(m):
    # a form's Delta*|c| factors differ only in their shift: one negated
    # coefficient tuple per form, in every operator, and the constant and
    # denominator of its xi()
    spec = generate_family(m)
    forms = MirrorPair(spec).forms
    delta, cols = forms.den, columns(forms)
    shared: dict[int, set] = {}
    for op in horn_operators(spec, forms):
        plus, minus, _ = index_partition(forms, op.q)
        for rows, runs in ((plus, op.p_runs), (minus, op.q_runs)):
            assert len(runs) == len(rows)
            for a, (coeffs, const, den, count) in zip(rows, runs):
                assert count == abs(int(z_coeffs(cols[a - 1])[op.q - 1] * delta))
                xi = cols[a - 1].xi()
                assert (const, den) == (xi.num[-1], xi.den)
                assert Fraction(const, den) == constant(xi)
                shared.setdefault(a, set()).add(id(coeffs))
    assert shared and all(len(ids) == 1 for ids in shared.values())


@pytest.mark.parametrize("name", ["derived_quadric", "example_6_1", "example_6_2",
                                  "corrupted_weights", "family_3", "family_7"])
def test_no_reader_mutates_a_shared_payload(monkeypatch, fixtures_dir, tmp_path, name):
    # a Horn payload shares one coeffs dict among a run's factors and one factor
    # list between equal runs, a Gamma product one dict among its equal
    # factors, and Stage.to_json hands out the stage's own payload: the CLI
    # views must leave a report's payloads as they were built
    if name.startswith("family_"):
        spec = generate_family(int(name.split("_")[1]))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec.to_json()))
    else:
        path = fixtures_dir / f"{name}.json"
        spec = CISpec.load(path)
    report = run_verify(spec)
    assert report.internal_error is None
    monkeypatch.setattr(pipeline, "run_verify", lambda spec, order: report)
    tree = report.to_json()
    snapshot = json.dumps(tree, sort_keys=True)
    payloads = {stage["name"]: stage["payload"] for stage in tree["stages"]}
    for stage in ("mellin-plain", "mellin-factorized"):
        product = payloads[stage]["product"]
        factors = product["numerator"] + product["denominator"]
        assert len({id(f) for f in factors}) == len({json.dumps(f) for f in factors})
    outputs = []
    for argv in (["verify"], ["verify", "--format", "json"], ["horn", "--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main([*argv, "--input", str(path)]) in (0, 2)
        outputs.append(out.getvalue())
    assert json.loads(outputs[1]) == json.loads(snapshot)   # the CLI rendered this report
    assert json.dumps(tree, sort_keys=True) == snapshot
    assert json.dumps(report.to_json(), sort_keys=True) == snapshot


def test_run_verify_builds_each_cyclotomic_ratio_once(monkeypatch, fixtures_dir):
    # the annotated data's (read by the duality check and the one-block
    # series); the double transpose's data is the annotated data on example
    # 6.2, so its ratio is that one, and only the corrupted fixture's, which
    # differs, is built: one ratio, or two.  The transposed data's, M_X, is
    # balanced by its weights (`horn_system.char_polys`) and not built
    built = []
    real = poincare.poincare_structure

    def counted(weights, qm):
        built.append((weights, qm))
        return real(weights, qm)

    monkeypatch.setattr(poincare, "poincare_structure", counted)
    run_verify(CISpec.load(fixtures_dir / "example_6_2.json"))
    assert len(built) == 1
    del built[:]
    run_verify(CISpec.load(fixtures_dir / "corrupted_weights.json"))
    assert len(built) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_horn_builds_the_monodromy_ratio_once(monkeypatch, fixtures_dir, fmt):
    # the JSON m_function and the text "M = ..." line are one ratio
    built = []
    real = poincare.poincare_structure

    def counted(weights, qm):
        built.append((weights, qm))
        return real(weights, qm)

    monkeypatch.setattr(poincare, "poincare_structure", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["horn", "--input", str(fixtures_dir / "example_6_1.json"),
                         "--format", fmt]) == 0
    assert len(built) == 1


