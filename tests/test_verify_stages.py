"""Each stage's failure branch in `run_verify`, and what `verify` prints for it.

No spec of `tests/output_snapshot.py` makes horn, nef or the Cayley check
fail, so each failure is forced here on the quadric: the module function that
the stage's `MirrorPair` property calls is patched to raise the stage's
declared error, or, for horn, its factor cap is lowered below the quadric's
count, or, for nef, its certificate is handed a doctored transposition.
Every other stage must read exactly as in the run without the failure.  A
wrong L^-1 is forced by patching `invert` to return one with an entry
changed.  (forms, mellin-plain and mellin-factorized cannot fail: the
weights decide the first two, `mellin.classify_forms`, and the weights, the
certified L^-1 and M' = 0 the third, `mellin.factorize_xi`.  nef fails only
as an internal error: the transposition proves its certificate,
`nef_partition.solve_dual_partition`.)
"""

import json

import pytest

from mirrorkit import cli, horn_system, nef_partition, pipeline, transposition
from mirrorkit.pipeline import run_verify
from mirrorkit.rational_linalg import Matrix
from mirrorkit.record import replace

from conftest import FIXTURES

QUADRIC = str(FIXTURES / "derived_quadric.json")
STAGES = ("validate", "cayley", "transpose", "forms", "mellin-plain", "mellin-factorized",
          "horn", "char-polys", "duality", "nef", "magic-square")
AFTER_TRANSPOSE = ("mellin-factorized", "char-polys", "duality", "nef")


def _raising(error):
    def raise_it(*args, **kwargs):
        raise error
    return raise_it


def _blocks(text: str) -> tuple[dict[str, list[str]], list[str]]:
    """`verify` text split into each stage's lines, by stage name, and the lines after them."""
    blocks: dict[str, list[str]] = {}
    lines = text.splitlines()
    for at, line in enumerate(lines):
        if line.startswith("["):
            block = blocks.setdefault(line.split("] ", 1)[1], [])
        elif not line.startswith(" "):
            return blocks, lines[at:]
        block.append(line)
    return blocks, []


def _case(id, target, error, stage, stage_json, text, soft, hard_ok, codes, left_out=()):
    """target, a (module, name), is patched to raise error, or a (module, name,
    value) is patched to value, where error is the message the run then meets.
    stage is the stage that fails (None: the run ends before it), stage_json its
    to_json(), and text its verify lines with the lines after the last stage;
    codes are exit_code(False) and exit_code(True), and left_out the stages that
    the run no longer reaches."""
    patch = target if len(target) == 3 else (*target, _raising(error))
    return pytest.param(patch, error, stage, stage_json, text, soft, hard_ok, codes, left_out,
                        id=id)


CAPPED = "variable 1: 8 p-factors exceed the cap of 7"   # the quadric's operator has 8
ROW_CLAUSE = "nef certificate: row c of tr.diff is not column lambda(c) of A"


def _doctored_certificate():
    """`nef_partition._closed_form_duals`, handed the transposition with one
    entry of tr.diff raised by one, so its first clause fails."""
    closed_form_duals = nef_partition._closed_form_duals

    def doctored(a_rows, tr, weights):
        num = [list(row) for row in tr.diff.num]
        num[0][0] += 1
        return closed_form_duals(a_rows, replace(tr, diff=Matrix(tuple(map(tuple, num)))),
                                 weights)
    return doctored


CASES = [
    _case("transpose", (transposition, "complete_transpose"),
          transposition.NoValidShapeError("no block shape"), "transpose",
          {"name": "transpose", "ok": True, "flags": {"transposable": False},
           "notes": ["no block shape"], "payload": {}},
          (["[ok] transpose", "    - transposable", "    note: no block shape"],
           ["soft failures:", "  - transpose: no block shape",
            "verdict: PASS (with soft failures)"]),
          ["transpose: no block shape"], True, (0, 2), AFTER_TRANSPOSE),
    _case("horn", (horn_system, "FACTOR_COUNT_CAP", 7), CAPPED, "horn",
          {"name": "horn", "ok": False, "flags": {}, "notes": [CAPPED], "payload": {}},
          (["[FAIL] horn", f"    note: {CAPPED}"], ["verdict: FAIL"]),
          [], False, (1, 1)),
    # the Cayley check ends the run: every exception there is an internal error
    _case("cayley", (pipeline, "is_inverse"), RuntimeError("no certificate"), None, None,
          ([], ["verdict: FAIL"]), [], True, (3, 3), STAGES[1:]),
    # an InternalInvariantError is a TranspositionError, but no soft failure:
    # from any stage it ends the run, as it fails `mirrorkit transpose`
    _case("internal-invariant", (transposition, "complete_transpose"),
          transposition.InternalInvariantError("transpose mismatch at new entry (1,2)"), None,
          None, ([], ["verdict: FAIL"]), [], True, (3, 3), STAGES[2:]),
    # so is a failed nef certificate, the stage's one failure
    _case("internal-invariant-nef", (nef_partition, "_closed_form_duals", _doctored_certificate()),
          ROW_CLAUSE, None, None, ([], ["verdict: FAIL"]), [], True, (3, 3),
          ("nef", "magic-square")),
]


@pytest.mark.parametrize("patch, error, stage, stage_json, text, soft, hard_ok, codes, left_out",
                         CASES)
def test_a_failed_stage_is_reported_in_place(monkeypatch, capsys, quadric, patch, error,
                                             stage, stage_json, text, soft, hard_ok, codes,
                                             left_out):
    clean = run_verify(quadric)
    assert cli.main(["verify", "--input", QUADRIC]) == 0
    clean_blocks, _ = _blocks(capsys.readouterr().out)

    monkeypatch.setattr(*patch)
    report = run_verify(quadric)
    assert [s.name for s in report.stages] == [s for s in STAGES if s not in left_out]
    built = {s.name: s.to_json() for s in clean.stages}
    assert [s.to_json() for s in report.stages] == [
        stage_json if s.name == stage else built[s.name] for s in report.stages]
    assert report.soft_failures == soft
    assert report.hard_ok is hard_ok
    assert report.internal_error == (None if codes[0] != 3 else str(error))
    assert (report.exit_code(False), report.exit_code(True)) == codes

    lines, tail = text
    assert cli.main(["verify", "--input", QUADRIC]) == codes[0]
    out, err = capsys.readouterr()
    blocks, after = _blocks(out)
    assert blocks == {s.name: (lines if s.name == stage else clean_blocks[s.name])
                      for s in report.stages}
    assert after == tail
    assert err == ("" if report.internal_error is None
                   else f"internal inconsistency: {report.internal_error}\n")
    assert cli.main(["verify", "--input", QUADRIC, "--format", "json"]) == codes[0]
    out, json_err = capsys.readouterr()
    assert out == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    assert json_err == err
    assert cli.main(["verify", "--input", QUADRIC, "--strict"]) == codes[1]


def _invert_wrongly(monkeypatch, quadric, bumped, den_factor) -> None:
    """Patch `pipeline.invert` to return the quadric's L^-1 with the entry at bumped
    raised by one (None: none) and its denominator multiplied by den_factor."""
    inverse = pipeline.invert(pipeline.MirrorPair(quadric).cm.matrix)
    num = [list(row) for row in inverse.num]
    if bumped is not None:
        num[bumped[0]][bumped[1]] += 1
    wrong = pipeline.Matrix(tuple(map(tuple, num)), den_factor * inverse.den)
    assert wrong != inverse
    monkeypatch.setattr(pipeline, "invert", lambda m: wrong)


# entries of the quadric's L^-1 that neither the weights nor the kernel bases
# read, so the run reaches the check.  A failed check ends the run after the
# cayley stage, as every later stage reads L^-1: validate reads as before
@pytest.mark.parametrize("bumped, den_factor", [
    pytest.param((0, 2), 1, id="off-diagonal"),
    pytest.param((3, 3), 1, id="diagonal"),
    pytest.param(None, 2, id="denominator"),
])
def test_a_wrong_inverse_fails_the_cayley_stage(monkeypatch, capsys, quadric, bumped,
                                                den_factor):
    clean = run_verify(quadric)
    assert cli.main(["verify", "--input", QUADRIC]) == 0
    clean_blocks, _ = _blocks(capsys.readouterr().out)
    _invert_wrongly(monkeypatch, quadric, bumped, den_factor)

    report = run_verify(quadric)
    built = {s.name: s.to_json() for s in clean.stages}
    assert built["cayley"]["ok"] is True
    assert [s.to_json() for s in report.stages] == [built["validate"],
                                                    {**built["cayley"], "ok": False}]
    assert report.soft_failures == []
    assert report.hard_ok is False
    assert report.internal_error is None
    assert (report.exit_code(False), report.exit_code(True)) == (1, 1)

    assert cli.main(["verify", "--input", QUADRIC]) == 1
    out, err = capsys.readouterr()
    blocks, after = _blocks(out)
    assert blocks == {"validate": clean_blocks["validate"], "cayley": ["[FAIL] cayley"]}
    assert after == ["verdict: FAIL"]
    assert err == ""
    assert cli.main(["verify", "--input", QUADRIC, "--format", "json"]) == 1
    assert capsys.readouterr().out == json.dumps(report.to_json(), indent=2,
                                                 sort_keys=True) + "\n"
    assert cli.main(["verify", "--input", QUADRIC, "--strict"]) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["mellin", "horn", "nef"])
@pytest.mark.parametrize("bumped, den_factor", [((0, 2), 1), (None, 2)],
                         ids=["off-diagonal", "denominator"])
def test_a_wrong_inverse_stops_the_commands_that_read_the_forms(monkeypatch, capsys, quadric,
                                                                command, fmt, bumped,
                                                                den_factor):
    # the forms are the columns of L^-1: a command that reads them without
    # `verify` meets the failed L L^-1 = I as an internal inconsistency
    assert cli.main([command, "--input", QUADRIC, "--format", fmt]) == 0
    capsys.readouterr()
    _invert_wrongly(monkeypatch, quadric, bumped, den_factor)
    assert cli.main([command, "--input", QUADRIC, "--format", fmt]) == 3
    assert capsys.readouterr() == ("", "internal inconsistency: L L^-1 is not the identity\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_nef_ends_on_a_failed_certificate(monkeypatch, capsys, fmt):
    # the nef command meets a failed certificate as `verify` does: exit 3
    monkeypatch.setattr(nef_partition, "_closed_form_duals", _doctored_certificate())
    assert cli.main(["nef", "--input", QUADRIC, "--format", fmt]) == 3
    assert capsys.readouterr() == ("", f"internal inconsistency: {ROW_CLAUSE}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["transpose", "mellin", "horn", "poincare", "nef"])
def test_a_command_ends_on_an_internal_invariant_error(monkeypatch, capsys, command, fmt):
    # every command that needs the transposition stops on its entrywise check
    # as `verify` does: exit 3, nothing on stdout, one line on stderr
    message = "transpose mismatch at new entry (1,2)"
    monkeypatch.setattr(transposition, "_verify_permuted_transpose",
                        _raising(transposition.InternalInvariantError(message)))
    assert cli.main([command, "--input", QUADRIC, "--format", fmt]) == 3
    assert capsys.readouterr() == ("", f"internal inconsistency: {message}\n")
