import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorkit import cli, horn_system, poincare
from mirrorkit.ci_model import CISpec
from mirrorkit.pipeline import generate_family, run_verify, soft_failures
from specgen import oracle_specs

PKG_ROOT = Path(__file__).parent.parent
# Every --input command in both formats on every fixture, and in text with
# --strict, pinned by the SHA-256 of stdout and the exit code (the outputs
# total about 600 KB, too much to keep as text goldens).
CLI_DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())


def child_env() -> dict:
    """The environment of a child process that imports this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args, text=True, timeout=None):
    """`python <args>` in a child process that imports this checkout's src/."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, cwd=PKG_ROOT, env=child_env(), timeout=timeout)


def run_module(module, *args):
    """`python -m <module> <args>` in a child process."""
    return run_python("-m", module, *args)


def run_cli(*args):
    return run_module("mirrorkit.cli", *args)


def fixture(name: str) -> str:
    return str(PKG_ROOT / "src" / "mirrorkit" / "fixtures" / name)


def test_verify_6_2_exit_zero_and_formulas():
    result = run_cli("verify", "--input", fixture("example_6_2.json"))
    assert result.returncode == 0
    # the factorized product in both renderings
    assert "Gamma(xi^(1))^3*Gamma(2*xi^(1))^2 / [Gamma(7*xi^(1))]" in result.stdout
    assert "Gamma((1 - z1)/7)^3*Gamma((2 - 2*z1)/7)^2 / [Gamma(1 - z1)]" in result.stdout
    assert "verdict: PASS" in result.stdout


def test_cayley_6_1_byte_identical_to_golden():
    result = run_cli("cayley", "--input", fixture("example_6_1.json"))
    golden = Path(fixture("golden_cayley_6_1.txt")).read_text()
    assert result.returncode == 0
    assert result.stdout == golden


def test_cayley_6_2_byte_identical_to_golden():
    result = run_cli("cayley", "--input", fixture("example_6_2.json"))
    assert result.stdout == Path(fixture("golden_cayley_6_2.txt")).read_text()


@pytest.mark.parametrize("name", ["6_1", "6_2", "quadric"])
def test_mellin_golden(name):
    spec = {"6_1": "example_6_1.json", "6_2": "example_6_2.json",
            "quadric": "derived_quadric.json"}[name]
    result = run_cli("mellin", "--input", fixture(spec))
    assert result.stdout == Path(fixture(f"golden_mellin_{name}.txt")).read_text()


def test_verify_corrupted_strict_exit_two_names_identity():
    result = run_cli("verify", "--input", fixture("corrupted_weights.json"), "--strict")
    assert result.returncode == 2
    assert "M_Y = PO_Xbar" in result.stdout


def test_verify_corrupted_lenient_annotates():
    result = run_cli("verify", "--input", fixture("corrupted_weights.json"))
    assert result.returncode == 0
    assert "soft failures" in result.stdout


def test_validate_invalid_spec_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2, "k": 2,
        "blocks": [
            {"exponents": [[2, 0]], "index_set": [1]},
            {"exponents": [[0, 2]], "index_set": [1]},
        ],
    }))
    result = run_cli("validate", "--input", str(bad))
    assert result.returncode == 1
    result = run_cli("verify", "--input", str(bad))
    assert result.returncode == 1


def test_family_command_matches_6_1_blocks():
    result = run_cli("family", "--m", "3")
    data = json.loads(result.stdout)
    with open(fixture("example_6_1.json")) as fh:
        expected = json.load(fh)
    assert data["blocks"] == expected["blocks"]
    assert data["n"] == 7 and data["k"] == 2


@pytest.mark.parametrize("m", ["0", "-2"])
def test_family_rejects_m_below_one(m, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "--m", m])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--m must be at least 1" in err


def test_generate_family_rejects_m_below_one():
    for m in (0, -2):
        with pytest.raises(ValueError, match="must be at least 1"):
            generate_family(m)
    assert generate_family(1).n == 3


def test_generate_family_bounds_m_before_building(monkeypatch):
    # the guard is checked by lowering the bound: no large spec is built
    from mirrorkit import pipeline
    assert pipeline.FAMILY_M_MAX == 200
    monkeypatch.setattr(pipeline, "FAMILY_M_MAX", 3)
    assert generate_family(3).n == 7

    def refuse(*args, **kwargs):
        raise AssertionError("a block was built")

    monkeypatch.setattr(pipeline, "Block", refuse)
    for m in (4, 10**9):
        with pytest.raises(ValueError, match="must be at most 3"):
            generate_family(m)


@pytest.mark.parametrize("m", ["201", "100000"])
def test_family_rejects_m_above_the_bound(m, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "--m", m])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith(f"--m must be at most 200, got {m}")


def test_json_output_parses_and_is_deterministic():
    a = run_cli("verify", "--input", fixture("example_6_2.json"), "--format", "json")
    b = run_cli("verify", "--input", fixture("example_6_2.json"), "--format", "json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["hard_ok"] is True
    stage_names = [s["name"] for s in report["stages"]]
    assert stage_names == ["validate", "cayley", "transpose", "forms", "mellin-plain",
                           "mellin-factorized", "horn", "char-polys", "duality",
                           "nef", "magic-square"]


def test_transpose_json_reusable_as_input(tmp_path):
    result = run_cli("transpose", "--input", fixture("example_6_2.json"),
                     "--format", "json")
    tspec = json.loads(result.stdout)["tspec"]
    path = tmp_path / "tspec.json"
    path.write_text(json.dumps(tspec))
    again = run_cli("verify", "--input", str(path))
    assert again.returncode == 0


def test_poincare_series_order_flag():
    result = run_cli("poincare", "--input", fixture("example_6_2.json"),
                     "--order", "7")
    assert "series to order 7: [1, 0, 2, 1, 3, 2, 5, 5]" in result.stdout


def test_poincare_text_expands_the_series_once(monkeypatch):
    calls = []
    real = poincare.series_expand
    monkeypatch.setattr(poincare, "series_expand", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run_in_process("poincare", "--input", fixture("example_6_2.json"),
                                  "--order", "8")
    assert code == 0 and "series to order 8: [1, 0, 2, 1, 3, 2, 5, 5, 7]" in out
    assert len(calls) == 1


def test_readme_library_imports_run():
    readme = (PKG_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library entry points", 1)[1].split("```python", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("from mirrorkit")]
    assert len(lines) >= 7
    for line in lines:
        exec(line, {})


def test_console_script_prints_what_the_module_prints():
    # the form the installed `mirrorkit` script (and the benchmark) runs
    console = "import sys; from mirrorkit.cli import main; sys.exit(main())"
    argv = ("verify", "--format", "json", "--input", fixture("example_6_1.json"))
    script = run_python("-c", console, *argv, text=False)
    module = run_python("-m", "mirrorkit", *argv, text=False)
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout and script.stdout.startswith(b"{")


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # the value classes are defined without code generation (mirrorkit.record):
    # importing dataclasses pulls in inspect, dis, ast and tokenize at start-up;
    # the program works in integers, so fractions (and with it decimal and numbers) stays out
    # (a second line): the stage modules load on first use, and the import runs none
    result = run_python("-c", "import sys, mirrorkit.cli; print(sorted({'dataclasses', "
                              "'inspect', 'fractions', 'decimal', 'numbers'} & set(sys.modules))); "
                              "print(sorted(m for m in sys.modules if m.startswith('mirrorkit.')))")
    assert result.returncode == 0
    assert result.stdout == "[]\n" + repr(sorted(f"mirrorkit.{m}" for m in ALWAYS_RUN)) + "\n"


# the modules every command runs, and the stage modules (`pipeline.StageModule`)
# each --input command runs besides
ALWAYS_RUN = ("ci_model", "cli", "pipeline", "rational_linalg", "record")
STAGE_MODULES = {
    "validate": (), "weights": (), "cayley": (),
    "transpose": ("transposition",),
    "poincare": ("transposition", "poincare"),
    "mellin": ("transposition", "mellin"),
    "nef": ("transposition", "mellin", "nef_partition"),
    "horn": ("transposition", "mellin", "horn_system", "poincare"),
    "verify": ("transposition", "mellin", "horn_system", "poincare", "nef_partition"),
}
# the console script's `main`, then, last on stderr, the mirrorkit modules that ran
MODULE_PROBE = ("import sys\n"
                "from mirrorkit.cli import main\n"
                "try:\n"
                "    code = main(sys.argv[1:])\n"
                "finally:\n"
                "    sys.stderr.write('\\n' + ' '.join(sorted(\n"
                "        m for m in sys.modules if m.startswith('mirrorkit.'))))\n"
                "sys.exit(code)\n")


@pytest.mark.parametrize("argv, stage_modules", [
    *(((command, "--input", fixture("example_6_2.json")), modules)
      for command, modules in STAGE_MODULES.items()),
    (("family", "--m", "3"), ()), (("--help",), ())])
def test_each_command_runs_only_its_stage_modules(argv, stage_modules):
    # each stage module compiles in a process that reads it, and only there
    result = run_python("-c", MODULE_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    ran = result.stderr.rsplit("\n", 1)[-1].split()
    assert ran == sorted(f"mirrorkit.{m}" for m in (*ALWAYS_RUN, *stage_modules))


# eight threads make their first `run_verify` calls at once, in a process that
# has run no stage module; prints the stage modules loaded before, the number of
# threads still running after the joins, then each thread's report or error
CONCURRENT_FIRST_USE = """
import json, sys, threading
from mirrorkit import pipeline
from mirrorkit.ci_model import CISpec

spec = CISpec.load(sys.argv[1])
print(sorted(m for m in sys.modules if m.startswith("mirrorkit.")))
barrier, results = threading.Barrier(8, timeout=60), [None] * 8

def first_use(i):
    try:
        barrier.wait()
        results[i] = pipeline.run_verify(spec).to_json()
    except BaseException as exc:
        results[i] = repr(exc)

threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)   # switch threads often, in the modules' code too
try:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
print(sum(thread.is_alive() for thread in threads))
print(json.dumps(results))
"""


def test_concurrent_first_use_of_the_stage_modules():
    path = fixture("example_6_1.json")
    result = run_python("-c", CONCURRENT_FIRST_USE, path, timeout=300)
    assert result.returncode == 0, result.stderr
    loaded, running, reports = result.stdout.splitlines()
    assert loaded == repr(sorted(f"mirrorkit.{m}" for m in ALWAYS_RUN if m != "cli"))
    assert running == "0"
    expected = json.loads(json.dumps(run_verify(CISpec.load(path)).to_json()))
    assert json.loads(reports) == [expected] * 8


# `mirrorkit --help` at 80 columns (CPython 3.11's argparse layout); it states
# SERIES_TERM_CAP, which `ci_model` defines for `poincare`, and FAMILY_M_MAX
HELP_SHA256 = "7ba9dcba1f047b382c5dd7af38209e42db222d2170e566db470268ce9739c5f1"


def test_help_text_is_pinned():
    result = subprocess.run([sys.executable, "-m", "mirrorkit", "--help"], capture_output=True,
                            cwd=PKG_ROOT, env=dict(child_env(), COLUMNS="80"))
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == HELP_SHA256
    text = result.stdout.decode()
    assert f"at most {poincare.SERIES_TERM_CAP}\n" in text and poincare.SERIES_TERM_CAP == 2000
    assert text.endswith("command, 1 to 200\n")


def test_missing_input_is_an_error():
    result = run_cli("verify")
    assert result.returncode == 2  # argparse usage error


def test_single_stage_precondition_failure_exit_two(tmp_path):
    # monomial counts (2,2) vs index-set sizes (1,3): no mirror shape exists
    spec = tmp_path / "untransposable.json"
    spec.write_text(json.dumps({
        "n": 4, "k": 2,
        "blocks": [
            {"exponents": [[0, 0, 1, 0], [0, 0, 0, 2]], "index_set": [3]},
            {"exponents": [[2, 0, 0, 1], [1, 1, 0, 1]], "index_set": [1, 2, 4]},
        ],
    }))
    for command in ("transpose", "mellin", "nef"):
        result = run_cli(command, "--input", str(spec))
        assert result.returncode == 2, (command, result.stderr)
        assert "precondition failed" in result.stderr
    # the full chain degrades gracefully instead
    result = run_cli("verify", "--input", str(spec))
    assert result.returncode == 0


def run_in_process(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


SINGULAR_CAYLEY = {"n": 2, "k": 1,
                   "blocks": [{"exponents": [[1, 0], [1, 0]], "index_set": [1, 2]}]}


@pytest.mark.parametrize("command, code", [
    ("validate", 1), ("weights", 1), ("cayley", 0), ("transpose", 2), ("mellin", 2),
    ("horn", 1), ("poincare", 2), ("nef", 2), ("verify", 1)])
def test_singular_cayley_matrix_exit_codes(tmp_path, command, code):
    # structurally valid, but no positive weights and a singular Cayley matrix
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_CAYLEY))
    got, _, err = run_in_process(command, "--input", str(path))
    assert got == code, err
    if command == "horn":
        assert err == "invalid specification: matrix is singular\n"


def test_singular_cayley_matrix_no_traceback(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_CAYLEY))
    result = run_module("mirrorkit", "horn", "--input", str(path))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("invalid specification:")


# monomial counts (2,2) against index-set sizes (1,3): no mirror shape exists
UNTRANSPOSABLE = {"n": 4, "k": 2,
                  "blocks": [{"exponents": [[0, 0, 1, 0], [0, 0, 0, 2]], "index_set": [3]},
                             {"exponents": [[2, 0, 0, 1], [1, 1, 0, 1]], "index_set": [1, 2, 4]}]}


def fresh_and_in_process(*args):
    """(exit code, stdout, stderr) of `python -m mirrorkit <args>`, and of `cli.main`."""
    result = run_module("mirrorkit", *args)
    return (result.returncode, result.stdout, result.stderr), run_in_process(*args)


# cli._main's except chain catches the stage modules' errors by their base
# classes in `ci_model`: a fresh process has loaded only the stage modules its
# command reads, and this process has loaded them all
@pytest.mark.parametrize("spec", [SINGULAR_CAYLEY, UNTRANSPOSABLE])
def test_a_fresh_process_exits_as_one_with_every_module_loaded(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for command in STAGE_MODULES:
        fresh, in_process = fresh_and_in_process(command, "--input", str(path))
        assert fresh == in_process, command


def test_a_fresh_process_meets_the_horn_and_series_caps_as_one(tmp_path):
    family = tmp_path / "family_81.json"
    family.write_text(run_in_process("family", "--m", "81")[1])
    fresh, in_process = fresh_and_in_process("horn", "--input", str(family))
    assert fresh == in_process == (1, "", "cannot build the Horn operators: variable 1: "
                                          "1062882 p-factors exceed the cap of 1000000\n")
    fresh, in_process = fresh_and_in_process(
        "poincare", "--input", fixture("example_6_2.json"), "--order", "5000")
    assert fresh == in_process == (1, "", "cannot expand the series: order 5000 in 1 "
                                          "variable(s) allows 5001 series terms, above the "
                                          "cap of 2000\n")


def test_horn_factor_limit_exit_one(monkeypatch):
    # the quadric's operator has 8 factors per side
    monkeypatch.setattr(horn_system, "FACTOR_COUNT_CAP", 7)
    for fmt in ("text", "json"):
        assert run_in_process("horn", "--input", fixture("derived_quadric.json"),
                              "--format", fmt) == \
            (1, "", "cannot build the Horn operators: "
                    "variable 1: 8 p-factors exceed the cap of 7\n")
    code, out, _ = run_in_process("verify", "--input", fixture("derived_quadric.json"))
    assert code == 1 and "8 p-factors exceed the cap of 7" in out


def test_series_term_limit_exit_one(monkeypatch):
    # the default order 8 gives C(9, 1) = 9 terms at k = 1 and 45 at k = 2
    monkeypatch.setattr(poincare, "SERIES_TERM_CAP", 8)
    for fmt in ("text", "json"):
        assert run_in_process("poincare", "--input", fixture("derived_quadric.json"),
                              "--format", fmt) == \
            (1, "", "cannot expand the series: order 8 in 1 variable(s) allows 9 series "
                    "terms, above the cap of 8\n")
    code, out, err = run_in_process("verify", "--input", fixture("derived_quadric.json"))
    assert (code, out) == (1, "") and err.startswith("cannot expand the series: ")
    assert run_in_process("poincare", "--input", fixture("derived_quadric.json"),
                          "--order", "7")[0] == 0
    code, _, err = run_in_process("poincare", "--input", fixture("example_6_1.json"),
                                  "--order", "2")
    assert code == 0, err
    code, _, err = run_in_process("poincare", "--input", fixture("example_6_1.json"))
    assert code == 1 and "order 8 in 2 variable(s) allows 45 series terms" in err


def test_wrong_length_weights_annotation_is_a_soft_failure(tmp_path):
    data = json.loads(Path(fixture("example_6_2.json")).read_text())
    data["weights"] = [[3, 2, 2, 7]]
    path = tmp_path / "short_weights.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_in_process("validate", "--input", str(path))
    assert code == 0 and "FAIL  weights_supplied_consistent" in out
    code, out, _ = run_in_process("verify", "--input", str(path))
    assert code == 0
    assert "  - validate: weights_supplied_consistent\n" in out
    assert run_in_process("verify", "--input", str(path), "--strict")[0] == 2
    # the views fall back to the derived weights, which the fixture's own
    # annotation equals
    for command in ("poincare", "horn"):
        assert run_in_process(command, "--input", str(path)) == \
            run_in_process(command, "--input", fixture("example_6_2.json"))


def test_structurally_invalid_spec_exits_one_from_every_reader(tmp_path):
    # exponent vectors longer than n, and one block more than k: the weight
    # derivation and the charge LCMs indexed past the end of a row on these
    data = json.loads(Path(fixture("example_6_2.json")).read_text())
    for spec, problem in ((dict(data, n=4), "exponent vector of length 5"),
                          (dict(data, blocks=data["blocks"] * 2), "k=1 but 2 blocks given")):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_in_process("weights", "--input", str(path))
        assert code == 1 and err.startswith("invalid specification:") and problem in err
        for command in ("validate", "verify"):
            code, out, _ = run_in_process(command, "--input", str(path), "--format", "json")
            assert code == 1 and json.loads(out)


def test_python_m_mirrorkit_runs_the_cli():
    result = run_module("mirrorkit", "family", "--m", "3")
    assert result.returncode == 0
    assert result.stdout == run_cli("family", "--m", "3").stdout


class WriteRecorder(io.StringIO):
    """A text stream that keeps the length of every `write`."""

    def __init__(self):
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


def recorded_json(*argv) -> WriteRecorder:
    """What `mirrorkit <argv> --format json` writes to stdout, write by write."""
    out = WriteRecorder()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return out


def test_a_json_report_takes_a_few_writes():
    # json.dump with indent set writes once per token, 15,043 times for this
    # report, and into an unbuffered stdout each write is a write into the pipe
    out = recorded_json("verify", "--input", fixture("example_6_2.json"))
    assert len(out.writes) <= 4
    report = run_verify(CISpec.load(fixture("example_6_2.json")))
    assert out.getvalue() == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def test_a_reader_that_closes_early_gets_no_traceback(tmp_path):
    # `mirrorkit verify --format json ... | head -c N`: the report (about 1.4 MB)
    # is written in several chunks, each far larger than a pipe holds, and the
    # reader closes the pipe in the middle of the second
    path = tmp_path / "family_12.json"
    path.write_text(json.dumps(generate_family(12).to_json()))
    expected = recorded_json("verify", "--input", str(path))
    assert len(expected.writes) >= 3
    head = expected.writes[0] + expected.writes[1] // 2
    child = subprocess.Popen(
        [sys.executable, "-m", "mirrorkit", "verify", "--format", "json", "--input", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT, env=child_env())
    first = child.stdout.read(head)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert first == expected.getvalue()[:head].encode("ascii")
    assert err == b""


def cli_case_digest(command: str, fmt: str, name: str, *flags: str) -> dict:
    """SHA-256 of what `mirrorkit <command> --format <fmt> <flags>` prints for a fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--input", fixture(f"{name}.json"), "--format", fmt, *flags])
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "exit_code": code}


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS))
def test_cli_output_digest(case):
    assert cli_case_digest(*case.split()) == CLI_DIGESTS[case]


@pytest.mark.parametrize("command, stage", [("validate", "validate"), ("transpose", "transpose"),
                                            ("poincare", "duality"), ("nef", "nef")])
def test_strict_fails_on_the_soft_failures_verify_lists(tmp_path, fixtures_dir, command, stage):
    # verify is the oracle: a command's --strict exits 2 exactly when verify
    # lists a soft failure among the flags of the command's stage
    specs = oracle_specs(fixtures_dir)
    outcomes = []
    for i, spec in enumerate(specs[::7] + specs[-4:]):
        report = run_verify(spec)
        flags = next((s.flags for s in report.stages if s.name == stage), {})
        if not flags or "transposable" in flags:
            continue   # not reached, or the command stops with a precondition error
        listed = [f for f in report.soft_failures if f in {f"{stage}: {n}" for n in flags}]
        assert listed == soft_failures(stage, flags)
        path = tmp_path / f"spec_{i}.json"
        path.write_text(json.dumps(spec.to_json()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--input", str(path)]) == 0
            code = cli.main([command, "--input", str(path), "--strict"])
        assert code == (2 if listed else 0)
        outcomes.append(code)
    assert len(outcomes) >= 15   # 18 of the 35 specs reach each of these stages


def test_nef_informational_flags_are_not_soft_failures():
    # five_six_2_own_vertex is false on every spec that reaches nef, the
    # self-mirror quadric included; it, lemma52_* and integral_P_* only inform
    flags = {"minkowski_dim": True, "integral_P_section": False, "phi_kronecker": True,
             "cone_pairings_nonnegative": True, "five_six_2_own_vertex": False,
             "lemma52_G_identity": False}
    assert soft_failures("nef", flags) == []
    assert soft_failures("nef", {**flags, "phi_kronecker": False}) == ["nef: phi_kronecker"]
    assert soft_failures("duality", {"a": True, "b": False, "c": False}) == \
        ["duality: b", "duality: c"]


QUADRIC_BLOCK = {"exponents": [[2, 0], [0, 2]], "index_set": [1, 2]}
MALFORMED_SPECS = {
    "top-level list": ([1, 2], "specification: expected a JSON object, got a list"),
    "blocks object": ({"n": 2, "k": 1, "blocks": {"a": 1}},
                      "blocks: expected a list, got an object"),
    "exponents number": ({"n": 2, "k": 1, "blocks": [{"exponents": 5, "index_set": [1, 2]}]},
                         "blocks[0].exponents: expected a list, got 5"),
    "fractional exponent": ({"n": 2, "k": 1, "blocks": [
                                {"exponents": [[2, 0], [0, 2.5]], "index_set": [1, 2]}]},
                            "blocks[0].exponents[1][1]: expected an integer, got 2.5"),
    "boolean k": ({"n": 2, "k": True, "blocks": [QUADRIC_BLOCK]},
                  "k: expected a positive integer, got true"),
    "empty spec": ({"n": 0, "k": 0, "blocks": []},
                   "n: expected a positive integer, got 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_is_invalid_with_json_path(tmp_path, case):
    data, message = MALFORMED_SPECS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "verify"):
        assert run_in_process(command, "--input", str(path)) == \
            (1, "", f"invalid specification: {message}\n")


def test_malformed_spec_no_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "blocks": [
        {"exponents": [[2, 0], [0, 2.5]], "index_set": [1, 2]}]}))
    result = run_module("mirrorkit", "verify", "--input", str(path))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == ("invalid specification: "
                             "blocks[0].exponents[1][1]: expected an integer, got 2.5\n")


def test_deeply_nested_json_is_one_line_and_exit_one(tmp_path):
    # json.load raises RecursionError on nesting past the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    for command in (c for c in cli.COMMANDS if c != "family"):
        code, out, err = run_in_process(command, "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("cannot read specification: ") and err.count("\n") == 1
    result = run_module("mirrorkit", "verify", "--input", str(path))
    assert (result.returncode, result.stdout) == (1, "")
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("cannot read specification: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
