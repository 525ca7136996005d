"""Hash what mirrorkit prints, to compare two checkouts output for output.

    python tests/output_snapshot.py OUT.json

writes one SHA-256 (with the exit code) per case:

* `verify <order> <i>`: `run_verify(spec, order).to_json()` of oracle spec i,
  together with `exit_code(True)`, at orders 8 and 3 on all 216
  `specgen.oracle_specs`, and `verify <order> singular_cayley_<i>` on the
  `specgen.singular_cayley_specs`;
* `cli <command> <format> <strict|plain> <name>`: stdout, stderr and the exit
  code of each `--input` command, in text and JSON, with and without
  `--strict`, on the four fixtures, on every 7th oracle spec and on the
  singular-Cayley specs;
* both kinds of case on `nonsingular_cayley_<i>`, spec i of
  `specgen.nonsingular_cayley_specs`: per error message, numbers masked, of
  `derive_weights` and of `transposition.build_transpose` given no kernel
  basis (so eliminating for the weight classes), the first spec of the
  stream to raise it; these pin the closed-form reads' errors end to end.

Run it in both checkouts and diff the two files: a line that differs is a
case whose output changed.  The file name keeps pytest from collecting it.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from mirrorkit import cli, transposition  # noqa: E402
from mirrorkit.ci_model import build_cayley, derive_weights, SpecError  # noqa: E402
from mirrorkit.pipeline import run_verify  # noqa: E402
from specgen import nonsingular_cayley_specs, oracle_specs, singular_cayley_specs  # noqa: E402

FIXTURES = TESTS.parent / "src" / "mirrorkit" / "fixtures"
INPUT_COMMANDS = [c for c in cli.COMMANDS if c != "family"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_cases(named) -> dict:
    cases = {}
    for order in (8, 3):
        for name, spec in named:
            report = run_verify(spec, order)
            text = json.dumps(report.to_json(), sort_keys=True)
            cases[f"verify {order} {name}"] = {"sha256": _sha(text),
                                              "exit_code": report.exit_code(True)}
    return cases


def cli_case(path: Path, command: str, fmt: str, strict: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--input", str(path), "--format", fmt] + (["--strict"] if strict else [])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # the input's own path must not make two checkouts differ
    text = (out.getvalue() + "\0" + err.getvalue()).replace(str(path), "<input>")
    return {"sha256": _sha(text), "exit_code": code}


def failing_specs() -> list:
    """Per masked error message of derive_weights and of build_transpose given no
    basis, the name and spec of the first nonsingular_cayley_specs spec to raise it."""
    first = {}
    for i, spec in enumerate(nonsingular_cayley_specs(300)):
        for solve in (derive_weights,
                      lambda spec: transposition.build_transpose(build_cayley(spec))):
            try:
                solve(spec)
            except SpecError as exc:
                first.setdefault(re.sub(r"\d+", "N", f"{type(exc).__name__}: {exc}"), (i, spec))
    return [(f"nonsingular_cayley_{i:03d}", spec)
            for i, spec in sorted(dict(first.values()).items())]


def cli_cases(specs, extra, workdir: Path) -> dict:
    inputs = {p.stem: p for p in sorted(FIXTURES.glob("*.json"))}
    named = [(f"oracle_{i:03d}", specs[i]) for i in range(0, len(specs), 7)] + extra
    for stem, spec in named:
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(spec.to_json()))
        inputs[stem] = path
    return {f"cli {command} {fmt} {'strict' if strict else 'plain'} {name}":
            cli_case(path, command, fmt, strict)
            for name, path in inputs.items()
            for command in INPUT_COMMANDS
            for fmt in ("text", "json")
            for strict in (False, True)}


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python tests/output_snapshot.py OUT.json\n")
        return 2
    specs = oracle_specs(FIXTURES)
    extra = [(f"singular_cayley_{i:03d}", spec) for i, spec in enumerate(singular_cayley_specs())]
    extra += failing_specs()
    with tempfile.TemporaryDirectory() as tmp:
        cases = {**verify_cases([(f"{i:03d}", spec) for i, spec in enumerate(specs)] + extra),
                 **cli_cases(specs, extra, Path(tmp))}
    Path(argv[0]).write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"{len(cases)} cases written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
