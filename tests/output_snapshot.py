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
  singular-Cayley specs.

Run it in both checkouts and diff the two files: a line that differs is a
case whose output changed.  The file name keeps pytest from collecting it.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from mirrorkit import cli  # noqa: E402
from mirrorkit.pipeline import run_verify  # noqa: E402
from specgen import oracle_specs, singular_cayley_specs  # noqa: E402

FIXTURES = TESTS.parent / "src" / "mirrorkit" / "fixtures"
INPUT_COMMANDS = [c for c in cli.COMMANDS if c != "family"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_cases(specs, prefix: str = "") -> dict:
    cases = {}
    for order in (8, 3):
        for i, spec in enumerate(specs):
            report = run_verify(spec, order)
            text = json.dumps(report.to_json(), sort_keys=True)
            cases[f"verify {order} {prefix}{i:03d}"] = {"sha256": _sha(text),
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


def cli_cases(specs, singular, workdir: Path) -> dict:
    inputs = {p.stem: p for p in sorted(FIXTURES.glob("*.json"))}
    named = [(f"oracle_{i:03d}", specs[i]) for i in range(0, len(specs), 7)]
    named += [(f"singular_cayley_{i:03d}", spec) for i, spec in enumerate(singular)]
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
    specs, singular = oracle_specs(FIXTURES), singular_cayley_specs()
    with tempfile.TemporaryDirectory() as tmp:
        cases = {**verify_cases(specs), **verify_cases(singular, "singular_cayley_"),
                 **cli_cases(specs, singular, Path(tmp))}
    Path(argv[0]).write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"{len(cases)} cases written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
