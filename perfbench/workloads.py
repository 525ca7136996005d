"""The benchmark's workloads: inputs, op schedule, the op itself and its check.

Each workload is a closed loop: one caller in one process sends the next
op only after the previous one returns.  Ops run in *decks*: a deck is a
fixed multiset of inputs, shuffled by the seed, and a run executes whole
decks.  How many depends on --seconds only (Workload.decks), never on how
fast the program is, so a commit and its parent run the same ops and take
the tail at the same rank.  The deck weights are chosen so that, at the
deck count of the committed run length, the median and the tail rank (see
stats.tail) fall inside one input cluster, not on the edge between two.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import specgen
from stats import digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "mirrorkit" / "fixtures"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# family member m -> ops per deck.  With two to four decks the median
# lands in the middle of the m=7 cluster and the tail rank (ten samples
# beyond) in its upper part: the m=10 and m=12 ops sit above the tail, and
# their time, half of each deck's, weighs on ops_per_s.
FAMILY_DECK = {5: 2, 7: 8, 10: 1, 12: 1}

# block sizes -> specs in the random-small pool (344 specs, Cayley sizes 4-14).
# The pool is larger than the 60 specs that would show the program's
# behaviour, so that its median and tail swing less with one seed's draws.
# One-block ops cluster by class: (2,) about 2.3 ms (not transposable),
# (1,) 3.2 ms, (3,) 3.6-4.5 ms, (4,) 5-7.5 ms on the reference machine.
# With these counts the median falls in the middle of the (3,) cluster,
# not on an edge, and the tail rank among the 48 (4, 4) specs, whose
# eleventh slowest varies over ten seeds by 0.055 of its median (quartile
# distance), against 0.19 with 16 of them.
RANDOM_QUOTAS = {
    (1,): 40, (2,): 40, (3,): 112, (4,): 64,
    (1, 1): 4, (1, 2): 4, (1, 3): 4, (1, 4): 4, (2, 2): 4,
    (2, 3): 4, (2, 4): 4, (3, 3): 4, (3, 4): 8, (4, 4): 48,
}
# Each one-block spec appears this many times per deck, each two-block spec
# once, and a deck is long enough to be a whole run.  The median then falls
# among the many small specs, and the tail rank among single runs of the
# 48 (4, 4) specs instead of on the repeats of the slowest one.  Only the
# one-block specs with one monomial are always transposable, so about 80%
# of a deck's ops take the soft path; README.md gives the deck's
# measured layer shares.
RANDOM_SMALL_REPEAT = 8

CLI_FIXTURES = ("derived_quadric", "example_6_2", "example_6_1")
# `verify --format json`, the command the pipeline exists for, runs three
# times per deck and every other command once.  Its runs on Examples 6.1
# and 6.2 and the text `verify` of 6.1 are the slowest ops: 7 of a deck's
# 30, so at four decks the tail rank (ten samples beyond) falls inside
# that cluster of 28 instead of on its lower edge.
CLI_VERIFY_REPEAT = 3
CLI_COMMANDS = (("verify", "--format", "json"), ("verify",), ("cayley",), ("mellin",),
                ("horn",), ("poincare",), ("nef",), ("transpose",))
# (fixture, command) -> golden file whose bytes the command's stdout must equal.
GOLDEN = {
    ("example_6_1", "cayley"): "golden_cayley_6_1.txt",
    ("example_6_2", "cayley"): "golden_cayley_6_2.txt",
    ("example_6_1", "mellin"): "golden_mellin_6_1.txt",
    ("example_6_2", "mellin"): "golden_mellin_6_2.txt",
    ("derived_quadric", "mellin"): "golden_mellin_quadric.txt",
}
# What the `mirrorkit` console script runs.
CONSOLE_SCRIPT = "import sys; from mirrorkit.cli import main; sys.exit(main())"


class ProgramMissingError(Exception):
    """The checkout does not hold the program's sources."""


def require_sources() -> None:
    if not (SRC / "mirrorkit" / "__init__.py").is_file():
        raise ProgramMissingError(f"no program sources under {SRC}")


def import_program(fresh: bool) -> dict:
    """Import the program's modules; with fresh, re-execute them from scratch."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "mirrorkit" or m.startswith("mirrorkit.")]:
            del sys.modules[name]
    names = ("ci_model", "pipeline", "cli")
    return {n: importlib.import_module(f"mirrorkit.{n}") for n in names}


class Output(NamedTuple):
    """What an op printed, as a digest, and its exit code."""

    digest: str
    exit_code: int
    body: bytes | None = None   # kept only where a golden file is compared


def verify_output(report) -> Output:
    """The digest of the report's canonical JSON, and the CLI's exit code for it.

    Canonical JSON is compact and key-sorted, the same content
    `mirrorkit verify --format json` prints; the C encoder makes it cheap
    enough to check every op.
    """
    return Output(digest(specgen.canonical(report.to_json())), report.exit_code(False))


class Checker:
    """Every op's output must match its expectation.

    The exit code must be 0.  The output must equal, in order: a golden
    file, the committed reference digest, or else the first output seen for
    the same input in this run (repeats must be byte-identical).
    """

    def __init__(self, golden: dict | None = None, references: dict | None = None):
        self.golden = golden or {}
        self.references = references or {}
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, key, output: Output | None) -> bool:
        self.attempted += 1
        ok = output is not None and output.exit_code == 0
        if ok and key in self.golden:
            ok = output.body == self.golden[key]
        if ok:
            want = self.references.get(key) or self.seen.setdefault(key, output.digest)
            ok = output.digest == want
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(str(key))
        return ok

    def absorb(self, other: "Checker") -> None:
        """Count another checker's ops as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)


@dataclass
class Inputs:
    """One workload's generated inputs."""

    items: dict            # key -> input the op receives
    deck: list             # keys of one deck, unshuffled
    spec_digest: str       # digest of the generated spec set
    checker: Checker


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    in_process = True
    # One deck's time at the reference speed (speed.py, perfbench/README.md),
    # rounded; it turns --seconds into a deck count and is never re-measured.
    deck_seconds = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.order_rng = random.Random(f"{self.name}/{seed}/order")

    def generate(self, program: dict, refs: dict) -> Inputs:
        """Inputs for this seed, checked against refs (this workload's references)."""
        raise NotImplementedError

    def op(self, program: dict, item):
        """The timed call; returns what render() turns into an Output."""
        raise NotImplementedError

    def render(self, result) -> Output:
        raise NotImplementedError

    def decks(self, seconds: float) -> int:
        """Whole decks in a run of about `seconds` on the reference machine."""
        return max(1, round(seconds / self.deck_seconds))

    def next_deck(self, inputs: Inputs) -> list:
        deck = list(inputs.deck)
        self.order_rng.shuffle(deck)
        return deck


class _VerifyWorkload(Workload):
    def op(self, program, spec):
        return program["pipeline"].run_verify(spec)

    def render(self, report) -> Output:
        return verify_output(report)


class FamilyScaling(_VerifyWorkload):
    name = "family-scaling"
    deck_seconds = 6.5

    def generate(self, program, refs):
        family = {m: specgen.family_spec(m) for m in FAMILY_DECK}
        from_json = program["ci_model"].CISpec.from_json
        deck = [m for m, count in FAMILY_DECK.items() for _ in range(count)]
        return Inputs(items={m: from_json(d) for m, d in family.items()}, deck=deck,
                      spec_digest=digest(specgen.canonical(list(family.values()))),
                      checker=Checker(references={int(m): d for m, d in refs.items()}))


class RandomSmall(_VerifyWorkload):
    name = "random-small"
    deck_seconds = 12.0

    def generate(self, program, refs):
        pool = specgen.spec_pool(self.seed, RANDOM_QUOTAS)
        from_json = program["ci_model"].CISpec.from_json
        items = {i: from_json(d) for i, d in enumerate(pool)}
        deck = [i for i, d in enumerate(pool) for _ in range(1 if d["k"] > 1 else RANDOM_SMALL_REPEAT)]
        spec_digest = digest(specgen.canonical(pool))
        expected = {}
        committed = refs.get(str(self.seed))
        if committed is not None:
            if committed["spec_digest"] != spec_digest:
                raise RuntimeError(f"seed {self.seed}: spec set {spec_digest} differs "
                                   f"from the committed {committed['spec_digest']}")
            expected = dict(enumerate(committed["outputs"]))
        return Inputs(items=items, deck=deck, spec_digest=spec_digest,
                      checker=Checker(references=expected))


class CliFixtures(Workload):
    name = "cli-fixtures"
    in_process = False
    deck_seconds = 4.0

    def generate(self, program, refs):
        items = {(fx, " ".join(cmd)): [cmd[0], "--input", str(FIXTURES / f"{fx}.json"), *cmd[1:]]
                 for fx in CLI_FIXTURES for cmd in CLI_COMMANDS}
        golden = {key: (FIXTURES / name).read_bytes() for key, name in GOLDEN.items()}
        spec_digest = digest(b"".join((FIXTURES / f"{fx}.json").read_bytes() for fx in CLI_FIXTURES))
        deck = [key for key in items
                for _ in range(CLI_VERIFY_REPEAT if key[1] == "verify --format json" else 1)]
        return Inputs(items=items, deck=deck, spec_digest=spec_digest,
                      checker=Checker(golden=golden,
                                      references={tuple(k.split(": ", 1)): d for k, d in refs.items()}))

    def op(self, program, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], env=env,
                              cwd=ROOT, capture_output=True, timeout=120)
        return proc.stdout, proc.returncode

    def render(self, result) -> Output:
        stdout, code = result
        return Output(digest(stdout), code, stdout)

    @staticmethod
    def op_in_process(program, argv):
        """The same command through cli.main in this process (traced runs)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = program["cli"].main(list(argv))
        return out.getvalue().encode(), code


WORKLOADS = {w.name: w for w in (FamilyScaling, RandomSmall, CliFixtures)}
