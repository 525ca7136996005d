"""Regenerate references.json from the program at the current commit.

    python3 perfbench/make_references.py

Run it only when an output change is intended: the references are what
the benchmark's correctness check compares against.  random-small gets
references for seeds 0..REFERENCE_SEEDS-1; other seeds are checked for a
zero exit code and byte-identical repeats.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    REFERENCES, CliFixtures, FamilyScaling, RandomSmall, import_program,
)

REFERENCE_SEEDS = 16


def outputs(workload, program, inputs) -> dict:
    return {key: workload.render(workload.op(program, item)).digest
            for key, item in inputs.items.items()}


def main() -> int:
    program = import_program(fresh=False)
    refs: dict = {}
    family = FamilyScaling(0)
    refs[family.name] = {str(m): d for m, d in
                         outputs(family, program, family.generate(program, {})).items()}
    cli = CliFixtures(0)
    refs[cli.name] = {f"{fx}: {cmd}": d for (fx, cmd), d in
                      outputs(cli, program, cli.generate(program, {})).items()}
    refs["random-small"] = {}
    for seed in range(REFERENCE_SEEDS):
        small = RandomSmall(seed)
        inputs = small.generate(program, {})
        by_index = outputs(small, program, inputs)
        refs["random-small"][str(seed)] = {
            "spec_digest": inputs.spec_digest,
            "outputs": [by_index[i] for i in range(len(by_index))],
        }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
