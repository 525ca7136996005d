"""mirrorkit benchmark: one workload, one closed-loop run, one JSON result line.

    python3 perfbench/run.py --workload family-scaling --seed 1 --seconds 15 --trace 0

With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it runs the same decks untraced and then traced, and
reports the per-layer metrics.  Every op's output is checked.  End-to-end
times are scaled by the machine's speed, sampled between ops (speed.py);
the raw wall times are in the run metadata.  The last line of stdout is
the result; the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SRC, WORKLOADS, CliFixtures, ProgramMissingError, import_program, load_references,
    require_sources,
)

SETUPS = 3
SETUP_PROBES = 4              # probes taken before and after each set-up and run
PROBE_OP = 1_000_000          # op ids of the fixture probe in traced runs
PROBE_REPEATS = 5
OUT = Path(__file__).resolve().parent / "out"


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def source_digest() -> str:
    files = sorted((SRC / "mirrorkit").rglob("*.py"))
    return stats.digest(b"".join(f.relative_to(SRC).as_posix().encode() + f.read_bytes()
                                 for f in files))


def timed_ops(workload, program, inputs, keys, op, latencies, probe=None, tracer=None,
              first_op=0) -> None:
    """Run the ops in order, timing each call and checking its output after.

    Appends (start, wall seconds) per op to latencies; with a probe, the
    machine's speed is sampled before an op, outside its timing.
    """
    for i, key in enumerate(keys):
        if probe is not None:
            probe.maybe_sample()
        if tracer is not None:
            tracer.op = first_op + i
        start = time.perf_counter()
        try:
            result = op(program, inputs.items[key])
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        latencies.append((start, time.perf_counter() - start))
        output = None if isinstance(result, Exception) else workload.render(result)
        inputs.checker.check(key, output)


def run_decks(workload, program, inputs, decks: int, op, latencies, probe) -> list:
    """Run `decks` whole decks; returns the keys run, in order."""
    keys: list = []
    for _ in range(decks):
        deck = workload.next_deck(inputs)
        timed_ops(workload, program, inputs, deck, op, latencies, probe)
        keys.extend(deck)
    probe.sample(SETUP_PROBES)
    return keys


def scaled(latencies, probe) -> list[float]:
    """Each op's wall seconds scaled to the reference machine's speed."""
    return [seconds * probe.scale(start + seconds / 2) for start, seconds in latencies]


def set_up(workload, probe):
    """Import, generate inputs, one warm-up pass.

    Returns (wall seconds, scaled seconds, program, inputs); the scale is
    that of the probes taken just before, during and just after it.
    """
    probe.sample(SETUP_PROBES)
    first = len(probe.seconds) - SETUP_PROBES
    start = time.perf_counter()
    program = import_program(fresh=True) if workload.in_process else None
    inputs = workload.generate(program, load_references().get(workload.name, {}))
    timed_ops(workload, program, inputs, list(inputs.items), workload.op, [], probe)
    elapsed = time.perf_counter() - start
    probe.sample(SETUP_PROBES)
    local = statistics.median(probe.seconds[first:])
    return elapsed, elapsed * speed.REFERENCE_PROBE_S / local, program, inputs


def timing_metrics(op_seconds: list[float], setups: list[float]) -> dict:
    tail_value, _, _ = stats.tail(op_seconds)
    return {
        "op_p50_ms": (1000.0 * statistics.median(op_seconds), "ms"),
        "op_tail_ms": (1000.0 * tail_value, "ms"),
        "ops_per_s": (len(op_seconds) / sum(op_seconds), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }


def plain_run(workload, seconds: float):
    probe = speed.SpeedProbe()
    setups, wall_setups = [], []
    for _ in range(SETUPS):
        elapsed, elapsed_scaled, program, inputs = set_up(workload, probe)
        wall_setups.append(elapsed)
        setups.append(elapsed_scaled)
    latencies: list[tuple[float, float]] = []
    keys = run_decks(workload, program, inputs, workload.decks(seconds), workload.op, latencies,
                     probe)
    op_seconds = scaled(latencies, probe)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = timing_metrics(op_seconds, setups)
    metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024.0, "MB")
    wall = timing_metrics([s for _, s in latencies], wall_setups)
    _, rank, pct = stats.tail(op_seconds)
    info = {"samples": len(latencies), "decks": len(keys) // len(inputs.deck), "tail_rank": rank,
            "tail_percentile": round(pct, 3), "setup_runs_s": setups,
            "wall": {name: value for name, (value, _) in wall.items()},
            "probe_ms": [1000.0 * q for q in statistics.quantiles(probe.seconds, n=4)],
            "probes": len(probe.seconds)}
    return metrics, inputs, info


def interpreter_probe(code: str) -> float:
    """Median wall seconds of a fresh interpreter running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(workload, seconds: float):
    """Half the plain run's decks untraced, then the same decks traced."""
    probe = speed.SpeedProbe()
    _, _, program, inputs = set_up(workload, probe)
    program = program or import_program(fresh=False)
    stdout_sizes: list[int] = []

    def cli_op(program, argv):
        stdout, code = CliFixtures.op_in_process(program, argv)
        stdout_sizes.append(len(stdout))
        return stdout, code

    op = workload.op if workload.in_process else cli_op
    plain: list[tuple[float, float]] = []
    keys = run_decks(workload, program, inputs, max(1, workload.decks(seconds) // 2), op, plain,
                     probe)

    stdout_sizes.clear()
    tracer = tracing.Tracer()
    traced: list[tuple[float, float]] = []
    ops = set(range(len(keys)))
    cli_ops = ops
    tracer.install()
    try:
        timed_ops(workload, program, inputs, keys, op, traced, probe, tracer)
        probe.sample(SETUP_PROBES)
        if workload.in_process:
            # the CLI layer is probed on the fixtures' `verify --format json`
            fixtures = CliFixtures(workload.seed)
            probe_inputs = fixtures.generate(program, load_references().get(fixtures.name, {}))
            probe_keys = [k for k in probe_inputs.items if k[1] == "verify --format json"]
            timed_ops(fixtures, program, probe_inputs, probe_keys, cli_op, [], None, tracer,
                      PROBE_OP)
            inputs.checker.absorb(probe_inputs.checker)
            cli_ops = set(range(PROBE_OP, PROBE_OP + len(probe_keys)))
    finally:
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer, ops)
    metrics["cli.main.self_ms"] = tracing.layer_metrics(tracer, cli_ops)["cli.main.self_ms"]
    interpreter = interpreter_probe("pass")
    metrics["cli.interpreter_ms"] = (1000.0 * interpreter, "ms")
    metrics["cli.import_ms"] = (1000.0 * (interpreter_probe("import mirrorkit.cli") - interpreter), "ms")
    metrics["cli.output_bytes"] = (sum(stdout_sizes) / len(stdout_sizes), "bytes")
    overhead = statistics.median(scaled(traced, probe)) / statistics.median(scaled(plain, probe))
    metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    info = {"samples": len(traced), "untraced_samples": len(plain), "spans": len(tracer.spans)}
    return metrics, inputs, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg()}
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        require_sources()
        meta["source_digest"] = source_digest()
        workload = WORKLOADS[args.workload](args.seed)
        run = traced_run if args.trace else plain_run
        metrics, inputs, info = run(workload, args.seconds)
    except (OSError, ProgramMissingError) as exc:
        sys.stderr.write(f"benchmark cannot run here: {exc}\n")
        return 2
    meta.update(info, spec_digest=inputs.spec_digest)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"metrics not produced: {missing}\n")
        return 3
    checker = inputs.checker
    for m in wanted:
        value, unit = metrics[m["name"]]
        print(f"{m['name']:40s} {value:14.4f} {unit}")
    print(f"{'fail_ratio':40s} {checker.failed / checker.attempted:14.4f} "
          f"({checker.failed}/{checker.attempted}) {' '.join(checker.mismatches)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
