"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json

import speed
import specgen
import stats
import tracing
from workloads import (
    FAMILY_DECK, FIXTURES, RANDOM_QUOTAS, ROOT, WORKLOADS, Checker, CliFixtures, Output,
    import_program, verify_output,
)


def test_tail_leaves_ten_samples_beyond():
    value, rank, pct = stats.tail([float(x) for x in range(100, 0, -1)])
    assert (value, rank, pct) == (90.0, 90, 90.0)


def test_tail_of_few_samples_falls_back_to_median_rank():
    value, rank, _ = stats.tail([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (value, rank) == (3.0, 3)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 7.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_speed_scale_uses_the_median_of_the_nearest_probes():
    probe = speed.SpeedProbe()
    probe.at = [float(t) for t in range(20)]
    # a slow episode from t=10 on, with one stray probe inside it
    probe.seconds = [0.001] * 10 + [0.002] * 4 + [0.001] + [0.002] * 5
    assert probe.local(3.0) == 0.001
    assert probe.local(15.0) == 0.002
    assert probe.local(-5.0) == probe.local(0.0) == 0.001
    assert probe.scale(17.5) == speed.REFERENCE_PROBE_S / 0.002


def test_speed_probe_samples_at_most_once_per_interval():
    probe = speed.SpeedProbe()
    probe.sample(3)
    probe.maybe_sample()
    assert len(probe.at) == len(probe.seconds) == 3
    assert probe.at == sorted(probe.at) and all(s > 0 for s in probe.seconds)


def test_checker_flags_a_single_flipped_byte():
    good = b'{"hard_ok": true}\n'
    checker = Checker(references={"x": stats.digest(good)})
    assert checker.check("x", Output(stats.digest(good), 0))
    flipped = bytearray(good)
    flipped[3] ^= 0x01
    assert not checker.check("x", Output(stats.digest(bytes(flipped)), 0))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_checker_without_reference_requires_identical_repeats_and_exit_zero():
    checker = Checker()
    assert checker.check("x", Output("a", 0))
    assert not checker.check("x", Output("b", 0))
    assert not checker.check("y", Output("a", 3))
    assert not checker.check("z", None)
    assert checker.failed == 3


def test_checker_compares_golden_bytes():
    checker = Checker(golden={"g": b"matrix\n"})
    assert checker.check("g", Output(stats.digest(b"matrix\n"), 0, b"matrix\n"))
    assert not checker.check("g", Output(stats.digest(b"matrix \n"), 0, b"matrix \n"))


def test_verify_digest_covers_what_the_cli_prints():
    program = import_program(fresh=False)
    spec = program["ci_model"].CISpec.load(FIXTURES / "example_6_2.json")
    output = verify_output(program["pipeline"].run_verify(spec))
    argv = ["verify", "--input", str(FIXTURES / "example_6_2.json"), "--format", "json"]
    stdout, code = CliFixtures.op_in_process(program, argv)
    assert output == (stats.digest(specgen.canonical(json.loads(stdout))), code, None)


def test_generator_is_deterministic_per_seed():
    quotas = {(2,): 3, (1, 3): 2}
    first = specgen.spec_pool(7, quotas)
    assert first == specgen.spec_pool(7, quotas)
    assert first != specgen.spec_pool(8, quotas)
    assert [sum(len(b["exponents"]) for b in s["blocks"]) for s in first] == [2, 2, 2, 4, 4]


def test_generated_specs_are_valid_for_the_program():
    program = import_program(fresh=False)
    pool = specgen.spec_pool(3, {taus: 1 for taus in RANDOM_QUOTAS})
    for data in pool:
        report = program["ci_model"].validate(program["ci_model"].CISpec.from_json(data))
        assert report.ok, report.notes


def test_family_spec_matches_the_program_family():
    program = import_program(fresh=False)
    for m in (3, *FAMILY_DECK):
        assert program["pipeline"].generate_family(m).to_json() == specgen.family_spec(m)


def test_tracer_rebinds_copied_names_and_restores_them():
    program = import_program(fresh=False)
    ci_model, pipeline = program["ci_model"], program["pipeline"]
    original = pipeline.invert
    spec = ci_model.CISpec.load(FIXTURES / "example_6_2.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        pipeline.run_verify(spec)
    finally:
        tracer.uninstall()
    assert pipeline.invert is original
    names = {span[0] for span in tracer.spans}
    assert {"pipeline.run_verify", "linalg.invert", "linalg.matmul", "ci_model.validate"} <= names
    metrics = tracing.layer_metrics(tracer, {0})
    assert metrics["pipeline.run_verify.calls"][0] == 1
    assert metrics["linalg.elim_cells"][0] > 0
    assert 0 < metrics["ci_model.build_cayley.reuse_ratio"][0] < 1


def test_benchmark_lists_only_metrics_the_runner_produces():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics(tracing.Tracer(), set())) | {
        "cli.interpreter_ms", "cli.import_ms", "cli.output_bytes", "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} <= produced
    assert {m["name"] for m in bench["end_to_end"]} == {
        "op_p50_ms", "op_tail_ms", "ops_per_s", "setup_s", "peak_rss_mb"}


def test_deck_count_depends_on_seconds_only():
    decks = {name: w(0).decks(15) for name, w in WORKLOADS.items()}
    assert decks == {"family-scaling": 2, "random-small": 1, "cli-fixtures": 4}
    assert all(w(0).decks(0.1) == 1 for w in WORKLOADS.values())


def test_family_median_and_tail_sit_inside_the_m7_cluster():
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    decks = WORKLOADS["family-scaling"](0).decks(run_seconds)
    members = sorted(m for m, count in FAMILY_DECK.items() for _ in range(count * decks))
    _, rank, _ = stats.tail([float(m) for m in members])
    median = len(members) // 2
    assert {members[i] for i in (median - 1, median, rank - 2, rank - 1, rank)} == {7}


def test_cli_deck_runs_verify_json_three_times():
    inputs = CliFixtures(0).generate(None, {})
    commands = [cmd for _, cmd in inputs.deck]
    assert len(inputs.deck) == 30 and len(inputs.items) == 24
    assert commands.count("verify --format json") == 9
    assert all(commands.count(cmd) == 3 for cmd in set(commands) - {"verify --format json"})
