"""Self-tests for the benchmark's helpers.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
LIB = workloads.load_library(ROOT / "src")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile --------------------------------------------------------------

def test_p90_of_100_samples_leaves_exactly_10_beyond():
    samples = [float(v) for v in range(1, 101)]
    assert run.tail_percentile(samples, 90) == 90.0


def test_p90_is_nearest_rank_and_order_independent():
    samples = [float(v) for v in range(110, 0, -1)]
    assert run.tail_percentile(samples, 90) == 99.0


@pytest.mark.parametrize("n", [0, 1, 50, 99])
def test_p90_refuses_fewer_than_10_samples_beyond(n):
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * n, 90)


def test_fastest_per_sample_takes_the_minimum_of_each_stride():
    latencies = [5.0, 9.0, 1.0, 8.0, 3.0, 7.0]
    assert run.fastest_per_sample(latencies, 2) == [1.0, 7.0]
    assert run.fastest_per_sample(latencies, 6) == latencies
    with pytest.raises(ValueError):
        run.fastest_per_sample(latencies, 7)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_children_not_grandchildren():
    recorded = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(recorded)) == 10.0


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    recorded = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 5.0, 0],
        ["b", 3.0, 7.0, 0],
        ["c", 9.0, 12.0, 0],
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_accounts_for_a_protocol_run_and_restores_the_library():
    original = LIB.protocol.run_protocol
    original_check = LIB.states.DensityMatrix.__post_init__
    psi = LIB.states.QubitState(0.6, 0.8)
    tracer = spans.Tracer()
    tracer.install(LIB.package)
    try:
        assert LIB.protocol.run_protocol is not original
        report = tracer.op(lambda: LIB.protocol.run_protocol(psi, 2, "ensemble", 0))
        tracer.fold()
    finally:
        tracer.uninstall()
    assert LIB.protocol.run_protocol is original
    assert LIB.states.DensityMatrix.__post_init__ is original_check
    assert report.fidelity > 1 - 1e-9
    assert tracer.calls["protocol.teleport_channel"] == 1
    assert tracer.calls["protocol.measurement_branches"] == 1
    assert tracer.calls["linalg.eig_hermitian"] == 1
    assert tracer.counters["branch_states_built"] == 4
    total = tracer.total_s[spans.ROOT_SPAN]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert set(tracer.stage_s) <= set(spans.STAGE_NAMES)
    assert tracer.stage_s["channel"] > 0 and tracer.stage_s["entropy"] > 0


def test_tracer_counts_a_validation_error_once():
    tracer = spans.Tracer()
    tracer.install(LIB.package)
    try:
        with pytest.raises(LIB.states.StateValidationError):
            tracer.op(lambda: LIB.states.validate_density(np.diag([1.5, -0.5])))
        tracer.fold()
    finally:
        tracer.uninstall()
    assert tracer.counters["validation_errors"] == 1


# -- metric names ------------------------------------------------------------

@pytest.mark.parametrize("name", ["op_p50_ms", "linalg.eig_hermitian.us_per_call", "a-b.c_d", "9x"])
def test_valid_metric_names_pass(name):
    run.check_metric_names([name])


@pytest.mark.parametrize("name", ["", "has space", "-lead", ".lead", "semi;colon", "x" * 65, "ünï"])
def test_invalid_metric_names_are_refused(name):
    with pytest.raises(ValueError):
        run.check_metric_names([name])


def test_duplicate_metric_names_are_refused():
    with pytest.raises(ValueError):
        run.check_metric_names(["a", "a"])


def test_benchmark_json_names_are_valid_and_match_the_per_layer_metrics():
    spec = benchmark_json()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    run.check_metric_names(names + [w["name"] for w in spec["workloads"]])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tracer = spans.Tracer()
    tracer.ops = 1
    tracer.total_s[spans.ROOT_SPAN] = 1.0
    emitted = run.layer_metrics(tracer, {"cli.interpreter_s": 0.0, "cli.import_s": 0.0,
                                         "cli.import_numpy_s": 0.0}, [1.0], [1.0])
    assert {k: u for k, (_, u) in emitted.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_declared_metric_on_sweep(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_import_times_reads_top_level_qteleport_and_numpy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |      90000 |     numpy",
        "import time:        20 |     120000 |   qteleport.linalg",
        "import time:        30 |     150000 | qteleport",
        "import time:        40 |      40000 | qteleport.cli",
    ])
    assert run.import_times(stderr) == (0.19, 0.09)


# -- seeded generators -------------------------------------------------------

def test_sweep_inputs_repeat_per_seed_and_differ_between_seeds():
    first = list(itertools.islice(workloads.sweep_specs(7), 60))
    assert first == list(itertools.islice(workloads.sweep_specs(7), 60))
    assert first != list(itertools.islice(workloads.sweep_specs(8), 60))
    assert [s[0] for s in first[:3]] == list(workloads.SWEEP_KINDS)
    assert sorted({s[3] for s in first}) == [1, 2, 3, 4]


def test_cli_inputs_repeat_per_seed():
    assert workloads.cli_cycle(5) == workloads.cli_cycle(5)
    assert workloads.cli_cycle(5) != workloads.cli_cycle(6)
    kinds = [expect[0] for _, expect in workloads.cli_cycle(5)]
    assert {"report", "text", "compare", "tables", "verify", "usage"} == set(kinds)


def test_cli_literals_parse_back_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(*rng.standard_normal(2))
        assert LIB.cli.parse_complex(workloads.literal(z)) == z


# -- the output checker ------------------------------------------------------

def _report_doc(out: np.ndarray, alpha: complex, beta: complex, probs: list[float]) -> dict:
    """A report document around a raw output matrix, built without the protocol."""
    ser = LIB.serialize
    m3 = np.einsum("ajak->jk", out.reshape(4, 2, 4, 2))
    m12 = np.einsum("ajbj->ab", out.reshape(4, 2, 4, 2))
    psi = np.array([alpha, beta])
    w = np.linalg.eigvalsh(out)
    w = w[w > 1e-15]
    return {
        "mode": "ensemble", "seed": 0, "resource_index": 1, "outcome": None,
        "outcome_probabilities": probs,
        "fidelity": float(np.real(psi.conj() @ m3 @ psi)),
        "output_entropy_bits": float(-np.sum(w * np.log2(w))),
        "marginal_3": ser.matrix_to_json(m3),
        "marginal_12": ser.matrix_to_json(m12),
        "output_density": ser.matrix_to_json(out),
    }


def test_checker_accepts_real_outputs():
    psi = LIB.states.QubitState(0.6, 0.8j)
    for mode in ("ensemble", "single-shot"):
        for j in (1, 2, 3, 4):
            doc = json.loads(LIB.serialize.dumps(LIB.serialize.report_to_json(
                LIB.protocol.run_protocol(psi, j, mode, 11))))
            assert checker.check_report(doc, 0.6, 0.8j, j, mode, 11) == []
    doc = json.loads(LIB.serialize.dumps(LIB.serialize.comparison_to_json(
        LIB.protocol.compare_swap_vs_teleport(psi))))
    assert checker.check_comparison(doc, 0.6, 0.8j) == []


def test_checker_rejects_outputs_of_the_corrupted_channel():
    # Resource 2 puts weight on the flipped entry of the corrupted operator.
    ks = LIB.verify.corrupted_for_negative_control(LIB.protocol.kraus_set(2))
    alpha, beta = 0.6, 0.8j
    rho = LIB.protocol.build_initial_state(LIB.states.QubitState(alpha, beta), 2).matrix
    out = sum(ks.weight * (b @ a) @ rho @ (b @ a).conj().T for a, b in zip(ks.a_ops, ks.b_ops))
    probs = [float(np.trace(a @ rho @ a.conj().T).real) / 4 for a in ks.a_ops]
    doc = _report_doc(out, alpha, beta, probs)
    assert checker.check_report(doc, alpha, beta, 2, "ensemble", 0)
    # Renormalizing the corrupted output does not hide it.
    out = out / np.trace(out).real
    doc = _report_doc(out, alpha, beta, [0.25] * 4)
    doc["resource_index"] = 2
    assert checker.check_report(doc, alpha, beta, 2, "ensemble", 0)


def test_sweep_ops_fail_when_the_protocol_runs_the_corrupted_channel(monkeypatch):
    sweep = workloads.Sweep(1, ROOT / "src")
    sweep.lib = LIB
    good = LIB.protocol.kraus_set
    monkeypatch.setattr(LIB.protocol, "kraus_set",
                        lambda j: LIB.verify.corrupted_for_negative_control(good(j)))
    tally = run.Tally()
    failed = []
    for _ in range(sweep.cycle):
        before = tally.failed
        tally.attempt(sweep, sweep.run)
        failed.append(tally.failed > before)
    # Ensemble and single-shot ops meet the corrupted operator in the branch
    # pass. swap-compare uses resource 1 only, whose initial state has no
    # weight on the flipped entry, so its output is right and must pass.
    assert failed == [kind != "compare" for kind in workloads.SWEEP_KINDS] * 4


def _verify_doc(**corruption) -> dict:
    results = LIB.verify.run_checks(count=10, rng_seed=1, **corruption)
    return {"count": 10, "seed": 1, "passed": all(r.passed for r in results),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]}


def test_checker_rejects_a_corrupted_verify_run():
    good = _verify_doc()
    assert checker.check_verify(good, 10, 1) == []
    bad = _verify_doc(corrupt_kraus=LIB.verify.corrupted_for_negative_control)
    assert checker.check_verify(bad, 10, 1)
    assert checker.check_verify(dict(good, checks=good["checks"][:-1]), 10, 1)
    assert checker.check_verify(good, 10, 2)


def test_cli_contract_checks():
    cli = workloads.Cli(2, ROOT / "src")
    ops = workloads.cli_cycle(2)
    usage = next(op for op in ops if op[1][0] == "usage")
    assert cli.check(usage, (2, "")) == []
    assert cli.check(usage, (0, ""))
    cli.lib = LIB
    suite = next(op for op in ops if op[1][0] == "verify")
    assert cli.check(suite, cli.run(suite)) == []
    corrupted = (suite[0] + ("--inject-corruption",), suite[1])
    assert cli.check(corrupted, cli.run(corrupted))
    report = next(op for op in ops if op[1][0] == "report")
    output = cli.run(report)
    assert cli.check(report, output) == []
    assert cli.check(report, (2, output[1]))
    assert cli.check(report, (0, output[1] + " "))
    doc = json.loads(output[1])
    doc["fidelity"] = 1 - 1e-6
    assert workloads.Cli(2, ROOT / "src").check(report, (0, json.dumps(doc, indent=2)))


def test_malformed_output_fails_the_op_and_the_run_goes_on():
    cli = workloads.Cli(2, ROOT / "src")
    cli.specs = iter([next(op for op in workloads.cli_cycle(2) if op[1][0] == "report")])
    tally = run.Tally()
    tally.attempt(cli, lambda spec: (0, '{"mode": "ensemble"}'))
    assert tally.failed == 1 and "wrong shape" in tally.problems[0]
