"""Run one qteleport benchmark workload and print its metrics.

    python3 bench/run.py --workload {sweep,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` and the CLI is started as ``python -m qteleport.cli`` with ``src/``
on ``PYTHONPATH``; nothing needs to be installed.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is a separate run that alternates untraced and traced cycles of the same op
mix and reports the per-layer metrics from the traced ops, plus the tracing
overhead. Every output is checked by ``checker.py``; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A result file with the run's environment goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Seed kept out of tuning: a claimed gain is confirmed on it last.
HELD_OUT_SEED = 9001
SETUP_RUNS = 9
PROBE_RUNS = 3
# The p90 keeps at least TAIL_SAMPLES samples beyond it only with this many ops.
MIN_OPS = 100
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 120.0
MAX_PROBLEMS_KEPT = 20
NOTES = (
    "CPUs are not pinned and the page cache is not dropped between runs: set-up "
    "times are warm-cache times, and every figure carries the machine's background load."
)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Spans reported with their calls and self time per op.
TRACED_FUNCTIONS = (
    "linalg.eig_hermitian", "linalg.partial_trace", "linalg.kron",
    "states.validate_density", "states.von_neumann_entropy",
    "protocol.build_initial_state", "protocol.teleport_channel",
    "protocol.measurement_branches", "protocol.single_shot", "protocol.run_protocol",
    "protocol.compare_swap_vs_teleport",
    "serialize.report_to_json", "serialize.comparison_to_json",
    "serialize.matrix_to_json", "serialize.dumps",
    "verify.run_checks", "cli.main",
)


# -- statistics --------------------------------------------------------------

def tail_percentile(samples: list[float], percent: int, beyond: int = TAIL_SAMPLES) -> float:
    """Nearest-rank percentile that leaves at least ``beyond`` samples above it."""
    ordered = sorted(samples)
    rank = -(-percent * len(ordered) // 100)
    if rank < 1 or len(ordered) - rank < beyond:
        raise ValueError(f"p{percent} of {len(ordered)} samples leaves fewer than {beyond} beyond it")
    return ordered[rank - 1]


def check_metric_names(names: list[str]) -> None:
    seen = set()
    for name in names:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate metric name {name!r}")
        seen.add(name)


# -- environment and child interpreters --------------------------------------

def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict[str, Any]:
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "notes": NOTES,
    }


def _child(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def setup_time(code: str, env: dict[str, str]) -> float:
    """Seconds ``code`` takes in a fresh interpreter."""
    program = f"import time; _t = time.perf_counter(); {code}; print(time.perf_counter() - _t)"
    return float(_child(["-c", program], env).stdout.split()[-1])


def import_times(stderr: str) -> tuple[float, float]:
    """(qteleport.cli import, numpy import) seconds from ``-X importtime`` output."""
    total_us = numpy_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        field = parts[2][1:]
        name = field.strip()
        if field == name and (name == "qteleport" or name.startswith("qteleport.")):
            total_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return total_us / 1e6, numpy_us / 1e6


def cli_probes(env: dict[str, str]) -> dict[str, float]:
    """Interpreter start-up and import costs of the CLI, medians of a few runs."""
    interpreter, imports, numpy_imports = [], [], []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        _child(["-c", "pass"], env)
        interpreter.append(time.perf_counter() - t0)
        total, numpy_s = import_times(_child(["-X", "importtime", "-c", "import qteleport.cli"], env).stderr)
        imports.append(total)
        numpy_imports.append(numpy_s)
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_s": statistics.median(numpy_imports),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the op loop --------------------------------------------------------------

class Tally:
    """Ops attempted and failed, with the first few problems for the result file."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, wl: Any, run: Callable[[Any], Any], after: Callable[[], None] | None = None) -> float:
        """Run one op, check its output, and return its latency in seconds.

        An op fails when it raises or its output fails the check; only the
        call itself is timed.
        """
        spec = next(wl.specs)
        t0 = time.perf_counter()
        try:
            output = run(spec)
            problems = None
        except Exception as exc:  # a crashed op is a failed op
            problems = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        if after is not None:
            after()
        if problems is None:
            try:
                problems = wl.check(spec, output)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"output has the wrong shape: {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS_KEPT - len(self.problems)
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems[:max(room, 0)])
        return elapsed


def fastest_per_sample(latencies: list[float], count: int) -> list[float]:
    """Split the ops into ``count`` interleaved samples and keep each one's fastest op.

    Op ``i`` belongs to sample ``i % count``, so the ops of one sample are
    spread over the whole run, and the slow phases that other load on the
    machine causes drop out of the minimum.
    """
    if len(latencies) < count:
        raise ValueError(f"{len(latencies)} ops cannot fill {count} samples")
    return [min(latencies[i::count]) for i in range(count)]


def run_untraced(wl: Any, seconds: float, tally: Tally) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    env = workloads.child_env(SRC)
    setup = [setup_time(wl.setup_code, env)]
    if wl.needs_library:
        wl.lib = workloads.load_library(SRC)
    for _ in range(wl.warmup):
        tally.attempt(wl, wl.run)
    latencies: list[float] = []
    start = time.perf_counter()
    # Fresh interpreters are timed between ops, spread over the run, so that
    # one slow phase of a shared machine cannot decide the set-up median.
    interval = seconds / SETUP_RUNS
    while time.perf_counter() < start + seconds or len(latencies) < max(MIN_OPS, wl.samples or 0):
        if len(setup) < SETUP_RUNS and time.perf_counter() >= start + len(setup) * interval:
            setup.append(setup_time(wl.setup_code, env))
        latencies.append(tally.attempt(wl, wl.run))
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time(wl.setup_code, env))
    rss = peak_rss_mb(resource.RUSAGE_SELF if wl.needs_library else resource.RUSAGE_CHILDREN)
    samples = latencies if wl.samples is None else fastest_per_sample(latencies, wl.samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (tail_percentile(samples, 90) * 1e3, "ms"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, {"ops_timed": len(latencies), "samples": len(samples), "setup_samples_s": setup}


def run_traced(wl: Any, seconds: float, tally: Tally) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Alternate untraced and traced cycles of the op mix until time is up.

    Both halves see the same mix, so their difference is the tracing
    overhead. The cli workload calls ``cli.main`` in this process here, so
    that its layers are visible to the tracer.
    """
    probes = cli_probes(workloads.child_env(SRC))
    wl.lib = workloads.load_library(SRC)
    for _ in range(wl.warmup):
        tally.attempt(wl, wl.run)
    tracer = spans.Tracer()

    def traced_run(spec: Any) -> Any:
        return tracer.op(lambda: wl.run(spec))

    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for _ in range(wl.cycle):
            untraced.append(tally.attempt(wl, wl.run))
        tracer.install(wl.lib.package)
        try:
            for _ in range(wl.cycle):
                traced.append(tally.attempt(wl, traced_run, after=tracer.fold))
        finally:
            tracer.uninstall()
    details = {"spans": {"fields": ["op", "name", "start", "end", "parent"], "records": tracer.kept}}
    return layer_metrics(tracer, probes, untraced, traced), details


def layer_metrics(tracer: spans.Tracer, probes: dict[str, float],
                  untraced: list[float], traced: list[float]) -> dict[str, tuple[float, str]]:
    n = tracer.ops
    calls, own, total, counters = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in own.items() if k.startswith(layer + ".")) / n, "s/op")
    for name in TRACED_FUNCTIONS:
        m[f"{name}.calls"] = (calls[name] / n, "count/op")
        m[f"{name}.self_s"] = (own[name] / n, "s/op")
    eig = "linalg.eig_hermitian"
    m[f"{eig}.us_per_call"] = (total[eig] / calls[eig] * 1e6 if calls[eig] else 0.0, "us")
    m["states.DensityMatrix.constructions"] = (calls["states.DensityMatrix"] / n, "count/op")
    m["states.DensityMatrix.self_s"] = (own["states.DensityMatrix"] / n, "s/op")
    m["states.validation_errors"] = (counters["validation_errors"] / n, "count/op")
    passes = calls["protocol.teleport_channel"] + calls["protocol.measurement_branches"]
    states_in = calls["protocol.build_initial_state"] + calls["states.random_density"]
    m["protocol.kraus_passes_per_state"] = (passes / states_in if states_in else 0.0, "ratio")
    built = counters["branch_states_built"]
    m["protocol.branch_states_used_ratio"] = (
        counters["branch_states_used"] / built if built else 0.0, "ratio")
    m["serialize.bytes_out"] = (counters["bytes_out"] / n, "B/op")
    for name, value in probes.items():
        m[name] = (value, "s")
    m["cli.main_s"] = (total["cli.main"] / n, "s/op")
    for stage in spans.STAGE_NAMES:
        m[f"stage.{stage}_s"] = (tracer.stage_s[stage] / n, "s/op")
    traced_ms = statistics.fmean(traced) * 1e3
    untraced_ms = statistics.fmean(untraced) * 1e3
    layers_s = sum(v for k, v in own.items() if k != spans.ROOT_SPAN)
    m["bench.traced_ops"] = (n, "count")
    m["bench.traced_op_ms"] = (traced_ms, "ms")
    m["bench.untraced_op_ms"] = (untraced_ms, "ms")
    m["bench.trace_overhead_ms"] = (traced_ms - untraced_ms, "ms")
    m["bench.remainder_s"] = (own[spans.ROOT_SPAN] / n, "s/op")
    m["bench.accounted_ratio"] = ((layers_s + own[spans.ROOT_SPAN]) / total[spans.ROOT_SPAN], "ratio")
    return m


# -- entry point --------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qteleport" / "__init__.py").is_file():
        print(f"error: no qteleport sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, SRC)
    tally = Tally()
    started = time.time()
    run_workload = run_traced if args.trace else run_untraced
    metrics, details = run_workload(wl, args.seconds, tally)
    check_metric_names(list(metrics))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "environment": environment(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
