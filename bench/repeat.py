"""Repeat one workload over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload sweep --seeds 1-10 [--seconds 30] [--trace 0]
                            [--out bench/results/sweep.json]

For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. With ``--trace 0``
it also prints each end-to-end metric's bound from ``BENCHMARK.json`` and
whether the spread stays below a third of it. ``--out`` writes the summary,
every run's metrics and the environment of the first run to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 3,5,8")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, first in runs[0]["metrics"].items():
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name] = {"unit": first["unit"], **stats}
        verdict = ""
        if name in bounds and not args.trace:
            verdict = f"bound {bounds[name]:.3f} {'ok' if stats['spread'] < bounds[name] / 3 else 'WIDE'}"
        print(f"{name:<44} median {stats['median']:>14.6g} {first['unit']:<9} "
              f"spread {stats['spread']:7.4f} {verdict}")

    if args.out:
        stem = f"{args.workload}-seed{args.seeds[0]}-trace{args.trace}.json"
        environment = json.loads((BENCH_DIR / "out" / stem).read_text())["environment"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "seeds": args.seeds,
            "environment": environment,
            "summary": summary,
            "runs": runs,
        }, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
