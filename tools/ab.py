"""Paired A/B benchmark of two source trees, one workload, alternating which tree runs first.

    python3 tools/ab.py --base DIR --head DIR --workload sweep --pairs 10 [--seconds 50] [--seed 1]

Pair i runs ``bench/run.py --seed SEED+i --trace 0`` in both trees, each with its
own sources, one after the other; even pairs start with the base tree and odd
pairs with the head tree, so that a slow phase of the machine falls on both
sides alike (Kalibera and Jones, "Rigorous benchmarking in reasonable time",
ISMM 2013). For each end-to-end metric of BENCHMARK.json it prints, as one
JSON document on stdout, each side's median and quartiles
(``bench/repeat.py``'s ``summarize``), the pairs the head won, the gap of the
medians against the base's quartile distance, and a verdict against the
metric's bound. Progress goes to stderr.

Verdicts: "worse" when the head's median is worse than the base's by more than
the bound (a relative change); "better" when the head won at least nine pairs
in ten, ties counting for neither, and its median is better by more than the
base's quartile distance; "unresolved" when the base's quartile distance, as a
share of its median, is wider than the bound and some head run reads no better
than some base run; "within bound" otherwise. Exit status: 0, or 1 when a run
failed its checker.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from repeat import RUN_TIMEOUT_S, summarize  # noqa: E402

WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """The last stdout line of one untraced bench/run.py run in tree, as a dict."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict[str, Any]:
    """Paired statistics of one metric: base[i] and head[i] come from pair i."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError(f"need two or more pairs of values, got {len(base)} and {len(head)}")
    sign = 1.0 if better == "higher" else -1.0
    b, h = summarize(base), summarize(head)
    gain = sign * (h["median"] - b["median"])  # > 0: the head is better
    base_iqr = b["q3"] - b["q1"]
    relative = gain / abs(b["median"]) if b["median"] else (0.0 if gain == 0 else math.copysign(math.inf, gain))
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    if -relative > bound:
        verdict = "worse"
    elif wins >= WIN_SHARE * len(base) and gain > base_iqr:
        verdict = "better"
    elif b["spread"] > bound and not min(sign * y for y in head) > max(sign * x for x in base):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": b, "head": h, "head_wins": wins, "gain": gain, "base_iqr": base_iqr,
            "relative_gain": relative, "bound": bound, "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="pair i uses seed SEED + i")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs: list[dict[str, Any]] = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair: dict[str, Any] = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct={pair[side]['correct']}",
                  file=sys.stderr, flush=True)
        runs.append(pair)

    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r[side]["metrics"][m["name"]]["value"] for r in runs] for side in trees}
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **compare(values["base"], values["head"], m["better"], m["bound"])}
    correct = all(r[side]["correct"] for r in runs for side in trees)
    print(json.dumps({
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [r["seed"] for r in runs], "trees": {k: str(v) for k, v in trees.items()},
        "all_correct": correct, "metrics": metrics,
        "runs": [{"seed": r["seed"], "first": r["first"],
                  **{side: {k: v["value"] for k, v in r[side]["metrics"].items() if k in metrics} for side in trees}}
                 for r in runs],
    }, indent=2))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
