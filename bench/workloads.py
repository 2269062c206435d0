"""The benchmark's workloads: seeded inputs, one op, and its check.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs come only from the workload seed; the
library sees nothing but the generated inputs.

* ``sweep`` -- the warm per-request path of ``teleport`` and
  ``swap-compare``: protocol, state validation, serialization and the
  eigensolver on structured outputs.
* ``cli``   -- the cold, user-facing path: one ``python -m qteleport.cli``
  process per op, dominated by interpreter start-up and imports. One op in
  the mix runs the invariant suite, so the ``verify`` layer and the
  eigensolver on dense outputs are measured too.
"""

from __future__ import annotations

import io
import itertools
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator

import numpy as np

import checker

RESOURCES = (1, 2, 3, 4)
SWEEP_KINDS = ("ensemble", "single-shot", "compare")
# Any count up to 100 keeps the 40 dense-output solves that dominate a suite
# run, and 25 keeps the Kraus loop short.
VERIFY_COUNT = 25
CLI_TIMEOUT_S = 60.0

_WARM_LIBRARY = "import qteleport; [qteleport.kraus_set(j) for j in (1, 2, 3, 4)]"
_IMPORT_CLI = "import qteleport.cli"


def haar_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    raw /= np.linalg.norm(raw)
    return complex(raw[0]), complex(raw[1])


def sweep_specs(seed: int) -> Iterator[tuple[Any, ...]]:
    """(kind, alpha, beta, resource, shot_seed); kinds rotate, resources cycle."""
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        alpha, beta = haar_qubit(rng)
        shot_seed = int(rng.integers(0, 2**31))
        yield SWEEP_KINDS[i % 3], alpha, beta, RESOURCES[(i // 3) % 4], shot_seed


def literal(z: complex) -> str:
    """A CLI complex literal that parses back to exactly ``z``."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def cli_cycle(seed: int) -> list[tuple[tuple[str, ...], tuple[Any, ...]]]:
    """One cycle of (argv, expectation); the cycle repeats for the whole run.

    Repeating the cycle makes every argv recur, so stdout can be compared
    byte for byte between runs of the same argv.
    """
    rng = np.random.default_rng(seed)
    ops: list[tuple[tuple[str, ...], tuple[Any, ...]]] = []

    def state() -> tuple[complex, complex, tuple[str, ...]]:
        alpha, beta = haar_qubit(rng)
        return alpha, beta, (f"--alpha={literal(alpha)}", f"--beta={literal(beta)}")

    for r in RESOURCES:
        alpha, beta, flags = state()
        ops.append((("teleport", *flags, "--resource-index", str(r), "--output", "json"),
                    ("report", alpha, beta, r, "ensemble", 0)))
    for r in RESOURCES:
        alpha, beta, flags = state()
        shot = int(rng.integers(0, 2**31))
        ops.append((("teleport", *flags, "--resource-index", str(r), "--mode", "single-shot",
                     "--seed", str(shot), "--output", "json"),
                    ("report", alpha, beta, r, "single-shot", shot)))
    alpha, beta, flags = state()
    ops.append((("teleport", *flags), ("text",)))
    for _ in range(2):
        alpha, beta, flags = state()
        ops.append((("swap-compare", *flags, "--output", "json"), ("compare", alpha, beta)))
    ops.append((("dump-tables", "--output", "json"), ("tables",)))
    suite_seed = int(rng.integers(0, 2**31))
    ops.append((("verify", "--count", str(VERIFY_COUNT), "--seed", str(suite_seed), "--output", "json"),
                ("verify", VERIFY_COUNT, suite_seed)))
    # Usage errors: a non-normalized state, and a resource index out of range.
    ops.append((("teleport", "--alpha=0.6", "--beta=0.6"), ("usage",)))
    _, _, flags = state()
    ops.append((("teleport", *flags, "--resource-index", "5"), ("usage",)))
    return ops


def child_env(src: Path) -> dict[str, str]:
    """The environment for child interpreters: qteleport importable from ``src``."""
    paths = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def load_library(src: Path) -> SimpleNamespace:
    """Import qteleport from ``src`` and warm its caches."""
    sys.path.insert(0, str(src))
    import qteleport
    from qteleport import cli, protocol, serialize, states, verify

    origin = Path(qteleport.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"qteleport was imported from {origin}, not from {src}")
    for j in RESOURCES:
        protocol.kraus_set(j)
    return SimpleNamespace(package=qteleport, cli=cli, protocol=protocol,
                           serialize=serialize, states=states, verify=verify)


class Sweep:
    name = "sweep"
    cycle = 12
    warmup = 12
    # Ops of about a millisecond: a run holds about 75 per sample, enough for
    # each sample's fastest op to miss the machine's slow phases. A multiple
    # of the cycle, so each sample holds one op kind and resource.
    samples = 240
    setup_code = _WARM_LIBRARY
    needs_library = True

    def __init__(self, seed: int, src: Path) -> None:
        self.specs = sweep_specs(seed)
        self.lib: SimpleNamespace | None = None

    def run(self, spec: tuple[Any, ...]) -> str:
        kind, alpha, beta, resource, shot_seed = spec
        lib = self.lib
        psi = lib.states.QubitState(alpha, beta)
        if kind == "compare":
            return lib.serialize.dumps(lib.serialize.comparison_to_json(
                lib.protocol.compare_swap_vs_teleport(psi)))
        report = lib.protocol.run_protocol(psi, resource, kind, shot_seed)
        return lib.serialize.dumps(lib.serialize.report_to_json(report))

    def check(self, spec: tuple[Any, ...], output: str) -> list[str]:
        kind, alpha, beta, resource, shot_seed = spec
        doc, problems = checker.parse_json(output)
        if problems:
            return problems
        if kind == "compare":
            return checker.check_comparison(doc, alpha, beta)
        return checker.check_report(doc, alpha, beta, resource, kind, shot_seed)


class Cli:
    name = "cli"
    warmup = 1
    # Ops of about a quarter second are too few per run to fold into
    # samples, so every op is a sample.
    samples = None
    setup_code = _IMPORT_CLI
    needs_library = False

    def __init__(self, seed: int, src: Path) -> None:
        ops = cli_cycle(seed)
        self.cycle = len(ops)
        self.specs = itertools.cycle(ops)
        self.env = child_env(src)
        self.cwd = src.parent
        self.first_stdout: dict[tuple[str, ...], str] = {}
        self.lib: SimpleNamespace | None = None

    def run(self, spec: tuple[tuple[str, ...], Any]) -> tuple[int, str]:
        """(exit code, stdout) of one CLI invocation.

        With the library loaded in this process (the traced run), ``main`` is
        called in-process so that its spans are visible; otherwise each op is
        a fresh interpreter.
        """
        argv = spec[0]
        if self.lib is not None:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.lib.cli.main(list(argv))
                except SystemExit as exc:  # argparse reports usage errors this way
                    code = exc.code
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "qteleport.cli", *argv], cwd=self.cwd,
                              env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, spec: tuple[tuple[str, ...], Any], output: tuple[int, str]) -> list[str]:
        argv, expect = spec
        code, stdout = output
        kind = expect[0]
        if kind == "usage":
            return [] if code == 2 and stdout == "" else [f"usage error exited {code}, expected 2"]
        if code != 0:
            return [f"exited {code}, expected 0"]
        first = self.first_stdout.setdefault(argv, stdout)
        if stdout != first:
            return ["stdout differs from an earlier run of the same argv"]
        if kind == "text":
            fidelity = checker.text_value(stdout, "fidelity of subsystem-3 marginal vs input:")
            entropy = checker.text_value(stdout, "output entropy:")
            if fidelity is None or not fidelity >= 1.0 - checker.FIDELITY_TOL:
                return [f"text fidelity {fidelity!r} is below 1 - {checker.FIDELITY_TOL}"]
            if entropy is None or abs(entropy - 2.0) > checker.ENTROPY_TOL:
                return [f"text output entropy {entropy!r} is not 2 bits"]
            return []
        doc, problems = checker.parse_json(stdout)
        if problems:
            return problems
        if kind == "report":
            return checker.check_report(doc, *expect[1:])
        if kind == "compare":
            return checker.check_comparison(doc, *expect[1:])
        if kind == "verify":
            return checker.check_verify(doc, *expect[1:])
        return checker.check_tables(doc)


WORKLOADS = {w.name: w for w in (Sweep, Cli)}
