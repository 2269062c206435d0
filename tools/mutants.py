"""Mutation gate: every mutant below is a one-line fault that the test suite must catch.

    python3 tools/mutants.py

A mutant is an exact replacement (file, old, new) in the library's sources.
First the unmutated suite must pass in a copy, so that a failure can be laid
to a mutant. Then, for each mutant, src/, tests/ and what the tests read
(tools/, bench/, BENCHMARK.json and pyproject.toml) are copied to a new
temporary directory, `old` is replaced by `new` there, and
`python -m pytest -x -q tests` runs against the copy; it must fail. `old`
must occur exactly once in its file, so a refactor that moves an anchor
fails the gate loudly instead of leaving a mutant that tests nothing, and
the mutated file must still compile.
Exit status: 0 when every mutant is killed; 1 when one survives or an
anchor is missing, each named on stderr, or when the unmutated suite fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "bench", "BENCHMARK.json", "pyproject.toml")
TIMEOUT_S = 600

PACKAGE = "src/qteleport/__init__.py"
LINALG = "src/qteleport/linalg.py"
STATES = "src/qteleport/states.py"
PROTOCOL = "src/qteleport/protocol.py"
SERIALIZE = "src/qteleport/serialize.py"
VERIFY = "src/qteleport/verify.py"
CLI = "src/qteleport/cli.py"

# name -> (file, old, new); the families earlier hand-run checks used, and the rules of each layer
MUTANTS: dict[str, tuple[str, str, str]] = {
    # the package root
    "bound-accepts-nan": (PACKAGE, "if not violation <= bound:", "if violation > bound:"),
    # linalg
    "read-only-rule-dropped": (LINALG, "    m.setflags(write=False)\n", "    m.setflags(write=True)\n"),
    "bool-counts-as-int": (
        LINALG,
        "return isinstance(x, (int, np.integer)) and not isinstance(x, bool)",
        "return isinstance(x, (int, np.integer))",
    ),
    "type-check-dropped": (LINALG, "    if not isinstance(x, cls):\n", "    if x is cls:\n"),
    "keep-guard-dropped": (LINALG, "    if not kept:\n", "    if kept is None:\n"),
    "empty-matrix-accepted": (LINALG, "        if m.size == 0:\n            raise", "        if m.size < 0:\n            raise"),
    "hermiticity-bound-loosened": (LINALG, 'is not Hermitian", violation, TOL_HERM)', 'is not Hermitian", violation, 1.0)'),
    "finiteness-never-tested": (LINALG, "        m = as_complex_array(a, name)\n", ""),
    "hermiticity-overflow-warns": (LINALG, '@np.errstate(over="ignore", invalid="ignore")  # a non-finite', "# a non-finite"),
    "spectrum-guard-unscaled": (LINALG, "scale = max(map(abs, w)) or 1.0", "scale = 1.0"),
    "spectrum-guard-accepts-nan": (LINALG, "if not err <= bound:", "if err > bound:"),
    "spectrum-guard-dropped": (LINALG, "if not err <= bound:", "if False:"),
    "overflow-rescale-dropped": (LINALG, "    if not isfinite(scale):", "    if False:"),
    "int-rule-ignores-low": (LINALG, "if not (_is_int(x) and x >= low):", "if not (_is_int(x) and x >= 0):"),
    "int-rule-returns-input": (LINALG, "    return int(x)\n", "    return x\n"),
    # states
    "norm-as-squared-sum": (
        STATES,
        "norm = abs(complex(norm, abs(z)))",
        "norm = (norm * norm + abs(z) * abs(z)) ** 0.5",
    ),
    "renormalize-by-norm-squared": (STATES, "        parts /= norm\n", "        parts /= norm * norm\n"),
    "dim-rule-dropped": (STATES, '    _check_int(dim, "dim")  # 0 passes', "    # 0 passes"),
    "trace-overflow-warns": (STATES, 'with np.errstate(over="ignore", invalid="ignore"):  # a non', "if True:  # a non"),
    "trace-bound-loosened": (STATES, "abs(trace - 1.0), TOL_NORM)", "abs(trace - 1.0), 1.0)"),
    "stack-check-skips-trace": (STATES, "axis2=-1).reshape(-1).tolist():", "axis2=-1).reshape(-1).tolist()[:1]:"),
    "stack-fallback-dropped": (STATES, "        return tuple(map(DensityMatrix, stack))\n", "        pass\n"),
    "positivity-bound-loosened": (STATES, "-float(eigenvalues[-1]), TOL_PSD)", "-float(eigenvalues[-1]), 1.0)"),
    "entropy-support-threshold": (
        STATES,
        "support = eigenvalues[eigenvalues > TOL_PSD]",
        "support = eigenvalues[eigenvalues > 0]",
    ),
    # protocol
    "kron-axes-swapped": (
        PROTOCOL,
        "kron(np.outer(v, v.conj()), _BELL_DENSITIES[resource_index - 1])",
        "kron(_BELL_DENSITIES[resource_index - 1], np.outer(v, v.conj()))",
    ),
    "initial-state-conjugate-dropped": (PROTOCOL, "kron(np.outer(v, v.conj()), _BELL", "kron(np.outer(v, v), _BELL"),
    "bell-pattern-sign": (PROTOCOL, "        [0, 1, -1, 0],\n", "        [0, -1, 1, 0],\n"),
    "projectors-from-the-module": (PROTOCOL, '("projectors", a / 2.0)', '("projectors", _A_OPS / 2.0)'),
    "channel-ignores-its-set": (
        PROTOCOL,
        "return DensityMatrix(sum(ks.kraus @ rho_in.matrix",
        "return DensityMatrix(sum(kraus_set(ks.resource_index).kraus @ rho_in.matrix",
    ),
    "projection-one-sided": (
        PROTOCOL,
        "projected = ks.projectors @ rho_in.matrix @ ks.projectors",
        "projected = ks.projectors @ rho_in.matrix",
    ),
    "correction-conj-dropped": (
        PROTOCOL,
        "@ projected @ ks.b_ops.conj().transpose(0, 2, 1)",
        "@ projected @ ks.b_ops.transpose(0, 2, 1)",
    ),
    "vanishing-branch-guard-dropped": (PROTOCOL, "    if not eligible:\n        raise", "    if False:\n        raise"),
    "sampled-branch-ignored": (
        PROTOCOL,
        "DensityMatrix(corrected[chosen] / probabilities[chosen])",
        "DensityMatrix(corrected[0] / probabilities[0])",
    ),
    "run-protocol-seed-unchecked": (PROTOCOL, 'rng_seed = _check_int(rng_seed, "rng_seed")', "rng_seed = rng_seed"),
    "report-accepts-complex-probabilities": (PROTOCOL, "if not all(map(_is_real, probs)):", "if False:"),
    "probability-sum-accepts-nan": (PROTOCOL, "if not total_dev <= 1e-10:", "if total_dev > 1e-10:"),
    "marginal-transposed": (PROTOCOL, 'np.einsum("ajak->jk", tensor)', 'np.einsum("ajak->kj", tensor)'),
    "swap-gate-without-swap": (PROTOCOL, ".swapaxes(0, 2)", ".swapaxes(0, 0)"),
    # serialize
    "entropy-unrounded": (
        SERIALIZE,
        '"output_entropy_bits": _number(report.output_entropy_bits)',
        '"output_entropy_bits": report.output_entropy_bits',
    ),
    "zero-fast-path-float": (SERIALIZE, "[_number(re) if re else 0,", "[_number(re) if re else 0.0,"),
    "circular-fallback-dropped": (
        SERIALIZE,
        "except (_Unsupported, RecursionError):",
        "except _Unsupported:",
    ),
    "empty-verdict-passes": (
        SERIALIZE,
        "isinstance(results, (list, tuple)) and results and all(",
        "isinstance(results, (list, tuple)) and all(",
    ),
    # verify and the CLI
    "tolerance-finiteness-dropped": (
        VERIFY,
        "if not (_is_real(tol) and isfinite(tol) and tol > 0):",
        "if not (_is_real(tol) and tol > 0):",
    ),
    "numpy-bool-verdict-accepted": (VERIFY, '(("name", str), ("passed", bool),', '(("name", str), ("passed", (bool, np.bool_)),'),
    "idempotence-within-round-off": (
        VERIFY, "if not np.array_equal(p @ p, p):", "if not np.allclose(p @ p, p, rtol=0, atol=1e-12):"
    ),
    "completeness-within-round-off": (
        VERIFY,
        "if not np.array_equal(total, np.eye(8, dtype=complex)):",
        "if not np.allclose(total, np.eye(8, dtype=complex), rtol=0, atol=1e-12):",
    ),
    "other-resources-unchecked": (
        VERIFY,
        '("operator_table_match", lambda: _check_operator_tables(sets)),',
        '("operator_table_match", lambda: _check_operator_tables({1: sets[1]})),',
    ),
    "corruption-flips-nothing": (
        VERIFY,
        "a[0, 0, 6] = -a[0, 0, 6] if a[0, 0, 6] != 0 else 1.0",
        "a[0, 0, 6] = a[0, 0, 6]",
    ),
    "failed-check-exits-zero": (CLI, "    return EXIT_CHECK_FAILED\n", "    return EXIT_OK\n"),
}

# name -> (file, old, new, why no test can tell the mutant from the original); listed, never run
EQUIVALENT: dict[str, tuple[str, str, str, str]] = {
    "seed-bound-as-minus-one": (
        LINALG,
        "_is_int(x) and x >= low)",
        "_is_int(x) and x > low - 1)",
        "on integers, which are all that pass _is_int, x >= low and x > low - 1 agree",
    ),
}


def bad_entries() -> list[str]:
    """Mutants, equivalent ones too, whose old text does not occur exactly once or whose result does not compile.

    A mutant that breaks the syntax is killed by any suite, so it tests nothing.
    """
    table = {**MUTANTS, **{name: entry[:3] for name, entry in EQUIVALENT.items()}}
    bad = []
    for name, (file, old, new) in table.items():
        text = (ROOT / file).read_text(encoding="utf-8")
        try:
            compile(text.replace(old, new), file, "exec")
        except SyntaxError:
            bad.append(name)
            continue
        if text.count(old) != 1:
            bad.append(name)
    return bad


def mutated_copy(dest: Path, mutant: tuple[str, str, str] | None) -> None:
    """Copy the tested tree to dest and apply mutant there."""
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)
    if mutant is not None:
        file, old, new = mutant
        path = dest / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def suite_fails(mutant: tuple[str, str, str] | None) -> bool:
    """True iff the test suite fails (or times out) on a copy of the tree with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="qteleport-mutant-") as tmp:
        dest = Path(tmp)
        mutated_copy(dest, mutant)
        env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
                cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True
        return proc.returncode != 0


def main() -> int:
    bad = bad_entries()
    if bad:
        for name in bad:
            print(f"anchor missing or not unique, or mutant does not compile: {name}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    if suite_fails(None):
        print("the unmutated test suite fails; no mutant can be judged", file=sys.stderr)
        return 1
    survived = []
    for name in MUTANTS:
        t0 = time.perf_counter()
        killed = suite_fails(MUTANTS[name])
        if not killed:
            survived.append(name)
        print(f"{'killed' if killed else 'SURVIVED'} {name} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(
        f"{len(MUTANTS) - len(survived)}/{len(MUTANTS)} mutants killed, "
        f"{len(EQUIVALENT)} equivalent not run, {time.perf_counter() - start:.0f} s"
    )
    for name in survived:
        print(f"survived: {name}", file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
