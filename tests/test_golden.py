"""Byte-exact CLI output, compared against files in tests/golden/.

Each case is one CLI invocation; its stdout must equal the stored file byte
for byte. `--output json` documents are stored as NAME.json, text output as
NAME.txt. To rewrite the files after an intended format change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from helpers import run_python
from qteleport.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# |0>, |1>, |+> and one state with a complex amplitude.
STATES = {
    "zero": ("1", "0"),
    "one": ("0", "1"),
    "plus": ("0.7071067811865476", "0.7071067811865476"),
    "complex": ("0.6", "0.8i"),
}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for s, (label, (alpha, beta)) in enumerate(STATES.items()):
        state = ["--alpha", alpha, "--beta", beta]
        for r in (1, 2, 3, 4):
            common = ["teleport", *state, "--resource-index", str(r), "--output", "json"]
            cases[f"teleport-ensemble-r{r}-{label}"] = common
            # A distinct seed per case, so the sampled outcomes differ.
            seed = str(4 * s + r)
            cases[f"teleport-single-shot-r{r}-{label}"] = [*common, "--mode", "single-shot", "--seed", seed]
        cases[f"swap-compare-{label}"] = ["swap-compare", *state, "--output", "json"]
    cases["dump-tables"] = ["dump-tables", "--output", "json"]
    cases["verify-count25-seed7"] = ["verify", "--count", "25", "--seed", "7", "--output", "json"]
    return cases


def _text_cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for s, (label, (alpha, beta)) in enumerate(STATES.items()):
        state = ["--alpha", alpha, "--beta", beta]
        r = s + 1
        cases[f"teleport-ensemble-r{r}-{label}"] = ["teleport", *state, "--resource-index", str(r)]
        cases[f"teleport-single-shot-r{r}-{label}"] = [
            "teleport", *state, "--resource-index", str(r), "--mode", "single-shot", "--seed", str(5 * r),
        ]
        cases[f"swap-compare-{label}"] = ["swap-compare", *state]
    # Amplitudes whose products need all 12 significant digits.
    generic = ["--alpha", "0.3+0.4i", "--beta", "0.5-0.7i", "--renormalize"]
    cases["teleport-ensemble-r2-renormalized"] = ["teleport", *generic, "--resource-index", "2"]
    cases["teleport-single-shot-r3-renormalized"] = [
        "teleport", *generic, "--resource-index", "3", "--mode", "single-shot", "--seed", "3",
    ]
    cases["swap-compare-renormalized"] = ["swap-compare", *generic]
    cases["dump-tables"] = ["dump-tables"]
    cases["verify-count25-seed7"] = ["verify", "--count", "25", "--seed", "7"]
    return cases


CASES = _cases()
TEXT_CASES = _text_cases()


def render(argv: list[str]) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"{argv} exited with {code}")
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden_bytes(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert render(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_output_matches_golden_bytes(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert render(TEXT_CASES[name]) == expected


def _openblas() -> bool:
    """True when numpy's BLAS is OpenBLAS, which picks its kernel from OPENBLAS_CORETYPE at load."""
    try:
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return False


def _cpu_flags() -> set[str]:
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return set()


# Prescott needs only SSE3; Haswell is an AVX2 kernel, which rounded the Ginibre
# product of random_density differently when that product went through BLAS.
@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
@pytest.mark.parametrize("suffix, cases", [(".json", CASES), (".txt", TEXT_CASES)], ids=["json", "text"])
def test_verify_golden_holds_on_other_blas_kernels(kernel, suffix, cases):
    if kernel == "Haswell" and "avx2" not in _cpu_flags():
        pytest.skip("this CPU cannot run the Haswell kernel")
    name = "verify-count25-seed7"
    proc = run_python("import sys; from qteleport.cli import main; sys.exit(main(sys.argv[1:]))",
                      *cases[name], OPENBLAS_CORETYPE=kernel)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.encode() == (GOLDEN_DIR / f"{name}{suffix}").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(TEXT_CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for suffix, cases in ((".json", CASES), (".txt", TEXT_CASES)):
        for name, argv in cases.items():
            (GOLDEN_DIR / f"{name}{suffix}").write_bytes(render(argv))
