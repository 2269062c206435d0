"""Byte-exact `--output json` documents, compared against files in tests/golden/.

Each case is one CLI invocation; its stdout must equal the stored file byte
for byte. To rewrite the files after an intended format change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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


CASES = _cases()


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


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / f"{name}.json").write_bytes(render(argv))
