"""Shared independent oracles for the test suite.

Everything here is computed by a route the production code does not use:
closed-form patterns transcribed by hand, numpy's eigensolver, or explicit
Pauli algebra. run_python starts a fresh interpreter on this checkout's
sources, for what only a new process shows: which modules an entry point
imports.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qteleport

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def initial_state_pattern(alpha: complex, beta: complex) -> np.ndarray:
    """Closed-form 8x8 initial state for resource 1.

    Nonzero block structure transcribed by hand: rows/cols {0,3} carry
    |alpha|^2/2, rows {0,3} x cols {4,7} carry alpha*conj(beta)/2, and so on
    by Hermitian symmetry.
    """
    aa = abs(alpha) ** 2
    bb = abs(beta) ** 2
    ab = alpha * np.conj(beta)
    m = np.zeros((8, 8), dtype=complex)
    top, bottom = (0, 3), (4, 7)
    for r in top:
        for c in top:
            m[r, c] = aa
        for c in bottom:
            m[r, c] = ab
    for r in bottom:
        for c in top:
            m[r, c] = np.conj(ab)
        for c in bottom:
            m[r, c] = bb
    return m / 2.0


def haar_qubit_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    raw /= np.linalg.norm(raw)
    return complex(raw[0]), complex(raw[1])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_ginibre_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


# Correction tuples worked out by hand from the Bell-ladder algebra: with
# resource j related to resource 1 by a Pauli g_j on the last factor
# (g = 1, sx, sz, sx sz), the outcome-i correction is proportional to
# W_i^dag g_j^dag with W = (1, sx, sz, sx sz). Phases dropped.
HAND_DERIVED_CORRECTIONS = {
    1: (I2, SX, SZ, SY),
    2: (SX, I2, SY, SZ),
    3: (SZ, SY, I2, SX),
    4: (SY, SZ, SX, I2),
}

# The published correction tuple for resource 1 keeps the i*sigma_y phase.
PUBLISHED_RESOURCE_1_CORRECTIONS = (I2, SX, SZ, 1j * SY)

# counts and seeds that run_checks and checks_to_json refuse, as the CLI's --count and --seed do
BAD_COUNTS = (0, -3, True, 1.5, "10", None)
BAD_SEEDS = (1.5, -1, True, "1", None)


def run_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``python -c code *args`` with the tested qteleport importable."""
    src = str(Path(qteleport.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path, **env})
