"""Shared independent oracles for the test suite.

Everything here is computed by a route the production code does not use:
closed-form patterns transcribed by hand, numpy's eigensolver, explicit
Pauli algebra, or exact arithmetic over Gaussian rationals. approx_eq is
the tests' entrywise comparison within a tolerance, dagger their
conjugate transpose, identity their complex identity matrix and kron_all
their product of three or more tensor factors, all in plain numpy.
run_python starts a fresh interpreter on this checkout's sources, for what
only a new process shows: which modules an entry point imports.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import isfinite
from numbers import Real
from pathlib import Path

import numpy as np

import qteleport

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


TOL_APPROX = 1e-12


def approx_eq(a: np.ndarray, b: np.ndarray, tol: float = TOL_APPROX) -> bool:
    """True iff the max entrywise modulus difference of two finite arrays is <= tol, a finite real tolerance >= 0."""
    if isinstance(tol, bool) or not (isinstance(tol, Real) and isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("approx_eq takes finite arrays")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return True
    return float(np.max(np.abs(a - b))) <= tol


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def identity(dim: int) -> np.ndarray:
    """The dim x dim complex identity, the np.eye(dim, dtype=complex) the library builds its own from."""
    return np.eye(dim, dtype=complex)


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """numpy's kron of the factors in order, the first the most significant digit of the basis index."""
    return reduce(np.kron, factors)


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

# An exact model of the protocol over Gaussian rationals: a number is a (real, imaginary) pair of Fractions, and a
# matrix a list of rows of them. Fraction(x) holds a double x exactly and Fraction arithmetic does not round, so each
# result below is the exact value for the float inputs, rounded once at the end by exact_to_complex.
Gaussian = tuple[Fraction, Fraction]


def exact(m: object) -> list[list[Gaussian]]:
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(m, dtype=complex)]


def exact_to_complex(m: list[list[Gaussian]]) -> np.ndarray:
    """The one rounding: Fraction to float is correctly rounded."""
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in m])


def _sum(terms) -> Gaussian:
    re = im = Fraction(0)
    for x, y in terms:
        re, im = re + x, im + y
    return re, im


def _matmul(a: list[list[Gaussian]], b: list[list[Gaussian]]) -> list[list[Gaussian]]:
    return [
        [_sum((x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]) for x, y in zip(row, col) if any(x) and any(y))
         for col in zip(*b)]
        for row in a
    ]


def _dagger(a: list[list[Gaussian]]) -> list[list[Gaussian]]:
    return [[(re, -im) for re, im in col] for col in zip(*a)]


def _halved(a: list[list[Gaussian]]) -> list[list[Gaussian]]:
    return [[(re / 2, im / 2) for re, im in row] for row in a]


def _exact_kraus(ks) -> list[list[list[Gaussian]]]:
    """K_i = B^i A^i / 2 from the set's own operators."""
    return [_halved(_matmul(exact(b), exact(a))) for a, b in zip(ks.a_ops, ks.b_ops)]


def exact_channel(rho: np.ndarray, ks) -> np.ndarray:
    """sum_i K_i rho K_i^dag for the float matrix rho, rounded once."""
    r = exact(rho)
    terms = [_matmul(_matmul(k, r), _dagger(k)) for k in _exact_kraus(ks)]
    return exact_to_complex([[_sum(t[i][j] for t in terms) for j in range(8)] for i in range(8)])


def exact_probabilities(rho: np.ndarray, ks) -> tuple[float, ...]:
    """Tr(P_i rho P_i) with P_i = A^i / 2 for the float matrix rho, each rounded once."""
    r = exact(rho)
    probabilities = []
    for a in ks.a_ops:
        p = _halved(exact(a))
        projected = _matmul(_matmul(p, r), p)
        probabilities.append(float(_sum(projected[i][i] for i in range(8))[0]))
    return tuple(probabilities)


def exact_marginals(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reductions of the float 8x8 matrix m onto factors 0, 1 and onto factor 2, each entry rounded once."""
    e = exact(m)
    m12 = [[_sum(e[2 * a + j][2 * b + j] for j in range(2)) for b in range(4)] for a in range(4)]
    m3 = [[_sum(e[2 * a + j][2 * a + k] for a in range(4)) for k in range(2)] for j in range(2)]
    return exact_to_complex(m12), exact_to_complex(m3)


# counts and seeds that run_checks and checks_to_json refuse, as the CLI's --count and --seed do
BAD_COUNTS = (0, -3, True, 1.5, "10", None)
BAD_SEEDS = (1.5, -1, True, "1", None)


def run_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``python -c code *args`` with the tested qteleport importable."""
    src = str(Path(qteleport.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path, **env})
