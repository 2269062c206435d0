"""Validated state types (kets, density matrices) and scalar diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOL_HERM, as_complex_array, eig_hermitian

TOL_NORM = 1e-9
TOL_PSD = 1e-10


class StateValidationError(ValueError):
    """A matrix or amplitude vector fails a state invariant.

    The measured size of the violation is stored on .violation.
    """

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation


class NotHermitian(StateValidationError):
    pass


class NotPositive(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


def _frozen_complex(a: object, name: str) -> np.ndarray:
    arr = as_complex_array(a, name).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class QubitState:
    """Normalized one-qubit amplitude pair alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        for z in (alpha, beta):
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValueError("qubit amplitudes must be finite")
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm_sq - 1.0) > TOL_NORM:
            raise StateValidationError("qubit state is not normalized", abs(norm_sq - 1.0))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def ket(self) -> Ket:
        return Ket(np.array([self.alpha, self.beta], dtype=complex))


def qubit_state(alpha: complex, beta: complex, renormalize: bool = False) -> QubitState:
    """Build a QubitState, optionally rescaling (alpha, beta) to unit norm."""
    if renormalize:
        norm = float(np.hypot(abs(alpha), abs(beta)))
        if norm == 0.0:
            raise ValueError("cannot renormalize the zero amplitude pair")
        alpha, beta = alpha / norm, beta / norm
    return QubitState(alpha, beta)


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit-norm state vector, stored as a read-only 1-D complex array."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_complex(self.amplitudes, "ket amplitudes")
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError(f"ket amplitudes must form a non-empty vector, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > TOL_NORM:
            raise StateValidationError("ket is not normalized", abs(norm - 1.0))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def ket(amplitudes: object, renormalize: bool = False) -> Ket:
    """Build a Ket, optionally rescaling the amplitudes to unit norm."""
    amps = as_complex_array(amplitudes, "ket amplitudes")
    if renormalize:
        # dividing by the largest modulus first keeps the squares in the norm from overflowing;
        # the parts are divided one by one, since numpy's complex division by a subnormal overflows
        scale = float(abs(amps).max(initial=0.0))
        if scale == 0.0:
            raise ValueError("cannot renormalize the zero vector")
        amps = amps.real / scale + 1j * (amps.imag / scale)
        amps = amps / np.linalg.norm(amps)
    return Ket(amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace operator.

    Construction checks Hermiticity and trace; positivity is certified by
    validate_density, which internal channel code guarantees by construction.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen_complex(self.matrix, "density matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.size == 0:
            raise ValueError(f"density matrix must be non-empty, got shape {m.shape}")
        herm_dev = float(abs(m - m.conj().T).max())
        if herm_dev > TOL_HERM:
            raise NotHermitian("density matrix is not Hermitian", herm_dev)
        trace_dev = abs(complex(m.trace()) - 1.0)
        if trace_dev > TOL_NORM:
            raise TraceNotOne("density matrix trace differs from 1", trace_dev)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_density(m: object) -> DensityMatrix:
    """Full membership check for the state space: Hermitian, unit trace, PSD.

    Raises NotHermitian, TraceNotOne or NotPositive with the measured
    violation; returns the validated DensityMatrix otherwise.
    """
    rho = DensityMatrix(m)
    eigenvalues, _ = eig_hermitian(rho.matrix)
    lowest = float(eigenvalues[-1])
    if lowest < -TOL_PSD:
        raise NotPositive("density matrix has a negative eigenvalue", -lowest)
    return rho


def ket_to_density(k: Ket) -> DensityMatrix:
    """Rank-1 projector |k><k|."""
    return DensityMatrix(np.outer(k.amplitudes, k.amplitudes.conj()))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), between 1/d (maximally mixed) and 1 (pure)."""
    m = rho.matrix
    return float((m @ m).trace().real)


def fidelity_pure(psi: Ket, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> of a mixed state with a pure reference."""
    if psi.dim != rho.dim:
        raise ValueError(f"dimension mismatch: ket dim {psi.dim}, density dim {rho.dim}")
    v = psi.amplitudes
    return float((v.conj() @ rho.matrix @ v).real)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy sum(p log2(1/p)) of the spectrum, in bits.

    The sum runs over the numerical support: eigenvalues at or below TOL_PSD
    are eigensolver round-off of zero and are dropped, and the rest are
    renormalized to sum to 1. A rank-1 state therefore has entropy exactly 0,
    and no term is negative. An eigenvalue below -TOL_PSD raises NotPositive.
    """
    eigenvalues, _ = eig_hermitian(rho.matrix)
    if eigenvalues[-1] < -TOL_PSD:
        raise NotPositive("cannot take entropy of a non-PSD operator", float(-eigenvalues[-1]))
    support = eigenvalues[eigenvalues > TOL_PSD]
    p = support / np.sum(support)
    return float(np.sum(p * np.log2(1.0 / p)))


def random_qubit_state(rng: np.random.Generator) -> QubitState:
    """Haar-random pure qubit state."""
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    raw /= np.linalg.norm(raw)
    return QubitState(raw[0], raw[1])


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random density matrix from a complex Ginibre factor."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)
