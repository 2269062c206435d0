"""Validated state types (kets, density matrices) and scalar diagnostics."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import StateValidationError
from .linalg import NotHermitian, _check_int, _check_type, _frozen, _hermitian, as_complex_array, eig_hermitian

TOL_NORM = 1e-9
TOL_PSD = 1e-10


class NotPositive(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


def _unit_amplitudes(values: object, name: str, renormalize: bool = False) -> np.ndarray:
    """The amplitudes as a read-only finite non-empty complex vector, renormalized or checked to unit norm."""
    v = as_complex_array(values, name).copy()
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must form a non-empty vector, got shape {v.shape}")
    # the parts are divided one by one: numpy's complex-by-real division multiplies by a reciprocal
    parts = v.view(float)
    # the norm lies between the largest part and sqrt(2n) times it; outside these bounds it could
    # be subnormal or overflow, so the parts are divided by the largest first
    scale = max(map(abs, parts.tolist()))
    if 0.0 < scale < sys.float_info.min or scale > sys.float_info.max / parts.size ** 0.5:
        parts /= scale
    else:
        scale = 1.0
    # a hypot fold over the moduli squares no modulus; Python's abs(complex) is the C hypot, which
    # np.hypot also calls and np.abs does not, and on vectors this short Python scalars are cheaper
    norm = 0.0
    for z in v.tolist():
        norm = abs(complex(norm, abs(z)))
    if renormalize:
        if norm == 0.0:
            raise ValueError(f"cannot renormalize zero {name}")
        parts /= norm
    else:
        # Python floats: a norm past the largest double squares to inf, not to an error
        StateValidationError._check(f"{name} are not normalized", abs(scale * norm * scale * norm - 1.0), TOL_NORM)
    return _frozen(v)


@dataclass(frozen=True, eq=False)
class QubitState:
    """Normalized one-qubit amplitude pair alpha|0> + beta|1>."""

    alpha: complex
    beta: complex
    _ket: Ket = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = _unit_amplitudes((self.alpha, self.beta), "qubit amplitudes")
        k = object.__new__(Ket)  # v is what Ket's own check would certify: not again
        object.__setattr__(k, "amplitudes", v)
        for name, value in zip(("alpha", "beta", "_ket"), (*v.tolist(), k)):
            object.__setattr__(self, name, value)

    def ket(self) -> Ket:
        return self._ket


def qubit_state(alpha: complex, beta: complex, renormalize: bool = False) -> QubitState:
    """Build a QubitState, optionally rescaling (alpha, beta) to unit norm."""
    if renormalize:
        alpha, beta = _unit_amplitudes((alpha, beta), "qubit amplitudes", renormalize=True).tolist()
    return QubitState(alpha, beta)


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit-norm state vector, stored as a read-only 1-D complex array."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _unit_amplitudes(self.amplitudes, "ket amplitudes"))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def ket(amplitudes: object, renormalize: bool = False) -> Ket:
    """Build a Ket, optionally rescaling the amplitudes to unit norm."""
    if renormalize:
        amplitudes = _unit_amplitudes(amplitudes, "ket amplitudes", renormalize=True)
    return Ket(amplitudes)  # type: ignore[arg-type]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace operator.

    Construction certifies Hermiticity and unit trace only, not positivity;
    validate_density and density_from_json certify it too (CPTP channels keep it).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen(_check_density(self.matrix).copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_density(m: object, ndim: int = 2) -> np.ndarray:
    """m as a complex array of one matrix (ndim 3: a stack), each Hermitian with unit trace, or what DensityMatrix raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry or an overflow measures inf or nan: no warning
        m = _hermitian(m, "density matrix", ndim)
        for trace in m.trace(axis1=-2, axis2=-1).reshape(-1).tolist():
            TraceNotOne._check("density matrix trace differs from 1", abs(trace - 1.0), TOL_NORM)
    return m


def _density_stack(stack: np.ndarray) -> tuple[DensityMatrix, ...]:
    """DensityMatrix(m) for each m of a new (k, d, d) complex stack, checked as one and frozen."""
    try:
        _check_density(stack, 3)
    except ValueError:  # built one by one, the first failing matrix raises its own error
        return tuple(map(DensityMatrix, stack))
    states = tuple(object.__new__(DensityMatrix) for _ in stack)  # each m has passed DensityMatrix's check: not again
    for rho, m in zip(states, _frozen(stack)):
        object.__setattr__(rho, "matrix", m)
    return states


def _psd_spectrum(rho: DensityMatrix) -> np.ndarray:
    """The eigenvalues of rho, descending; NotPositive, with its size, if one lies below -TOL_PSD."""
    eigenvalues = eig_hermitian(rho.matrix)
    NotPositive._check("density matrix has a negative eigenvalue", -float(eigenvalues[-1]), TOL_PSD)
    return eigenvalues


def validate_density(m: object) -> DensityMatrix:
    """Full membership check for the state space: Hermitian, unit trace, PSD.

    Raises NotHermitian, TraceNotOne or NotPositive with the measured
    violation; returns the validated DensityMatrix otherwise.
    """
    rho = DensityMatrix(m)
    _psd_spectrum(rho)
    return rho


def ket_to_density(k: Ket) -> DensityMatrix:
    """Rank-1 projector |k><k|."""
    _check_type(k, Ket, "k")
    return DensityMatrix(np.outer(k.amplitudes, k.amplitudes.conj()))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), between 1/d (maximally mixed) and 1 (pure)."""
    _check_type(rho, DensityMatrix, "rho")
    m = rho.matrix
    return float((m @ m).trace().real)


def fidelity_pure(psi: Ket, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> of a mixed state with a pure reference."""
    _check_type(psi, Ket, "psi")
    _check_type(rho, DensityMatrix, "rho")
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
    _check_type(rho, DensityMatrix, "rho")
    eigenvalues = _psd_spectrum(rho)
    support = eigenvalues[eigenvalues > TOL_PSD]
    p = support / np.add.reduce(support)
    return float(np.add.reduce(p * np.log2(1.0 / p)))


def random_qubit_state(rng: np.random.Generator) -> QubitState:
    """Haar-random pure qubit state."""
    _check_type(rng, np.random.Generator, "rng")
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    raw /= np.linalg.norm(raw)
    return QubitState(raw[0], raw[1])


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random density matrix from a complex Ginibre factor."""
    _check_type(rng, np.random.Generator, "rng")
    _check_int(dim, "dim")  # 0 passes, and DensityMatrix names the empty matrix
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # g g^dag by numpy's own loop, not BLAS, whose kernels round differently from CPU to CPU
    m = np.einsum("ik,jk->ij", g, g.conj())
    return DensityMatrix(m / m.trace().real)
