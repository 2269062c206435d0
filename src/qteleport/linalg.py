"""Dense complex linear algebra for small Hilbert spaces (d <= 64)."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

TOL_APPROX = 1e-12
TOL_HERM = 1e-10
TOL_RECON = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _m in (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def as_complex_array(a: object, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex ndarray, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor most significant in the basis index."""
    if not factors:
        raise ValueError("kron requires at least one factor")
    out = as_complex_array(factors[0], "kron factor")
    for f in factors[1:]:
        out = np.kron(out, as_complex_array(f, "kron factor"))
    return out


def approx_eq(a: np.ndarray, b: np.ndarray, tol: float = TOL_APPROX) -> bool:
    """True iff the max entrywise modulus difference is <= tol."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return True
    return float(np.max(np.abs(a - b))) <= tol


@dataclass(frozen=True)
class Factorization:
    """Virtual tensor-product structure of one indivisible Hilbert space.

    factor_dims lists the dimensions of the factors; factor 0 is the most
    significant digit of the basis index (big-endian).
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dims must be positive integers, got {self.factor_dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.factor_dims)

    def __len__(self) -> int:
        return len(self.factor_dims)

    def __iter__(self):
        return iter(self.factor_dims)

    def digits_of(self, n: int) -> tuple[int, ...]:
        """Big-endian mixed-radix digits of the basis index n."""
        if not 0 <= n < self.dim:
            raise ValueError(f"basis index {n} out of range for dimension {self.dim}")
        digits = []
        for d in reversed(self.factor_dims):
            digits.append(n % d)
            n //= d
        return tuple(reversed(digits))

    def index_of(self, digits: Sequence[int]) -> int:
        """Inverse of digits_of."""
        if len(digits) != len(self.factor_dims):
            raise ValueError(f"expected {len(self.factor_dims)} digits, got {len(digits)}")
        n = 0
        for digit, d in zip(digits, self.factor_dims):
            if not 0 <= digit < d:
                raise ValueError(f"digit {digit} out of range for factor of dimension {d}")
            n = n * d + digit
        return n


def _resolve_factors(factors: Factorization | Sequence[int]) -> Factorization:
    if isinstance(factors, Factorization):
        return factors
    return Factorization(tuple(factors))


def partial_trace(
    a: np.ndarray,
    factors: Factorization | Sequence[int],
    keep: Iterable[int],
) -> np.ndarray:
    """Reduce a square matrix to the tensor factors listed in keep.

    Kept factors stay in their original order regardless of the order of the
    keep set.
    """
    f = _resolve_factors(factors)
    a = as_complex_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"partial_trace requires a square matrix, got shape {a.shape}")
    if a.shape[0] != f.dim:
        raise ValueError(f"matrix dimension {a.shape[0]} does not match factorization {f.factor_dims}")
    kept = sorted(set(int(k) for k in keep))
    n = len(f)
    if not kept:
        raise ValueError("keep set must not be empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} factors")

    dims = f.factor_dims
    tensor = a.reshape(dims + dims)
    # einsum labels: row axes 0..n-1; a traced column axis reuses its row label.
    kept_set = set(kept)
    row_labels = list(range(n))
    col_labels = [i if i not in kept_set else n + i for i in range(n)]
    out_labels = kept + [n + i for i in kept]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    d_keep = prod(dims[i] for i in kept)
    return reduced.reshape(d_keep, d_keep)


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK (numpy eigh).

    Returns (eigenvalues, eigenvectors) with real eigenvalues in descending
    order and orthonormal eigenvectors as columns, so that
    a == V @ diag(w) @ V.conj().T up to TOL_RECON; a larger reconstruction
    error raises, as does a deviation from Hermiticity above TOL_HERM.
    """
    a = as_complex_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"eig_hermitian requires a square matrix, got shape {a.shape}")
    herm_dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if herm_dev > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian: max |a - a^H| = {herm_dev:.3e} > {TOL_HERM:.3e}")

    ascending, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    values, vectors = ascending[::-1], vectors[:, ::-1]

    recon = (vectors * values) @ vectors.conj().T
    recon_err = float(np.max(np.abs(recon - a)))
    if recon_err > TOL_RECON:
        raise RuntimeError(f"eigendecomposition reconstruction error {recon_err:.3e} exceeds {TOL_RECON:.3e}")
    return values, vectors
