"""Dense complex linear algebra for small Hilbert spaces (d <= 64)."""

from __future__ import annotations

from functools import reduce
from math import isfinite, nan, prod
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .base import StateValidationError

TOL_HERM = 1e-10
TOL_SPECTRUM = 1e-14


def _frozen(m: np.ndarray) -> np.ndarray:
    """m, made read-only in place: the one rule for every array the library shares or stores."""
    m.setflags(write=False)
    return m


IDENTITY_2 = _frozen(np.eye(2, dtype=complex))
PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


def identity(dim: int) -> np.ndarray:
    """The dim x dim complex identity; ValueError unless dim is a non-negative integer."""
    return np.eye(_check_int(dim, "dim"), dtype=complex)


def as_complex_array(a: object, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex ndarray, rejecting ragged or non-numeric input and NaN/Inf entries."""
    try:
        arr = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a regular array of numbers") from exc
    if not np.isfinite(arr).all():
        # numpy reads None as NaN; told apart only here, off the path of valid input
        if any(x is None for x in np.asarray(a, dtype=object).flat):
            raise ValueError(f"{name} must be a regular array of numbers")
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a finite array of numbers."""
    return as_complex_array(a).conj().T


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of finite arrays, first factor most significant in the basis index: numpy's kron."""
    if not factors:
        raise ValueError("kron requires at least one factor")
    # np.asarray: numpy's kron of two 0-d factors is a scalar
    return np.asarray(reduce(np.kron, [as_complex_array(f, "kron factor") for f in factors]))


def _is_int(x: object) -> bool:
    # bool is an int subclass but not a count, an index or a seed; 1.0 == 1 is not an integer
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(x: object, name: str, low: int = 0) -> int:
    """x as a Python int; ValueError unless it is an integer >= low, 0 or 1: the one rule for dimensions, seeds and counts."""
    if not (_is_int(x) and x >= low):
        raise ValueError(f"{name} must be a {'positive' if low else 'non-negative'} integer, got {x!r}")
    return int(x)


def _is_real(x: object) -> bool:
    # numpy's bool is not a Real; Python's is, but a flag is not a tolerance
    return isinstance(x, Real) and not isinstance(x, bool)


def _check_type(x: object, cls: type, name: str) -> None:
    """ValueError naming cls unless x is an instance of it: a wrong type is a bad value, not a crash deeper in."""
    if not isinstance(x, cls):
        # the repr names a type outside builtins with its module: numpy 2 calls its bool_ "bool" too
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(x)!r}")


def _check_factors(dims: Sequence[int], indices: Iterable[int] = ()) -> tuple[tuple[int, ...], list[int]]:
    """dims and factor indices as Python ints.

    ValueError unless dims is a non-empty tuple or list of positive integers
    and every index names one of its factors; Python and numpy integers
    count, bools do not.
    """
    if not isinstance(dims, (tuple, list)) or not dims or not all(_is_int(d) and d >= 1 for d in dims):
        raise ValueError(f"factor dims must be a non-empty tuple of positive integers, got {dims!r}")
    try:
        indices = list(indices)
    except TypeError:
        raise ValueError(f"factor index set must be iterable, got {indices!r}") from None
    for i in indices:
        if not _is_int(i) or not 0 <= i < len(dims):
            raise ValueError(f"factor index {i!r} out of range for {len(dims)} factors")
    return tuple(map(int, dims)), list(map(int, indices))


def partial_trace(a: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Reduce a square matrix on the tensor factors of dims to those listed in keep.

    Factor 0 is the most significant digit of the basis index, so the factors
    are the axes of a.reshape(dims + dims). Kept factors stay in their
    original order regardless of the order of the keep set.
    """
    dims, kept = _check_factors(dims, keep)
    a = as_complex_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"partial_trace requires a square matrix, got shape {a.shape}")
    if a.shape[0] != prod(dims):
        raise ValueError(f"matrix dimension {a.shape[0]} does not match factor dims {dims}")
    kept = sorted(set(kept))
    if not kept:
        raise ValueError("keep set must not be empty")

    n = len(dims)
    tensor = a.reshape(dims + dims)
    # einsum labels: row axes 0..n-1; a traced column axis reuses its row label.
    kept_set = set(kept)
    row_labels = list(range(n))
    col_labels = [i if i not in kept_set else n + i for i in range(n)]
    out_labels = kept + [n + i for i in kept]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    d_keep = prod(dims[i] for i in kept)
    return reduced.reshape(d_keep, d_keep)


class NotHermitian(StateValidationError):
    pass


def _hermitian(a: object, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """a as a complex array, a stack with ndim 3; ValueError unless finite, square, non-empty; NotHermitian above TOL_HERM."""
    try:
        m = np.asarray(a, dtype=complex)
        square = m.ndim == ndim and m.shape[-1] == m.shape[-2] and m.size > 0
    except (TypeError, ValueError):
        square = False
    # The bound proves finiteness: each entry of a - a^H is x - conj(y), NaN or +-inf when x or y is (inf - inf is NaN);
    # its modulus is then NaN or inf (hypot(inf, nan) is inf), and max keeps a NaN. So only a failed bound looks for the
    # input's first error, as before the bound. Callers ignore numpy's overflow and invalid warnings: the bound decides.
    violation = float(abs(m - m.conj().swapaxes(-1, -2)).max()) if square else nan
    if not violation <= TOL_HERM:
        m = as_complex_array(a, name)
        if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"{name} must be square, got shape {m.shape}")
        if m.size == 0:
            raise ValueError(f"{name} must be non-empty, got shape {m.shape}")
        NotHermitian._check(f"{name} is not Hermitian", violation, TOL_HERM)
    return m


@np.errstate(over="ignore", invalid="ignore")  # a non-finite or overflowing a - a^H, or eigenvalue scaled back, is unwarned
def eig_hermitian(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of a complex Hermitian matrix, descending, by LAPACK (numpy eigvalsh).

    NotHermitian above TOL_HERM. LAPACK is backward stable at every scale, so the eigenvalues and the
    diagonal, divided by the largest |eigenvalue| (or 1), must have sums within TOL_SPECTRUM per dimension;
    a larger (or NaN) difference raises RuntimeError. An eigenvalue past the largest double returns as +-inf.
    """
    a = _hermitian(a)
    values, shrink = np.linalg.eigvalsh(a)[::-1], 1.0
    w, bound = values.tolist(), a.shape[0] * TOL_SPECTRUM  # Python floats: inf / inf is nan, with no numpy warning
    scale = max(map(abs, w)) or 1.0
    if not isfinite(scale):  # |a_ij| < 2 DBL_MAX bounds each |eigenvalue| by 2n DBL_MAX: solve an exactly scaled copy
        shrink = 2.0 ** -(a.shape[0].bit_length() + 1)
        a = a * shrink
        values = np.linalg.eigvalsh(a)[::-1]
        w = values.tolist()
        scale = max(map(abs, w))
    err = abs(sum(x / scale for x in w) - sum(d / scale for d in a.diagonal().real.tolist()))
    if not err <= bound:  # NaN compares False
        raise RuntimeError(f"eigenvalue sum differs from the trace by {err:.3e} of the largest eigenvalue, above {bound:.3e}")
    return values if shrink == 1.0 else values / shrink
