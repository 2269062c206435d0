"""Core dense-complex algebra: products, tensor structure, Hermitian eigensolver."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import approx_eq, dagger, identity, kron_all, random_ginibre_density, random_hermitian
from qteleport.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    eig_hermitian,
    partial_trace,
)
from qteleport.reference import B_OPS_REFERENCE, SWAP_0_2_REFERENCE


class TestProducts:
    def test_identity_absorbs(self):
        assert np.array_equal(IDENTITY_2 @ PAULI_X, PAULI_X)

    def test_pauli_involution(self):
        assert np.array_equal(PAULI_X @ PAULI_X, IDENTITY_2)

    def test_pauli_product_by_hand(self):
        # multiplying the two 2x2 matrices by hand gives [[0,-1],[1,0]]
        by_hand = np.array([[0, -1], [1, 0]], dtype=complex)
        assert np.array_equal(PAULI_X @ PAULI_Z, by_hand)
        assert np.allclose(by_hand, -1j * PAULI_Y)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            PAULI_X @ identity(3)


class TestDagger:
    def test_golden_correction_operator_is_unitary(self):
        b4 = B_OPS_REFERENCE[3]
        assert np.array_equal(dagger(b4) @ b4, identity(8))


class TestTrace:
    def test_identity(self):
        assert np.trace(identity(8)) == 8

    def test_traceless_pauli(self):
        assert np.trace(PAULI_X) == 0


class TestFactorization:
    """A dims tuple reads the basis index big-endian: factor 0 is the most significant digit."""

    def test_digit_round_trip(self):
        # e_n of dims (2, 3, 2) is the product of its mixed-radix digits' basis vectors
        dims = (2, 3, 2)
        for n in range(12):
            digits = (n // 6, (n // 2) % 3, n % 2)
            factors = [np.eye(d)[digit] for d, digit in zip(dims, digits)]
            assert np.array_equal(kron_all(*factors), np.eye(12)[n])
            assert np.eye(12)[n].reshape(dims)[digits] == 1.0

    def test_big_endian_convention(self):
        e = np.eye(2)
        assert np.array_equal(kron_all(e[0], e[1], e[1]), np.eye(8)[3])
        assert np.array_equal(kron_all(e[1], e[0], e[0]), np.eye(8)[4])

    def test_rejects_bad_dims(self):
        # only positive Python or numpy integers are dimensions; 2.5 and "2" are not
        for dims in [(2, 0, 2), (), (2.5, 2, 2), "222", (True, 2, 2), (2, np.float64(2.0), 2), 8, None]:
            with pytest.raises(ValueError, match="factor dims"):
                partial_trace(identity(8) / 8.0, dims, {0})

    def test_accepts_numpy_integers(self):
        rho = random_ginibre_density(np.random.default_rng(3), 8)
        dims = tuple(np.int64(2) for _ in range(3))
        assert np.array_equal(partial_trace(rho, dims, {np.int64(2)}), partial_trace(rho, (2, 2, 2), {2}))


class TestPartialTrace:
    def test_bell_pair_reduction(self):
        u = np.array([1, 0, 0, 1], dtype=complex)
        rho = np.outer(u, u) / 2.0
        reduced = partial_trace(rho, (2, 2), {0})
        assert approx_eq(reduced, identity(2) / 2.0, 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_product_state_factorization(self, seed):
        rng = np.random.default_rng(seed)
        rho_a = random_ginibre_density(rng, 2)
        rho_b = random_ginibre_density(rng, 4)
        assert approx_eq(partial_trace(np.kron(rho_a, rho_b), (2, 4), {1}), rho_b, 1e-12)
        assert approx_eq(partial_trace(np.kron(rho_a, rho_b), (2, 4), {0}), rho_a, 1e-12)
        factors = [random_ginibre_density(rng, 2) for _ in range(3)]
        for i, f in enumerate(factors):
            assert approx_eq(partial_trace(kron_all(*factors), (2, 2, 2), {i}), f, 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_keep_first_factor_scales_by_trace(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert approx_eq(partial_trace(np.kron(a, b), (2, 3), {0}), np.trace(b) * a, 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_stagewise_reduction_preserves_trace(self, seed):
        # reducing factor by factor all the way down recovers the full trace
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        step = partial_trace(a, (2, 2, 2), {0, 2})
        final = partial_trace(step, (2, 2), {1})
        assert abs(np.trace(final) - np.trace(a)) <= 1e-12
        for keep in ({0}, {1}, {0, 1}):
            assert abs(np.trace(partial_trace(a, (2, 2, 2), keep)) - np.trace(a)) <= 1e-12

    def test_keep_order_is_factor_order(self):
        rng = np.random.default_rng(5)
        a = random_ginibre_density(rng, 2)
        b = random_ginibre_density(rng, 3)
        c = random_ginibre_density(rng, 2)
        rho = kron_all(a, b, c)
        reduced = partial_trace(rho, (2, 3, 2), {2, 0})
        assert approx_eq(reduced, np.kron(a, c), 1e-12)

    def test_errors(self):
        rho = identity(8) / 8.0
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2, 2), set())
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2, 2), {3})
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2), {0})
        with pytest.raises(ValueError):
            partial_trace(np.ones((4, 2)), (2, 2), {0})

    @pytest.mark.parametrize(
        "keep",
        [{1.7}, {True}, {np.True_}, {0, None}, {0, "1"}, {-1}, [np.float64(1.0)], 2, np.int64(2), None],
        ids=["float", "bool", "numpy-bool", "mixed-none", "mixed-str", "negative", "numpy-float",
             "int", "numpy-int", "none"],
    )
    def test_rejects_bad_keep(self, keep):
        with pytest.raises(ValueError, match="factor index"):
            partial_trace(identity(8) / 8.0, (2, 2, 2), keep)

    @pytest.mark.parametrize(
        "dims,keep,message",
        [
            ((2, 2, 2), [0.0, 2], "factor index 0.0 out of range for 3 factors"),
            ((2, 2, 2), [True, 2], "factor index True out of range for 3 factors"),
            ((2, 2, 2), [0, np.float64(2.0)], f"factor index {np.float64(2.0)!r} out of range for 3 factors"),
            ((2, 2, 2), [-1, 2], "factor index -1 out of range for 3 factors"),
            ((2, 2.0, 2), [0, 2], "factor dims must be a non-empty tuple of positive integers, got (2, 2.0, 2)"),
            ("222", [0, 2], "factor dims must be a non-empty tuple of positive integers, got '222'"),
            ((), [0, 1], "factor dims must be a non-empty tuple of positive integers, got ()"),
        ],
        ids=["float-index", "bool-index", "numpy-float-index", "negative-index", "float-dim", "str-dims", "empty-dims"],
    )
    def test_rejects_malformed_dims_and_indices(self, dims, keep, message):
        # the dims and index checks, word for word, that partial_trace took over from the factor swap
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            partial_trace(identity(8) / 8.0, dims, keep)


class TestEigHermitian:
    def test_pauli_z(self):
        values = eig_hermitian(PAULI_Z)
        assert values.dtype == np.float64 and values.shape == (2,)
        assert np.allclose(values, [1.0, -1.0])

    def test_identity(self):
        values = eig_hermitian(identity(8))
        assert values.dtype == np.float64
        assert np.allclose(values, np.ones(8))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_the_empty_matrix_by_name(self):
        with pytest.raises(ValueError, match=r"^matrix must be non-empty, got shape \(0, 0\)$"):
            eig_hermitian(np.zeros((0, 0)))

    @pytest.mark.parametrize("x", [1e6, 1e8, 1e12, 1e200, 1e308])
    def test_the_spectrum_guard_holds_at_every_scale(self, x):
        # an absolute bound would refuse these from x = 1e6 on, so the guard scales with the matrix
        values = eig_hermitian(np.array([[0.5, x], [x, 0.5]]))
        assert values[0] == pytest.approx(x + 0.5, rel=1e-15) and values[1] == pytest.approx(0.5 - x, rel=1e-15)

    @pytest.mark.parametrize(
        "m, expected",
        [
            (np.full((2, 2), 1e308), [np.inf, 0.0]),
            (np.array([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]]), [np.inf, -np.inf]),
        ],
        ids=["real", "complex"],
    )
    def test_an_eigenvalue_past_the_largest_double_returns_as_inf(self, m, expected):
        # LAPACK gives inf or nan here; the spectrum of m / 8 is finite, passes the guard and scales back,
        # with no numpy warning under filterwarnings = ["error"]
        assert eig_hermitian(m).tolist() == expected

    def test_the_rescaled_spectrum_passes_the_same_guard(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) * (1 + 1e-6))
        with pytest.raises(RuntimeError, match="^eigenvalue sum differs from the trace by 1.000e-06 "):
            eig_hermitian(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_hermitian_spectrum_descends(self, seed):
        h = random_hermitian(np.random.default_rng(seed), 8)
        values = eig_hermitian(h)
        assert all(values[i] >= values[i + 1] for i in range(7))
        assert abs(values.sum() - np.trace(h).real) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_eigenvalues_match_numpy(self, seed):
        # numpy's LAPACK eigensolver is the independent oracle
        h = random_hermitian(np.random.default_rng(100 + seed), 8)
        values = eig_hermitian(h)
        expected = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.max(np.abs(values - expected)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 16, 32])
    def test_larger_dimensions_converge(self, dim):
        h = random_hermitian(np.random.default_rng(dim), dim)
        values = eig_hermitian(h)
        expected = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.max(np.abs(values - expected)) <= 1e-11

    def test_degenerate_spectrum(self):
        # a degenerate spectrum keeps each eigenvalue's multiplicity
        h = np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)
        u = np.linalg.qr(random_hermitian(np.random.default_rng(3), 4))[0]
        values = eig_hermitian(u @ h @ dagger(u))
        assert np.max(np.abs(values - [2.0, 2.0, 1.0, 1.0])) <= 1e-12

    @pytest.mark.parametrize(
        "spoil, err", [(lambda w: w + 1e-6, "2.000e-06"), (lambda w: w * np.nan, "nan")], ids=["shifted", "nan"]
    )
    def test_the_spectrum_guard_refuses_a_wrong_spectrum(self, monkeypatch, spoil, err):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spoil(eigvalsh(a)))
        with pytest.raises(RuntimeError) as excinfo:
            eig_hermitian(identity(2))
        assert str(excinfo.value) == (
            f"eigenvalue sum differs from the trace by {err} of the largest eigenvalue, above 2.000e-14"
        )

    @settings(deadline=None)
    @given(st.integers(2, 16), st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_the_spectrum_guard_never_fires_on_a_hermitian_matrix(self, dim, k, seed):
        h = random_hermitian(np.random.default_rng(seed), dim) * 10.0**k
        values = eig_hermitian(h)
        assert np.array_equal(values, np.linalg.eigvalsh(h)[::-1])


class TestApproxEq:
    def test_exact_equality_with_zero_tol(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert approx_eq(a, a, 0.0)

    def test_different_matrices(self):
        assert not approx_eq(IDENTITY_2, PAULI_X, 1e-12)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_arrays_are_equal(self, shape):
        assert approx_eq(np.zeros(shape), np.zeros(shape), 0.0) is True

    def test_swap_involution(self):
        assert approx_eq(SWAP_0_2_REFERENCE @ SWAP_0_2_REFERENCE, identity(8), 1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            approx_eq(IDENTITY_2, identity(3))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")], ids=["nan", "negative", "inf"])
    def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be finite and >= 0"):
            approx_eq(IDENTITY_2, IDENTITY_2, tol)

    @pytest.mark.parametrize("tol", ["x", None, 1j, True, np.True_], ids=["str", "none", "complex", "bool", "numpy-bool"])
    def test_rejects_a_tolerance_that_is_not_a_real_number(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be finite and >= 0"):
            approx_eq(IDENTITY_2, IDENTITY_2, tol)

    @pytest.mark.parametrize("tol", [0, np.int64(0), np.float32(1e-12), 1e-12])
    def test_accepts_python_and_numpy_real_tolerances(self, tol):
        assert approx_eq(IDENTITY_2, IDENTITY_2, tol)
