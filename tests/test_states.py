"""State types, validation errors, and scalar diagnostics."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import haar_qubit_amplitudes, identity, random_hermitian
from qteleport.linalg import PAULI_X, eig_hermitian, partial_trace
from qteleport.protocol import KrausSet, kraus_set
from qteleport.serialize import density_from_json, density_to_json, matrix_to_json
from qteleport.states import (
    TOL_PSD,
    DensityMatrix,
    Ket,
    NotHermitian,
    NotPositive,
    QubitState,
    StateValidationError,
    TraceNotOne,
    _density_stack,
    _unit_amplitudes,
    fidelity_pure,
    ket,
    ket_to_density,
    purity,
    qubit_state,
    random_density,
    validate_density,
    von_neumann_entropy,
)

SQ = 2 ** -0.5


class TestQubitState:
    def test_accepts_normalized(self):
        psi = QubitState(0.6, 0.8j)
        assert psi.alpha == 0.6 and psi.beta == 0.8j

    def test_rejects_unnormalized(self):
        with pytest.raises(StateValidationError):
            QubitState(1.0, 1.0)

    def test_renormalize_flag(self):
        psi = qubit_state(1.0, 1.0, renormalize=True)
        assert abs(abs(psi.alpha) ** 2 + abs(psi.beta) ** 2 - 1.0) < 1e-12
        with pytest.raises(ValueError):
            qubit_state(0.0, 0.0, renormalize=True)

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [
            (5e-324, 5e-324j, (SQ, 1j * SQ)),
            (1e-310j, -1e-310, (1j * SQ, -SQ)),
            (1.5e308, 1.5e308, (SQ, SQ)),
            (1.5e308 + 1.5e308j, 0.0, ((1 + 1j) * SQ, 0.0)),
        ],
        ids=["subnormal", "subnormal-complex", "overflowing-norm", "overflowing-modulus"],
    )
    def test_renormalize_rescales_pairs_outside_the_normal_range(self, alpha, beta, expected):
        psi = qubit_state(alpha, beta, renormalize=True)
        assert np.allclose([psi.alpha, psi.beta], expected, atol=1e-15)

    def test_renormalize_divides_ordinary_pairs_by_the_plain_norm(self):
        alpha, beta = 0.3 + 0.4j, 0.5 - 0.7j
        norm = np.hypot(abs(alpha), abs(beta))
        psi = qubit_state(alpha, beta, renormalize=True)
        assert (psi.alpha, psi.beta) == (alpha / norm, beta / norm)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QubitState(np.inf, 0.0)

    def test_renormalize_coerces_like_the_constructor(self):
        psi, expected = qubit_state("0.6", 0.8, renormalize=True), QubitState("0.6", 0.8)
        assert (psi.alpha, psi.beta) == (expected.alpha, expected.beta)


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(StateValidationError):
            Ket(np.array([1.0, 1.0]))

    def test_checks_the_squared_norm_as_qubit_state_does(self):
        # the norm misses 1 by 7e-10, within TOL_NORM, but its square by 1.4e-9
        for build in (lambda: Ket(np.array([1 + 7e-10, 0])), lambda: QubitState(1 + 7e-10, 0)):
            with pytest.raises(StateValidationError) as excinfo:
                build()
            assert excinfo.value.violation == pytest.approx(1.4e-9, rel=1e-6)

    def test_renormalize_flag(self):
        k = ket([3.0, 4.0], renormalize=True)
        assert np.allclose(k.amplitudes, [0.6, 0.8])

    @pytest.mark.parametrize(
        "amplitudes, expected",
        [
            ([3e200, 4e200], [0.6, 0.8]),
            ([3e-200, 4e-200j], [0.6, 0.8j]),
            ([1e308, -1e308j], [SQ, -1j * SQ]),
            ([5e-324, 0], [1, 0]),
            ([1e-310j, -1e-310], [1j * SQ, -SQ]),
        ],
        ids=["huge", "tiny", "near-max", "subnormal", "subnormal-complex"],
    )
    def test_renormalize_does_not_overflow_or_underflow(self, amplitudes, expected):
        # qubit_state already scales through hypot; ket must not square the raw moduli
        assert np.allclose(ket(amplitudes, renormalize=True).amplitudes, expected, atol=1e-15)

    def test_amplitudes_read_only(self):
        k = ket([1.0, 0.0])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 2.0

    @pytest.mark.parametrize("amplitudes, shape", [([], "(0,)"), ([[1, 0]], "(1, 2)")], ids=["empty", "matrix"])
    def test_rejects_what_is_not_a_non_empty_vector(self, amplitudes, shape):
        message = f"ket amplitudes must form a non-empty vector, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Ket(amplitudes)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: QubitState(1e200, 0), StateValidationError),
        (lambda: QubitState(1.5e308 + 1.5e308j, 0), StateValidationError),
        (lambda: QubitState(1.5e308, 1.5e308), StateValidationError),
        (lambda: Ket(np.array([1e200, 0])), StateValidationError),
        (lambda: Ket(np.array([1.5e308, 1.5e308])), StateValidationError),
        (lambda: QubitState(None, 1), ValueError),
        (lambda: QubitState([1, 0], 0), ValueError),
        (lambda: QubitState(object(), 1), ValueError),
    ],
    ids=[
        "huge-modulus", "overflowing-modulus", "overflowing-norm", "ket-huge-modulus", "ket-overflowing-norm",
        "none", "nested", "object",
    ],
)
def test_bad_amplitudes_raise_value_errors_without_warnings(build, error):
    # pytest turns warnings into errors, so an overflow warning fails here too
    with pytest.raises(error):
        build()


def test_renormalized_pairs_match_renormalized_kets_bit_for_bit():
    rng = np.random.default_rng(9)
    parts = rng.standard_normal((2000, 4)) * 10.0 ** rng.integers(-320, 306, (2000, 4))
    parts[::7, rng.integers(0, 4)] = 0.0
    for re_a, im_a, re_b, im_b in parts:
        alpha, beta = complex(re_a, im_a), complex(re_b, im_b)
        psi = qubit_state(alpha, beta, renormalize=True)
        amplitudes = ket([alpha, beta], renormalize=True).amplitudes
        assert np.array([psi.alpha, psi.beta]).tobytes() == amplitudes.tobytes()


@pytest.mark.parametrize(
    "build",
    [lambda: qubit_state(0.6, 0.8j), lambda: ket([0.6, 0.8j]), lambda: ket(np.array([0.0, 1.0]))],
    ids=["qubit_state", "ket-list", "ket-array"],
)
def test_unchecked_builders_check_the_amplitudes_once(build, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _unit_amplitudes(*args, **kwargs)

    monkeypatch.setattr("qteleport.states._unit_amplitudes", counted)
    build()
    assert len(calls) == 1


class TestKetToDensity:
    def test_basis_state(self):
        rho = ket_to_density(ket([1, 0]))
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_bell_vector(self):
        rho = ket_to_density(ket([SQ, 0, 0, SQ]))
        expected = np.zeros((4, 4), dtype=complex)
        for r in (0, 3):
            for c in (0, 3):
                expected[r, c] = 0.5
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_qubit_gives_coherence_block(self):
        alpha, beta = 0.6, 0.8j
        rho = ket_to_density(QubitState(alpha, beta).ket())
        expected = np.array(
            [
                [abs(alpha) ** 2, alpha * np.conj(beta)],
                [np.conj(alpha) * beta, abs(beta) ** 2],
            ]
        )
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15


class TestPurity:
    def test_pure_state(self):
        assert abs(purity(ket_to_density(ket([SQ, SQ]))) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(DensityMatrix(identity(4) / 4.0)) - 0.25) < 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_pure_states_have_unit_purity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = haar_qubit_amplitudes(rng)
        assert abs(purity(ket_to_density(ket([a, b]))) - 1.0) <= 1e-10


class TestFidelityPure:
    def test_self_overlap(self):
        k = ket([SQ, SQ])
        assert abs(fidelity_pure(k, ket_to_density(k)) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert fidelity_pure(ket([1, 0]), ket_to_density(ket([0, 1]))) == 0.0

    def test_maximally_mixed(self):
        assert abs(fidelity_pure(ket([1, 0]), DensityMatrix(identity(2) / 2.0)) - 0.5) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(ket([1, 0]), DensityMatrix(identity(4) / 4.0))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_self_overlap(self, seed):
        rng = np.random.default_rng(seed)
        a, b = haar_qubit_amplitudes(rng)
        k = ket([a, b])
        assert abs(fidelity_pure(k, ket_to_density(k)) - 1.0) <= 1e-10


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(ket_to_density(ket([SQ, 1j * SQ]))) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(identity(2) / 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_four_uniform_spectrum(self):
        rho = DensityMatrix(identity(4) / 4.0)
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_pure_states_have_exactly_zero_entropy(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert von_neumann_entropy(ket_to_density(ket(raw, renormalize=True))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_never_negative(self, seed):
        # rank-1 and rank-2 states: their zero eigenvalues come back from the
        # eigensolver as round-off of either sign
        rng = np.random.default_rng(seed)
        for dim, rank in [(2, 1), (4, 1), (4, 2), (8, 1), (8, 2)]:
            for _ in range(20):
                g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
                m = g @ g.conj().T
                assert von_neumann_entropy(DensityMatrix(m / np.trace(m).real)) >= 0.0

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NotPositive):
            von_neumann_entropy(DensityMatrix(np.diag([1.5, -0.5]).astype(complex)))

    @pytest.mark.parametrize("seed", range(8))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(_random_density(rng, 6))
        # a unitary from the QR factors of a random Hermitian
        u = np.linalg.qr(random_hermitian(rng, 6))[0]
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-9


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        rho = validate_density(identity(8) / 8.0)
        assert rho.dim == 8

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne) as excinfo:
            validate_density(PAULI_X)
        assert excinfo.value.violation == pytest.approx(1.0)

    def test_not_positive(self):
        with pytest.raises(NotPositive) as excinfo:
            validate_density(np.diag([2.0, -1.0]).astype(complex))
        assert excinfo.value.violation == pytest.approx(1.0)

    def test_not_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_density(m)

    def test_loaders_certify_what_the_constructor_does_not(self):
        # DensityMatrix checks Hermiticity and trace only; positivity is certified on loading
        m = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        doc = density_to_json(DensityMatrix(m))
        for load in (lambda: validate_density(m), lambda: density_from_json(doc)):
            with pytest.raises(NotPositive) as excinfo:
                load()
            assert excinfo.value.violation == pytest.approx(0.5)

    def test_accepts_projectors_from_random_kets(self):
        # 1000 random kets across dimensions, all must validate
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            k = ket(raw, renormalize=True)
            validate_density(ket_to_density(k).matrix)


class TestDensityMatrixType:
    def test_construction_checks_hermiticity_and_trace(self):
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(TraceNotOne):
            DensityMatrix(identity(2))

    def test_matrix_read_only(self):
        rho = DensityMatrix(identity(2) / 2.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix(np.zeros((0, 0))),
            lambda: validate_density(np.zeros((0, 0))),
            lambda: random_density(np.random.default_rng(0), 0),
        ],
        ids=["density-matrix", "validate-density", "random-density"],
    )
    def test_rejects_an_empty_matrix_by_name(self, build):
        with pytest.raises(ValueError, match=r"^density matrix must be non-empty, got shape \(0, 0\)$"):
            build()


def test_density_matrix_and_eigensolver_report_one_hermiticity_violation():
    m = np.array([[0.5, 1.0], [0.25, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian) as built:
        DensityMatrix(m)
    with pytest.raises(NotHermitian) as solved:
        eig_hermitian(m)
    assert type(built.value) is type(solved.value)
    assert built.value.violation == solved.value.violation == 0.75
    assert str(solved.value) == "matrix is not Hermitian (violation 7.500e-01)"


def test_validation_and_entropy_report_one_positivity_violation():
    m = np.diag([1.5, -0.5]).astype(complex)
    errors = []
    for check in (lambda: validate_density(m), lambda: von_neumann_entropy(DensityMatrix(m))):
        with pytest.raises(NotPositive) as excinfo:
            check()
        errors.append(excinfo.value)
    assert [str(e) for e in errors] == ["density matrix has a negative eigenvalue (violation 5.000e-01)"] * 2
    assert [e.violation for e in errors] == [0.5, 0.5]


def _with_first_entry(stack, x):
    """An object copy of stack whose first entry is x."""
    out = stack.astype(object)
    out[0, 0, 0] = x
    return out


NON_FINITE_ENTRY_CASES = [
    (lambda x: QubitState(x, 1), "qubit amplitudes"),
    (lambda x: DensityMatrix(np.array([[x, 0], [0, 1]])), "density matrix"),
    (lambda x: Ket(np.array([x, 1])), "ket amplitudes"),
    (lambda x: partial_trace(np.diag([x, 0, 0, 1]), (2, 2), {0}), "matrix"),
    (lambda x: eig_hermitian(np.array([[x, 0], [0, 1]])), "matrix"),
    (lambda x: qubit_state(x, 1, renormalize=True), "qubit amplitudes"),
    (lambda x: ket(np.array([x, 1]), renormalize=True), "ket amplitudes"),
    (lambda x: validate_density(np.array([[x, 0], [0, 1]])), "density matrix"),
    (lambda x: matrix_to_json(np.array([[x, 0], [0, 1]])), "matrix"),
    (lambda x: KrausSet(1, _with_first_entry(kraus_set(1).a_ops, x), kraus_set(1).b_ops), "a_ops"),
    (lambda x: KrausSet(1, kraus_set(1).a_ops, _with_first_entry(kraus_set(1).b_ops, x)), "b_ops"),
]
NON_FINITE_ENTRY_IDS = [
    "qubit-state", "density-matrix", "ket", "partial-trace", "eig-hermitian", "qubit-state-renormalized",
    "ket-renormalized", "validate-density", "matrix-to-json", "kraus-set-a-ops", "kraus-set-b-ops",
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build, name", NON_FINITE_ENTRY_CASES, ids=NON_FINITE_ENTRY_IDS,
)
def test_non_finite_entries_raise_the_same_message(build, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} contains non-finite entries$"):
        build(value)


@pytest.mark.parametrize(
    "build, name", NON_FINITE_ENTRY_CASES, ids=NON_FINITE_ENTRY_IDS,
)
def test_none_entries_are_named_as_non_numbers(build, name):
    # numpy reads None as NaN, which must not be reported as a non-finite number
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a regular array of numbers$"):
        build(None)


# Finite matrices whose checks overflow: numpy's pairwise trace of this diagonal adds inf and -inf,
# and a - a^H of the 2x2s has an entry past the largest double.
OVERFLOWING_TRACE = np.diag([1e308, 1e308, -1e308, -1e308, 0.25, 0.25, 0.25, 0.25])
OVERFLOWING_HERMITICITY = [np.array([[0, 1e308], [-1e308, 0]]), np.array([[0.5, 1e308j], [1e308j, 0.5]])]
LOADERS = [validate_density, lambda m: density_from_json(density_to_json(DensityMatrix(m)))]


def test_a_trace_measured_as_nan_fails_the_trace_guard():
    # no numpy warning is silenced here: under filterwarnings = ["error"] a leaked one fails the test
    with pytest.raises(TraceNotOne) as excinfo:
        DensityMatrix(OVERFLOWING_TRACE)
    assert np.isnan(excinfo.value.violation)
    assert str(excinfo.value) == "density matrix trace differs from 1 (violation nan)"


@pytest.mark.parametrize("m", OVERFLOWING_HERMITICITY, ids=["real", "imaginary"])
@pytest.mark.parametrize(
    "check", [DensityMatrix, validate_density, eig_hermitian], ids=["density-matrix", "validate-density", "eig-hermitian"]
)
def test_a_hermiticity_measured_as_inf_fails_the_hermiticity_guard(check, m):
    with pytest.raises(NotHermitian) as excinfo:
        check(m)
    assert excinfo.value.violation == np.inf


@pytest.mark.parametrize("x", [3, 1e4, 1e6, 1e8, 1e12, 1e200, 1e307, 1e308])
@pytest.mark.parametrize("load", LOADERS, ids=["validate-density", "density-from-json"])
def test_a_large_negative_eigenvalue_is_refused_as_not_positive(load, x):
    # the spectrum guard scales with the matrix, so positivity decides at every scale
    with pytest.raises(NotPositive) as excinfo:
        load(np.array([[0.5, x], [x, 0.5]]))
    assert excinfo.value.violation == pytest.approx(x - 0.5, rel=1e-15)


@pytest.mark.parametrize("load", LOADERS, ids=["validate-density", "density-from-json"])
def test_an_eigenvalue_past_the_largest_double_is_refused_as_not_positive(load):
    # |z| is past the largest double, so the spectrum is +-inf: the eigenvalue -inf is refused as such
    with pytest.raises(NotPositive) as excinfo:
        load(_two_level(0.5, 1.5e308, 1.5e308))
    assert excinfo.value.violation == np.inf


def _two_level(p: float, re: float, im: float) -> np.ndarray:
    z = complex(re, im)
    return np.array([[p, z], [z.conjugate(), 1.0 - p]])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(st.builds(_two_level, st.floats(0.0, 1.0), FINITE, FINITE))
@example(OVERFLOWING_TRACE)
@example(OVERFLOWING_HERMITICITY[0])
@example(OVERFLOWING_HERMITICITY[1])
@example(_two_level(0.5, 1.5e308, 1.5e308))
def test_validated_densities_have_a_finite_non_negative_spectrum(m):
    # an entry near the largest double overflows inside the checks, which must then refuse the matrix
    # by its documented error: the spectrum guard's RuntimeError is not one
    try:
        rho = validate_density(m)
    except StateValidationError:
        return
    spectrum = np.linalg.eigvalsh(rho.matrix)
    assert np.isfinite(spectrum).all() and spectrum.min() >= -TOL_PSD


def test_a_qubit_state_keeps_the_ket_of_its_checked_amplitudes():
    psi = QubitState(0.6, 0.8j)
    assert psi.ket() is psi.ket()
    assert psi.ket().amplitudes.tobytes() == Ket(np.array([psi.alpha, psi.beta])).amplitudes.tobytes()
    assert not psi.ket().amplitudes.flags.writeable


def _entry(value, part):
    return complex(value, 0.0) if part == "real" else complex(0.0, value)


# Where a NaN or an infinity can sit in a 2x2 input: finiteness is tested only once the Hermiticity bound fails,
# so each placement must still make a - a^H NaN or inf. Each row: (id, matrix of the entry).
NON_FINITE_PLACEMENTS = [
    ("diagonal", lambda z: [[z, 0], [0, 1]]),
    ("pair-same-sign", lambda z: [[0.5, z], [z, 0.5]]),
    ("pair-opposite-signs", lambda z: [[0.5, z], [-z, 0.5]]),
    ("pair-conjugate", lambda z: [[0.5, z], [z.conjugate(), 0.5]]),
    ("one-of-a-pair", lambda z: [[0.5, z], [0, 0.5]]),
    ("non-square", lambda z: [[0.5, 0, z], [0, 0.5, 0]]),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("placement", [m for _, m in NON_FINITE_PLACEMENTS], ids=[i for i, _ in NON_FINITE_PLACEMENTS])
@pytest.mark.parametrize(
    "check, name",
    [
        (DensityMatrix, "density matrix"),
        (eig_hermitian, "matrix"),
        (lambda m: _density_stack(np.array([m])), "density matrix"),
    ],
    ids=["density-matrix", "eig-hermitian", "stack"],
)
def test_a_non_finite_entry_fails_as_non_finite_wherever_it_sits(check, name, placement, part, value):
    # no numpy warning is silenced here: under filterwarnings = ["error"] a leaked one fails the test
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        check(np.array(placement(_entry(value, part))))


@pytest.mark.parametrize(
    "m, error",
    [
        (np.empty((0, 0)), r"must be non-empty, got shape \(0, 0\)"),
        (np.empty((0, 2)), r"must be square, got shape \(0, 2\)"),
        ([[np.nan, 0], [0]], "must be a regular array of numbers"),
        ([[None, 0], [0, 1]], "must be a regular array of numbers"),
    ],
    ids=["empty", "empty-non-square", "ragged-with-nan", "none"],
)
@pytest.mark.parametrize("check, name", [(DensityMatrix, "density matrix"), (eig_hermitian, "matrix")])
def test_inputs_that_cannot_be_measured_raise_their_first_error(check, name, m, error):
    with pytest.raises(ValueError, match=f"^{name} {error}$"):
        check(m)


STACK_FAULTS = ["non-hermitian", "off-trace", "overflowing-trace", "nan", "inf", "-inf"]


def _stack_slice(d, parts, fault, at, part):
    """A d x d Hermitian unit-trace matrix from the drawn parts, then broken as fault says."""
    g = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(d, d)
    m = g + g.conj().T
    m[np.diag_indices(d)] = 1.0 / d
    if fault == "non-hermitian":
        m[0, d - 1] += 1e-6j
    elif fault == "off-trace":
        m[0, 0] += 1e-6
    elif fault == "overflowing-trace":
        m[np.diag_indices(d)] = 1e308
    elif fault != "valid":
        m.reshape(-1)[at] = _entry(float(fault), part)
    return m


def _stacks(d):
    one = st.tuples(
        st.just(d),
        st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d),
        st.one_of(st.just("valid"), st.sampled_from(STACK_FAULTS)),
        st.integers(0, d * d - 1),
        st.sampled_from(["real", "imag"]),
    )
    return st.lists(one.map(lambda drawn: _stack_slice(*drawn)), min_size=1, max_size=4)


def _stack_of(*faults, d=3):
    return [_stack_slice(d, [0.25] * (2 * d * d), fault, 1, "imag") for fault in faults]


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4).flatmap(_stacks))
@example(_stack_of("valid", "off-trace"))
@example(_stack_of("valid", "valid", "valid", "non-hermitian"))
@example(_stack_of("valid", "overflowing-trace", "nan"))
@example(_stack_of("off-trace", "nan"))
def test_a_stack_is_accepted_and_refused_as_its_matrices_are_one_by_one(matrices):
    stack = np.array(matrices)
    first_error = None
    for m in stack:
        try:
            DensityMatrix(m)
        except ValueError as exc:
            first_error = exc
            break
    if first_error is None:
        states = _density_stack(stack.copy())
        assert len(states) == len(stack)
        assert all(isinstance(rho, DensityMatrix) and rho.matrix.tobytes() == m.tobytes() for rho, m in zip(states, stack))
        assert not any(rho.matrix.flags.writeable for rho in states)
        return
    with pytest.raises(ValueError) as excinfo:
        _density_stack(stack.copy())
    assert type(excinfo.value) is type(first_error)
    assert str(excinfo.value) == str(first_error)
    expected = getattr(first_error, "violation", None)
    got = getattr(excinfo.value, "violation", None)
    assert got == expected or (np.isnan(got) and np.isnan(expected))
