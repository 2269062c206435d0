"""Sampled properties: the protocol over Haar-random inputs and every resource,
and the text and JSON formats over arbitrary finite numbers."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import identity
from qteleport.cli import _fmt_pair, parse_complex
from qteleport.protocol import ENSEMBLE, MODES, RESOURCE_INDICES, run_protocol
from qteleport.serialize import (
    complex_pair,
    density_from_json,
    density_to_json,
    dumps,
    ket_from_json,
    ket_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
)
from qteleport.states import (
    TOL_NORM,
    QubitState,
    StateValidationError,
    ket,
    ket_to_density,
    qubit_state,
    random_density,
    random_qubit_state,
)

SEEDS = st.integers(0, 2**32 - 1)
RESOURCES = st.sampled_from(RESOURCE_INDICES)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def haar_input(seed: int) -> QubitState:
    return random_qubit_state(np.random.default_rng(seed))


@PROPERTY_SETTINGS
@given(SEEDS, RESOURCES)
def test_ensemble_output_is_maximally_mixed_times_the_input(seed, resource):
    psi = haar_input(seed)
    output = run_protocol(psi, resource, ENSEMBLE).output_density.matrix
    expected = np.kron(identity(4) / 4.0, ket_to_density(psi.ket()).matrix)
    assert np.abs(output - expected).max() <= 1e-10


@PROPERTY_SETTINGS
@given(SEEDS, RESOURCES, st.sampled_from(MODES), SEEDS)
def test_fidelity_is_one(seed, resource, mode, shot_seed):
    assert run_protocol(haar_input(seed), resource, mode, shot_seed).fidelity >= 1 - 1e-9


@PROPERTY_SETTINGS
@given(SEEDS, RESOURCES, st.sampled_from(MODES), SEEDS)
def test_every_outcome_has_probability_one_quarter(seed, resource, mode, shot_seed):
    probabilities = run_protocol(haar_input(seed), resource, mode, shot_seed).outcome_probabilities
    assert max(abs(p - 0.25) for p in probabilities) <= 1e-10


@PROPERTY_SETTINGS
@given(SEEDS, RESOURCES, st.sampled_from(MODES), SEEDS)
def test_reports_are_byte_identical_per_seed(seed, resource, mode, shot_seed):
    first, second = (
        dumps(report_to_json(run_protocol(haar_input(seed), resource, mode, shot_seed))) for _ in range(2)
    )
    assert first == second


FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(-1.0, 1.0)
# finite parts of every size, subnormal and near 1e308 included
FINITE_COMPLEX = st.builds(complex, FINITE, FINITE)
MATRICES = arrays(
    np.complex128, array_shapes(min_dims=2, max_dims=2, max_side=4), elements=FINITE_COMPLEX
)
KETS = (
    st.integers(1, 8)
    .flatmap(lambda n: arrays(np.complex128, n, elements=st.builds(complex, UNIT, UNIT)))
    .filter(lambda amplitudes: amplitudes.any())
    .map(lambda amplitudes: ket(amplitudes, renormalize=True))
)
DENSITIES = st.one_of(
    KETS.map(ket_to_density),
    st.builds(lambda seed, n: random_density(np.random.default_rng(seed), n), SEEDS, st.integers(1, 8)),
)


def assert_within_rounding(back: np.ndarray, original: np.ndarray) -> None:
    """Each real and imaginary part within half a unit in its 12th significant
    digit, plus half a unit in the last place of the double it parses to."""
    assert back.shape == original.shape
    for part in (np.real, np.imag):
        assert (np.abs(part(back) - part(original)) <= 5.001e-12 * np.abs(part(original)) + 5e-324).all()


@PROPERTY_SETTINGS
@given(FINITE, FINITE)
def test_complex_literals_round_trip(re, im):
    text = _fmt_pair(complex_pair(complex(re, im)))
    back = parse_complex(text)
    assert back == complex(float(f"{re:.12g}"), float(f"{im:.12g}"))
    assert _fmt_pair(complex_pair(back)) == text


@PROPERTY_SETTINGS
@given(MATRICES)
def test_matrix_documents_round_trip(m):
    doc = json.loads(dumps(matrix_to_json(m)))
    back = matrix_from_json(doc)
    assert_within_rounding(back, m)
    assert matrix_to_json(back) == doc


@PROPERTY_SETTINGS
@given(KETS)
def test_ket_documents_round_trip(k):
    doc = json.loads(dumps(ket_to_json(k)))
    back = ket_from_json(doc)
    assert_within_rounding(back.amplitudes, k.amplitudes)
    assert ket_to_json(back) == doc


@PROPERTY_SETTINGS
@given(DENSITIES)
def test_density_documents_round_trip(rho):
    doc = json.loads(dumps(density_to_json(rho)))
    back = density_from_json(doc)
    assert_within_rounding(back.matrix, rho.matrix)
    assert density_to_json(back) == doc


@PROPERTY_SETTINGS
@given(FINITE_COMPLEX, FINITE_COMPLEX)
def test_every_finite_pair_renormalizes(alpha, beta):
    # pytest turns warnings into errors, so an overflow warning fails here too
    if alpha == 0 and beta == 0:
        with pytest.raises(ValueError, match="^cannot renormalize"):
            qubit_state(alpha, beta, renormalize=True)
        return
    psi = qubit_state(alpha, beta, renormalize=True)
    assert abs(abs(psi.alpha) ** 2 + abs(psi.beta) ** 2 - 1.0) <= 1e-15


# Parts from 1e-300 to 1e300 in magnitude, besides any finite float (subnormals and near-overflow included).
SCALED_PART = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300))
AMPLITUDE = st.builds(complex, st.one_of(FINITE, SCALED_PART), st.one_of(FINITE, SCALED_PART))


def hypot_oracle(values: list[complex]) -> tuple[np.ndarray, float]:
    """The renormalized amplitudes and the squared-norm deviation of values, the norm taken by np.hypot.reduce."""
    v = np.array(values, dtype=complex)
    parts = v.view(float)
    scale = float(np.max(np.abs(parts)))
    if not (0.0 < scale < sys.float_info.min or scale > sys.float_info.max / parts.size**0.5):
        scale = 1.0
    parts /= scale
    norm = float(np.hypot.reduce(np.hypot(v.real, v.imag)))
    deviation = abs(scale * norm * scale * norm - 1.0)
    if norm:
        parts /= norm
    return v, deviation


def assert_checked_like_the_oracle(build, values: list[complex]) -> None:
    """build(values) keeps the amplitudes when the oracle's deviation is within TOL_NORM, else raises it."""
    _, deviation = hypot_oracle(values)
    if deviation > TOL_NORM:
        with pytest.raises(StateValidationError) as excinfo:
            build(values)
        assert excinfo.value.violation == deviation
    else:
        assert build(values).tobytes() == np.array(values, dtype=complex).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(AMPLITUDE, min_size=1, max_size=8).filter(any))
def test_ket_norm_matches_numpy_hypot_bit_for_bit(values):
    unit, _ = hypot_oracle(values)
    assert ket(values, renormalize=True).amplitudes.tobytes() == unit.tobytes()
    assert_checked_like_the_oracle(lambda v: ket(v).amplitudes, values)
    assert_checked_like_the_oracle(lambda v: ket(v).amplitudes, unit.tolist())


@settings(max_examples=300, deadline=None)
@given(st.tuples(AMPLITUDE, AMPLITUDE).filter(any))
def test_qubit_norm_matches_numpy_hypot_bit_for_bit(pair):
    unit, _ = hypot_oracle(list(pair))
    psi = qubit_state(*pair, renormalize=True)
    assert np.array([psi.alpha, psi.beta]).tobytes() == unit.tobytes()

    def amplitudes(v):
        psi = QubitState(*v)
        return np.array([psi.alpha, psi.beta])

    assert_checked_like_the_oracle(amplitudes, list(pair))
    assert_checked_like_the_oracle(amplitudes, unit.tolist())
