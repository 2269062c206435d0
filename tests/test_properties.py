"""Sampled properties of the protocol over Haar-random inputs and every resource."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.linalg import identity, kron
from qteleport.protocol import ENSEMBLE, MODES, RESOURCE_INDICES, run_protocol
from qteleport.serialize import dumps, report_to_json
from qteleport.states import QubitState, ket_to_density, random_qubit_state

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
    expected = kron(identity(4) / 4.0, ket_to_density(psi.ket()).matrix)
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
