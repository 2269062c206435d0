"""The teleportation construction: Bell basis, operator sets, channel, sampling."""

import numpy as np
import pytest

from helpers import (
    HAND_DERIVED_CORRECTIONS,
    PUBLISHED_RESOURCE_1_CORRECTIONS,
    haar_qubit_amplitudes,
    initial_state_pattern,
    random_ginibre_density,
)
from qteleport.linalg import Factorization, approx_eq, dagger, identity, kron, partial_trace
from qteleport.protocol import (
    ENSEMBLE,
    RESOURCE_INDICES,
    SINGLE_SHOT,
    THREE_QUBITS,
    bell_basis,
    bits_to_index,
    build_initial_state,
    compare_swap_vs_teleport,
    correction_set,
    derive_corrections,
    index_to_bits,
    kraus_set,
    measurement_branches,
    run_protocol,
    single_shot,
    swap_gate,
    teleport_channel,
)
from qteleport.reference import A_OPS_REFERENCE, B_OPS_REFERENCE, SWAP_0_2_REFERENCE
from qteleport.serialize import dumps, report_to_json
from qteleport.states import (
    DensityMatrix,
    QubitState,
    fidelity_pure,
    ket_to_density,
    purity,
    validate_density,
    von_neumann_entropy,
)

SQ = 2 ** -0.5


class TestBellBasis:
    def test_first_and_last_vectors(self):
        basis = bell_basis()
        assert np.allclose(basis.vector(1).amplitudes, np.array([1, 0, 0, 1]) * SQ)
        assert np.allclose(basis.vector(4).amplitudes, np.array([0, 1, -1, 0]) * SQ)

    def test_gram_matrix_is_identity(self):
        vectors = np.column_stack([k.amplitudes for k in bell_basis().vectors])
        assert approx_eq(dagger(vectors) @ vectors, identity(4), 1e-12)

    def test_vectors_maximally_entangled(self):
        for k in bell_basis().vectors:
            rho = ket_to_density(k).matrix
            for factor in (0, 1):
                assert approx_eq(partial_trace(rho, (2, 2), {factor}), identity(2) / 2, 1e-12)

    def test_index_range(self):
        with pytest.raises(ValueError):
            bell_basis().vector(5)


class TestIndexMap:
    def test_worked_example(self):
        assert index_to_bits(3) == (0, 1, 1)

    def test_extremes(self):
        assert index_to_bits(0) == (0, 0, 0)
        assert index_to_bits(7) == (1, 1, 1)

    def test_round_trip(self):
        for n in range(8):
            assert bits_to_index(*index_to_bits(n)) == n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_bits(8)
        with pytest.raises(ValueError):
            index_to_bits(-1)
        with pytest.raises(ValueError):
            bits_to_index(0, 2, 0)


class TestBuildInitialState:
    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (1.0, 0.0),
            (0.6, 0.8j),
            (SQ, SQ),
            (SQ, -1j * SQ),
            (0.28, 0.96),
        ],
    )
    def test_matches_closed_form_pattern(self, alpha, beta):
        rho = build_initial_state(QubitState(alpha, beta), 1)
        assert np.max(np.abs(rho.matrix - initial_state_pattern(alpha, beta))) <= 1e-12

    def test_basis_input_touches_only_expected_rows(self):
        rho = build_initial_state(QubitState(1.0, 0.0), 1).matrix
        nonzero = {(r, c) for r in range(8) for c in range(8) if rho[r, c] != 0}
        assert nonzero == {(r, c) for r in (0, 3) for c in (0, 3)}
        assert all(rho[r, c] == 0.5 for r, c in nonzero)

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_trace_one_and_pure(self, resource):
        rho = build_initial_state(QubitState(0.6, 0.8j), resource)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert abs(purity(rho) - 1.0) <= 1e-12

    def test_invalid_resource(self):
        with pytest.raises(ValueError):
            build_initial_state(QubitState(1, 0), 0)
        with pytest.raises(ValueError):
            build_initial_state(QubitState(1, 0), 5)


class TestKrausSet:
    def test_measurement_ops_match_golden_exactly(self):
        ks = kraus_set(1)
        for built, golden in zip(ks.a_ops, A_OPS_REFERENCE):
            assert np.array_equal(built, golden)

    def test_correction_ops_match_golden_exactly(self):
        ks = kraus_set(1)
        for built, golden in zip(ks.b_ops, B_OPS_REFERENCE):
            assert np.array_equal(built, golden)

    def test_spot_entries(self):
        ks = kraus_set(1)
        assert ks.a_ops[0][0, 6] == 1.0
        assert ks.a_ops[2][0, 6] == -1.0 and ks.a_ops[2][6, 0] == -1.0
        assert np.array_equal(ks.b_ops[2], np.diag([1, -1, 1, -1, 1, -1, 1, -1]).astype(complex))

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_completeness(self, resource):
        total = sum(dagger(k) @ k for k in kraus_set(resource).kraus_operators())
        assert approx_eq(total, identity(8), 1e-12)

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_halved_measurement_ops_are_rank2_projectors(self, resource):
        for a in kraus_set(resource).a_ops:
            p = a / 2.0
            assert approx_eq(p @ p, p, 1e-12)
            assert abs(np.trace(p).real - 2.0) <= 1e-12

    def test_invalid_resource(self):
        with pytest.raises(ValueError):
            kraus_set(7)


class TestTeleportChannel:
    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_block_diagonal_output(self, resource):
        psi = QubitState(0.6, 0.8j)
        out = teleport_channel(build_initial_state(psi, resource), kraus_set(resource))
        sigma = ket_to_density(psi.ket()).matrix
        assert np.max(np.abs(out.matrix - kron(identity(4) / 4.0, sigma))) <= 1e-10

    def test_marginals(self):
        psi = QubitState(SQ, 1j * SQ)
        out = teleport_channel(build_initial_state(psi, 1), kraus_set(1))
        m12 = partial_trace(out.matrix, THREE_QUBITS, {0, 1})
        m3 = partial_trace(out.matrix, THREE_QUBITS, {2})
        assert approx_eq(m12, identity(4) / 4.0, 1e-10)
        assert approx_eq(m3, ket_to_density(psi.ket()).matrix, 1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_preserving_on_arbitrary_states(self, seed):
        rho = DensityMatrix(random_ginibre_density(np.random.default_rng(seed), 8))
        out = teleport_channel(rho, kraus_set(1))
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
        validate_density(out.matrix)

    def test_fidelity_one_for_random_states_and_every_resource(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            alpha, beta = haar_qubit_amplitudes(rng)
            psi = QubitState(alpha, beta)
            for j in RESOURCE_INDICES:
                out = teleport_channel(build_initial_state(psi, j), kraus_set(j))
                marginal = DensityMatrix(partial_trace(out.matrix, THREE_QUBITS, {2}))
                assert fidelity_pure(psi.ket(), marginal) >= 1 - 1e-9

    def test_spectrum_of_protocol_output(self):
        out = teleport_channel(build_initial_state(QubitState(0.6, 0.8j), 1), kraus_set(1))
        from qteleport.linalg import eig_hermitian

        values, _ = eig_hermitian(out.matrix)
        assert np.allclose(values, [0.25] * 4 + [0.0] * 4, atol=1e-10)
        assert abs(purity(out) - 0.25) <= 1e-10
        assert abs(von_neumann_entropy(out) - 2.0) <= 1e-9

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            teleport_channel(DensityMatrix(identity(4) / 4.0), kraus_set(1))


class TestSingleShot:
    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_uniform_outcome_probabilities(self, resource):
        rho_in = build_initial_state(QubitState(0.6, 0.8j), resource)
        branches = measurement_branches(rho_in, kraus_set(resource))
        for p, _ in branches:
            assert abs(p - 0.25) <= 1e-10

    def test_probabilities_against_golden_matrix_brute_force(self):
        # independent route: direct traces with the hand-transcribed operators
        rho = build_initial_state(QubitState(0.28, 0.96j), 1)
        branches = measurement_branches(rho, kraus_set(1))
        for (p, _), a_golden in zip(branches, A_OPS_REFERENCE):
            projector = a_golden / 2.0
            brute_force = np.trace(projector @ rho.matrix @ projector).real
            assert abs(p - brute_force) <= 1e-14

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_post_states_carry_input_on_last_factor(self, resource):
        psi = QubitState(0.6, 0.8j)
        rho_in = build_initial_state(psi, resource)
        target = ket_to_density(psi.ket()).matrix
        for i, (_, state) in enumerate(measurement_branches(rho_in, kraus_set(resource)), start=1):
            bell_u = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]])[i - 1]
            expected = kron(np.outer(bell_u, bell_u) / 2.0, target)
            assert approx_eq(state.matrix, expected, 1e-10)
            assert approx_eq(partial_trace(state.matrix, THREE_QUBITS, {2}), target, 1e-10)

    def test_mixture_reproduces_ensemble(self):
        rho_in = build_initial_state(QubitState(0.28, 0.96j), 1)
        ks = kraus_set(1)
        mixture = sum(p * s.matrix for p, s in measurement_branches(rho_in, ks))
        assert approx_eq(mixture, teleport_channel(rho_in, ks).matrix, 1e-10)

    def test_deterministic_for_fixed_seed(self):
        rho_in = build_initial_state(QubitState(0.6, 0.8j), 1)
        ks = kraus_set(1)
        first = single_shot(rho_in, ks, 7)
        second = single_shot(rho_in, ks, 7)
        assert first[0] == second[0]
        assert np.array_equal(first[1].matrix, second[1].matrix)

    def test_zero_probability_branches_never_sampled(self):
        # factors 1,2 already hold the first Bell vector: outcome is always 1
        bell_u = np.array([1, 0, 0, 1], dtype=complex)
        rho = DensityMatrix(kron(np.outer(bell_u, bell_u) / 2.0, np.diag([1.0, 0.0])))
        ks = kraus_set(1)
        branches = measurement_branches(rho, ks)
        assert branches[0][0] == pytest.approx(1.0)
        assert all(state is None for _, state in branches[1:])
        for seed in range(25):
            outcome, _ = single_shot(rho, ks, seed)
            assert outcome == 1

    def test_outcome_frequencies_roughly_uniform(self):
        rho_in = build_initial_state(QubitState(0.6, 0.8j), 1)
        ks = kraus_set(1)
        counts = np.zeros(4)
        for seed in range(2000):
            outcome, _ = single_shot(rho_in, ks, seed)
            counts[outcome - 1] += 1
        assert np.max(np.abs(counts / 2000 - 0.25)) < 0.05


class TestCorrections:
    def test_resource_1_search_matches_published_up_to_phase(self):
        derived = derive_corrections(1).unitaries
        for found, published in zip(derived, PUBLISHED_RESOURCE_1_CORRECTIONS):
            overlap = dagger(found) @ published
            assert np.max(np.abs(np.abs(overlap) - identity(2))) <= 1e-10

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_search_reproduces_hand_derived_tuples(self, resource):
        derived = derive_corrections(resource).unitaries
        for found, expected in zip(derived, HAND_DERIVED_CORRECTIONS[resource]):
            assert np.array_equal(found, expected)

    def test_production_set_for_resource_1_is_published_exactly(self):
        production = correction_set(1).unitaries
        for u, published in zip(production, PUBLISHED_RESOURCE_1_CORRECTIONS):
            assert np.array_equal(u, published)

    def test_singlet_corrections_compose_resource1_with_outcome4(self):
        u1 = correction_set(1).unitaries
        u4 = derive_corrections(4).unitaries
        for i in range(4):
            composed = u1[i] @ u1[3]
            overlap = dagger(u4[i]) @ composed
            assert np.max(np.abs(np.abs(overlap) - identity(2))) <= 1e-10

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_corrections_restore_spanning_inputs(self, resource):
        ks = kraus_set(resource)
        for alpha, beta in [(1, 0), (0, 1), (SQ, SQ), (SQ, 1j * SQ)]:
            psi = QubitState(alpha, beta)
            rho_in = build_initial_state(psi, resource)
            for _, state in measurement_branches(rho_in, ks):
                marginal = DensityMatrix(partial_trace(state.matrix, THREE_QUBITS, {2}))
                assert fidelity_pure(psi.ket(), marginal) >= 1 - 1e-9

    def test_every_unitary_is_phased_pauli(self):
        paulis = [identity(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.array([[1, 0], [0, -1]])]
        for resource in RESOURCE_INDICES:
            for u in correction_set(resource).unitaries:
                assert approx_eq(dagger(u) @ u, identity(2), 1e-12)
                assert any(
                    np.max(np.abs(np.abs(dagger(u) @ p) - identity(2))) <= 1e-12 for p in paulis
                )


class TestSwapGate:
    def test_matches_golden_exactly(self):
        assert np.array_equal(swap_gate(THREE_QUBITS, 0, 2), SWAP_0_2_REFERENCE)

    def test_row_one_maps_to_column_four(self):
        assert swap_gate(THREE_QUBITS, 0, 2)[1, 4] == 1.0

    def test_involution(self):
        swap = swap_gate(THREE_QUBITS, 0, 2)
        assert np.array_equal(swap @ swap, identity(8))

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_conjugation_moves_input_to_last_factor(self, resource):
        psi = QubitState(0.6, 0.8j)
        rho_in = build_initial_state(psi, resource)
        swap = swap_gate(THREE_QUBITS, 0, 2)
        moved = swap @ rho_in.matrix @ dagger(swap)
        bell_u = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]])[resource - 1]
        expected = kron(np.outer(bell_u, bell_u) / 2.0, ket_to_density(psi.ket()).matrix)
        assert approx_eq(moved, expected, 1e-10)

    def test_general_factorizations(self):
        f = Factorization((2, 3, 2))
        swap = swap_gate(f, 0, 2)
        assert approx_eq(swap @ swap, identity(12), 0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            swap_gate(THREE_QUBITS, 1, 1)
        with pytest.raises(ValueError):
            swap_gate(THREE_QUBITS, 0, 3)
        with pytest.raises(ValueError):
            swap_gate(Factorization((2, 4)), 0, 1)


class TestCompareSwapVsTeleport:
    def test_contrast_for_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            alpha, beta = haar_qubit_amplitudes(rng)
            comparison = compare_swap_vs_teleport(QubitState(alpha, beta))
            assert comparison.teleport.entropy_12_bits == pytest.approx(2.0, abs=1e-9)
            assert comparison.swap.entropy_12_bits == pytest.approx(0.0, abs=1e-9)
            assert comparison.swap.purity_12 == pytest.approx(1.0, abs=1e-10)
            assert comparison.teleport.fidelity_3 == pytest.approx(1.0, abs=1e-9)
            assert comparison.swap.fidelity_3 == pytest.approx(1.0, abs=1e-9)

    def test_swap_branch_keeps_bell_vector_on_first_factors(self):
        comparison = compare_swap_vs_teleport(QubitState(0.6, 0.8))
        bell_u = np.array([1, 0, 0, 1], dtype=complex)
        assert approx_eq(comparison.swap.marginal_12.matrix, np.outer(bell_u, bell_u) / 2.0, 1e-10)
        assert approx_eq(comparison.teleport.marginal_12.matrix, identity(4) / 4.0, 1e-10)

    def test_resource_flags(self):
        comparison = compare_swap_vs_teleport(QubitState(1, 0))
        assert comparison.teleport.requires_bell_resource
        assert not comparison.swap.requires_bell_resource


class TestRunProtocol:
    def test_ensemble_basis_state(self):
        report = run_protocol(QubitState(1, 0), 1, ENSEMBLE)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.output_entropy_bits == pytest.approx(2.0, abs=1e-9)
        assert report.outcome is None
        assert not report.paper_extension
        assert report.outcome_probabilities == pytest.approx((0.25,) * 4, abs=1e-10)

    def test_plus_state_marginal(self):
        report = run_protocol(QubitState(SQ, SQ), 1, ENSEMBLE)
        plus = ket_to_density(QubitState(SQ, SQ).ket()).matrix
        assert approx_eq(report.marginal_3.matrix, plus, 1e-10)

    def test_single_shot_mode(self):
        report = run_protocol(QubitState(0.6, 0.8j), 2, SINGLE_SHOT, rng_seed=3)
        assert report.outcome in (1, 2, 3, 4)
        assert report.paper_extension
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert report.output_entropy_bits == pytest.approx(0.0, abs=1e-9)
        assert report.outcome_probabilities == pytest.approx((0.25,) * 4, abs=1e-10)

    def test_pure_single_shot_output_has_exactly_zero_entropy(self):
        assert run_protocol(QubitState(1, 0), 1, SINGLE_SHOT, 3).output_entropy_bits == 0.0

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_single_shot_report_uses_the_branch_arithmetic(self, resource):
        # run_protocol, single_shot and measurement_branches must agree bit for bit
        psi = QubitState(0.6, 0.8j)
        rho_in = build_initial_state(psi, resource)
        ks = kraus_set(resource)
        branches = measurement_branches(rho_in, ks)
        for seed in range(8):
            report = run_protocol(psi, resource, SINGLE_SHOT, seed)
            outcome, state = single_shot(rho_in, ks, seed)
            assert report.outcome == outcome
            assert np.array_equal(report.output_density.matrix, state.matrix)
            assert np.array_equal(state.matrix, branches[outcome - 1][1].matrix)
            assert report.outcome_probabilities == tuple(p for p, _ in branches)

    def test_numpy_integer_seed_is_echoed_as_int(self):
        report = run_protocol(QubitState(0.6, 0.8j), 1, SINGLE_SHOT, np.int64(9))
        assert type(report.seed) is int
        same = run_protocol(QubitState(0.6, 0.8j), 1, SINGLE_SHOT, 9)
        assert dumps(report_to_json(report)) == dumps(report_to_json(same))

    def test_numpy_integer_resource_index_is_stored_as_int(self):
        report = run_protocol(QubitState(0.6, 0.8j), np.int64(2), SINGLE_SHOT, 9)
        assert type(report.resource_index) is int
        same = run_protocol(QubitState(0.6, 0.8j), 2, SINGLE_SHOT, 9)
        assert dumps(report_to_json(report)) == dumps(report_to_json(same))

    @pytest.mark.parametrize(
        "index",
        [True, np.True_, 1.0, np.float64(2.0)],
        ids=["bool", "numpy-bool", "float", "numpy-float"],
    )
    def test_rejects_a_resource_index_that_is_not_an_integer(self, index):
        for mode in (ENSEMBLE, SINGLE_SHOT):
            with pytest.raises(ValueError, match="index must be one of"):
                run_protocol(QubitState(1, 0), index, mode)

    @pytest.mark.parametrize(
        "seed",
        [np.random.default_rng(0), 1.5, "3", None, True, -1],
        ids=["generator", "float", "str", "none", "bool", "negative"],
    )
    def test_rejects_bad_seed_before_any_work(self, seed, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the protocol ran before the seed was checked")

        monkeypatch.setattr("qteleport.protocol.build_initial_state", fail)
        for mode in (ENSEMBLE, SINGLE_SHOT):
            with pytest.raises(ValueError, match="rng_seed"):
                run_protocol(QubitState(1, 0), 1, mode, seed)

    def test_fixed_seed_reports_are_byte_identical(self):
        first = run_protocol(QubitState(0.6, 0.8j), 1, SINGLE_SHOT, rng_seed=9)
        second = run_protocol(QubitState(0.6, 0.8j), 1, SINGLE_SHOT, rng_seed=9)
        assert dumps(report_to_json(first)) == dumps(report_to_json(second))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_protocol(QubitState(1, 0), 1, "both")
