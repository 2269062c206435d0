"""The teleportation construction: Bell basis, operator sets, channel, sampling."""

import dataclasses

import numpy as np
import pytest

from helpers import (
    BAD_COUNTS,
    BAD_SEEDS,
    HAND_DERIVED_CORRECTIONS,
    PUBLISHED_RESOURCE_1_CORRECTIONS,
    approx_eq,
    haar_qubit_amplitudes,
    initial_state_pattern,
    random_ginibre_density,
    run_python,
)
from qteleport import protocol, states
from qteleport.linalg import dagger, identity, kron, partial_trace
from qteleport.protocol import (
    ENSEMBLE,
    RESOURCE_INDICES,
    SINGLE_SHOT,
    SWAP_0_2,
    THREE_QUBITS,
    SwapComparison,
    _BELL_PATTERNS,
    _CANDIDATE_PAULIS,
    KrausSet,
    _corrected_branches,
    _marginals,
    bell_basis,
    build_initial_state,
    compare_swap_vs_teleport,
    correction_set,
    derive_corrections,
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
    Ket,
    QubitState,
    StateValidationError,
    fidelity_pure,
    ket_to_density,
    purity,
    validate_density,
    von_neumann_entropy,
)
from qteleport.verify import CheckResult, corrupted_for_negative_control, run_checks

SQ = 2 ** -0.5


class TestBellBasis:
    def test_first_and_last_vectors(self):
        basis = bell_basis()
        assert type(basis) is tuple and len(basis) == 4
        assert np.allclose(basis[0].amplitudes, np.array([1, 0, 0, 1]) * SQ)
        assert np.allclose(basis[3].amplitudes, np.array([0, 1, -1, 0]) * SQ)

    def test_gram_matrix_is_identity(self):
        vectors = np.column_stack([k.amplitudes for k in bell_basis()])
        assert approx_eq(dagger(vectors) @ vectors, identity(4), 1e-12)

    def test_vectors_maximally_entangled(self):
        for k in bell_basis():
            rho = ket_to_density(k).matrix
            for factor in (0, 1):
                assert approx_eq(partial_trace(rho, (2, 2), {factor}), identity(2) / 2, 1e-12)


class TestIndexMap:
    """The three virtual qubits are reshape(2, 2, 2) of the basis index n = 4a + 2b + c."""

    E = np.eye(2)

    def test_worked_example(self):
        # |3> = |011>
        assert np.array_equal(np.eye(8)[3], kron(self.E[0], self.E[1], self.E[1]))

    def test_extremes(self):
        assert np.array_equal(np.eye(8)[0], kron(self.E[0], self.E[0], self.E[0]))
        assert np.array_equal(np.eye(8)[7], kron(self.E[1], self.E[1], self.E[1]))

    def test_round_trip(self):
        assert THREE_QUBITS == (2, 2, 2)
        for n in range(8):
            a, b, c = n // 4, (n // 2) % 2, n % 2
            assert np.array_equal(np.eye(8)[n], kron(self.E[a], self.E[b], self.E[c]))
            assert np.eye(8)[n].reshape(THREE_QUBITS)[a, b, c] == 1.0


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
        total = sum(dagger(k) @ k for k in kraus_set(resource).kraus)
        assert approx_eq(total, identity(8), 1e-12)

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_kraus_is_b_a_over_2_bit_for_bit(self, resource):
        ks = kraus_set(resource)
        assert len(ks.kraus) == 4
        for k, a, b in zip(ks.kraus, ks.a_ops, ks.b_ops):
            assert np.array_equal(k, b @ a / 2.0)

    def test_kraus_is_read_only(self):
        ks = kraus_set(1)
        with pytest.raises(ValueError):
            ks.kraus[0][0, 0] = 1.0
        with pytest.raises(AttributeError):
            ks.kraus = ()

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_projectors_are_halved_a_ops_bit_for_bit(self, resource):
        ks = kraus_set(resource)
        assert len(ks.projectors) == 4
        for p, a in zip(ks.projectors, ks.a_ops):
            assert np.array_equal(p, a / 2)

    def test_projectors_are_read_only(self):
        ks = kraus_set(1)
        with pytest.raises(ValueError):
            ks.projectors[0][0, 0] = 1.0
        with pytest.raises(AttributeError):
            ks.projectors = ()

    def test_corrupted_set_builds_its_own_projectors(self):
        ks = kraus_set(2)
        bad = corrupted_for_negative_control(ks)
        assert not np.array_equal(bad.projectors[0], ks.projectors[0])
        assert np.array_equal(bad.projectors[0], bad.a_ops[0] / 2)
        # the branch pass reads them, so the corrupted set reaches it
        rho_in = build_initial_state(QubitState(0.6, 0.8j), 2)
        measurement_branches(rho_in, ks)
        with pytest.raises(StateValidationError):
            measurement_branches(rho_in, bad)

    def test_corrupted_set_builds_its_own_kraus(self):
        ks = kraus_set(2)
        bad = corrupted_for_negative_control(ks)
        assert not np.array_equal(bad.kraus[0], ks.kraus[0])
        assert np.array_equal(bad.kraus[0], bad.b_ops[0] @ bad.a_ops[0] / 2.0)

    def test_set_keeps_its_own_copy_of_the_operators(self):
        good = kraus_set(2)
        a, b = np.array(good.a_ops), [m.copy() for m in good.b_ops]
        ks = KrausSet(2, a, b)
        a[0, 0, 0] = b[1][0, 0] = 7.0
        for name in ("a_ops", "b_ops", "projectors", "kraus"):
            assert np.array_equal(getattr(ks, name), getattr(good, name))
            with pytest.raises(ValueError):
                getattr(ks, name)[0][0, 0] = 1.0

    def test_rejects_other_than_four_8x8_operator_pairs(self):
        ks = kraus_set(1)
        with pytest.raises(ValueError, match="four 8x8"):
            KrausSet(1, ks.a_ops[:3], ks.b_ops)
        with pytest.raises(ValueError, match="four 8x8"):
            KrausSet(1, ks.a_ops, ks.b_ops[:, :4, :4])

    @pytest.mark.parametrize("field", ["a_ops", "b_ops"])
    def test_rejects_non_finite_operators_by_name(self, field):
        ops = {"a_ops": kraus_set(1).a_ops, "b_ops": kraus_set(1).b_ops, field: np.full((4, 8, 8), np.nan)}
        with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
            KrausSet(1, **ops)

    @pytest.mark.parametrize("index", ["x", 7, 0, 1.0, True, None])
    def test_rejects_a_resource_index_outside_the_four(self, index):
        ks = kraus_set(1)
        with pytest.raises(ValueError, match="index must be one of"):
            KrausSet(index, ks.a_ops, ks.b_ops)

    def test_stores_a_numpy_resource_index_as_a_python_int(self):
        ks = kraus_set(3)
        assert type(KrausSet(np.int64(3), ks.a_ops, ks.b_ops).resource_index) is int

    def test_corrupted_set_differs_in_one_entry(self):
        ks = kraus_set(2)
        bad = corrupted_for_negative_control(ks)
        assert bad.a_ops.shape == (4, 8, 8)
        assert np.argwhere(bad.a_ops != ks.a_ops).tolist() == [[0, 0, 6]]
        assert np.array_equal(bad.b_ops, ks.b_ops)

    def test_weight_is_not_a_constructor_argument(self):
        ks = kraus_set(1)
        assert ks.weight == 0.25
        with pytest.raises(TypeError):
            KrausSet(1, ks.a_ops, ks.b_ops, 0.5)

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_halved_measurement_ops_are_rank2_projectors(self, resource):
        for a in kraus_set(resource).a_ops:
            p = a / 2.0
            assert approx_eq(p @ p, p, 1e-12)
            assert abs(np.trace(p).real - 2.0) <= 1e-12

    def test_invalid_resource(self):
        with pytest.raises(ValueError):
            kraus_set(7)

    def test_one_set_per_resource_whatever_the_integer_spelling(self):
        assert kraus_set(2) is kraus_set(np.int64(2)) is kraus_set(resource_index=2)
        assert kraus_set() is kraus_set(1)
        assert [kraus_set(j).resource_index for j in RESOURCE_INDICES] == list(RESOURCE_INDICES)

    @pytest.mark.parametrize("build", [kraus_set, derive_corrections, correction_set])
    def test_unhashable_index_raises_the_documented_error(self, build):
        with pytest.raises(ValueError, match=r"^index must be one of \(1, 2, 3, 4\), got \[1\]$"):
            build([1])


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

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_equals_the_weighted_operator_pair_sum_bit_for_bit(self, resource):
        # Reference: 1/4 sum_i (B^i A^i) rho (B^i A^i)^dag, accumulated in outcome order.
        # Halving K_i scales by a power of two, so the result is the same floats.
        rho = DensityMatrix(random_ginibre_density(np.random.default_rng(resource), 8))
        ks = kraus_set(resource)
        expected = np.zeros((8, 8), dtype=complex)
        for a, b in zip(ks.a_ops, ks.b_ops):
            k = b @ a
            expected += 0.25 * (k @ rho.matrix @ dagger(k))
        assert np.array_equal(teleport_channel(rho, ks).matrix, expected)

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

        values = eig_hermitian(out.matrix)
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

    @pytest.mark.parametrize(
        "seed",
        [1.5, True, np.True_, -1, "3", None],
        ids=["float", "bool", "numpy-bool", "negative", "str", "none"],
    )
    def test_rejects_bad_seed(self, seed):
        rho_in = build_initial_state(QubitState(0.6, 0.8j), 1)
        with pytest.raises(ValueError, match="rng_seed"):
            single_shot(rho_in, kraus_set(1), seed)

    def test_accepts_a_generator_or_numpy_integer_seed(self):
        # README documents the Generator route: it draws exactly as the seed it was made from
        for resource in RESOURCE_INDICES:
            rho_in = build_initial_state(QubitState(0.6, 0.8j), resource)
            ks = kraus_set(resource)
            for seed in range(200):
                outcome, state = single_shot(rho_in, ks, seed)
                for same_seed in (np.int64(seed), np.random.default_rng(seed)):
                    same_outcome, same_state = single_shot(rho_in, ks, same_seed)
                    assert same_outcome == outcome
                    assert same_state.matrix.tobytes() == state.matrix.tobytes()

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

    def test_refuses_a_set_whose_branches_all_vanish(self):
        ks = KrausSet(1, np.zeros((4, 8, 8)), kraus_set(1).b_ops)
        rho_in = build_initial_state(QubitState(0.6, 0.8j), 1)
        with pytest.raises(ValueError, match="^all measurement branches have vanishing probability$"):
            single_shot(rho_in, ks, 0)


class TestCorrections:
    def test_resource_1_search_matches_published_up_to_phase(self):
        derived = derive_corrections(1)
        for found, published in zip(derived, PUBLISHED_RESOURCE_1_CORRECTIONS):
            overlap = dagger(found) @ published
            assert np.max(np.abs(np.abs(overlap) - identity(2))) <= 1e-10

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_search_reproduces_hand_derived_tuples(self, resource):
        derived = derive_corrections(resource)
        assert type(derived) is tuple and len(derived) == 4
        for found, expected in zip(derived, HAND_DERIVED_CORRECTIONS[resource]):
            assert np.array_equal(found, expected)

    def test_search_picks_candidates_without_building_states(self, monkeypatch):
        def fail(self):
            raise AssertionError(f"the search built a {type(self).__name__}")

        for cls in (DensityMatrix, QubitState, KrausSet):
            monkeypatch.setattr(cls, "__post_init__", fail)
        for resource in RESOURCE_INDICES:
            # the winners are the candidate objects themselves, so the tables print unchanged
            assert all(any(found is c for c in _CANDIDATE_PAULIS) for found in derive_corrections(resource))

    @pytest.mark.parametrize("resource, outcome", [(1, 3), (2, 4), (3, 1), (4, 2)])
    def test_search_names_the_outcome_no_candidate_corrects(self, resource, outcome, monkeypatch):
        # without sigma_z, the first outcome whose correction is sigma_z has no candidate left
        monkeypatch.setattr("qteleport.protocol._CANDIDATE_PAULIS", _CANDIDATE_PAULIS[:3])
        message = f"^no Pauli corrects outcome {outcome} for resource {resource}$"
        with pytest.raises(RuntimeError, match=message):
            derive_corrections(resource)

    def test_import_fails_when_no_candidate_corrects_a_production_outcome(self):
        # the production sets are built at import, so a failed search stops the import;
        # resource 1 keeps its published table, and resource 2 is the first one searched
        result = run_python(
            "import qteleport.linalg as la\n"
            "la.PAULI_Z = la.PAULI_X\n"
            "try:\n"
            "    import qteleport.protocol\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "no Pauli corrects outcome 4 for resource 2\n"

    def test_verify_checks_each_derived_table_against_the_hand_derived_one(self, monkeypatch):
        search = derive_corrections

        def wrong_for_resource_3(resource):
            return search(resource)[::-1] if resource == 3 else search(resource)

        def production(resource):
            if resource != 3:
                return kraus_set(resource)
            return KrausSet(3, kraus_set(3).a_ops, [kron(identity(4), u) for u in wrong_for_resource_3(3)])

        # production reads the same wrong table, so comparing the two alone would pass
        monkeypatch.setattr("qteleport.verify.kraus_set", production)
        monkeypatch.setattr("qteleport.verify.derive_corrections", wrong_for_resource_3)
        results = {r.name: r for r in run_checks(count=8)}
        assert results["correction_search"] == CheckResult(
            "correction_search", False,
            "resource 3 outcome 1: derived correction differs from the hand-derived table",
        )
        assert not results["random_state_fidelity"].passed

    @pytest.mark.parametrize(
        "outcome, replacement, passed",
        [(1, -1j * np.eye(2), True), (2, np.eye(2), False), (3, np.eye(2), False)],
        ids=["global-phase", "pauli-x-for-identity", "relative-phase"],
    )
    def test_verify_accepts_the_published_table_up_to_a_global_phase_only(
        self, outcome, replacement, passed, monkeypatch
    ):
        # outcome 1 publishes the identity and outcome 3 sigma_z, which equals it up to a relative phase only
        published = list(correction_set(1))
        published[outcome - 1] = replacement

        def production(resource):
            return tuple(published) if resource == 1 else correction_set(resource)

        monkeypatch.setattr("qteleport.verify.correction_set", production)
        results = {r.name: r for r in run_checks(count=8)}
        detail = f"resource 1 outcome {outcome}: derived correction is not phase-equivalent"
        assert results["correction_search"] == CheckResult(
            "correction_search", passed,
            "derived corrections are phase-equivalent to the production sets" if passed else detail,
        )

    def test_production_set_for_resource_1_is_published_exactly(self):
        production = correction_set(1)
        for u, published in zip(production, PUBLISHED_RESOURCE_1_CORRECTIONS):
            assert np.array_equal(u, published)

    def test_singlet_corrections_compose_resource1_with_outcome4(self):
        u1 = correction_set(1)
        u4 = derive_corrections(4)
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
            for u in correction_set(resource):
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
        swap = swap_gate((2, 3, 2), 0, 2)
        assert approx_eq(swap @ swap, identity(12), 0.0)
        # |a b c> -> |c b a> on the mixed-radix index 6a + 2b + c
        for n in range(12):
            a, b, c = n // 6, (n // 2) % 3, n % 2
            assert swap[6 * c + 2 * b + a, n] == 1.0
        assert np.array_equal(swap_gate((2, 2, 2), 0, 2), SWAP_0_2_REFERENCE)
        assert np.array_equal(swap_gate(THREE_QUBITS, np.int64(2), np.int64(0)), SWAP_0_2_REFERENCE)

    def test_errors(self):
        with pytest.raises(ValueError):
            swap_gate(THREE_QUBITS, 1, 1)
        with pytest.raises(ValueError):
            swap_gate(THREE_QUBITS, 0, 3)
        with pytest.raises(ValueError):
            swap_gate((2, 4), 0, 1)

    @pytest.mark.parametrize(
        "dims,p,q",
        [
            (THREE_QUBITS, 0.0, 2),
            (THREE_QUBITS, True, 2),
            (THREE_QUBITS, 0, np.float64(2.0)),
            (THREE_QUBITS, -1, 2),
            ((2, 2.0, 2), 0, 2),
            ("222", 0, 2),
            ((), 0, 1),
        ],
        ids=["float-index", "bool-index", "numpy-float-index", "negative-index", "float-dim", "str-dims", "empty-dims"],
    )
    def test_rejects_malformed_dims_and_indices(self, dims, p, q):
        with pytest.raises(ValueError, match="factor"):
            swap_gate(dims, p, q)


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

    def test_uses_the_swap_matrix_built_at_import(self, monkeypatch):
        assert np.array_equal(SWAP_0_2, SWAP_0_2_REFERENCE)
        assert not SWAP_0_2.flags.writeable

        def fail(*args):
            raise AssertionError("swap_gate was called again")

        monkeypatch.setattr("qteleport.protocol.swap_gate", fail)
        comparison = compare_swap_vs_teleport(QubitState(0.6, 0.8))
        assert comparison.swap.fidelity_3 == pytest.approx(1.0, abs=1e-9)
        # dump-tables and the verify suite read the same constant
        from qteleport.cli import EXIT_OK, main
        from qteleport.verify import run_checks

        assert main(["dump-tables", "--output", "json"]) == EXIT_OK
        assert all(r.passed for r in run_checks(count=10))

    def test_the_swap_is_its_own_dagger_so_the_swapped_state_is_the_conjugation(self, monkeypatch):
        assert np.array_equal(SWAP_0_2, dagger(SWAP_0_2))
        outputs = {}
        summarize = protocol._summarize_branch

        def spy(requires_bell_resource, output, psi):
            outputs[requires_bell_resource] = output
            return summarize(requires_bell_resource, output, psi)

        monkeypatch.setattr(protocol, "_summarize_branch", spy)
        rng = np.random.default_rng(11)
        for _ in range(20):
            psi = QubitState(*haar_qubit_amplitudes(rng))
            compare_swap_vs_teleport(psi)
            rho = build_initial_state(psi, 1).matrix
            assert np.array_equal(outputs[False].matrix, SWAP_0_2 @ rho @ dagger(SWAP_0_2))

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_report_rejects_non_finite_probabilities(self, bad):
        report = run_protocol(QubitState(1, 0), 1, ENSEMBLE)
        with pytest.raises(ValueError, match="^outcome probabilities sum to 1 off by"):
            dataclasses.replace(report, outcome_probabilities=[bad] * 4)
        with pytest.raises(ValueError, match="^outcome probabilities sum to 1 off by"):
            dataclasses.replace(report, outcome_probabilities=[0.25, 0.25, 0.25, bad])

    def test_report_rejects_three_probabilities(self):
        report = run_protocol(QubitState(1, 0), 1, ENSEMBLE)
        with pytest.raises(ValueError, match="^expected 4 outcome probabilities, got 3$"):
            dataclasses.replace(report, outcome_probabilities=(0.25, 0.25, 0.5))


def _trace_kept_by(ks: KrausSet) -> DensityMatrix:
    """A state whose trace the set's channel keeps, even where sum K^dag K != I.

    Mixing the eigenvectors of E = sum K^dag K - I with the lowest and the
    highest eigenvalue in the right proportion gives Tr(E rho) = 0.
    """
    w, v = np.linalg.eigh(sum(dagger(k) @ k for k in ks.kraus) - identity(8))
    lo, hi = np.outer(v[:, 0], v[:, 0].conj()), np.outer(v[:, -1], v[:, -1].conj())
    return DensityMatrix((w[-1] * lo - w[0] * hi) / (w[-1] - w[0]))


def _sample_states(resource: int) -> list[DensityMatrix]:
    rng = np.random.default_rng(resource)
    states = [DensityMatrix(random_ginibre_density(rng, 8)) for _ in range(3)]
    return states + [build_initial_state(QubitState(*haar_qubit_amplitudes(rng)), resource)]


class TestStackedPasses:
    """The batched passes equal, bit for bit, the per-operator loops they replace."""

    @pytest.mark.parametrize("corrupted", [False, True], ids=["good", "corrupted"])
    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_stacks_hold_the_instance_operators(self, resource, corrupted):
        ks = kraus_set(resource)
        ks = corrupted_for_negative_control(ks) if corrupted else ks
        assert ks.a_ops.shape == ks.b_ops.shape == ks.projectors.shape == ks.kraus.shape == (4, 8, 8)
        for i, (a, b) in enumerate(zip(ks.a_ops, ks.b_ops)):
            assert np.array_equal(ks.projectors[i], a / 2.0)
            assert np.array_equal(ks.kraus[i], b @ a / 2.0)

    @pytest.mark.parametrize("corrupted", [False, True], ids=["good", "corrupted"])
    def test_stacks_are_read_only(self, corrupted):
        ks = kraus_set(2)
        ks = corrupted_for_negative_control(ks) if corrupted else ks
        for array in (ks.a_ops, ks.b_ops, ks.projectors, ks.kraus):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(AttributeError):
            ks.kraus = ks.kraus.copy()

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_channel_equals_the_per_operator_sum(self, resource):
        ks = kraus_set(resource)
        for rho in _sample_states(resource):
            expected = sum(k @ rho.matrix @ dagger(k) for k in ks.kraus)
            assert np.array_equal(teleport_channel(rho, ks).matrix, expected)

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_channel_of_the_corrupted_set_equals_its_per_operator_sum(self, resource):
        good = kraus_set(resource)
        bad = corrupted_for_negative_control(good)
        rho = _trace_kept_by(bad)
        out = teleport_channel(rho, bad).matrix
        assert np.array_equal(out, sum(k @ rho.matrix @ dagger(k) for k in bad.kraus))
        assert not np.allclose(out, teleport_channel(rho, good).matrix)

    @pytest.mark.parametrize("corrupted", [False, True], ids=["good", "corrupted"])
    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_projection_equals_the_per_projector_loop(self, resource, corrupted):
        ks = kraus_set(resource)
        ks = corrupted_for_negative_control(ks) if corrupted else ks
        for rho in _sample_states(resource):
            corrected, probabilities = _corrected_branches(rho, ks)
            expected = [p @ rho.matrix @ p for p in ks.projectors]
            # each B is a permutation with unit phases, so undoing it gives back the projected state exactly
            projected = [dagger(b) @ m @ b for b, m in zip(ks.b_ops, corrected, strict=True)]
            assert all(np.array_equal(m, e) for m, e in zip(projected, expected, strict=True))
            assert probabilities == tuple(float(np.trace(e).real) for e in expected)
            # bit for bit, signed zeros included: the batched product corrects each slice as a loop would
            per_outcome = [b @ e @ dagger(b) for b, e in zip(ks.b_ops, expected, strict=True)]
            assert all(m.tobytes() == e.tobytes() for m, e in zip(corrected, per_outcome, strict=True))

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_branches_equal_the_per_outcome_loop(self, resource):
        ks = kraus_set(resource)
        for rho in _sample_states(resource):
            for (p, state), a, b in zip(measurement_branches(rho, ks), ks.a_ops, ks.b_ops, strict=True):
                expected = b @ (a / 2.0 @ rho.matrix @ (a / 2.0)) @ dagger(b) / p
                assert np.array_equal(state.matrix, expected)

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_marginals_equal_partial_trace(self, resource):
        ks = kraus_set(resource)
        for rho in _sample_states(resource):
            for state in (rho, teleport_channel(rho, ks)):
                marginal_12, marginal_3 = _marginals(state)
                assert np.array_equal(marginal_12.matrix, partial_trace(state.matrix, THREE_QUBITS, {0, 1}))
                assert np.array_equal(marginal_3.matrix, partial_trace(state.matrix, THREE_QUBITS, {2}))

    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_initial_state_equals_the_kron_of_the_two_densities(self, resource):
        psi = QubitState(*haar_qubit_amplitudes(np.random.default_rng(resource)))
        bell = bell_basis()[resource - 1].amplitudes
        expected = np.kron(ket_to_density(psi.ket()).matrix, np.outer(bell, bell.conj()))
        assert approx_eq(build_initial_state(psi, resource).matrix, expected, 1e-15)

    @pytest.mark.parametrize(
        "op, matrices",
        [
            (lambda psi, j: run_protocol(psi, j, ENSEMBLE, 0), 8),
            (lambda psi, j: run_protocol(psi, j, SINGLE_SHOT, 3), 4),
            (lambda psi, j: compare_swap_vs_teleport(psi), 7),
        ],
        ids=["ensemble", "single-shot", "compare"],
    )
    @pytest.mark.parametrize("resource", RESOURCE_INDICES)
    def test_every_state_is_still_validated(self, op, matrices, resource, monkeypatch):
        """Each state is checked once where it is made, a stack once per matrix; every state reached holds a checked value."""
        checked, amplitudes, branches = [], [], []

        def check_density(m, ndim=2, check=states._check_density):
            out = check(m, ndim)
            checked.extend(out.reshape(-1, *out.shape[-2:]))
            return out

        def unit_amplitudes(*args, check=states._unit_amplitudes, **kwargs):
            amplitudes.append(check(*args, **kwargs))
            return amplitudes[-1]

        def recorded_branches(*args, run=measurement_branches):
            out = run(*args)
            branches.extend(state for _, state in out if state is not None)
            return out

        monkeypatch.setattr(states, "_check_density", check_density)
        monkeypatch.setattr(states, "_unit_amplitudes", unit_amplitudes)
        monkeypatch.setattr(protocol, "measurement_branches", recorded_branches)
        psi = QubitState(0.6, 0.8j)
        result = op(psi, resource)
        assert len(checked) == matrices
        assert len(amplitudes) == 1
        assert result.input_state.ket().amplitudes is amplitudes[0]
        if isinstance(result, SwapComparison):
            reached = [getattr(b, name) for b in (result.teleport, result.swap) for name in ("marginal_12", "marginal_3")]
        else:
            reached = [result.output_density, result.marginal_12, result.marginal_3]
        for rho in reached + branches:
            assert any(rho.matrix.tobytes() == m.tobytes() for m in checked)


class TestRunChecksBoundary:
    """run_checks refuses, before any check runs, what the CLI's --count, --seed and --tol refuse."""

    MESSAGES = {
        "count": "count must be a positive integer",
        "rng_seed": "rng_seed must be a non-negative integer",
        "tol": "tol must be finite and > 0",
    }

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param(name, value, id=f"{name}={value!r}")
            for name, values in (
                ("count", BAD_COUNTS),
                ("rng_seed", BAD_SEEDS),
                ("tol", (0, 0.0, -1e-9, float("nan"), float("inf"), "x", None, 1j, True, np.True_)),
            )
            for value in values
        ],
    )
    def test_rejects_what_the_cli_rejects_before_any_check(self, name, value, monkeypatch):
        def fail(*args):
            raise AssertionError("a check ran before the arguments were checked")

        monkeypatch.setattr("qteleport.verify.kraus_set", fail)
        with pytest.raises(ValueError, match=f"^{self.MESSAGES[name]}, got "):
            run_checks(**{name: value})

    @pytest.mark.parametrize(
        "kwargs",
        [{"count": 1}, {"count": np.int64(10), "rng_seed": np.int64(1)}, {"count": 10, "tol": np.float64(1e-9)},
         {"count": 10, "tol": 1}],
    )
    def test_accepts_python_and_numpy_numbers(self, kwargs):
        assert all(r.passed for r in run_checks(**kwargs))


class TestRunChecksFailureDetails:
    """Each check names what it found wrong; valid operators pass, so the faults are injected."""

    @staticmethod
    def _failed(name, **kwargs):
        results = {r.name: r for r in run_checks(count=8, **kwargs)}
        assert not results[name].passed
        return results[name].detail

    def test_a_correction_operator_off_the_golden_table(self):
        def swapped(ks):
            return KrausSet(ks.resource_index, ks.a_ops, ks.b_ops[[1, 0, 2, 3]])

        detail = self._failed("operator_table_match", corrupt_kraus=swapped)
        assert detail == "resource 1: B^1 differs from the golden transcription"

    @staticmethod
    def _with_a_ops(index, value):
        """A corrupt_kraus that writes value at index of a copy of the a_ops."""
        def corrupt(ks):
            a = ks.a_ops.copy()
            a[index] = value
            return KrausSet(ks.resource_index, a, ks.b_ops)

        return corrupt

    @pytest.mark.parametrize(
        "index, value, rank",
        [(0, 2 * A_OPS_REFERENCE[0], "4.0"), ((0, 1, 1), 1 + 2j, "(2+1j)")],
        ids=["doubled", "imaginary-trace"],
    )
    def test_a_projector_of_the_wrong_rank(self, index, value, rank):
        detail = self._failed("projector_rank", corrupt_kraus=self._with_a_ops(index, value))
        assert detail == f"resource 1: projector 1 has rank {rank}, expected 2"

    def test_measurement_operators_one_ulp_too_large(self):
        # every entry is off by at most one ulp: round-off tolerances of 1e-12 passed this set
        def scaled(ks):
            return KrausSet(ks.resource_index, ks.a_ops * np.nextafter(1.0, 2.0), ks.b_ops)

        results = {r.name: r for r in run_checks(count=8, corrupt_kraus=scaled)}
        assert results["projector_rank"] == CheckResult(
            "projector_rank", False, "resource 1: projector 1 has rank 2.0000000000000004, expected 2"
        )
        assert results["kraus_completeness"] == CheckResult(
            "kraus_completeness", False, "resource 1: sum K^dag K deviates from identity by 4.441e-16"
        )

    def test_a_projector_two_ulps_off_its_diagonal(self):
        # the trace stays 2; P @ P moves by 2**-53, far inside any round-off tolerance
        # (one ulp off this entry rounds back to even in P @ P and in sum K^dag K, so only the golden table sees it)
        corrupt = self._with_a_ops((0, 0, 6), 1 + 2 * np.finfo(float).eps)
        results = {r.name: r for r in run_checks(count=8, corrupt_kraus=corrupt)}
        assert results["projector_rank"] == CheckResult("projector_rank", False, "resource 1: projector 1 is not idempotent")
        assert results["kraus_completeness"] == CheckResult(
            "kraus_completeness", False, "resource 1: sum K^dag K deviates from identity by 2.220e-16"
        )

    @staticmethod
    def _in_resource(resource, field, index, value):
        """A corrupt_kraus that writes value at index of a copy of field, a_ops or b_ops, of one resource only."""
        def corrupt(ks):
            if ks.resource_index != resource:
                return ks
            ops = {"a_ops": ks.a_ops.copy(), "b_ops": ks.b_ops.copy()}
            ops[field][index] = value
            return KrausSet(ks.resource_index, **ops)

        return corrupt

    @pytest.mark.parametrize(
        "resource, field, index, value, detail",
        [
            (3, "a_ops", (0, 0, 6), np.nextafter(1.0, 2.0), "resource 3: A^1 differs from the golden transcription"),
            (4, "b_ops", (3, 0, 0), np.nextafter(1.0, 2.0), "resource 4: B^4 differs from the golden transcription"),
            (4, "b_ops", (0, 2, 2), 2.0**-60, "resource 4: B^1 differs from the golden transcription"),
        ],
        ids=["resource-3-A-one-ulp-up", "resource-4-B-one-ulp-up", "resource-4-B-zero-off-by-2**-60"],
    )
    def test_an_operator_of_another_resource_off_its_table(self, resource, field, index, value, detail):
        # each fault rounds away in sum K^dag K and in every sampled check, so only the tables see it
        corrupt = self._in_resource(resource, field, index, value)
        results = {r.name: r for r in run_checks(count=25, rng_seed=7, corrupt_kraus=corrupt)}
        assert results["operator_table_match"] == CheckResult("operator_table_match", False, detail)

    @staticmethod
    def _one_ulp_up(m, index):
        m = np.array(m)
        m[index] = np.nextafter(m[index].real, 2.0) + 1j * m[index].imag
        return m

    def test_a_bell_vector_one_ulp_off_its_pattern(self, monkeypatch):
        basis = bell_basis()
        off = Ket(self._one_ulp_up(basis[1].amplitudes, 1))
        monkeypatch.setattr("qteleport.verify.bell_basis", lambda: (basis[0], off, *basis[2:]))
        assert self._failed("bell_orthonormality") == "Bell vector 2 differs from its pattern times 2**-0.5"

    def test_a_bell_pattern_with_one_sign_flipped(self, monkeypatch):
        patterns = np.array(_BELL_PATTERNS)
        patterns[3, 2] = 1  # the fourth pattern becomes the second
        monkeypatch.setattr("qteleport.verify._BELL_PATTERNS", patterns)
        assert self._failed("bell_orthonormality") == "Gram matrix of the Bell patterns differs from 2I"

    def test_a_reduction_one_ulp_off_the_identity(self, monkeypatch):
        monkeypatch.setattr(
            "qteleport.verify.partial_trace", lambda *args: self._one_ulp_up(partial_trace(*args), (0, 0))
        )
        detail = self._failed("bell_reductions_maximally_mixed")
        assert detail == "doubled Bell projector 1: the reduction onto factor 0 differs from I"

    def test_a_published_correction_one_ulp_off(self, monkeypatch):
        published = list(correction_set(1))
        published[1] = self._one_ulp_up(published[1], (0, 1))

        def production(resource):
            return tuple(published) if resource == 1 else correction_set(resource)

        monkeypatch.setattr("qteleport.verify.correction_set", production)
        assert self._failed("correction_search") == "resource 1 outcome 2: derived correction is not phase-equivalent"

    def test_a_swap_matrix_off_the_golden_table(self, monkeypatch):
        monkeypatch.setattr("qteleport.verify.SWAP_0_2", identity(8))
        assert self._failed("swap_matrix_match") == "swap matrix differs from the golden transcription"

    def test_a_swap_matrix_that_is_not_an_involution(self, monkeypatch):
        # a cyclic shift of the basis, written into both tables so that they still agree
        cycle = np.roll(identity(8), 1, axis=0)
        monkeypatch.setattr("qteleport.verify.SWAP_0_2", cycle)
        monkeypatch.setattr("qteleport.verify.SWAP_0_2_REFERENCE", cycle)
        assert self._failed("swap_matrix_match") == "swap matrix is not an involution"
