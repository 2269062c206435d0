"""Self-checks for the channel construction, used by the verify command.

Every check pits the programmatic construction against an independent
route: hand-transcribed golden matrices, closed-form expectations, or a
second computational path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import DEFAULT_SWEEP_COUNT, DEFAULT_TOL, RESOURCE_INDICES
from .linalg import approx_eq, dagger, identity, kron, partial_trace
from .protocol import (
    SWAP_0_2,
    THREE_QUBITS,
    KrausSet,
    bell_basis,
    build_initial_state,
    correction_set,
    derive_corrections,
    kraus_set,
    measurement_branches,
    teleport_channel,
)
from .reference import A_OPS_REFERENCE, B_OPS_REFERENCE, CORRECTIONS_REFERENCE, SWAP_0_2_REFERENCE
from .states import (
    DensityMatrix,
    fidelity_pure,
    ket_to_density,
    random_density,
    random_qubit_state,
    validate_density,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def corrupted_for_negative_control(ks: KrausSet) -> KrausSet:
    """Flip one entry of the first measurement operator.

    Breaks idempotence and completeness at once; used to prove the checks
    can fail.
    """
    a = ks.a_ops.copy()
    a[0, 0, 6] = -a[0, 0, 6] if a[0, 0, 6] != 0 else 1.0
    return KrausSet(ks.resource_index, a, ks.b_ops)


def _check_operator_tables(ks1: KrausSet) -> tuple[bool, str]:
    for i, (built, golden) in enumerate(zip(ks1.a_ops, A_OPS_REFERENCE), start=1):
        if not np.array_equal(built, golden):
            return False, f"A^{i} differs from the golden transcription"
    for i, (built, golden) in enumerate(zip(ks1.b_ops, B_OPS_REFERENCE), start=1):
        if not np.array_equal(built, golden):
            return False, f"B^{i} differs from the golden transcription"
    return True, "all eight operators match the golden transcription exactly"


def _check_bell_orthonormality() -> tuple[bool, str]:
    vectors = np.column_stack([k.amplitudes for k in bell_basis()])
    gram = dagger(vectors) @ vectors
    dev = float(np.max(np.abs(gram - np.eye(4))))
    return dev <= 1e-12, f"Gram matrix deviation from identity {dev:.3e}"


def _check_bell_reductions() -> tuple[bool, str]:
    worst = 0.0
    for k in bell_basis():
        rho = ket_to_density(k).matrix
        for factor in (0, 1):
            reduced = partial_trace(rho, (2, 2), {factor})
            worst = max(worst, float(np.max(np.abs(reduced - np.eye(2) / 2))))
    return worst <= 1e-12, f"worst single-factor reduction deviation from I/2 is {worst:.3e}"


def _check_projector_rank(ks1: KrausSet) -> tuple[bool, str]:
    worst = 0.0
    for i, p in enumerate(ks1.projectors, start=1):
        worst = max(worst, float(np.max(np.abs(p @ p - p))))
        rank = float(np.trace(p).real)
        if abs(rank - 2.0) > 1e-12:
            return False, f"projector {i} has rank {rank:.6f}, expected 2"
    return worst <= 1e-12, f"worst idempotence deviation {worst:.3e}, all ranks 2"


def _check_kraus_completeness(sets: dict[int, KrausSet]) -> tuple[bool, str]:
    worst = 0.0
    for j, ks in sets.items():
        total = np.zeros((8, 8), dtype=complex)
        for k in ks.kraus:
            total += dagger(k) @ k
        dev = float(np.max(np.abs(total - identity(8))))
        if dev > 1e-12:
            return False, f"resource {j}: sum K^dag K deviates from identity by {dev:.3e}"
        worst = max(worst, dev)
    return True, f"completeness holds for all resources, worst deviation {worst:.3e}"


def _check_swap_matrix() -> tuple[bool, str]:
    if not np.array_equal(SWAP_0_2, SWAP_0_2_REFERENCE):
        return False, "swap matrix differs from the golden transcription"
    if not approx_eq(SWAP_0_2 @ SWAP_0_2, identity(8), 0.0):
        return False, "swap matrix is not an involution"
    return True, "swap matrix matches the golden transcription and squares to identity"


def _check_correction_search() -> tuple[bool, str]:
    for j in RESOURCE_INDICES:
        for i, (d, h) in enumerate(zip(derive_corrections(j), CORRECTIONS_REFERENCE[j]), start=1):
            if not np.array_equal(d, h):
                return False, f"resource {j} outcome {i}: derived correction differs from the hand-derived table"
    # resource 1 is the one published production table; the others are the derived tables themselves
    for i, (d, p) in enumerate(zip(derive_corrections(1), correction_set(1)), start=1):
        overlap = dagger(d) @ p
        # equal up to a global phase iff the unitary U_d^dag U_p is a multiple of the identity
        if np.max(np.abs(overlap - overlap[0, 0] * np.eye(2))) > 1e-10:
            return False, f"resource 1 outcome {i}: derived correction is not phase-equivalent"
    return True, "derived corrections are phase-equivalent to the production sets"


def _check_outcome_probabilities(sets: dict[int, KrausSet], rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    states = [random_qubit_state(rng) for _ in range(3)]
    for j, ks in sets.items():
        for psi in states:
            rho_in = build_initial_state(psi, j)
            for p, _ in measurement_branches(rho_in, ks):
                worst = max(worst, abs(p - 0.25))
    return worst <= 1e-10, f"worst |p_i - 1/4| over resources and states is {worst:.3e}"


def _check_single_shot_consistency(sets: dict[int, KrausSet], rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for j, ks in sets.items():
        psi = random_qubit_state(rng)
        rho_in = build_initial_state(psi, j)
        mixture = np.zeros((8, 8), dtype=complex)
        for p, state in measurement_branches(rho_in, ks):
            if state is not None:
                mixture += p * state.matrix
        ensemble = teleport_channel(rho_in, ks).matrix
        worst = max(worst, float(np.max(np.abs(mixture - ensemble))))
    return worst <= 1e-10, f"worst mixture/ensemble deviation {worst:.3e}"


def _check_fidelity_sweep(
    sets: dict[int, KrausSet], rng: np.random.Generator, count: int, tol: float
) -> tuple[bool, str]:
    worst_fid = 1.0
    worst_block = 0.0
    for n in range(count):
        j = RESOURCE_INDICES[n % len(RESOURCE_INDICES)]
        psi = random_qubit_state(rng)
        out = teleport_channel(build_initial_state(psi, j), sets[j])
        sigma = ket_to_density(psi.ket()).matrix
        expected = kron(identity(4) / 4.0, sigma)
        worst_block = max(worst_block, float(np.max(np.abs(out.matrix - expected))))
        marginal_3 = DensityMatrix(partial_trace(out.matrix, THREE_QUBITS, {2}))
        worst_fid = min(worst_fid, fidelity_pure(psi.ket(), marginal_3))
    passed = worst_fid >= 1.0 - tol and worst_block <= 1e-10
    return passed, (
        f"{count} random states: min fidelity {worst_fid:.12f}, "
        f"worst block-form deviation {worst_block:.3e}"
    )


def _check_random_density_outputs(
    sets: dict[int, KrausSet], rng: np.random.Generator, count: int
) -> tuple[bool, str]:
    worst_trace = 0.0
    n = max(count // 10, 10)
    for _ in range(n):
        rho = random_density(rng, 8)
        for ks in sets.values():
            out = teleport_channel(rho, ks)
            worst_trace = max(worst_trace, abs(float(np.trace(out.matrix).real) - 1.0))
            validate_density(out.matrix)
    return worst_trace <= 1e-10, (
        f"{n} random densities per resource stay trace-1 (worst deviation {worst_trace:.3e}) and validate"
    )


def run_checks(
    count: int = DEFAULT_SWEEP_COUNT,
    tol: float = DEFAULT_TOL,
    rng_seed: int = 0,
    corrupt_kraus: Callable[[KrausSet], KrausSet] | None = None,
) -> list[CheckResult]:
    """Run the full invariant suite; returns one result per named check."""
    rng = np.random.default_rng(rng_seed)
    sets = {j: kraus_set(j) for j in RESOURCE_INDICES}
    if corrupt_kraus is not None:
        sets = {j: corrupt_kraus(ks) for j, ks in sets.items()}

    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("operator_table_match", lambda: _check_operator_tables(sets[1])),
        ("bell_orthonormality", _check_bell_orthonormality),
        ("bell_reductions_maximally_mixed", _check_bell_reductions),
        ("projector_rank", lambda: _check_projector_rank(sets[1])),
        ("kraus_completeness", lambda: _check_kraus_completeness(sets)),
        ("swap_matrix_match", _check_swap_matrix),
        ("correction_search", _check_correction_search),
        ("outcome_probabilities", lambda: _check_outcome_probabilities(sets, rng)),
        ("single_shot_consistency", lambda: _check_single_shot_consistency(sets, rng)),
        ("random_state_fidelity", lambda: _check_fidelity_sweep(sets, rng, count, tol)),
        ("random_density_outputs", lambda: _check_random_density_outputs(sets, rng, count)),
    ]

    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
