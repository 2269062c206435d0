"""Self-checks for the channel construction, used by the verify command.

Every check pits the programmatic construction against an independent
route: hand-transcribed golden matrices, closed-form expectations, or a
second computational path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable

import numpy as np

from . import DEFAULT_SWEEP_COUNT, DEFAULT_TOL, RESOURCE_INDICES
from .linalg import _check_int, _check_type, _is_real, identity, partial_trace
from .protocol import (
    SWAP_0_2,
    THREE_QUBITS,
    KrausSet,
    _BELL_PATTERNS,
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

    def __post_init__(self) -> None:
        # passed must be a Python bool: json.dumps cannot write a numpy bool_
        for name, cls in (("name", str), ("passed", bool), ("detail", str)):
            _check_type(getattr(self, name), cls, name)


def corrupted_for_negative_control(ks: KrausSet) -> KrausSet:
    """Flip one entry of the first measurement operator.

    Breaks idempotence and completeness at once; used to prove the checks
    can fail.
    """
    _check_type(ks, KrausSet, "ks")
    a = ks.a_ops.copy()
    a[0, 0, 6] = -a[0, 0, 6] if a[0, 0, 6] != 0 else 1.0
    return KrausSet(ks.resource_index, a, ks.b_ops)


def _check_operator_tables(sets: dict[int, KrausSet]) -> tuple[bool, str]:
    for j, ks in sets.items():
        # resource 1 has the published B table; the others are I (x) their hand-derived corrections, by numpy's kron
        b_golden = B_OPS_REFERENCE if j == 1 else [np.kron(np.eye(4), c) for c in CORRECTIONS_REFERENCE[j]]
        for name, built, golden in (("A", ks.a_ops, A_OPS_REFERENCE), ("B", ks.b_ops, b_golden)):
            for i, (m, g) in enumerate(zip(built, golden), start=1):
                if not np.array_equal(m, g):
                    return False, f"resource {j}: {name}^{i} differs from the golden transcription"
    return True, "all eight operators of every resource match the golden transcription exactly"


def _check_bell_orthonormality() -> tuple[bool, str]:
    if not np.array_equal(_BELL_PATTERNS.conj() @ _BELL_PATTERNS.T, 2 * identity(4)):
        return False, "Gram matrix of the Bell patterns differs from 2I"
    for i, (k, pattern) in enumerate(zip(bell_basis(), _BELL_PATTERNS), start=1):
        if not np.array_equal(k.amplitudes, pattern * 2**-0.5):
            return False, f"Bell vector {i} differs from its pattern times 2**-0.5"
    return True, "Gram matrix of the Bell patterns is exactly 2I, and each vector is its pattern times 2**-0.5"


def _check_bell_reductions() -> tuple[bool, str]:
    for i, pattern in enumerate(_BELL_PATTERNS, start=1):
        for factor in (0, 1):
            if not np.array_equal(partial_trace(np.outer(pattern, pattern.conj()), (2, 2), {factor}), identity(2)):
                return False, f"doubled Bell projector {i}: the reduction onto factor {factor} differs from I"
    return True, "every single-factor reduction of a doubled Bell projector is exactly I"


def _check_projector_rank(sets: dict[int, KrausSet]) -> tuple[bool, str]:
    for j, ks in sets.items():
        for i, p in enumerate(ks.projectors, start=1):
            rank = complex(np.trace(p))
            if rank != 2:  # repr prints a trace one ulp off 2 as such
                return False, f"resource {j}: projector {i} has rank {rank if rank.imag else rank.real!r}, expected 2"
            if not np.array_equal(p @ p, p):
                return False, f"resource {j}: projector {i} is not idempotent"
    return True, "all four projectors of every resource are idempotent with trace exactly 2"


def _check_kraus_completeness(sets: dict[int, KrausSet]) -> tuple[bool, str]:
    for j, ks in sets.items():
        total = sum(ks.kraus.conj().transpose(0, 2, 1) @ ks.kraus)
        if not np.array_equal(total, identity(8)):
            return False, f"resource {j}: sum K^dag K deviates from identity by {np.abs(total - identity(8)).max():.3e}"
    return True, "sum K^dag K is exactly the identity for all resources"


def _check_swap_matrix() -> tuple[bool, str]:
    if not np.array_equal(SWAP_0_2, SWAP_0_2_REFERENCE):
        return False, "swap matrix differs from the golden transcription"
    if not np.array_equal(SWAP_0_2 @ SWAP_0_2, identity(8)):
        return False, "swap matrix is not an involution"
    return True, "swap matrix matches the golden transcription and squares to identity"


def _check_correction_search() -> tuple[bool, str]:
    for j in RESOURCE_INDICES:
        for i, (d, h) in enumerate(zip(derive_corrections(j), CORRECTIONS_REFERENCE[j]), start=1):
            if not np.array_equal(d, h):
                return False, f"resource {j} outcome {i}: derived correction differs from the hand-derived table"
    # resource 1 is the one published production table; the others are the derived tables themselves
    for i, (d, p) in enumerate(zip(derive_corrections(1), correction_set(1)), start=1):
        overlap = d.conj().T @ p
        # equal up to a global phase iff the unitary U_d^dag U_p is a multiple of the identity
        if not np.array_equal(overlap, overlap[0, 0] * np.eye(2)):
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
        expected = np.kron(identity(4) / 4.0, sigma)
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
    """Run the full invariant suite; returns one result per named check.

    count, rng_seed and tol obey the rules of the CLI's --count, --seed and
    --tol, and corrupt_kraus is a callable or None; anything else raises
    ValueError before any check runs.
    """
    _check_int(count, "count", 1)
    _check_int(rng_seed, "rng_seed")
    if not (_is_real(tol) and isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if corrupt_kraus is not None and not callable(corrupt_kraus):
        raise ValueError(f"corrupt_kraus must be a callable or None, got {corrupt_kraus!r}")
    rng = np.random.default_rng(rng_seed)
    sets = {j: kraus_set(j) for j in RESOURCE_INDICES}
    if corrupt_kraus is not None:
        sets = {j: corrupt_kraus(ks) for j, ks in sets.items()}

    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("operator_table_match", lambda: _check_operator_tables(sets)),
        ("bell_orthonormality", _check_bell_orthonormality),
        ("bell_reductions_maximally_mixed", _check_bell_reductions),
        ("projector_rank", lambda: _check_projector_rank(sets)),
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
