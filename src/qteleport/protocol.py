"""One-qubit teleportation as a channel on a single eight-level system.

The eight-dimensional Hilbert space is treated as three virtual qubits via
the big-endian index mapping |n> <-> |a>|b>|c|. The channel measures the
first two virtual qubits with rank-2 Bell projectors acting on the full
space and applies a conditional correction unitary on the third; the
whole protocol never touches a physically composite system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Factorization,
    dagger,
    identity,
    kron,
    partial_trace,
)
from .states import (
    DensityMatrix,
    Ket,
    QubitState,
    fidelity_pure,
    ket_to_density,
    purity,
    von_neumann_entropy,
)

THREE_QUBITS = Factorization((2, 2, 2))
RESOURCE_INDICES = (1, 2, 3, 4)

# Branches thinner than this are treated as impossible when sampling.
MIN_BRANCH_PROBABILITY = 1e-14

# Bell amplitude patterns scaled by sqrt(2); row i-1 is vector i of the basis.
_BELL_PATTERNS = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ],
    dtype=complex,
)

ENSEMBLE = "ensemble"
SINGLE_SHOT = "single-shot"
MODES = (ENSEMBLE, SINGLE_SHOT)


@dataclass(frozen=True, eq=False)
class BellBasis:
    """The four maximally entangled two-qubit basis vectors; vectors[i-1] is vector i."""

    vectors: tuple[Ket, Ket, Ket, Ket]


@dataclass(frozen=True, eq=False)
class CorrectionSet:
    """Conditional single-qubit unitaries, one per measurement outcome."""

    resource_index: int
    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator pairs defining the teleportation channel on the 8-dim space.

    a_ops hold the doubled Bell projectors (integer entries, a_ops[i]/2 is a
    rank-2 projector); b_ops the correction unitaries extended by the
    identity on the measured factors. kraus holds the read-only map
    operators K_i = B_i A_i / 2, built once from this instance's own pairs;
    the channel is sum K rho K^dagger, which folds in the ensemble weight
    1/4 (= (1/2)^2), and sum K^dagger K is the identity.
    """

    resource_index: int
    a_ops: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    b_ops: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    kraus: tuple[np.ndarray, ...] = field(init=False)
    weight: ClassVar[float] = 0.25

    def __post_init__(self) -> None:
        kraus = tuple(_frozen(b @ a / 2.0) for a, b in zip(self.a_ops, self.b_ops))
        object.__setattr__(self, "kraus", kraus)


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Everything a single protocol run produced, ready for serialization."""

    input_state: QubitState
    resource_index: int
    mode: str
    seed: int
    outcome: int | None
    outcome_probabilities: tuple[float, float, float, float]
    output_density: DensityMatrix
    marginal_12: DensityMatrix
    marginal_3: DensityMatrix
    fidelity: float
    output_entropy_bits: float

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.outcome_probabilities)
        if len(probs) != 4:
            raise ValueError(f"expected 4 outcome probabilities, got {len(probs)}")
        total_dev = abs(sum(probs) - 1.0)
        if total_dev > 1e-10:
            raise ValueError(f"outcome probabilities sum to 1 off by {total_dev:.3e}")
        object.__setattr__(self, "outcome_probabilities", probs)

    @property
    def paper_extension(self) -> bool:
        """True for resource states 2..4, which extend the canonical resource-1 setup."""
        return self.resource_index != 1


@dataclass(frozen=True, eq=False)
class BranchSummary:
    """Marginals and diagnostics of one comparison branch."""

    label: str
    requires_bell_resource: bool
    marginal_12: DensityMatrix
    marginal_3: DensityMatrix
    purity_12: float
    entropy_12_bits: float
    purity_3: float
    entropy_3_bits: float
    fidelity_3: float


@dataclass(frozen=True, eq=False)
class SwapComparison:
    """Side-by-side marginals of the teleportation channel and the swap unitary."""

    input_state: QubitState
    teleport: BranchSummary
    swap: BranchSummary


def _check_resource_index(index: int) -> int:
    """index as a Python int; ValueError unless it is an integer in RESOURCE_INDICES."""
    # bool is an int subclass but not an index, and 1.0 == 1 is not an integer
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index not in RESOURCE_INDICES:
        raise ValueError(f"index must be one of {RESOURCE_INDICES}, got {index!r}")
    return int(index)


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def bell_basis() -> BellBasis:
    """The four Bell vectors in their conventional order."""
    scale = 2.0 ** -0.5
    return BellBasis(tuple(Ket(row * scale) for row in _BELL_PATTERNS))


def _doubled_bell_projector(index: int) -> np.ndarray:
    """2 |beta^index><beta^index| with exact integer entries."""
    u = _BELL_PATTERNS[index - 1]
    return np.outer(u, u.conj())


# The measurement operators A^i = 2 |beta^i><beta^i| (x) I, shared by every resource.
_A_OPS = tuple(
    _frozen(kron(_doubled_bell_projector(i), IDENTITY_2)) for i in RESOURCE_INDICES
)


def build_initial_state(psi: QubitState, resource_index: int = 1) -> DensityMatrix:
    """Pre-protocol state: |psi><psi| on factor 0, Bell resource on factors 1, 2."""
    resource_index = _check_resource_index(resource_index)
    bell_density = _doubled_bell_projector(resource_index) / 2.0
    return DensityMatrix(kron(ket_to_density(psi.ket()).matrix, bell_density))


# Production correction table for resource 1, exactly as published: the
# outcome-4 entry carries the i*sigma_y phase so the extended operators stay
# integer-valued. derive_corrections returns the phase-free canonical form.
_RESOURCE_1_CORRECTIONS = tuple(
    _frozen(m.astype(complex))
    for m in (IDENTITY_2.copy(), PAULI_X.copy(), PAULI_Z.copy(), 1j * PAULI_Y)
)

# Canonical search order: Pauli major, phase minor.
_CANDIDATE_PAULIS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)
_CANDIDATE_PHASES = ((1.0 + 0.0j), 1.0j, (-1.0 + 0.0j), -1.0j)

# Spanning inputs: fixing a qubit channel on these four states pins it to the
# identity, so fidelity 1 on all of them certifies a correction.
_SPANNING_STATES = (
    QubitState(1, 0),
    QubitState(0, 1),
    QubitState(2 ** -0.5, 2 ** -0.5),
    QubitState(2 ** -0.5, 1j * 2 ** -0.5),
)

_CORRECTION_FIDELITY_TOL = 1e-9


def _uncorrected_branches(psi: QubitState, resource_index: int) -> list[np.ndarray]:
    """Post-measurement states (unnormalized corrections pending), one per outcome."""
    projected, probabilities = _project(build_initial_state(psi, resource_index), _A_OPS)
    return [m / p for m, p in zip(projected, probabilities)]


@lru_cache(maxsize=None)
def derive_corrections(resource_index: int) -> CorrectionSet:
    """Find each outcome's correction by exhaustive search over phased Paulis.

    Candidates are the 16 operators {phase * P} with phase in (1, i, -1, -i)
    and P a Pauli or the identity; the first candidate (Pauli-major order)
    restoring the input on factor 2 for every spanning state wins.
    """
    resource_index = _check_resource_index(resource_index)
    branch_sets = [_uncorrected_branches(psi, resource_index) for psi in _SPANNING_STATES]
    found: list[np.ndarray] = []
    for outcome in range(4):
        winner = None
        for pauli in _CANDIDATE_PAULIS:
            for phase in _CANDIDATE_PHASES:
                candidate = phase * pauli
                extended = kron(identity(4), candidate)
                ok = True
                for psi, branches in zip(_SPANNING_STATES, branch_sets):
                    corrected = extended @ branches[outcome] @ dagger(extended)
                    marginal = partial_trace(corrected, THREE_QUBITS, {2})
                    overlap = fidelity_pure(psi.ket(), DensityMatrix(marginal))
                    if overlap < 1.0 - _CORRECTION_FIDELITY_TOL:
                        ok = False
                        break
                if ok:
                    winner = candidate
                    break
            if winner is not None:
                break
        if winner is None:
            raise RuntimeError(
                f"no phased Pauli corrects outcome {outcome + 1} for resource {resource_index}"
            )
        found.append(_frozen(winner))
    return CorrectionSet(resource_index, tuple(found))


def correction_set(resource_index: int) -> CorrectionSet:
    """Production corrections: the published resource-1 set, derived sets otherwise."""
    resource_index = _check_resource_index(resource_index)
    if resource_index == 1:
        return CorrectionSet(1, _RESOURCE_1_CORRECTIONS)
    return derive_corrections(resource_index)


@lru_cache(maxsize=None)
def kraus_set(resource_index: int = 1) -> KrausSet:
    """Measurement and correction operators for the chosen Bell resource."""
    resource_index = _check_resource_index(resource_index)
    b_ops = tuple(
        _frozen(kron(identity(4), u)) for u in correction_set(resource_index).unitaries
    )
    return KrausSet(resource_index, _A_OPS, b_ops)


def teleport_channel(rho_in: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Ensemble output: sum_i K_i rho K_i-dagger with K_i = B^i A^i / 2."""
    if rho_in.dim != 8:
        raise ValueError(f"channel expects an 8x8 state, got dimension {rho_in.dim}")
    rho = rho_in.matrix
    return DensityMatrix(sum(k @ rho @ dagger(k) for k in ks.kraus))


def _project(
    rho_in: DensityMatrix, a_ops: tuple[np.ndarray, ...]
) -> tuple[list[np.ndarray], tuple[float, ...]]:
    """Unnormalized post-measurement states P_i rho P_i (P_i = A^i/2) and their traces p_i."""
    if rho_in.dim != 8:
        raise ValueError(f"channel expects an 8x8 state, got dimension {rho_in.dim}")
    projectors = [a / 2.0 for a in a_ops]
    projected = [p @ rho_in.matrix @ p for p in projectors]
    return projected, tuple(float(np.trace(m).real) for m in projected)


def _corrected_branch(b: np.ndarray, projected: np.ndarray, p: float) -> DensityMatrix:
    """Normalized post-state of one outcome after its correction b."""
    return DensityMatrix(b @ projected @ dagger(b) / p)


def _shot(
    rho_in: DensityMatrix, ks: KrausSet, rng_seed: int | np.random.Generator
) -> tuple[tuple[float, ...], int, DensityMatrix]:
    """Outcome probabilities, the sampled outcome 1..4 and its corrected state."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    projected, probabilities = _project(rho_in, ks.a_ops)
    eligible = [i for i, p in enumerate(probabilities) if p > MIN_BRANCH_PROBABILITY]
    if not eligible:
        raise ValueError("all measurement branches have vanishing probability")
    u = rng.random() * sum(probabilities[i] for i in eligible)
    acc = 0.0
    for chosen in eligible:  # round-off past the total leaves the last eligible outcome
        acc += probabilities[chosen]
        if u < acc:
            break
    return probabilities, chosen + 1, _corrected_branch(ks.b_ops[chosen], projected[chosen], probabilities[chosen])


def measurement_branches(
    rho_in: DensityMatrix, ks: KrausSet
) -> tuple[tuple[float, DensityMatrix | None], ...]:
    """Per-outcome probability and corrected post-state.

    Outcomes with probability at or below MIN_BRANCH_PROBABILITY carry None
    instead of a normalized state.
    """
    projected, probabilities = _project(rho_in, ks.a_ops)
    return tuple(
        (max(p, 0.0), None) if p <= MIN_BRANCH_PROBABILITY else (p, _corrected_branch(b, m, p))
        for b, m, p in zip(ks.b_ops, projected, probabilities)
    )


def single_shot(
    rho_in: DensityMatrix,
    ks: KrausSet,
    rng_seed: int | np.random.Generator,
) -> tuple[int, DensityMatrix]:
    """Sample one Bell outcome and return (outcome 1..4, corrected state).

    Sampling draws a single uniform variate from a PCG64 generator seeded
    with rng_seed and inverts the cumulative distribution of the outcome
    probabilities, restricted to branches above MIN_BRANCH_PROBABILITY.
    Only the sampled branch's corrected state is built.
    """
    _, outcome, state = _shot(rho_in, ks, rng_seed)
    return outcome, state


def _marginals(out: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    marginal_12 = DensityMatrix(partial_trace(out.matrix, THREE_QUBITS, {0, 1}))
    marginal_3 = DensityMatrix(partial_trace(out.matrix, THREE_QUBITS, {2}))
    return marginal_12, marginal_3


def run_protocol(
    psi: QubitState,
    resource_index: int = 1,
    mode: str = ENSEMBLE,
    rng_seed: int = 0,
) -> ProtocolReport:
    """Run the protocol end to end and collect every diagnostic in one report.

    rng_seed must be a non-negative Python or numpy integer, since the report
    echoes it; anything else raises ValueError before any work is done.
    Single-shot runs build only the sampled branch's corrected state.
    """
    resource_index = _check_resource_index(resource_index)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    # bool is an int subclass but not a seed
    if isinstance(rng_seed, bool) or not isinstance(rng_seed, (int, np.integer)) or rng_seed < 0:
        raise ValueError(f"rng_seed must be a non-negative integer, got {rng_seed!r}")
    ks = kraus_set(resource_index)
    rho_in = build_initial_state(psi, resource_index)

    if mode == ENSEMBLE:
        outcome: int | None = None
        probabilities = tuple(p for p, _ in measurement_branches(rho_in, ks))
        output = teleport_channel(rho_in, ks)
    else:
        probabilities, outcome, output = _shot(rho_in, ks, rng_seed)

    marginal_12, marginal_3 = _marginals(output)
    return ProtocolReport(
        input_state=psi,
        resource_index=resource_index,
        mode=mode,
        seed=int(rng_seed),
        outcome=outcome,
        outcome_probabilities=probabilities,  # type: ignore[arg-type]
        output_density=output,
        marginal_12=marginal_12,
        marginal_3=marginal_3,
        fidelity=fidelity_pure(psi.ket(), marginal_3),
        output_entropy_bits=von_neumann_entropy(output),
    )


def swap_gate(f: Factorization, p: int, q: int) -> np.ndarray:
    """Permutation unitary exchanging tensor factors p and q of f."""
    n = len(f)
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError(f"factor indices ({p}, {q}) out of range for {n} factors")
    if p == q:
        raise ValueError("swap factors must differ")
    if f.factor_dims[p] != f.factor_dims[q]:
        raise ValueError(
            f"cannot swap factors of unequal dimension {f.factor_dims[p]} and {f.factor_dims[q]}"
        )
    dim = f.dim
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        digits = list(f.digits_of(col))
        digits[p], digits[q] = digits[q], digits[p]
        m[f.index_of(digits), col] = 1.0
    return m


def _summarize_branch(
    label: str,
    requires_bell_resource: bool,
    output: DensityMatrix,
    psi: QubitState,
) -> BranchSummary:
    marginal_12, marginal_3 = _marginals(output)
    return BranchSummary(
        label=label,
        requires_bell_resource=requires_bell_resource,
        marginal_12=marginal_12,
        marginal_3=marginal_3,
        purity_12=purity(marginal_12),
        entropy_12_bits=von_neumann_entropy(marginal_12),
        purity_3=purity(marginal_3),
        entropy_3_bits=von_neumann_entropy(marginal_3),
        fidelity_3=fidelity_pure(psi.ket(), marginal_3),
    )


def compare_swap_vs_teleport(psi: QubitState) -> SwapComparison:
    """Contrast the channel with the plain factor-exchange unitary.

    Both branches start from the same resource-1 initial state and both put
    |psi> on factor 2; they differ in what is left on factors 0 and 1 (the
    channel leaves them maximally mixed, the swap leaves the Bell vector)
    and in whether an entangled resource is consumed at all.
    """
    rho_in = build_initial_state(psi, 1)
    teleported = teleport_channel(rho_in, kraus_set(1))
    swap = swap_gate(THREE_QUBITS, 0, 2)
    swapped = DensityMatrix(swap @ rho_in.matrix @ dagger(swap))
    return SwapComparison(
        input_state=psi,
        teleport=_summarize_branch("teleport", True, teleported, psi),
        swap=_summarize_branch("swap", False, swapped, psi),
    )
