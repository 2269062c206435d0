"""One-qubit teleportation as a channel on a single eight-level system.

The eight-dimensional Hilbert space is read as three virtual qubits through
the big-endian basis index n = 4a + 2b + c (|n> <-> |a>|b>|c>), which is
reshape(2, 2, 2) of the index. The channel measures the first two virtual
qubits with rank-2 Bell projectors acting on the full space and applies a
conditional correction unitary on the third; the whole protocol never
touches a physically composite system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import ClassVar

import numpy as np

from .base import ENSEMBLE, MODES, RESOURCE_INDICES, SINGLE_SHOT
from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_factors,
    _check_int,
    _check_type,
    _frozen,
    _is_int,
    as_complex_array,
    identity,
    kron,
)
from .states import (
    DensityMatrix,
    Ket,
    QubitState,
    _density_stack,
    fidelity_pure,
    purity,
    von_neumann_entropy,
)

THREE_QUBITS = (2, 2, 2)

# Branches thinner than this are treated as impossible when sampling.
MIN_BRANCH_PROBABILITY = 1e-14

# Bell amplitude patterns scaled by sqrt(2); row i-1 is vector i of the basis.
_BELL_PATTERNS = _frozen(np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ],
    dtype=complex,
))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator pairs defining the teleportation channel on the 8-dim space.

    Each field is one read-only (4, 8, 8) complex stack, entry i-1 belonging
    to outcome i, built once from a copy of the given operators, so later
    changes to the caller's arrays do not reach the set. The operators must
    be finite and resource_index one of RESOURCE_INDICES. a_ops hold the
    doubled Bell projectors (integer entries, a_ops[i]/2 is a rank-2
    projector); b_ops the correction unitaries extended by the identity on
    the measured factors; projectors are P_i = A_i / 2 and kraus the map
    operators K_i = B_i A_i / 2. The branches are P rho P, the channel is
    sum K rho K^dagger, which folds in the ensemble weight 1/4 (= (1/2)^2),
    and sum K^dagger K is the identity. Daggers are taken where they are
    used; none is stored.
    """

    resource_index: int
    a_ops: np.ndarray
    b_ops: np.ndarray
    projectors: np.ndarray = field(init=False)
    kraus: np.ndarray = field(init=False)
    weight: ClassVar[float] = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "resource_index", _check_resource_index(self.resource_index))
        a, b = as_complex_array(self.a_ops, "a_ops").copy(), as_complex_array(self.b_ops, "b_ops").copy()
        if a.shape != (4, 8, 8) or b.shape != (4, 8, 8):
            raise ValueError(f"expected four 8x8 a_ops and b_ops, got shapes {a.shape} and {b.shape}")
        for name, stack in (("a_ops", a), ("b_ops", b), ("projectors", a / 2.0), ("kraus", b @ a / 2.0)):
            object.__setattr__(self, name, _frozen(stack))


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
        _check_type(self.input_state, QubitState, "input_state")
        for name in ("output_density", "marginal_12", "marginal_3"):
            _check_type(getattr(self, name), DensityMatrix, name)
        probs = tuple(float(p) for p in self.outcome_probabilities)
        if len(probs) != 4:
            raise ValueError(f"expected 4 outcome probabilities, got {len(probs)}")
        total_dev = abs(sum(probs) - 1.0)
        if not total_dev <= 1e-10:  # NaN and inf compare False
            raise ValueError(f"outcome probabilities sum to 1 off by {total_dev:.3e}")
        object.__setattr__(self, "outcome_probabilities", probs)

    @property
    def paper_extension(self) -> bool:
        """True for resource states 2..4, which extend the canonical resource-1 setup."""
        return self.resource_index != 1


@dataclass(frozen=True, eq=False)
class BranchSummary:
    """Marginals and diagnostics of one comparison branch."""

    requires_bell_resource: bool
    marginal_12: DensityMatrix
    marginal_3: DensityMatrix
    purity_12: float
    entropy_12_bits: float
    purity_3: float
    entropy_3_bits: float
    fidelity_3: float

    def __post_init__(self) -> None:
        for name in ("marginal_12", "marginal_3"):
            _check_type(getattr(self, name), DensityMatrix, name)


@dataclass(frozen=True, eq=False)
class SwapComparison:
    """Side-by-side marginals of the teleportation channel and the swap unitary."""

    input_state: QubitState
    teleport: BranchSummary
    swap: BranchSummary

    def __post_init__(self) -> None:
        _check_type(self.input_state, QubitState, "input_state")
        for name in ("teleport", "swap"):
            _check_type(getattr(self, name), BranchSummary, name)


def _check_resource_index(index: int) -> int:
    """index as a Python int; ValueError unless it is an integer in RESOURCE_INDICES."""
    if not _is_int(index) or index not in RESOURCE_INDICES:
        raise ValueError(f"index must be one of {RESOURCE_INDICES}, got {index!r}")
    return int(index)


def bell_basis() -> tuple[Ket, Ket, Ket, Ket]:
    """The four Bell vectors in their conventional order; entry i-1 is vector i."""
    scale = 2.0 ** -0.5
    return tuple(Ket(row * scale) for row in _BELL_PATTERNS)  # type: ignore[return-value]


def _doubled_bell_projector(index: int) -> np.ndarray:
    """2 |beta^index><beta^index| with exact integer entries."""
    u = _BELL_PATTERNS[index - 1]
    return np.outer(u, u.conj())


# The measurement operators A^i = 2 |beta^i><beta^i| (x) I, shared by every resource.
_A_OPS = _frozen(np.stack([kron(_doubled_bell_projector(i), IDENTITY_2) for i in RESOURCE_INDICES]))
# |beta^i><beta^i|, the resource state on factors 1 and 2; entry i-1 is resource i.
_BELL_DENSITIES = tuple(_frozen(_doubled_bell_projector(i) / 2.0) for i in RESOURCE_INDICES)


def build_initial_state(psi: QubitState, resource_index: int = 1) -> DensityMatrix:
    """Pre-protocol state: |psi><psi| on factor 0, Bell resource on factors 1, 2."""
    _check_type(psi, QubitState, "psi")
    resource_index = _check_resource_index(resource_index)
    v = psi.ket().amplitudes
    return DensityMatrix(kron(np.outer(v, v.conj()), _BELL_DENSITIES[resource_index - 1]))


# Production correction table for resource 1, exactly as published: the
# outcome-4 entry carries the i*sigma_y phase so the extended operators stay
# integer-valued. derive_corrections returns the phase-free canonical form.
_RESOURCE_1_CORRECTIONS = tuple(_frozen(m.astype(complex)) for m in (IDENTITY_2, PAULI_X, PAULI_Z, 1j * PAULI_Y))

# Canonical search order. Adding 0.0 clears the signed zero that -1j leaves
# in PAULI_Y's real part, so the derived tables print no "-0.".
_CANDIDATE_PAULIS = tuple(_frozen(p + 0.0) for p in (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z))


def derive_corrections(resource_index: int) -> tuple[np.ndarray, ...]:
    """Find each outcome's correction by exhaustive search over the Paulis.

    Bell outcome i on resource j leaves M |psi> / 2 on factor 2, with the
    byproduct operator M = (conj(b_i) @ b_j)^T of the Bell patterns read as
    2x2 tables b (Bennett et al., PRL 70, 1895, 1993). Candidates are the
    identity and the three Paulis, in that order; the first E for which
    E @ M is a nonzero multiple of the identity wins. Every entry is a
    small integer, so the test is exact. A global phase cancels in
    E rho E^dagger, so phased candidates would add nothing.
    """
    resource_index = _check_resource_index(resource_index)
    b = _BELL_PATTERNS.reshape(4, 2, 2)
    found: list[np.ndarray] = []
    for outcome in range(4):
        byproduct = (b[outcome].conj() @ b[resource_index - 1]).T
        for candidate in _CANDIDATE_PAULIS:
            (d0, off0), (off1, d1) = (candidate @ byproduct).tolist()
            if d0 == d1 != 0 and off0 == off1 == 0:
                found.append(candidate)
                break
        else:
            raise RuntimeError(
                f"no Pauli corrects outcome {outcome + 1} for resource {resource_index}"
            )
    return tuple(found)


def correction_set(resource_index: int) -> tuple[np.ndarray, ...]:
    """Production corrections, one per outcome: the published resource-1 set, derived sets otherwise."""
    resource_index = _check_resource_index(resource_index)
    if resource_index == 1:
        return _RESOURCE_1_CORRECTIONS
    return derive_corrections(resource_index)


# The production channel, built once at import; entry j-1 is resource j.
_KRAUS_SETS = tuple(
    KrausSet(j, _A_OPS, [kron(identity(4), u) for u in correction_set(j)]) for j in RESOURCE_INDICES
)


def kraus_set(resource_index: int = 1) -> KrausSet:
    """Measurement and correction operators for the chosen Bell resource: one object per resource."""
    return _KRAUS_SETS[_check_resource_index(resource_index) - 1]


def _check_channel_input(rho_in: DensityMatrix, ks: KrausSet) -> None:
    """ValueError unless rho_in is an 8x8 DensityMatrix and ks a KrausSet."""
    _check_type(rho_in, DensityMatrix, "rho_in")
    _check_type(ks, KrausSet, "ks")
    if rho_in.dim != 8:
        raise ValueError(f"channel expects an 8x8 state, got dimension {rho_in.dim}")


def teleport_channel(rho_in: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Ensemble output: sum_i K_i rho K_i-dagger with K_i = B^i A^i / 2.

    rho_in is not checked for positivity (see DensityMatrix): a non-PSD input gives a non-PSD output.
    """
    _check_channel_input(rho_in, ks)
    # one batched product; the builtin sum adds the four terms in outcome order
    return DensityMatrix(sum(ks.kraus @ rho_in.matrix @ ks.kraus.conj().transpose(0, 2, 1)))


def _corrected_branches(rho_in: DensityMatrix, ks: KrausSet) -> tuple[np.ndarray, tuple[float, ...]]:
    """Unnormalized corrected states B_i (P_i rho P_i) B_i-dagger, stacked, and p_i = Tr(P_i rho P_i)."""
    _check_channel_input(rho_in, ks)
    projected = ks.projectors @ rho_in.matrix @ ks.projectors
    probabilities = tuple(projected.trace(axis1=1, axis2=2).real.tolist())
    return ks.b_ops @ projected @ ks.b_ops.conj().transpose(0, 2, 1), probabilities


def _shot(
    rho_in: DensityMatrix, ks: KrausSet, rng_seed: int | np.random.Generator
) -> tuple[tuple[float, ...], int, DensityMatrix]:
    """Outcome probabilities, the sampled outcome 1..4 and its corrected state."""
    rng = np.random.default_rng(rng_seed)  # a Generator passes through as itself
    corrected, probabilities = _corrected_branches(rho_in, ks)
    eligible = [i for i, p in enumerate(probabilities) if p > MIN_BRANCH_PROBABILITY]
    if not eligible:
        raise ValueError("all measurement branches have vanishing probability")
    u = rng.random() * sum(probabilities[i] for i in eligible)
    acc = 0.0
    for chosen in eligible:  # round-off past the total leaves the last eligible outcome
        acc += probabilities[chosen]
        if u < acc:
            break
    return probabilities, chosen + 1, DensityMatrix(corrected[chosen] / probabilities[chosen])


def measurement_branches(
    rho_in: DensityMatrix, ks: KrausSet
) -> tuple[tuple[float, DensityMatrix | None], ...]:
    """Per-outcome probability and corrected post-state.

    Outcomes with probability at or below MIN_BRANCH_PROBABILITY carry None
    instead of a normalized state.
    """
    corrected, probabilities = _corrected_branches(rho_in, ks)
    p = np.array(probabilities)
    built = ~(p <= MIN_BRANCH_PROBABILITY)
    states = iter(_density_stack(corrected[built] / p[built, None, None]))
    return tuple((q, next(states)) if b else (max(q, 0.0), None) for q, b in zip(probabilities, built.tolist()))


def single_shot(
    rho_in: DensityMatrix,
    ks: KrausSet,
    rng_seed: int | np.random.Generator,
) -> tuple[int, DensityMatrix]:
    """Sample one Bell outcome and return (outcome 1..4, corrected state).

    Sampling draws a single uniform variate from a PCG64 generator seeded
    with rng_seed and inverts the cumulative distribution of the outcome
    probabilities, restricted to branches above MIN_BRANCH_PROBABILITY.
    Only the sampled branch's corrected state is built. rng_seed is a
    Generator or a seed as run_protocol takes it; anything else raises
    ValueError.
    """
    if not isinstance(rng_seed, np.random.Generator):
        _check_int(rng_seed, "rng_seed")
    _, outcome, state = _shot(rho_in, ks, rng_seed)
    return outcome, state


def _marginals(out: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """Reductions onto factors 0, 1 and onto factor 2, as partial_trace over THREE_QUBITS."""
    # a = factors 0, 1 of the row index, j = factor 2; b, k the same for the column
    tensor = out.matrix.reshape(4, 2, 4, 2)
    return DensityMatrix(np.einsum("ajbj->ab", tensor)), DensityMatrix(np.einsum("ajak->jk", tensor))


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
    rng_seed = _check_int(rng_seed, "rng_seed")
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
        seed=rng_seed,
        outcome=outcome,
        outcome_probabilities=probabilities,  # type: ignore[arg-type]
        output_density=output,
        marginal_12=marginal_12,
        marginal_3=marginal_3,
        fidelity=fidelity_pure(psi.ket(), marginal_3),
        output_entropy_bits=von_neumann_entropy(output),
    )


def swap_gate(dims: tuple[int, ...], p: int, q: int) -> np.ndarray:
    """Permutation unitary exchanging tensor factors p and q of dims."""
    dims, (p, q) = _check_factors(dims, (p, q))
    if p == q:
        raise ValueError("swap factors must differ")
    if dims[p] != dims[q]:
        raise ValueError(f"cannot swap factors of unequal dimension {dims[p]} and {dims[q]}")
    dim = prod(dims)
    # Swapping two row axes of the identity sends |..a_p..a_q..> to |..a_q..a_p..>.
    return identity(dim).reshape(dims + dims).swapaxes(p, q).reshape(dim, dim)


# The exchange of factors 0 and 2 that compare_swap_vs_teleport and dump-tables use.
SWAP_0_2 = _frozen(swap_gate(THREE_QUBITS, 0, 2))


def _summarize_branch(requires_bell_resource: bool, output: DensityMatrix, psi: QubitState) -> BranchSummary:
    marginal_12, marginal_3 = _marginals(output)
    return BranchSummary(
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
    swapped = DensityMatrix(SWAP_0_2 @ rho_in.matrix @ SWAP_0_2)  # a real symmetric permutation is its own dagger
    return SwapComparison(
        input_state=psi,
        teleport=_summarize_branch(True, teleported, psi),
        swap=_summarize_branch(False, swapped, psi),
    )
