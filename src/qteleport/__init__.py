"""Teleportation of one virtual qubit inside a single eight-level system.

The root defines the numpy-free names the CLI needs before it computes; the
rest of __all__ binds on first use (PEP 562), so importing it loads no numpy.
"""

__version__ = "0.1.0"

ENSEMBLE = "ensemble"
SINGLE_SHOT = "single-shot"
MODES = (ENSEMBLE, SINGLE_SHOT)

RESOURCE_INDICES = (1, 2, 3, 4)

DEFAULT_SWEEP_COUNT = 1000
DEFAULT_TOL = 1e-9


class StateValidationError(ValueError):
    """A matrix or amplitude vector fails a state invariant.

    The measured size of the violation is stored on .violation.
    """

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation

    @classmethod
    def _check(cls, message: str, violation: float, bound: float) -> None:
        """The state guards' one bound rule: raise cls(message, violation) unless violation <= bound; NaN fails."""
        if not violation <= bound:
            raise cls(message, violation)


__all__ = [
    "BranchSummary",
    "DensityMatrix",
    "IDENTITY_2",
    "Ket",
    "KrausSet",
    "NotHermitian",
    "NotPositive",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ProtocolReport",
    "QubitState",
    "StateValidationError",
    "SwapComparison",
    "THREE_QUBITS",
    "TraceNotOne",
    "bell_basis",
    "build_initial_state",
    "compare_swap_vs_teleport",
    "correction_set",
    "derive_corrections",
    "eig_hermitian",
    "fidelity_pure",
    "identity",
    "ket",
    "ket_to_density",
    "kraus_set",
    "measurement_branches",
    "partial_trace",
    "purity",
    "qubit_state",
    "run_protocol",
    "teleport_channel",
    "validate_density",
    "von_neumann_entropy",
]


def __getattr__(name: str) -> object:
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import linalg, protocol, states

    # protocol and states re-export some names of the modules they import;
    # binding the lower layers last takes each name from its home module
    for module in (protocol, states, linalg):
        globals().update((n, getattr(module, n)) for n in __all__ if hasattr(module, n))
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
