"""Teleportation of one virtual qubit inside a single eight-level system.

The names in __all__ are bound on first use (PEP 562): importing the package,
or the CLI before it has parsed its arguments, does not import numpy.
"""

__version__ = "0.1.0"

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
    "kron",
    "measurement_branches",
    "partial_trace",
    "purity",
    "qubit_state",
    "run_protocol",
    "single_shot",
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
