"""The package namespace: what `from qteleport import *` exports."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import qteleport
from helpers import run_python
from qteleport import linalg, protocol, serialize, states, verify

# Exported values that carry no __module__ of their own, by home module.
_CONSTANT_HOMES = {
    "IDENTITY_2": linalg,
    "PAULI_X": linalg,
    "PAULI_Y": linalg,
    "PAULI_Z": linalg,
    "THREE_QUBITS": protocol,
}


def test_all_has_no_duplicates():
    assert len(qteleport.__all__) == len(set(qteleport.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in qteleport.__all__ if not hasattr(qteleport, name)]
    assert missing == []


@pytest.mark.parametrize("name", qteleport.__all__)
def test_each_name_is_the_object_of_its_home_module(name):
    value = getattr(qteleport, name)
    home = _CONSTANT_HOMES.get(name) or importlib.import_module(value.__module__)
    assert getattr(home, name) is value


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from qteleport import *", namespace)
    assert set(qteleport.__all__) <= set(namespace)
    assert set(qteleport.__all__) <= set(dir(qteleport))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qteleport.not_a_name  # noqa: B018


def test_validation_errors_share_one_base_class():
    assert qteleport.StateValidationError is states.StateValidationError
    for error in (qteleport.NotHermitian, qteleport.NotPositive, qteleport.TraceNotOne):
        assert issubclass(error, qteleport.StateValidationError)


def test_not_hermitian_is_one_class_defined_beside_its_check():
    assert qteleport.NotHermitian is states.NotHermitian is linalg.NotHermitian


_RHO_8 = states.DensityMatrix(np.eye(8) / 8)
_KS = protocol.kraus_set(1)

# One row per public entry that used to fail with a stray AttributeError or
# TypeError on a wrong-typed argument: (call, the type its error must name).
WRONG_TYPE_CASES = {
    "run_protocol": (lambda: protocol.run_protocol((0.6, 0.8)), "QubitState"),
    "compare_swap_vs_teleport": (lambda: protocol.compare_swap_vs_teleport(None), "QubitState"),
    "build_initial_state": (lambda: protocol.build_initial_state("x"), "QubitState"),
    "teleport_channel-state": (lambda: protocol.teleport_channel(np.eye(8) / 8, _KS), "DensityMatrix"),
    "teleport_channel-set": (lambda: protocol.teleport_channel(_RHO_8, 1), "KrausSet"),
    "measurement_branches": (lambda: protocol.measurement_branches(_RHO_8, 1), "KrausSet"),
    "single_shot": (lambda: protocol.single_shot(np.eye(8) / 8, _KS, 0), "DensityMatrix"),
    "fidelity_pure": (lambda: states.fidelity_pure([1, 0], states.DensityMatrix(np.eye(2) / 2)), "Ket"),
    "purity": (lambda: states.purity(np.eye(2) / 2), "DensityMatrix"),
    "von_neumann_entropy": (lambda: states.von_neumann_entropy(np.eye(2) / 2), "DensityMatrix"),
    "ket_to_density": (lambda: states.ket_to_density([1, 0]), "Ket"),
    "report_to_json": (lambda: serialize.report_to_json(None), "ProtocolReport"),
    "comparison_to_json": (lambda: serialize.comparison_to_json(None), "SwapComparison"),
    "density_to_json": (lambda: serialize.density_to_json(np.eye(2) / 2), "DensityMatrix"),
    "ket_to_json": (lambda: serialize.ket_to_json([1, 0]), "Ket"),
    "qubit_to_json": (lambda: serialize.qubit_to_json((0.6, 0.8)), "QubitState"),
    "run_checks": (lambda: verify.run_checks(corrupt_kraus=1), "callable"),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CASES))
def test_a_wrong_typed_argument_raises_value_error_naming_the_type(name):
    call, expected = WRONG_TYPE_CASES[name]
    with pytest.raises(ValueError, match=rf" must be a {expected}\b"):
        call()


def test_first_use_loads_only_the_library_layers():
    proc = run_python(
        "import sys, qteleport; qteleport.kraus_set\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qteleport.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"qteleport.linalg", "qteleport.states", "qteleport.protocol"} <= loaded
    assert loaded.isdisjoint({"qteleport.serialize", "qteleport.verify", "qteleport.cli"})


def test_sources_and_tests_parse_with_the_oldest_supported_grammar():
    # pyproject.toml declares requires-python >=3.10
    root = Path(__file__).resolve().parents[1]
    files = sorted(root.glob("src/**/*.py")) + sorted(root.glob("tests/**/*.py"))
    assert len(files) > 10
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(root)}:{exc.lineno}: {exc.msg}")
    assert failures == []
