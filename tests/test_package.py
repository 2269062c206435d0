"""The package namespace: what `from qteleport import *` exports."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
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


@pytest.mark.parametrize(
    "name,home", [("dagger", linalg), ("swap_gate", protocol), ("kron", linalg), ("single_shot", protocol)]
)
def test_a_deleted_helper_is_gone_from_the_package_and_its_home_module(name, home):
    assert name not in qteleport.__all__
    assert not hasattr(qteleport, name)
    assert not hasattr(home, name)


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


def _shared_arrays(name, value):
    """(name, array) for value if it is an array, a tuple of them or a KrausSet."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _shared_arrays(f"{name}[{i}]", item)
    elif isinstance(value, protocol.KrausSet):
        for f in dataclasses.fields(value):
            yield from _shared_arrays(f"{name}.{f.name}", getattr(value, f.name))


def test_every_array_the_library_shares_is_read_only():
    qteleport.IDENTITY_2  # noqa: B018 -- binds the lazily exported names
    modules = [qteleport, *(importlib.import_module(f"qteleport.{m.name}") for m in pkgutil.iter_modules(qteleport.__path__))]
    found = dict(
        item for module in modules for attr, value in vars(module).items()
        for item in _shared_arrays(f"{module.__name__}.{attr}", value)
    )
    found.update((f"bell_basis()[{i}].amplitudes", k.amplitudes) for i, k in enumerate(protocol.bell_basis()))
    assert {"qteleport.protocol._BELL_PATTERNS", "qteleport.protocol._KRAUS_SETS[3].kraus"} <= set(found)
    assert [name for name, array in found.items() if array.flags.writeable] == []


_RHO_8 = states.DensityMatrix(np.eye(8) / 8)
_KS = protocol.kraus_set(1)
_PASSED = verify.CheckResult("a", True, "")


def _must_be_a(type_name):
    return rf" must be a {type_name}\b"


# One row per public entry, for a wrong-typed argument: (call, a pattern of
# its message naming what was expected). A key is the entry's name, with a
# "-suffix" where one entry has more than one row.
WRONG_TYPE_CASES = {
    "run_protocol": (lambda: protocol.run_protocol((0.6, 0.8)), _must_be_a("QubitState")),
    "compare_swap_vs_teleport": (lambda: protocol.compare_swap_vs_teleport(None), _must_be_a("QubitState")),
    "build_initial_state": (lambda: protocol.build_initial_state("x"), _must_be_a("QubitState")),
    "teleport_channel-state": (lambda: protocol.teleport_channel(np.eye(8) / 8, _KS), _must_be_a("DensityMatrix")),
    "teleport_channel-set": (lambda: protocol.teleport_channel(_RHO_8, 1), _must_be_a("KrausSet")),
    "measurement_branches": (lambda: protocol.measurement_branches(_RHO_8, 1), _must_be_a("KrausSet")),
    "fidelity_pure": (lambda: states.fidelity_pure([1, 0], states.DensityMatrix(np.eye(2) / 2)), _must_be_a("Ket")),
    "purity": (lambda: states.purity(np.eye(2) / 2), _must_be_a("DensityMatrix")),
    "von_neumann_entropy": (lambda: states.von_neumann_entropy(np.eye(2) / 2), _must_be_a("DensityMatrix")),
    "ket_to_density": (lambda: states.ket_to_density([1, 0]), _must_be_a("Ket")),
    "report_to_json": (lambda: serialize.report_to_json(None), _must_be_a("ProtocolReport")),
    "comparison_to_json": (lambda: serialize.comparison_to_json(None), _must_be_a("SwapComparison")),
    "density_to_json": (lambda: serialize.density_to_json(np.eye(2) / 2), _must_be_a("DensityMatrix")),
    "ket_to_json": (lambda: serialize.ket_to_json([1, 0]), _must_be_a("Ket")),
    "qubit_to_json": (lambda: serialize.qubit_to_json((0.6, 0.8)), _must_be_a("QubitState")),
    "run_checks": (lambda: verify.run_checks(corrupt_kraus=1), _must_be_a("callable")),
    "checks_to_json-list": (lambda: serialize.checks_to_json(None, 1, 1), _must_be_a("list")),
    "checks_to_json-items": (lambda: serialize.checks_to_json([1], 1, 1), _must_be_a("list or tuple of one or more CheckResults")),
    "checks_to_json-empty": (lambda: serialize.checks_to_json([], 1, 1), _must_be_a("list or tuple of one or more CheckResults")),
    "checks_to_json-count": (lambda: serialize.checks_to_json([_PASSED], None, 1), _must_be_a("positive integer")),
    "checks_to_json-seed": (lambda: serialize.checks_to_json([_PASSED], 1, "x"), _must_be_a("non-negative integer")),
    "CheckResult": (lambda: verify.CheckResult("a", np.True_, "x"), _must_be_a("bool")),
    "complex_pair": (lambda: serialize.complex_pair(None), _must_be_a("Complex")),
    "identity": (lambda: linalg.identity("x"), _must_be_a("non-negative integer")),
    "random_qubit_state": (lambda: states.random_qubit_state(None), _must_be_a("Generator")),
    "random_density-rng": (lambda: states.random_density(None, 8), _must_be_a("Generator")),
    "random_density-dim": (lambda: states.random_density(np.random.default_rng(0), "x"), _must_be_a("non-negative integer")),
    "corrupted_for_negative_control": (lambda: verify.corrupted_for_negative_control(1), _must_be_a("KrausSet")),
    "ProtocolReport": (
        lambda: protocol.ProtocolReport(None, 1, "ensemble", 0, None, (0.25,) * 4, None, None, None, 1.0, 0.0),
        _must_be_a("QubitState"),
    ),
    "ProtocolReport-probabilities": (
        lambda: dataclasses.replace(protocol.run_protocol(states.QubitState(1, 0)), outcome_probabilities=None),
        _must_be_a("sequence of 4 real numbers"),
    ),
    "SwapComparison": (lambda: protocol.SwapComparison(None, None, None), _must_be_a("QubitState")),
    "BranchSummary": (lambda: protocol.BranchSummary(True, None, None, 1.0, 0.0, 1.0, 0.0, 1.0), _must_be_a("DensityMatrix")),
    "DensityMatrix": (lambda: states.DensityMatrix(None), _must_be_a("regular array")),
    "Ket": (lambda: states.Ket(None), _must_be_a("regular array")),
    "QubitState": (lambda: states.QubitState(None, 1), _must_be_a("regular array")),
    "KrausSet": (lambda: protocol.KrausSet(1, None, _KS.b_ops), _must_be_a("regular array")),
    "ket": (lambda: states.ket("x"), _must_be_a("regular array")),
    "qubit_state": (lambda: states.qubit_state(None, None), _must_be_a("regular array")),
    "validate_density": (lambda: states.validate_density("x"), _must_be_a("regular array")),
    "eig_hermitian": (lambda: linalg.eig_hermitian(None), _must_be_a("regular array")),
    "partial_trace": (lambda: linalg.partial_trace(np.eye(2), "x", {0}), _must_be_a("non-empty tuple")),
    "kraus_set": (lambda: protocol.kraus_set("x"), r" must be one of \(1, 2, 3, 4\)"),
    "correction_set": (lambda: protocol.correction_set(None), r" must be one of \(1, 2, 3, 4\)"),
    "derive_corrections": (lambda: protocol.derive_corrections(1.0), r" must be one of \(1, 2, 3, 4\)"),
    "matrix_to_json": (lambda: serialize.matrix_to_json(None), _must_be_a("regular array")),
    "matrix_from_json": (lambda: serialize.matrix_from_json(None), "expected a JSON object"),
    "density_from_json": (lambda: serialize.density_from_json([]), "expected a JSON object"),
    "ket_from_json": (lambda: serialize.ket_from_json("x"), "expected a JSON object"),
}

# Public callables without a row, each with the reason.
NO_WRONG_TYPE_ROW = {
    "StateValidationError": "an exception class: its arguments are the raiser's, not a caller's input",
    "NotHermitian": "an exception class",
    "NotPositive": "an exception class",
    "TraceNotOne": "an exception class",
    "bell_basis": "takes no arguments",
    "tables_to_json": "takes no arguments",
    "dumps": "anything it cannot write goes to json.dumps, whose output and errors it keeps by contract",
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CASES))
def test_a_wrong_typed_argument_raises_value_error_naming_the_type(name):
    call, expected = WRONG_TYPE_CASES[name]
    with pytest.raises(ValueError, match=expected):
        call()


def _public_callables():
    """The functions and classes of __all__, and the public functions and classes of serialize and verify."""
    names = {name for name in qteleport.__all__ if callable(getattr(qteleport, name))}
    for module in (serialize, verify):
        names |= {
            name for name, value in vars(module).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__ and not name.startswith("_")
        }
    return names


def test_every_public_callable_has_a_wrong_type_row():
    public = _public_callables()
    covered = {key.split("-")[0] for key in WRONG_TYPE_CASES}
    assert sorted(public - covered - set(NO_WRONG_TYPE_ROW)) == []
    assert set(NO_WRONG_TYPE_ROW) <= public and not covered & set(NO_WRONG_TYPE_ROW)


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


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # a failing @given test must end as a test failure that prints its example, not as an INTERNALERROR
    (tmp_path / "test_planted.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_planted(x):\n"
        "    assert x < 10\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
