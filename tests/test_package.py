"""The package namespace: what `from qteleport import *` exports."""

import ast
import importlib
from pathlib import Path

import pytest

import qteleport
from helpers import run_python
from qteleport import linalg, protocol, states

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
