"""JSON wire formats: matrices, states, and the documents of the four CLI commands.

All floats are printed as decimals with 12 significant digits, so repeated
runs are byte-identical and parse-print round trips stay within 1e-12.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from numbers import Complex
from sys import float_info
from typing import Any, Sequence

import numpy as np

from .linalg import _check_int, _check_type, as_complex_array
from .protocol import SWAP_0_2, BranchSummary, ProtocolReport, SwapComparison, bell_basis, kraus_set
from .states import DensityMatrix, Ket, QubitState, validate_density

SIGNIFICANT_DIGITS = 12
_FORMAT = f"%.{SIGNIFICANT_DIGITS}g"


def _number(x: float) -> float | int:
    """x rounded to SIGNIFICANT_DIGITS, an int when integral: the one number format of every document."""
    r = float(_FORMAT % float(x))
    return int(r) if r.is_integer() and abs(r) < 2**53 else r


def complex_pair(z: complex) -> list[float | int]:
    _check_type(z, Complex, "z")
    if isinstance(z, bool) or not all(abs(x) <= float_info.max for x in (z.real, z.imag)):
        raise ValueError(f"z must be a finite number within float range and not a bool, got {z!r}")
    return [_number(z.real), _number(z.imag)]


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    m = as_complex_array(m)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return _matrix_doc(m)


def _matrix_doc(m: np.ndarray) -> dict[str, Any]:
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        # most entries of a report are exact zeros, which skip the decimal round trip
        "entries": [
            [_number(re) if re else 0, _number(im) if im else 0]
            for re, im in zip(flat.real.tolist(), flat.imag.tolist())
        ],
    }


def _require(doc: object, key: str) -> Any:
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _complex_list(doc: object, key: str) -> list[complex]:
    """The [re, im] pairs stored under key, as complex numbers."""
    pairs = _require(doc, key)
    if not isinstance(pairs, list):
        raise ValueError(f"{key!r} must be a list of [re, im] pairs, got {type(pairs).__name__}")
    out = []
    for n, pair in enumerate(pairs):
        try:
            re, im = pair if isinstance(pair, list) else ()
            # JSON numbers load as int or float; float() alone would also take strings and booleans
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
                raise TypeError("parts must be JSON numbers")
            out.append(complex(float(re), float(im)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{key}[{n}] must be a [re, im] pair of numbers, got {pair!r}") from exc
    return out


def matrix_from_json(doc: dict[str, Any]) -> np.ndarray:
    """Inverse of matrix_to_json; a malformed document raises ValueError."""
    rows, cols = _require(doc, "rows"), _require(doc, "cols")
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in (rows, cols)):
        raise ValueError(f"rows and cols must be non-negative integers, got {rows!r} and {cols!r}")
    entries = _complex_list(doc, "entries")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return as_complex_array(np.array(entries, dtype=complex).reshape(rows, cols))


def density_to_json(rho: DensityMatrix) -> dict[str, Any]:
    _check_type(rho, DensityMatrix, "rho")
    return {"kind": "density", **_matrix_doc(rho.matrix)}


def density_from_json(doc: dict[str, Any]) -> DensityMatrix:
    if _require(doc, "kind") != "density":
        raise ValueError(f"expected kind 'density', got {doc['kind']!r}")
    return validate_density(matrix_from_json(doc))


def ket_to_json(k: Ket) -> dict[str, Any]:
    _check_type(k, Ket, "k")
    return {"kind": "ket", "amplitudes": [complex_pair(z) for z in k.amplitudes]}


def ket_from_json(doc: dict[str, Any]) -> Ket:
    if _require(doc, "kind") != "ket":
        raise ValueError(f"expected kind 'ket', got {doc['kind']!r}")
    return Ket(np.array(_complex_list(doc, "amplitudes"), dtype=complex))


def qubit_to_json(psi: QubitState) -> dict[str, Any]:
    _check_type(psi, QubitState, "psi")
    return {"alpha": complex_pair(psi.alpha), "beta": complex_pair(psi.beta)}


def report_to_json(report: ProtocolReport) -> dict[str, Any]:
    """ProtocolReport document; key order is part of the format."""
    _check_type(report, ProtocolReport, "report")
    return {
        "mode": report.mode,
        "seed": report.seed,
        "resource_index": report.resource_index,
        "paper_extension": report.paper_extension,
        "input_state": qubit_to_json(report.input_state),
        "outcome": report.outcome,
        "outcome_probabilities": [_number(p) for p in report.outcome_probabilities],
        "fidelity": _number(report.fidelity),
        "output_entropy_bits": _number(report.output_entropy_bits),
        "marginal_3": density_to_json(report.marginal_3),
        "marginal_12": density_to_json(report.marginal_12),
        "output_density": density_to_json(report.output_density),
    }


def _branch_to_json(branch: BranchSummary) -> dict[str, Any]:
    return {
        "requires_bell_resource": branch.requires_bell_resource,
        "fidelity_3": _number(branch.fidelity_3),
        "purity_12": _number(branch.purity_12),
        "entropy_12_bits": _number(branch.entropy_12_bits),
        "purity_3": _number(branch.purity_3),
        "entropy_3_bits": _number(branch.entropy_3_bits),
        "marginal_12": density_to_json(branch.marginal_12),
        "marginal_3": density_to_json(branch.marginal_3),
    }


def comparison_to_json(comparison: SwapComparison) -> dict[str, Any]:
    _check_type(comparison, SwapComparison, "comparison")
    return {
        "input_state": qubit_to_json(comparison.input_state),
        "teleport": _branch_to_json(comparison.teleport),
        "swap": _branch_to_json(comparison.swap),
    }


def checks_to_json(results: Sequence[Any], count: int, seed: int) -> dict[str, Any]:
    """verify document of run_checks results: a non-empty list or tuple of CheckResults; count and seed are echoed as ints."""
    from .verify import CheckResult  # verify is loaded wherever a CheckResult exists
    if not (isinstance(results, (list, tuple)) and results and all(isinstance(r, CheckResult) for r in results)):
        raise ValueError("results must be a list or tuple of one or more CheckResults")
    count, seed = _check_int(count, "count", 1), _check_int(seed, "rng_seed")
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    return {"count": count, "seed": seed, "passed": all(c["passed"] for c in checks), "checks": checks}


def tables_to_json() -> dict[str, Any]:
    """dump-tables document: the resource-1 operators, the factor 1 <-> 3 swap and the Bell vectors."""
    ks = kraus_set(1)
    return {
        "a_ops": [matrix_to_json(a) for a in ks.a_ops],
        "b_ops": [matrix_to_json(b) for b in ks.b_ops],
        "swap_1_3": matrix_to_json(SWAP_0_2),
        "bell_vectors": [ket_to_json(k) for k in bell_basis()],
    }


class _Unsupported(Exception):
    """A value the direct writer leaves to json.dumps."""


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _is_number(x: Any) -> bool:
    """An int or a finite float (not a bool): json prints these with repr."""
    t = type(x)
    return t is int or (t is float and isfinite(x))


def _write(x: Any, indent: str, out: list[str]) -> None:
    """Append x to out as json.dumps(x, indent=2) prints it at this indent."""
    t = type(x)
    if (t is dict or t is list) and not x:
        out.append("{}" if t is dict else "[]")
    elif t is dict:
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in x.items():
            if type(key) is not str:
                raise _Unsupported
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif t is list:
        inner = indent + "  "
        sep = ",\n" + inner
        if all(map(_is_number, x)):
            out.append("[\n" + inner + sep.join(map(repr, x)) + "\n" + indent + "]")
            return
        # [re, im] pairs, as in matrix entries: one template for the whole list
        flat = [v for p in x if type(p) is list and len(p) == 2 for v in p]
        if len(flat) == 2 * len(x) and all(map(_is_number, flat)):
            pair = f"[\n{inner}  %r,\n{inner}  %r\n{inner}]"
            out.append(("[\n" + inner + sep.join([pair] * len(x)) + "\n" + indent + "]") % tuple(flat))
            return
        for n, item in enumerate(x):
            out.append(sep if n else "[\n" + inner)
            _write(item, inner, out)
        out.append("\n" + indent + "]")
    elif t is str:
        out.append(encode_basestring_ascii(x))
    elif _is_number(x):
        out.append(repr(x))
    elif x is None or t is bool:
        out.append(_CONSTANTS[x])
    else:
        raise _Unsupported


def dumps(doc: Any) -> str:
    """Exactly json.dumps(doc, indent=2), written without the stdlib encoder.

    Documents of dicts with str keys, lists, str, int, finite float, bool and
    None are written directly; anything else (a tuple, a numpy scalar, NaN)
    goes to json.dumps, so its output and its errors stay the stdlib's.
    """
    out: list[str] = []
    try:
        _write(doc, "", out)
    except (_Unsupported, RecursionError):  # RecursionError: a circular document
        return json.dumps(doc, indent=2)
    return "".join(out)
