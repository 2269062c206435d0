"""Output checker for the benchmark, independent of the checked library.

Nothing here imports qteleport. Expected values come from closed forms
written out below (the Bell projectors, the published operator tables, the
block form of the channel output) and spectra come from numpy's
``eigvalsh``, never from the library's Jacobi solver. Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

BLOCK_TOL = 1e-10
PROB_TOL = 1e-10
FIDELITY_TOL = 1e-9
ENTROPY_TOL = 1e-9

# Bell vectors 1..4 scaled by sqrt(2): (|00>+|11>), (|01>+|10>), (|00>-|11>), (|01>-|10>).
BELL_PATTERNS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex)
BELL_VECTORS = BELL_PATTERNS * 2 ** -0.5
BELL_PROJECTORS = [np.outer(u, u) / 2.0 for u in BELL_PATTERNS]
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
# Published resource-1 corrections, outcome order 1..4: I, X, Z, i*Y.
PUBLISHED_CORRECTIONS = [
    I2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
]


def _swap_first_last() -> np.ndarray:
    m = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                m[4 * c + 2 * b + a, 4 * a + 2 * b + c] = 1.0
    return m


SWAP_FIRST_LAST = _swap_first_last()


def matrix(doc: dict[str, Any]) -> np.ndarray:
    entries = np.asarray(doc["entries"], dtype=float)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(doc["rows"], doc["cols"])


def entropy_bits(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def qubit_density(alpha: complex, beta: complex) -> tuple[np.ndarray, np.ndarray]:
    psi = np.array([alpha, beta], dtype=complex)
    psi /= np.linalg.norm(psi)
    return psi, np.outer(psi, psi.conj())


def _last_factor(out: np.ndarray) -> np.ndarray:
    return np.einsum("ajak->jk", out.reshape(4, 2, 4, 2))


def _first_two_factors(out: np.ndarray) -> np.ndarray:
    return np.einsum("ajbj->ab", out.reshape(4, 2, 4, 2))


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def check_report(doc: dict[str, Any], alpha: complex, beta: complex, resource: int,
                 mode: str, seed: int) -> list[str]:
    """A teleport report: block form, outcome statistics, fidelity, entropy."""
    problems = []
    psi, sigma = qubit_density(alpha, beta)
    if (doc["mode"], doc["resource_index"], doc["seed"]) != (mode, resource, seed):
        problems.append("report echoes the wrong mode, resource or seed")
    probs = np.asarray(doc["outcome_probabilities"], dtype=float)
    if probs.shape != (4,) or np.max(np.abs(probs - 0.25)) > PROB_TOL:
        problems.append(f"outcome probabilities {probs.tolist()} are not all 1/4")
    out = matrix(doc["output_density"])
    if mode == "ensemble":
        if doc["outcome"] is not None:
            problems.append("an ensemble report names an outcome")
        expected_12 = I4 / 4.0
        expected_entropy = 2.0
    else:
        outcome = doc["outcome"]
        if outcome not in (1, 2, 3, 4):
            return problems + [f"single-shot outcome {outcome!r} is not in 1..4"]
        expected_12 = BELL_PROJECTORS[outcome - 1]
        expected_entropy = 0.0
    dev = _deviation(out, np.kron(expected_12, sigma))
    if dev > BLOCK_TOL:
        problems.append(f"output density deviates from the closed form by {dev:.3e}")
    dev = max(_deviation(matrix(doc["marginal_3"]), sigma), _deviation(_last_factor(out), sigma))
    if dev > BLOCK_TOL:
        problems.append(f"subsystem-3 marginal deviates from the input by {dev:.3e}")
    dev = max(_deviation(matrix(doc["marginal_12"]), expected_12),
              _deviation(_first_two_factors(out), expected_12))
    if dev > BLOCK_TOL:
        problems.append(f"subsystem-1,2 marginal deviates from the closed form by {dev:.3e}")
    fidelity = float(np.real(psi.conj() @ _last_factor(out) @ psi))
    for label, value in (("reported", doc["fidelity"]), ("recomputed", fidelity)):
        if not value >= 1.0 - FIDELITY_TOL:
            problems.append(f"{label} fidelity {value!r} is below 1 - {FIDELITY_TOL}")
    for label, value in (("reported", doc["output_entropy_bits"]), ("recomputed", entropy_bits(out))):
        if not abs(value - expected_entropy) <= ENTROPY_TOL:
            problems.append(f"{label} output entropy {value!r} is not {expected_entropy} bits")
    return problems


def check_comparison(doc: dict[str, Any], alpha: complex, beta: complex) -> list[str]:
    """The swap contrast: factors 1,2 carry 2 bits after teleport, 0 after swap."""
    problems = []
    psi, sigma = qubit_density(alpha, beta)
    for label, expected_entropy in (("teleport", 2.0), ("swap", 0.0)):
        branch = doc[label]
        marginal_12 = matrix(branch["marginal_12"])
        marginal_3 = matrix(branch["marginal_3"])
        for source, value in (("reported", branch["entropy_12_bits"]),
                              ("recomputed", entropy_bits(marginal_12))):
            if not abs(value - expected_entropy) <= ENTROPY_TOL:
                problems.append(f"{label}: {source} entropy of factors 1,2 is {value!r}, "
                                f"expected {expected_entropy}")
        dev = _deviation(marginal_3, sigma)
        if dev > BLOCK_TOL:
            problems.append(f"{label}: subsystem-3 marginal deviates from the input by {dev:.3e}")
        fidelity = float(np.real(psi.conj() @ marginal_3 @ psi))
        if not min(fidelity, branch["fidelity_3"]) >= 1.0 - FIDELITY_TOL:
            problems.append(f"{label}: fidelity {branch['fidelity_3']!r} is below 1 - {FIDELITY_TOL}")
    if doc["teleport"]["requires_bell_resource"] is not True or doc["swap"]["requires_bell_resource"] is not False:
        problems.append("resource flags of the teleport and swap branches are wrong")
    return problems


def check_tables(doc: dict[str, Any]) -> list[str]:
    """dump-tables: the published operators, exactly."""
    problems = []
    for i, (a_doc, b_doc) in enumerate(zip(doc["a_ops"], doc["b_ops"]), start=1):
        if not np.array_equal(matrix(a_doc), np.kron(2 * BELL_PROJECTORS[i - 1], I2)):
            problems.append(f"A^{i} differs from the doubled Bell projector")
        if not np.array_equal(matrix(b_doc), np.kron(I4, PUBLISHED_CORRECTIONS[i - 1])):
            problems.append(f"B^{i} differs from the published correction")
    if not np.array_equal(matrix(doc["swap_1_3"]), SWAP_FIRST_LAST):
        problems.append("swap matrix differs from the factor exchange")
    kets = np.array([[complex(re, im) for re, im in k["amplitudes"]] for k in doc["bell_vectors"]])
    if kets.shape != (4, 4) or _deviation(kets, BELL_VECTORS) > BLOCK_TOL:
        problems.append("Bell vectors differ from the closed form")
    return problems


# The invariant suite's checks; a suite may add more, but none may go missing.
VERIFY_CHECKS = frozenset({
    "operator_table_match", "bell_orthonormality", "bell_reductions_maximally_mixed",
    "projector_rank", "kraus_completeness", "swap_matrix_match", "correction_search",
    "outcome_probabilities", "single_shot_consistency", "random_state_fidelity",
    "random_density_outputs",
})


def check_verify(doc: dict[str, Any], count: int, seed: int) -> list[str]:
    """A ``verify --output json`` document: every check ran and passed."""
    problems = []
    if (doc["count"], doc["seed"]) != (count, seed):
        problems.append("verify report echoes the wrong count or seed")
    checks = doc["checks"]
    missing = VERIFY_CHECKS - {c["name"] for c in checks}
    problems += [f"check {name} did not run" for name in sorted(missing)]
    problems += [f"check {c['name']} failed: {c['detail']}" for c in checks if c["passed"] is not True]
    if doc["passed"] is not True:
        problems.append("verify report does not pass")
    return problems


def parse_json(text: str) -> tuple[dict[str, Any] | None, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def text_value(text: str, prefix: str) -> float | None:
    """The number after ``prefix`` on the first line that starts with it."""
    for line in text.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].split()[0])
            except (IndexError, ValueError):
                return None
    return None
