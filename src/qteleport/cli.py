"""Command-line front end: teleport, swap-compare, verify, dump-tables."""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator
from functools import partial
from typing import Any

from . import (
    DEFAULT_SWEEP_COUNT,
    DEFAULT_TOL,
    ENSEMBLE,
    MODES,
    RESOURCE_INDICES,
    StateValidationError,
)

# Parsing the arguments and reporting a usage error import no numeric module:
# each command imports them once its input has been accepted.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

TOL_ENV_VAR = "QTELEPORT_TOL"
# CLI inputs are typically truncated decimals; deviations up to this are
# silently renormalized, larger ones need --renormalize.
CLI_NORM_TOL = 1e-6


class UsageError(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style literals; both i and j mark the imaginary part."""
    cleaned = text.strip().replace(" ", "").lower().replace("i", "j")
    if not cleaned:
        raise UsageError("empty complex literal")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise UsageError(f"amplitude {text!r} is not finite")
    return value


def _int_at_least(low: int, text: str) -> int:
    """The argparse type of an integer flag, low 0 or 1: malformed and smaller text get one message."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # refused like a negative number
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {'positive' if low else 'non-negative'} integer")
    return value


def _parse_tol(raw: str, source: str) -> float:
    """The one validator for --tol and QTELEPORT_TOL: a finite number > 0."""
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"{source} must be a number, got {raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"{source} must be finite and positive, got {raw!r}")
    return tol


def _resolve_tol(args: argparse.Namespace) -> float:
    if args.tol is not None:
        return _parse_tol(args.tol, "--tol")
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        return _parse_tol(env, TOL_ENV_VAR)
    return DEFAULT_TOL


def input_amplitudes(args: argparse.Namespace) -> tuple[complex, complex]:
    """(alpha, beta) from the --alpha and --beta literals, with every state check run on them.

    An amplitude with no flag is 0; parse_complex refuses a non-finite part.
    """
    if args.alpha is None and args.beta is None:
        raise UsageError("an input state is required: use --alpha and/or --beta")
    alpha, beta = (0j if text is None else parse_complex(text) for text in (args.alpha, args.beta))
    parts = (alpha.real, alpha.imag, beta.real, beta.imag)
    # inf when finite parts overflow it, which only --renormalize accepts
    norm = math.hypot(*parts)
    if norm == 0.0:
        raise UsageError("input amplitudes are both zero")
    if abs(norm - 1.0) > CLI_NORM_TOL and not args.renormalize:
        raise UsageError(
            f"input state norm {norm:.9f} deviates from 1 by more than {CLI_NORM_TOL}; "
            "pass --renormalize to rescale it"
        )
    return alpha, beta


def _fmt_pair(pair: list[float | int]) -> str:
    """An [re, im] pair of a document, already rounded, as a complex literal."""
    re, im = pair
    if im == 0:
        return str(re)
    imag = f"{abs(im)}i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def format_matrix(doc: dict[str, Any]) -> str:
    """The entries of a matrix document, one bracketed row of cols cells per line."""
    cells = [_fmt_pair(pair) for pair in doc["entries"]]
    if not cells:
        return ""
    width = max(map(len, cells))
    cols = doc["cols"]
    return "\n".join(
        "  [" + " ".join(c.rjust(width) for c in cells[r : r + cols]) + "]"
        for r in range(0, len(cells), cols)
    )


def _fmt_input(doc: dict[str, Any]) -> str:
    return f"input state: alpha = {_fmt_pair(doc['alpha'])}, beta = {_fmt_pair(doc['beta'])}"


# What each command returns: its document, its text lines (consumed for --output text
# only) and the message of its failed check, None when the check passed.
CommandResult = tuple[dict[str, Any], Iterable[str], str | None]


def _teleport_lines(doc: dict[str, Any]) -> Iterator[str]:
    yield f"mode: {doc['mode']}"
    yield f"seed: {doc['seed']}"
    yield f"resource index: {doc['resource_index']}"
    yield f"extends the canonical resource-1 setup: {'yes' if doc['paper_extension'] else 'no'}"
    yield _fmt_input(doc["input_state"])
    yield f"measurement outcome: {'-' if doc['outcome'] is None else doc['outcome']}"
    yield f"outcome probabilities: {', '.join(map(str, doc['outcome_probabilities']))}"
    yield f"fidelity of subsystem-3 marginal vs input: {doc['fidelity']}"
    yield f"output entropy: {doc['output_entropy_bits']} bits"
    yield "marginal on subsystem 3:"
    yield format_matrix(doc["marginal_3"])
    yield "marginal on subsystems 1,2:"
    yield format_matrix(doc["marginal_12"])
    yield "full output state:"
    yield format_matrix(doc["output_density"])


def cmd_teleport(args: argparse.Namespace) -> CommandResult:
    from .protocol import run_protocol
    from .serialize import report_to_json
    from .states import qubit_state

    psi = qubit_state(args.alpha, args.beta, renormalize=True)
    report = run_protocol(psi, args.resource_index, args.mode, args.seed)
    doc = report_to_json(report)
    passed = report.fidelity >= 1.0 - args.tol
    failure = f"fidelity {report.fidelity!r} fell below 1 - {args.tol!r}"
    return doc, _teleport_lines(doc), None if passed else failure


def _swap_compare_lines(doc: dict[str, Any]) -> Iterator[str]:
    yield _fmt_input(doc["input_state"])
    for label in ("teleport", "swap"):
        branch = doc[label]
        yield f"[{label}]"
        yield f"  consumes a Bell resource: {'yes' if branch['requires_bell_resource'] else 'no'}"
        yield f"  marginal 1,2: purity {branch['purity_12']}, entropy {branch['entropy_12_bits']} bits"
        yield (f"  marginal 3: purity {branch['purity_3']}, entropy {branch['entropy_3_bits']} bits, "
               f"fidelity vs input {branch['fidelity_3']}")
        yield format_matrix(branch["marginal_12"])


def cmd_swap_compare(args: argparse.Namespace) -> CommandResult:
    from .protocol import compare_swap_vs_teleport
    from .serialize import comparison_to_json
    from .states import qubit_state

    comparison = compare_swap_vs_teleport(qubit_state(args.alpha, args.beta, renormalize=True))
    doc = comparison_to_json(comparison)
    teleport, swap = comparison.teleport.entropy_12_bits, comparison.swap.entropy_12_bits
    contrast = abs(teleport - 2.0) <= args.tol and abs(swap) <= args.tol
    failure = "marginal entropies do not show the expected teleport/swap contrast"
    return doc, _swap_compare_lines(doc), None if contrast else failure


def cmd_verify(args: argparse.Namespace) -> CommandResult:
    from .serialize import checks_to_json
    from .verify import corrupted_for_negative_control, run_checks

    corrupt = corrupted_for_negative_control if args.inject_corruption else None
    results = run_checks(count=args.count, tol=args.tol, rng_seed=args.seed, corrupt_kraus=corrupt)
    doc = checks_to_json(results, args.count, args.seed)
    lines = (f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}" for c in doc["checks"])
    failing = [c["name"] for c in doc["checks"] if not c["passed"]]
    return doc, lines, f"first failing check: {failing[0]}" if failing else None


def _tables_lines(doc: dict[str, Any]) -> Iterator[str]:
    for key, symbol in (("a_ops", "A"), ("b_ops", "B")):
        for i, m in enumerate(doc[key], start=1):
            yield f"{symbol}^{i}:"
            yield format_matrix(m)
    yield "SWAP_1_3:"
    yield format_matrix(doc["swap_1_3"])
    for i, k in enumerate(doc["bell_vectors"], start=1):
        yield f"bell_vector_{i}: ({', '.join(map(_fmt_pair, k['amplitudes']))})"


def cmd_dump_tables(args: argparse.Namespace) -> CommandResult:
    from .serialize import tables_to_json

    doc = tables_to_json()
    return doc, _tables_lines(doc), None


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", help="amplitude of |0> as a complex literal, e.g. 0.6 or 0.6+0.2i")
    parser.add_argument("--beta", help="amplitude of |1> as a complex literal, e.g. 0.8i")
    parser.add_argument(
        "--renormalize",
        action="store_true",
        help="rescale the input amplitudes to unit norm instead of rejecting them",
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument(
        "--tol",
        default=None,
        help=f"success tolerance (default {DEFAULT_TOL}, or the {TOL_ENV_VAR} env var)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description=(
            "Simulate one-qubit teleportation realized entirely inside a single "
            "eight-level quantum system."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    teleport = sub.add_parser("teleport", help="run the protocol and report the transferred state")
    teleport.set_defaults(run=cmd_teleport)
    _add_state_flags(teleport)
    teleport.add_argument(
        "--resource-index",
        type=int,
        choices=RESOURCE_INDICES,
        default=1,
        help="which Bell vector is prepared as the entangled resource",
    )
    teleport.add_argument("--mode", choices=MODES, default=ENSEMBLE)
    teleport.add_argument("--seed", type=partial(_int_at_least, 0), default=0)
    _add_common_flags(teleport)

    swap_cmp = sub.add_parser("swap-compare", help="contrast the channel with the swap unitary")
    swap_cmp.set_defaults(run=cmd_swap_compare)
    _add_state_flags(swap_cmp)
    _add_common_flags(swap_cmp)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.set_defaults(run=cmd_verify)
    verify.add_argument("--count", type=partial(_int_at_least, 1), default=DEFAULT_SWEEP_COUNT,
                        help="number of random states in the fidelity sweep")
    verify.add_argument("--seed", type=partial(_int_at_least, 0), default=0)
    verify.add_argument("--inject-corruption", action="store_true", help=argparse.SUPPRESS)
    _add_common_flags(verify)

    dump = sub.add_parser("dump-tables", help="print the channel operators and Bell vectors")
    dump.set_defaults(run=cmd_dump_tables)
    _add_common_flags(dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place its document or text, its failure line and its exit code are issued."""
    args = build_parser().parse_args(argv)
    try:
        # The checked amplitudes and tolerance replace their raw flag strings;
        # every state error is reported before a tolerance error.
        if hasattr(args, "alpha"):
            args.alpha, args.beta = input_amplitudes(args)
        args.tol = _resolve_tol(args)
        doc, lines, failure = args.run(args)
    except (UsageError, StateValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if args.output == "json":
        from .serialize import dumps

        lines = [dumps(doc)]
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    if failure is None:
        return EXIT_OK
    sys.stderr.write(failure + "\n")
    return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
