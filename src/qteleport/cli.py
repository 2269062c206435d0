"""Command-line front end: teleport, swap-compare, verify, dump-tables."""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from .base import (
    DEFAULT_SWEEP_COUNT,
    DEFAULT_TOL,
    ENSEMBLE,
    MODES,
    RESOURCE_INDICES,
    StateValidationError,
)

if TYPE_CHECKING:
    import numpy as np

    from .states import QubitState

# Parsing the arguments and reporting a usage error stay numpy-free: each
# command imports the numeric modules once its input has been accepted.

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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
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


def _resolve_amplitude(args: argparse.Namespace, name: str) -> complex | None:
    """Combine --<name> with --<name>-re/--<name>-im; components win."""
    re = getattr(args, f"{name}_re")
    im = getattr(args, f"{name}_im")
    if re is not None or im is not None:
        return complex(re or 0.0, im or 0.0)
    literal = getattr(args, name)
    if literal is None:
        return None
    return parse_complex(literal)


def _resolve_amplitudes(args: argparse.Namespace) -> tuple[complex, complex]:
    """(alpha, beta) from the state flags; a missing one of the two is 0."""
    alpha = _resolve_amplitude(args, "alpha")
    beta = _resolve_amplitude(args, "beta")
    if alpha is None and beta is None:
        raise UsageError("an input state is required: use --alpha/--beta or the -re/-im flags")
    return alpha if alpha is not None else 0.0, beta if beta is not None else 0.0


def build_input_state(args: argparse.Namespace) -> QubitState:
    """The QubitState of the resolved args.alpha and args.beta."""
    parts = (args.alpha.real, args.alpha.imag, args.beta.real, args.beta.imag)
    if not all(map(math.isfinite, parts)):
        raise UsageError("input amplitudes must be finite")
    # inf when finite parts overflow it, which only --renormalize accepts
    norm = math.hypot(*parts)
    if norm == 0.0:
        raise UsageError("input amplitudes are both zero")
    if abs(norm - 1.0) > CLI_NORM_TOL and not args.renormalize:
        raise UsageError(
            f"input state norm {norm:.9f} deviates from 1 by more than {CLI_NORM_TOL}; "
            "pass --renormalize to rescale it"
        )
    from .states import qubit_state

    return qubit_state(args.alpha, args.beta, renormalize=True)


def _fmt_real(x: float) -> str:
    from .serialize import _number

    return str(_number(x))


def _fmt_complex(z: complex) -> str:
    from .serialize import _number

    re, im = _number(z.real), _number(z.imag)
    if im == 0:
        return str(re)
    imag = f"{abs(im)}i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def format_matrix(m: np.ndarray, indent: str = "  ") -> str:
    import numpy as np

    cells = [[_fmt_complex(z) for z in row] for row in np.atleast_2d(m)]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(
        indent + "[" + " ".join(c.rjust(width) for c in row) + "]" for row in cells
    )


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _print_err(text: str) -> None:
    sys.stderr.write(text + "\n")


def cmd_teleport(args: argparse.Namespace) -> int:
    psi = build_input_state(args)
    from .protocol import run_protocol
    from .serialize import dumps, report_to_json

    report = run_protocol(psi, args.resource_index, args.mode, args.seed)
    if args.output == "json":
        _print(dumps(report_to_json(report)))
    else:
        _print(f"mode: {report.mode}")
        _print(f"seed: {report.seed}")
        _print(f"resource index: {report.resource_index}")
        _print(f"extends the canonical resource-1 setup: {'yes' if report.paper_extension else 'no'}")
        _print(f"input state: alpha = {_fmt_complex(psi.alpha)}, beta = {_fmt_complex(psi.beta)}")
        outcome = "-" if report.outcome is None else str(report.outcome)
        _print(f"measurement outcome: {outcome}")
        probs = ", ".join(_fmt_real(p) for p in report.outcome_probabilities)
        _print(f"outcome probabilities: {probs}")
        _print(f"fidelity of subsystem-3 marginal vs input: {_fmt_real(report.fidelity)}")
        _print(f"output entropy: {_fmt_real(report.output_entropy_bits)} bits")
        _print("marginal on subsystem 3:")
        _print(format_matrix(report.marginal_3.matrix))
        _print("marginal on subsystems 1,2:")
        _print(format_matrix(report.marginal_12.matrix))
        _print("full output state:")
        _print(format_matrix(report.output_density.matrix))
    if report.fidelity >= 1.0 - args.tol:
        return EXIT_OK
    _print_err(f"fidelity {report.fidelity!r} fell below 1 - {args.tol!r}")
    return EXIT_CHECK_FAILED


def cmd_swap_compare(args: argparse.Namespace) -> int:
    psi = build_input_state(args)
    from .protocol import compare_swap_vs_teleport
    from .serialize import comparison_to_json, dumps

    comparison = compare_swap_vs_teleport(psi)
    if args.output == "json":
        _print(dumps(comparison_to_json(comparison)))
    else:
        _print(f"input state: alpha = {_fmt_complex(psi.alpha)}, beta = {_fmt_complex(psi.beta)}")
        for branch in (comparison.teleport, comparison.swap):
            _print(f"[{branch.label}]")
            _print(f"  consumes a Bell resource: {'yes' if branch.requires_bell_resource else 'no'}")
            _print(f"  marginal 1,2: purity {_fmt_real(branch.purity_12)}, "
                   f"entropy {_fmt_real(branch.entropy_12_bits)} bits")
            _print(f"  marginal 3: purity {_fmt_real(branch.purity_3)}, "
                   f"entropy {_fmt_real(branch.entropy_3_bits)} bits, "
                   f"fidelity vs input {_fmt_real(branch.fidelity_3)}")
            _print(format_matrix(branch.marginal_12.matrix))
    ok = (
        abs(comparison.teleport.entropy_12_bits - 2.0) <= args.tol
        and abs(comparison.swap.entropy_12_bits) <= args.tol
    )
    if ok:
        return EXIT_OK
    _print_err("marginal entropies do not show the expected teleport/swap contrast")
    return EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    from .serialize import dumps
    from .verify import corrupted_for_negative_control, run_checks

    corrupt = corrupted_for_negative_control if args.inject_corruption else None
    results = run_checks(count=args.count, tol=args.tol, rng_seed=args.seed, corrupt_kraus=corrupt)
    if args.output == "json":
        doc = {
            "count": args.count,
            "seed": args.seed,
            "passed": all(r.passed for r in results),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        _print(dumps(doc))
    else:
        for r in results:
            _print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failing = [r for r in results if not r.passed]
    if failing:
        _print_err(f"first failing check: {failing[0].name}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_dump_tables(args: argparse.Namespace) -> int:
    from .protocol import SWAP_0_2, bell_basis, kraus_set
    from .serialize import dumps, ket_to_json, matrix_to_json

    ks = kraus_set(1)
    basis = bell_basis()
    if args.output == "json":
        doc = {
            "a_ops": [matrix_to_json(a) for a in ks.a_ops],
            "b_ops": [matrix_to_json(b) for b in ks.b_ops],
            "swap_1_3": matrix_to_json(SWAP_0_2),
            "bell_vectors": [ket_to_json(k) for k in basis],
        }
        _print(dumps(doc))
    else:
        for i, a in enumerate(ks.a_ops, start=1):
            _print(f"A^{i}:")
            _print(format_matrix(a))
        for i, b in enumerate(ks.b_ops, start=1):
            _print(f"B^{i}:")
            _print(format_matrix(b))
        _print("SWAP_1_3:")
        _print(format_matrix(SWAP_0_2))
        for i, k in enumerate(basis, start=1):
            amps = ", ".join(_fmt_complex(z) for z in k.amplitudes)
            _print(f"bell_vector_{i}: ({amps})")
    return EXIT_OK


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", help="amplitude of |0> as a complex literal, e.g. 0.6 or 0.6+0.2i")
    parser.add_argument("--beta", help="amplitude of |1> as a complex literal, e.g. 0.8i")
    parser.add_argument("--alpha-re", type=float, help="real part of alpha (overrides --alpha)")
    parser.add_argument("--alpha-im", type=float, help="imaginary part of alpha (overrides --alpha)")
    parser.add_argument("--beta-re", type=float, help="real part of beta (overrides --beta)")
    parser.add_argument("--beta-im", type=float, help="imaginary part of beta (overrides --beta)")
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
    _add_state_flags(teleport)
    teleport.add_argument(
        "--resource-index",
        type=int,
        choices=RESOURCE_INDICES,
        default=1,
        help="which Bell vector is prepared as the entangled resource",
    )
    teleport.add_argument("--mode", choices=MODES, default=ENSEMBLE)
    teleport.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_common_flags(teleport)

    swap_cmp = sub.add_parser("swap-compare", help="contrast the channel with the swap unitary")
    _add_state_flags(swap_cmp)
    _add_common_flags(swap_cmp)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--count", type=_positive_int, default=DEFAULT_SWEEP_COUNT,
                        help="number of random states in the fidelity sweep")
    verify.add_argument("--seed", type=_nonnegative_int, default=0)
    verify.add_argument("--inject-corruption", action="store_true", help=argparse.SUPPRESS)
    _add_common_flags(verify)

    dump = sub.add_parser("dump-tables", help="print the channel operators and Bell vectors")
    _add_common_flags(dump)

    return parser


_COMMANDS = {
    "teleport": cmd_teleport,
    "swap-compare": cmd_swap_compare,
    "verify": cmd_verify,
    "dump-tables": cmd_dump_tables,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The resolved amplitudes and tolerance replace their raw flag strings;
        # state errors are reported before tolerance errors.
        if args.command in ("teleport", "swap-compare"):
            args.alpha, args.beta = _resolve_amplitudes(args)
        args.tol = _resolve_tol(args)
        return _COMMANDS[args.command](args)
    except (UsageError, StateValidationError) as exc:
        _print_err(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
