"""Command-line behavior: flags, exit codes, output formats, determinism."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import run_python
from qteleport import protocol
from qteleport.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _fmt_pair,
    build_parser,
    format_matrix,
    main,
    parse_complex,
)
from qteleport.serialize import matrix_from_json


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("0.6", 0.6 + 0j),
            ("0.8i", 0.8j),
            ("0.8j", 0.8j),
            ("-i", -1j),
            ("1+2i", 1 + 2j),
            ("-0.3-0.4i", -0.3 - 0.4j),
            ("1e-3i", 1e-3j),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "inf", "nan", "-inf"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0, -0.0)
    @example(-0.0, 0.0)
    @example(1e-320, -1e-320)
    @example(1e308, -1e308)
    @example(-1e308, 1e308)
    def test_a_literal_spells_every_finite_pair_bit_for_bit(self, re, im):
        # one literal reaches each finite (re, im), so the CLI needs no flag per part
        value = parse_complex(f"{re:.17g}{im:+.17g}i")
        assert value == complex(re, im)
        assert struct.pack("<dd", value.real, value.imag) == struct.pack("<dd", re, im)


class TestParser:
    def test_teleport_defaults(self):
        args = build_parser().parse_args(["teleport", "--alpha", "1"])
        assert args.command == "teleport"
        assert args.resource_index == 1
        assert args.mode == "ensemble"
        assert args.seed == 0
        assert args.output == "text"

    def test_unknown_command_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["entangle"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_mode_exits_with_usage_code(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["teleport", "--alpha", "1", "--mode", "psychic"])
        assert excinfo.value.code == EXIT_USAGE

    def test_negative_seed_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["teleport", "--alpha", "1", "--seed", "-1"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--count", "x"], "qteleport verify: error: argument --count: must be a positive integer"),
            (
                ["teleport", "--alpha", "1", "--seed", "1.5"],
                "qteleport teleport: error: argument --seed: must be a non-negative integer",
            ),
        ],
        ids=["count-x", "seed-1.5"],
    )
    def test_malformed_integer_flags_state_the_rule(self, capsys, argv, message):
        # malformed text gets the out-of-range message, which names no private function
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == message


class TestTeleportCommand:
    def test_basis_state_succeeds(self, capsys):
        assert main(["teleport", "--alpha", "1", "--beta", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fidelity" in out

    def test_reported_marginal_matches_input_projector(self, capsys):
        assert main(["teleport", "--alpha", "0.6", "--beta", "0.8i", "--output", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        marginal = matrix_from_json(doc["marginal_3"])
        expected = np.array([[0.36, -0.48j], [0.48j, 0.64]])
        assert np.max(np.abs(marginal - expected)) <= 1e-12

    def test_single_shot_runs_are_byte_identical(self, capsys):
        argv = ["teleport", "--alpha", "0.6", "--beta", "0.8i",
                "--mode", "single-shot", "--seed", "7", "--output", "json"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_missing_state_is_usage_error(self, capsys):
        assert main(["teleport"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unnormalized_state_rejected_without_flag(self, capsys):
        assert main(["teleport", "--alpha", "0.7071", "--beta", "0.7071"]) == EXIT_USAGE
        assert "--renormalize" in capsys.readouterr().err

    def test_renormalize_flag_accepts_unnormalized_state(self, capsys):
        code = main(["teleport", "--alpha", "3", "--beta", "4", "--renormalize", "--output", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["input_state"]["alpha"] == [0.6, 0]
        assert doc["fidelity"] == 1

    def test_small_truncation_is_auto_corrected(self, capsys):
        # eight-digit truncation of 1/sqrt(2) deviates by ~1e-9, inside the CLI window
        code = main(["teleport", "--alpha", "0.70710678", "--beta", "0.70710678", "--output", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["fidelity"] == 1

    def test_zero_state_rejected(self, capsys):
        assert main(["teleport", "--alpha", "0", "--beta", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            ("5e-324", "5e-324i", [[0.707106781187, 0], [0, 0.707106781187]]),
            ("1.5e308", "1.5e308", [[0.707106781187, 0], [0.707106781187, 0]]),
        ],
        ids=["subnormal", "overflowing-norm"],
    )
    def test_renormalize_accepts_finite_pairs_outside_the_normal_range(self, alpha, beta, expected, capsys):
        code = main(["teleport", "--alpha", alpha, "--beta", beta, "--renormalize", "--output", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        doc = json.loads(captured.out)
        assert [doc["input_state"]["alpha"], doc["input_state"]["beta"]] == expected
        assert doc["fidelity"] == 1

    def test_overflowing_norm_without_flag_asks_for_renormalize(self, capsys):
        assert main(["teleport", "--alpha", "1.5e308", "--beta", "1.5e308"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: input state norm inf deviates from 1 by more than 1e-06; "
            "pass --renormalize to rescale it\n"
        )

    @pytest.mark.parametrize(
        "flags, literal",
        [(["--alpha", "nan", "--beta", "0"], "nan"), (["--alpha", "inf"], "inf"), (["--beta=-inf+0i"], "-inf+0i")],
        ids=["alpha-nan", "alpha-inf", "beta-minus-inf"],
    )
    def test_non_finite_amplitudes_rejected(self, flags, literal, capsys):
        assert main(["teleport", *flags]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and repr(literal) in err

    def test_resource_choices(self, capsys):
        for j in (1, 2, 3, 4):
            assert main(["teleport", "--alpha", "1", "--resource-index", str(j)]) == EXIT_OK
            capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["teleport", "--alpha", "1", "--resource-index", "5"])

    def test_env_var_overrides_default_tol(self, capsys, monkeypatch):
        monkeypatch.setenv("QTELEPORT_TOL", "not-a-number")
        assert main(["teleport", "--alpha", "1"]) == EXIT_USAGE
        capsys.readouterr()
        monkeypatch.setenv("QTELEPORT_TOL", "0.5")
        assert main(["teleport", "--alpha", "1"]) == EXIT_OK


    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "abc"])
    def test_flag_and_env_tol_share_one_validator(self, value, capsys, monkeypatch):
        assert main(["teleport", "--alpha", "1", f"--tol={value}"]) == EXIT_USAGE
        assert "--tol" in capsys.readouterr().err
        monkeypatch.setenv("QTELEPORT_TOL", value)
        assert main(["teleport", "--alpha", "1"]) == EXIT_USAGE
        assert "QTELEPORT_TOL" in capsys.readouterr().err
        assert main(["teleport", "--alpha", "1", "--tol", "1e-6"]) == EXIT_OK

    def test_state_errors_come_before_tol_errors(self, capsys):
        assert main(["teleport", "--alpha", "abc", "--tol", "-1"]) == EXIT_USAGE
        assert "complex literal" in capsys.readouterr().err
        assert main(["swap-compare", "--tol", "-1"]) == EXIT_USAGE
        assert "input state is required" in capsys.readouterr().err
        assert main(["teleport", "--alpha", "2", "--beta", "0", "--tol", "-1"]) == EXIT_USAGE
        assert "--renormalize" in capsys.readouterr().err


STATE_ERRORS = {
    "missing": ([], "an input state is required: use --alpha and/or --beta"),
    "bad-literal": (["--alpha", "abc"], "cannot parse complex literal 'abc'"),
    "non-finite-literal": (["--alpha", "nan"], "amplitude 'nan' is not finite"),
    "zero": (["--alpha", "0", "--beta", "0"], "input amplitudes are both zero"),
    "unnormalized": (
        ["--alpha", "2", "--beta", "0"],
        "input state norm 2.000000000 deviates from 1 by more than 1e-06; pass --renormalize to rescale it",
    ),
}


class TestInputStateBoundary:
    """Every state error exits 2 with its own message, whatever the tolerance says."""

    @pytest.mark.parametrize("command", ["teleport", "swap-compare"])
    @pytest.mark.parametrize("tol", ["valid", "flag", "env"])
    @pytest.mark.parametrize("kind", list(STATE_ERRORS))
    def test_state_error_is_reported_before_any_tolerance_error(self, kind, tol, command, capsys, monkeypatch):
        flags, message = STATE_ERRORS[kind]
        if tol == "env":
            monkeypatch.setenv("QTELEPORT_TOL", "-1")
        argv = [command, *flags, *(["--tol", "-1"] if tol == "flag" else [])]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")


REMOVED_COMPONENT_FLAGS = ("--alpha-re", "--alpha-im", "--beta-re", "--beta-im")


class TestOneSpellingPerAmplitude:
    """--alpha and --beta literals are the only way to give the input state."""

    @pytest.mark.parametrize("command", ["teleport", "swap-compare"])
    @pytest.mark.parametrize("flag", REMOVED_COMPONENT_FLAGS)
    def test_a_component_flag_is_an_unrecognized_argument(self, flag, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--alpha", "1", flag, "0.6"])
        captured = capsys.readouterr()
        assert excinfo.value.code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"qteleport: error: unrecognized arguments: {flag} 0.6"

    @pytest.mark.parametrize("command", ["teleport", "swap-compare"])
    def test_help_lists_no_component_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert excinfo.value.code == EXIT_OK
        assert "--alpha ALPHA" in out and "--beta BETA" in out
        assert [flag for flag in REMOVED_COMPONENT_FLAGS if flag in out] == []


class TestSwapCompareCommand:
    def test_text_output_and_exit_code(self, capsys):
        assert main(["swap-compare", "--alpha", "0.6", "--beta", "0.8i"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[teleport]" in out and "[swap]" in out

    def test_json_schema(self, capsys):
        assert main(["swap-compare", "--alpha", "1", "--output", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["teleport"]["entropy_12_bits"] == pytest.approx(2.0, abs=1e-9)
        assert doc["swap"]["entropy_12_bits"] == pytest.approx(0.0, abs=1e-9)
        assert doc["teleport"]["fidelity_3"] == 1
        assert doc["swap"]["fidelity_3"] == 1


class TestCheckFailedExits:
    """A failed check still prints the full document; stderr gets one line and the exit code is 1.

    Valid inputs give exact results, so the failing report is substituted.
    """

    @staticmethod
    def _failed_then_passed(argv, tight_tol, loose_tol, capsys):
        """stdout and stderr of argv with tight_tol; with loose_tol it passes and prints the same stdout."""
        assert main([*argv, "--tol", tight_tol]) == EXIT_CHECK_FAILED
        failed = capsys.readouterr()
        assert main([*argv, "--tol", loose_tol]) == EXIT_OK
        assert capsys.readouterr() == (failed.out, "")
        return failed.out, failed.err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_teleport_fidelity_below_tolerance(self, output, capsys, monkeypatch):
        run = protocol.run_protocol
        monkeypatch.setattr(protocol, "run_protocol", lambda *args: dataclasses.replace(run(*args), fidelity=0.5))
        argv = ["teleport", "--alpha", "0.6", "--beta", "0.8i", "--output", output]
        out, err = self._failed_then_passed(argv, "1e-06", "0.6", capsys)
        assert err == "fidelity 0.5 fell below 1 - 1e-06\n"
        if output == "json":
            assert json.loads(out)["fidelity"] == 0.5
        else:
            assert out.startswith("mode: ensemble\n") and "full output state:\n" in out
            assert "fidelity of subsystem-3 marginal vs input: 0.5\n" in out

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_swap_compare_without_entropy_contrast(self, output, capsys, monkeypatch):
        compare = protocol.compare_swap_vs_teleport

        def no_contrast(psi):
            comparison = compare(psi)
            return dataclasses.replace(comparison, swap=dataclasses.replace(comparison.swap, entropy_12_bits=1.0))

        monkeypatch.setattr(protocol, "compare_swap_vs_teleport", no_contrast)
        argv = ["swap-compare", "--alpha", "0.6", "--beta", "0.8i", "--output", output]
        out, err = self._failed_then_passed(argv, "1e-06", "1.5", capsys)
        assert err == "marginal entropies do not show the expected teleport/swap contrast\n"
        if output == "json":
            assert json.loads(out)["swap"]["entropy_12_bits"] == 1
        else:
            assert "  marginal 1,2: purity 1, entropy 1 bits\n" in out


# Amplitudes whose outputs need all 12 significant digits.
GENERIC_STATE = ["--alpha", "0.3+0.4i", "--beta", "0.5-0.7i", "--renormalize"]


def _text_and_document(argv, capsys):
    """The text output of argv and the document that argv --output json prints."""
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert main([*argv, "--output", "json"]) == EXIT_OK
    return text, json.loads(capsys.readouterr().out)


def _fields(text):
    """The 'key: value' lines of a text output, keyed by the stripped key."""
    return dict(line.strip().split(": ", 1) for line in text.splitlines() if ": " in line)


def _cells(text):
    """Every matrix cell of a text output, in print order."""
    return [cell for line in text.splitlines() if line.startswith("  [") for cell in line[3:-1].split()]


def _pairs(doc, *keys):
    return [_fmt_pair(pair) for key in keys for pair in doc[key]["entries"]]


@pytest.mark.parametrize("rows,cols", [(0, 0), (3, 0)])
def test_format_matrix_of_a_document_with_no_entries_is_empty(rows, cols):
    doc = {"rows": rows, "cols": cols, "entries": []}
    assert matrix_from_json(doc).shape == (rows, cols)
    assert format_matrix(doc) == ""


class TestTextFollowsTheDocument:
    @pytest.mark.parametrize(
        "extra",
        [["--resource-index", "2"], ["--resource-index", "3", "--mode", "single-shot", "--seed", "3"]],
        ids=["ensemble", "single-shot"],
    )
    def test_teleport(self, extra, capsys):
        text, doc = _text_and_document(["teleport", *GENERIC_STATE, *extra], capsys)
        fields = _fields(text)
        state = doc["input_state"]
        assert fields["input state"] == f"alpha = {_fmt_pair(state['alpha'])}, beta = {_fmt_pair(state['beta'])}"
        assert fields["measurement outcome"] == ("-" if doc["outcome"] is None else str(doc["outcome"]))
        assert fields["outcome probabilities"] == ", ".join(map(str, doc["outcome_probabilities"]))
        assert fields["fidelity of subsystem-3 marginal vs input"] == str(doc["fidelity"])
        assert fields["output entropy"] == f"{doc['output_entropy_bits']} bits"
        assert _cells(text) == _pairs(doc, "marginal_3", "marginal_12", "output_density")

    def test_swap_compare(self, capsys):
        text, doc = _text_and_document(["swap-compare", *GENERIC_STATE], capsys)
        head, swap = text.split("[swap]\n")
        for part, branch in ((head, doc["teleport"]), (swap, doc["swap"])):
            fields = _fields(part)
            assert fields["marginal 1,2"] == f"purity {branch['purity_12']}, entropy {branch['entropy_12_bits']} bits"
            assert fields["marginal 3"] == (
                f"purity {branch['purity_3']}, entropy {branch['entropy_3_bits']} bits, "
                f"fidelity vs input {branch['fidelity_3']}"
            )
            assert _cells(part) == _pairs(branch, "marginal_12")
        state = doc["input_state"]
        assert _fields(head)["input state"] == f"alpha = {_fmt_pair(state['alpha'])}, beta = {_fmt_pair(state['beta'])}"


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--count", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS random_state_fidelity: 10 random states" in out
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        assert main(["verify", "--count", "5", "--output", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} >= {
            "operator_table_match",
            "kraus_completeness",
            "projector_rank",
            "bell_orthonormality",
            "random_state_fidelity",
        }

    def test_negative_control_fails_with_exit_1(self, capsys):
        assert main(["verify", "--count", "5", "--inject-corruption"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert "FAIL kraus_completeness" in captured.out
        assert "first failing check" in captured.err


class TestDumpTablesCommand:
    def test_bad_env_tol_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QTELEPORT_TOL", "abc")
        assert main(["dump-tables"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "QTELEPORT_TOL" in captured.err

    def test_text_output_shows_signed_entries(self, capsys):
        assert main(["dump-tables"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "A^3:" in out
        a3_block = out.split("A^3:")[1].split("A^4:")[0]
        rows = [r.strip().strip("[]").split() for r in a3_block.strip().splitlines()]
        assert rows[0][6] == "-1"  # entry (0,6)
        assert rows[6][0] == "-1"  # entry (6,0)

    def test_json_output_contains_all_operators(self, capsys):
        assert main(["dump-tables", "--output", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["a_ops"]) == 4 and len(doc["b_ops"]) == 4
        assert all(m["rows"] == 8 for m in doc["a_ops"] + doc["b_ops"])
        assert doc["swap_1_3"]["rows"] == 8
        assert len(doc["bell_vectors"]) == 4

    def test_runs_are_identical(self, capsys):
        assert main(["dump-tables", "--output", "json"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["dump-tables", "--output", "json"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_integer_entries_have_no_decimal_point(self, capsys):
        assert main(["dump-tables"]) == EXIT_OK
        out = capsys.readouterr().out
        a_and_b = out.split("SWAP_1_3:")[0]
        assert "." not in a_and_b

    def test_dumped_operators_round_trip_exactly(self, capsys):
        from qteleport.reference import A_OPS_REFERENCE, B_OPS_REFERENCE, SWAP_0_2_REFERENCE

        assert main(["dump-tables", "--output", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for dumped, golden in zip(doc["a_ops"], A_OPS_REFERENCE):
            assert np.array_equal(matrix_from_json(dumped), golden)
        for dumped, golden in zip(doc["b_ops"], B_OPS_REFERENCE):
            assert np.array_equal(matrix_from_json(dumped), golden)
        assert np.array_equal(matrix_from_json(doc["swap_1_3"]), SWAP_0_2_REFERENCE)


# Runs the CLI as `python -m qteleport.cli` does, then reports on the last
# line of stderr whether numpy was imported.
_COLD_CLI = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'numpy imported: {\"numpy\" in sys.modules}\\n'))\n"
    "runpy.run_module('qteleport.cli', run_name='__main__', alter_sys=True)\n"
)


def _run_cold(*argv: str, **env: str) -> tuple[int, str, str, str]:
    """(exit code, stdout, stderr, numpy-imported marker) of one CLI process."""
    proc = run_python(_COLD_CLI, *argv, **env)
    err, marker = proc.stderr.rsplit("numpy imported: ", 1)
    return proc.returncode, proc.stdout, err, marker.strip()


class TestColdStart:
    """Parsing and usage errors never import numpy; each command does once it computes."""

    @pytest.mark.parametrize("module", ["qteleport", "qteleport.cli"])
    def test_import_does_not_load_numpy(self, module):
        proc = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_reading_the_roots_own_names_loads_no_numpy(self):
        proc = run_python(
            "import importlib.util, sys, qteleport\n"
            "qteleport.StateValidationError, qteleport.MODES, qteleport.RESOURCE_INDICES\n"
            "qteleport.DEFAULT_TOL, qteleport.DEFAULT_SWEEP_COUNT\n"
            "print('numpy' in sys.modules, importlib.util.find_spec('qteleport.base'))"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False None\n", "")

    def test_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err, numpy_loaded = _run_cold("--help")
        assert (code, out, err, numpy_loaded) == (EXIT_OK, build_parser().format_help(), "", "False")

    def test_argparse_usage_error(self):
        code, out, err, numpy_loaded = _run_cold("teleport", "--resource-index", "5")
        assert (code, out, numpy_loaded) == (EXIT_USAGE, "", "False")
        assert err.startswith("usage: qteleport teleport [-h]")
        assert err.splitlines()[-1] == (
            "qteleport teleport: error: argument --resource-index: invalid choice: 5 (choose from 1, 2, 3, 4)"
        )

    def test_verify_count_usage_error(self):
        code, out, err, numpy_loaded = _run_cold("verify", "--count", "0")
        assert (code, out, numpy_loaded) == (EXIT_USAGE, "", "False")
        assert err.startswith("usage: qteleport verify [-h]")
        assert err.splitlines()[-1] == "qteleport verify: error: argument --count: must be a positive integer"

    def test_state_usage_error(self):
        assert _run_cold("teleport", "--alpha=0.6", "--beta=0.6") == (
            EXIT_USAGE,
            "",
            "error: input state norm 0.848528137 deviates from 1 by more than 1e-06; "
            "pass --renormalize to rescale it\n",
            "False",
        )

    def test_state_usage_error_comes_before_a_bad_tolerance(self):
        message = (
            "error: input state norm 0.848528137 deviates from 1 by more than 1e-06; "
            "pass --renormalize to rescale it\n"
        )
        for extra, env in ((["--tol=-1"], {}), ([], {"QTELEPORT_TOL": "-1"})):
            cold = _run_cold("teleport", "--alpha=0.6", "--beta=0.6", *extra, **env)
            assert cold == (EXIT_USAGE, "", message, "False")

    def test_tolerance_usage_error(self):
        assert _run_cold("dump-tables", QTELEPORT_TOL="abc") == (
            EXIT_USAGE,
            "",
            "error: QTELEPORT_TOL must be a number, got 'abc'\n",
            "False",
        )

    def test_a_computing_command_loads_numpy(self):
        code, out, err, numpy_loaded = _run_cold("teleport", "--alpha", "1", "--output", "json")
        assert (code, err, numpy_loaded) == (EXIT_OK, "", "True")
        assert json.loads(out)["fidelity"] == 1
