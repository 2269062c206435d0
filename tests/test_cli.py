"""Command-line behavior: flags, exit codes, output formats, determinism."""

import json

import numpy as np
import pytest

from qteleport.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
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


class TestTeleportCommand:
    def test_basis_state_succeeds(self, capsys):
        assert main(["teleport", "--alpha", "1", "--beta", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fidelity" in out

    def test_component_flags_take_precedence(self, capsys):
        code = main(["teleport", "--alpha", "9", "--alpha-re", "1", "--output", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["input_state"]["alpha"] == [1, 0]

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

    def test_non_finite_amplitudes_rejected(self, capsys):
        assert main(["teleport", "--alpha", "nan", "--beta", "0"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["teleport", "--alpha-re", "nan"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["teleport", "--alpha-re", "inf", "--beta", "0"]) == EXIT_USAGE

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
