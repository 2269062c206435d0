"""JSON wire formats: schemas, round trips, 12-digit decimal printing."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BAD_COUNTS, BAD_SEEDS, identity, run_python
from qteleport import ENSEMBLE, SINGLE_SHOT
from qteleport.protocol import (
    SWAP_0_2,
    BranchSummary,
    ProtocolReport,
    SwapComparison,
    compare_swap_vs_teleport,
    kraus_set,
    run_protocol,
)
from qteleport.serialize import (
    _number,
    checks_to_json,
    comparison_to_json,
    complex_pair,
    density_from_json,
    density_to_json,
    dumps,
    ket_from_json,
    ket_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    tables_to_json,
)
from qteleport.states import DensityMatrix, QubitState, TraceNotOne, ket
from qteleport.verify import CheckResult


class TestMatrixSchema:
    def test_schema_fields(self):
        doc = matrix_to_json(np.array([[1.0, 2.0j], [0.0, -1.0]]))
        assert doc["rows"] == 2 and doc["cols"] == 2
        assert doc["entries"] == [[1, 0], [0, 2], [0, 0], [-1, 0]]

    def test_row_major_order(self):
        m = np.arange(6, dtype=float).reshape(2, 3)
        doc = matrix_to_json(m)
        assert [e[0] for e in doc["entries"]] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        # entries of modulus <= 1, like every matrix the tool emits
        rng = np.random.default_rng(seed)
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        back = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
        assert np.max(np.abs(back - m)) <= 1e-12

    def test_writes_matrices_only(self):
        with pytest.raises(ValueError, match=r"^expected a matrix, got shape \(3,\)$"):
            matrix_to_json(np.ones(3))

    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({}, "missing key 'rows'"),
            ({"rows": 1, "cols": 1}, "missing key 'entries'"),
            ({"rows": 1, "cols": 1, "entries": [[1]]}, r"entries\[0\] must be a \[re, im\] pair"),
            ({"rows": 1, "cols": 1, "entries": [["a", 0]]}, r"entries\[0\] must be a \[re, im\] pair"),
            ({"rows": 1, "cols": 1, "entries": "1,0"}, "'entries' must be a list"),
            ({"rows": "1", "cols": 1, "entries": [[1, 0]]}, "non-negative integers"),
            ([[1, 0]], "expected a JSON object"),
        ],
        ids=["empty", "no-entries", "short-pair", "non-number", "entries-not-list", "rows-not-int", "not-object"],
    )
    def test_malformed_documents_raise_value_error(self, doc, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_json(doc)

    @pytest.mark.parametrize(
        "pair",
        [["1", "0"], [True, False], [1, "0"], [10**400, 0]],
        ids=["numeric-strings", "booleans", "one-string", "int-beyond-float"],
    )
    @pytest.mark.parametrize(
        "load,doc",
        [
            (matrix_from_json, {"rows": 1, "cols": 1}),
            (density_from_json, {"kind": "density", "rows": 1, "cols": 1}),
            (ket_from_json, {"kind": "ket"}),
        ],
        ids=["matrix", "density", "ket"],
    )
    def test_parts_must_be_json_numbers(self, load, doc, pair):
        key = "amplitudes" if load is ket_from_json else "entries"
        with pytest.raises(ValueError, match=rf"{key}\[0\] must be a \[re, im\] pair of numbers"):
            load({**doc, key: [pair]})

    @pytest.mark.parametrize(
        "z",
        [True, False, float("inf"), complex(0, float("-inf")), float("nan"), 10**400, -(10**400)],
        ids=["true", "false", "inf", "imaginary-minus-inf", "nan", "int-beyond-float", "negative-int-beyond-float"],
    )
    def test_complex_pair_refuses_what_the_loaders_refuse(self, z):
        with pytest.raises(ValueError, match="^z must be a finite number within float range and not a bool, got "):
            complex_pair(z)

    @pytest.mark.parametrize(
        "z", [np.float32(0.5), np.float16(1), np.complex64(0.6 + 0.8j)], ids=["float32", "float16", "complex64"]
    )
    def test_complex_pair_writes_a_narrow_numpy_float_as_its_double(self, z):
        # the range check must not cast the largest double to float32 or float16: that overflow warns
        assert complex_pair(z) == complex_pair(complex(z))

    def test_significant_digit_rounding(self):
        assert _number(1 / 3) == 0.333333333333
        assert _number(0.25) == 0.25
        assert _number(1.0000000000000002) == 1.0

    def test_entries_are_round_sig_of_each_part_with_zeros_as_int(self):
        parts = [0.0, -0.0, 1 / 3, -2.0, 1e-300, 2.0**60, 5e-324, 1.0000000000000002]
        m = np.array([complex(re, im) for re in parts for im in parts])
        entries = matrix_to_json(m.reshape(8, 8))["entries"]
        for (re, im), z in zip(entries, m, strict=True):
            for written, x in ((re, z.real), (im, z.imag)):
                expected = float(f"{x:.12g}")
                if expected.is_integer() and abs(expected) < 2**53:
                    expected = int(expected)
                assert written == expected and type(written) is type(expected)


class TestStateTags:
    def test_density_tag(self):
        doc = density_to_json(DensityMatrix(identity(2) / 2.0))
        assert doc["kind"] == "density"
        rho = density_from_json(doc)
        assert np.max(np.abs(rho.matrix - identity(2) / 2.0)) <= 1e-12

    def test_density_from_json_validates(self):
        doc = matrix_to_json(identity(2))
        doc["kind"] = "density"
        with pytest.raises(TraceNotOne):
            density_from_json(doc)

    def test_density_kind_required(self):
        with pytest.raises(ValueError):
            density_from_json(matrix_to_json(identity(2) / 2.0))

    def test_ket_round_trip(self):
        k = ket([0.6, 0.8j])
        back = ket_from_json(json.loads(dumps(ket_to_json(k))))
        assert np.max(np.abs(back.amplitudes - k.amplitudes)) <= 1e-12

    def test_ket_kind_required(self):
        with pytest.raises(ValueError):
            ket_from_json({"amplitudes": [[1, 0]]})

    def test_loaders_refuse_each_others_kind(self):
        density = density_to_json(DensityMatrix(identity(2) / 2.0))
        k = ket_to_json(ket([0.6, 0.8j]))
        with pytest.raises(ValueError, match="^expected kind 'density', got 'ket'$"):
            density_from_json(k)
        with pytest.raises(ValueError, match="^expected kind 'ket', got 'density'$"):
            ket_from_json(density)


class TestReportDocuments:
    def test_report_key_order_fixed(self):
        report = run_protocol(QubitState(0.6, 0.8j), 1, ENSEMBLE)
        doc = report_to_json(report)
        assert list(doc.keys()) == [
            "mode",
            "seed",
            "resource_index",
            "paper_extension",
            "input_state",
            "outcome",
            "outcome_probabilities",
            "fidelity",
            "output_entropy_bits",
            "marginal_3",
            "marginal_12",
            "output_density",
        ]

    def test_report_values(self):
        report = run_protocol(QubitState(0.6, 0.8j), 2, SINGLE_SHOT, rng_seed=5)
        doc = report_to_json(report)
        assert doc["mode"] == "single-shot"
        assert doc["seed"] == 5
        assert doc["resource_index"] == 2
        assert doc["paper_extension"] is True
        assert doc["outcome"] == report.outcome
        assert doc["outcome_probabilities"] == [0.25, 0.25, 0.25, 0.25]
        assert doc["input_state"]["alpha"] == [0.6, 0]
        assert doc["marginal_3"]["kind"] == "density"

    def test_report_matrices_round_trip(self):
        report = run_protocol(QubitState(0.6, 0.8j), 1, ENSEMBLE)
        doc = json.loads(dumps(report_to_json(report)))
        for field, original in (
            ("marginal_3", report.marginal_3),
            ("marginal_12", report.marginal_12),
            ("output_density", report.output_density),
        ):
            back = matrix_from_json(doc[field])
            assert np.max(np.abs(back - original.matrix)) <= 1e-12

    def test_comparison_document(self):
        doc = comparison_to_json(compare_swap_vs_teleport(QubitState(1, 0)))
        assert set(doc.keys()) == {"input_state", "teleport", "swap"}
        assert doc["teleport"]["requires_bell_resource"] is True
        assert doc["swap"]["requires_bell_resource"] is False
        assert doc["teleport"]["entropy_12_bits"] == pytest.approx(2.0, abs=1e-9)
        assert doc["swap"]["entropy_12_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_serialization_is_deterministic(self):
        a = dumps(report_to_json(run_protocol(QubitState(0.6, 0.8j), 1, ENSEMBLE)))
        b = dumps(report_to_json(run_protocol(QubitState(0.6, 0.8j), 1, ENSEMBLE)))
        assert a == b

    def test_checks_document_reads_check_results(self):
        results = [CheckResult("a", True, "ok"), CheckResult("b", False, "off")]
        assert checks_to_json(results, 5, 2) == {
            "count": 5,
            "seed": 2,
            "passed": False,
            "checks": [
                {"name": "a", "passed": True, "detail": "ok"},
                {"name": "b", "passed": False, "detail": "off"},
            ],
        }
        assert checks_to_json(results[:1], 5, 2)["passed"] is True
        assert checks_to_json(tuple(results), 5, 2) == checks_to_json(results, 5, 2)

    @pytest.mark.parametrize(
        "results",
        [[], (), None, [SimpleNamespace(name="a", passed=True, detail="")], [CheckResult("a", True, ""), 1]],
        ids=["empty-list", "empty-tuple", "none", "namespace", "one-stray-item"],
    )
    def test_checks_document_refuses_anything_but_check_results(self, results):
        with pytest.raises(ValueError, match="^results must be a list or tuple of one or more CheckResults$"):
            checks_to_json(results, 5, 2)

    @pytest.mark.parametrize(
        "name, value",
        [("count", v) for v in BAD_COUNTS] + [("seed", v) for v in BAD_SEEDS],
    )
    def test_checks_document_refuses_what_run_checks_refuses(self, name, value):
        # the messages of run_checks, which test_protocol.py::TestRunChecksBoundary pins
        expected = "count must be a positive integer" if name == "count" else "rng_seed must be a non-negative integer"
        args = {"count": 5, "seed": 2, name: value}
        with pytest.raises(ValueError, match=f"^{expected}, got "):
            checks_to_json([CheckResult("a", True, "")], args["count"], args["seed"])

    def test_checks_document_echoes_numpy_count_and_seed_as_json_numbers(self):
        results = [CheckResult("a", True, "")]
        doc = checks_to_json(results, np.int64(5), np.uint8(2))
        assert type(doc["count"]) is int and type(doc["seed"]) is int
        assert dumps(doc) == dumps(checks_to_json(results, 5, 2))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((None, None, None), "name must be a str, got <class 'NoneType'>"),
            ((1, True, ""), "name must be a str, got <class 'int'>"),
            (("a", "no", "x"), "passed must be a bool, got <class 'str'>"),
            (("a", 1, "x"), "passed must be a bool, got <class 'int'>"),
            # numpy 2 names its bool_ "bool": the message must still tell the two apart
            (("a", np.True_, "x"), r"passed must be a bool, got <class 'numpy\.bool_?'>"),
            (("a", None, "x"), "passed must be a bool, got <class 'NoneType'>"),
            (("a", True, None), "detail must be a str, got <class 'NoneType'>"),
            (("a", True, b"x"), "detail must be a str, got <class 'bytes'>"),
        ],
    )
    def test_check_result_refuses_a_field_of_the_wrong_type(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CheckResult(*fields)

    def test_each_report_field_is_a_key_its_writer_emits(self):
        # a field that no document emits is unread; paper_extension is derived, not stored
        fields = lambda cls: {f.name for f in dataclasses.fields(cls)}
        report = report_to_json(run_protocol(QubitState(0.6, 0.8j), 2, ENSEMBLE))
        comparison = comparison_to_json(compare_swap_vs_teleport(QubitState(0.6, 0.8j)))
        assert fields(ProtocolReport) == set(report) - {"paper_extension"}
        assert fields(SwapComparison) == set(comparison)
        assert fields(BranchSummary) == set(comparison["teleport"]) == set(comparison["swap"])

    def test_tables_document_holds_the_resource_1_operators(self):
        doc = tables_to_json()
        assert list(doc) == ["a_ops", "b_ops", "swap_1_3", "bell_vectors"]
        ks = kraus_set(1)
        for key, ops in (("a_ops", ks.a_ops), ("b_ops", ks.b_ops)):
            assert all(np.array_equal(matrix_from_json(m), op) for m, op in zip(doc[key], ops, strict=True))
        assert np.array_equal(matrix_from_json(doc["swap_1_3"]), SWAP_0_2)
        assert [k["kind"] for k in doc["bell_vectors"]] == ["ket"] * 4

    def test_building_the_documents_does_not_load_the_checks_or_the_cli(self):
        proc = run_python(
            "import sys, qteleport.serialize as s; s.tables_to_json()\n"
            "print(sorted(m for m in sys.modules if m in ('qteleport.verify', 'qteleport.cli')))"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1e16, 2.0**53, 1.7976931348623157e308]),
)
_STRINGS = st.text() | st.text(alphabet='a"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600')
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    _NUMBERS,
    _STRINGS,
    st.lists(_NUMBERS),
    st.lists(st.tuples(_NUMBERS, _NUMBERS).map(list)),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children) | st.dictionaries(_STRINGS, children),
    max_leaves=30,
)


class TestDumps:
    """dumps must print exactly what json.dumps(doc, indent=2) prints."""

    @settings(deadline=None)
    @given(_DOCUMENTS)
    def test_matches_the_stdlib_byte_for_byte(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2)

    def test_real_documents_match_the_stdlib(self):
        psi = QubitState(0.6, 0.8j)
        for doc in (
            report_to_json(run_protocol(psi, 3, SINGLE_SHOT, rng_seed=4)),
            comparison_to_json(compare_swap_vs_teleport(psi)),
            matrix_to_json(np.random.default_rng(1).normal(size=(8, 8)) * 1e-7),
        ):
            assert dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [
            {"pair": (1, 2)},
            {1: "a"},
            {"x": [np.float64(0.5)]},
            [float("nan"), 1.0, float("inf"), -float("inf")],
            {"entries": [[0.5, 0], [1, True]]},
        ],
        ids=["tuple", "int-key", "numpy-scalar", "non-finite", "bool-in-pair"],
    )
    def test_other_values_fall_back_to_the_stdlib(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "value",
        [10**400, float("nan"), float("inf"), -float("inf"), True, np.float64(0.5), -0.0, 10**5000],
        ids=["int-past-double", "nan", "inf", "-inf", "bool", "numpy-float", "negative-zero", "int-past-str-limit"],
    )
    @pytest.mark.parametrize("position", [0, 1])
    def test_a_pair_list_with_an_odd_value_prints_or_fails_as_the_stdlib(self, value, position):
        pair = [0.5, 0.5]
        pair[position] = value
        doc = {"entries": [[1, 0.25], pair, [0, -1.5]]}
        try:
            expected = json.dumps(doc, indent=2)
        except ValueError as exc:
            with pytest.raises(type(exc)) as ours:
                dumps(doc)
            assert str(ours.value) == str(exc)
            return
        assert dumps(doc) == expected

    def test_a_pair_list_with_a_three_element_row_prints_as_the_stdlib(self):
        doc = {"entries": [[1, 0.25], [0.5, 0.5, 0.5], [0, -1.5]]}
        assert dumps(doc) == json.dumps(doc, indent=2)

    def test_unserializable_value_raises_the_stdlib_error(self):
        doc = {"a": [1, object()]}
        with pytest.raises(TypeError) as ours:
            dumps(doc)
        with pytest.raises(TypeError) as stdlib:
            json.dumps(doc, indent=2)
        assert str(ours.value) == str(stdlib.value)

    def test_circular_document_raises_the_stdlib_error(self):
        doc: list = [1]
        doc.append(doc)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps(doc)
