"""The paired A/B runner's statistics, pairing and environment record, on fixed inputs (no benchmark runs)."""

import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab  # noqa: E402

BASE = [100.0, 104.0, 98.0, 101.0, 97.0, 103.0, 99.0, 102.0, 100.0, 96.0]


def test_quartiles_and_median_are_those_of_bench_repeat():
    result = ab.compare(BASE, [x + 1 for x in BASE], "higher", 0.25)
    # statistics.quantiles(BASE, n=4), the exclusive method: sorted 96 97 98 99 100 100 101 102 103 104
    assert result["base"] == {"median": 100.0, "q1": 97.75, "q3": 102.25, "spread": 0.045}
    assert result["head"]["median"] == 101.0
    assert result["base_iqr"] == 4.5


def test_a_gain_on_every_pair_beyond_the_base_spread_is_better():
    result = ab.compare(BASE, [x * 1.1 for x in BASE], "higher", 0.25)
    assert result["head_wins"] == 10
    assert result["gain"] == pytest.approx(10.0)
    assert result["relative_gain"] == pytest.approx(0.1)
    assert result["verdict"] == "better"


def test_lower_is_better_for_a_latency():
    result = ab.compare(BASE, [x * 0.9 for x in BASE], "lower", 0.25)
    assert result["head_wins"] == 10
    assert result["gain"] == pytest.approx(10.0)
    assert result["verdict"] == "better"


def test_a_gain_within_the_base_spread_is_not_claimed():
    result = ab.compare(BASE, [x + 2 for x in BASE], "higher", 0.25)
    assert result["head_wins"] == 10
    assert result["verdict"] == "within bound"


def test_eight_wins_in_ten_are_too_few():
    head = [x * 1.2 for x in BASE[:8]] + [x * 0.99 for x in BASE[8:]]
    result = ab.compare(BASE, head, "higher", 0.25)
    assert result["head_wins"] == 8
    assert result["gain"] > result["base_iqr"]
    assert result["verdict"] == "within bound"


def test_ties_win_nothing():
    result = ab.compare(BASE, BASE, "higher", 0.25)
    assert result["head_wins"] == 0
    assert result["gain"] == 0.0
    assert result["verdict"] == "within bound"


@pytest.mark.parametrize("better, factor", [("higher", 0.7), ("lower", 1.3)])
def test_a_loss_beyond_the_bound_is_worse(better, factor):
    result = ab.compare(BASE, [x * factor for x in BASE], better, 0.25)
    assert result["relative_gain"] == pytest.approx(-0.3)
    assert result["verdict"] == "worse"


def test_a_loss_within_the_bound_is_within_bound():
    result = ab.compare(BASE, [x * 0.8 for x in BASE], "higher", 0.25)
    assert result["head_wins"] == 0
    assert result["verdict"] == "within bound"


def test_a_zero_base_median_is_measured_without_dividing_by_it():
    assert ab.compare([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.1)["relative_gain"] == 0.0
    assert ab.compare([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower", 0.1)["verdict"] == "worse"


def test_a_base_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    assert ab.compare(BASE, [x - 1 for x in BASE], "higher", 0.01)["verdict"] == "unresolved"
    # unless every head run reads better than every base run
    wide = [0.0] * 5 + [10.0] * 5
    result = ab.compare(wide, [10.5] * 10, "higher", 0.25)
    assert result["base"]["spread"] > 0.25 and result["gain"] < result["base_iqr"]
    assert result["verdict"] == "within bound"


@pytest.mark.parametrize("base, head", [([1.0], [1.0]), ([1.0, 2.0], [1.0])], ids=["one-pair", "unpaired"])
def test_fewer_than_two_pairs_are_refused(base, head):
    with pytest.raises(ValueError, match="two or more pairs"):
        ab.compare(base, head, "higher", 0.25)


def test_pairs_alternate_which_tree_runs_first_and_share_a_seed(monkeypatch, capsys, tmp_path):
    calls = []
    spec = json.loads((Path(ab.ROOT) / "BENCHMARK.json").read_text())

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        value = 2.0 if tree.name == "head" else 1.0
        return {"correct": True, "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main(["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                    "--workload", "sweep", "--pairs", "3", "--seconds", "1", "--seed", "7"]) == 0
    assert calls == [("base", 7), ("head", 7), ("head", 8), ("base", 8), ("base", 9), ("head", 9)]
    doc = json.loads(capsys.readouterr().out)
    assert doc["seeds"] == [7, 8, 9]
    assert [r["first"] for r in doc["runs"]] == ["base", "head", "base"]
    assert set(doc["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert doc["metrics"]["ops_per_s"]["head_wins"] == 3
    assert doc["metrics"]["ops_per_s"]["verdict"] == "better"
    assert doc["metrics"]["op_p50_ms"]["verdict"] == "worse"


def test_a_run_that_fails_its_checker_fails_the_comparison(monkeypatch, capsys, tmp_path):
    spec = json.loads((Path(ab.ROOT) / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    monkeypatch.setattr(ab, "run_once", lambda tree, *args: {"correct": tree.name == "base", "metrics": metrics})
    assert ab.main(["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                    "--workload", "sweep", "--pairs", "2", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["all_correct"] is False


ENVIRONMENT_KEYS = {"cpu_model", "blas", "openblas_coretype", "pythondontwritebytecode", "python", "numpy",
                    "git_head", "git_dirty"}


def test_the_document_names_the_environment_of_both_trees(monkeypatch, capsys, tmp_path):
    spec = json.loads((Path(ab.ROOT) / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    monkeypatch.setattr(ab, "run_once", lambda *args: {"correct": True, "metrics": metrics})
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert ab.main(["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                    "--workload", "sweep", "--pairs", "2", "--seconds", "1"]) == 0
    env = json.loads(capsys.readouterr().out)["environment"]
    assert set(env) == ENVIRONMENT_KEYS
    assert env["openblas_coretype"] == "Prescott" and env["pythondontwritebytecode"] is None
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert isinstance(env["cpu_model"], str) and env["cpu_model"]
    assert env["blas"] is None or isinstance(env["blas"], str)
    # neither tree is a git checkout
    assert env["git_head"] == env["git_dirty"] == {"base": None, "head": None}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_each_tree_reports_its_commit_and_whether_it_has_changes(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    clean = ab.environment({"head": tmp_path})
    assert clean["git_head"] == {"head": git("rev-parse", "HEAD")}
    assert clean["git_dirty"] == {"head": False}
    (tmp_path / "a.txt").write_text("b\n")
    assert ab.environment({"head": tmp_path})["git_dirty"] == {"head": True}
