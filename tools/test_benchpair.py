"""tools/benchpair.py: the aggregation and gain gate on synthetic runs, and
one HEAD-against-HEAD pair of the real benchmark.

    python3 -m pytest tools -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benchpair

DECLARED = [
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def runs_of(base: list[float], head: list[float], metric="cpu_s") -> list[dict]:
    """Alternating runs whose `metric` takes the given values, pair by pair."""
    runs = []
    for pair, (b, h) in enumerate(zip(base, head)):
        sides = [("base", b), ("head", h)]
        for side, value in sides if pair % 2 == 0 else sides[::-1]:
            runs.append({"pair": pair, "side": side, "correct": True,
                         "metrics": {metric: value}})
    return runs


def gate(base, head, metric="cpu_s"):
    return benchpair.summarize(runs_of(base, head, metric), DECLARED)[metric]["gain_gate"]


BASE = [5.0, 5.2, 5.1, 5.4, 5.3, 5.0, 5.6, 5.2, 5.1, 5.5]


def test_medians_quartiles_and_wins():
    head = [v - 0.4 for v in BASE]
    head[3] = BASE[3]      # a tie counts for neither side
    head[6] = BASE[6] + 1  # a loss
    summary = benchpair.summarize(runs_of(BASE, head), DECLARED)
    assert list(summary) == ["cpu_s"]  # no run has iters_per_s
    s = summary["cpu_s"]
    assert s["base"] == pytest.approx({"q1": 5.1, "median": 5.2, "q3": 5.375})
    assert s["head"]["median"] == pytest.approx(4.8)
    assert s["wins"] == {"head": 8, "base": 1, "ties": 1}
    assert s["relative_change"] == pytest.approx(-0.4 / 5.2) and s["within_bound"]
    # 8 wins of 10 counted pairs is under nine tenths
    assert s["gain_gate"] == {"pairs": 10, "median_gain": pytest.approx(0.4),
                              "base_iqr": pytest.approx(0.275), "passed": False}


def test_gate_needs_nine_tenths_of_ten_pairs_and_a_gain_past_the_spread():
    assert gate(BASE, [v - 0.4 for v in BASE])["passed"]
    head = [v - 0.4 for v in BASE]
    head[0] = BASE[0] + 0.1  # 9 wins of 10 still pass
    assert gate(BASE, head)["passed"]
    # every pair won, but by less than the base's quartile spread
    assert not gate(BASE, [v - 0.01 for v in BASE])["passed"]
    # fewer than ten pairs never pass
    assert not gate(BASE[:9], [v - 1 for v in BASE[:9]])["passed"]


def test_higher_is_better_and_the_bound():
    base = [100.0 + i for i in range(10)]
    s = benchpair.summarize(runs_of(base, [v * 0.7 for v in base], "iters_per_s"),
                            DECLARED)["iters_per_s"]
    assert s["wins"] == {"head": 0, "base": 10, "ties": 0}
    assert s["relative_change"] == pytest.approx(-0.3) and not s["within_bound"]
    assert not s["gain_gate"]["passed"]
    assert s["gain_gate"]["median_gain"] == pytest.approx(-0.3 * 104.5)
    s = benchpair.summarize(runs_of(base, [v * 0.8 for v in base], "iters_per_s"),
                            DECLARED)["iters_per_s"]
    assert s["within_bound"]
    assert gate(base, [v + 10 for v in base], "iters_per_s")["passed"]


def test_a_pair_with_an_incorrect_run_is_won_by_neither_side_but_counts():
    runs = runs_of(BASE, [v - 0.4 for v in BASE])
    assert runs[0]["side"] == "base"
    runs[0]["correct"] = False
    s = benchpair.summarize(runs, DECLARED)["cpu_s"]
    assert s["wins"]["head"] == 9 and s["gain_gate"]["pairs"] == 10
    assert s["gain_gate"]["passed"]  # nine tenths of ten pairs
    assert benchpair.summarize([], DECLARED) == {}


def test_an_incorrect_head_run_fails_the_gate():
    # 10 of 11 pairs won is past nine tenths, but one head run is incorrect
    base = BASE + [5.3]
    runs = runs_of(base, [v - 0.4 for v in base])
    (last_head,) = [r for r in runs if r["pair"] == 10 and r["side"] == "head"]
    last_head["correct"] = False
    s = benchpair.summarize(runs, DECLARED)["cpu_s"]
    assert s["wins"]["head"] == 10 and s["gain_gate"]["pairs"] == 11
    assert not s["gain_gate"]["passed"]


def test_more_failed_operations_on_the_head_fail_the_gate():
    runs = runs_of(BASE, [v - 0.4 for v in BASE])
    for r in runs:
        r["failed"] = 0
    assert benchpair.summarize(runs, DECLARED)["cpu_s"]["gain_gate"]["passed"]
    head_run, base_run = runs[1], runs[0]
    assert (head_run["side"], base_run["side"]) == ("head", "base")
    head_run["failed"] = 1
    s = benchpair.summarize(runs, DECLARED)["cpu_s"]
    assert s["wins"]["head"] == 10 and not s["gain_gate"]["passed"]
    base_run["failed"] = 1  # as many on the base
    assert benchpair.summarize(runs, DECLARED)["cpu_s"]["gain_gate"]["passed"]


TINY_RUN = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 10, "dim": 4},
    "model": {"name": "mlp", "hidden": [4]},
    "train": {"epochs_per_task": [1, 1]},
    "out_dir": "run", "checkpoints": False,
}


def test_cpu_paths_are_those_a_run_of_the_tree_records(tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_RUN))
    done = subprocess.run(
        [sys.executable, "-m", "gaplab.cli", "train", "--config", "cfg.json"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(benchpair.ROOT / "src")),
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    versions = json.loads((tmp_path / "run" / "manifest.json").read_text())["versions"]
    paths = benchpair.cpu_paths(benchpair.ROOT)
    assert set(paths) == {"openblas_core", "openblas_config",
                          "numpy_exp_float64", "numpy_log_float64"}
    assert paths == {key: versions[key] for key in paths}
    assert benchpair.cpu_paths(tmp_path) is None  # no gaplab there
    if paths["openblas_core"] is not None:  # the runs' environment counts
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Sandybridge")
        assert benchpair.cpu_paths(benchpair.ROOT)["openblas_core"] == "Sandybridge"


def test_head_against_head_on_cnn_files(tmp_path):
    # the record is written to the current directory
    done = subprocess.run(
        [sys.executable, str(Path(benchpair.__file__)), "--base", "HEAD", "--head", "HEAD",
         "--workload", "cnn-files", "--pairs", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    (path,) = tmp_path.glob("BENCH_cnn-files_*.json")
    record = json.loads(path.read_text())
    head = benchpair.git("rev-parse", "HEAD")
    assert record["base"]["rev"] == record["head"]["rev"] == head
    assert record["machine"]["cpu_paths"] == benchpair.cpu_paths(benchpair.ROOT)
    assert path.name == f"BENCH_cnn-files_{record['head']['short']}.json"
    assert [(r["pair"], r["side"], r["correct"]) for r in record["runs"]] == [
        (0, "base", True), (0, "head", True)]
    declared_seconds = json.loads((benchpair.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert record["seconds"] == declared_seconds
    declared = json.loads((benchpair.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(record["summary"]) == [m["name"] for m in declared]
    assert not any(s["gain_gate"]["passed"] for s in record["summary"].values())
    assert not (benchpair.WORK / head[:12]).exists()  # the unpacked tree is gone
