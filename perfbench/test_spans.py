"""Span recording, self time and per-layer metric emission.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def span(name, start, end, parent, count=0):
    return [name, float(start), float(end), parent, count]


def test_self_time_subtracts_direct_children_only():
    tree = [
        span("a", 0, 10, -1),
        span("b", 1, 4, 0),
        span("c", 2, 3, 1),
        span("b", 5, 6, 0),
    ]
    t = spans.totals(tree)
    assert (t["a"].calls, t["a"].s, t["a"].self_s) == (1, 10.0, 6.0)
    assert (t["b"].calls, t["b"].s, t["b"].self_s) == (2, 4.0, 3.0)
    assert t["b"].durations == [3.0, 1.0]
    assert t["c"].self_s == 1.0


def test_tracer_records_parents_counts_and_generator_steps():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda n: n * 2, count=lambda args, result: result)

    def gen(n):
        for i in range(n):
            leaf(i)
            yield i

    items = tracer.wrap_generator("step", gen)
    outer = tracer.wrap("outer", lambda: list(items(2)))
    assert outer() == [0, 1]
    names = [s[0] for s in tracer.spans]
    # one span per next(), the last one ending the generator
    assert names == ["outer", "step", "leaf", "step", "leaf", "step"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 0, 3, 0]
    assert [s[4] for s in tracer.spans if s[0] == "leaf"] == [0, 2]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer._open == []


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer._open == [] and tracer.spans[0][2] >= tracer.spans[0][1]


def synthetic_command():
    """One span of every name layer_metrics reads, with known durations."""
    return {"import_s": 0.25, "spans": [
        span("experiment.run_experiment", 0, 10, -1, 1000),
        span("experiment.seed", 1, 5, 0),
        span("experiment.seed", 5, 9, 0),
        span("data.gen_blobs", 1, 2, 1),
        span("rng.normals", 1, 1.5, 3, 1000),
        span("rng.shuffle", 2, 2.25, 1, 500),
        span("autodiff.backward", 2.5, 3, 1),
        span("autodiff.backward", 3, 3.5, 1),
        span("trainer.sgd_step", 3.5, 3.75, 1),
        span("data.load_raw", 5, 6, 2, 4096),
    ]}


def test_layer_metrics_emits_every_declared_name_and_derived_values():
    commands = [synthetic_command(), {"import_s": 0.5, "spans": []}]
    m = spans.layer_metrics(commands)
    assert set(m) | {"trace.overhead_ratio"} == declared_layers()
    assert m["rng.ns_per_normal"] == pytest.approx(0.5 / 1000 * 1e9)
    assert m["rng.ns_per_shuffled"] == pytest.approx(0.25 / 500 * 1e9)
    assert m["autodiff.us_per_backward"] == pytest.approx(0.5e6)
    assert m["data.gen_blobs.self_s"] == pytest.approx(0.5)
    assert m["data.load_raw.bytes"] == 4096
    assert m["trainer.iters"] == 1
    assert m["experiment.seeds"] == 2
    assert m["experiment.seed_s_p50"] == pytest.approx(4.0)
    assert m["experiment.seed_concurrency"] == pytest.approx(0.8)
    # run_experiment 10 - 8; first seed 4 - 1 - 0.25 - 1 - 0.25; second 4 - 1
    assert m["experiment.self_s"] == pytest.approx(2 + 1.5 + 3)
    assert m["experiment.disk_bytes"] == 1000
    assert m["cli.import_s"] == pytest.approx(0.75)
    assert m["svgplot.render.calls"] == 0 and m["svgplot.render.s"] == 0.0


def test_trace_series_adds_overhead_ratio():
    layers = spans.layer_metrics([synthetic_command()])
    samples = [run.Sample(False, 2.0, 1.0, 1.0, 1, 1),
               run.Sample(True, 3.0, 1.0, 1.0, 1, 1, layers)]
    series = run.series_of([0.1], samples, trace=True)
    assert set(series) == declared_layers()
    assert series["trace.overhead_ratio"] == [1.5]


def gaplab(workdir, trace_file, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERFBENCH_TRACE=str(trace_file))
    result = subprocess.run([sys.executable, str(HERE / "launch.py"), *args],
                            cwd=workdir, env=env, capture_output=True, text=True)
    assert result.returncode in (0, 3), result.stderr
    return spans.load(trace_file)


def test_traced_commands_reach_every_layer(tmp_path):
    """Real gaplab commands under the tracer: every binding the trace
    wraps is the one the caller uses, so every layer reports work."""
    config = {
        "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 4,
                    "spread": 1.0},
        "model": {"name": "mlp", "hidden": [8]},
        "split": {"fractions": [50, 50], "joint": True},
        "train": {"batch_size": 16, "epochs_per_task": [4, 6], "dense_tail": 5},
        "analysis": {"window": 100, "theta2_epochs": 2},
        "out_dir": "run", "seeds": [0], "checkpoints": True,
    }
    (tmp_path / "blobs.json").write_text(json.dumps(config))
    files = dict(config, out_dir="files", checkpoints=False, dataset={
        "kind": "files", "classes": 3, "shape": [3, 2, 2],
        "train_features": "data/train_features.bin", "train_labels": "data/train_labels.bin",
        "test_features": "data/test_features.bin", "test_labels": "data/test_labels.bin",
        "train_count": 96, "test_count": 24})
    (tmp_path / "files.json").write_text(json.dumps(files))

    commands = [gaplab(tmp_path, tmp_path / "0.spans", "train", "--config", "blobs.json")]
    path_rows = (tmp_path / "run/seed0/path.csv").read_text().splitlines()[1:]
    first, last = (int(row.split(",")[0]) for row in (path_rows[0], path_rows[-1]))
    ckpts = tmp_path / "run/seed0/checkpoints"
    commands += [
        gaplab(tmp_path, tmp_path / "1.spans", "gap", "--trace", "run/seed0/trace.csv"),
        gaplab(tmp_path, tmp_path / "2.spans", "lmc", "--config", "blobs.json",
               "--ckpt-a", str(next(ckpts.glob(f"*_iter{first:07d}.ckpt"))),
               "--ckpt-b", str(next(ckpts.glob(f"*_iter{last:07d}.ckpt"))),
               "--sgd-path", str(ckpts), "--out", "lmc"),
        gaplab(tmp_path, tmp_path / "3.spans", "report", "--run", "run/seed0",
               "--out", "report"),
        gaplab(tmp_path, tmp_path / "4.spans", "gen-data", "--classes", "3",
               "--per-class", "40", "--dim", "12", "--shape", "3,2,2", "--out", "data"),
        gaplab(tmp_path, tmp_path / "5.spans", "train", "--config", "files.json"),
    ]
    m = spans.layer_metrics(commands)
    assert set(m) | {"trace.overhead_ratio"} == declared_layers()
    assert [name for name, value in m.items() if not value > 0] == []
    assert m["trainer.iters"] == m["autodiff.backward.calls"] == 2 * (4 * 3 + 6 * 6)
