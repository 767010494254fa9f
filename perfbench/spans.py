"""Spans around calls into gaplab, recorded from outside the package.

A span is one call: its name, its start and end (`perf_counter`
seconds), the index of the span that was open when it started (-1 at
the top) and one work count whose meaning depends on the span (draws,
elements, bytes or points). Spans are kept in memory and written out
once, when the traced command ends; `layer_metrics` turns the spans of
every command of one pass into the per-layer metrics.

gaplab modules bind each other's functions with `from .x import y`, so a
function is wrapped at every module that calls it through its own
name, not only where it is defined.
"""

from __future__ import annotations

import importlib
import marshal
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _path_bytes(index):
    return lambda args, result: os.path.getsize(args[index])


def _ckpt_bytes(args, result):
    store = args[0]
    return os.path.getsize(store.directory / f"{result}.ckpt")


def _raw_bytes(args, result):
    return os.path.getsize(args[0]) + os.path.getsize(args[1])


def _tree_bytes(args, result):
    return sum(p.stat().st_size for p in Path(result).rglob("*") if p.is_file())


# (module, attribute, span name, work count or None). Each entry is a
# module-level name that a caller inside gaplab looks up at call time.
FUNCTIONS = [
    ("gaplab.trainer", "backward", "autodiff.backward", None),
    ("gaplab.trainer", "sgd_step", "trainer.sgd_step", None),
    ("gaplab.trainer", "train_task", "trainer.train_task", None),
    ("gaplab.trainer", "load_checkpoint", "trainer.ckpt_load", _path_bytes(0)),
    ("gaplab.autodiff", "softmax_cross_entropy", "autodiff.softmax_cross_entropy", None),
    ("gaplab.instrument", "forward", "autodiff.forward", None),
    ("gaplab.instrument", "softmax_cross_entropy", "autodiff.softmax_cross_entropy", None),
    ("gaplab.instrument", "accuracy", "autodiff.accuracy", None),
    ("gaplab.connectivity", "eval_test", "connectivity.eval_test", None),
    ("gaplab.experiment", "run_single_seed", "experiment.seed", None),
    ("gaplab.experiment", "run_sequence", "trainer.run_sequence", None),
    ("gaplab.experiment", "gen_blobs", "data.gen_blobs", None),
    ("gaplab.experiment", "load_raw", "data.load_raw", _raw_bytes),
    ("gaplab.experiment", "split_tasks", "data.split_tasks", None),
    ("gaplab.experiment", "write_trace_csv", "instrument.trace_write", _path_bytes(0)),
    ("gaplab.experiment", "compute_gap", "instrument.compute_gap", None),
    ("gaplab.experiment", "lmc_curve", "connectivity.lmc_curve",
     lambda args, result: len(result.lambdas)),
    ("gaplab.experiment", "sgd_path_loss", "connectivity.sgd_path_loss",
     lambda args, result: len(result.iterations)),
    ("gaplab.experiment", "write_lmc_csv", "connectivity.csv_write", None),
    ("gaplab.experiment", "write_path_csv", "connectivity.csv_write", None),
    ("gaplab.cli", "run_experiment", "experiment.run_experiment", _tree_bytes),
    ("gaplab.cli", "gen_blobs", "data.gen_blobs", None),
    ("gaplab.cli", "load_checkpoint", "trainer.ckpt_load", _path_bytes(0)),
    ("gaplab.cli", "read_trace_csv", "instrument.trace_read", None),
    ("gaplab.cli", "compute_gap", "instrument.compute_gap", None),
    ("gaplab.cli", "lmc_curve", "connectivity.lmc_curve",
     lambda args, result: len(result.lambdas)),
    ("gaplab.cli", "sgd_path_loss", "connectivity.sgd_path_loss",
     lambda args, result: len(result.iterations)),
    ("gaplab.cli", "write_lmc_csv", "connectivity.csv_write", None),
    ("gaplab.cli", "write_path_csv", "connectivity.csv_write", None),
    ("gaplab.cli", "read_lmc_csv", "connectivity.csv_read", None),
    ("gaplab.cli", "read_path_csv", "connectivity.csv_read", None),
]

# Generator functions: one span per next() call on the generator.
GENERATORS = [
    ("gaplab.trainer", "batch_iter", "data.batch_iter"),
]

# (module, class, method, span name, work count or None)
METHODS = [
    ("gaplab.rng", "Rng", "normals", "rng.normals", lambda args, result: args[1]),
    ("gaplab.rng", "Rng", "shuffle", "rng.shuffle", lambda args, result: len(args[1])),
    ("gaplab.trainer", "CheckpointStore", "save", "trainer.ckpt_save", _ckpt_bytes),
    ("gaplab.instrument", "TraceRecorder", "on_post_update", "instrument.probe", None),
    ("gaplab.instrument", "TraceRecorder", "on_eval", "instrument.eval_test", None),
    ("gaplab.svgplot", "LinePlot", "render", "svgplot.render",
     lambda args, result: len(result.encode())),
]

# (module, class, classmethod, span name)
CLASSMETHODS = [
    ("gaplab.config", "ExperimentConfig", "from_file", "config.load"),
]


class Tracer:
    """In-memory span list of one process; single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, count]
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span[4] = count(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        done = object()

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = self.begin(name)
                try:
                    item = next(items, done)
                finally:
                    self.end(span)
                if item is done:
                    return
                yield item
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding listed above with a traced wrapper."""
        for module, attr, name, count in FUNCTIONS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
        for module, attr, name in GENERATORS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap_generator(name, getattr(mod, attr)))
        for module, cls_name, attr, name, count in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))
        for module, cls_name, attr, name in CLASSMETHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, classmethod(self.wrap(name, cls.__dict__[attr].__func__)))

    def dump(self, path: str | Path, import_s: float) -> None:
        with open(path, "wb") as fh:
            marshal.dump({"import_s": import_s, "spans": self.spans}, fh)


def load(path: str | Path) -> dict:
    """A span file written by `Tracer.dump` of this benchmark."""
    with open(path, "rb") as fh:
        return marshal.load(fh)


class _Totals:
    __slots__ = ("calls", "s", "self_s", "count", "durations")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.durations: list[float] = []


def totals(spans: list) -> dict[str, _Totals]:
    """Per span name: calls, inclusive and self seconds, summed work count
    and every duration. Self time is the span's duration minus that of its
    direct children, which never overlap in one thread."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, _Totals] = defaultdict(_Totals)
    for (name, start, end, _, count), child_s in zip(spans, covered):
        t = out[name]
        t.calls += 1
        t.s += end - start
        t.self_s += end - start - child_s
        t.count += count
        t.durations.append(end - start)
    return out


def _merge(commands: list[dict]) -> tuple[dict[str, _Totals], float]:
    merged: dict[str, _Totals] = defaultdict(_Totals)
    import_s = 0.0
    for command in commands:
        import_s += command["import_s"]
        for name, t in totals(command["spans"]).items():
            m = merged[name]
            m.calls += t.calls
            m.s += t.s
            m.self_s += t.self_s
            m.count += t.count
            m.durations.extend(t.durations)
    return merged, import_s


def _per(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(commands: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the span files of its commands.

    A layer the pass never entered reports 0.
    """
    t, import_s = _merge(commands)
    normals, shuffle = t["rng.normals"], t["rng.shuffle"]
    backward = t["autodiff.backward"]
    seeds, runs = t["experiment.seed"], t["experiment.run_experiment"]
    m = {
        "rng.normals.calls": normals.calls,
        "rng.normals.draws": normals.count,
        "rng.normals.s": normals.s,
        "rng.ns_per_normal": _per(normals.s, normals.count, 1e9),
        "rng.shuffle.calls": shuffle.calls,
        "rng.shuffle.elems": shuffle.count,
        "rng.shuffle.s": shuffle.s,
        "rng.ns_per_shuffled": _per(shuffle.s, shuffle.count, 1e9),
        "data.gen_blobs.self_s": t["data.gen_blobs"].self_s,
        "data.load_raw.s": t["data.load_raw"].s,
        "data.load_raw.bytes": t["data.load_raw"].count,
        "data.split_tasks.s": t["data.split_tasks"].s,
        "data.batch_iter.s": t["data.batch_iter"].s,
    }
    for fn in ("backward", "forward", "softmax_cross_entropy", "accuracy"):
        m[f"autodiff.{fn}.calls"] = t[f"autodiff.{fn}"].calls
        m[f"autodiff.{fn}.s"] = t[f"autodiff.{fn}"].s
    m["autodiff.us_per_backward"] = _per(backward.s, backward.calls, 1e6)
    m["trainer.iters"] = t["trainer.sgd_step"].calls
    m["trainer.train_task.self_s"] = t["trainer.train_task"].self_s
    m["trainer.sgd_step.calls"] = t["trainer.sgd_step"].calls
    m["trainer.sgd_step.s"] = t["trainer.sgd_step"].s
    for op in ("ckpt_save", "ckpt_load"):
        m[f"trainer.{op}.calls"] = t[f"trainer.{op}"].calls
        m[f"trainer.{op}.s"] = t[f"trainer.{op}"].s
        m[f"trainer.{op}.bytes"] = t[f"trainer.{op}"].count
    for op in ("eval_test", "probe"):
        m[f"instrument.{op}.calls"] = t[f"instrument.{op}"].calls
        m[f"instrument.{op}.s"] = t[f"instrument.{op}"].s
    m["instrument.trace_write.s"] = t["instrument.trace_write"].s
    m["instrument.trace_write.bytes"] = t["instrument.trace_write"].count
    m["instrument.trace_read.s"] = t["instrument.trace_read"].s
    m["instrument.compute_gap.s"] = t["instrument.compute_gap"].s
    for op in ("lmc_curve", "sgd_path_loss"):
        m[f"connectivity.{op}.s"] = t[f"connectivity.{op}"].s
        m[f"connectivity.{op}.points"] = t[f"connectivity.{op}"].count
    m["connectivity.eval_test.calls"] = t["connectivity.eval_test"].calls
    m["connectivity.eval_test.s"] = t["connectivity.eval_test"].s
    m["connectivity.csv_write.s"] = t["connectivity.csv_write"].s
    m["connectivity.csv_read.s"] = t["connectivity.csv_read"].s
    m["experiment.seeds"] = seeds.calls
    m["experiment.seed_s_p50"] = (
        statistics.median(seeds.durations) if seeds.durations else 0.0)
    m["experiment.seed_concurrency"] = _per(seeds.s, runs.s, 1.0)
    m["experiment.self_s"] = seeds.self_s + runs.self_s
    m["experiment.disk_bytes"] = runs.count
    m["cli.import_s"] = import_s
    m["config.load.s"] = t["config.load"].s
    m["svgplot.render.calls"] = t["svgplot.render"].calls
    m["svgplot.render.s"] = t["svgplot.render"].s
    m["svgplot.render.bytes"] = t["svgplot.render"].count
    return m
