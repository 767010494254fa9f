"""End-to-end experiment runner: dataset, model, training, measurement
and artifact files for one configuration over a list of seeds.

Run directory layout (one subdirectory per seed):

    out/
      config.json      canonicalized input configuration
      manifest.json    config hash, artifact list, versions, creation time
      gap.txt          per-seed and median gap metrics (multi-task runs)
      seed<k>/
        trace.csv      one row per training iteration
        gap.txt        gap metrics for the first task boundary
        checkpoints/   binary parameter snapshots (when enabled)
        lmc.csv        linear interpolation curve theta1 -> theta2
        path.csv       test loss along the SGD trajectory checkpoints
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import DatasetConfig, ExperimentConfig, RunManifest, canonical_json
from .config import build_model_spec  # noqa: F401  (still importable from here)
from .connectivity import lmc_curve, sgd_path_loss, write_lmc_csv, write_path_csv
from .data import Dataset, gen_blobs, load_raw, split_tasks
from .errors import GapLabError, InsufficientTraceError
from .instrument import (GapMetrics, TraceRecorder, TrainTrace, compute_gap,
                         format_gap_doc, format_gap_docs, write_trace_csv)
from .rng import derive_seed
from .trainer import SPLIT_STREAM, CheckpointStore, run_sequence, task_lengths

# stream ids 0..2 are taken by the trainer (init, batches, splits)
DATA_STREAM = 3


def build_dataset(cfg: DatasetConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Train and test sets, either generated or loaded from raw files."""
    if cfg.kind == "blobs":
        return gen_blobs(
            seed=derive_seed(seed, DATA_STREAM),
            n_classes=cfg.classes,
            n_per_class=cfg.per_class,
            dim=cfg.dim,
            spread=cfg.spread,
            shape=cfg.shape,
        )
    train = load_raw(cfg.train_features, cfg.train_labels, cfg.shape,
                     cfg.train_count, cfg.classes)
    test = load_raw(cfg.test_features, cfg.test_labels, cfg.shape,
                    cfg.test_count, cfg.classes)
    return train, test


@dataclass
class SeedRunResult:
    seed: int
    run_dir: Path
    trace: TrainTrace
    boundaries: list[int]
    gap: GapMetrics | None


def run_single_seed(cfg: ExperimentConfig, seed: int, run_dir: Path) -> SeedRunResult:
    """One full training run plus measurement artifacts.

    The seed directory is owned by the runner and is recreated from
    scratch, so stale artifacts from earlier runs cannot leak in.
    """
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    train, test = build_dataset(cfg.dataset, seed)
    spec = cfg.model_spec
    task_seq = split_tasks(
        train,
        fractions=cfg.split.fractions,
        joint=cfg.split.joint,
        seed=derive_seed(seed, SPLIT_STREAM),
        stratified=cfg.split.stratified,
    )
    train_cfg = replace(cfg.train, seed=seed)
    lengths = task_lengths(task_seq, train_cfg)
    boundaries = list(accumulate(lengths))

    # theta2: `theta2_epochs` epochs into the second task, if it runs that long
    theta2_iteration = None
    if task_seq.n_tasks >= 2 and cfg.analysis.theta2_epochs <= train_cfg.epochs_for(1):
        per_epoch = lengths[1] // train_cfg.epochs_for(1)
        theta2_iteration = boundaries[0] + cfg.analysis.theta2_epochs * per_epoch

    store = None
    extra = set()
    if cfg.checkpoints:
        store = CheckpointStore.open(run_dir / "checkpoints")
        if theta2_iteration is not None:
            extra.add(theta2_iteration)
    recorder = TraceRecorder(spec, test, eval_batch=cfg.train.eval_batch,
                             store=store, extra_checkpoint_iterations=extra)
    run_sequence(spec, task_seq, train_cfg, hooks=recorder)

    write_trace_csv(run_dir / "trace.csv", recorder.trace)

    gap = None
    if task_seq.n_tasks >= 2:
        try:
            gap = compute_gap(
                recorder.trace,
                boundary_iteration=boundaries[0],
                baseline_evals=cfg.analysis.baseline_evals,
                recovery_window=cfg.analysis.recovery_window,
                tolerance=cfg.analysis.tolerance,
                window=cfg.analysis.window,
            )
            (run_dir / "gap.txt").write_text(format_gap_doc(gap))
        except InsufficientTraceError:
            gap = None

    if store is not None and theta2_iteration is not None:
        theta1 = store.load_iteration(boundaries[0], spec)
        theta2 = store.load_iteration(theta2_iteration, spec)
        curve = lmc_curve(spec, theta1, theta2, cfg.analysis.lmc_step, test,
                          eval_batch=cfg.train.eval_batch)
        write_lmc_csv(run_dir / "lmc.csv", curve)
        path_iters = [i for i in store.iterations()
                      if boundaries[0] <= i <= theta2_iteration]
        path = sgd_path_loss(spec, store, path_iters, test,
                             eval_batch=cfg.train.eval_batch)
        write_path_csv(run_dir / "path.csv", path)

    return SeedRunResult(seed=seed, run_dir=run_dir, trace=recorder.trace,
                         boundaries=boundaries, gap=gap)


def _run_seed(cfg: ExperimentConfig, seed: int, run_dir: Path) -> GapMetrics | None:
    """One seed as a pool task: the seed directory is written here and only
    the gap metrics travel back, never the trace."""
    return run_single_seed(cfg, seed, run_dir).gap


def _attempt(call):
    """The call's result, or the exception it raised, so that one failing
    seed does not stop the others."""
    try:
        return call()
    except Exception as err:
        return err


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_size(cfg: ExperimentConfig) -> int:
    """Seed processes for this run: one per seed, at most one per usable
    CPU, at most `cfg.workers` when it is set."""
    cpus = _usable_cpus()
    return min(len(cfg.seeds), cpus, cfg.workers or cpus)


def _run_seeds_in_pool(cfg: ExperimentConfig, out: Path, n_procs: int) -> list:
    # imported here so that importing the CLI does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # seed processes inherit the one-thread BLAS settings that importing
    # gaplab put into os.environ
    with ProcessPoolExecutor(max_workers=n_procs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_run_seed, cfg, s, out / f"seed{s}") for s in cfg.seeds]
        return [_attempt(f.result) for f in futures]


def _dead_process_error(outcome):
    """A seed whose process died (killed, out of memory) as a GapLabError,
    so that the run still ends with a documented exit code."""
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(outcome, BrokenProcessPool):
        return GapLabError(f"a seed process died: {outcome}")
    return outcome


def _status(outcome) -> str:
    if isinstance(outcome, Exception):
        return " ".join(f"{type(outcome).__name__}: {outcome}".split())
    return "ok"


def run_experiment(cfg: ExperimentConfig) -> Path:
    """All seeds of one configuration, plus aggregate artifacts.

    Seeds run in spawned processes when more than one can run at once,
    and in this process otherwise; both write the same bytes. A failing
    seed does not stop the others: every seed's status goes into the
    manifest, and then the first failing seed's error is raised.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n_procs = _pool_size(cfg)
    if n_procs > 1:
        outcomes = [_dead_process_error(o) for o in _run_seeds_in_pool(cfg, out, n_procs)]
    else:
        outcomes = [_attempt(partial(_run_seed, cfg, s, out / f"seed{s}"))
                    for s in cfg.seeds]

    manifest = RunManifest(
        config_hash=cfg.hash(),
        versions={
            "gaplab": __version__,
            "numpy": np.__version__,
        },
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    (out / "config.json").write_text(canonical_json(cfg.to_dict()) + "\n")
    manifest.add("config.json")

    per_seed = {seed: gap for seed, gap in zip(cfg.seeds, outcomes)
                if isinstance(gap, GapMetrics)}
    if per_seed:
        (out / "gap.txt").write_text(format_gap_docs(per_seed))
        manifest.add("gap.txt")

    for seed, outcome in zip(cfg.seeds, outcomes):
        manifest.seeds[str(seed)] = _status(outcome)
        for item in sorted((out / f"seed{seed}").rglob("*")):
            if item.is_file():
                manifest.add(str(item.relative_to(out)))

    (out / "manifest.json").write_text(manifest.to_json())
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return out
