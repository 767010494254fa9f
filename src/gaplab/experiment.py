"""End-to-end experiment runner: dataset, model, training, measurement
and artifact files for one configuration over a list of seeds.

Run directory layout (one subdirectory per seed):

    out/
      config.json      canonicalized input configuration
      manifest.json    config hash, artifact list, versions, creation time
      gap.txt          per-seed and median gap metrics (seeds that yield them)
      seed<k>/
        trace.csv      one row per training iteration
        gap.txt        gap metrics for the first task boundary
        checkpoints/   binary parameter snapshots (when enabled)
        lmc.csv        linear interpolation curve theta1 -> theta2
        path.csv       test loss along the SGD trajectory checkpoints
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import procs
from ._version import __version__
from .artifacts import (GapMetrics, PathCurve, TrainTrace, compute_gap, format_gap_doc,
                        format_gap_docs, write_lmc_csv, write_path_csv, write_trace_csv)
from .config import DatasetConfig, ExperimentConfig, RunManifest, canonical_json
from .connectivity import lmc_curve, sgd_path_loss
from .data import (Dataset, blob_train_count, gen_blobs, load_raw, read_labels, split_tasks,
                   task_sizes)
from .errors import InsufficientTraceError
from .instrument import TraceRecorder
from .rng import derive_seed
from .trainer import DATA_STREAM, SPLIT_STREAM, CheckpointStore, Schedule, run_sequence


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


def _train_class_counts(cfg: DatasetConfig) -> list[int]:
    """The training set's samples per class, without building it and
    drawing no random number."""
    if cfg.kind == "blobs":
        return [blob_train_count(cfg.per_class)] * cfg.classes
    return np.bincount(read_labels(cfg.train_labels, cfg.train_count, cfg.classes),
                       minlength=cfg.classes).tolist()


@dataclass
class SeedRunResult:
    """What one seed's run computed: its trace, its schedule (with the task
    boundaries) and the gap at the first boundary (None for a trace too short
    to analyze)."""

    trace: TrainTrace
    plan: Schedule
    gap: GapMetrics | None


def run_single_seed(cfg: ExperimentConfig, seed: int, run_dir: Path) -> SeedRunResult:
    """One full training run plus measurement artifacts.

    The seed directory is owned by the runner and is recreated from
    scratch, so stale artifacts from earlier runs cannot leak in. Where
    `_spare_cpu` allows, the test evaluations are shared with one forked
    evaluator process while this one trains (`TraceRecorder`'s `forked`);
    the artifacts, the error raised and the files left behind on an error
    are the same either way, and no numpy warning is shown in either.
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
    plan = Schedule.plan([len(task_seq.pool(k)) for k in range(task_seq.n_tasks)],
                         cfg.train, cfg.analysis.theta2_epochs)
    store = CheckpointStore(run_dir / "checkpoints") if cfg.checkpoints else None
    with TraceRecorder(spec, test, eval_batch=cfg.train.eval_batch, store=store,
                       forked=_spare_cpu(cfg)) as recorder:
        run_sequence(spec, task_seq, cfg.train, plan, seed, hooks=recorder)

    write_trace_csv(run_dir / "trace.csv", recorder.trace)

    try:
        gap = compute_gap(recorder.trace, plan.boundaries[0], cfg.analysis)
        (run_dir / "gap.txt").write_text(format_gap_doc(gap))
    except InsufficientTraceError:
        gap = None

    if store is not None and plan.theta2 is not None:
        theta1 = store.load_iteration(plan.boundaries[0], spec)
        theta2 = store.load_iteration(plan.theta2, spec)
        curve = lmc_curve(spec, theta1, theta2, cfg.analysis.lmc_step, test,
                          eval_batch=cfg.train.eval_batch)
        write_lmc_csv(run_dir / "lmc.csv", curve)
        path_iters = sorted(i for i in plan.checkpoints
                            if plan.boundaries[0] <= i <= plan.theta2)
        # a path iteration that the trace evaluated takes the trace's metrics:
        # the same parameters through the same eval_test. Only the rest, such
        # as an off-cadence theta2, are read back and evaluated.
        metrics = {r.iteration: (r.test_loss, r.test_acc)
                   for r in recorder.trace.eval_records()}
        unevaluated = [i for i in path_iters if i not in plan.evals]
        if unevaluated:
            rest = sgd_path_loss(spec, store, unevaluated, test,
                                 eval_batch=cfg.train.eval_batch)
            metrics.update(zip(unevaluated, zip(rest.losses, rest.accuracies)))
        losses, accuracies = zip(*(metrics[i] for i in path_iters))
        write_path_csv(run_dir / "path.csv", PathCurve(path_iters, losses, accuracies))

    return SeedRunResult(trace=recorder.trace, plan=plan, gap=gap)


def _run_seed(cfg: ExperimentConfig, seed: int, run_dir: Path):
    """One seed's gap metrics: from a seed child only this travels back."""
    return run_single_seed(cfg, seed, run_dir).gap


def _pool_size(cfg: ExperimentConfig) -> int:
    """Seed processes, at most `cfg.workers`: the seeds spread evenly over
    floor(seeds / cpus) rounds (one if fewer seeds than usable CPUs), so
    every CPU stays busy until fewer than `cpus` seeds are left; under two
    per CPU. Where forking is unsafe, `procs.outcomes` runs them all here."""
    seeds, cpus = len(cfg.seeds), procs.usable_cpus()
    rounds = max(1, seeds // cpus)
    return min(-(-seeds // rounds), cfg.workers or seeds)


def _spare_cpu(cfg: ExperimentConfig) -> bool:
    """Whether each seed may fork an evaluator process: where forking is
    safe (`procs.can_fork`), when the seed processes that run at once leave
    a whole usable CPU idle for each evaluator, and, if `cfg.workers` is
    set, when it covers the seed processes and their evaluators together."""
    seed_procs = _pool_size(cfg)
    return (procs.can_fork() and 2 * seed_procs <= procs.usable_cpus()
            and (cfg.workers is None or 2 * seed_procs <= cfg.workers))


def _status(outcome) -> str:
    if isinstance(outcome, Exception):
        return " ".join(f"{type(outcome).__name__}: {outcome}".split())
    return "ok"


def _cpu_paths() -> dict[str, str | None]:
    """The OpenBLAS kernel and numpy's float64 `exp` and `log` loops, which move a
    checkpoint's last bits across CPUs; None where the library or symbol is missing."""
    import ctypes
    libs = sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas*"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None  # numpy has loaded it already
    paths = {}
    for key, name in (("openblas_core", "corename"), ("openblas_config", "config")):
        get = getattr(lib, f"scipy_openblas_get_{name}64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
        paths[key] = get().decode() if get is not None else None
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    except ImportError:  # numpy < 2.0
        info = {}
    for name in ("exp", "log"):
        loop = next(iter(info.get(name, {}).values()), {})
        paths[f"numpy_{name}_float64"] = loop.get("current")
    return paths


def run_experiment(cfg: ExperimentConfig) -> Path:
    """All seeds of one configuration, plus aggregate artifacts.

    Seeds run in forked seed processes when `_pool_size` gives more than
    one (`procs.outcomes`), and in this process otherwise; both write the
    same bytes. A failing seed, or a seed process that dies or cannot be
    forked, does not stop the others: every seed's status goes into the
    manifest, and then the first failing seed's error is raised.
    """
    # the split's task sizes need only the training labels: a split that
    # leaves a task empty, or an unreadable labels file, fails before any file
    task_sizes(_train_class_counts(cfg.dataset), cfg.split.fractions, cfg.split.stratified)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    works = [partial(_run_seed, cfg, s, out / f"seed{s}") for s in cfg.seeds]
    outcomes = procs.outcomes(works, _pool_size(cfg), "a seed process")

    manifest = RunManifest(
        config_hash=cfg.hash(),
        versions={
            "gaplab": __version__,
            "numpy": np.__version__,
            **_cpu_paths(),
        },
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    (out / "config.json").write_text(canonical_json(cfg.to_dict()) + "\n")
    manifest.artifacts.append("config.json")

    per_seed = {seed: gap for seed, gap in zip(cfg.seeds, outcomes)
                if isinstance(gap, GapMetrics)}
    if per_seed:
        (out / "gap.txt").write_text(format_gap_docs(per_seed))
        manifest.artifacts.append("gap.txt")
    else:  # an earlier run's aggregate must not outlive this run
        (out / "gap.txt").unlink(missing_ok=True)

    for seed, outcome in zip(cfg.seeds, outcomes):
        manifest.seeds[str(seed)] = _status(outcome)
        for item in sorted((out / f"seed{seed}").rglob("*")):
            if item.is_file():
                manifest.artifacts.append(str(item.relative_to(out)))

    (out / "manifest.json").write_text(manifest.to_json())
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return out
