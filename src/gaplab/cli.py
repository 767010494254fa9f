"""Command line entry point.

Subcommands: gen-data, train, gap, lmc, report. Exit codes: 0 success,
2 usage or configuration error, 3 analysis-condition signal (e.g. the
trace never recovers, or is too short to analyze), 4 runtime/data error.

This module loads without numpy, so `gap`, `report` and `--version` run
without it. The names of the numeric modules that `gen-data`, `train` and
`lmc` call are listed in `_NUMERIC`: `main` binds them before one of those
commands runs, and an attribute access (`cli.run_experiment`) loads one on
demand.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import fields, replace
from pathlib import Path

from ._version import __version__
from .artifacts import (GapParams, compute_gap, format_gap_doc, format_gap_docs,
                        read_lmc_csv, read_path_csv, read_trace_csv, write_lmc_csv,
                        write_path_csv)
from .config import RAW_MAX_CLASSES, DatasetConfig, ExperimentConfig, check_raw_classes
from .errors import ArgumentError, GapLabError, InsufficientTraceError
from .svgplot import LinePlot

# name -> the numeric module it comes from; a module's own name is the module
_NUMERIC = {
    "build_dataset": "experiment", "run_experiment": "experiment",
    "CheckpointStore": "trainer", "load_checkpoint": "trainer",
    "lmc_curve": "connectivity", "sgd_path_loss": "connectivity",
    "gen_blobs": "data", "normalize_unit": "data", "save_raw": "data",
    "check_seed": "rng",
    "procs": "procs",
}


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_NUMERIC[name]}", __package__)
    return module if name == _NUMERIC[name] else getattr(module, name)


def _bind_numeric() -> None:
    """Bind every name of `_NUMERIC` in this module, keeping a binding
    already made (a caller's wrapper, say)."""
    names = globals()
    for name in _NUMERIC:
        if name not in names:
            names[name] = __getattr__(name)


def _shape_arg(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}, expected e.g. 3,8,8")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}, dims must be positive")
    return dims


def cmd_gen_data(args) -> int:
    check_raw_classes(args.classes)
    train, test = gen_blobs(
        seed=check_seed(args.seed, "--seed"),
        n_classes=args.classes,
        n_per_class=args.per_class,
        dim=args.dim,
        spread=args.spread,
        shape=args.shape,
    )
    train, test = normalize_unit(train, test)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for part, dataset in (("train", train), ("test", test)):
        save_raw(dataset, out / f"{part}_features.bin", out / f"{part}_labels.bin")
        print(f"wrote {out}/{part}_features.bin ({dataset.n} records)")
        print(f"wrote {out}/{part}_labels.bin")
    return 0


def _load_config(args) -> ExperimentConfig:
    """The `--config` file, with `--out` and `--seed` applied (`train` and
    `lmc` both declare all three)."""
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(check_seed(args.seed, "--seed"),))
    return cfg


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = run_experiment(cfg)
    print(f"run complete: {out} (config hash {cfg.hash()[:12]}, "
          f"{len(cfg.seeds)} seed{'s' if len(cfg.seeds) != 1 else ''})")
    return 0


def cmd_gap(args) -> int:
    params = GapParams(**{f.name: getattr(args, f.name) for f in fields(GapParams)})
    docs = {}
    any_unrecovered = False
    for index, trace_path in enumerate(args.trace):
        trace = read_trace_csv(trace_path)
        boundary = args.boundary
        if boundary is None:
            if len(trace.boundaries) < 2:
                raise ArgumentError(
                    f"{trace_path}: trace has a single task; pass --boundary explicitly"
                )
            boundary = trace.boundaries[0]
        metrics = compute_gap(trace, boundary, params)
        docs[index] = metrics
        any_unrecovered = any_unrecovered or not metrics.recovered

    if len(docs) == 1:
        text = format_gap_doc(next(iter(docs.values())))
    else:
        text = format_gap_docs(docs)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    return 3 if any_unrecovered else 0


def _normalize(values) -> list[float]:
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return [(v - lo) / span for v in values]


def _lmc_figure(curve, path_curve=None) -> LinePlot:
    plot = LinePlot(
        title="Loss between checkpoints: linear path vs SGD path",
        xlabel="interpolation fraction / normalized trajectory position",
        ylabel="test loss",
    )
    plot.add_series(curve.lambdas, curve.losses, label="linear path")
    if path_curve is not None:
        plot.add_series(_normalize(path_curve.iterations), path_curve.losses,
                        label="SGD path")
    return plot


def cmd_lmc(args) -> int:
    cfg = _load_config(args)
    _, test = build_dataset(cfg.dataset, cfg.seeds[0])
    spec = cfg.model_spec
    theta1 = load_checkpoint(args.ckpt_a, spec)
    theta2 = load_checkpoint(args.ckpt_b, spec)
    step = args.step if args.step is not None else cfg.analysis.lmc_step
    store = None
    if args.sgd_path:
        store = CheckpointStore.open(args.sgd_path)
        if not store.iterations():
            raise ArgumentError(f"{args.sgd_path}: no checkpoints found")

    # both curves are evaluated, on every usable CPU up to the config's
    # `workers` where forking is safe (`procs.outcomes`), before anything is
    # written, so a checkpoint that fails to load leaves no file behind
    cpus = procs.usable_cpus()
    if cfg.workers is not None:
        cpus = min(cpus, cfg.workers)
    curve = lmc_curve(spec, theta1, theta2, step, test,
                      eval_batch=cfg.train.eval_batch, procs=cpus)
    path_curve = None
    if store is not None:
        path_curve = sgd_path_loss(spec, store, store.iterations(), test,
                                   eval_batch=cfg.train.eval_batch, procs=cpus)

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_lmc_csv(out / "lmc.csv", curve)
    if path_curve is not None:
        write_path_csv(out / "path.csv", path_curve)
    _lmc_figure(curve, path_curve).save(out / "lmc.svg")
    print(f"wrote {out}/lmc.csv ({len(curve.lambdas)} points) and {out}/lmc.svg")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    trace_path = run_dir / "trace.csv"
    if not trace_path.is_file():
        raise ArgumentError(f"{run_dir}: no trace.csv; expected a seed run directory")
    trace = read_trace_csv(trace_path)
    evals = trace.eval_records()
    if not evals:
        raise InsufficientTraceError(f"{trace_path}: trace has no evaluation records")
    # every input is read and checked before anything is written, so a run
    # without lmc.csv, or with a malformed curve file, leaves no figure behind
    lmc_path = run_dir / "lmc.csv"
    if not lmc_path.is_file():
        raise ArgumentError(
            f"{run_dir}: no lmc.csv; re-run train with checkpoints enabled and a second "
            "task of at least analysis.theta2_epochs epochs"
        )
    curve = read_lmc_csv(lmc_path)
    path_file = run_dir / "path.csv"
    path_curve = read_path_csv(path_file) if path_file.is_file() else None
    out = Path(args.out or run_dir)
    out.mkdir(parents=True, exist_ok=True)

    interior = trace.boundaries[:-1]

    accuracy_fig = LinePlot(title="Test accuracy across task boundary",
                            xlabel="iteration", ylabel="test accuracy")
    accuracy_fig.add_series([r.iteration for r in evals],
                            [r.test_acc for r in evals], label="test accuracy")
    for b in interior:
        accuracy_fig.add_vline(b, label="task switch")
    accuracy_fig.save(out / "accuracy.svg")

    probe_fig = LinePlot(title="Per-batch accuracy before and after each update",
                         xlabel="iteration", ylabel="batch accuracy")
    iterations = [r.iteration for r in trace.records]
    probe_fig.add_series(iterations, [r.batch_acc_pre for r in trace.records],
                         label="before update")
    probe_fig.add_series(iterations, [r.batch_acc_post for r in trace.records],
                         label="after update")
    for b in interior:
        probe_fig.add_vline(b)
    probe_fig.save(out / "probe.svg")
    _lmc_figure(curve, path_curve).save(out / "lmc.svg")

    print(f"wrote {out}/accuracy.svg, {out}/probe.svg, {out}/lmc.svg")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Stability-gap laboratory: train task sequences, measure "
                    "the post-switch accuracy drop, and analyze checkpoint "
                    "connectivity.",
    )
    parser.add_argument("--version", action="version", version=f"gaplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and serialize a synthetic dataset")
    p.add_argument("--classes", type=int, default=DatasetConfig.classes,
                   help=f"at most {RAW_MAX_CLASSES}: a raw-format label is one byte")
    p.add_argument("--per-class", type=int, default=DatasetConfig.per_class)
    p.add_argument("--dim", type=int, default=DatasetConfig.dim)
    p.add_argument("--spread", type=float, default=DatasetConfig.spread)
    p.add_argument("--shape", type=_shape_arg, default=None,
                   help="reshape features, e.g. 2,4,4 for CNN input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run a configured experiment over its seeds")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="override the configured output directory")
    p.add_argument("--seed", type=int, help="run only this seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gap", help="compute gap metrics from trace CSVs")
    p.add_argument("--trace", action="append", required=True,
                   help="trace CSV path (repeat for per-seed + median output)")
    p.add_argument("--boundary", type=int, help="boundary iteration "
                   "(default: first task boundary recorded in the trace)")
    for f in fields(GapParams):  # --baseline-evals and the rest: the analysis.* keys
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p.add_argument("--out", help="also write the document to this file")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("lmc", help="linear interpolation curve between checkpoints")
    p.add_argument("--config", required=True, help="experiment config JSON "
                   "(rebuilds the model and evaluation set)")
    p.add_argument("--ckpt-a", required=True, help="checkpoint at lambda=0")
    p.add_argument("--ckpt-b", required=True, help="checkpoint at lambda=1")
    p.add_argument("--step", type=float, help="lambda step (default from config)")
    p.add_argument("--seed", type=int, help="dataset seed (default: first config seed)")
    p.add_argument("--sgd-path", help="checkpoint directory to overlay the SGD path")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_lmc)

    p = sub.add_parser("report", help="render SVG figures for a seed run directory")
    p.add_argument("--run", required=True, help="seed run directory with trace.csv")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func in (cmd_gen_data, cmd_train, cmd_lmc):
            _bind_numeric()
        return args.func(args)
    except ArgumentError as err:
        print(f"gaplab: error: {err}", file=sys.stderr)
        return 2
    except InsufficientTraceError as err:
        print(f"gaplab: {err}", file=sys.stderr)
        return 3
    except (GapLabError, OSError, MemoryError) as err:
        print(f"gaplab: error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
