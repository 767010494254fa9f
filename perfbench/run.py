"""End-to-end benchmark of the gaplab command line.

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout: it runs that checkout's
`src/gaplab`, and works in `.perfbench-work/` there. One client in this
process drives the CLI as a closed loop: a pass starts only after the
previous one has finished. Every command of a pass is a fresh
`python3 perfbench/launch.py <args>` process, and its CPU time and peak
resident set come from `os.wait4` on that process alone, so they cover
the pass and nothing else. Each pass's outputs are checked, digested,
compared with the first pass's and deleted.

Set-up (a cold `import gaplab.cli`, the inputs made from `--seed`, and
for `analyze` the training run it reads) is repeated at least `SETUPS`
times and for at least `SETUP_MIN_S` seconds, and reported as its
median. With `--trace 1`, untraced and traced passes alternate; the
traced ones report the per-layer metrics of `spans.py`.

The last line of stdout is the result as one JSON object; the lines
before it are the same metrics as a table, with the environment and the
output digest. The full record of the run is kept under
`.perfbench-work/results/`. BLAS threads are left as found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = json.loads((HERE / "reference.json").read_text())
DEFAULT_SEED = REFERENCE["seed"]

SETUPS = 3
SETUP_MIN_S = 2.0
DEADLINE_S = 170


class CheckFailed(Exception):
    """A command exited with an unexpected code or wrote a wrong output."""


@dataclass
class Command:
    cpu_s: float
    maxrss_kb: int


class Client:
    """Runs gaplab commands in the work directory and counts them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.commands: list[Command] = []
        self.span_files: list[Path] = []
        self.span_dir: Path | None = None

    def begin_pass(self, traced: bool) -> None:
        self.commands = []
        self.span_files = []
        self.span_dir = self.workdir / "spans" if traced else None
        if traced:
            shutil.rmtree(self.span_dir, ignore_errors=True)
            self.span_dir.mkdir()

    def spawn(self, argv: list[str], env: dict) -> tuple[int, object, str, str]:
        """Run argv to completion; exit code, rusage, stdout, stderr."""
        out_path = self.workdir / "command.out"
        err_path = self.workdir / "command.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage, out_path.read_text(), err_path.read_text()

    def gaplab(self, *args: str, expect: int = 0) -> str:
        """One CLI command; its stdout. Raises CheckFailed on another exit code."""
        env = self.env
        if self.span_dir is not None:
            path = self.span_dir / f"{len(self.span_files)}.spans"
            self.span_files.append(path)
            env = dict(env, PERFBENCH_TRACE=str(path))
        self.attempted += 1
        code, usage, out, err = self.spawn(
            [sys.executable, str(HERE / "launch.py"), *args], env)
        self.commands.append(Command(usage.ru_utime + usage.ru_stime, usage.ru_maxrss))
        if code != expect:
            self.fail(f"gaplab {' '.join(args)}: exit {code}, expected {expect}\n{err[-2000:]}")
        return out

    def fail(self, message: str) -> None:
        self.failed += 1
        raise CheckFailed(message)

    def cold_import(self) -> None:
        """Import gaplab.cli in a fresh interpreter; it must be the checkout's."""
        code, _, out, err = self.spawn(
            [sys.executable, "-c", "import gaplab.cli, gaplab; print(gaplab.__file__)"],
            self.env)
        if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"gaplab does not import from {SRC}: {out}{err}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def parse_gap_doc(text: str) -> dict[str, dict[str, str]]:
    """Sections of a gap document, each a key -> value-text mapping."""
    sections: dict[str, dict[str, str]] = {}
    current = sections.setdefault("", {})
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif line:
            key, _, value = line.partition(" = ")
            current[key] = value
    if not sections[""]:
        del sections[""]
    return sections


def gap_docs_match(got: dict, want: dict, tol: float = 1e-6) -> bool:
    """Equal sections and keys; numbers within tol, other values exact."""
    if got.keys() != want.keys():
        return False
    for name, section in want.items():
        if got[name].keys() != section.keys():
            return False
        for key, value in section.items():
            try:
                if abs(float(got[name][key]) - float(value)) > tol:
                    return False
            except ValueError:
                if got[name][key] != value:
                    return False
    return True


def csv_rows(path: Path) -> list[str]:
    """Data lines of a CSV artifact, header dropped."""
    return path.read_text().splitlines()[1:]


def tree_digest(root: Path, exclude: str = "manifest.json") -> str:
    """sha256 over every file's relative path and content, sorted by path."""
    outer = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != exclude):
        outer.update(str(path.relative_to(root)).encode() + b"\0")
        outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


def check_reference(client: Client, workload: str, gap_text: str) -> None:
    if not gap_docs_match(parse_gap_doc(gap_text), REFERENCE[workload]["gap"]):
        client.fail(f"{workload}: gap metrics differ from perfbench/reference.json")


@dataclass
class Work:
    iters: int
    evals: int


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def quickstart_config(seed: int, out_dir: str) -> dict:
    """The README quick-start config, with seeds taken from the workload seed."""
    return {
        "dataset": {"kind": "blobs", "classes": 8, "per_class": 250,
                    "dim": 32, "spread": 8.0},
        "model": {"name": "mlp", "hidden": [128, 64]},
        "split": {"fractions": [50, 50], "joint": True},
        "train": {"lr": 0.01, "epochs_per_task": [100, 20]},
        "analysis": {},
        "out_dir": out_dir,
        "seeds": [seed, seed + 1, seed + 2],
        "checkpoints": True,
    }


def sweep_config(seed: int, out_dir: str) -> dict:
    return {
        "dataset": {"kind": "blobs", "classes": 10, "per_class": 500,
                    "dim": 64, "spread": 8.0},
        "model": {"name": "mlp", "hidden": [128, 64]},
        "split": {"fractions": [50, 50], "joint": True},
        "train": {"lr": 0.01, "epochs_per_task": [4, 2]},
        "analysis": {},
        "out_dir": out_dir,
        "seeds": [seed + k for k in range(4)],
        "checkpoints": False,
    }


CNN_DATA = {"classes": 8, "per_class": 100, "shape": [3, 8, 8], "spread": 8.0}


def cnn_files_config(seed: int, out_dir: str) -> dict:
    n = CNN_DATA["classes"] * CNN_DATA["per_class"]
    n_train = n * 4 // 5
    return {
        "dataset": {"kind": "files", "classes": CNN_DATA["classes"],
                    "shape": CNN_DATA["shape"],
                    "train_features": "in/data/train_features.bin",
                    "train_labels": "in/data/train_labels.bin",
                    "test_features": "in/data/test_features.bin",
                    "test_labels": "in/data/test_labels.bin",
                    "train_count": n_train, "test_count": n - n_train},
        "model": {"name": "smallcnn", "channels": [8, 16], "hidden": [64]},
        "split": {"fractions": [50, 50], "joint": False},
        "train": {"lr": 0.05, "epochs_per_task": [30, 15]},
        "analysis": {},
        "out_dir": out_dir,
        "seeds": [seed],
        "checkpoints": False,
    }


def write_config(path: Path, config: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2))


class Training:
    """Each pass is one `gaplab train` over a config made in set-up."""

    def __init__(self, name: str, make_config, gen_data: bool = False):
        self.name = name
        self.make_config = make_config
        self.gen_data = gen_data
        self.min_passes = 2

    def setup(self, client: Client, seed: int) -> dict:
        if self.gen_data:
            client.gaplab("gen-data", "--classes", str(CNN_DATA["classes"]),
                          "--per-class", str(CNN_DATA["per_class"]),
                          "--dim", str(math.prod(CNN_DATA["shape"])),
                          "--shape", ",".join(map(str, CNN_DATA["shape"])),
                          "--spread", str(CNN_DATA["spread"]),
                          "--seed", str(seed), "--out", "in/data")
        config = self.make_config(seed, "out")
        write_config(client.workdir / "in" / "config.json", config)
        return {"config": config}

    def run_pass(self, client: Client, ctx: dict) -> None:
        ctx["stdout"] = client.gaplab("train", "--config", "in/config.json")

    def check_pass(self, client: Client, ctx: dict, seed: int, out: Path) -> Work:
        config = ctx["config"]
        if not ctx["stdout"].startswith("run complete: out "):
            client.fail(f"train: unexpected stdout {ctx['stdout']!r}")
        manifest = json.loads((out / "manifest.json").read_text())
        present = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        if manifest["artifacts"] != present:
            client.fail("train: manifest.json does not list the files written")
        wanted = ["trace.csv", "gap.txt"]
        if config["checkpoints"]:
            wanted += ["lmc.csv", "path.csv"]
        iters = evals = 0
        for s in config["seeds"]:
            seed_dir = out / f"seed{s}"
            missing = [n for n in wanted if not (seed_dir / n).is_file()]
            if missing:
                client.fail(f"train: seed{s} lacks {missing}")
            rows = [row.split(",") for row in csv_rows(seed_dir / "trace.csv")]
            iters += len(rows)
            evals += sum(1 for row in rows if row[7])
            if config["checkpoints"]:
                evals += len(csv_rows(seed_dir / "lmc.csv"))
                evals += len(csv_rows(seed_dir / "path.csv"))
        if seed == DEFAULT_SEED:
            check_reference(client, self.name, (out / "gap.txt").read_text())
        return Work(iters, evals)


class Analyze:
    """Each pass analyses a finished quick-start run made in set-up:
    `gap` over its traces, then `lmc --sgd-path` and `report` per seed."""

    name = "analyze"
    # its passes are short and its seven processes make them noisy
    min_passes = 5

    def setup(self, client: Client, seed: int) -> dict:
        config = quickstart_config(seed, "in/run")
        write_config(client.workdir / "in" / "config.json", config)
        client.gaplab("train", "--config", "in/config.json")
        run = client.workdir / "in" / "run"
        gap_text = (run / "gap.txt").read_text()
        per_seed = [parse_gap_doc(gap_text)[f"seed {s}"] for s in config["seeds"]]
        seeds = []
        for s in config["seeds"]:
            path_rows = csv_rows(run / f"seed{s}" / "path.csv")
            first, last = (int(row.split(",")[0]) for row in (path_rows[0], path_rows[-1]))
            ckpts = run / f"seed{s}" / "checkpoints"

            def ckpt(iteration):
                path = next(ckpts.glob(f"task*_iter{iteration:07d}.ckpt"))
                return str(path.relative_to(client.workdir))
            seeds.append({
                "seed": s,
                "ckpt_a": ckpt(first),
                "ckpt_b": ckpt(last),
                "n_ckpts": sum(1 for _ in ckpts.glob("*.ckpt")),
                "path_rows": set(path_rows),
                "lmc": (run / f"seed{s}" / "lmc.csv").read_bytes(),
                "trace_rows": len(csv_rows(run / f"seed{s}" / "trace.csv")),
            })
        # `gaplab gap` labels its sections by argument position, the run by seed
        position = {s: i for i, s in enumerate(config["seeds"])}
        expected_gap = re.sub(r"^\[seed (\d+)\]$",
                              lambda m: f"[seed {position[int(m[1])]}]",
                              gap_text, flags=re.M)
        return {
            "run_gap": gap_text,
            "expected_gap": expected_gap,
            "gap_exit": 3 if any(doc["recovered"] == "false" for doc in per_seed) else 0,
            "seeds": seeds,
        }

    def run_pass(self, client: Client, ctx: dict) -> None:
        traces = []
        for entry in ctx["seeds"]:
            traces += ["--trace", f"in/run/seed{entry['seed']}/trace.csv"]
        ctx["stdout"] = client.gaplab("gap", *traces, "--out", "out/gap.txt",
                                      expect=ctx["gap_exit"])
        for entry in ctx["seeds"]:
            s = entry["seed"]
            client.gaplab("lmc", "--config", "in/config.json", "--seed", str(s),
                          "--ckpt-a", entry["ckpt_a"], "--ckpt-b", entry["ckpt_b"],
                          "--sgd-path", f"in/run/seed{s}/checkpoints",
                          "--out", f"out/lmc{s}")
        for entry in ctx["seeds"]:
            s = entry["seed"]
            client.gaplab("report", "--run", f"in/run/seed{s}", "--out", f"out/report{s}")

    def check_pass(self, client: Client, ctx: dict, seed: int, out: Path) -> Work:
        if ctx["stdout"] != ctx["expected_gap"] or \
                (out / "gap.txt").read_text() != ctx["expected_gap"]:
            client.fail("gap: output differs from the run's aggregate gap.txt")
        iters = evals = 0
        for entry in ctx["seeds"]:
            s = entry["seed"]
            lmc = out / f"lmc{s}"
            if (lmc / "lmc.csv").read_bytes() != entry["lmc"]:
                client.fail(f"lmc: seed {s} lmc.csv differs from the run's")
            path_rows = csv_rows(lmc / "path.csv")
            if len(path_rows) != entry["n_ckpts"] or not entry["path_rows"] <= set(path_rows):
                client.fail(f"lmc: seed {s} path.csv does not extend the run's")
            for svg in [lmc / "lmc.svg"] + [out / f"report{s}" / f"{n}.svg"
                                             for n in ("accuracy", "probe", "lmc")]:
                try:
                    ElementTree.parse(svg)
                except (OSError, ElementTree.ParseError) as err:
                    client.fail(f"{svg.relative_to(out)}: {err}")
            iters += entry["trace_rows"]
            evals += len(csv_rows(lmc / "lmc.csv")) + len(path_rows)
        if seed == DEFAULT_SEED:
            check_reference(client, "quickstart", ctx["run_gap"])
            if ctx["gap_exit"] != REFERENCE["analyze"]["gap_exit"]:
                client.fail("gap: exit code differs from perfbench/reference.json")
        return Work(iters, evals)


WORKLOADS = {w.name: w for w in (
    Training("quickstart", quickstart_config),
    Training("sweep", sweep_config),
    Training("cnn-files", cnn_files_config, gen_data=True),
    Analyze(),
)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    iters: int
    evals: int
    layers: dict = field(default_factory=dict)


def one_pass(workload, client: Client, ctx: dict, seed: int, traced: bool) -> tuple[Sample, str]:
    out = client.workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    client.begin_pass(traced)
    started = perf_counter()
    workload.run_pass(client, ctx)
    wall = perf_counter() - started
    work = workload.check_pass(client, ctx, seed, out)
    digest = tree_digest(out)
    layers = {}
    if traced:
        layers = spans.layer_metrics([spans.load(p) for p in client.span_files])
    shutil.rmtree(out)
    return Sample(
        traced=traced,
        wall_s=wall,
        cpu_s=sum(c.cpu_s for c in client.commands),
        peak_rss_mb=max(c.maxrss_kb for c in client.commands) / 1024.0,
        iters=work.iters,
        evals=work.evals,
        layers=layers,
    ), digest


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p / 100.0 * len(ordered)) - 1]
    return None


def environment() -> dict:
    probe = r"""
import ctypes, json, sys, numpy
info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
        "blas": None, "blas_threads": None}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    pass
try:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
except OSError:
    pass
print(json.dumps(info))
"""
    info = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if result.returncode == 0:
        info.update(json.loads(result.stdout))
    info["blas_thread_env"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    info["git_rev"] = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        info["git_rev"] = rev.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "gaplab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = src.hexdigest()
    return info


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, seed: int, trace: bool, env: dict, digest: str | None,
           client: Client, series: dict[str, list[float]], units: dict[str, str]) -> dict:
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"outputs sha256 {digest}")
    print(f"{'metric':34} {'median':>14} {'unit':>8} {'n':>4}  tail")
    metrics = {}
    for metric, unit in units.items():
        values = series[metric]
        value = statistics.median(values)
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "- (under 20 samples)"
        print(f"{metric:34} {value:14.6g} {unit:>8} {len(values):4d}  {tail_text}")
        metrics[metric] = {"value": value, "unit": unit}
    ratio = client.failed / client.attempted if client.attempted else 0.0
    print(f"{'fail_ratio':34} {ratio:14.6g} {'1':>8} {client.attempted:4d}"
          f"  ({client.failed} failed of {client.attempted} commands)")
    return metrics


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    digest: str | None = None
    error: str | None = None


def measure(workload, client: Client, seed: int, seconds: float, trace: bool) -> Run:
    """Set up, then run passes until `seconds` have gone by and at least
    the workload's `min_passes` have run; the first failed check ends the
    run."""
    run = Run()
    modes = (False, True) if trace else (False,)
    try:
        while len(run.setup_s) < SETUPS or sum(run.setup_s) < SETUP_MIN_S:
            shutil.rmtree(client.workdir / "in", ignore_errors=True)
            started = perf_counter()
            client.cold_import()
            ctx = workload.setup(client, seed)
            run.setup_s.append(perf_counter() - started)
        started = perf_counter()
        while True:
            for traced in modes:
                sample, digest = one_pass(workload, client, ctx, seed, traced)
                run.digest = run.digest or digest
                if digest != run.digest:
                    client.fail("pass outputs differ from the first pass's")
                run.samples.append(sample)
            untraced = sum(1 for s in run.samples if not s.traced)
            enough = 1 if trace else workload.min_passes
            if perf_counter() - started >= seconds and untraced >= enough:
                return run
    except CheckFailed as err:
        run.error = str(err)
        return run


def series_of(setup_s: list[float], samples: list[Sample], trace: bool) -> dict[str, list[float]]:
    if trace:
        traced = [s for s in samples if s.traced]
        plain = [s for s in samples if not s.traced]
        series = {name: [s.layers[name] for s in traced] for name in traced[0].layers}
        series["trace.overhead_ratio"] = [
            statistics.median(s.wall_s for s in traced)
            / statistics.median(s.wall_s for s in plain)]
        return series
    return {
        "setup_s": setup_s,
        "wall_s": [s.wall_s for s in samples],
        "iters_per_s": [s.iters / s.wall_s for s in samples],
        "evals_per_s": [s.evals / s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
    }


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; inputs are a function of it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaplab" / "__init__.py").is_file():
        print(f"perfbench: no gaplab sources at {SRC}", file=sys.stderr)
        return 2
    seed = args.seed & 0xFFFFFFFF
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]
    units = declared_metrics(trace)

    workdir = WORK / f"{args.workload}-seed{seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    client = Client(workdir)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        env = environment()
        run = measure(workload, client, seed, args.seconds, trace)
        if run.error:
            print(f"perfbench: {run.error}", file=sys.stderr)
        if not run.samples or (trace and not all(
                any(s.traced == t for s in run.samples) for t in (False, True))):
            return 1
        series = series_of(run.setup_s, run.samples, trace)
        if series.keys() != units.keys():
            print("perfbench: metrics differ from BENCHMARK.json: "
                  f"{sorted(series.keys() ^ units.keys())}", file=sys.stderr)
            return 1
        metrics = report(args.workload, seed, trace, env, run.digest, client, series, units)
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (results / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}.json").write_text(
            json.dumps({"workload": args.workload, "seed": seed, "trace": trace,
                        "seconds": args.seconds, "env": env, "outputs_sha256": run.digest,
                        "error": run.error, "setup_s": run.setup_s,
                        "passes": [asdict(s) for s in run.samples],
                        "attempted": client.attempted, "failed": client.failed,
                        "metrics": metrics}, indent=1))
        print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                          "failed": client.failed, "metrics": metrics}))
        return 0 if client.failed == 0 else 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
