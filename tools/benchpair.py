"""Time two revisions against each other with their own benchmark.

    python3 tools/benchpair.py --base REV [--head REV] --workload W [--pairs N]

Each revision is unpacked with `git archive` under `.perfbench-work/` and
runs its own, unedited `python3 perfbench/run.py --workload W --seed S`
for `BENCHMARK.json`'s `run_seconds`. The two sides alternate which runs
first, pair by pair. The last stdout line of each run is its JSON result.
The record, written to `BENCH_<workload>_<short head rev>.json` in the
current directory, holds the CPU paths that move a run's last bits (as
the head tree's gaplab reports them), every run's end-to-end metrics and
`correct` flag, each metric's medians, quartiles and pair wins and whether the
head's median stays within the metric's bound, and the gain gate: at
least ten pairs, the head better in at least nine tenths of all pairs
run (ties, and pairs with an incorrect run, count for neither side),
medians further apart than the distance between the base's quartiles,
every head run correct, and no more failed operations on the head than
on the base.

Standard library only; it needs `git` and a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work" / "benchpair"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> Path:
    """The tree of commit `rev`, extracted into `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its `correct` flag, counts and
    metric values, or `correct: false` and the error if it printed no result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": done.returncode, "metrics": {},
                "error": done.stderr.strip().splitlines()[-1:] or ["no output"]}
    return {"correct": bool(result["correct"]), "exit": done.returncode,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cpu_paths(tree: Path) -> dict | None:
    """`experiment._cpu_paths()` of the gaplab in `tree`, run in a process of
    its own with this one's environment: the OpenBLAS core and config and
    numpy's float64 `exp`/`log` targets. None where the tree has no such
    function."""
    done = subprocess.run(
        [sys.executable, "-c", "import json; from gaplab.experiment import _cpu_paths; "
                               "print(json.dumps(_cpu_paths()))"],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True)
    return json.loads(done.stdout) if done.returncode == 0 else None


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, by `statistics.quantiles`' inclusive method."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric: each side's quartiles over its correct runs, the
    pairs each side won, whether the head's median is within the bound, and
    the gain gate.

    A run is {"pair", "side" ("base" or "head"), "correct", "metrics"} and,
    when it printed a result, "failed". A pair is won only when both of its
    runs are correct and have the metric, but every pair run counts towards
    the nine tenths.
    """
    pairs_run = len({r["pair"] for r in runs})
    head_sound = all(r["correct"] for r in runs if r["side"] == "head") and (
        sum(r.get("failed", 0) for r in runs if r["side"] == "head")
        <= sum(r.get("failed", 0) for r in runs if r["side"] == "base"))
    summary = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        pairs = {}
        for r in runs:
            if r["correct"] and name in r["metrics"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        sides = {side: [p[side] for p in pairs.values() if side in p]
                 for side in ("base", "head")}
        if not all(sides.values()):
            continue
        wins = {"head": 0, "base": 0, "ties": 0}
        for pair in pairs.values():
            if len(pair) < 2:
                continue
            if pair["head"] == pair["base"]:
                wins["ties"] += 1
            else:
                wins["head" if (pair["head"] < pair["base"]) == lower else "base"] += 1
        base, head = quartiles(sides["base"]), quartiles(sides["head"])
        gain = base["median"] - head["median"] if lower else head["median"] - base["median"]
        spread = base["q3"] - base["q1"]
        summary[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": base, "head": head, "wins": wins,
            "relative_change": (head["median"] - base["median"]) / base["median"],
            "within_bound": -gain <= m["bound"] * base["median"],
            "gain_gate": {"pairs": pairs_run, "median_gain": gain, "base_iqr": spread,
                          "passed": (pairs_run >= MIN_PAIRS
                                     and wins["head"] >= WIN_SHARE * pairs_run
                                     and gain > spread and head_sound)},
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("head", args.head))}
    trees = {}
    try:
        for side, rev in revs.items():
            if rev not in trees:
                trees[rev] = unpack(rev, WORK / rev[:12])
        spec = json.loads((trees[revs["head"]] / "BENCHMARK.json").read_text())
        paths = cpu_paths(trees[revs["head"]])
        seconds = spec["run_seconds"]
        runs = []
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                run = run_once(trees[revs[side]], args.workload, args.seed, seconds)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} {side}: correct={run['correct']} "
                      f"cpu_s={run['metrics'].get('cpu_s')}", flush=True)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    summary = summarize(runs, spec["end_to_end"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "pairs": args.pairs,
        "base": {"rev": revs["base"], "short": git("rev-parse", "--short", revs["base"])},
        "head": {"rev": revs["head"], "short": git("rev-parse", "--short", revs["head"])},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "cpu_paths": paths},
        "runs": runs, "summary": summary,
    }
    path = Path(f"BENCH_{args.workload}_{record['head']['short']}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    for name, s in summary.items():
        print(f"  {name}: base {s['base']['median']:.6g} head {s['head']['median']:.6g} "
              f"({s['relative_change']:+.1%}, bound {s['bound']:.0%}) wins {s['wins']} "
              f"gain gate {'passed' if s['gain_gate']['passed'] else 'not passed'}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
