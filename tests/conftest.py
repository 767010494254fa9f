"""Shared test helpers: finite-difference gradients, trace builders and
run-directory comparison, and a guard against leaked worker processes."""

import multiprocessing
import os
from multiprocessing import resource_tracker
from pathlib import Path

# gaplab before numpy, as the gaplab CLI loads them: importing gaplab sets
# BLAS to one thread before numpy loads, and only then may seeds and lmc
# evaluations fork (experiment._can_fork)
from gaplab import experiment  # isort: skip
import numpy as np
import pytest

from gaplab.autodiff import ParamVector, backward
from gaplab.instrument import TraceRecord, TrainTrace


def fd_gradient(spec, params, batch, labels, h=1e-5):
    """Central-difference gradient of the mean cross-entropy loss."""
    base = params.values
    grad = np.zeros_like(base)
    for i in range(len(base)):
        bumped = base.copy()
        bumped[i] = base[i] + h
        up, _, _ = backward(spec, ParamVector(bumped, params.spec_digest), batch, labels)
        bumped[i] = base[i] - h
        down, _, _ = backward(spec, ParamVector(bumped, params.spec_digest), batch, labels)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric, floor=1e-2):
    """Worst per-coordinate relative error; the floor keeps tiny-gradient
    coordinates from inflating the ratio with pure roundoff."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def eval_trace(pre_accs, post_accs, boundary=100, spacing=10):
    """Trace whose eval ticks carry the given accuracies.

    Pre-boundary evals end exactly at the boundary iteration and march
    backwards with `spacing`; post-boundary evals start at boundary+spacing.
    """
    records = []
    start = boundary - spacing * (len(pre_accs) - 1)
    for k, acc in enumerate(pre_accs):
        it = start + spacing * k
        records.append(TraceRecord(it, 0, 1.0, acc, 1.0, acc,
                                   test_loss=1.0, test_acc=acc))
    for k, acc in enumerate(post_accs):
        it = boundary + spacing * (k + 1)
        records.append(TraceRecord(it, 1, 1.0, acc, 1.0, acc,
                                   test_loss=1.0, test_acc=acc))
    return TrainTrace(records=records)


def run_files(out):
    """Every file of a run by relative path, except the two that name the
    run itself (criterion 8's exclusions)."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name not in ("manifest.json", "config.json")}


@pytest.fixture
def two_cpus(monkeypatch):
    """Size seed pools as if two CPUs were usable, so that two or three seeds
    run in a pool (of two or three processes) even on a one-CPU machine."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)


def running_children() -> list[int]:
    """PIDs of this process's children that are still running, found by
    the parent PID in each /proc/<pid>/stat (read only); empty without
    /proc. Zombies are left out, and so is multiprocessing's resource
    tracker, which ends when this process does."""
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    running = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # the fields after the parenthesised command name: state, ppid, ...
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:  # the process ended while we looked
            continue
        pid = int(stat.parent.name)
        if int(ppid) == os.getpid() and state != "Z" and pid != tracker:
            running.append(pid)
    return sorted(running)


def assert_no_process_left_running(after: str) -> None:
    """Fail if a child process is still running, whether multiprocessing
    started it or, say, subprocess.Popen or os.fork."""
    left = multiprocessing.active_children()
    assert not left, f"child processes left running after {after}: {left}"
    pids = running_children()
    assert not pids, f"child processes left running after {after}: PIDs {pids}"


@pytest.fixture(autouse=True)
def no_process_left_running_by_the_test():
    """Check after every test, so that a leak fails the test that caused it."""
    yield
    assert_no_process_left_running("this test")


@pytest.fixture(scope="session", autouse=True)
def no_process_left_running():
    """Check once more at the end of the session."""
    yield
    assert_no_process_left_running("the tests")
