"""Child processes: the CPUs to use, whether a child may be forked, `Child`,
the one protocol of every child gaplab starts (seed, evaluator, `lmc` slice),
and `outcomes`, the one rule for spreading works over children: fork where
safe, else run here."""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import threading

import numpy as np

from . import _blas_threads_as_set
from .errors import GapLabError


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether a child forked now starts like a fresh gaplab process: on Linux
    only (macOS's frameworks can deadlock a forked child), with no other
    thread alive (a caller's can too), and with BLAS on the threads importing
    gaplab set (not numpy's default, in a program that loaded numpy first)."""
    return (sys.platform == "linux" and threading.active_count() == 1
            and _blas_threads_as_set)


def fork_procs() -> int:
    """Processes for work split by forking: one per usable CPU, or 1 (no fork)."""
    return usable_cpus() if can_fork() else 1


def _send(work, write_end: int) -> None:
    """The child's side: `work()`, pickled into the pipe, then `os._exit`
    (1 if either raised), so that the child never returns to its caller."""
    status = 1
    try:
        with open(write_end, "wb") as pipe:
            pickle.dump(work(), pipe)
        status = 0
    finally:
        os._exit(status)


class Child:
    """A forked child that runs `work()` and sends the result back. `join`
    waits for the result and reaps the child; `kill` kills and reaps a child
    not joined, so callers call it on every way out. `what` names the child
    in the error of its death. The caller decides whether forking is safe
    (`can_fork`)."""

    def __init__(self, work, what: str = "an evaluation process"):
        self.what = what
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:  # the child, which `_send` ends
            os.close(read_end)
            _send(work, write_end)
        os.close(write_end)
        self.pid, self._read_end = pid, read_end

    def fileno(self) -> int:  # the result pipe's end, for `select`
        return self._read_end

    def join(self):
        """The result of `work()`. A child that died raises GapLabError."""
        with open(self._read_end, "rb", closefd=False) as pipe:
            payload = pipe.read()
        code = self._reap()
        if code != 0:
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise GapLabError(f"{self.what} died ({how})")
        return pickle.loads(payload)

    def kill(self) -> None:
        if self._read_end is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        os.close(self._read_end)
        self._read_end = None
        return code


def ended(children: list[Child], timeout: float | None = None) -> list[Child]:
    """Those of `children` that have ended or sent their result, waiting up to
    `timeout` seconds (None: without limit) for one."""
    return select.select(children, [], [], timeout)[0]


def outcomes(works: list, n_procs: int, what: str) -> list:
    """The outcome of each `work()`, in order. Where `n_procs > 1` and
    `can_fork()` holds, each work runs in a `Child` of its own, at most
    `n_procs` alive and the next started when any ends; a child that dies,
    or whose fork is refused, makes that error its work's outcome, and every
    way out kills and reaps the children still alive. Otherwise each work
    runs here, in turn."""
    if n_procs <= 1 or not can_fork():
        return [work() for work in works]
    waiting, done, alive = list(enumerate(works)), {}, {}  # child -> index
    try:
        while waiting or alive:
            if waiting and len(alive) < n_procs:
                i, work = waiting.pop(0)
                try:
                    alive[Child(work, what)] = i
                except OSError as err:  # the fork refused, say
                    done[i] = err
                continue
            child = ended(list(alive))[0]
            try:
                done[alive[child]] = child.join()
            except Exception as err:  # the child died, say
                done[alive[child]] = err
            del alive[child]
    finally:
        for child in alive:
            child.kill()
    return [done[i] for i in range(len(works))]


def received(read_end: int, write_end: int, count: int):
    """Each vector of `count` float64 values sent through a pipe, read
    unbuffered into one reused array (so that a vector stays in the pipe
    until the one before has been used), until the sending end is closed.
    It starts in the process that iterates it, the evaluator child, which
    first closes its own copy of the sending end."""
    os.close(write_end)
    values = np.empty(count)
    view = memoryview(values).cast("B")
    with open(read_end, "rb", buffering=0) as pipe:
        while True:
            filled = 0
            while filled < len(view):
                got = pipe.readinto(view[filled:])
                if not got:
                    return
                filled += got
            yield values
