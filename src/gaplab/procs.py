"""Child processes: the CPUs to use, whether a child may be forked, and `Child`,
the one protocol of every child gaplab starts (seed, evaluator, `lmc` slice)."""

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


def _send(work, write_end) -> None:
    """The child's side: `work()`, pickled into the pipe, then `os._exit`
    (1 if either raised), so that the child never returns to its caller."""
    status = 1
    try:
        if not isinstance(write_end, int):  # a spawned child's Connection
            write_end = write_end.fileno()
        with open(write_end, "wb") as pipe:
            pickle.dump(work(), pipe)
        status = 0
    finally:
        os._exit(status)


class Child:
    """A child that runs `work()` and sends the result back: forked, or with
    `spawn` (where `can_fork()` is false) a fresh interpreter, for a `work`
    that pickles. `join` waits for the result and reaps the child; `kill`
    kills and reaps a child not joined, so callers call it on every way out.
    `what` names the child in the error of its death."""

    def __init__(self, work, what: str = "an evaluation process", spawn: bool = False):
        self.what, self._proc = what, None
        if spawn:  # multiprocessing here only, so that a forking parent stays lean
            import multiprocessing
            reader, writer = multiprocessing.Pipe(duplex=False)
            self._proc = multiprocessing.get_context("spawn").Process(
                target=_send, args=(work, writer))
            try:
                self._proc.start()
                self.pid, self._read_end = self._proc.pid, os.dup(reader.fileno())
            finally:
                reader.close()
                writer.close()
            return
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
        if self._proc is None:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        else:  # through multiprocessing, which then forgets the child
            self._proc.join()
            code = self._proc.exitcode
        os.close(self._read_end)
        self._read_end = None
        return code


def ended(children: list[Child], timeout: float | None = None) -> list[Child]:
    """Those of `children` that have ended or sent their result, waiting up to
    `timeout` seconds (None: without limit) for one."""
    return select.select(children, [], [], timeout)[0]


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
