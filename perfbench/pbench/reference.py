"""A fixed reference task that tells how fast the host runs right now.

The CPU clock (:mod:`pbench.cpu`) leaves out steal and waiting for a
core, but not how fast the cores run: on the shared virtual machine the
benchmark was built on, the CPU time of the same operations drifted by
10-20 % within minutes, with no steal to account for it (a neighbour on
the same physical core, the host's clock frequency).

:class:`HostSpeed` has a small frozen task run in between the measured
operations and keeps its CPU times.  The bounded timings are CPU
seconds scaled by ``NOMINAL_S / median task time``: CPU seconds at the
speed the host had when the benchmark was built.  The task is the
benchmark's own (a random gather over a few megabytes, a sort, a
histogram and a Python loop, the mix the program's NumPy kernels and
interpreter overhead make), so nothing the program does changes it,
and a change to the program moves the scaled timings as it moves the
raw ones.  Of the candidate tasks tried it tracked the program best:
over 30 s windows of repeated ``detect`` sweeps it cut the spread of
the sweep time from 6 % to 3 % (standard deviation), where a pure-Python
loop or tiny NumPy calls alone made it worse.  The task runs in a child
process, so its arrays stay out of the measured process's
``peak_rss_mb``.  The raw CPU figures are printed beside the scaled
ones.

    python3 perfbench/pbench/reference.py   # the child: one task per input line
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

#: median CPU seconds of one task on the host the benchmark was built
#: on; scaled timings read as CPU seconds at that speed.
NOMINAL_S = 0.027
#: wall seconds between two tasks, about 5 % of a run's time.
EVERY_S = 0.5


class HostSpeed:
    """Runs the reference task in a child process, at most every
    :data:`EVERY_S` seconds through :meth:`tick`.  Close it (or use it
    as a context manager) to stop the child."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: wall seconds spent waiting on the task, for callers that
        #: leave it out of a measured stretch.
        self.wall = 0.0
        self._due = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self._run_task()  # first touch of the arrays is not a sample
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()

    def tick(self) -> None:
        """Run the task when it is due; call between measured
        operations, never inside one."""
        now = time.perf_counter()
        if now >= self._due:
            self.samples.append(self._run_task())
            done = time.perf_counter()
            self.wall += done - now
            self._due = done + EVERY_S

    def factor(self) -> float:
        """Multiply CPU seconds measured in this run by this factor to
        read them at the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)

    def note(self) -> str:
        return (
            f"host speed: reference task median {statistics.median(self.samples):.6g} s "
            f"(n={len(self.samples)}) vs nominal {NOMINAL_S} s; CPU timings scaled by {self.factor():.4f}"
        )

    def _run_task(self) -> float:
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference task's process ended")
        return float(line)


def _child() -> None:
    """Run the task once per line on stdin; print its CPU seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1 << 20, 1 << 18)
    values = rng.random(1 << 20)
    for _ in sys.stdin.buffer:
        c0 = time.process_time()
        for _ in range(2):
            x = values[idx]
            np.argsort(x[:50000], kind="stable")
            np.bincount(idx & 0xFFFF)
        s = 0
        for i in range(15000):
            s += i
        print(time.process_time() - c0, flush=True)


if __name__ == "__main__":
    _child()
