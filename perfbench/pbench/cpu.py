"""CPU clocks, the clock the bounded timings are read from.

The benchmark's host is a small shared virtual machine.  Its wall clock
also counts the time the hypervisor gives other tenants (steal) and the
time a process waits for one of the few cores, and both drift by tens
of percent over minutes: runs of the same code disagreed by a third on
wall-clock throughput and by half on wall-clock latency.  A process's
CPU clock counts only the time its own threads ran; on a KVM guest with
paravirtual steal accounting (``CONFIG_PARAVIRT_TIME_ACCOUNTING``) that
excludes steal, and it never includes waiting for a core.  So the
bounded timings are CPU seconds of the processes doing the work (scaled
to a reference host speed, see :mod:`pbench.reference`), and the
wall-clock figures are printed next to them.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

#: ``CPUCLOCK_SCHED`` of a whole process in Linux's dynamic clock ids.
_CPUCLOCK_SCHED = 2


def process_cpu(pid: Optional[int] = None) -> float:
    """CPU seconds used so far by every thread, live or ended, of
    process ``pid`` (default: this process).  Raises :class:`OSError`
    when the process is gone."""
    if pid is None:
        return time.process_time()
    return time.clock_gettime((~pid << 3) | _CPUCLOCK_SCHED)


def group_cpu(pids: Iterable[int]) -> float:
    """Sum of :func:`process_cpu` over ``pids``."""
    return sum(process_cpu(p) for p in pids)
