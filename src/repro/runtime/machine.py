"""The simulated shared-memory multiprocessor.

Models the paper's evaluation machine — two Intel Xeon E5-2660 sockets,
8 cores per socket, 2-way SMT (32 hardware threads) — as a throughput
curve plus synchronization overheads, and replays a
:class:`~repro.runtime.trace.WorkTrace` on it for any thread count.

The model deliberately captures the three effects the paper calls out
in Section 5:

* **NUMA knee (8 -> 16 threads):** threads placed on the second socket
  run at ``numa_eff`` relative efficiency (remote memory accesses).
* **SMT knee (16 -> 32 threads):** hardware threads sharing a core add
  only ``smt_eff`` of a core each.
* **Synchronization floor:** every parallel region (each trim sweep,
  each BFS level, each WCC iteration) pays a barrier cost that grows
  with the thread count, so phases made of many tiny regions — BFS on
  the high-diameter CA-road graph — stop scaling (Section 5's
  "level-synchronous BFS does not scale up well in such graphs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from .cost import CostModel, DEFAULT_COST_MODEL
from .scheduler import QueueStats, simulate_task_dag
from .trace import (
    ParallelForRecord,
    SequentialRecord,
    TaskDAGRecord,
    WorkTrace,
)

__all__ = ["MachineConfig", "SimResult", "Machine", "PAPER_MACHINE"]


@dataclass(frozen=True)
class MachineConfig:
    """Topology and overhead constants of the simulated machine."""

    sockets: int = 2
    cores_per_socket: int = 8
    smt: int = 2
    #: relative per-thread efficiency once threads span two sockets.
    numa_eff: float = 0.85
    #: relative per-thread efficiency of the second SMT lane of a core.
    smt_eff: float = 0.55
    #: barrier cost per parallel region (edge-units), fixed part.
    sync_base: float = 150.0
    #: barrier cost per parallel region, per participating thread.
    sync_per_thread: float = 10.0
    #: cost of one global work-queue access (fetch or spill).
    queue_global_access: float = 30.0
    #: cost of one local (per-thread) queue operation.
    queue_local_op: float = 3.0
    #: cost of spawning one child task.
    task_spawn: float = 8.0
    #: aggregate memory-bandwidth ceiling for data-parallel regions, in
    #: edge-units per unit time (None = compute-bound model).  Graph
    #: kernels are famously bandwidth-bound: once the ceiling is below
    #: the thread-throughput curve, adding cores stops helping long
    #: before the SMT knee (see bench_ablation_bandwidth.py).
    mem_bandwidth_cap: float | None = None

    @property
    def max_threads(self) -> int:
        return self.sockets * self.cores_per_socket * self.smt

    def thread_efficiencies(self) -> np.ndarray:
        """Per-hardware-thread relative speeds, in placement order.

        OpenMP-style placement: fill the first socket's cores, then the
        second socket's cores, then SMT lanes.
        """
        cores = self.cores_per_socket
        effs: list[float] = []
        effs.extend([1.0] * cores)  # socket 0, first SMT lane
        effs.extend([self.numa_eff] * (cores * (self.sockets - 1)))
        smt_lanes = self.sockets * cores * (self.smt - 1)
        effs.extend([self.smt_eff] * smt_lanes)
        return np.array(effs, dtype=np.float64)

    def throughput(self, threads: int) -> float:
        """Aggregate relative speed of the first ``threads`` threads,
        clipped at the memory-bandwidth ceiling when one is set."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        effs = self.thread_efficiencies()
        t = min(threads, effs.shape[0])
        raw = float(effs[:t].sum())
        if self.mem_bandwidth_cap is not None:
            return min(raw, self.mem_bandwidth_cap)
        return raw

    def sync_cost(self, threads: int) -> float:
        """Barrier cost of one parallel region with ``threads`` threads."""
        if threads <= 1:
            return 0.0
        return self.sync_base + self.sync_per_thread * threads


#: The paper's evaluation machine (Section 5).
PAPER_MACHINE = MachineConfig()


@dataclass
class SimResult:
    """Outcome of replaying a trace at a fixed thread count."""

    threads: int
    total_time: float
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: per task-phase queue statistics (max depths, utilization).
    queue_stats: Dict[str, QueueStats] = field(default_factory=dict)


class Machine:
    """Replays work traces on a :class:`MachineConfig`."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.config = config or PAPER_MACHINE
        self.cost_model = cost_model or DEFAULT_COST_MODEL

    # ------------------------------------------------------------------
    def _parallel_for_time(
        self, rec: ParallelForRecord, threads: int
    ) -> float:
        cfg = self.config
        if rec.work == 0.0 and rec.items == 0:
            return 0.0
        if threads == 1:
            return rec.work
        # Parallelism cannot exceed the number of independent items.
        usable = max(1, min(threads, rec.items if rec.items > 0 else 1))
        compute = rec.work / cfg.throughput(usable)
        if rec.schedule == "static" and rec.static_chunk_max:
            # The slowest static chunk runs on one thread.
            chunk = _chunk_max_for(rec.static_chunk_max, threads)
            compute = max(compute, chunk)
        return compute + cfg.sync_cost(usable)

    def _record_time(self, rec, threads: int) -> tuple[float, QueueStats | None]:
        if isinstance(rec, SequentialRecord):
            return rec.work, None
        if isinstance(rec, ParallelForRecord):
            return self._parallel_for_time(rec, threads), None
        if isinstance(rec, TaskDAGRecord):
            time, stats = simulate_task_dag(rec, threads, self.config)
            return time, stats
        raise TypeError(f"unknown trace record {type(rec).__name__}")

    def simulate(self, trace: WorkTrace, threads: int) -> SimResult:
        """Replay ``trace`` with ``threads`` threads; phases run in order."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads > self.config.max_threads:
            raise ValueError(
                f"machine supports at most {self.config.max_threads} threads"
            )
        total = 0.0
        phase_times: Dict[str, float] = {}
        queue_stats: Dict[str, QueueStats] = {}
        for rec in trace:
            t, stats = self._record_time(rec, threads)
            total += t
            phase_times[rec.phase] = phase_times.get(rec.phase, 0.0) + t
            if stats is not None:
                if rec.phase in queue_stats:
                    queue_stats[rec.phase] = queue_stats[rec.phase].merge(stats)
                else:
                    queue_stats[rec.phase] = stats
        return SimResult(
            threads=threads,
            total_time=total,
            phase_times=phase_times,
            queue_stats=queue_stats,
        )

    def sweep(
        self, trace: WorkTrace, thread_counts: Sequence[int]
    ) -> list[SimResult]:
        """Simulate the same trace at several thread counts (Fig. 6 x-axis)."""
        return [self.simulate(trace, p) for p in thread_counts]


def _chunk_max_for(chunk_map: Dict[int, float], threads: int) -> float:
    """Look up (or conservatively interpolate) the static-chunk maximum."""
    if threads in chunk_map:
        return chunk_map[threads]
    keys = sorted(chunk_map)
    # fall back to the nearest smaller precomputed count (its chunks are
    # larger, hence conservative); else the smallest available.
    smaller = [k for k in keys if k < threads]
    return chunk_map[smaller[-1]] if smaller else chunk_map[keys[0]]
