"""Cluster model: replaying BSP superstep traces.

A distributed run is a sequence of supersteps; each records per-rank
compute work (edge-units, as in the shared-memory runtime) and per-rank
message volume (one unit per node-id crossing a partition boundary).
The cluster charges the classic BSP cost per superstep:

    t = max_r(work_r) / rank_throughput
      + alpha                       (barrier + message startup)
      + beta * max_r(bytes sent or received by r)

Default constants model a commodity cluster of small (4-core-class)
nodes on an HPC interconnect: ``rank_throughput=4``, sub-microsecond
barriers (``alpha=500`` edge-units) and a network moving ids at about
half the speed a core inspects edges (``beta=0.5``).  Two failure
modes emerge exactly as in practice: small-world graphs are
**cut-bound** (no partitioner gets their edge cut below ~50 %, so
scaling stalls at a comm floor) and high-diameter graphs are
**latency-bound** (hundreds of BFS/WCC supersteps multiply alpha —
the distributed mirror of the shared-memory barrier pathology the
paper describes for CA-road).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "ClusterConfig",
    "Superstep",
    "DistTrace",
    "Cluster",
    "RankFailure",
    "CheckpointPolicy",
    "FaultySimResult",
    "sweep_checkpoint_interval",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Per-rank speed and interconnect constants (edge-units)."""

    #: compute throughput of one rank (edge-units per unit time);
    #: default: a commodity 4-core-class node.
    rank_throughput: float = 4.0
    #: per-superstep latency: barrier + message startup.
    alpha: float = 500.0
    #: per-id transfer cost.
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.rank_throughput <= 0:
            raise ValueError("rank_throughput must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")


@dataclass(frozen=True)
class Superstep:
    """One BSP superstep: per-rank compute and communication."""

    phase: str
    #: edge-units of compute per rank.
    work: np.ndarray
    #: ids sent per rank (received volume mirrors sent under our
    #: owner-directed sends, so one array suffices for the max term).
    sent: np.ndarray

    def __post_init__(self) -> None:
        if self.work.shape != self.sent.shape:
            raise ValueError("work and sent must have one entry per rank")


class DistTrace:
    """Append-only superstep sequence with per-phase accounting."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.steps: List[Superstep] = []

    def superstep(
        self,
        phase: str,
        work: np.ndarray | Sequence[float],
        sent: np.ndarray | Sequence[float] | None = None,
    ) -> None:
        work = np.asarray(work, dtype=np.float64)
        if sent is None:
            sent = np.zeros_like(work)
        sent = np.asarray(sent, dtype=np.float64)
        if work.shape != (self.num_ranks,):
            raise ValueError(
                f"work must have {self.num_ranks} entries, got {work.shape}"
            )
        self.steps.append(Superstep(phase=phase, work=work, sent=sent))

    def total_work(self) -> float:
        return float(sum(s.work.sum() for s in self.steps))

    def total_messages(self) -> float:
        return float(sum(s.sent.sum() for s in self.steps))


@dataclass(frozen=True)
class RankFailure:
    """One rank lost while executing superstep ``superstep``."""

    superstep: int
    rank: int = 0

    def __post_init__(self) -> None:
        if self.superstep < 0 or self.rank < 0:
            raise ValueError("superstep and rank must be non-negative")


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint-every-C-supersteps with explicit costs.

    ``every=0`` disables checkpointing (recovery = full rerun).
    ``cost`` is the time to quiesce and write one checkpoint at a
    barrier; ``restart_cost`` the time to respawn a rank and load the
    last checkpoint.  Both are in the same time units the cluster
    model produces (edge-units / rank_throughput).
    """

    every: int = 0
    cost: float = 1000.0
    restart_cost: float = 2000.0

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("every must be >= 0 (0 = no checkpoints)")
        if self.cost < 0 or self.restart_cost < 0:
            raise ValueError("costs must be non-negative")


@dataclass
class FaultySimResult:
    """Outcome of a failure-injected replay."""

    base: "DistSimResult"
    total_time: float
    checkpoint_time: float
    recompute_time: float
    restart_time: float
    checkpoints_taken: int
    failures: int

    @property
    def overhead(self) -> float:
        """Slowdown versus the failure-free replay (1.0 = free)."""
        if self.base.total_time == 0:
            return 1.0
        return self.total_time / self.base.total_time


def sweep_checkpoint_interval(
    cluster: "Cluster",
    trace: "DistTrace",
    failures: Sequence[RankFailure],
    intervals: Sequence[int],
    *,
    cost: float = 1000.0,
    restart_cost: float = 2000.0,
) -> Dict[int, FaultySimResult]:
    """Replay under each checkpoint interval; the classic U-curve.

    Small intervals pay checkpoint overhead every few supersteps; large
    ones (or 0 = none) pay long recomputation after a failure.  The
    minimum of ``total_time`` over ``intervals`` is the tuned
    recover-vs-rerun operating point for this trace + failure load.
    """
    out: Dict[int, FaultySimResult] = {}
    for every in intervals:
        policy = CheckpointPolicy(
            every=every, cost=cost, restart_cost=restart_cost
        )
        out[int(every)] = cluster.simulate_with_failures(
            trace, failures, policy
        )
    return out


@dataclass
class DistSimResult:
    """Replay outcome for one cluster configuration."""

    num_ranks: int
    total_time: float
    compute_time: float
    comm_time: float
    phase_times: Dict[str, float] = field(default_factory=dict)

    @property
    def comm_fraction(self) -> float:
        return self.comm_time / self.total_time if self.total_time else 0.0


class Cluster:
    """Replays a :class:`DistTrace` under a :class:`ClusterConfig`."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()

    def simulate(self, trace: DistTrace) -> DistSimResult:
        cfg = self.config
        total = compute = comm = 0.0
        phase_times: Dict[str, float] = {}
        for step in trace.steps:
            t_compute = float(step.work.max()) / cfg.rank_throughput
            # single-rank runs pay no interconnect costs
            if trace.num_ranks > 1:
                t_comm = cfg.alpha + cfg.beta * float(step.sent.max())
            else:
                t_comm = 0.0
            total += t_compute + t_comm
            compute += t_compute
            comm += t_comm
            phase_times[step.phase] = (
                phase_times.get(step.phase, 0.0) + t_compute + t_comm
            )
        return DistSimResult(
            num_ranks=trace.num_ranks,
            total_time=total,
            compute_time=compute,
            comm_time=comm,
            phase_times=phase_times,
        )

    # ------------------------------------------------------------------
    def _step_time(self, trace: DistTrace, step: Superstep) -> float:
        cfg = self.config
        t = float(step.work.max()) / cfg.rank_throughput
        if trace.num_ranks > 1:
            t += cfg.alpha + cfg.beta * float(step.sent.max())
        return t

    def simulate_with_failures(
        self,
        trace: DistTrace,
        failures: Sequence[RankFailure],
        policy: "CheckpointPolicy | None" = None,
    ) -> "FaultySimResult":
        """Replay ``trace`` under rank failures and a checkpoint policy.

        The BSP structure makes the recovery model exact: state is
        well-defined only at superstep barriers, so a checkpoint taken
        after superstep ``s`` lets a failed run resume at ``s + 1``.  A
        rank lost *during* superstep ``s`` voids that superstep; the
        cluster pays ``restart_cost`` (respawn + state load), then
        recomputes every superstep since the last checkpoint, ``s``
        included.  Without checkpoints recovery degenerates to a full
        rerun from superstep 0 — the recover-vs-rerun tradeoff the
        shared-memory supervisor faces per task, surfaced at cluster
        scale per superstep.

        ``failures`` are applied in superstep order; each recovers from
        the latest checkpoint taken before it.  A failure index past
        the end of the trace is ignored (the run already finished).
        """
        policy = policy or CheckpointPolicy()
        steps = trace.steps
        times = [self._step_time(trace, s) for s in steps]
        by_step: Dict[int, int] = {}
        for f in failures:
            if 0 <= f.superstep < len(steps):
                by_step[f.superstep] = by_step.get(f.superstep, 0) + 1

        base_time = float(sum(times))
        checkpoint_time = recompute_time = restart_time = 0.0
        checkpoints = 0
        last_checkpoint = 0  # resume point: first superstep NOT covered
        prefix = np.concatenate(([0.0], np.cumsum(times)))
        for s in range(len(steps)):
            for _ in range(by_step.get(s, 0)):
                restart_time += policy.restart_cost
                # recompute supersteps [last_checkpoint, s] — they ran
                # once already (their time is in base/recompute) and
                # must run again after the rollback.
                recompute_time += float(prefix[s + 1] - prefix[last_checkpoint])
            if policy.every and (s + 1) % policy.every == 0:
                checkpoint_time += policy.cost
                checkpoints += 1
                last_checkpoint = s + 1
        total = base_time + checkpoint_time + recompute_time + restart_time
        return FaultySimResult(
            base=self.simulate(trace),
            total_time=total,
            checkpoint_time=checkpoint_time,
            recompute_time=recompute_time,
            restart_time=restart_time,
            checkpoints_taken=checkpoints,
            failures=int(sum(by_step.values())),
        )
