"""Deterministic fault injection for the execution backends.

A :class:`FaultPlan` is a seedable, fully deterministic description of
*which* task executions fail and *how*: a worker process can be killed
mid-task (``crash``), a task can be delayed past its deadline
(``hang``), an exception can be raised inside the task body
(``raise``), a shared-memory label write can be silently corrupted
(``poison``), or seeded bit flips can be driven into a named warm
array (``corrupt`` — the silent-data-corruption drill the integrity
tier detects).  The plan is matched against ``(site, index, attempt)``
triples that the *dispatcher* assigns — not against per-process event
counters — so injection stays deterministic across forked workers,
pool rebuilds and retries.

Injection sites:

* ``"task"`` — the phase-2 Recur-FWBW task kernel
  (:func:`repro.runtime.mp_backend._exec_task`); the supervisor or
  backend numbers every dispatch with a monotone sequence id.
* ``"queue"`` — the threaded :class:`~repro.runtime.workqueue.
  TwoLevelWorkQueue` worker loop (tasks numbered in start order).
* ``"phase"`` — a phase plan run by :meth:`Engine.run
  <repro.engine.Engine.run>` or the run-lifecycle harness
  (:class:`~repro.runtime.lifecycle.RunHarness`), through the
  :class:`PhaseFaults` hook; the index is the phase position in the
  plan and the stage maps to the checkpoint boundary (``"pre"`` =
  phase entry, ``"mid"`` = phase done but checkpoint not yet written,
  ``"post"`` = checkpoint published) — the kill-and-resume tests
  crash the run at exact boundaries.
* ``"job"`` — the batch runner (:func:`repro.engine.batch.run_batch`);
  the index is the job position in the manifest, and the attempt
  number is the job's retry attempt, so a transient fault with the
  default ``times=1`` fails the first attempt and lets the retry
  policy's second attempt through.  ``crash`` is downgraded to
  ``raise`` here (``thread_site``) — the drill must fail the job, not
  the batch process.
* ``"request"`` — the serve daemon (:mod:`repro.service.server`); the
  index is the request admission sequence number, attempts count the
  retry policy's attempts.  Also a ``thread_site``: requests execute
  on service threads.
* ``"stream"`` — the live-ingestion sources (:mod:`repro.ingest.
  sources`); the index is the source's monotone read sequence number,
  so a plan like ``disconnect@3,garbage@7`` drops the feed on exactly
  the 4th read and injects garbage bytes on the 8th, every run.  Only
  the :data:`NETWORK_KINDS` fire here, and they are *applied by the
  source itself* (via :meth:`FaultPlan.network`), never by
  :meth:`FaultPlan.fire` — a disconnect is a simulated peer failure
  the source must absorb, not an exception the harness throws.

Each fault fires at one *stage* of the task lifecycle:

* ``"pre"`` — before any shared-state mutation (trivially retry-safe),
* ``"mid"`` — after the FW/BW recolouring but before the SCC commit
  (retry requires colour repair; see :mod:`repro.runtime.supervisor`),
* ``"post"`` — after the commit but before the children reach the
  master (the SCC survives; the child partitions need repair).

The hook is zero-overhead when off: executors hold a plan reference
that is ``None`` in normal runs and guard every call site with a
single ``is not None`` test.  A module-level plan can also be armed
with :func:`install_plan` (used by the threaded work queue, which has
no per-run configuration channel) — again a single global read when
disarmed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from functools import partialmethod
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "NETWORK_KINDS",
    "FAULT_STAGES",
    "CORRUPTIBLE_ARRAYS",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "apply_corruption",
    "arm_corruptions",
    "corruption_target",
    "split_fault_plan",
    "PhaseFaults",
    "install_plan",
    "clear_plan",
    "active_plan",
    "injected",
]

#: network failure modes (applied by stream sources, never by
#: :meth:`FaultPlan.fire`): drop the connection, stall the read past
#: the watchdog, inject garbage bytes, re-deliver the previous chunk.
NETWORK_KINDS = ("disconnect", "stall", "garbage", "dup")

#: supported failure modes.
FAULT_KINDS = (
    "crash", "hang", "raise", "poison", "corrupt",
) + NETWORK_KINDS

#: array names a ``corrupt`` fault may target (warm session state the
#: integrity tier seals; see :mod:`repro.integrity`).
CORRUPTIBLE_ARRAYS = (
    "indptr",
    "indices",
    "in_indptr",
    "in_indices",
    "labels",
    "color",
)
#: task-lifecycle points at which a fault can fire.
FAULT_STAGES = ("pre", "mid", "post")

#: exit status used by an injected worker crash (recognisable in logs).
CRASH_EXIT_CODE = 87


class FaultInjected(RuntimeError):
    """Raised inside a task body by a ``raise``-kind fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    kind: one of :data:`FAULT_KINDS`.
    site: injection site (``"task"`` or ``"queue"``).
    index: dispatcher-assigned task sequence id this fault targets.
    stage: lifecycle point (``"pre"``/``"mid"``/``"post"``); ignored
        for ``poison``, which always corrupts the commit.
    times: number of *attempts* of the target task that fail — with
        the default 1 the first retry succeeds; set it above the
        supervisor's retry budget to force degradation.
    hang_seconds: sleep duration for ``hang`` faults.  Must exceed the
        supervisor's task timeout to register as a hang.
    array: for ``corrupt`` faults, the warm array to flip bits in
        (one of :data:`CORRUPTIBLE_ARRAYS`); ignored otherwise.
    bit_flips: for ``corrupt`` faults, how many bits to flip.
    flip_seed: for ``corrupt`` faults, the RNG seed choosing *which*
        bits — same seed, same flips, every run.
    """

    kind: str
    site: str = "task"
    index: int = 0
    stage: str = "pre"
    times: int = 1
    hang_seconds: float = 30.0
    array: str = "indices"
    bit_flips: int = 1
    flip_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.stage not in FAULT_STAGES:
            raise ValueError(f"unknown fault stage {self.stage!r}")
        if self.index < 0 or self.times < 1:
            raise ValueError("index must be >= 0 and times >= 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.kind == "corrupt":
            if self.array not in CORRUPTIBLE_ARRAYS:
                raise ValueError(
                    f"corrupt target {self.array!r} is not one of "
                    f"{CORRUPTIBLE_ARRAYS}"
                )
            if self.bit_flips < 1:
                raise ValueError("bit_flips must be >= 1")
            if self.array in ("labels", "color") and self.site != "phase":
                # run-owned state only exists between phase boundaries;
                # any other site would be a silent no-op.
                raise ValueError(
                    f"corrupt target {self.array!r} requires "
                    f"site='phase' (got {self.site!r})"
                )


class FaultPlan:
    """An immutable, deterministic collection of :class:`FaultSpec`."""

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    # -- construction --------------------------------------------------
    @classmethod
    def single(cls, kind: str, index: int = 0, **kwargs) -> "FaultPlan":
        """Plan with exactly one fault (the common test shape)."""
        return cls([FaultSpec(kind=kind, index=index, **kwargs)])

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        n_faults: int = 3,
        max_index: int = 16,
        site: str = "task",
        kinds: Sequence[str] = ("crash", "hang", "raise"),
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Seeded random plan: same seed, same faults, every run."""
        rng = np.random.default_rng(seed)
        specs = [
            FaultSpec(
                kind=str(rng.choice(list(kinds))),
                site=site,
                index=int(rng.integers(0, max_index)),
                stage=str(rng.choice(FAULT_STAGES)),
                hang_seconds=hang_seconds,
            )
            for _ in range(n_faults)
        ]
        return cls(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI plan string.

        Two formats: a JSON list of spec objects, or a compact
        comma-separated ``kind@index[:stage]`` list, e.g.
        ``"crash@2,hang@0:mid,poison@5"``.  A ``corrupt`` kind names
        its target array with a dot — ``corrupt.indptr@0:post`` flips
        one seeded bit in the warm ``indptr`` array.  Run-owned arrays
        (``corrupt.labels@1:post``) imply the ``"phase"`` site: they
        only exist between phase boundaries, so the index is the phase
        position and the flip fires inside :meth:`Engine.run`.
        """
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("["):
            return cls(FaultSpec(**obj) for obj in json.loads(text))
        specs: List[FaultSpec] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "@" not in part:
                raise ValueError(
                    f"bad fault spec {part!r}: expected kind@index[:stage]"
                )
            kind, _, where = part.partition("@")
            kind, _, array = kind.strip().partition(".")
            idx_str, _, stage = where.partition(":")
            extra = {"array": array} if array else {}
            if array in ("labels", "color"):
                extra["site"] = "phase"
            specs.append(
                FaultSpec(
                    kind=kind,
                    index=int(idx_str),
                    stage=stage.strip() or "pre",
                    **extra,
                )
            )
        return cls(specs)

    def pinned(self, site: str) -> "FaultPlan":
        """Every spec moved to ``site``, except ``"phase"``-site
        ``corrupt`` specs — the only legal site for run-owned
        labels/color — which keep firing at phase boundaries."""
        return FaultPlan(
            s
            if s.kind == "corrupt" and s.site == "phase"
            else replace(s, site=site)
            for s in self.specs
        )

    # -- matching ------------------------------------------------------
    def match(
        self, site: str, index: int, attempt: int = 0
    ) -> Optional[FaultSpec]:
        """The spec armed for this ``(site, index, attempt)``, if any."""
        for spec in self.specs:
            if (
                spec.site == site
                and spec.index == index
                and attempt < spec.times
            ):
                return spec
        return None

    def fire(
        self,
        site: str,
        index: int,
        *,
        stage: str,
        attempt: int = 0,
        thread_site: bool = False,
    ) -> None:
        """Execute any crash/hang/raise fault armed for this point.

        ``thread_site=True`` (the threaded work queue) downgrades
        ``crash`` to ``raise`` — killing the whole interpreter to
        simulate one worker death would take the test runner with it.
        """
        spec = self.match(site, index, attempt)
        if (
            spec is None
            or spec.stage != stage
            or spec.kind in ("poison", "corrupt")
            or spec.kind in NETWORK_KINDS
        ):
            # poison corrupts the commit, corrupt flips warm arrays,
            # network kinds degrade a stream source's reads — all are
            # applied by their own call sites, never here.
            return
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            return
        if spec.kind == "crash" and not thread_site:
            os._exit(CRASH_EXIT_CODE)
        raise FaultInjected(
            f"injected {spec.kind} at {site}[{index}] "
            f"stage={stage} attempt={attempt}"
        )

    def network(
        self, site: str, index: int, attempt: int = 0
    ) -> Optional[FaultSpec]:
        """The network-kind spec armed for this read, if any.

        Stream sources call this once per read with their monotone
        read counter; a hit tells the source to degrade *itself* —
        drop and redial (``disconnect``), sleep ``hang_seconds``
        so the watchdog sees a stalled feed (``stall``), splice
        garbage bytes into the chunk (``garbage``), or re-deliver the
        previous chunk at its old offset (``dup``) so the at-least-
        once machinery downstream has something to deduplicate.
        """
        spec = self.match(site, index, attempt)
        if spec is not None and spec.kind in NETWORK_KINDS:
            return spec
        return None

    def poison(self, site: str, index: int, attempt: int = 0) -> bool:
        """True when this task's commit should be corrupted."""
        spec = self.match(site, index, attempt)
        return spec is not None and spec.kind == "poison"

    def corruptions(
        self,
        site: str,
        index: int,
        attempt: int = 0,
        *,
        stage: Optional[str] = None,
    ) -> tuple:
        """Every ``corrupt`` spec armed for this ``(site, index,
        attempt)`` (optionally filtered by stage).

        Unlike :meth:`match` this returns *all* hits: one drill may
        rot several arrays at the same boundary.  The caller applies
        them with :func:`apply_corruption` against the arrays it owns.
        """
        return tuple(
            s
            for s in self.specs
            if s.kind == "corrupt"
            and s.site == site
            and s.index == index
            and attempt < s.times
            and (stage is None or s.stage == stage)
        )

    # -- misc ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ",".join(
            f"{s.kind}@{s.site}:{s.index}:{s.stage}" for s in self.specs
        )
        return f"FaultPlan({inner})"


def apply_corruption(array: np.ndarray, spec: FaultSpec) -> List[int]:
    """Flip ``spec.bit_flips`` seeded bits in ``array``'s buffer.

    The flips go through the array's *ultimate base* — warm graph
    arrays are read-only views over writeable owners (see
    :mod:`repro.graph.csr`), exactly the shape real rot takes: the
    bytes change underneath every guard except a checksum.  Bit
    positions are drawn from ``default_rng(spec.flip_seed)``, so the
    same spec flips the same bits every run.  Returns the flipped bit
    positions (empty for a zero-byte array — nothing to rot).
    """
    if spec.kind != "corrupt":
        raise ValueError(f"not a corrupt spec: {spec.kind!r}")
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    if not base.flags.writeable:  # pragma: no cover - defensive
        raise ValueError(
            f"cannot corrupt {spec.array!r}: owning buffer is read-only"
        )
    raw = base.view(np.uint8).reshape(-1)
    nbits = int(raw.size) * 8
    if nbits == 0:
        return []
    rng = np.random.default_rng(spec.flip_seed)
    positions = rng.integers(0, nbits, size=spec.bit_flips)
    for pos in positions:
        raw[int(pos) // 8] ^= np.uint8(1 << (int(pos) % 8))
    return [int(p) for p in positions]


def corruption_target(session, name: str, state=None) -> np.ndarray:
    """The live array a ``corrupt`` spec named ``name`` flips: the
    run's ``labels``/``color`` on ``state``, else the warm session
    array (its transpose is built first)."""
    if name in ("labels", "color"):
        return getattr(state, name)
    if name in ("in_indptr", "in_indices"):
        session.ensure_transpose()
    return session.integrity_arrays()[name]


def split_fault_plan(
    text: Optional[str],
) -> Tuple[Tuple[FaultSpec, ...], Optional[FaultPlan]]:
    """A job's or request's own plan string -> ``(corrupt specs, the
    rest or None)``; only the supervised backend recovers from the
    rest, so callers route it into a ``SupervisorConfig``."""
    specs = FaultPlan.parse(text).specs if text else ()
    rest = [s for s in specs if s.kind != "corrupt"]
    corrupt = tuple(s for s in specs if s.kind == "corrupt")
    return corrupt, (FaultPlan(rest) if rest else None)


def arm_corruptions(
    session,
    attempt: int,
    carried: Sequence[FaultSpec] = (),
    plan: Optional[FaultPlan] = None,
    *,
    site: str,
    index: int,
) -> Optional[FaultPlan]:
    """Apply one attempt's ``corrupt`` drill to a warm session.

    ``carried`` specs come from the job or request itself and hit it
    whatever their site and index; the batch- or service-wide
    ``plan`` hits by ``(site, index)``, and its ``"phase"``-site specs
    hit every run.  ``times`` bounds the attempts hit, so the default
    1 lets a retry's rebuilt session through clean.  Non-phase specs
    flip the session now; the phase-site ones are returned as the plan
    :meth:`Engine.run <repro.engine.Engine.run>` fires at phase
    boundaries (``None`` when there are none).
    """
    armed = list(carried)
    if plan is not None:
        armed += plan.corruptions(site, index, attempt)
        armed += [s for s in plan.specs if s.site == "phase"]
    phase = []
    for spec in armed:
        if spec.kind != "corrupt" or attempt >= spec.times:
            continue
        if spec.site == "phase":
            phase.append(spec)
        else:
            apply_corruption(corruption_target(session, spec.array), spec)
    return FaultPlan(phase) if phase else None


class PhaseFaults:
    """Phase-plan hook (:func:`repro.core.phases.run_plan`) for the
    ``"phase"`` site: at each stage it fires the plan's crash, hang
    and raise faults, flips its ``corrupt`` specs into the session's
    or the run's arrays, then calls ``phase_hook(phase_name, stage)``.
    """

    def __init__(self, plan: Optional[FaultPlan], phase_hook=None) -> None:
        self.plan = plan
        self.phase_hook = phase_hook

    def _at(self, stage: str, i: int, ph, state, ctx) -> None:
        if self.plan is not None:
            self.plan.fire("phase", i, stage=stage)
            for spec in self.plan.corruptions("phase", i, stage=stage):
                target = corruption_target(ctx["session"], spec.array, state)
                apply_corruption(target, spec)
        if self.phase_hook is not None:
            self.phase_hook(ph.name, stage)

    pre = partialmethod(_at, "pre")
    mid = partialmethod(_at, "mid")
    post = partialmethod(_at, "post")


# ---------------------------------------------------------------------------
# Module-level arming (used by executors with no per-run config channel).
# ---------------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` globally (picked up by the threaded work queue)."""
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    """Disarm the global plan (restores the zero-overhead path)."""
    global _PLAN
    _PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The globally armed plan, or ``None`` when injection is off."""
    return _PLAN


class injected:
    """Context manager arming a plan for the duration of a block."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        clear_plan()
