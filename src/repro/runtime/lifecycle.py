"""Run lifecycle: checkpointed, resumable, deadline-bounded SCC runs.

The supervisor hardens the *task*; this layer hardens the *run*.  A
:class:`RunHarness` drives the Method 1/2 phase plans through the one
phase loop, :func:`repro.core.phases.run_plan`, with these hooks,
outermost first:

* **checkpoints** — after every phase, an atomic, CRC-verified
  checkpoint of everything the next phase needs: the
  :class:`~repro.core.state.SCCState` arrays and counters, the phase-2
  work queue, the pivot RNG state (so a resumed run re-draws the exact
  pivot sequence and its labels are **bit-identical** to an
  uninterrupted run's), the run configuration and a CRC fingerprint of
  the input graph;
* **phase faults** — ``fault_plan``'s ``"phase"``-site faults, then
  ``phase_hook`` (:class:`~repro.runtime.faults.PhaseFaults`);
* **per-phase deadlines** — ``phase_timeout`` arms the SIGALRM
  watchdog plus a cooperative deadline threaded into the phase-2
  drivers; a wedged phase raises :class:`~repro.errors.
  PhaseTimeoutError` instead of hanging forever;
* **backend degradation** — when the phase-2 executor fails (pool
  broken, fork unavailable, deadline exceeded), the state rolls back
  to the phase entry and the phase retries on the next backend down
  the chain ``supervised -> processes -> serial``;
* **integrity** — on a session with checksums, the
  :class:`~repro.integrity.checksums.PhaseIntegrity` hook
  :meth:`Engine.run <repro.engine.Engine.run>` also uses verifies the
  session's and the run's arrays at every phase boundary.

A run killed at any point (power loss, OOM killer, SIGKILL) resumes
with ``RunHarness.from_checkpoint(...)`` / ``repro run --resume`` at
the first incomplete phase; a torn or bit-rotted checkpoint is detected
by its CRC and the harness falls back to the newest older checkpoint
that verifies.  Every run finishes with the self-verification gate
(:meth:`SCCState.check_invariants`); resumed, degraded or fault-drilled
runs are additionally cross-checked against an independent Tarjan run.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.session import GraphSession, graph_fingerprint
from ..errors import CheckpointError, PhaseTimeoutError, ReproError
from ..graph import CSRGraph, load_npz, save_npz
from ..ioutil import atomic_path, crc32_chunks
from .cost import CostModel, DEFAULT_COST_MODEL
from .faults import FaultPlan
from .supervisor import SupervisorConfig

__all__ = [
    "CHECKPOINT_VERSION",
    "DEGRADE_CHAIN",
    "RunReport",
    "RunHarness",
    "load_checkpoint",
    "latest_checkpoint",
    "phase_deadline",
]

PathLike = Union[str, os.PathLike]

CHECKPOINT_VERSION = 1

#: file the input graph is persisted to, once per checkpointed run.
GRAPH_FILENAME = "graph.npz"

#: next backend to try when the phase-2 executor keeps failing — the
#: one degradation ladder, shared with the service circuit breaker
#: (:mod:`repro.service.retry`): supervised -> processes -> serial.
DEGRADE_CHAIN = {
    "supervised": "processes",
    "processes": "serial",
    "threads": "serial",
}

#: checkpointed array payload, in CRC order.
_CKPT_ARRAYS = (
    "color",
    "mark",
    "labels",
    "phase_of",
    "q_colors",
    "q_has_nodes",
    "q_offsets",
    "q_nodes",
)


# ---------------------------------------------------------------------------
# Queue / graph serialization helpers
# ---------------------------------------------------------------------------
#: the graph identity in checkpoints is the same CRC fingerprint the
#: engine keys its session cache by (one definition, one meaning).
_graph_crc = graph_fingerprint


def _serialize_queue(
    queue: Sequence[Tuple[int, Optional[np.ndarray]]]
) -> dict:
    colors = np.array([c for c, _ in queue], dtype=np.int64)
    has_nodes = np.array([nd is not None for _, nd in queue], dtype=bool)
    parts = [
        np.asarray(nd, dtype=np.int64)
        if nd is not None
        else np.empty(0, np.int64)
        for _, nd in queue
    ]
    sizes = np.array([p.size for p in parts], dtype=np.int64)
    offsets = np.concatenate(
        ([0], np.cumsum(sizes, dtype=np.int64))
    )
    nodes = (
        np.concatenate(parts) if parts else np.empty(0, np.int64)
    )
    return {
        "q_colors": colors,
        "q_has_nodes": has_nodes,
        "q_offsets": offsets,
        "q_nodes": nodes,
    }


def _deserialize_queue(
    arrays: Mapping[str, np.ndarray]
) -> List[Tuple[int, Optional[np.ndarray]]]:
    colors = arrays["q_colors"]
    has_nodes = arrays["q_has_nodes"]
    offsets = arrays["q_offsets"]
    nodes = arrays["q_nodes"]
    items: List[Tuple[int, Optional[np.ndarray]]] = []
    for i in range(colors.size):
        if has_nodes[i]:
            items.append(
                (int(colors[i]), nodes[offsets[i]:offsets[i + 1]].copy())
            )
        else:
            items.append((int(colors[i]), None))
    return items


def _supervisor_to_dict(cfg: Optional[SupervisorConfig]) -> Optional[dict]:
    if cfg is None:
        return None
    # fault_plan is a test/demo-only injection channel; deliberately
    # not persisted — a resumed production run must not replay faults.
    return {
        "task_timeout": cfg.task_timeout,
        "max_task_retries": cfg.max_task_retries,
        "backoff_base": cfg.backoff_base,
        "grace": cfg.grace,
        "verify": cfg.verify,
        "always_cross_check": cfg.always_cross_check,
    }


def _supervisor_from_dict(d: Optional[dict]) -> Optional[SupervisorConfig]:
    return None if d is None else SupervisorConfig(**d)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------
def _save_checkpoint_file(
    path: PathLike, arrays: Mapping[str, np.ndarray], meta: dict
) -> None:
    meta_json = json.dumps(meta, sort_keys=True)
    crc = crc32_chunks(
        *(np.ascontiguousarray(arrays[k]).tobytes() for k in _CKPT_ARRAYS),
        meta_json.encode(),
    )
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez_compressed(
            tmp,
            meta=np.array(meta_json),
            crc=np.array(crc, dtype=np.uint32),
            **{k: arrays[k] for k in _CKPT_ARRAYS},
        )


def load_checkpoint(path: PathLike) -> Tuple[dict, dict]:
    """Load and CRC-verify one checkpoint -> ``(arrays, meta)``.

    Raises :class:`~repro.errors.CheckpointError` on any defect:
    unreadable archive, missing payload, CRC mismatch (torn write /
    bit rot), or an incompatible format version.
    """
    try:
        data = np.load(os.fspath(path), allow_pickle=False)
    except FileNotFoundError:
        raise CheckpointError("checkpoint does not exist", path=path)
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint archive ({exc})", path=path
        ) from exc
    with data:
        missing = [
            k
            for k in _CKPT_ARRAYS + ("meta", "crc")
            if k not in data.files
        ]
        if missing:
            raise CheckpointError(
                f"checkpoint missing array(s) {missing}", path=path
            )
        try:
            arrays = {k: data[k] for k in _CKPT_ARRAYS}
            meta_json = str(data["meta"][()])
            stored_crc = int(data["crc"][()])
        except Exception as exc:
            raise CheckpointError(
                f"corrupt checkpoint payload ({exc})", path=path
            ) from exc
    crc = crc32_chunks(
        *(np.ascontiguousarray(arrays[k]).tobytes() for k in _CKPT_ARRAYS),
        meta_json.encode(),
    )
    if crc != stored_crc:
        raise CheckpointError(
            f"CRC mismatch (stored {stored_crc:#010x}, computed "
            f"{crc:#010x}): torn write or bit rot",
            path=path,
        )
    meta = json.loads(meta_json)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})",
            path=path,
        )
    return arrays, meta


def latest_checkpoint(
    where: PathLike,
) -> Tuple[str, dict, dict]:
    """Find the newest *valid* checkpoint -> ``(path, arrays, meta)``.

    ``where`` may be a single checkpoint file or a checkpoint
    directory.  Corrupt candidates are skipped (the harness falls back
    to the newest older checkpoint that verifies); if nothing
    verifies, the raised :class:`CheckpointError` lists every
    candidate's defect.
    """
    where = os.fspath(where)
    if os.path.isdir(where):
        candidates = sorted(
            os.path.join(where, f)
            for f in os.listdir(where)
            if f.endswith(".ckpt.npz")
        )
    else:
        candidates = [where]
    if not candidates:
        raise CheckpointError("no checkpoint files found", path=where)
    best: Optional[Tuple[int, str, dict, dict]] = None
    defects: List[str] = []
    for path in candidates:
        try:
            arrays, meta = load_checkpoint(path)
        except CheckpointError as exc:
            defects.append(str(exc))
            continue
        key = int(meta["phase_index"])
        if best is None or key > best[0]:
            best = (key, path, arrays, meta)
    if best is None:
        raise CheckpointError(
            "no valid checkpoint among candidates: " + "; ".join(defects),
            path=where,
        )
    return best[1], best[2], best[3]


# ---------------------------------------------------------------------------
# Phase deadline watchdog
# ---------------------------------------------------------------------------
@contextmanager
def phase_deadline(seconds: Optional[float], phase: str):
    """SIGALRM watchdog bounding one unit of work (same machinery as
    the test suite's deadlock guard); raises
    :class:`~repro.errors.PhaseTimeoutError` labelled ``phase`` on
    expiry.  Shared by the run harness (per-phase deadlines), the batch
    runner (per-job deadlines) and the serve daemon (per-request
    deadlines).  No-op when unavailable (non-POSIX or a non-main
    thread) — the cooperative ``ctx['deadline']`` bound still covers
    the phase-2 drivers there."""
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _timed_out(signum, frame):
        raise PhaseTimeoutError(phase, seconds)

    old_handler = signal.signal(signal.SIGALRM, _timed_out)
    old_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, old_handler)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
@dataclass
class RunReport:
    """What one harnessed run (or resumption) observed and did."""

    method: str
    phases_run: List[str] = field(default_factory=list)
    checkpoints: List[str] = field(default_factory=list)
    resumed_from: Optional[str] = None
    resumed_phase: Optional[str] = None
    #: backend the recur phase finally ran on (None = as requested).
    degraded_to: Optional[str] = None
    degradations: int = 0
    verified: bool = False
    cross_checked: bool = False


class RunHarness:
    """Checkpointed, resumable executor for the Method 1/2 pipelines.

    Parameters mirror :func:`strongly_connected_components` for the
    covered methods; the lifecycle-specific ones are:

    checkpoint_dir:
        Directory to persist phase-boundary checkpoints (plus the
        input graph, once) into.  ``None`` disables persistence.
    phase_timeout:
        Per-phase wall-clock deadline in seconds (None = unbounded).
    fault_plan:
        Deterministic boundary fault injection (site ``"phase"``,
        index = phase position): tests/demos kill or fail the run at
        exact phase boundaries.
    phase_hook:
        ``hook(phase_name, stage)`` called at ``"pre"`` (phase entry),
        ``"mid"`` (phase done, checkpoint not yet written) and
        ``"post"`` (checkpoint published).  Test instrumentation.
    """

    def __init__(
        self,
        method: str = "method2",
        *,
        seed: int | None = 0,
        cost: CostModel = DEFAULT_COST_MODEL,
        checkpoint_dir: Optional[PathLike] = None,
        phase_timeout: Optional[float] = None,
        backend: str = "serial",
        num_threads: int = 4,
        supervisor: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        phase_hook: Optional[Callable[[str, str], None]] = None,
        verify: bool = True,
        **method_kwargs,
    ) -> None:
        if method not in ("method1", "method2"):
            raise ValueError(
                "RunHarness covers the paper pipelines 'method1' and "
                f"'method2', not {method!r}"
            )
        self.method = method
        self.seed = seed
        self.cost = cost
        self.checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if phase_timeout is not None and phase_timeout <= 0:
            raise ValueError("phase_timeout must be positive")
        self.phase_timeout = phase_timeout
        self.backend = backend
        self.num_threads = num_threads
        self.supervisor = supervisor
        self.fault_plan = fault_plan
        self.phase_hook = phase_hook
        self.verify = verify
        self.method_kwargs = dict(method_kwargs)
        if self.checkpoint_dir is not None:
            try:
                json.dumps(self.method_kwargs)
            except TypeError as exc:
                raise ValueError(
                    "checkpointed runs require JSON-serializable method "
                    f"kwargs ({exc})"
                ) from exc
        self.report: Optional[RunReport] = None

    # -- construction from a checkpoint --------------------------------
    @classmethod
    def from_checkpoint(cls, ckpt: PathLike, **overrides) -> "RunHarness":
        """Rebuild a harness from a checkpoint's recorded configuration.

        ``overrides`` replace recorded settings (e.g. a different
        ``checkpoint_dir`` or ``backend``).  Pair with :meth:`resume`::

            harness = RunHarness.from_checkpoint("ckpts/")
            result = harness.resume("ckpts/")
        """
        _, _, meta = latest_checkpoint(ckpt)
        where = os.fspath(ckpt)
        ckpt_dir = where if os.path.isdir(where) else os.path.dirname(where)
        params = dict(
            seed=meta["seed"],
            checkpoint_dir=ckpt_dir,
            phase_timeout=meta.get("phase_timeout"),
            backend=meta["backend"],
            num_threads=meta["num_threads"],
            supervisor=_supervisor_from_dict(meta.get("supervisor")),
            **meta["config"],
        )
        params.update(overrides)
        return cls(meta["method"], **params)

    # -- entry points ---------------------------------------------------
    def _session_of(
        self, g: Union[CSRGraph, GraphSession]
    ) -> Tuple[GraphSession, bool]:
        """Resolve the warm session this run executes on.

        A caller-supplied :class:`~repro.engine.session.GraphSession`
        (e.g. from an :class:`~repro.engine.Engine`) is borrowed — its
        pools and caches survive this run.  A bare graph gets an
        ephemeral session the harness tears down afterwards.
        """
        if isinstance(g, GraphSession):
            return g, False
        return GraphSession(g, cost=self.cost), True

    def run(self, g: Union[CSRGraph, GraphSession]):
        """Execute the pipeline from scratch; returns the
        :class:`~repro.core.result.SCCResult` (see ``self.report`` for
        lifecycle telemetry).

        ``g`` may be a graph or a warm
        :class:`~repro.engine.session.GraphSession`; with a session,
        the process executors reuse its cached transpose, shared
        mirror and forked worker pool.
        """
        from ..core.state import SCCState

        session, owns = self._session_of(g)
        g = session.graph
        self.report = RunReport(method=self.method)
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
            save_npz(g, os.path.join(self.checkpoint_dir, GRAPH_FILENAME))
        state = SCCState(g, seed=self.seed, cost=self.cost)
        try:
            return self._execute(state, {"session": session})
        finally:
            if owns:
                session.close()

    def resume(
        self, ckpt: PathLike, g: CSRGraph | GraphSession | None = None
    ):
        """Pick the run up at the first incomplete phase.

        ``ckpt`` is a checkpoint file or directory; with ``g=None``
        the input graph is reloaded from the ``graph.npz`` persisted
        beside the checkpoints.  The graph's CRC fingerprint (the same
        value the engine keys its session cache by), the method, and
        the phase plan must match what the checkpoint recorded —
        resuming against different data is refused, not silently
        wrong.  Like :meth:`run`, ``g`` may be a warm
        :class:`~repro.engine.session.GraphSession`.
        """
        from ..core.state import SCCState, StateSnapshot

        path, arrays, meta = latest_checkpoint(ckpt)
        if meta["method"] != self.method:
            raise CheckpointError(
                f"checkpoint is a {meta['method']!r} run but this "
                f"harness is configured for {self.method!r}",
                path=path,
            )
        if g is None:
            gpath = os.path.join(
                os.path.dirname(path), GRAPH_FILENAME
            )
            if not os.path.exists(gpath):
                raise CheckpointError(
                    f"no {GRAPH_FILENAME} beside the checkpoint; pass "
                    "the input graph explicitly",
                    path=path,
                )
            g = load_npz(gpath)
        session, owns = self._session_of(g)
        g = session.graph
        # Compare the *actual* arrays being resumed against, not the
        # session's base fingerprint: a mutable session serves a merged
        # snapshot whose CRC diverges from the frozen base the moment
        # an update lands.
        if _graph_crc(g) != meta["graph_crc"]:
            if owns:
                session.close()
            raise CheckpointError(
                "input graph does not match the checkpointed run "
                "(CRC fingerprint mismatch)",
                path=path,
            )
        if session.mutable and session.version != meta.get(
            "graph_version", 0
        ):
            if owns:
                session.close()
            raise CheckpointError(
                f"checkpoint was taken at graph version "
                f"{meta.get('graph_version', 0)} but the session has "
                f"advanced to version {session.version}; a stale "
                "checkpoint cannot be resumed against mutated state",
                path=path,
            )
        try:
            state = SCCState(g, seed=self.seed, cost=self.cost)
            state.restore(
                StateSnapshot(
                    color=np.ascontiguousarray(arrays["color"], np.int64),
                    mark=np.ascontiguousarray(arrays["mark"], bool),
                    labels=np.ascontiguousarray(arrays["labels"], np.int64),
                    phase_of=np.ascontiguousarray(
                        arrays["phase_of"], np.int8
                    ),
                    next_color=int(meta["next_color"]),
                    num_sccs=int(meta["num_sccs"]),
                )
            )
            state.set_rng_state(meta["rng_state"])
            ctx: dict = {"session": session}
            if meta["has_queue"]:
                ctx["queue"] = _deserialize_queue(arrays)
            if meta.get("ctx_backend"):
                ctx["backend"] = meta["ctx_backend"]

            self.report = RunReport(
                method=self.method,
                resumed_from=path,
                degraded_to=meta.get("ctx_backend"),
            )
            return self._execute(state, ctx, meta)
        finally:
            if owns:
                session.close()

    # -- internals ------------------------------------------------------
    def _save_checkpoint(
        self, state, ctx, plan, phase_index: int, graph_crc: int
    ) -> str:
        queue = ctx.get("queue")
        arrays = {
            "color": state.color,
            "mark": state.mark,
            "labels": state.labels,
            "phase_of": state.phase_of,
        }
        arrays.update(_serialize_queue(queue if queue is not None else []))
        meta = {
            "version": CHECKPOINT_VERSION,
            "method": self.method,
            "phase_index": phase_index,
            "phase_name": plan[phase_index].name,
            "plan": [ph.name for ph in plan],
            "num_sccs": int(state.num_sccs),
            "next_color": int(state.color_watermark()),
            "rng_state": state.rng_state(),
            # graph_crc doubles as the engine's session fingerprint
            # (one identity, two consumers — see engine.session).
            "graph_crc": graph_crc,
            # Mutation epoch of the session the run executed on; 0 for
            # frozen graphs.  Resume refuses a checkpoint whose epoch
            # no longer matches a mutable session (version fencing).
            "graph_version": (
                ctx["session"].version if ctx.get("session") else 0
            ),
            "has_queue": queue is not None,
            "ctx_backend": ctx.get("backend"),
            "seed": self.seed,
            "backend": self.backend,
            "num_threads": self.num_threads,
            "phase_timeout": self.phase_timeout,
            "supervisor": _supervisor_to_dict(self.supervisor),
            "config": self.method_kwargs,
            "kernels": self._kernel_backend(),
        }
        path = os.path.join(
            self.checkpoint_dir,
            f"phase-{phase_index:02d}-{plan[phase_index].name}.ckpt.npz",
        )
        _save_checkpoint_file(path, arrays, meta)
        return path

    @staticmethod
    def _kernel_backend() -> str:
        from ..kernels import backend_info

        return str(backend_info()["resolved"])

    def _execute(self, state, ctx, meta: Optional[dict] = None):
        """Run the plan on ``state`` — from the start, or after the
        phase a checkpoint's ``meta`` recorded — and verify the end
        result."""
        from ..core.phases import method_phases, run_plan
        from ..core.result import SCCResult

        plan = method_phases(
            self.method,
            backend=self.backend,
            num_threads=self.num_threads,
            supervisor=self.supervisor,
            **self.method_kwargs,
        )
        start = 0
        report = self.report
        if meta is not None:
            if [ph.name for ph in plan] != list(meta["plan"]):
                raise CheckpointError(
                    f"phase plan mismatch: checkpoint has {meta['plan']}, "
                    f"current configuration builds "
                    f"{[ph.name for ph in plan]}",
                    path=report.resumed_from,
                )
            start = int(meta["phase_index"]) + 1
            if start < len(plan):
                report.resumed_phase = plan[start].name
        session = ctx["session"]
        hooks = [_Checkpoints(self, plan, _graph_crc(state.graph))]
        if self.fault_plan is not None or self.phase_hook is not None:
            from .faults import PhaseFaults

            hooks.append(PhaseFaults(self.fault_plan, self.phase_hook))
        if self.phase_timeout is not None:
            hooks.append(_PhaseTimeout(self.phase_timeout, self.backend))
        hooks.append(_Degrade(report, self.backend))
        if session.checksums is not None:
            from ..integrity.checksums import PhaseIntegrity

            hooks.append(PhaseIntegrity(session, state))
        run_plan(state, plan, ctx, hooks=hooks, start=start)

        state.check_done()
        if self.verify:
            cross = (
                report.degradations > 0
                or report.resumed_from is not None
                or self.fault_plan is not None
            )
            state.check_invariants(
                require_complete=True, cross_check=cross
            )
            report.verified = True
            report.cross_checked = cross
        return SCCResult(
            labels=state.labels,
            method=self.method,
            profile=state.profile,
            phase_of=state.phase_of,
        )


# ---------------------------------------------------------------------------
# Phase-plan hooks of the harness (see repro.core.phases.run_plan)
# ---------------------------------------------------------------------------
class _Checkpoints:
    """Record each finished phase and publish its checkpoint.  Listed
    outermost, so its ``mid`` runs after every other hook's ``mid``
    and before any ``post``."""

    def __init__(self, harness: RunHarness, plan, graph_crc: int) -> None:
        self.harness = harness
        self.plan = plan
        self.graph_crc = graph_crc

    def mid(self, i, ph, state, ctx) -> None:
        h = self.harness
        h.report.phases_run.append(ph.name)
        if h.checkpoint_dir is None:
            return
        with state.profile.wall_timer("checkpoint"):
            path = h._save_checkpoint(state, ctx, self.plan, i, self.graph_crc)
        h.report.checkpoints.append(path)
        state.profile.bump("lifecycle_checkpoints")


class _PhaseTimeout:
    """Bound every attempt of a phase by ``seconds``: a cooperative
    ``ctx["deadline"]`` for the phase-2 drivers plus the SIGALRM
    watchdog."""

    def __init__(self, seconds: float, backend: str) -> None:
        self.seconds = seconds
        self.backend = backend

    @contextmanager
    def attempt(self, i, ph, state, ctx):
        ctx["deadline"] = time.monotonic() + self.seconds
        # The threads backend shares the state arrays with its
        # workers; only its cooperative deadline (which joins the
        # workers before raising) may interrupt it.  The SIGALRM
        # watchdog covers everything else.
        alarm = self.seconds
        if ph.uses_backend and ctx.get("backend", self.backend) == "threads":
            alarm = None
        try:
            with phase_deadline(alarm, ph.name):
                yield
        finally:
            ctx.pop("deadline", None)


class _Degrade:
    """When a ``uses_backend`` phase fails, roll the state, the RNG
    and the work queue back to the phase entry and retry it on the
    next backend down :data:`DEGRADE_CHAIN`."""

    def __init__(self, report: RunReport, backend: str) -> None:
        self.report = report
        self.backend = backend
        self.entry = None

    def pre(self, i, ph, state, ctx) -> None:
        # Only these phases can degrade, so only they pay for a copy.
        if ph.uses_backend:
            self.entry = (state.snapshot(), state.rng_state(), ctx.get("queue"))

    def retry(self, i, ph, state, ctx, exc) -> bool:
        if not ph.uses_backend:
            return False
        degraded = DEGRADE_CHAIN.get(ctx.get("backend", self.backend))
        if degraded is None:
            return False
        snap, rng, queue = self.entry
        state.restore(snap)
        state.set_rng_state(rng)
        if queue is not None:
            ctx["queue"] = queue
        ctx["backend"] = degraded
        self.report.degradations += 1
        self.report.degraded_to = degraded
        state.profile.bump("lifecycle_degradations")
        state.profile.bump("lifecycle_degrade_" + type(exc).__name__.lower())
        return True
