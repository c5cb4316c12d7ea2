"""GIL-free execution: phase-2 tasks on worker *processes*.

The calibration note for this reproduction says it plainly: "GIL
blocks shared-memory parallel BFS".  Threads cannot run the paper's
algorithms in parallel under CPython, but processes sharing their
mutable state through :mod:`multiprocessing.shared_memory` can — the
``Color``/``mark``/``labels`` arrays live in a shared segment, worker
processes execute Recur-FWBW tasks against them exactly as the
paper's OpenMP threads would, and the disjoint-partition property
(tasks own disjoint colours) provides the same race freedom.

Scope: the task-parallel phase 2 (where the paper's work queue lives).
Phase 1's data-parallel kernels are single large vectorized NumPy
calls, which already release the GIL internally where it matters.

The shared-memory mirrors, worker-context arming and pool lifecycle
live in :mod:`repro.engine.shm` / :mod:`repro.engine.pool` (shared
with the supervised backend); this module owns only the task kernel
(:func:`_exec_task`) and the plain breadth-first dispatch loop.  A
warm :class:`~repro.engine.session.GraphSession` can supply the mirror
and an already-forked pool, in which case a run pays no shm setup and
no fork at all.

Requires a ``fork`` start method (the read-only CSR graph is inherited
copy-on-write; only the mutable arrays use explicit shared memory).
On this repo's single-core CI box the backend yields no speedup — the
point is that the *code path* is real and tested, not simulated.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.pool import WorkerPool, fork_available
from ..engine.shm import (
    WORKER_CTX,
    SharedStateMirror,
    arm_worker_context,
    shm_array,
)

__all__ = ["run_recur_phase_processes", "fork_available"]

# Historical names, kept importable for existing callers and tests;
# both refer to the canonical objects in repro.engine.shm.
_WORKER_CTX: dict = WORKER_CTX
_shm_array = shm_array


def _exec_task(
    color_value: int,
    nodes: Optional[np.ndarray],
    seq: int = -1,
    attempt: int = 0,
    colors: Optional[Tuple[int, int, int]] = None,
):
    """Run one Recur-FWBW task inside a worker process.

    Reads/writes the shared arrays set up in ``_WORKER_CTX``; returns
    ``(children, task_cost, log_entry)`` to the master.

    ``seq`` is the dispatcher-assigned sequence id (used only to match
    injected faults deterministically), ``attempt`` the retry count,
    and ``colors`` an optional master-allocated ``(cfw, cbw, cscc)``
    triple — the supervisor pre-allocates it so that after a mid-task
    worker death it knows exactly which colours may have leaked into
    the shared array and can repair the partition before retrying.
    """
    ctx = _WORKER_CTX
    g = ctx["graph"]
    color: np.ndarray = ctx["color"]
    mark: np.ndarray = ctx["mark"]
    labels: np.ndarray = ctx["labels"]
    phase_of: np.ndarray = ctx["phase_of"]
    scc_counter = ctx["scc_counter"]
    color_counter = ctx["color_counter"]
    cost = ctx["cost"]
    phase_id = ctx["phase_id"]
    faults = ctx.get("faults")

    from .. import kernels

    backend = ctx.get("kernel_backend")
    if backend is not None:
        # Fork inheritance already carries the parent's choice; setting
        # it explicitly keeps the worker honest even if the pool ever
        # re-execs instead of forking.
        kernels.set_backend(backend)
    dfs_collect_colored = kernels.dfs_collect_colored

    if faults is not None:
        faults.fire("task", seq, stage="pre", attempt=attempt)

    c = color_value
    if nodes is None:
        candidates = np.flatnonzero(color == c)
        select_cost = cost.stream(nodes=color.shape[0])
    else:
        candidates = nodes[color[nodes] == c]
        select_cost = cost.stream(nodes=nodes.size)
    if candidates.size == 0:
        return [], select_cost, None

    pivot = int(candidates[0])  # deterministic within a task
    if colors is None:
        # Same skip-c allocation sequence as every other executor
        # (see state.skip_colour_triple), under the shared counter lock.
        from ..core.state import skip_colour_triple

        with color_counter.get_lock():
            (cfw, cbw, cscc), color_counter.value = skip_colour_triple(
                color_counter.value, c
            )
    else:
        cfw, cbw, cscc = colors

    fw_collected, fw_edges = dfs_collect_colored(
        g.indptr, g.indices, pivot, {c: cfw}, color
    )
    bw_collected, bw_edges = dfs_collect_colored(
        g.in_indptr, g.in_indices, pivot, {c: cbw, cfw: cscc}, color
    )
    if faults is not None:
        # "mid": the partition is recoloured but the SCC not committed.
        faults.fire("task", seq, stage="mid", attempt=attempt)
    scc_nodes = np.asarray(bw_collected[cscc], dtype=np.int64)
    with scc_counter.get_lock():
        sid = scc_counter.value
        scc_counter.value += 1
    labels[scc_nodes] = sid
    mark[scc_nodes] = True
    color[scc_nodes] = -1  # DONE_COLOR
    phase_of[scc_nodes] = phase_id
    if faults is not None and faults.poison("task", seq, attempt):
        # Corrupt the committed label write: detach the pivot from its
        # SCC-mates (or merge a singleton into a foreign SCC) — wrong
        # either way, and only a label-level verifier can tell.
        labels[pivot] = sid + 1 if sid == 0 else sid - 1

    fw_all = np.asarray(fw_collected[cfw], dtype=np.int64)
    fw_only = fw_all[color[fw_all] == cfw]
    bw_only = np.asarray(bw_collected[cbw], dtype=np.int64)
    remain = candidates[color[candidates] == c]
    visited = fw_all.size + bw_only.size + scc_nodes.size
    task_cost = select_cost + cost.dfs(
        nodes=visited, edges=fw_edges + bw_edges
    )
    children = [
        (child_color, child_nodes if nodes is not None else None)
        for child_color, child_nodes in (
            (c, remain),
            (cfw, fw_only),
            (cbw, bw_only),
        )
        if child_nodes.size
    ]
    log_entry = (
        int(scc_nodes.size),
        int(fw_only.size),
        int(bw_only.size),
        int(remain.size),
    )
    if faults is not None:
        # "post": SCC committed; the children are lost with the worker.
        faults.fire("task", seq, stage="post", attempt=attempt)
    return children, task_cost, log_entry


def _exec_batch_task(
    specs: Sequence[Tuple[int, Optional[np.ndarray]]],
    seqs: Optional[Sequence[int]] = None,
    attempt: int = 0,
    triples: Optional[Sequence[Tuple[int, int, int]]] = None,
):
    """Run ≤64 Recur-FWBW tasks as one multi-source sweep in a worker.

    The batched twin of :func:`_exec_task`: same shared arrays, same
    counters, same fault hooks (``seqs`` aligns one dispatcher
    sequence id per member so injected faults keep matching), same
    pivot rule (first candidate).  Returns the per-member
    ``(children, task_cost, log_entry)`` list aligned with ``specs``.

    ``triples`` optionally carries master-allocated colour triples per
    member (the supervisor's repair bookkeeping); without it the live
    members draw their triples under one ``color_counter`` lock in the
    same sequential :func:`~repro.core.state.skip_colour_triple` chain
    per-task execution would.
    """
    ctx = _WORKER_CTX
    g = ctx["graph"]
    color: np.ndarray = ctx["color"]
    mark: np.ndarray = ctx["mark"]
    labels: np.ndarray = ctx["labels"]
    phase_of: np.ndarray = ctx["phase_of"]
    scc_counter = ctx["scc_counter"]
    color_counter = ctx["color_counter"]
    cost = ctx["cost"]
    phase_id = ctx["phase_id"]
    faults = ctx.get("faults")
    if seqs is None:
        seqs = [-1] * len(specs)

    from .. import kernels

    backend = ctx.get("kernel_backend")
    if backend is not None:
        kernels.set_backend(backend)
    from ..core.recurfwbw import multi_source_reach
    from ..core.state import skip_colour_triple

    if faults is not None:
        for seq in seqs:
            faults.fire("task", seq, stage="pre", attempt=attempt)

    candidates: List[Optional[np.ndarray]] = []
    select_costs: List[float] = []
    for c, nodes in specs:
        if nodes is None:
            cand = np.flatnonzero(color == c)
            select_costs.append(cost.stream(nodes=color.shape[0]))
        else:
            cand = nodes[color[nodes] == c]
            select_costs.append(cost.stream(nodes=nodes.size))
        candidates.append(cand if cand.size else None)

    results: List = [None] * len(specs)
    live = []
    for i, cand in enumerate(candidates):
        if cand is None:
            results[i] = ([], select_costs[i], None)
        else:
            live.append(i)
    if not live:
        return results

    pivots = np.array(
        [int(candidates[i][0]) for i in live], dtype=np.int64
    )
    live_colors = np.array(
        [specs[i][0] for i in live], dtype=np.int64
    )
    if triples is None:
        with color_counter.get_lock():
            nxt = color_counter.value
            live_triples = []
            for i in live:
                triple, nxt = skip_colour_triple(nxt, specs[i][0])
                live_triples.append(triple)
            color_counter.value = nxt
    else:
        live_triples = [triples[i] for i in live]

    bits, fw_visited, bw_visited = multi_source_reach(
        g.indptr, g.indices, g.in_indptr, g.in_indices,
        color, live_colors, pivots,
    )
    if faults is not None:
        for i in live:
            faults.fire("task", seqs[i], stage="mid", attempt=attempt)

    sizes = np.array(
        [candidates[i].size for i in live], dtype=np.int64
    )
    concat = np.concatenate([candidates[i] for i in live])
    cat = kernels.ms_fwbw_intersect(
        concat, np.repeat(bits, sizes), fw_visited, bw_visited
    )
    counts_out = kernels.segment_counts(g.indptr, concat)
    counts_in = kernels.segment_counts(g.in_indptr, concat)
    bounds = np.zeros(len(live) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])

    with scc_counter.get_lock():
        base = scc_counter.value
        scc_counter.value += len(live)

    MS_SCC, MS_FW_ONLY, MS_BW_ONLY = (
        kernels.MS_SCC, kernels.MS_FW_ONLY, kernels.MS_BW_ONLY,
    )
    for k, i in enumerate(live):
        lo, hi = bounds[k], bounds[k + 1]
        ck = cat[lo:hi]
        cand = concat[lo:hi]
        scc_nodes = cand[ck == MS_SCC]
        fw_only = cand[ck == MS_FW_ONLY]
        bw_only = cand[ck == MS_BW_ONLY]
        remain = cand[ck > MS_BW_ONLY]
        cfw, cbw, _cscc = live_triples[k]
        sid = base + k
        labels[scc_nodes] = sid
        mark[scc_nodes] = True
        color[scc_nodes] = -1  # DONE_COLOR
        phase_of[scc_nodes] = phase_id
        if faults is not None and faults.poison("task", seqs[i], attempt):
            pivot = int(pivots[k])
            labels[pivot] = sid + 1 if sid == 0 else sid - 1
        color[fw_only] = cfw
        color[bw_only] = cbw
        fw_edges = int(counts_out[lo:hi][ck <= MS_FW_ONLY].sum())
        bw_edges = int(
            counts_in[lo:hi][
                (ck == MS_SCC) | (ck == MS_BW_ONLY)
            ].sum()
        )
        visited = (
            scc_nodes.size + fw_only.size + bw_only.size + scc_nodes.size
        )
        task_cost = select_costs[i] + cost.dfs(
            nodes=visited, edges=fw_edges + bw_edges
        )
        hybrid = specs[i][1] is not None
        children = [
            (child_color, child_nodes if hybrid else None)
            for child_color, child_nodes in (
                (specs[i][0], remain),
                (cfw, fw_only),
                (cbw, bw_only),
            )
            if child_nodes.size
        ]
        log_entry = (
            int(scc_nodes.size),
            int(fw_only.size),
            int(bw_only.size),
            int(remain.size),
        )
        results[i] = (children, task_cost, log_entry)
    if faults is not None:
        for i in live:
            faults.fire("task", seqs[i], stage="post", attempt=attempt)
    return results


def _plan_tuple_batches(pending, policy):
    """Group a generation's ``(parent, color, nodes)`` tuples into
    batch runs and singles — the dispatch-loop twin of
    :func:`~repro.core.recurfwbw.plan_batches`."""
    entries: List[Tuple[str, object]] = []
    run: List = []
    colors: set = set()

    def flush() -> None:
        if len(run) >= policy.min_run:
            entries.append(("batch", list(run)))
        else:
            entries.extend(("single", t) for t in run)
        run.clear()
        colors.clear()

    for t in pending:
        _parent, c, nd = t
        batchable = nd is not None and (
            policy.max_item_nodes is None
            or nd.size <= policy.max_item_nodes
        )
        if not batchable:
            flush()
            entries.append(("single", t))
            continue
        if len(run) >= policy.width or c in colors:
            flush()
        run.append(t)
        colors.add(c)
    flush()
    return entries


def _executor_resources(state, num_workers: int, session):
    """The mirror/pool pair for one run: the session's warm pair, or an
    ephemeral one the caller must tear down (``owns=True``)."""
    from ..core.state import PHASE_RECUR
    from ..kernels import requested_backend
    from . import faults as _faults

    # A globally installed fault plan (faults.install_plan) rides
    # along; None in normal runs keeps the hook zero-overhead.
    plan = _faults.active_plan()
    if session is not None:
        mirror, pool = session.executor_resources(
            num_workers=num_workers,
            faults=plan,
            kernel_backend=requested_backend(),
        )
        return mirror, pool, False

    state.graph.in_indptr  # build the transpose BEFORE forking
    mirror = SharedStateMirror(state.num_nodes)

    def arm() -> None:
        arm_worker_context(
            state.graph,
            mirror,
            cost=state.cost,
            phase_id=PHASE_RECUR,
            faults=plan,
            kernel_backend=requested_backend(),
        )

    pool = WorkerPool(num_workers, arm=arm)
    try:
        pool.start()
    except BaseException:
        mirror.close()
        raise
    return mirror, pool, True


def run_recur_phase_processes(
    state,
    initial: Sequence[Tuple[int, Optional[np.ndarray]]],
    *,
    num_workers: int = 2,
    queue_k: int = 1,
    phase: str = "recur_fwbw",
    task_timeout: float | None = 120.0,
    session=None,
    phase2_batch=None,
) -> int:
    """Drain the phase-2 queue with real worker processes.

    Semantics match the serial/threads drivers in
    :mod:`repro.engine.backends` (and the spawn tree is recorded the
    same way); the mutable state lives in shared memory for the
    duration and is copied back at the end.

    ``session`` optionally supplies a warm
    :class:`~repro.engine.session.GraphSession`: its persistent mirror
    and already-forked pool are reused (no shm creation, no fork), and
    the session keeps them for the next run.  Without a session the
    mirror and pool are ephemeral and torn down on every exit path.

    ``task_timeout`` bounds every result wait: a worker that dies or
    hangs mid-task would otherwise leave ``fut.get()`` blocked forever
    (``multiprocessing.Pool`` silently respawns crashed workers but
    never completes their lost results).  On expiry the run fails with
    a diagnosis of the pool state instead of deadlocking; the
    supervised backend (:mod:`repro.runtime.supervisor`) builds
    retry/degradation on top of this guard.
    """
    if not fork_available():  # pragma: no cover - non-POSIX only
        raise RuntimeError("process backend requires the 'fork' start method")
    from .trace import Task

    policy = phase2_batch
    mirror, pool, owns = _executor_resources(state, num_workers, session)
    try:
        mirror.load(state)
        tasks: List[Task] = []
        seq = 0  # dispatch sequence id (deterministic fault matching)
        n_batches = n_batched = 0

        def get_result(fut):
            try:
                return fut.get(timeout=task_timeout)
            except mp.TimeoutError:
                dead = pool.dead_workers()
                diagnosis = (
                    f"{dead} worker(s) died (pool broken)"
                    if dead
                    else "workers alive but task hung"
                )
                if not owns:
                    # Condemn the warm pool: a hung worker could
                    # keep mutating the shared mirror.  The session
                    # respawns a fresh pool on its next run.
                    pool.terminate()
                raise RuntimeError(
                    "phase-2 task did not complete within "
                    f"{task_timeout:.1f}s: {diagnosis}; use the "
                    "'supervised' backend for retry/recovery"
                ) from None

        def commit(parent, children, task_cost, log_entry):
            idx = len(tasks)
            tasks.append(Task(cost=task_cost, parent=parent))
            if log_entry is not None:
                state.profile.log_task(*log_entry)
            for c, nd in children:
                pending.append((idx, c, nd))

        # (parent_index, color, nodes) items; breadth-first dispatch
        pending = [(-1, c, nd) for c, nd in initial]
        while pending:
            generation = pending
            pending = []
            if policy is not None:
                entries = _plan_tuple_batches(generation, policy)
            else:
                entries = [("single", t) for t in generation]
            futures = []
            for kind, payload in entries:
                if kind == "batch":
                    specs = [(c, nd) for _p, c, nd in payload]
                    member_seqs = list(range(seq, seq + len(specs)))
                    seq += len(specs)
                    futures.append(
                        (
                            [p for p, _c, _nd in payload],
                            pool.apply_async(
                                _exec_batch_task, (specs, member_seqs)
                            ),
                        )
                    )
                    n_batches += 1
                    n_batched += len(specs)
                else:
                    parent, c, nd = payload
                    futures.append(
                        (
                            parent,
                            pool.apply_async(_exec_task, (c, nd, seq)),
                        )
                    )
                    seq += 1
            for parent, fut in futures:
                if isinstance(parent, list):
                    for p, (children, task_cost, log_entry) in zip(
                        parent, get_result(fut)
                    ):
                        commit(p, children, task_cost, log_entry)
                else:
                    children, task_cost, log_entry = get_result(fut)
                    commit(parent, children, task_cost, log_entry)

        # copy shared results back into the state
        mirror.flush(state)
        state.trace.task_dag(phase, tasks, queue_k=queue_k)
        state.profile.bump("recur_tasks", len(tasks))
        if n_batches:
            state.profile.bump("phase2_batches", n_batches)
            state.profile.bump("phase2_batched_tasks", n_batched)
        return len(tasks)
    finally:
        if owns:
            pool.terminate()
            mirror.close()
