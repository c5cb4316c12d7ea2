"""Workload ``serve``: a sharded ``repro serve`` daemon under load.

The daemon runs as ``repro serve --workers 2`` on a Unix socket with its
default checksums, a request journal and a session cache that holds the
nine graphs on each worker.  Requests are ``run`` requests
over the nine surrogates at scale 0.05, one in eight carrying
``certify: "sample"``.  Two parts, from one client process:

1. an open loop with seeded Poisson arrivals at :data:`RATE` per second
   from at most two sender threads, each request timed from its due
   time against the :data:`LIMIT_S` latency limit;
2. a closed loop with one client that measures what a request costs.

The bounded timings come from the closed loop and are CPU seconds of
the daemon's front and worker processes (see :mod:`pbench.cpu`),
scaled to the reference host speed (see :mod:`pbench.reference`): with
one request in flight, the CPU the daemon used between sending a
request and reading its answer is that request's cost.  Capacity is
requests per scaled CPU second of the daemon.  Wall-clock latencies and
throughput are printed beside them but not bounded: on the shared
virtual machine the benchmark was built on, wall-clock latency of the
same code moved by half between runs (each request crosses three
processes, and every hop waits for a core), and the open-loop median
by up to 2x.  The open loop is held to its limit through
``serve_goodput_rps`` and ``success_frac``.

At this scale the graphs are small, so service, integrity, journal,
worker IPC and transport carry most of the latency and the phases
little.  :data:`RATE` is frozen at about half the lowest capacity the
closed loop measured at the commit that added this benchmark: on a
shared 2-core virtual machine that capacity ranged from 23 to 57 per
second between runs of the same code as the host's speed drifted, and
an open loop at half the typical capacity overloaded the daemon in the
slow stretches.  Changing it changes the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import oracle
from .cpu import group_cpu, process_cpu
from .host import vm_hwm_mb
from .layers import tiers_from_spans
from .loadgen import Sent, closed_loop, open_loop, poisson_schedule
from .metrics import (
    LayerView,
    Report,
    add_residual,
    common_layer_metrics,
    core_metrics,
    kernel_metrics,
)
from .reference import HostSpeed
from .stats import percentile, samples_needed
from .tracing import read_span_files
from .workload import ROOT, Outcome, measure_split, scratch_dir, stretch_cap

#: open-loop arrival rate, requests per second (see the module doc).
RATE = 12.0
#: latency limit on the open loop's tail percentile, seconds.
LIMIT_S = 0.2
TAIL_Q = 95
#: share of a run's seconds given to the open loop; the closed loop,
#: which gives the bounded latencies, gets the larger rest.
OPEN_SHARE = 0.3
WORKERS = 2
SENDERS = 2
#: one request in flight, so the daemon's CPU between a request and its
#: answer is that request's own.
CLIENTS = 1
CERTIFY_EVERY = 8
#: session cache of the whole daemon; each of the 2 workers gets half,
#: which holds all nine graphs.  With the default (8, so 4 a worker)
#: about a quarter of the requests reloaded their graph, and how many
#: did depended on dispatch timing, which made runs disagree.
MAX_SESSIONS = 18
#: daemon set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: stated ceiling on ``trace.residual_frac`` (see the README).
RESIDUAL_CEILING = 0.25


@dataclass(frozen=True)
class ServeConfig:
    """What the smoke tests shrink; a real run uses the defaults."""

    scale: float = 0.05
    names: Optional[Sequence[str]] = None


def run(seed: int, seconds: float, trace: bool, cfg: ServeConfig = ServeConfig()) -> Outcome:
    import repro.generators as gens

    names = list(cfg.names or gens.dataset_names())
    want, tarjan_s = oracle.tarjan_sweep(names, cfg.scale)
    checker = _Checker(want)
    rng = random.Random(seed)
    plan = _RequestPlan(names, cfg.scale, rng)

    with HostSpeed() as speed, scratch_dir("serve") as work:
        if trace:
            untraced, traced = measure_split(seconds)
            with _Daemon(work, None) as ref:
                ref.warm(names, cfg.scale, checker)
                base = _closed(ref, plan, checker, untraced, speed, min_count=CLIENTS)
            spans_dir = work / "spans"
            spans_dir.mkdir()
            with _Daemon(work, spans_dir) as d:
                d.warm(names, cfg.scale, checker)
                stats0 = d.request({"op": "stats"})
                start = time.perf_counter()
                opened, _ = _open(
                    d, plan, checker, seed, traced * OPEN_SHARE,
                    min_count=samples_needed(TAIL_Q),
                )
                closed = _closed(d, plan, checker, traced * (1 - OPEN_SHARE), speed, min_count=CLIENTS)
                window = (start, time.perf_counter())
                stats1 = d.request({"op": "stats"})
                front = d.pid
            spans = read_span_files(str(ROOT / spans_dir))
            report = _layers(
                spans, front, window, opened, closed, stats0, stats1, base, tarjan_s, len(names)
            )
            tiers = tiers_from_spans(spans)
        else:
            setups: List[Tuple[float, float]] = []
            d = None
            try:
                for _ in range(SETUP_REPEATS):
                    if d is not None:
                        d.stop()
                    t0 = time.perf_counter()
                    c0 = process_cpu()
                    d = _Daemon(work, None).start()
                    d.warm(names, cfg.scale, checker)
                    # the daemon's processes were born in this set-up,
                    # so their CPU clocks hold all they spent on it.
                    cpu = process_cpu() - c0 + group_cpu(d.pids())
                    setups.append((time.perf_counter() - t0, cpu))
                opened, offered = _open(
                    d, plan, checker, seed, seconds * OPEN_SHARE,
                    min_count=samples_needed(TAIL_Q),
                )
                closed = _closed(
                    d, plan, checker, seconds * (1 - OPEN_SHARE), speed,
                    min_count=samples_needed(TAIL_Q),
                )
                rss = d.peak_rss_mb()
            finally:
                if d is not None:
                    d.stop()
            report = _end_to_end(setups, opened, offered, closed, rss, speed)
            tiers = None
    return Outcome(report, attempted=checker.attempted, failed=checker.failed, tiers=tiers)


# ---------------------------------------------------------------------------
# the daemon and its client
# ---------------------------------------------------------------------------
class _Daemon:
    """One ``repro serve --workers 2`` process group on a Unix socket."""

    def __init__(self, work: Path, trace_dir: Optional[Path]) -> None:
        self.sock = str(work / "serve.sock")
        journal = work / "journal.ndjson"
        for stale in (ROOT / self.sock, ROOT / journal):
            stale.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "pbench.daemon"]
        if trace_dir is not None:
            argv += ["--trace-dir", str(ROOT / trace_dir)]
        argv += [
            "--", "serve", "--workers", str(WORKERS),
            "--max-sessions", str(MAX_SESSIONS),
            "--socket", self.sock, "--journal", str(journal),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(ROOT / work / "serve.log", "ab")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log, start_new_session=True,
        )
        self.pid = self.proc.pid

    def __enter__(self) -> "_Daemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> "_Daemon":
        """Wait until the daemon answers ``health``."""
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.request({"op": "health"})
                return self
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("serve daemon did not come up") from None
                time.sleep(0.02)

    def stop(self) -> None:
        """Drain the daemon and make sure every process of its group
        has ended (workers leave when the front's pipe closes)."""
        try:
            if self.proc.poll() is None:
                try:
                    self.request({"op": "shutdown"})
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            _reap_group(self.proc)
            self._log.close()

    def request(self, req: dict) -> dict:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(60.0)
            s.connect(self.sock)
            s.sendall((json.dumps(req) + "\n").encode())
            buf = bytearray()
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)

    def warm(self, names: Sequence[str], scale: float, checker: "_Checker") -> None:
        """One request per graph: the workers load, seal and run each."""
        for name in names:
            checker.check(
                {"op": "run", "graph": name, "scale": scale},
                self.request({"op": "run", "graph": name, "scale": scale, "id": f"warm-{name}"}),
            )

    def pids(self) -> List[int]:
        """The front's pid and every live worker's."""
        stats = self.request({"op": "stats"})
        return [self.pid] + [
            w["pid"] for w in stats["workers"]["workers"].values() if w.get("pid")
        ]

    def peak_rss_mb(self) -> float:
        """Front plus every worker's ``VmHWM``."""
        return sum(vm_hwm_mb(p) for p in self.pids())


def _reap_group(proc: subprocess.Popen) -> None:
    pgid = proc.pid
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if proc.poll() is not None and not _group_alive(pgid):
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)
    while _group_alive(pgid):
        time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


# ---------------------------------------------------------------------------
# requests and answers
# ---------------------------------------------------------------------------
class _RequestPlan:
    """The seeded request sequence both loops draw from: the graphs in
    rounds, every graph once a round in a seeded order.  Every run then
    sends the same mix and seeds change only the order; with independent
    draws the mix of a run's few hundred requests moved its median cost
    by up to a sixth between seeds."""

    def __init__(self, names: Sequence[str], scale: float, rng: random.Random) -> None:
        self.names = list(names)
        self.scale = scale
        self.rng = rng
        self.issued = 0
        self._round: List[str] = []
        self._lock = threading.Lock()

    def next(self, tag: str) -> dict:
        with self._lock:  # the closed loop's clients draw concurrently
            i = self.issued
            self.issued += 1
            if not self._round:
                self._round = self.rng.sample(self.names, len(self.names))
            graph = self._round.pop()
        req = {"op": "run", "graph": graph, "scale": self.scale, "id": f"{tag}-{i}"}
        if i % CERTIFY_EVERY == CERTIFY_EVERY - 1:
            req["certify"] = "sample"
        return req


class _Checker:
    """Checks each answer against the Tarjan oracle; counts failures."""

    def __init__(self, want: Dict[str, int]) -> None:
        self.want = want
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def note_dropped(self, count: int) -> None:
        """Open-loop requests never sent before the loop gave up."""
        with self._lock:
            self.attempted += count
            self.failed += count
        print(f"serve: {count} request(s) dropped unsent", file=sys.stderr)

    def check(self, req: dict, resp: dict) -> bool:
        """True for a correct answer, False for a failed request;
        raises :class:`~pbench.oracle.OracleMismatch` on a wrong one."""
        with self._lock:
            self.attempted += 1
            self.failed += not resp.get("ok")
        if not resp.get("ok"):
            print(f"serve: request failed: {resp.get('error_type')}: {resp.get('error')}", file=sys.stderr)
            return False
        oracle.check(f"serve {req['graph']} labels_crc32", resp.get("labels_crc32"), self.want[req["graph"]])
        if req.get("certify"):
            cert = resp.get("certificate") or {}
            oracle.check(f"serve {req['graph']} certificate ok", cert.get("ok"), True)
        return True


@dataclass
class _Answer:
    sent: Sent
    rid: str
    ok: bool
    #: CPU seconds the daemon spent on it (closed loop only; None when
    #: a worker was replaced meanwhile, so its clock was lost).
    cpu: Optional[float] = None


def _open(d: _Daemon, plan: _RequestPlan, checker: _Checker, seed: int, seconds: float,
          *, min_count: int) -> Tuple[List[_Answer], int]:
    schedule = poisson_schedule(seed, RATE, seconds, min_count=min_count)
    reqs = [plan.next("open") for _ in schedule]
    oks: Dict[int, bool] = {}

    def send(i: int) -> dict:
        resp = d.request(reqs[i])
        oks[i] = checker.check(reqs[i], resp)
        return resp

    sent = open_loop(schedule, send, senders=SENDERS, give_up=stretch_cap(schedule[-1]))
    unsent = len(schedule) - len(sent)
    if unsent:
        checker.note_dropped(unsent)
    return [_Answer(s, reqs[s.index]["id"], oks[s.index]) for s in sent], len(schedule)


def _closed(d: _Daemon, plan: _RequestPlan, checker: _Checker, seconds: float,
            speed: HostSpeed, *, min_count: int) -> List[_Answer]:
    reqs: Dict[int, dict] = {}
    oks: Dict[int, bool] = {}
    cpus: Dict[int, Optional[float]] = {}
    pids = d.pids()

    def send(i: int) -> dict:
        nonlocal pids
        reqs[i] = req = plan.next("closed")
        c0 = group_cpu(pids)
        resp = d.request(req)
        try:
            cpus[i] = group_cpu(pids) - c0
        except OSError:  # a worker is gone: leave this one out
            cpus[i] = None
            pids = d.pids()
        oks[i] = checker.check(req, resp)
        return resp

    # the reference task runs in this process while the daemon is idle
    sent = closed_loop(
        send, clients=CLIENTS, duration=seconds, min_count=min_count, give_up=stretch_cap(seconds),
        between=speed.tick,
    )
    return [_Answer(s, reqs[s.index]["id"], oks[s.index], cpus[s.index]) for s in sent]


def _cpu_costs(answers: Sequence[_Answer]) -> List[float]:
    """CPU seconds of each answered closed-loop request that has one."""
    return [a.cpu for a in answers if a.ok and a.cpu is not None]


def _span_of(answers: Sequence[_Answer]) -> float:
    """Wall seconds a loop covered, first due time to last answer."""
    return max(a.sent.done for a in answers) - min(a.sent.due for a in answers)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _end_to_end(setups, opened: List[_Answer], offered: int, closed: List[_Answer],
                rss: float, speed: HostSpeed) -> Report:
    report = Report()
    lat = [a.sent.latency for a in opened]
    good = sum(1 for a in opened if a.ok and a.sent.latency <= LIMIT_S)
    closed_ok = sum(1 for a in closed if a.ok)
    attempted = offered + len(closed)
    f = speed.factor()
    raw = _cpu_costs(closed)
    cost = [c * f for c in raw]
    report.add("setup_s", statistics.median(c for _, c in setups) * f, "s", n=len(setups),
               base="scaled CPU seconds of one set-up: this process, the front and the workers")
    report.add(
        "success_frac", (good + closed_ok) / attempted, "frac",
        base=f"{attempted} requests; open loop needs ok within {LIMIT_S}s",
    )
    report.add("peak_rss_mb", rss, "MB", base="front + workers VmHWM")
    report.add(
        "rate_per_s", good / _span_of(opened), "1/s", label="serve_goodput_rps", n=len(opened),
        base=f"{offered} requests offered at {RATE}/s, per second from first due time to last answer",
    )
    report.add("capacity_per_cpu_s", len(cost) / sum(cost), "1/s", label="serve_capacity_rps", n=len(cost),
               base="closed-loop requests per scaled CPU second of the front and workers")
    report.timing("p50_cpu_s", cost, 50, label="serve_request_p50_s (scaled CPU)")
    report.timing("tail_cpu_s", cost, TAIL_Q, label="serve_request_p95_s (scaled CPU)")
    report.timing("read_p50_cpu_s", cost, 50, label="serve_request_p50_s (scaled CPU; every request is a read)")
    report.timing("read_tail_cpu_s", cost, TAIL_Q, label="serve_request_p95_s (scaled CPU; every request is a read)")
    report.notes.append(speed.note())
    report.notes.append(
        f"raw CPU: setup_s = {statistics.median(c for _, c in setups):.6g} s, "
        f"serve_capacity_rps = {len(raw) / sum(raw):.6g} 1/s, request p50 = {percentile(raw, 50):.6g} s, "
        f"p95 = {percentile(raw, TAIL_Q):.6g} s (n={len(raw)}); not bounded"
    )
    closed_lat = [a.sent.latency for a in closed]
    report.notes.append(
        f"wall clock: setup_s = {statistics.median(w for w, _ in setups):.6g} s, "
        f"serve_p50_s = {percentile(lat, 50):.6g} s, serve_p95_s = {percentile(lat, TAIL_Q):.6g} s "
        f"(open loop, from due time, n={len(lat)}, {RATE}/s, limit p{TAIL_Q} <= {LIMIT_S}s); "
        f"closed loop p50 = {percentile(closed_lat, 50):.6g} s, p95 = {percentile(closed_lat, TAIL_Q):.6g} s, "
        f"{closed_ok / _span_of(closed):.6g} requests/s (n={len(closed)}, {CLIENTS} client); not bounded"
    )
    return report


def _layers(spans, front: int, window: Tuple[float, float], opened, closed, stats0, stats1,
            base: List[_Answer], tarjan_s: float, graphs: int) -> Report:
    """Per-layer metrics from the spans of the traced daemon: set-up
    spans start before ``window``, the measured ones inside it (the
    ``stats`` requests around the window are left out)."""
    report = Report()
    setup_spans = [s for s in spans if s.start < window[0]]
    spans = [s for s in spans if window[0] <= s.start < window[1]]
    view = LayerView(spans)
    setup_view = LayerView(setup_spans)
    answers = opened + closed
    ops = len(answers)
    fronts = {front}
    workers = {s.pid for s in spans} - fronts

    report.add("generators.generate_s", setup_view.total("generators.generate"), "s", base="one daemon set-up")
    report.add("session.transpose_s", setup_view.total("session.transpose"), "s", base="one daemon set-up")
    report.add("session.cold_extra_s", 0.0, "s", base="not measured on serve")
    core_metrics(view, report)
    kernel_metrics(view, report, ops)
    common_layer_metrics(view, report, ops)

    def per(total: float) -> float:
        return total / ops

    handle_dur: Dict[str, float] = {}
    worker_handle: Dict[str, float] = {}
    for s in view.by_name.get("service.handle", []):
        if s.rid is None:
            continue
        target = handle_dur if s.pid == front else worker_handle
        target[s.rid] = target.get(s.rid, 0.0) + s.dur
    report.add("service.handle_s", per(view.total("service.handle", pids=fronts)), "s/op")
    report.add("service.admit_s", per(view.total("service.admit", pids=fronts)), "s/op")
    report.add("service.journal_s", per(view.total("service.journal", pids=fronts)), "s/op")
    report.add("service.journal.calls", per(view.count("service.journal", pids=fronts)), "count/op")
    report.add("service.self_s", per(view.self_total("service.handle", pids=fronts)), "s/op")
    report.add("service.retried", stats1["retried"] - stats0["retried"], "count")
    report.add("service.shed", stats1["shed"] - stats0["shed"], "count")
    execute = view.by_name.get("workers.execute", [])
    ipc = sum(s.dur - worker_handle.get(s.rid, 0.0) for s in execute)
    report.add("workers.execute_s", per(sum(s.dur for s in execute)), "s/op")
    report.add("workers.ipc_s", per(ipc), "s/op", base="workers.execute minus the worker-side service.handle")
    report.add(
        "workers.dispatched",
        _dispatched(stats1) - _dispatched(stats0), "count", base=f"{len(workers)} worker pid(s)",
    )
    report.add("workers.respawns", stats1["workers"]["respawns"] - stats0["workers"]["respawns"], "count")
    client = [a.sent.done - a.sent.sent - handle_dur.get(a.rid, 0.0) for a in answers]
    report.add("transport.client_s", per(sum(client)), "s/op", base="client latency minus front service.handle")
    report.add("transport.encode_s", per(view.total("transport.encode", pids=fronts)), "s/op")
    report.add("transport.decode_s", per(view.total("transport.decode", pids=fronts)), "s/op")
    late = [a.sent.late for a in opened]
    lat = [a.sent.latency for a in opened]
    report.add("loadgen.late_p95_s", percentile(late, TAIL_Q), "s", n=len(late))
    report.add("loadgen.sent", len(opened), "count")
    report.add("loadgen.open_p50_s", percentile(lat, 50), "s", n=len(lat), label="serve_p50_s")
    report.add("loadgen.open_p95_s", percentile(lat, TAIL_Q), "s", n=len(lat), label="serve_p95_s")
    report.add("baseline.tarjan_s", tarjan_s, "s", base=f"one Tarjan sweep over {graphs} graphs")
    report.add("trace.ops", ops, "count")
    traced_cost = statistics.fmean(_cpu_costs(closed))
    base_cost = statistics.fmean(_cpu_costs(base))
    report.add(
        "trace.overhead_frac", traced_cost / base_cost - 1.0, "frac",
        base=f"closed-loop CPU seconds per request {base_cost:.5f} untraced vs {traced_cost:.5f} traced",
    )
    client_total = sum(a.sent.done - a.sent.sent for a in answers)
    front_covered = sum(handle_dur.values()) + view.total("transport.encode", pids=fronts) + view.total(
        "transport.decode", pids=fronts
    )
    add_residual(
        report, 1.0 - front_covered / client_total, RESIDUAL_CEILING,
        f"share of {client_total:.4f}s client latency outside front spans",
    )
    return report


def _dispatched(stats: dict) -> int:
    return sum(w.get("dispatched", 0) for w in stats["workers"]["workers"].values())
