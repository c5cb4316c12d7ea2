"""Workload ``detect``: warm ``Engine.run`` sweeps over the nine surrogates.

One caller in a closed loop.  ``Engine()`` keeps the library defaults
(serial executor, integrity off, default Method-2 options) except that
its session cache holds all nine graphs, so every measured run is warm.
Each sweep visits every surrogate once in a seeded order.  Almost all
the time is spent in ``core`` phases and ``kernels``; service,
integrity, delta and ingest are never reached.  ``ca-road`` keeps one
high-diameter graph in the mix.  Bounded timings are CPU seconds of
this process (see :mod:`pbench.cpu`) scaled to the reference host speed
(see :mod:`pbench.reference`); the raw CPU and wall-clock ones are
printed beside them.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import oracle
from .cpu import process_cpu
from .host import vm_hwm_mb
from .layers import Instrumentation, tiers_from_spans
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
from .tracing import Tracer
from .workload import Outcome, enough, measure_split

TAIL_Q = 90
#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: stated ceiling on ``trace.residual_frac`` (see the README).
RESIDUAL_CEILING = 0.02


@dataclass(frozen=True)
class DetectConfig:
    """What the smoke tests shrink; a real run uses the defaults."""

    scale: float = 1.0
    #: surrogate names (None = all nine).
    names: Optional[Tuple[str, ...]] = None


def run(seed: int, seconds: float, trace: bool, cfg: DetectConfig = DetectConfig()) -> Outcome:
    import repro.generators as gens

    names = cfg.names or tuple(gens.dataset_names())
    want, tarjan_s = oracle.tarjan_sweep(names, cfg.scale)

    tracer = Tracer()
    inst = Instrumentation(tracer)
    if trace:
        inst.install()
    setups: List[Tuple[float, float]] = []
    eng = sessions = None
    for _ in range(SETUP_REPEATS):
        if eng is not None:
            # free the previous set-up's graphs before making the next,
            # so peak_rss_mb holds one set of graphs, not two.
            eng.close()
            eng = sessions = None
            gc.collect()
        eng, sessions, cold, wall_cpu = _setup(gens, names, cfg.scale)
        setups.append(wall_cpu)
    setup_view = LayerView(tracer.spans)
    inst.uninstall()

    rng = random.Random(seed)
    speed = None
    try:
        speed = HostSpeed()
        loop = _Loop(eng, sessions, want, names, rng, speed)
        if trace:
            untraced, traced = measure_split(seconds)
            loop.measure(untraced, min_runs=len(names))
            base = loop.take()
            tracer.spans.clear()
            inst.install()
            loop.measure(traced, min_runs=len(names))
            inst.uninstall()
            runs = loop.take()
        else:
            loop.measure(seconds, min_runs=samples_needed(TAIL_Q))
            runs = loop.take()
    finally:
        if speed is not None:
            speed.close()
        eng.close()

    report = Report()
    warm = {name: statistics.median(v) for name, v in _by_graph(runs, "seconds").items()}
    cold_extra = sum(cold[n] - warm.get(n, cold[n]) for n in names)
    if trace:
        view = LayerView(tracer.spans)
        ops = len(runs)
        report.add("generators.generate_s", setup_view.total("generators.generate") / len(setups), "s", n=len(setups))
        report.add("session.transpose_s", setup_view.total("session.transpose") / len(setups), "s", n=len(setups))
        report.add("session.cold_extra_s", cold_extra, "s", base="first run minus median warm run, summed over graphs")
        core_metrics(view, report)
        kernel_metrics(view, report, ops)
        common_layer_metrics(view, report, ops)
        report.add("baseline.tarjan_s", tarjan_s, "s", base=f"one Tarjan sweep over {len(names)} graphs")
        report.add("trace.ops", ops, "count")
        report.add(
            "trace.overhead_frac",
            _sweep_cpu(runs) / _sweep_cpu(base) - 1.0,
            "frac",
            base=f"{len(base)} untraced runs vs {ops} traced runs, per-graph mean CPU seconds",
        )
        measured = sum(r.seconds for r in runs)
        add_residual(
            report, 1.0 - view.total("engine.run") / measured, RESIDUAL_CEILING,
            f"share of {measured:.4f}s of run latency seen by the caller outside engine.run",
        )
        tiers = tiers_from_spans(view.spans)
    else:
        _end_to_end(report, runs, setups, loop.failed, speed)
        tiers = None
    return Outcome(report, attempted=loop.attempted, failed=loop.failed, tiers=tiers)


@dataclass
class _Run:
    name: str
    seconds: float
    cpu: float
    edges: int


class _Loop:
    """Sweeps over the warm sessions; every answer checked on the spot."""

    def __init__(self, eng, sessions, want, names, rng, speed: HostSpeed) -> None:
        self.eng = eng
        self.speed = speed
        self.sessions = sessions
        self.want = want
        self.names = list(names)
        self.rng = rng
        self.runs: List[_Run] = []
        self.attempted = 0
        self.failed = 0

    def measure(self, seconds: float, *, min_runs: int) -> None:
        start = time.perf_counter()
        while True:
            order = list(self.names)
            self.rng.shuffle(order)
            for name in order:
                self._one(name)
            if enough(time.perf_counter() - start, seconds, len(self.runs), min_runs):
                return

    def _one(self, name: str) -> None:
        sess = self.sessions[name]
        self.speed.tick()
        self.attempted += 1
        t0 = time.perf_counter()
        c0 = process_cpu()
        try:
            result = self.eng.run(sess)
        except Exception as exc:  # counted against success_frac
            self.failed += 1
            print(f"detect {name}: run failed: {exc!r}", file=sys.stderr)
            return
        cpu = process_cpu() - c0
        dt = time.perf_counter() - t0
        oracle.check(f"detect {name}", oracle.labels_crc(result.labels), self.want[name])
        self.runs.append(_Run(name, dt, cpu, sess.graph.num_edges))

    def take(self) -> List[_Run]:
        runs, self.runs = self.runs, []
        return runs


def _setup(gens, names: Sequence[str], scale: float):
    """Generate the graphs, warm their sessions and pay each first run."""
    from repro.engine.engine import Engine

    t0 = time.perf_counter()
    c0 = process_cpu()
    eng = Engine(max_sessions=len(names))
    sessions = {}
    cold = {}
    for name in names:
        sess = eng.session(gens.generate(name, scale=scale).graph, name=name)
        sess.warmup()
        t1 = time.perf_counter()
        eng.run(sess)
        cold[name] = time.perf_counter() - t1
        sessions[name] = sess
    return eng, sessions, cold, (time.perf_counter() - t0, process_cpu() - c0)


def _by_graph(runs: Sequence[_Run], field: str) -> Dict[str, List[float]]:
    by: Dict[str, List[float]] = {}
    for r in runs:
        by.setdefault(r.name, []).append(getattr(r, field))
    return by


def _sweep_cpu(runs: Sequence[_Run]) -> float:
    """Mean CPU seconds of one sweep: per-graph means, summed."""
    return sum(statistics.fmean(v) for v in _by_graph(runs, "cpu").values())


def _end_to_end(report: Report, runs: Sequence[_Run], setups: List[Tuple[float, float]],
                failed: int, speed: HostSpeed) -> None:
    f = speed.factor()
    raw = [r.cpu for r in runs]
    cpu = [c * f for c in raw]
    lat = [r.seconds for r in runs]
    edges = sum(r.edges for r in runs)
    n = len(runs)
    report.add("setup_s", statistics.median(c for _, c in setups) * f, "s", n=len(setups),
               base="scaled CPU seconds of one set-up")
    report.add("success_frac", n / (n + failed), "frac", base=f"{n + failed} runs attempted")
    report.add("peak_rss_mb", vm_hwm_mb(), "MB")
    report.add("rate_per_s", edges / sum(cpu), "1/s", label="detect_edges_per_s", n=n,
               base="per scaled CPU second of Engine.run")
    report.add("capacity_per_cpu_s", n / sum(cpu), "1/s", label="detect_runs_per_s", n=n,
               base="per scaled CPU second of Engine.run")
    report.timing("p50_cpu_s", cpu, 50, label="detect_run_p50_s (scaled CPU)")
    report.timing("tail_cpu_s", cpu, TAIL_Q, label="detect_run_p90_s (scaled CPU)")
    report.timing("read_p50_cpu_s", cpu, 50, label="detect_run_p50_s (scaled CPU; every run is a read)")
    report.timing("read_tail_cpu_s", cpu, TAIL_Q, label="detect_run_p90_s (scaled CPU; every run is a read)")
    report.notes.append(speed.note())
    report.notes.append(
        f"raw CPU: setup_s = {statistics.median(c for _, c in setups):.6g} s, "
        f"detect_edges_per_s = {edges / sum(raw):.6g} 1/s, "
        f"detect_run_p50_s = {percentile(raw, 50):.6g} s, "
        f"detect_run_p90_s = {percentile(raw, TAIL_Q):.6g} s (n={n}; not bounded)"
    )
    report.notes.append(
        f"wall clock: setup_s = {statistics.median(w for w, _ in setups):.6g} s, "
        f"detect_edges_per_s = {edges / sum(lat):.6g} 1/s, "
        f"detect_run_p50_s = {percentile(lat, 50):.6g} s, "
        f"detect_run_p90_s = {percentile(lat, TAIL_Q):.6g} s (n={n}; not bounded)"
    )
