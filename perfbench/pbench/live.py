"""Workload ``live``: a live edit feed with full reads in between.

The topology of an in-process ``repro stream``: a hub-skewed R-MAT edit
feed file for ``wiki`` at scale 1.0 (16 inserts and 8 deletes per
batch) runs through ``FileTailSource``, ``RecordParser``,
``StreamConsumer`` (batches cut by count only, checkpoint on),
``EngineApplier`` and ``Engine.update``.  After every
:data:`READ_EVERY`-th committed batch one read is a full ``Engine.run``
over the live graph.  This is the only workload that reaches
``engine.dynamic``, ``graph.delta`` and ``ingest``, and its reads run the
same ``core``/``kernels`` code on the mutated graph, so a change that
speeds reads but slows writes, or the reverse, shows here.

Bounded timings are CPU seconds of this process (see
:mod:`pbench.cpu`) scaled to the reference host speed (see
:mod:`pbench.reference`): a batch's cost is the CPU time from the end
of the previous commit to the end of its own (source read, parse, apply
and checkpoint), a read's is that of its ``Engine.run``.  The raw CPU
figures, the consumer's wall-clock batch ages and the wall-clock read
times are printed beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

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
from .workload import ROOT, Outcome, enough, measure_split, scratch_dir, stretch_cap

GRAPH = "wiki"
INSERTS = 16
DELETES = 8
READ_EVERY = 6
#: bytes per source read, about one batch of records.
CHUNK_BYTES = 512
#: about one batch in ten costs three to four times the median (an
#: edit that splits or merges large components), so p90 fell on that
#: knee and moved by half from seed to seed; p95 lies inside the
#: expensive mode.
FRESH_Q = 95
READ_Q = 80
#: batches written to the feed file; far more than a run applies.
FEED_BATCHES = 1500
#: set-ups per run (each well under a second); ``setup_s`` is their median.
SETUP_REPEATS = 5
#: stated ceiling on ``trace.residual_frac`` (see the README).
RESIDUAL_CEILING = 0.1


@dataclass(frozen=True)
class LiveConfig:
    """What the smoke tests shrink; a real run uses the default."""

    scale: float = 1.0


def rmat_pairs(rng: np.random.Generator, n: int, k: int,
               a: float = 0.57, b: float = 0.19, c: float = 0.19) -> Tuple[np.ndarray, np.ndarray]:
    """``k`` R-MAT (src, dst) pairs over ``0..n-1``: recursive quadrant
    descent, which concentrates edits on hub nodes."""
    bits = max(1, int(np.ceil(np.log2(max(2, n)))))
    src = np.zeros(k, dtype=np.int64)
    dst = np.zeros(k, dtype=np.int64)
    for _ in range(bits):
        r = rng.random(k)
        down = (r >= a + b).astype(np.int64)
        right = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64)
        src = src * 2 + down
        dst = dst * 2 + right
    return src % n, dst % n


def write_feed(path: Path, graph, seed: int) -> None:
    """Write the text-dialect feed: each batch's inserts are R-MAT
    pairs, its deletes are drawn from the base graph's edges."""
    rng = np.random.default_rng(seed)
    src, dst = graph.edge_array()
    lines = ["# perfbench live feed\n"]
    for _ in range(FEED_BATCHES):
        iu, iv = rmat_pairs(rng, graph.num_nodes, INSERTS)
        pick = rng.integers(0, src.shape[0], DELETES)
        lines += [f"+ {u} {v}\n" for u, v in zip(iu.tolist(), iv.tolist())]
        lines += [f"- {u} {v}\n" for u, v in zip(src[pick].tolist(), dst[pick].tolist())]
    path.write_text("".join(lines))


def run(seed: int, seconds: float, trace: bool, cfg: LiveConfig = LiveConfig()) -> Outcome:
    import repro.generators as gens

    with scratch_dir("live") as work:
        feed_path = ROOT / work / "feed.txt"
        # the benchmark's own copy of the graph lives only this long,
        # so peak_rss_mb counts the engine's memory, not the harness's.
        write_feed(feed_path, gens.generate(GRAPH, scale=cfg.scale).graph, seed)
        gc.collect()
        tracer = Tracer()
        inst = Instrumentation(tracer)
        if trace:
            inst.install()
        setups: List[Tuple[float, float]] = []
        eng = sess = None
        for _ in range(SETUP_REPEATS):
            if eng is not None:
                eng.close()
                eng = sess = None
                gc.collect()
            eng, sess, wall_cpu = _setup(cfg.scale)
            setups.append(wall_cpu)
        setup_view = LayerView(tracer.spans)
        inst.uninstall()
        speed = None
        try:
            speed = HostSpeed()
            feed = _Feed(eng, sess, work, speed)
            if trace:
                untraced, traced = measure_split(seconds)
                ref = feed.measure(untraced, min_batches=1, min_reads=1)
                tracer.spans.clear()
                dyn0 = dict(sess.dynamic.stats.to_dict())
                inst.install()
                part = feed.measure(traced, min_batches=1, min_reads=1)
                inst.uninstall()
                dyn1 = dict(sess.dynamic.stats.to_dict())
            else:
                part = feed.measure(
                    seconds,
                    min_batches=samples_needed(FRESH_Q),
                    min_reads=samples_needed(READ_Q),
                )
            # read before the oracle below allocates its own graph.
            rss = vm_hwm_mb()
            feed.source.close()
        finally:
            if speed is not None:
                speed.close()
            eng.close()
        base = gens.generate(GRAPH, scale=cfg.scale).graph
        want, tarjan_s = _final_oracle(base, feed_path, feed.consumer.committed_offset)
        oracle.check("live final labels_crc32 vs Tarjan", feed.consumer.labels_crc32, want)

    report = Report()
    if trace:
        view = LayerView(tracer.spans)
        ops = part.batches
        n_setup = len(setups)
        report.add("generators.generate_s", setup_view.total("generators.generate") / n_setup, "s", n=n_setup)
        report.add("session.transpose_s", setup_view.total("session.transpose") / n_setup, "s", n=n_setup)
        report.add("session.cold_extra_s", 0.0, "s", base="not measured on live")
        core_metrics(view, report)
        kernel_metrics(view, report, ops)
        common_layer_metrics(view, report, ops)
        _dynamic_metrics(report, dyn0, dyn1, ops)
        report.add("ingest.batches", part.batches, "count")
        report.add("ingest.conflict_flushes", part.conflict_flushes, "count")
        report.add("baseline.tarjan_s", tarjan_s, "s", base="one Tarjan run on the final live graph")
        report.add("trace.ops", ops, "count", base="batches applied; reads amortized over them")
        report.add(
            "trace.overhead_frac", ref.edits_per_s / part.edits_per_s - 1.0, "frac",
            base=f"{ref.edits_per_s:.1f} edits per CPU second untraced vs {part.edits_per_s:.1f} traced",
        )
        roots = sum(s.dur for s in view.spans if s.parent is None)
        add_residual(
            report, 1.0 - roots / part.wall, RESIDUAL_CEILING,
            f"share of the {part.wall:.4f}s feed loop outside layer spans",
        )
        tiers = tiers_from_spans(view.spans)
    else:
        _end_to_end(report, setups, part, rss, speed)
        tiers = None
    return Outcome(report, attempted=feed.consumer.batches + feed.reads_total, failed=0, tiers=tiers)


def _setup(scale: float):
    """Load the graph, warm the session and promote it to mutable."""
    from repro.engine.engine import Engine

    t0 = time.perf_counter()
    c0 = process_cpu()
    eng = Engine()
    sess = eng.load(GRAPH, scale=scale)
    sess.warmup()
    eng.update(sess, [], [])
    return eng, sess, (time.perf_counter() - t0, process_cpu() - c0)


@dataclass
class _Part:
    """What one measured stretch of the feed did."""

    batches: int
    records: int
    conflict_flushes: int
    wall: float
    reads: List[float]
    fresh: List[float]
    #: CPU seconds of each committed batch and of each read.
    batch_cpu: List[float]
    read_cpu: List[float]

    @property
    def drain(self) -> float:
        """Wall seconds of the stretch spent outside reads."""
        return self.wall - sum(self.reads)

    @property
    def edits_per_s(self) -> float:
        """Edits applied per CPU second of the committed batches."""
        return self.records / sum(self.batch_cpu)


class _Feed:
    """The consumer stack over the feed file, plus the reads."""

    def __init__(self, eng, sess, work: Path, speed: HostSpeed) -> None:
        from repro.ingest.checkpoint import StreamCheckpoint
        from repro.ingest.consumer import EngineApplier, StreamConsumer
        from repro.ingest.sources import FileTailSource

        feed = self

        class ReadingCheckpoint(StreamCheckpoint):
            """Commits each batch, then every :data:`READ_EVERY`-th commit
            runs one full read against the committed graph version."""

            def save(self, watermark) -> None:
                super().save(watermark)
                feed._after_commit(watermark)

        self.eng = eng
        self.sess = sess
        self.commits = 0
        self.reads: List[float] = []
        self.batch_cpu: List[float] = []
        self.read_cpu: List[float] = []
        self.reads_total = 0
        self.speed = speed
        self._mark = 0.0
        self.source = FileTailSource(ROOT / work / "feed.txt", follow=False, chunk_bytes=CHUNK_BYTES)
        self.consumer = StreamConsumer(
            self.source,
            EngineApplier(eng, sess),
            checkpoint=ReadingCheckpoint(ROOT / work / "checkpoint.json"),
            batch_edges=INSERTS + DELETES,
            batch_age=float("inf"),
        )

    def _after_commit(self, watermark) -> None:
        self.batch_cpu.append(process_cpu() - self._mark)
        self.commits += 1
        if self.commits % READ_EVERY == 0:
            self._read(watermark)
        self.speed.tick()
        self._mark = process_cpu()  # the next batch starts here

    def _read(self, watermark) -> None:
        t0 = time.perf_counter()
        c0 = process_cpu()
        result = self.eng.run(self.sess)
        self.read_cpu.append(process_cpu() - c0)
        self.reads.append(time.perf_counter() - t0)
        self.reads_total += 1
        oracle.check("live read graph_version", self.sess.version, watermark.graph_version)
        oracle.check(
            f"live read labels_crc32 @v{watermark.graph_version}",
            oracle.labels_crc(result.labels),
            watermark.labels_crc32,
        )

    def measure(self, seconds: float, *, min_batches: int, min_reads: int) -> _Part:
        """Run the feed for ``seconds`` of CPU time (and until the
        sample floors are met), so a slow stretch of the host does not
        move the run to an earlier part of the feed, whose batches and
        reads cost less; :func:`~pbench.workload.stretch_cap` of wall
        time stops it regardless."""
        c = self.consumer
        b0, r0, f0 = c.batches, c.records_applied, c.conflict_flushes
        lag0 = len(c._lag_samples)  # the consumer's per-batch ages at apply
        self.reads, self.batch_cpu, self.read_cpu = [], [], []
        start = time.perf_counter()
        self._mark = cpu0 = process_cpu()
        task0 = self.speed.wall
        while not c.ended:
            c.step()
            ready = c.batches - b0 >= min_batches and len(self.reads) >= min_reads
            if enough(process_cpu() - cpu0, seconds, int(ready), 1):
                break
            if time.perf_counter() - start >= stretch_cap(seconds):
                break
        # the reference task's turns are not part of the feed's time
        wall = time.perf_counter() - start - (self.speed.wall - task0)
        return _Part(
            batches=c.batches - b0,
            records=c.records_applied - r0,
            conflict_flushes=c.conflict_flushes - f0,
            wall=wall,
            reads=self.reads,
            fresh=list(c._lag_samples[lag0:]),
            batch_cpu=self.batch_cpu,
            read_cpu=self.read_cpu,
        )


def _final_oracle(base, feed_path: Path, committed_offset: int):
    """Tarjan on the base graph with every committed edit of the feed
    file applied in feed order to a fresh ``DeltaCSR``."""
    from repro.graph.delta import DeltaCSR

    delta = DeltaCSR(base)
    with open(feed_path, "rb") as fh:
        text = fh.read(committed_offset).decode()
    for line in text.split("\n")[:-1]:  # whole lines only
        if line.startswith("+ "):
            delta.add_edge(*map(int, line[2:].split()))
        elif line.startswith("- "):
            delta.remove_edge(*map(int, line[2:].split()))
    return oracle.tarjan_crc(delta.snapshot())


def _dynamic_metrics(report: Report, before: dict, after: dict, ops: int) -> None:
    d = {k: after[k] - before.get(k, 0) for k in after if isinstance(after[k], (int, float))}
    inserts = d.get("inserts", 0)
    report.add(
        "dynamic.fast_insert_frac", d.get("fast_inserts", 0) / inserts if inserts else 0.0, "frac",
        base=f"{inserts} inserts",
    )
    report.add("dynamic.inserts", inserts, "count")
    for key in ("searched_inserts", "splits", "cascade_visits"):
        report.add(f"dynamic.{key}", d.get(key, 0) / ops if ops else 0.0, "count/op")
    report.add("dynamic.rebuilds", d.get("rebuilds", 0), "count")


def _end_to_end(report: Report, setups: List[Tuple[float, float]], part: _Part, rss: float,
                speed: HostSpeed) -> None:
    n_ops = part.batches + len(part.reads)
    f = speed.factor()
    batch_cpu = [c * f for c in part.batch_cpu]
    read_cpu = [c * f for c in part.read_cpu]
    busy = sum(batch_cpu)
    report.add("setup_s", statistics.median(c for _, c in setups) * f, "s", n=len(setups),
               base="scaled CPU seconds of one set-up")
    report.add("success_frac", 1.0, "frac", base=f"{n_ops} batches and reads; a failure aborts the run")
    report.add("peak_rss_mb", rss, "MB", base="VmHWM before the final oracle")
    report.add("rate_per_s", part.records / busy, "1/s", label="live_edits_per_s", n=len(batch_cpu),
               base=f"per scaled CPU second of committed batches, {busy:.3f}s outside reads")
    report.add("capacity_per_cpu_s", len(batch_cpu) / busy, "1/s", label="live_batches_per_s",
               n=len(batch_cpu), base="per scaled CPU second outside reads")
    report.timing("p50_cpu_s", batch_cpu, 50, label="live_batch_p50_s (scaled CPU)")
    report.timing("tail_cpu_s", batch_cpu, FRESH_Q, label="live_batch_p95_s (scaled CPU)")
    report.timing("read_p50_cpu_s", read_cpu, 50, label="live_read_p50_s (scaled CPU)")
    report.timing("read_tail_cpu_s", read_cpu, READ_Q, label="live_read_p80_s (scaled CPU)")
    report.notes.append(speed.note())
    report.notes.append(
        f"raw CPU: setup_s = {statistics.median(c for _, c in setups):.6g} s, "
        f"live_edits_per_s = {part.edits_per_s:.6g} 1/s, "
        f"live_batch_p50_s = {percentile(part.batch_cpu, 50):.6g} s, "
        f"live_batch_p95_s = {percentile(part.batch_cpu, FRESH_Q):.6g} s, "
        f"live_read_p50_s = {percentile(part.read_cpu, 50):.6g} s, "
        f"live_read_p80_s = {percentile(part.read_cpu, READ_Q):.6g} s; not bounded"
    )
    report.notes.append(
        f"wall clock: setup_s = {statistics.median(w for w, _ in setups):.6g} s, "
        f"live_edits_per_s = {part.records / part.drain:.6g} 1/s (drain outside reads), "
        f"live_fresh_p50_s = {percentile(part.fresh, 50):.6g} s, "
        f"live_fresh_p95_s = {percentile(part.fresh, FRESH_Q):.6g} s (batch age at apply, n={len(part.fresh)}), "
        f"live_read_p50_s = {percentile(part.reads, 50):.6g} s, "
        f"live_read_p80_s = {percentile(part.reads, READ_Q):.6g} s (n={len(part.reads)}); not bounded"
    )

