"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from pbench import cpu, detect, layers, live, loadgen, metrics, oracle, reference, serve, stats, tracing  # noqa: E402


# -- load generator -----------------------------------------------------------
def test_seeded_schedule_reproduces():
    a = loadgen.poisson_schedule(7, 30.0, 5.0)
    assert a == loadgen.poisson_schedule(7, 30.0, 5.0)
    assert a != loadgen.poisson_schedule(8, 30.0, 5.0)
    assert all(x <= y for x, y in zip(a, a[1:]))
    assert len(a) == 150 and 0.0 <= a[0] and a[-1] <= 5.0
    gaps = [y - x for x, y in zip(a, a[1:])]
    assert 0.5 / 30.0 < sum(gaps) / len(gaps) < 1.5 / 30.0
    assert len(loadgen.poisson_schedule(7, 30.0, 0.1, min_count=50)) == 50


def test_open_loop_times_from_due_and_accounts_lateness():
    now = [0.0]

    def clock():
        return now[0]

    def sleep(d):
        now[0] += d

    def send(i):
        now[0] += 0.25  # every reply takes 250 ms
        return i

    sent = loadgen.open_loop(
        [0.0, 0.1, 0.2, 1.0], send, senders=1, clock=clock, sleep=sleep, lead=0.0
    )
    # the single sender is busy when requests 1 and 2 fall due: they
    # leave late, and the wait counts in their latency.
    assert [round(s.late, 9) for s in sent] == [0.0, 0.15, 0.3, 0.0]
    assert [round(s.latency, 9) for s in sent] == [0.25, 0.4, 0.55, 0.25]
    assert [s.response for s in sent] == [0, 1, 2, 3]


def test_closed_loop_meets_its_sample_floor():
    sent = loadgen.closed_loop(lambda i: i, clients=2, duration=0.0, min_count=25)
    assert len(sent) >= 25
    assert [s.index for s in sent] == list(range(len(sent)))


def test_closed_loop_runs_between_outside_the_timing():
    now = [0.0]

    def between():
        now[0] += 1.0  # e.g. the reference task

    def send(i):
        now[0] += 0.25
        return i

    sent = loadgen.closed_loop(
        send, clients=1, duration=0.0, min_count=3, clock=lambda: now[0], between=between
    )
    assert len(sent) == 3
    assert all(s.done - s.sent == 0.25 for s in sent)


# -- CPU clocks -----------------------------------------------------------------
def test_cpu_clock_of_another_process_counts_its_run_time_only():
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\ntime.sleep(30)"
    child = subprocess.Popen([sys.executable, "-c", busy])
    try:
        import time

        deadline = time.monotonic() + 20
        while cpu.process_cpu(child.pid) < 0.3 and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # past the busy loop's end (it started after start-up)
        first = cpu.process_cpu(child.pid)
        time.sleep(0.3)  # the child sleeps now: its clock must stand still
        assert 0.3 <= first <= cpu.process_cpu(child.pid) < first + 0.02
        assert cpu.group_cpu([child.pid, os.getpid()]) > first
    finally:
        child.kill()
        child.wait()
    with pytest.raises(OSError):
        cpu.process_cpu(child.pid)


def test_host_speed_scales_by_the_median_task_time_and_stops_its_child():
    with reference.HostSpeed() as speed:
        child = speed._proc
        speed.tick()
        speed.tick()  # not due yet: no second sample
        assert len(speed.samples) == 1 and speed.samples[0] > 0
    assert child.poll() is not None
    speed.samples[:] = [0.01, 0.04, 0.02]
    assert speed.factor() == pytest.approx(reference.NOMINAL_S / 0.02)


# -- spans ----------------------------------------------------------------------
def _span(name, start, end, sid, parent=None, pid=1):
    return tracing.Span(name, start, end, sid, parent, None, pid, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, 1),
        _span("a", 1.0, 4.0, 2, parent=1),
        _span("a.inner", 2.0, 3.0, 3, parent=2),
        _span("b", 5.0, 6.0, 4, parent=1),
        _span("root", 0.0, 2.0, 1, pid=2),  # same sid, other process
    ]
    st = tracing.self_times(spans)
    assert st[(1, 1)] == pytest.approx(6.0)
    assert st[(1, 2)] == pytest.approx(2.0)
    assert st[(1, 3)] == pytest.approx(1.0)
    assert st[(1, 4)] == pytest.approx(1.0)
    assert st[(2, 1)] == pytest.approx(2.0)
    assert sum(st[(1, s)] for s in (1, 2, 3, 4)) == pytest.approx(10.0)


def test_tracer_links_parents_and_request_ids(tmp_path):
    tr = tracing.Tracer(str(tmp_path))
    tr.set_rid("r1")
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner, {"edges": 3})
    tr.end(outer)
    by = {s.name: s for s in tr.spans}
    assert by["inner"].parent == by["outer"].sid
    assert by["outer"].parent is None
    assert {s.rid for s in tr.spans} == {"r1"}
    # the outermost span closing wrote both to the per-pid file
    assert sorted(s.name for s in tracing.read_span_files(str(tmp_path))) == ["inner", "outer"]


def test_core_metrics_split_each_run():
    spans = [
        _span("engine.run", 0.0, 1.0, 1),
        _span("core.par_trim", 0.1, 0.4, 2, parent=1),
        _span("kernels.trim_decrement", 0.2, 0.3, 3, parent=2),
        _span("core.par_fwbw", 2.0, 2.5, 4),  # a phase outside Engine.run
    ]
    report = metrics.Report()
    metrics.core_metrics(metrics.LayerView(spans), report)
    assert report.metrics["core.runs"].value == 1
    assert report.metrics["core.par_trim_s"].value == pytest.approx(0.2)
    assert report.metrics["core.par_fwbw_s"].value == 0.0
    assert report.metrics["core.other_s"].value == pytest.approx(0.7)


def test_residual_over_its_ceiling_fails():
    report = metrics.Report()
    metrics.add_residual(report, 0.01, 0.02, "test")
    assert report.metrics["trace.residual_frac"].value == 0.01
    with pytest.raises(metrics.TraceShapeError):
        metrics.add_residual(metrics.Report(), 0.03, 0.02, "test")


def test_wrapper_counting_is_not_charged_to_layers():
    from repro.engine.engine import Engine
    from repro.generators import generate

    g = generate("wiki", scale=0.02).graph
    tracer = tracing.Tracer()
    inst = layers.Instrumentation(tracer).install()
    try:
        with Engine() as eng:
            eng.run(g)
    finally:
        inst.uninstall()
    spans = tracer.spans
    kids = tracing.children_of(spans)
    phases = [s for s in spans if s.name.startswith("core.")]
    assert phases
    for ph in phases:
        # the after-count is the phase's last child span, so its self
        # time leaves it out; the before-count is a sibling outside it.
        assert kids[(ph.pid, ph.sid)][-1].name == "trace.count"
    view = metrics.LayerView(spans)
    report = metrics.Report()
    metrics.common_layer_metrics(view, report, 1)
    assert report.metrics["trace.count_s"].value == pytest.approx(view.total("trace.count"))
    assert report.metrics["trace.count_s"].value > 0


# -- percentiles --------------------------------------------------------------
def test_percentile_refuses_fewer_than_ten_beyond():
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(1, 100)), 90)
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(95) == 200
    assert stats.samples_needed(80) == 50
    stats.percentile(list(range(200)), 95)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0, 2.0], 50)


# -- oracle -------------------------------------------------------------------
def test_oracle_catches_one_flipped_label():
    from repro.engine.engine import Engine
    from repro.generators import generate

    g = generate("wiki", scale=0.02).graph
    want, _ = oracle.tarjan_crc(g)
    with Engine() as eng:
        labels = eng.run(g).labels.copy()
    oracle.check("clean", oracle.labels_crc(labels), want)
    # renaming components is not an error: the CRC is over canonical labels
    oracle.check("renamed", oracle.labels_crc(labels + 1000), want)
    node = int(np.flatnonzero(np.bincount(labels)[labels] > 1)[0])
    labels[node] = labels.max() + 1  # split one node off its SCC
    with pytest.raises(oracle.OracleMismatch):
        oracle.check("flipped", oracle.labels_crc(labels), want)


# -- smoke runs -----------------------------------------------------------------
@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace", [False, True])
def test_detect_smoke(at_root, trace):
    cfg = detect.DetectConfig(scale=0.02, names=("wiki", "ca-road"))
    out = detect.run(3, 0.2, trace, cfg)
    _check_outcome(out, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_serve_smoke(at_root, trace):
    cfg = serve.ServeConfig(scale=0.02, names=("wiki", "ca-road"))
    out = serve.run(3, 0.5, trace, cfg)
    _check_outcome(out, trace)
    if trace:
        assert out.report.metrics["workers.dispatched"].value > 0
        assert out.report.metrics["integrity.verify.calls"].value > 0


@pytest.mark.parametrize("trace", [False, True])
def test_live_smoke(at_root, trace):
    cfg = live.LiveConfig(scale=0.05)
    out = live.run(3, 0.2, trace, cfg)
    _check_outcome(out, trace)
    if trace:
        assert out.report.metrics["engine.update_s"].value > 0
        assert out.report.metrics["ingest.checkpoint.calls"].value == pytest.approx(1.0)


def _check_outcome(out, trace):
    assert out.failed == 0 and out.attempted > 0
    if trace:
        assert out.report.metrics["core.runs"].value > 0
        assert out.report.metrics["trace.ops"].value > 0
        assert "trace.residual_frac" in out.report.metrics
    else:
        keys = [k for k, _ in metrics.END_TO_END]
        assert set(out.report.json_metrics(keys)) == set(keys)
        assert all(out.report.metrics[k].value > 0 for k in keys)
    assert not list((ROOT / ".perfbench_work").glob(f"*-{os.getpid()}"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
