"""Metric records, the printed report, and per-layer metrics from spans.

End-to-end metrics carry one JSON name shared by every workload (runs
of a workload are compared metric by metric under one bound) and the
workload-specific label they stand for, e.g. ``rate_per_s`` is
``detect_edges_per_s`` on the ``detect`` workload.  Names with ``cpu``
(and ``setup_s``, and ``rate_per_s`` on detect and live) are read from
CPU clocks, see :mod:`pbench.cpu`.  Per-layer metrics are
derived from the spans of a traced stretch; a layer a workload does
not reach reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .stats import percentile
from .tracing import Span, children_of, self_times

#: (json name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("success_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
    ("capacity_per_cpu_s", "1/s"),
    ("p50_cpu_s", "s"),
    ("tail_cpu_s", "s"),
    ("read_p50_cpu_s", "s"),
    ("read_tail_cpu_s", "s"),
)

KERNELS = (
    "expand_frontier",
    "delta_expand_frontier",
    "bfs_level_transform",
    "trim_decrement",
    "effective_degrees",
    "wcc_hook_round",
    "trim2_pattern_pairs",
    "dfs_collect_colored",
    "ms_expand_frontier",
    "ms_fwbw_intersect",
)
EDGE_KERNELS = ("expand_frontier", "delta_expand_frontier", "ms_expand_frontier")
PHASES = ("par_trim", "par_fwbw", "par_trim2", "par_wcc", "recur_fwbw")


def _per_layer_units() -> Dict[str, str]:
    u = {
        "generators.generate_s": "s",
        "session.transpose_s": "s",
        "session.cold_extra_s": "s",
        "core.runs": "count",
    }
    for p in PHASES + ("other",):
        u[f"core.{p}_s"] = "s"
        u[f"core.{p}.share"] = "frac"
    u["core.par_trim.removed"] = "count"
    u["core.par_fwbw.giant_size"] = "count"
    u["core.recur_fwbw.queue_items"] = "count"
    for k in KERNELS:
        u[f"kernels.{k}.calls"] = "count/op"
        u[f"kernels.{k}_s"] = "s/op"
    for k in EDGE_KERNELS:
        u[f"kernels.{k}.edges"] = "count/op"
    u.update(
        {
            "integrity.verify_s": "s/op",
            "integrity.verify.calls": "count/op",
            "integrity.reseal_s": "s/op",
            "integrity.certify_s": "s/op",
            "service.handle_s": "s/op",
            "service.admit_s": "s/op",
            "service.journal_s": "s/op",
            "service.journal.calls": "count/op",
            "service.self_s": "s/op",
            "service.retried": "count",
            "service.shed": "count",
            "workers.execute_s": "s/op",
            "workers.ipc_s": "s/op",
            "workers.dispatched": "count",
            "workers.respawns": "count",
            "transport.client_s": "s/op",
            "transport.encode_s": "s/op",
            "transport.decode_s": "s/op",
            "loadgen.late_p95_s": "s",
            "loadgen.sent": "count",
            "loadgen.open_p50_s": "s",
            "loadgen.open_p95_s": "s",
            "engine.update_s": "s/op",
            "dynamic.apply_s": "s/op",
            "engine.update_other_s": "s/op",
            "delta.view_s": "s/op",
            "delta.compact_s": "s/op",
            "delta.compact.calls": "count",
            "dynamic.fast_insert_frac": "frac",
            "dynamic.inserts": "count",
            "dynamic.searched_inserts": "count/op",
            "dynamic.splits": "count/op",
            "dynamic.rebuilds": "count",
            "dynamic.cascade_visits": "count/op",
            "ingest.read_s": "s/op",
            "ingest.parse_s": "s/op",
            "ingest.checkpoint_s": "s/op",
            "ingest.checkpoint.calls": "count/op",
            "ingest.batches": "count",
            "ingest.conflict_flushes": "count",
            "baseline.tarjan_s": "s",
            "trace.ops": "count",
            "trace.overhead_frac": "frac",
            "trace.residual_frac": "frac",
            "trace.count_s": "s/op",
        }
    )
    return u


#: unit of every per-layer metric (``.../op`` = per workload operation).
PER_LAYER = _per_layer_units()


@dataclass
class Metric:
    key: str
    value: float
    unit: str
    label: str
    n: Optional[int] = None
    base: Optional[str] = None

    def line(self) -> str:
        text = f"{self.label} = {self.value:.6g} {self.unit}"
        if self.n is not None:
            text += f" (n={self.n})"
        if self.base:
            text += f" [base: {self.base}]"
        if self.label != self.key:
            text += f"  -> {self.key}"
        return text


class Report:
    """The metrics one run prints, human lines first, JSON last."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Metric] = {}
        self.notes: List[str] = []

    def add(self, key, value, unit, *, label=None, n=None, base=None) -> None:
        if key in self.metrics:
            raise KeyError(f"metric {key!r} reported twice")
        self.metrics[key] = Metric(key, float(value), unit, label or key, n, base)

    def timing(self, key, values: Sequence[float], q: float, *, label=None) -> None:
        """A percentile of ``values`` under the sample rule."""
        self.add(key, percentile(values, q), "s", label=label, n=len(values))

    def json_metrics(self, keys: Iterable[str]) -> dict:
        out = {}
        for k in keys:
            m = self.metrics[k]
            out[k] = {"value": m.value, "unit": m.unit}
        return out


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------
class LayerView:
    """Sums over the spans of one traced stretch.

    ``by_name`` skips a span whose parent has the same name, so a layer
    that calls itself is not counted twice.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.self_t = self_times(self.spans)
        self.kids = children_of(self.spans)
        name_of = {(s.pid, s.sid): s.name for s in self.spans}
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        for s in self.spans:
            if name_of.get((s.pid, s.parent)) != s.name:
                self.by_name[s.name].append(s)

    def total(self, name: str, *, pids=None) -> float:
        return sum(s.dur for s in self._pick(name, pids))

    def self_total(self, name: str, *, pids=None) -> float:
        return sum(self.self_t[(s.pid, s.sid)] for s in self._pick(name, pids))

    def count(self, name: str, *, pids=None) -> int:
        return len(self._pick(name, pids))

    def attr_total(self, name: str, attr: str) -> float:
        return sum((s.attrs or {}).get(attr, 0) for s in self.by_name[name])

    def _pick(self, name, pids):
        spans = self.by_name.get(name, [])
        if pids is None:
            return spans
        return [s for s in spans if s.pid in pids]


class TraceShapeError(AssertionError):
    """The layer spans no longer account for the end-to-end time."""


def add_residual(report: Report, value: float, ceiling: float, base: str) -> None:
    """Report ``trace.residual_frac``, the share of the end-to-end time
    that no layer span covers (self times add up to their root spans
    exactly, so this is all the layers leave unaccounted).  A traced run
    whose share exceeds the workload's stated ``ceiling`` fails."""
    report.add("trace.residual_frac", value, "frac", base=f"{base}; ceiling {ceiling:g}")
    if value > ceiling:
        raise TraceShapeError(
            f"trace.residual_frac {value:.4f} exceeds its ceiling {ceiling:g} ({base})"
        )


def core_metrics(view: LayerView, report: Report) -> None:
    """Method-2 phase self times per ``Engine.run`` span (median over
    runs) and their share of all run time, plus the phase counts.
    ``core.other_s`` is the run's own self time: what its phases (and
    transposes, integrity checks, the wrappers' counting) leave.  Phase
    spans outside ``Engine.run`` (the library entry point the
    incremental maintainer's rebuild calls) are not runs and are left
    out.
    """
    runs = view.by_name.get("engine.run", [])
    per_run = []
    for run in runs:
        kids = view.kids.get((run.pid, run.sid), [])
        phases = [k for k in kids if k.name.startswith("core.")]
        if not phases:
            continue  # a non-pipeline method, or a session-only call
        row = {p: 0.0 for p in PHASES}
        counts = {"removed": 0, "giant": 0, "queue": 0}
        for k in phases:
            timer = k.name[len("core."):]
            row[timer] += view.self_t[(k.pid, k.sid)]
            attrs = k.attrs or {}
            if timer == "par_trim":
                counts["removed"] += attrs.get("labelled", 0)
            elif timer == "par_fwbw":
                counts["giant"] += attrs.get("labelled", 0)
            elif timer == "recur_fwbw":
                counts["queue"] += attrs.get("queue_items", 0)
        row["other"] = view.self_t[(run.pid, run.sid)]
        per_run.append((run.dur, row, counts))
    n = len(per_run)
    report.add("core.runs", n, "count", n=n)
    run_total = sum(r[0] for r in per_run)
    for p in PHASES + ("other",):
        vals = [r[1][p] for r in per_run]
        report.add(f"core.{p}_s", _median(vals), "s", n=n)
        report.add(
            f"core.{p}.share",
            sum(vals) / run_total if run_total else 0.0,
            "frac",
            n=n,
            base=f"{run_total:.4f}s of engine.run",
        )
    for key, c in (
        ("core.par_trim.removed", "removed"),
        ("core.par_fwbw.giant_size", "giant"),
        ("core.recur_fwbw.queue_items", "queue"),
    ):
        report.add(key, _median([r[2][c] for r in per_run]), "count", n=n)


def kernel_metrics(view: LayerView, report: Report, ops: int) -> None:
    for k in KERNELS:
        name = f"kernels.{k}"
        report.add(f"{name}.calls", _per(view.count(name), ops), "count/op")
        report.add(f"{name}_s", _per(view.total(name), ops), "s/op")
    for k in EDGE_KERNELS:
        name = f"kernels.{k}"
        report.add(
            f"{name}.edges",
            _per(view.attr_total(name, "edges"), ops),
            "count/op",
            base="computed from indptr and the frontier argument",
        )


def fill_missing(report: Report) -> None:
    """Report 0 for every per-layer metric this workload never reached."""
    for key, unit in PER_LAYER.items():
        if key not in report.metrics:
            report.add(key, 0.0, unit, base="layer not reached")


def _per(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def _median(vals: Sequence[float]) -> float:
    return float(statistics.median(vals)) if vals else 0.0


def common_layer_metrics(view: LayerView, report: Report, ops: int) -> None:
    """The per-layer metrics every workload derives the same way:
    integrity, ``Engine.update`` and the delta graph, and ingest;
    ``ops`` is the workload's operation count."""
    for name in (
        "integrity.verify",
        "integrity.reseal",
        "integrity.certify",
        "engine.update",
        "dynamic.apply",
        "delta.view",
        "delta.compact",
        "ingest.read",
        "ingest.parse",
        "ingest.checkpoint",
    ):
        report.add(f"{name}_s", _per(view.total(name), ops), "s/op")
    report.add("integrity.verify.calls", _per(view.count("integrity.verify"), ops), "count/op")
    report.add(
        "engine.update_other_s",
        _per(view.total("engine.update") - view.total("dynamic.apply"), ops),
        "s/op",
        base="engine.update minus dynamic.apply",
    )
    report.add("delta.compact.calls", view.count("delta.compact"), "count")
    report.add("ingest.checkpoint.calls", _per(view.count("ingest.checkpoint"), ops), "count/op")
    report.add(
        "trace.count_s", _per(view.total("trace.count"), ops), "s/op",
        base="the wrappers' own counting, left out of the layers it ran in",
    )
