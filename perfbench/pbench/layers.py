"""Spans around the public entry points of each layer of ``repro``.

:class:`Instrumentation` swaps each entry point for a wrapper that
records a span, and :meth:`Instrumentation.uninstall` puts the
originals back, so one process can measure a stretch untraced and then
a stretch traced.  Kernels are re-registered through
``repro.kernels.registry.register`` (every call dispatches through the
registry, so the wrapper also sees which implementation ran); the
Method-2 phases are wrapped inside ``repro.core.method2.method2_phases``.
Nothing in ``src/`` changes.

Span names are the layer metric prefixes: ``engine.run``,
``core.<phase>``, ``kernels.<name>``, ``session.transpose``,
``generators.generate``, ``integrity.{verify,reseal,certify}``,
``service.{handle,admit,journal}``, ``workers.execute``,
``transport.{encode,decode}``, ``engine.update``, ``dynamic.apply``,
``delta.{view,compact}`` and ``ingest.{read,parse,checkpoint}``.  What
the wrappers count themselves (edges scanned, nodes labelled) runs in
``trace.count`` spans, so self times charge it to the benchmark and not
to the layer it ran inside.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from typing import Callable, Dict, List

import numpy as np

from .tracing import Tracer

#: module of a registered kernel implementation -> the tier it is.
TIER_OF_MODULE = {
    "repro.kernels.reference": "numpy",
    "repro.kernels.fastpath": "fastpath",
    "repro.kernels.jit": "numba",
}

#: kernels whose frontier argument gives the edges a call scans:
#: kernel -> (position of indptr, positions of extra indptrs, position
#: of the frontier).  The count is computed from the arguments, not
#: reported by the kernel.
_EDGE_ARGS = {
    "expand_frontier": (0, (), 2),
    "delta_expand_frontier": (0, (3,), 5),
    "ms_expand_frontier": (0, (), 2),
}


def tier_of(fn: Callable) -> str:
    return TIER_OF_MODULE.get(getattr(fn, "__module__", ""), "unknown")


def _counted(tracer: Tracer, fn: Callable, *args):
    """``fn(*args)`` inside a ``trace.count`` span."""
    rec = tracer.begin("trace.count")
    try:
        return fn(*args)
    finally:
        tracer.end(rec)


def _labelled(state) -> int:
    return int(np.count_nonzero(state.labels >= 0))


def _edges_scanned(args, spec) -> int:
    ptr_pos, extra, front_pos = spec
    frontier = np.asarray(args[front_pos], dtype=np.int64)
    if frontier.size == 0:
        return 0
    total = 0
    for pos in (ptr_pos,) + extra:
        ptr = args[pos]
        total += int((ptr[frontier + 1] - ptr[frontier]).sum())
    return total


class Instrumentation:
    """Installs and removes the layer wrappers for one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    # -- generic wrappers ----------------------------------------------
    def _patch(self, owner, attr: str, make: Callable) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append(lambda: setattr(owner, attr, orig))

    def _span(self, owner, attr: str, name: str) -> None:
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kwargs):
                rec = tracer.begin(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.end(rec)

            return wrapper

        self._patch(owner, attr, make)

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Instrumentation":
        if self._undo:
            return self
        import repro.generators
        import repro.integrity
        import repro.service.server
        from repro.core import method2
        from repro.engine.dynamic import DynamicSCC
        from repro.engine.engine import Engine
        from repro.engine.session import GraphSession
        from repro.graph.delta import DeltaCSR
        from repro.ingest.checkpoint import StreamCheckpoint
        from repro.ingest.parser import RecordParser
        from repro.ingest.sources import StreamSource
        from repro.integrity import ChecksummedArrays
        from repro.service.govern import AdmissionController
        from repro.service.journal import RequestJournal
        from repro.service.server import SCCService
        from repro.service.workers import WorkerSupervisor

        self._install_kernels()
        self._install_phases(method2)
        self._span(repro.generators, "generate", "generators.generate")
        self._span(Engine, "run", "engine.run")
        self._span(Engine, "update", "engine.update")
        self._span(GraphSession, "ensure_transpose", "session.transpose")
        self._span(ChecksummedArrays, "verify", "integrity.verify")
        self._span(ChecksummedArrays, "seal", "integrity.reseal")
        self._span(repro.integrity, "certify_result", "integrity.certify")
        self._install_handle(SCCService)
        self._span(AdmissionController, "admit", "service.admit")
        for event in ("accepted", "dispatched", "replayed", "completed", "shed"):
            self._span(RequestJournal, event, "service.journal")
        self._span(WorkerSupervisor, "execute", "workers.execute")
        self._install_transport(repro.service.server)
        self._span(DynamicSCC, "apply", "dynamic.apply")
        for view in ("forward_view", "backward_view", "snapshot"):
            self._span(DeltaCSR, view, "delta.view")
        self._span(DeltaCSR, "compact", "delta.compact")
        self._span(StreamSource, "read", "ingest.read")
        self._span(RecordParser, "feed_at", "ingest.parse")
        self._span(RecordParser, "flush", "ingest.parse")
        self._span(StreamCheckpoint, "save", "ingest.checkpoint")
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- layer-specific wrappers ---------------------------------------
    def _install_kernels(self) -> None:
        from repro.kernels import registry

        tracer = self.tracer
        for kname in registry.kernel_names():
            for backend in registry.available_backends(kname):
                with warnings.catch_warnings():
                    # asking for the numba slot without numba warns;
                    # the slot itself is what we wrap.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    impl = registry.get_kernel(kname, backend)
                wrapped = self._kernel_wrapper(tracer, kname, impl)
                registry.register(kname, backend)(wrapped)
                self._undo.append(
                    functools.partial(
                        registry.register(kname, backend), impl
                    )
                )

    @staticmethod
    def _kernel_wrapper(tracer: Tracer, kname: str, impl: Callable):
        name = f"kernels.{kname}"
        tier = tier_of(impl)
        edge_spec = _EDGE_ARGS.get(kname)

        @functools.wraps(impl)
        def kernel(*args, **kwargs):
            attrs = {"tier": tier}
            if edge_spec is not None:
                attrs["edges"] = _counted(tracer, _edges_scanned, args, edge_spec)
            rec = tracer.begin(name)
            try:
                return impl(*args, **kwargs)
            finally:
                tracer.end(rec, attrs)

        return kernel

    def _install_phases(self, method2) -> None:
        tracer = self.tracer

        def wrap_phase(ph):
            inner = ph.fn
            name = f"core.{ph.timer}"

            def fn(state, ctx):
                attrs = {}
                if ph.timer == "recur_fwbw":
                    attrs["queue_items"] = len(ctx.get("queue") or ())
                before = _counted(tracer, _labelled, state)
                rec = tracer.begin(name)
                try:
                    return inner(state, ctx)
                finally:
                    attrs["labelled"] = _counted(tracer, _labelled, state) - before
                    tracer.end(rec, attrs)

            return dataclasses.replace(ph, fn=fn)

        def make(orig):
            def phases(**kwargs):
                return [wrap_phase(ph) for ph in orig(**kwargs)]

            return phases

        self._patch(method2, "method2_phases", make)

    def _install_handle(self, service_cls) -> None:
        tracer = self.tracer

        def make(orig):
            def handle(self, request):
                rid = request.get("id") if isinstance(request, dict) else None
                old = tracer.set_rid(None if rid is None else str(rid))
                rec = tracer.begin("service.handle")
                try:
                    return orig(self, request)
                finally:
                    tracer.end(rec)
                    tracer.set_rid(old)

            return handle

        self._patch(service_cls, "handle", make)

    def _install_transport(self, server_module) -> None:
        """Time the daemon's JSON decode of requests and encode of
        responses (the socket transport calls ``json.loads`` and
        ``json.dumps`` through its module global)."""
        tracer = self.tracer
        orig = server_module.json

        class TimedJson:
            def __getattr__(self, attr):
                return getattr(orig, attr)

            def loads(self, *args, **kwargs):
                rec = tracer.begin("transport.decode")
                try:
                    return orig.loads(*args, **kwargs)
                finally:
                    tracer.end(rec)

            def dumps(self, *args, **kwargs):
                rec = tracer.begin("transport.encode")
                try:
                    return orig.dumps(*args, **kwargs)
                finally:
                    tracer.end(rec)

        server_module.json = TimedJson()
        self._undo.append(lambda: setattr(server_module, "json", orig))


def tiers_from_spans(spans) -> Dict[str, List[str]]:
    """Kernel name -> sorted tiers its spans record."""
    seen: Dict[str, set] = {}
    for s in spans:
        if s.name.startswith("kernels.") and s.attrs:
            seen.setdefault(s.name[len("kernels."):], set()).add(
                s.attrs.get("tier", "unknown")
            )
    return {k: sorted(v) for k, v in sorted(seen.items())}


def probe_tiers() -> Dict[str, List[str]]:
    """Which kernel implementations a small warm detection dispatches
    to, seen through the registry wrappers (used by untraced runs,
    whose measured stretch carries no wrappers)."""
    from repro.engine.engine import Engine
    from repro.generators import generate

    tracer = Tracer()
    inst = Instrumentation(tracer).install()
    try:
        g = generate("wiki", scale=0.02).graph
        with Engine() as eng:
            eng.run(g)
            eng.update(g, [(0, 1)], [])
            eng.run(g)
    finally:
        inst.uninstall()
    return tiers_from_spans(tracer.spans)


__all__ = [
    "Instrumentation",
    "probe_tiers",
    "tier_of",
    "tiers_from_spans",
    "TIER_OF_MODULE",
]
