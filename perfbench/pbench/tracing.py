"""Spans recorded around layer entry points, and self times from them.

A span is ``(name, start, end, sid, parent, rid, pid, attrs)``: times
from ``time.perf_counter`` (a system-wide monotonic clock on Linux, so
spans from forked workers line up with the front's), ``sid`` unique
within ``pid``, ``parent`` the enclosing span of the same thread, and
``rid`` the request id the span served.  ``attrs`` holds numbers a
wrapper counted at the boundary (edges scanned, nodes removed).

Spans stay in memory.  A tracer given a sink directory also appends
each thread's finished spans to ``spans-<pid>.ndjson`` whenever that
thread's outermost span closes: the serve daemon's forked workers exit
without running ``atexit``, so their spans must reach disk as they go.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    sid: int
    parent: Optional[int]
    rid: Optional[str]
    pid: int
    attrs: Optional[dict]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one process (and, after a fork, its child)."""

    def __init__(self, sink_dir: Optional[str] = None) -> None:
        self.sink_dir = sink_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self._fd: Optional[int] = None

    def _state(self):
        if os.getpid() != self.pid:
            # a forked child: the parent's spans are not ours to emit.
            self._reset()
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.rid = None
            loc.done = []
        return loc

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> list:
        loc = self._state()
        with self._lock:
            self._next += 1
            sid = self._next
        parent = loc.stack[-1] if loc.stack else None
        loc.stack.append(sid)
        return [name, time.perf_counter(), sid, parent, loc.rid]

    def end(self, rec: list, attrs: Optional[dict] = None) -> None:
        t1 = time.perf_counter()
        loc = self._state()
        loc.stack.pop()
        span = Span(rec[0], rec[1], t1, rec[2], rec[3], rec[4], self.pid, attrs)
        self.spans.append(span)
        if self.sink_dir is not None:
            loc.done.append(span)
            if not loc.stack:
                self._flush(loc)

    def set_rid(self, rid: Optional[str]) -> Optional[str]:
        """Tag this thread's next spans with ``rid``; returns the old one."""
        loc = self._state()
        old, loc.rid = loc.rid, rid
        return old

    def _flush(self, loc) -> None:
        done, loc.done = loc.done, []
        data = "".join(json.dumps(list(s)) + "\n" for s in done).encode()
        with self._lock:
            if self._fd is None:
                path = Path(self.sink_dir) / f"spans-{self.pid}.ndjson"
                self._fd = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._fd, data)


def read_span_files(sink_dir: str) -> List[Span]:
    """Every span the processes of one traced daemon wrote."""
    spans: List[Span] = []
    for path in sorted(Path(sink_dir).glob("spans-*.ndjson")):
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    spans.append(Span(*json.loads(line)))
    return spans


def self_times(spans: Iterable[Span]) -> Dict[tuple, float]:
    """``(pid, sid) -> self time``: a span's duration minus the part of
    it its child spans cover.

    Children of one span run on the span's own thread, one after
    another, so the covered part is the sum of the children's
    durations.
    """
    spans = list(spans)
    covered: Dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[(s.pid, s.parent)] += s.dur
    return {(s.pid, s.sid): s.dur - covered[(s.pid, s.sid)] for s in spans}


def children_of(spans: Iterable[Span]) -> Dict[tuple, List[Span]]:
    """``(pid, sid) -> direct child spans``."""
    kids: Dict[tuple, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[(s.pid, s.parent)].append(s)
    return kids
