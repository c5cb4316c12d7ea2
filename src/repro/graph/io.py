"""Graph I/O: SNAP-style edge lists, compact ``.npz``, MatrixMarket.

The paper's datasets come from SNAP / KONECT edge-list dumps — real,
multi-gigabyte, frequently dirty files.  This module therefore treats
ingestion as a *policy-governed boundary* rather than a trusting parse:

* The text reader **streams** the file in bounded chunks (optionally
  gzip-compressed), so peak parser memory is governed by
  ``chunk_lines``, not file size, and a clean chunk is parsed with one
  vectorized NumPy conversion while a dirty chunk falls back to a
  per-line scan that knows exactly which 1-based line offended.
* Every loader takes ``on_error``:

  - ``"strict"`` (default) — the first malformed line / missing array /
    corrupt header raises :class:`~repro.errors.GraphIngestError`
    naming the file and line;
  - ``"repair"`` — recoverable defects are coerced (integral float ids
    truncated, float dtypes cast, overlong ``.npz`` edge arrays
    trimmed, non-square adjacency padded) and everything else dropped;
  - ``"skip"`` — defective records are dropped without coercion.

  Both lenient policies account for every decision in a structured
  :class:`IngestReport` (counts plus a bounded sample of offending
  lines) returned via ``return_report=True``.
* All writers publish atomically (temp file + ``os.replace``), so a
  crash mid-write never leaves a truncated dataset where a complete one
  used to be.
* ``validate=True`` runs the :func:`~repro.graph.validate.validate_graph`
  structural gate on the loaded graph before returning it.

Self-loops and exact duplicate edges are *not* parse errors — SNAP
dumps legitimately contain both — so every policy accepts them; they
are counted in the report and removed according to the ``dedup`` /
``drop_self_loops`` arguments, exactly as the builders do.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass, field
from typing import IO, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import GraphIngestError
from ..ingest.framing import LineFramer
from ..ioutil import atomic_path, atomic_write
from .csr import CSRGraph
from .build import from_edge_array
from .validate import validate_graph

__all__ = [
    "ON_ERROR_POLICIES",
    "IngestReport",
    "read_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
    "read_matrix_market",
    "write_matrix_market",
]

PathLike = Union[str, os.PathLike]

#: ingestion policies accepted by every loader's ``on_error``.
ON_ERROR_POLICIES = ("strict", "repair", "skip")

#: default streaming chunk: bounds parser memory, amortizes NumPy calls.
DEFAULT_CHUNK_LINES = 1 << 18

#: bytes per raw read when streaming a text edge list through the
#: shared line framer.
_READ_CHUNK_BYTES = 1 << 20
#: read size for the lenient salvage pass over a broken stream: small
#: enough that a truncated gzip yields its decodable prefix instead of
#: discarding it inside one failing large read.
_SALVAGE_CHUNK_BYTES = 256

_INT64_MAX = int(np.iinfo(np.int64).max)

#: problem category -> IngestReport counter attribute.
_CATEGORY_FIELDS = {
    "malformed": "malformed",
    "float": "float_ids",
    "negative": "negative_ids",
    "overflow": "overflow_ids",
    "out_of_range": "out_of_range",
}


@dataclass
class IngestReport:
    """Structured account of one lenient (or clean strict) ingestion.

    Counters cover every line/record decision; ``samples`` holds up to
    ``max_samples`` ``(where, excerpt, reason)`` triples so an operator
    can see *representative* bad records without the report growing
    with the file.
    """

    path: str
    policy: str
    #: physical lines seen / comment lines / blank lines (text formats).
    lines: int = 0
    comments: int = 0
    blanks: int = 0
    #: edges accepted into the builder (before dedup).
    edges: int = 0
    #: records dropped under ``repair``/``skip`` (any category).
    dropped: int = 0
    #: records coerced into valid form under ``repair``.
    repaired: int = 0
    malformed: int = 0
    float_ids: int = 0
    negative_ids: int = 0
    overflow_ids: int = 0
    out_of_range: int = 0
    #: lines with more than two columns (extras ignored, not an error).
    extra_columns: int = 0
    #: self-loop edge instances seen (kept unless ``drop_self_loops``).
    self_loops: int = 0
    #: exact duplicate edges removed by ``dedup``.
    duplicates: int = 0
    max_samples: int = 8
    samples: List[Tuple[str, str, str]] = field(default_factory=list)

    def note(
        self, category: str, where: str, excerpt: str, reason: str
    ) -> None:
        """Count one dropped record and sample it (bounded)."""
        attr = _CATEGORY_FIELDS.get(category)
        if attr is not None:
            setattr(self, attr, getattr(self, attr) + 1)
        self.dropped += 1
        if len(self.samples) < self.max_samples:
            self.samples.append((where, excerpt[:120], reason))

    @property
    def clean(self) -> bool:
        """True when nothing was dropped or repaired."""
        return self.dropped == 0 and self.repaired == 0

    def summary(self) -> str:
        parts = [f"{self.path}: {self.edges} edges ({self.policy})"]
        for name in (
            "dropped", "repaired", "malformed", "float_ids",
            "negative_ids", "overflow_ids", "out_of_range",
            "self_loops", "duplicates",
        ):
            v = getattr(self, name)
            if v:
                parts.append(f"{name}={v}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON-serializable form (written as a CI artifact on failure)."""
        return {
            "path": self.path,
            "policy": self.policy,
            "lines": self.lines,
            "comments": self.comments,
            "blanks": self.blanks,
            "edges": self.edges,
            "dropped": self.dropped,
            "repaired": self.repaired,
            "malformed": self.malformed,
            "float_ids": self.float_ids,
            "negative_ids": self.negative_ids,
            "overflow_ids": self.overflow_ids,
            "out_of_range": self.out_of_range,
            "extra_columns": self.extra_columns,
            "self_loops": self.self_loops,
            "duplicates": self.duplicates,
            "samples": [list(s) for s in self.samples],
        }


def _check_policy(on_error: str) -> None:
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )


def _open_binary(path: PathLike) -> IO[bytes]:
    p = os.fspath(path)
    if p.endswith(".gz"):
        return gzip.open(p, "rb")
    return open(p, "rb")


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
def _coerce_id(
    tok: str, on_error: str, num_nodes: Optional[int]
) -> Tuple[Optional[int], bool, Optional[Tuple[str, str]]]:
    """Parse one id token -> ``(value, repaired, problem)``.

    ``problem`` is ``(category, reason)`` when the token cannot become
    a valid node id under the active policy.
    """
    repaired = False
    try:
        v = int(tok)
    except ValueError:
        try:
            f = float(tok)
        except (ValueError, OverflowError):
            return None, False, ("malformed", f"non-integer token {tok!r}")
        if not (f.is_integer() and abs(f) <= _INT64_MAX):
            return None, False, (
                "float", f"non-integral float token {tok!r}"
            )
        if on_error != "repair":
            return None, False, (
                "float",
                f"float token {tok!r} (on_error='repair' would coerce it)",
            )
        v = int(f)
        repaired = True
    if not (-_INT64_MAX - 1 <= v <= _INT64_MAX):
        return None, False, (
            "overflow", f"node id {tok} overflows int64"
        )
    if v < 0:
        return None, False, ("negative", f"negative node id {v}")
    if num_nodes is not None and v >= num_nodes:
        return None, False, (
            "out_of_range", f"node id {v} >= num_nodes={num_nodes}"
        )
    return v, repaired, None


def _parse_chunk_fast(
    chunk: List[Tuple[int, str]], num_nodes: Optional[int]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One-shot vectorized parse of a clean two-column chunk.

    Returns ``None`` when the chunk is not provably clean (wrong token
    count, unparseable token, negative or out-of-range id) — the caller
    then re-parses it line by line to localise and police the defects.
    """
    tokens = " ".join(line for _, line in chunk).split()
    if len(tokens) != 2 * len(chunk):
        return None
    try:
        arr = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    arr = arr.reshape(-1, 2)
    if arr.size and int(arr.min()) < 0:
        return None
    if num_nodes is not None and arr.size and int(arr.max()) >= num_nodes:
        return None
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def _parse_chunk_slow(
    chunk: List[Tuple[int, str]],
    path: PathLike,
    on_error: str,
    num_nodes: Optional[int],
    report: IngestReport,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-line parse with exact diagnostics; applies the policy."""
    src: List[int] = []
    dst: List[int] = []
    for lineno, line in chunk:
        toks = line.split()
        if len(toks) < 2:
            problem = ("malformed", "expected at least two columns")
            vals: List[int] = []
        else:
            if len(toks) > 2:
                report.extra_columns += 1
            problem = None
            repaired_line = False
            vals = []
            for tok in toks[:2]:
                v, repaired, problem = _coerce_id(tok, on_error, num_nodes)
                if problem is not None:
                    break
                repaired_line |= repaired
                vals.append(v)
        if problem is not None:
            category, reason = problem
            if on_error == "strict":
                raise GraphIngestError(
                    f"{reason} in line {line!r}", path=path, line=lineno
                )
            report.note(category, f"line {lineno}", line, reason)
            continue
        if repaired_line:
            report.repaired += 1
        src.append(vals[0])
        dst.append(vals[1])
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
    )


def read_edge_list(
    path: PathLike,
    *,
    comments: str = "#",
    num_nodes: int | None = None,
    dedup: bool = True,
    drop_self_loops: bool = False,
    on_error: str = "strict",
    chunk_lines: int = DEFAULT_CHUNK_LINES,
    max_samples: int = 8,
    validate: bool = False,
    return_report: bool = False,
) -> Union[CSRGraph, Tuple[CSRGraph, IngestReport]]:
    """Stream a whitespace-separated ``src dst`` edge list into a graph.

    Lines starting with ``comments`` and blank lines are skipped; a
    ``.gz`` suffix selects transparent gzip decompression.  Extra
    columns (timestamps, weights) are ignored.  Node ids must be
    non-negative integers; ids need not be contiguous but the graph is
    built over ``0..max_id`` (or ``0..num_nodes-1`` when given).

    See the module docstring for the ``on_error`` policy semantics.
    With ``return_report=True`` returns ``(graph, IngestReport)``.
    """
    _check_policy(on_error)
    if chunk_lines < 1:
        raise ValueError("chunk_lines must be >= 1")
    report = IngestReport(
        path=os.fspath(path), policy=on_error, max_samples=max_samples
    )
    src_chunks: List[np.ndarray] = []
    dst_chunks: List[np.ndarray] = []

    def flush(chunk: List[Tuple[int, str]]) -> None:
        parsed = _parse_chunk_fast(chunk, num_nodes)
        if parsed is None:
            parsed = _parse_chunk_slow(
                chunk, path, on_error, num_nodes, report
            )
        s, d = parsed
        if s.size:
            src_chunks.append(s)
            dst_chunks.append(d)
            report.edges += int(s.size)

    # The byte stream runs through the same LineFramer the live
    # ingestion tier uses: CRLF, a final record with no trailing
    # newline, and records torn at a truncation point are all handled
    # once, byte-exactly, for both readers.
    framer = LineFramer()
    pending: List[Tuple[int, str]] = []

    def take(frame) -> None:
        nonlocal pending
        report.lines += 1
        line = frame.text.strip()
        if not line:
            report.blanks += 1
            return
        if line.startswith(comments):
            report.comments += 1
            return
        pending.append((frame.lineno, line))
        if len(pending) >= chunk_lines:
            flush(pending)
            pending = []

    broken: Optional[BaseException] = None
    try:
        with _open_binary(path) as f:
            pos = 0
            while True:
                try:
                    data = f.read(_READ_CHUNK_BYTES)
                except (OSError, EOFError) as exc:
                    # gzip truncation surfaces as EOFError mid-read;
                    # raw I/O failures and bad gzip streams as OSError.
                    broken = exc
                    break
                if not data:
                    break
                for frame in framer.feed_at(pos, data):
                    take(frame)
                pos += len(data)
            if broken is None:
                final = framer.flush()
                if final is not None:
                    take(final)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, UnicodeDecodeError) as exc:
        broken = exc
    if broken is not None and on_error != "strict":
        # Salvage pass for the lenient policies.  A failing gzip read
        # discards everything it decompressed in that call, so a large
        # first-pass chunk can lose kilobytes that *are* recoverable.
        # Replay the stream with small reads; the framer's offset-keyed
        # overlap trim drops every byte already framed, so only the
        # newly recovered tail parses, exactly once.
        try:
            with _open_binary(path) as f:
                pos = 0
                while True:
                    data = f.read(_SALVAGE_CHUNK_BYTES)
                    if not data:
                        break
                    for frame in framer.feed_at(pos, data):
                        take(frame)
                    pos += len(data)
        except (OSError, EOFError, UnicodeDecodeError):
            pass
    if broken is not None:
        if on_error == "strict":
            raise GraphIngestError(
                f"unreadable edge list near line {report.lines + 1} "
                f"({broken})",
                path=path,
            ) from broken
        # lenient policies keep the readable prefix — a multi-gigabyte
        # download truncated in its last record should not cost every
        # edge that parsed cleanly — and account for the torn tail.
        tail = framer.partial
        if tail:
            report.lines += 1
            report.note(
                "malformed",
                f"line {framer.lineno + 1}",
                tail.decode("utf-8", "replace"),
                f"unreadable tail ({broken})",
            )
            framer.discard_partial()
        else:
            report.note(
                "malformed",
                f"line {report.lines + 1}",
                "",
                f"stream broke mid-file ({broken})",
            )
    if pending:
        flush(pending)

    if not src_chunks:
        g = from_edge_array(
            np.empty(0, np.int64), np.empty(0, np.int64), num_nodes or 0
        )
    else:
        src = np.concatenate(src_chunks)
        dst = np.concatenate(dst_chunks)
        del src_chunks[:], dst_chunks[:]
        report.self_loops = int(np.count_nonzero(src == dst))
        before = int(src.size)
        g = from_edge_array(
            src, dst, num_nodes, dedup=dedup,
            drop_self_loops=drop_self_loops,
        )
        removed = before - g.num_edges
        if drop_self_loops:
            removed -= report.self_loops
        if dedup:
            report.duplicates = max(0, removed)
    if validate:
        validate_graph(g, check_transpose=False)
    return (g, report) if return_report else g


def write_edge_list(
    g: CSRGraph, path: PathLike, *, header: str | None = None
) -> None:
    """Write the graph as a ``src dst`` text edge list (atomically).

    A ``.gz`` suffix selects gzip compression.  The file is written to
    a same-directory temp file and renamed into place, so readers never
    observe a truncated edge list.
    """
    p = os.fspath(path)

    def emit(f: IO[str]) -> None:
        if header:
            for line in header.splitlines():
                f.write(f"# {line}\n")
        f.write(f"# nodes: {g.num_nodes} edges: {g.num_edges}\n")
        src, dst = g.edge_array()
        np.savetxt(f, np.column_stack([src, dst]), fmt="%d")

    if p.endswith(".gz"):
        with atomic_path(p, suffix=".gz") as tmp:
            with gzip.open(tmp, "wt", encoding="utf-8") as f:
                emit(f)
    else:
        with atomic_write(p, "w", encoding="utf-8") as f:
            emit(f)


# ---------------------------------------------------------------------------
# Compact .npz format
# ---------------------------------------------------------------------------
def save_npz(g: CSRGraph, path: PathLike) -> None:
    """Save the CSR arrays to a compressed ``.npz`` file (atomically)."""
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez_compressed(tmp, indptr=g.indptr, indices=g.indices)


def _npz_cast(
    name: str,
    arr: np.ndarray,
    on_error: str,
    path: PathLike,
    report: IngestReport,
) -> np.ndarray:
    """Check one stored array's shape/dtype, coercing under ``repair``."""
    if arr.ndim != 1:
        raise GraphIngestError(
            f"array {name!r} must be 1-D, got shape {arr.shape}", path=path
        )
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if (
        on_error == "repair"
        and arr.dtype.kind == "f"
        and (arr.size == 0 or bool(np.all(np.mod(arr, 1) == 0)))
    ):
        report.repaired += 1
        return arr.astype(np.int64)
    raise GraphIngestError(
        f"array {name!r} has non-integer dtype {arr.dtype}"
        + (" (on_error='repair' would cast integral floats)"
           if arr.dtype.kind == "f" else ""),
        path=path,
    )


def load_npz(
    path: PathLike,
    *,
    on_error: str = "strict",
    validate: bool = True,
    return_report: bool = False,
) -> Union[CSRGraph, Tuple[CSRGraph, IngestReport]]:
    """Load a graph saved by :func:`save_npz`, defensively.

    The required arrays (``indptr``, ``indices``), their dtypes, and
    the CSR shape contract are checked *before* a graph is constructed,
    so a truncated or corrupt file surfaces as a located
    :class:`~repro.errors.GraphIngestError` instead of a deep
    ``KeyError`` or shape mismatch.  Under ``repair``/``skip``,
    recoverable defects (integral float dtypes, an overlong edge array,
    out-of-range destinations) are coerced or dropped and reported.
    ``validate=True`` (default) additionally runs the structural
    :func:`validate_graph` gate.
    """
    _check_policy(on_error)
    report = IngestReport(path=os.fspath(path), policy=on_error)
    try:
        data = np.load(os.fspath(path), allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise GraphIngestError(
            f"not a readable .npz archive ({exc})", path=path
        ) from exc
    with data:
        missing = [k for k in ("indptr", "indices") if k not in data.files]
        if missing:
            raise GraphIngestError(
                f"missing required array(s) {missing}; file contains "
                f"{sorted(data.files)}",
                path=path,
            )
        try:
            indptr = data["indptr"]
            indices = data["indices"]
        except Exception as exc:  # truncated/corrupt zip member payload
            raise GraphIngestError(
                f"corrupt array payload ({exc})", path=path
            ) from exc

    indptr = _npz_cast("indptr", indptr, on_error, path, report)
    indices = _npz_cast("indices", indices, on_error, path, report)
    if indptr.size == 0:
        raise GraphIngestError(
            "indptr is empty (expected num_nodes + 1 entries)", path=path
        )
    if int(indptr[0]) != 0:
        raise GraphIngestError(
            f"indptr must start at 0, got {int(indptr[0])}", path=path
        )
    if indptr.size > 1 and bool(np.any(np.diff(indptr) < 0)):
        raise GraphIngestError("indptr is not monotone", path=path)
    m = int(indptr[-1])
    if m != indices.size:
        if on_error != "strict" and indices.size > m:
            report.note(
                "malformed", "indices",
                f"{indices.size} stored edges",
                f"trimmed overlong edge array to indptr[-1]={m}",
            )
            indices = indices[:m]
        else:
            raise GraphIngestError(
                f"indptr[-1]={m} disagrees with {indices.size} stored "
                "edges (truncated or corrupt file)",
                path=path,
            )
    n = indptr.size - 1
    if indices.size and (
        int(indices.min()) < 0 or int(indices.max()) >= n
    ):
        bad = (indices < 0) | (indices >= n)
        nbad = int(np.count_nonzero(bad))
        if on_error == "strict":
            slot = int(np.flatnonzero(bad)[0])
            raise GraphIngestError(
                f"{nbad} edge destination(s) out of range [0, {n}): "
                f"first at edge slot {slot} -> {int(indices[slot])}",
                path=path,
            )
        report.note(
            "out_of_range", "indices", f"{nbad} edges",
            f"dropped {nbad} out-of-range destination(s)",
        )
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keep = ~bad
        g = from_edge_array(src[keep], indices[keep], n, dedup=False)
    else:
        # sorted_rows=False: rows are re-sorted here, so an unsorted
        # (hand-edited) file still yields a canonical graph.
        g = CSRGraph(indptr, indices, sorted_rows=(on_error == "strict"))
    report.edges = g.num_edges
    if validate:
        validate_graph(g, check_transpose=False)
    return (g, report) if return_report else g


# ---------------------------------------------------------------------------
# MatrixMarket
# ---------------------------------------------------------------------------
def read_matrix_market(
    path: PathLike,
    *,
    dedup: bool = True,
    on_error: str = "strict",
    validate: bool = False,
    return_report: bool = False,
) -> Union[CSRGraph, Tuple[CSRGraph, IngestReport]]:
    """Read a MatrixMarket ``coordinate`` file as a directed graph.

    SuiteSparse (the other big public graph repository besides SNAP /
    KONECT) distributes graphs as ``.mtx``: entry ``(i, j)`` becomes
    the edge ``i -> j`` (1-based in the file).  ``symmetric`` headers
    add the mirrored edge.  Values, if present, are ignored — SCC
    detection is unweighted.

    Parse failures (bad banner, malformed coordinates, truncation)
    raise :class:`~repro.errors.GraphIngestError`.  A non-square
    matrix is rejected under ``strict`` and padded to
    ``max(rows, cols)`` nodes under ``repair``/``skip``.
    """
    import scipy.io

    _check_policy(on_error)
    report = IngestReport(path=os.fspath(path), policy=on_error)
    try:
        mat = scipy.io.mmread(os.fspath(path)).tocoo()
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise GraphIngestError(
            f"invalid MatrixMarket file ({exc})", path=path
        ) from exc
    rows, cols = int(mat.shape[0]), int(mat.shape[1])
    n = rows
    if rows != cols:
        if on_error == "strict":
            raise GraphIngestError(
                f"adjacency matrix must be square, got {rows}x{cols} "
                "(on_error='repair' would pad to the larger dimension)",
                path=path,
            )
        n = max(rows, cols)
        report.repaired += 1
    src = mat.row.astype(np.int64)
    dst = mat.col.astype(np.int64)
    report.self_loops = int(np.count_nonzero(src == dst))
    before = int(src.size)
    g = from_edge_array(src, dst, n, dedup=dedup)
    if dedup:
        report.duplicates = max(0, before - g.num_edges)
    report.edges = g.num_edges
    if validate:
        validate_graph(g, check_transpose=False)
    return (g, report) if return_report else g


def write_matrix_market(g: CSRGraph, path: PathLike) -> None:
    """Write the graph as a MatrixMarket pattern matrix (atomically)."""
    import scipy.io
    import scipy.sparse as sp

    mat = sp.csr_matrix(
        (np.ones(g.num_edges, dtype=np.int8), g.indices, g.indptr),
        shape=(g.num_nodes, g.num_nodes),
    )
    with atomic_path(path, suffix=".mtx") as tmp:
        scipy.io.mmwrite(tmp, mat, field="pattern", symmetry="general")
