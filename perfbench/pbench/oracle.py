"""The Tarjan oracle every answer the benchmark sees is checked against."""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

import numpy as np


class OracleMismatch(AssertionError):
    """An answer disagreed with its oracle: the run is wrong, not slow."""


def labels_crc(labels: np.ndarray) -> int:
    """CRC32 of the canonical form of ``labels`` (the CRC the serving
    tier and ``Engine.update`` report)."""
    from repro.core.result import canonical_labels
    from repro.ioutil import crc32_chunks

    canon = canonical_labels(np.asarray(labels, dtype=np.int64))
    return crc32_chunks(np.ascontiguousarray(canon, dtype=np.int64).tobytes())


def tarjan_crc(graph) -> Tuple[int, float]:
    """``(crc, seconds)`` of a plain single-threaded Tarjan run."""
    from repro.core.tarjan import tarjan_scc

    t0 = time.perf_counter()
    labels = tarjan_scc(graph)
    seconds = time.perf_counter() - t0
    return labels_crc(labels), seconds


def tarjan_sweep(names: Sequence[str], scale: float) -> Tuple[Dict[str, int], float]:
    """Oracle CRC of each named surrogate at ``scale``, and the seconds
    the Tarjan runs took together."""
    import repro.generators as gens

    want: Dict[str, int] = {}
    seconds = 0.0
    for name in names:
        want[name], secs = tarjan_crc(gens.generate(name, scale=scale).graph)
        seconds += secs
    return want, seconds


def check(what: str, got, want) -> None:
    if got != want:
        raise OracleMismatch(f"{what}: got {got!r}, oracle says {want!r}")
