"""What every workload returns, and the pacing rules they share."""

from __future__ import annotations

import contextlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .metrics import Report

#: root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parents[2]

#: a measured stretch stops at this many times its planned length (plus
#: a fixed margin) even when a sample floor is not met yet; the missing
#: percentile is then refused and the run fails instead of hanging.
STRETCH_CAP = 3.0
STRETCH_MARGIN = 20.0


@dataclass
class Outcome:
    report: Report
    attempted: int
    failed: int
    #: kernel -> tiers seen dispatched while traced (None: not traced).
    tiers: Optional[Dict[str, List[str]]] = None


def stretch_cap(seconds: float) -> float:
    """Hard limit on a stretch planned to last ``seconds``."""
    return seconds * STRETCH_CAP + STRETCH_MARGIN


def enough(elapsed: float, seconds: float, count: int, min_count: int) -> bool:
    """Whether a measured stretch may stop: its time is up and it has
    the samples its percentiles need, or it hit the hard cap."""
    if elapsed < seconds:
        return False
    return count >= min_count or elapsed >= stretch_cap(seconds)


def measure_split(seconds: float) -> Tuple[float, float]:
    """A traced run's ``(untraced, traced)`` stretch lengths: a third
    untraced as the overhead reference, the rest traced."""
    return seconds / 3.0, seconds * 2.0 / 3.0


@contextlib.contextmanager
def scratch_dir(name: str) -> Iterator[Path]:
    """A fresh directory under ``<checkout>/.perfbench_work`` for one
    run's files (feed, checkpoint, journal, socket, span files), removed
    afterwards.  Relative to the checkout, so the Unix socket path stays
    short wherever the checkout lives."""
    path = Path(".perfbench_work") / f"{name}-{os.getpid()}"
    shutil.rmtree(ROOT / path, ignore_errors=True)
    (ROOT / path).mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(ROOT / path, ignore_errors=True)
