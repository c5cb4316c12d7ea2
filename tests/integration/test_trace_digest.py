"""Pinned input of the simulated machine.

The paper-facing figures (EXPERIMENTS.md) replay the work trace a run
records, so any change to the records — or to the raw labels whose
order feeds phase-2 pivot selection — moves every figure.  These
digests were recorded before the trim/BFS fast paths that seed the
first trim from CSR degrees and validate transition maps once per
traversal; a speed change must leave them alone, on both kernel tiers.
"""

import hashlib

import numpy as np
import pytest

from repro.core.api import strongly_connected_components
from repro.generators import generate
from repro.kernels import use_backend

DATASETS = ("wiki", "patents", "ca-road", "flickr")
METHODS = ("method1", "method2")

#: sha256 over every (dataset, method) run in DATASETS x METHODS order.
EXPECTED = "68b663ae1d4c029ce0cee575e2304410fe15110dabed143f6801bbb628919643"


def _digest() -> str:
    h = hashlib.sha256()
    for name in DATASETS:
        g = generate(name, scale=0.2).graph
        for method in METHODS:
            res = strongly_connected_components(g, method, seed=0)
            h.update(f"{name}/{method}\n".encode())
            h.update(np.asarray(res.labels, dtype=np.int64).tobytes())
            for rec in res.profile.trace.records:
                h.update(repr(rec).encode())
    return h.hexdigest()


@pytest.mark.parametrize("tier", ["numpy", "numba"])
def test_trace_and_labels_pinned(tier):
    with use_backend(tier):
        assert _digest() == EXPECTED
