"""The batched phase-2 tail is the default at every entry point.

No caller sets a flag: the library, the engine, an update's promotion
run, the dynamic maintainer's from-scratch rebuild and an in-process
serve request all drain the Recur-FWBW storm in multi-source batches,
and each still returns the canonical labels Tarjan gives on the same
edge set.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import Engine, strongly_connected_components
from repro.core.result import canonical_labels
from repro.engine.backends import SerialBackend
from repro.generators import generate
from repro.graph import from_edge_array
from repro.ioutil import crc32_chunks
from repro.service.server import SCCService, ServiceConfig

# flickr is the surrogate whose tail is most storm-like at small scale.
GRAPH, SCALE = "flickr", 0.05

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def crc(labels) -> int:
    labels = canonical_labels(np.asarray(labels, dtype=np.int64))
    return crc32_chunks(labels.tobytes())


def tarjan_crc(g) -> int:
    return crc(strongly_connected_components(g, "tarjan").labels)


@pytest.fixture(scope="module")
def graph():
    return generate(GRAPH, scale=SCALE, seed=None).graph


@pytest.fixture
def drains(monkeypatch):
    """``phase2_batches`` of every serial phase-2 drain, in call order."""
    seen = []
    real = SerialBackend.run_phase

    def spy(self, state, initial, **kwargs):
        n = real(self, state, initial, **kwargs)
        seen.append(state.profile.counters.get("phase2_batches", 0))
        return n

    monkeypatch.setattr(SerialBackend, "run_phase", spy)
    return seen


def test_library(graph):
    result = strongly_connected_components(graph, "method2")
    assert result.profile.counters.get("phase2_batches", 0) > 0
    assert crc(result.labels) == tarjan_crc(graph)


def test_engine_run(graph):
    with Engine() as eng:
        result = eng.run(graph)
    assert result.profile.counters.get("phase2_batches", 0) > 0
    assert crc(result.labels) == tarjan_crc(graph)


def test_engine_run_rejects_the_removed_flag(graph):
    with Engine() as eng:
        with pytest.raises(TypeError):
            eng.run(graph, phase2_batch=True)


def test_update_promotion_and_rebuild(graph, drains):
    src, dst = graph.edge_array()
    edge = (0, graph.num_nodes - 1)
    mutated = from_edge_array(
        np.append(src, edge[0]), np.append(dst, edge[1]), graph.num_nodes
    )
    with Engine() as eng:
        report = eng.update(graph, inserts=[edge])
        # the promotion run seeded the maintainer through a batched drain
        assert len(drains) == 1 and drains[0] > 0
        assert report.labels_crc32 == tarjan_crc(mutated)

        dyn = eng.session(graph).dynamic
        dyn.rebuild()  # from scratch through the Method-2 recompute hook
        assert len(drains) == 2 and drains[1] > 0
        assert crc(dyn.labels) == tarjan_crc(mutated)


def test_in_process_serve_run(graph, drains):
    svc = SCCService(ServiceConfig(worker_processes=0))
    try:
        resp = svc.handle({"op": "run", "graph": GRAPH, "scale": SCALE})
    finally:
        svc.close()
    assert resp["ok"], resp
    assert drains and all(n > 0 for n in drains)
    assert resp["labels_crc32"] == tarjan_crc(graph)


def test_process_workers_inherit_the_unresolved_kernel_request():
    """Without numba, an ``auto`` request must not turn into a
    missing-numba warning inside the forked workers."""
    script = (
        "import sys; sys.modules['numba'] = None\n"
        "from repro.cli import main\n"
        f"sys.exit(main(['scc', '--dataset', '{GRAPH}', '--scale', "
        f"'{SCALE}', '--backend', 'processes', '--workers', '2']))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"}
    env["PYTHONPATH"] = REPO_SRC
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "SCCs:" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
