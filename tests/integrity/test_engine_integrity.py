"""Integrity wiring through GraphSession and Engine.

Covers the seal points (load, transpose, degrees), the verify points
(session borrow/return, phase boundaries, final), detection of seeded
``corrupt`` faults at the ``"phase"`` site, and the quarantine →
rebuild → correct-answer recovery path.
"""

import numpy as np
import pytest

from repro.core import tarjan_scc
from repro.core.result import canonical_labels
from repro.engine.engine import Engine
from repro.engine.session import GraphSession
from repro.errors import IntegrityError
from repro.graph import from_edge_list
from repro.runtime.faults import FaultPlan, FaultSpec, apply_corruption


def small_graph():
    return from_edge_list(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 0)], 5
    )


def phase_corrupt(array, *, index=0, stage="pre", flip_seed=0):
    return FaultSpec(
        kind="corrupt",
        site="phase",
        index=index,
        stage=stage,
        array=array,
        flip_seed=flip_seed,
    )


class TestSessionSeals:
    def test_seal_points_follow_materialization(self):
        sess = GraphSession(small_graph(), integrity=True)
        cs = sess.checksums
        assert cs.sealed("indptr") and cs.sealed("indices")
        assert not cs.sealed("in_indptr")
        sess.ensure_transpose()
        assert cs.sealed("in_indptr") and cs.sealed("in_indices")
        checked = sess.verify_integrity(context="test")
        assert checked == 4
        assert sess.stats.integrity_verifications == 4
        sess.close()

    def test_corruption_detected_and_counted(self):
        sess = GraphSession(small_graph(), integrity=True)
        spec = phase_corrupt("indices")
        apply_corruption(sess.graph.indices, spec)
        with pytest.raises(IntegrityError) as exc:
            sess.verify_integrity(context="after-rot")
        assert exc.value.array == "indices"
        assert sess.stats.integrity_failures == 1
        sess.close()

    def test_integrity_off_is_a_noop(self):
        sess = GraphSession(small_graph())
        assert sess.checksums is None
        assert sess.verify_integrity() == 0
        assert sess.stats.integrity_verifications == 0
        sess.close()


class TestEngineDetection:
    @pytest.fixture()
    def engine(self):
        with Engine(
            backend="serial", canonical=True, integrity=True
        ) as eng:
            yield eng

    def test_clean_run_verifies_and_succeeds(self, engine):
        g = small_graph()
        result = engine.run(g, method="method2")
        assert np.array_equal(
            result.labels, canonical_labels(tarjan_scc(g))
        )
        sess = engine.session(g)
        assert sess.stats.integrity_verifications > 0
        assert sess.stats.integrity_failures == 0

    @pytest.mark.parametrize(
        "array,stage",
        [
            ("indices", "pre"),
            ("indptr", "pre"),
            ("labels", "post"),
            ("color", "mid"),
        ],
    )
    def test_phase_site_corruption_raises(self, engine, array, stage):
        plan = FaultPlan([phase_corrupt(array, stage=stage)])
        with pytest.raises(IntegrityError):
            engine.run(small_graph(), method="method2", fault_plan=plan)

    def test_borrowed_session_verified_for_any_method(self, engine):
        """Non-pipeline methods still get the borrow-time guard."""
        sess = engine.session(small_graph())
        apply_corruption(sess.graph.indices, phase_corrupt("indices"))
        with pytest.raises(IntegrityError):
            engine.run(sess, method="tarjan")

    def test_fault_plan_without_checksums_stays_silent(self):
        """Corruption of run-local state with integrity off is not
        detected — the flag is what buys detection."""
        with Engine(backend="serial", canonical=True) as eng:
            sess = eng.session(small_graph())
            assert sess.checksums is None


class TestQuarantine:
    def test_detect_quarantine_rebuild_recover(self):
        with Engine(
            backend="serial", canonical=True, integrity=True
        ) as eng:
            sess = eng.load("wiki", scale=0.02)
            fp = sess.fingerprint
            plan = FaultPlan([phase_corrupt("indices", index=1)])
            with pytest.raises(IntegrityError):
                eng.run(sess, method="method2", seed=0, fault_plan=plan)
            assert eng.quarantine(fp)
            assert eng.quarantines == 1
            assert sess.closed

            rebuilt = eng.load("wiki", scale=0.02)
            assert rebuilt is not sess
            result = eng.run(rebuilt, method="method2", seed=0)
            expected = canonical_labels(tarjan_scc(rebuilt.graph))
            assert np.array_equal(result.labels, expected)
            assert rebuilt.stats.integrity_failures == 0

    def test_quarantine_unknown_fingerprint(self):
        with Engine(backend="serial") as eng:
            assert not eng.quarantine(0xDEADBEEF)
            assert eng.quarantines == 0
