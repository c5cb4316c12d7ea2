"""Kill-then-resume integration: SIGKILL survival, bit-identical labels.

A child process runs a checkpointed Method 2 pipeline and SIGKILLs
*itself* at a deterministic point — a phase boundary before the
checkpoint is written, one after, or in the middle of the phase-2
task loop.  The parent then resumes from the surviving checkpoints and
requires labels bit-identical to an uninterrupted reference run, on
both kernel backends (``numpy`` and the ``numba`` registry entry,
which falls back to the tuned-NumPy fastpath when numba is absent).

Excluded from tier-1; run with ``pytest -m chaos``.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

pytestmark = pytest.mark.chaos

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

CHILD = textwrap.dedent(
    """
    import os, signal, sys
    import numpy as np
    from repro.runtime.lifecycle import RunHarness
    from repro.graph import load_npz

    mode, ckpt_dir, out = sys.argv[1], sys.argv[2], sys.argv[3]
    g = load_npz(os.path.join(ckpt_dir, "graph.npz"))

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    if mode == "ref":
        res = RunHarness("method2", seed=9).run(g)
        np.save(out, res.labels)
    elif mode == "resume":
        h = RunHarness.from_checkpoint(ckpt_dir)
        res = h.resume(ckpt_dir)
        np.save(out, res.labels)
        sys.stderr.write(f"resumed at {h.report.resumed_phase}\\n")
    elif mode.startswith("kill-boundary:"):
        _, name, stage = mode.split(":")
        def hook(phase, st):
            if phase == name and st == stage:
                die()
        RunHarness(
            "method2", seed=9, checkpoint_dir=ckpt_dir, phase_hook=hook
        ).run(g)
        raise SystemExit("hook never fired")
    elif mode == "kill-mid-phase2":
        # The drain runs single tasks and multi-source batches; count
        # both in items and die on the call that holds task 5 (mid-
        # drain, after earlier tasks committed real SCCs).
        import repro.core.recurfwbw as rf
        real, real_batch = rf.recur_fwbw_task, rf.recur_fwbw_batch_task
        count = [0]
        def lethal(state, item, **kw):
            count[0] += 1
            if count[0] >= 5:
                die()
            return real(state, item, **kw)
        def lethal_batch(state, items, **kw):
            count[0] += len(items)
            if count[0] >= 5:
                die()
            return real_batch(state, items, **kw)
        rf.recur_fwbw_task = lethal
        rf.recur_fwbw_batch_task = lethal_batch
        RunHarness(
            "method2", seed=9, checkpoint_dir=ckpt_dir
        ).run(g)
        raise SystemExit("phase 2 drained before task 5")
    else:
        raise SystemExit(f"bad mode {mode}")
    """
)


def run_child(script_dir, mode, ckpt_dir, out, kernels):
    env = dict(os.environ, REPRO_KERNELS=kernels)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.run(
        [sys.executable, os.path.join(script_dir, "child.py"),
         mode, str(ckpt_dir), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=90,
    )


def ring_of_rings(k=20, sz=25, seed=3):
    """k size-sz cyclic SCCs chained by forward-only cross edges —
    trims and the giant-SCC step cannot resolve them, so the phase-2
    recur queue gets real work (the kill-mid-phase2 target)."""
    from repro.graph import from_edge_array

    rng = np.random.default_rng(seed)
    src, dst = [], []
    for r in range(k):
        base = r * sz
        for i in range(sz):
            src.append(base + i)
            dst.append(base + (i + 1) % sz)
        a = rng.integers(0, sz, 2 * sz)
        b = rng.integers(0, sz, 2 * sz)
        src += (base + a).tolist()
        dst += (base + b).tolist()
    for r in range(k - 1):
        for _ in range(3):
            src.append(r * sz + int(rng.integers(sz)))
            dst.append((r + 1) * sz + int(rng.integers(sz)))
    return from_edge_array(np.array(src), np.array(dst), k * sz)


@pytest.fixture
def arena(tmp_path):
    from repro.graph import save_npz

    (tmp_path / "child.py").write_text(CHILD)
    ckpt = tmp_path / "ckpts"
    ckpt.mkdir()
    save_npz(ring_of_rings(), ckpt / "graph.npz")
    return tmp_path


@pytest.mark.parametrize("kernels", ["numpy", "numba"])
@pytest.mark.parametrize(
    "kill_mode",
    [
        "kill-boundary:par_fwbw:mid",    # phase done, checkpoint not yet
        "kill-boundary:par_wcc:post",    # checkpoint just published
        "kill-mid-phase2",               # mid task-queue drain
    ],
)
def test_sigkill_then_resume_bit_identical(arena, kernels, kill_mode):
    ckpt = arena / "ckpts"
    ref = run_child(arena, "ref", ckpt, arena / "ref.npy", kernels)
    assert ref.returncode == 0, ref.stderr

    killed = run_child(arena, kill_mode, ckpt, arena / "x.npy", kernels)
    assert killed.returncode == -9, (
        f"child should die by SIGKILL, got rc={killed.returncode}: "
        f"{killed.stderr}"
    )
    survivors = [
        f for f in os.listdir(ckpt) if f.endswith(".ckpt.npz")
    ]
    assert survivors, "no checkpoint survived the kill"

    resumed = run_child(
        arena, "resume", ckpt, arena / "resumed.npy", kernels
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resumed at" in resumed.stderr

    ref_labels = np.load(arena / "ref.npy")
    res_labels = np.load(arena / "resumed.npy")
    assert np.array_equal(res_labels, ref_labels), (
        f"labels diverged after {kill_mode} on kernels={kernels}"
    )


def test_torn_checkpoint_plus_resume(arena):
    """Kill mid-phase-2, corrupt the newest surviving checkpoint, and
    still recover bit-identically from the one before it."""
    ckpt = arena / "ckpts"
    ref = run_child(arena, "ref", ckpt, arena / "ref.npy", "numpy")
    assert ref.returncode == 0, ref.stderr
    killed = run_child(arena, "kill-mid-phase2", ckpt, arena / "x", "numpy")
    assert killed.returncode == -9
    names = sorted(
        f for f in os.listdir(ckpt) if f.endswith(".ckpt.npz")
    )
    path = ckpt / names[-1]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    resumed = run_child(arena, "resume", ckpt, arena / "r.npy", "numpy")
    assert resumed.returncode == 0, resumed.stderr
    assert np.array_equal(
        np.load(arena / "r.npy"), np.load(arena / "ref.npy")
    )


@pytest.mark.slow
def test_streaming_reader_rss_is_bounded(tmp_path):
    """~10M-edge list parses with peak RSS far below what a
    read-everything-then-parse loader needs (the acceptance bound)."""
    rng = np.random.default_rng(0)
    block = rng.integers(0, 1_000_000, size=(1_000_000, 2))
    block_text = (
        "\n".join(f"{s} {d}" for s, d in block) + "\n"
    ).encode()
    big = tmp_path / "big.txt"
    with open(big, "wb") as f:
        for _ in range(10):
            f.write(block_text)

    script = textwrap.dedent(
        """
        import resource, sys
        from repro.graph import read_edge_list
        g = read_edge_list(sys.argv[1], dedup=False)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{g.num_edges} {peak_mb:.0f}")
        """
    )
    (tmp_path / "reader.py").write_text(script)
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "reader.py"), str(big)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    edges, peak_mb = proc.stdout.split()
    assert int(edges) == 10_000_000
    # 10M int64 edge pairs are ~160 MB; CSR build transients push the
    # floor up, but a loader that materialised all lines as Python
    # strings would need several GB.  1.5 GB is the regression fence.
    assert float(peak_mb) < 1500, f"peak RSS {peak_mb} MB"
