"""Facts about the host and the checkout a result was measured on."""

from __future__ import annotations

import importlib
import os
import platform
import subprocess
from typing import Dict, List, Optional


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)
    in MB, or 0.0 when the process is gone."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def numba_importable() -> bool:
    try:
        importlib.import_module("numba")
    except Exception:  # any import-time failure means no JIT tier
        return False
    return True


def commit(root: str) -> str:
    """The checkout's commit, or ``"unknown"`` when it is not a git
    work tree (looking no further up than the checkout itself)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts(root: str, seed: int, tiers: Dict[str, List[str]]) -> dict:
    """What the numbers depend on besides the code: usable cores, the
    kernel tier the registry actually dispatched to, interpreter and
    NumPy versions, commit and seed."""
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "numba_importable": numba_importable(),
        "kernel_tiers": tiers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(root),
        "seed": seed,
    }
