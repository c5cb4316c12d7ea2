"""Phase plans: the Method 1/2 pipelines as explicit phase sequences.

Both paper pipelines are straight-line sequences of phases over one
:class:`~repro.core.state.SCCState`, listed as :class:`PhaseSpec`
objects.  :func:`run_plan` is the only loop over a plan: the plain
runners (:func:`repro.core.method1.method1_scc`, ...) call it bare,
while :meth:`repro.engine.Engine.run` and the lifecycle harness
(:mod:`repro.runtime.lifecycle`) pass hooks that act at the phase
boundaries — checkpoints, resume points, deadlines, integrity checks,
fault drills and backend degradation.  A hook is any object with some
of these methods:

* ``pre(i, ph, state, ctx)`` — phase entry;
* ``attempt(i, ph, state, ctx)`` — a context manager around each
  attempt of the phase (the SIGALRM watchdog);
* ``retry(i, ph, state, ctx, exc)`` — after a failed attempt; True
  runs the phase again (backend degradation);
* ``mid(i, ph, state, ctx)``, then ``post(i, ph, state, ctx)`` — the
  phase is done;
* ``final(state, ctx)`` — after the last phase.

Hooks nest like context managers, the first one outermost: ``pre``
and ``attempt`` run in list order, ``mid``, ``post`` and ``final`` in
reverse.  So a fault hook listed before an integrity hook flips bits
before the phase-entry verify and after the state reseal.

Phases communicate through a ``ctx`` mapping: ``ctx["session"]`` (the
warm session, when the caller has one), ``ctx["queue"]`` (the phase-2
work items, ``(color, nodes-or-None)`` pairs, which checkpoints
serialize), and two executor overrides, ``ctx["backend"]`` (set when
degrading) and ``ctx["deadline"]`` (an absolute ``time.monotonic()``
bound for the deadline-aware executors).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, List, MutableMapping, Sequence

from .result import SCCResult
from .state import SCCState

__all__ = ["PhaseSpec", "method_phases", "run_method", "run_plan"]


@dataclass(frozen=True)
class PhaseSpec:
    """One pipeline phase.

    ``name`` is unique within a plan (checkpoint identity); ``timer``
    is the wall-timer / trace label, shared by repeated phases (both
    trims accumulate under ``"par_trim"``, exactly as the inline
    pipelines did).  ``uses_backend`` marks the phase whose executor
    can fail independently of the algorithm (the phase-2 worker pool)
    and is therefore eligible for backend degradation.
    """

    name: str
    timer: str
    fn: Callable[[SCCState, MutableMapping], None]
    uses_backend: bool = False


def method_phases(method: str, **kwargs) -> List[PhaseSpec]:
    """The phase plan of ``"method1"`` or ``"method2"``.

    The factory is looked up on its module at call time, so a wrapper
    installed over ``method2.method2_phases`` sees every run.
    """
    from . import method1, method2

    module = {"method1": method1, "method2": method2}[method]
    return getattr(module, f"{method}_phases")(**kwargs)


def _stage(hooks, name: str) -> list:
    return [getattr(h, name) for h in hooks if hasattr(h, name)]


def run_plan(
    state: SCCState,
    plan: Sequence[PhaseSpec],
    ctx: MutableMapping | None = None,
    *,
    hooks: Sequence = (),
    start: int = 0,
) -> MutableMapping:
    """Execute ``plan[start:]`` in order, each phase under its wall
    timer, calling ``hooks`` at every boundary (see the module
    docstring).  Returns the final ``ctx``."""
    ctx = {} if ctx is None else ctx
    inner = list(hooks)[::-1]
    pre = _stage(hooks, "pre")
    attempts = _stage(hooks, "attempt")
    retries = _stage(hooks, "retry")
    mid = _stage(inner, "mid")
    post = _stage(inner, "post")
    for i in range(start, len(plan)):
        ph = plan[i]
        for fn in pre:
            fn(i, ph, state, ctx)
        while True:
            try:
                with ExitStack() as stack:
                    for fn in attempts:
                        stack.enter_context(fn(i, ph, state, ctx))
                    with state.profile.wall_timer(ph.timer):
                        ph.fn(state, ctx)
                break
            except Exception as exc:
                if not any(fn(i, ph, state, ctx, exc) for fn in retries):
                    raise
        for fn in mid:
            fn(i, ph, state, ctx)
        for fn in post:
            fn(i, ph, state, ctx)
    for fn in _stage(inner, "final"):
        fn(state, ctx)
    return ctx


def run_method(
    method: str,
    state: SCCState,
    ctx: MutableMapping | None = None,
    *,
    hooks: Sequence = (),
    **plan_kwargs,
) -> SCCResult:
    """Run ``method``'s plan on ``state`` and return the checked result."""
    run_plan(state, method_phases(method, **plan_kwargs), ctx, hooks=hooks)
    state.check_done()
    return SCCResult(
        labels=state.labels,
        method=method,
        profile=state.profile,
        phase_of=state.phase_of,
    )
