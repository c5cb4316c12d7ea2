"""Seeded open-loop and closed-loop request generators.

The open loop sends on a fixed Poisson schedule regardless of how the
system keeps up, from at most ``senders`` threads.  Each request is
timed from the moment it was *due*, so a stall that delays later
sends counts against them; how late each send left is kept too, so a
run can show that the generator, not the system, held its schedule.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence


def poisson_schedule(
    seed: int, rate: float, duration: float, *, min_count: int = 0
) -> List[float]:
    """Due times (seconds from the start) of Poisson arrivals at
    ``rate`` per second over ``duration`` seconds.

    The count is fixed at ``max(round(rate * duration), min_count)``
    and the arrival times are that many seeded uniform draws over the
    (stretched if need be) interval, sorted: a Poisson process
    conditioned on its count.  Seeds then change when requests arrive,
    never how many, so the offered load is the same on every seed.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    count = max(round(rate * duration), min_count)
    span = count / rate
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, span) for _ in range(count))


@dataclass
class Sent:
    """One request of a loop: when it was due, left and was answered."""

    index: int
    due: float
    sent: float
    done: float
    response: Any

    @property
    def latency(self) -> float:
        """Seconds from due time to answer (open loop)."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the send left after its due time."""
        return self.sent - self.due


def open_loop(
    schedule: Sequence[float],
    send: Callable[[int], Any],
    *,
    senders: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead: float = 0.05,
    give_up: Optional[float] = None,
) -> List[Sent]:
    """Send request ``i`` at ``start + schedule[i]`` via ``send(i)``.

    A sender that is still waiting on a reply when the next request is
    due sends it late; with ``senders`` threads at most that many
    requests are outstanding.  Requests still unsent ``give_up``
    seconds after the start are dropped.  Returns one :class:`Sent` per
    request sent, in schedule order.
    """
    start = clock() + lead
    lock = threading.Lock()
    cursor = [0]
    out: List[Optional[Sent]] = [None] * len(schedule)
    errors: List[BaseException] = []

    def sender() -> None:
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(schedule):
                        return
                    if give_up is not None and clock() - start > give_up:
                        return
                    cursor[0] += 1
                due = start + schedule[i]
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sent = clock()
                response = send(i)
                out[i] = Sent(i, due, sent, clock(), response)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    _run_threads(sender, senders)
    if errors:
        raise errors[0]
    return [s for s in out if s is not None]


def closed_loop(
    send: Callable[[int], Any],
    *,
    clients: int,
    duration: float,
    min_count: int = 0,
    give_up: Optional[float] = None,
    clock: Callable[[], float] = time.perf_counter,
    between: Optional[Callable[[], None]] = None,
) -> List[Sent]:
    """``clients`` threads, each sending its next request as soon as
    the previous one is answered, until ``duration`` seconds have
    passed and at least ``min_count`` requests were answered, or
    ``give_up`` seconds have passed.  ``between`` runs before each
    request, outside its timing."""
    start = clock()
    lock = threading.Lock()
    cursor = [0]
    out: List[Sent] = []
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    elapsed = clock() - start
                    if elapsed >= duration and len(out) >= min_count:
                        return
                    if give_up is not None and elapsed >= give_up:
                        return
                    i = cursor[0]
                    cursor[0] += 1
                if between is not None:
                    between()
                sent = clock()
                response = send(i)
                done = clock()
                with lock:
                    out.append(Sent(i, sent, sent, done, response))
        except BaseException as exc:
            errors.append(exc)

    _run_threads(client, clients)
    if errors:
        raise errors[0]
    return sorted(out, key=lambda s: s.index)


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(max(1, count))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
