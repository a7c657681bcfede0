"""Discrete-event simulation core.

A minimal, deterministic event queue: events fire in (time, priority,
sequence) order, so simultaneous events have a total order and simulations
replay identically.  Heap entries are plain ``(time, priority, sequence,
action)`` tuples, which compare in C; the unique sequence number means the
action itself is never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

__all__ = ["EventQueue"]

Event = tuple[float, int, int, Callable[[], Any]]


class EventQueue:
    """A deterministic discrete-event queue.

    Examples
    --------
    >>> q = EventQueue()
    >>> log = []
    >>> _ = q.schedule(2.0, lambda: log.append("b"))
    >>> _ = q.schedule(1.0, lambda: log.append("a"))
    >>> q.run()
    2
    >>> log
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._fired = 0

    @property
    def now(self) -> float:
        """Current simulation time (time of the most recent event)."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._fired

    def schedule(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> Event:
        """Enqueue ``action`` to fire at ``time``.

        ``priority`` breaks ties at equal times (lower fires first).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = (float(time), priority, next(self._counter), action)
        heapq.heappush(self._heap, event)
        return event

    def step(self) -> Event | None:
        """Fire the next event; return it, or None if the queue is empty."""
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        self._now = event[0]
        self._fired += 1
        event[3]()
        return event

    def run(self, *, until: float | None = None, max_events: int = 10_000_000) -> int:
        """Run events until the queue drains (or ``until`` / ``max_events``).

        Returns the number of events fired by this call.
        """
        fired = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if fired >= max_events:
                raise RuntimeError(
                    f"event budget exhausted after {fired} events — "
                    "likely a self-rescheduling loop"
                )
            self.step()
            fired += 1
        return fired

    def __len__(self) -> int:
        return len(self._heap)
