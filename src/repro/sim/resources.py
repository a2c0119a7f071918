"""Shared resources for simulation processes.

:class:`Server` models a bounded-concurrency executor with a FIFO wait
queue — the building block for microservice replicas (a replica with
``capacity`` worker slots queues excess requests, which is what makes load
balancing matter). :class:`Store` is an unbounded FIFO hand-off channel.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class Server:
    """A resource with ``capacity`` concurrent slots and a FIFO queue.

    Usage inside a process::

        yield server.acquire()
        try:
            yield sim.timeout(service_time)
        finally:
            server.release()
    """

    __slots__ = ("sim", "capacity", "in_use", "waiters")

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"server capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        # Plain attributes, read-only to callers: the number of held
        # slots and the FIFO of waiting acquisitions. Occupancy gauges
        # read them every scrape, so they are not hidden behind
        # properties.
        self.in_use = 0
        self.waiters: deque[Event] = deque()

    @property
    def queue_len(self) -> int:
        """Number of acquisitions waiting for a free slot."""
        return len(self.waiters)

    def acquire(self) -> Event:
        """Return an event firing once a slot is held by the caller."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self.waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Grab a slot without an event if one is free right now.

        The fast-path (allocation-free) side of :meth:`acquire`: returns
        ``True`` with the slot held, or ``False`` without queueing
        anything — callers that get ``False`` park a waiter via
        :meth:`enqueue_waiter`.
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def enqueue_waiter(self, event: Event) -> None:
        """Queue ``event`` for the next free slot (FIFO with acquire()).

        ``event`` may be any agenda event woken via ``succeed()`` —
        including a pooled callback from the fast-path engine; it shares
        one FIFO with generator-based acquirers.
        """
        self.waiters.append(event)

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self.waiters:
            # Hand the slot over directly; in_use stays constant.
            waiter = self.waiters.popleft()
            waiter.succeed()
        else:
            self.in_use -= 1

    def cancel(self, event: Event) -> bool:
        """Remove a queued (not yet granted) acquisition. True if removed."""
        try:
            self.waiters.remove(event)
        except ValueError:
            return False
        return True


class Store:
    """An unbounded FIFO channel between producer and consumer processes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> None:
        """Deposit ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event firing with the next item (FIFO order)."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
