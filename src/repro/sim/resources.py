"""Shared-resource primitives built on the event kernel.

These model contended hardware: CPUs (priority resources), DMA engines and
firmware processors (FIFO resources), buses and links (bandwidth pipes), and
mailbox-style queues between components (stores).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .core import PENDING, Event, SimulationError, Simulator

_heappush = heapq.heappush
_heappop = heapq.heappop


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int):
        # Inlined Event.__init__: one Request per CPU charge, firmware
        # slot and disk access.
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._scheduled = False
        self._deferred = False
        self.resource = resource
        self.priority = priority


class Resource:
    """A server with ``capacity`` slots and a FIFO (or priority) queue.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(req)

    Waiters queue in ``(priority, arrival)`` order. A slot is never left
    free while a request waits: every request and release grants until
    the queue is empty or every slot is held. So a request that finds the
    queue empty and a slot free is granted on the spot, without the heap:
    the heap would pop it straight back, and the grant triggers it
    exactly as ``succeed()`` would, drawing the simulator's seq at the
    same point and entering the run-queue in the same place. Grant
    order, ``stats_*`` and ``sim._seq`` are those of the heap-only path.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._queue: List = []  # heap of (priority, seq, request)
        self._seq = 0
        self.stats_granted = 0
        self.stats_peak_queue = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        queue = self._queue
        if not queue and len(self._users) < self.capacity:
            # Uncontended grant (see the class docstring): the heap path
            # would have pushed, peaked the queue at 1, popped and
            # succeeded this very request.
            self._users.append(req)
            self.stats_granted += 1
            if not self.stats_peak_queue:
                self.stats_peak_queue = 1
            req._value = req
            req._ok = True
            req._scheduled = True
            sim = self.sim
            sim._seq += 1
            sim._runq.append(req)
            return req
        # Contended: every slot is held (a free slot implies an empty
        # queue), so the request waits for a release to grant it.
        self._seq += 1
        _heappush(queue, (priority, self._seq, req))
        if len(queue) > self.stats_peak_queue:
            self.stats_peak_queue = len(queue)
        return req

    def cancel(self, req: Request) -> None:
        """Withdraw a request that has not been granted yet."""
        if req in self._users:
            raise SimulationError("cannot cancel a granted request; release it")
        self._queue = [entry for entry in self._queue if entry[2] is not req]
        heapq.heapify(self._queue)

    def release(self, req: Request) -> None:
        try:
            self._users.remove(req)
        except ValueError:
            raise SimulationError("release of a request that does not hold a slot")
        if self._queue:
            self._grant()

    def _grant(self) -> None:
        queue = self._queue
        users = self._users
        sim = self.sim
        while queue and len(users) < self.capacity:
            _prio, _seq, req = _heappop(queue)
            users.append(req)
            self.stats_granted += 1
            # Triggered as the uncontended path does: succeed()'s seq
            # draw and run-queue append, without its guards (a queued
            # request is never triggered).
            req._value = req
            req._ok = True
            req._scheduled = True
            sim._seq += 1
            sim._runq.append(req)

    def acquire(self, priority: int = 0) -> Generator:
        """Process-style helper: ``req = yield from resource.acquire()``."""
        req = self.request(priority)
        yield req
        return req


class Store:
    """An unbounded FIFO channel of items between processes."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class BandwidthPipe:
    """A serialized transmission medium with fixed bandwidth.

    Transfers queue FIFO; each occupies the pipe for ``nbytes / bandwidth``
    plus an optional fixed per-transfer overhead. This models link
    serialization, DMA engines, and bus occupancy. Bandwidth is in bytes
    per microsecond (i.e. MB/s ≈ B/µs).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bpus: float,
        name: str = "",
        per_transfer_us: float = 0.0,
    ):
        if bandwidth_bpus <= 0:
            raise SimulationError(f"bandwidth must be positive: {bandwidth_bpus}")
        self.sim = sim
        self.bandwidth = bandwidth_bpus
        self.name = name
        self.per_transfer_us = per_transfer_us
        self._free_at = float("-inf")  # idle since forever
        self.stats_bytes = 0
        self.stats_transfers = 0
        self.stats_busy_us = 0.0

    def transfer(self, nbytes: int) -> Event:
        """Return an event that fires when ``nbytes`` have moved."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        sim = self.sim
        now = sim.now
        free_at = self._free_at
        start = free_at if free_at > now else now  # max(), inlined
        duration = self.per_transfer_us + nbytes / self.bandwidth
        self._free_at = free_at = start + duration
        self.stats_bytes += nbytes
        self.stats_transfers += 1
        self.stats_busy_us += duration
        return sim.timeout(free_at - now)

    def transfer_cut_through(self, nbytes: int) -> Event:
        """Drain-side transfer whose bits streamed in while upstream sent.

        Models the receive leg of a cut-through fabric: if this pipe was
        idle while the sender serialized (a window of one occupancy ending
        now), the transfer completes immediately; otherwise it queues behind
        the in-progress transfer and pays full serialization. Occupancy is
        accounted either way, so converging senders contend correctly.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        sim = self.sim
        now = sim.now
        duration = self.per_transfer_us + nbytes / self.bandwidth
        arrival = self._free_at + duration
        arrival = arrival if arrival > now else now  # max(), inlined
        self._free_at = arrival
        self.stats_bytes += nbytes
        self.stats_transfers += 1
        self.stats_busy_us += duration
        return sim.timeout(arrival - now)

    def utilization(self, elapsed_us: Optional[float] = None) -> float:
        elapsed = elapsed_us if elapsed_us is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats_busy_us / elapsed)

    def backlog_bytes(self) -> float:
        """Bytes still waiting to serialize (instantaneous queue gauge).

        The pipe is committed through ``_free_at``; anything beyond *now*
        is backlog expressed in bytes at the pipe's rate. Idle pipes
        report 0.0.
        """
        pending_us = self._free_at - self.sim.now
        if pending_us <= 0:
            return 0.0
        return pending_us * self.bandwidth
