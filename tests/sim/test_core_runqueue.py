"""Fast-lane dispatch order and kernel byte-identity pins.

The run-queue optimization routes every at-now event (zero-delay
timeouts, ``succeed()``/``fail()`` at the current time, trampolines)
past the ``(time, seq)`` heap into a FIFO. The kernel's contract is
unchanged: events dispatch in exact ``(time, seq)`` order, where seq is
the global scheduling counter. These tests pin that contract two ways —
a randomized property test that interleaves heap and run-queue events
at equal timestamps, and end-to-end digest triples captured on earlier
kernels that the current one must reproduce bit-for-bit.

The same holds for resources, whose uncontended requests skip the wait
queue's heap: a Hypothesis test replays random request/release/cancel
sequences against a heap-only reference resource.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.params import KB, default_params
from repro.sim import Resource, SimulationError, Simulator
from repro.sim.resources import Request


def _expected_and_observed(seed, ticks=30, max_batch=4):
    """Build a random interleave of heap and run-queue events.

    A driver walks the clock one microsecond per tick. At each tick it
    schedules a random batch mixing delay-0 timeouts (run-queue),
    delay-1/delay-2 timeouts (heap entries landing at a *future* tick,
    where delay-2 entries scheduled a tick earlier collide with delay-1
    entries at the same timestamp), and bare events succeeded at now
    (run-queue). After every creation the simulator's seq counter holds
    the seq just assigned, so the expected global order is simply the
    records sorted by ``(fire_time, seq)``.
    """
    rng = random.Random(seed)
    sim = Simulator()
    observed = []
    scheduled = []  # (fire_time, seq, label)

    def record(label):
        return lambda ev: observed.append(label)

    def driver():
        serial = 0
        for _ in range(ticks):
            for _ in range(rng.randint(1, max_batch)):
                serial += 1
                label = f"ev{serial}"
                kind = rng.randrange(3)
                if kind == 0:
                    delay = 0.0  # run-queue fast lane
                elif kind == 1:
                    delay = float(rng.randint(1, 2))  # heap
                else:
                    ev = sim.event()
                    ev.add_callback(record(label))
                    ev.succeed()  # at-now success: run-queue
                    scheduled.append((sim.now, sim._seq, label))
                    continue
                t = sim.timeout(delay)
                t.add_callback(record(label))
                scheduled.append((sim.now + delay, sim._seq, label))
            yield sim.timeout(1.0)
        # Let every outstanding delay-2 timeout fire.
        yield sim.timeout(3.0)

    sim.run_process(driver())
    expected = [label for _t, _s, label in sorted(scheduled)]
    return expected, observed


@pytest.mark.parametrize("seed", [0, 7, 1234, 99991])
def test_interleaved_heap_and_runq_dispatch_in_seq_order(seed):
    """At equal timestamps, heap entries (scheduled earlier, smaller
    seq) must dispatch before run-queue entries, and run-queue FIFO
    order must equal seq order — i.e. exact (time, seq) dispatch."""
    expected, observed = _expected_and_observed(seed)
    assert observed == expected
    assert len(observed) > 20  # the interleave actually exercised both


def test_zero_delay_timeout_after_heap_entry_at_same_time():
    """Directed version of the property: a heap timeout landing at T
    was scheduled before the clock reached T, so it outranks any
    zero-delay timeout created at T — even though the zero-delay one
    sits in the run-queue, which is checked first by the loop."""
    sim = Simulator()
    order = []

    def early():
        yield sim.timeout(1.0)  # heap entry firing at t=1
        order.append("heap")

    def late():
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)  # run-queue entry created at t=1
        order.append("runq")

    # ``late`` is scheduled first, so its wake-up at t=1 precedes
    # ``early``'s — but its zero-delay hop must still come after every
    # heap entry for t=1 that predates the clock's arrival.
    sim.process(late())
    sim.process(early())
    sim.run()
    assert order == ["heap", "runq"]


# Captured with this exact workload: two clients, 48x4KB warm file, two
# sequential passes each. (ops, sim_us, events) — events is the kernel's
# final seq counter, so any change to scheduling order, count, or timing
# breaks these. nfs and odafs were captured on the pre-fast-lane kernel
# (commit 11f4674). nfs-prepost (UDP interrupts at PRIO_INTERRUPT
# contending with PRIO_NORMAL work on the CPU) and dafs (RDMA firmware
# slots) were captured on the heap-only resource grant path (commit
# 9a16211), before uncontended grants skipped the wait queue's heap.
KERNEL_PINS = {
    "nfs": (192, 30188.019111110654, 18232),
    "odafs": (192, 13409.801777777688, 15134),
    "nfs-prepost": (192, 19925.619111111082, 17464),
    "dafs": (192, 17462.08311111096, 21086),
}

#: Client options per pinned system: small client caches so every pass
#: reaches the server; nfs-prepost has no client cache.
PIN_CLIENT_KWARGS = {
    "nfs": {"bcache_entries": 4},
    "odafs": {"cache_blocks": 8},
    "nfs-prepost": {},
    "dafs": {"cache_blocks": 8},
}


def _smallio_digest(system):
    blocks, block = 48, 4 * KB
    kwargs = dict(PIN_CLIENT_KWARGS[system])
    cluster = Cluster(default_params(), system=system, block_size=block,
                      n_clients=2, server_cache_blocks=blocks + 8,
                      client_kwargs=kwargs)
    cluster.create_file("pin", blocks * block)

    def reader(idx):
        client = cluster.clients[idx]
        yield from client.open("pin")
        for _ in range(2):
            for i in range(blocks):
                yield from client.read("pin", i * block, block)

    def main():
        procs = [cluster.sim.process(reader(i), name=f"pin{i}")
                 for i in range(2)]
        yield cluster.sim.all_of(procs)

    cluster.sim.run_process(main())
    return 2 * 2 * blocks, cluster.sim.now, cluster.sim._seq


@pytest.mark.parametrize("system", sorted(KERNEL_PINS))
def test_kernel_digest_identical_to_pre_fastlane_kernel(system):
    """The fast lanes are bit-identical by construction: a smallio run
    of each pinned system must reproduce the pre-change kernel's exact
    (ops, sim_us, events) triple."""
    assert _smallio_digest(system) == KERNEL_PINS[system]


class HeapOnlyResource(Resource):
    """Reference grant path: every request goes through the wait heap.

    This is the resource as it was before uncontended requests skipped
    the heap; the property test below replays the same operations on
    both and demands identical grants, stats and seq accounting.
    """

    def request(self, priority=0):
        req = Request(self, priority)
        self._seq += 1
        heapq.heappush(self._queue, (priority, self._seq, req))
        self.stats_peak_queue = max(self.stats_peak_queue, len(self._queue))
        self._grant()
        return req

    def release(self, req):
        try:
            self._users.remove(req)
        except ValueError:
            raise SimulationError(
                "release of a request that does not hold a slot")
        self._grant()


def _replay(resource_cls, capacity, ops):
    """Apply ``ops`` to a fresh resource; return everything observable.

    ``request`` ops carry a priority; ``release``/``cancel`` pick a held
    or a waiting request by index; ``run`` dispatches what is queued, so
    grants interleave with event dispatch; ``bad-release`` releases a
    request that holds no slot and records that it was refused.
    """
    sim = Simulator()
    res = resource_cls(sim, capacity=capacity)
    requests, grants, dispatched, refused = [], [], [], 0

    def note_grants():
        for label, req in enumerate(requests):
            if req.triggered and label not in grants:
                grants.append(label)

    for op, arg in ops:
        if op == "request":
            label = len(requests)
            req = res.request(priority=arg)
            req.add_callback(lambda _ev, label=label: dispatched.append(label))
            requests.append(req)
        elif op == "release" and res._users:
            res.release(res._users[arg % len(res._users)])
        elif op == "cancel" and res._queue:
            res.cancel(sorted(res._queue)[arg % len(res._queue)][2])
        elif op == "bad-release":
            waiting = [entry[2] for entry in res._queue]
            try:
                res.release(waiting[arg % len(waiting)] if waiting
                            else Request(res, 0))
            except SimulationError:
                refused += 1
        elif op == "run":
            sim.run()
        note_grants()
    sim.run()
    return {
        "grants": grants,
        "dispatched": dispatched,
        "held": [requests.index(r) for r in res._users],
        "waiting": [requests.index(e[2]) for e in sorted(res._queue)],
        "stats_granted": res.stats_granted,
        "stats_peak_queue": res.stats_peak_queue,
        "seq": sim._seq,
        "refused": refused,
    }


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.integers(0, 2)),
        st.tuples(st.sampled_from(["release", "cancel", "bad-release"]),
                  st.integers(0, 7)),
        st.tuples(st.just("run"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from([1, 2]), ops=_OPS)
def test_uncontended_grant_matches_heap_only_reference(capacity, ops):
    """Random request(priority 0-2)/release/cancel sequences grant the
    same requests in the same order, with the same stats and the same
    simulator seq count, as the heap-only reference."""
    assert _replay(Resource, capacity, ops) == \
        _replay(HeapOnlyResource, capacity, ops)
