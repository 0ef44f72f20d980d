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

``run()`` resumes processes inline and marks no-op completions processed
without a dispatch. Directed tests pin which completions are skipped,
and a Hypothesis test drives random process programs once with
``run()`` and once with a ``step()`` loop (the plain ``_resume`` path),
demanding the same callbacks, values, times and seq count.
"""

import heapq
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.params import KB, default_params
from repro.sim import Interrupt, Process, Resource, SimulationError, Simulator
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


class CountingRunQueue(deque):
    """A run-queue that counts the process completions appended to it."""

    def __init__(self):
        super().__init__()
        self.completions = 0

    def append(self, item):
        if type(item) is Process:
            self.completions += 1
        super().append(item)


def _counting_sim():
    sim = Simulator()
    sim._runq = CountingRunQueue()
    return sim


def _child(sim, value="done", delay=1.0):
    yield sim.timeout(delay)
    return value


class TestNoOpCompletions:
    def test_fire_and_forget_process_is_elided(self):
        sim = _counting_sim()

        def spawner():
            for _ in range(5):
                sim.process(_child(sim))  # nobody keeps it
                yield sim.timeout(2.0)

        sim.process(spawner())
        sim.run()
        assert sim._runq.completions == 0
        # Bootstraps, timeouts and completions all still drew their seq.
        assert sim._seq == 1 + 5 * (1 + 1 + 1 + 1) + 1

    def test_held_process_is_dispatched(self):
        sim = _counting_sim()
        held = sim.process(_child(sim))
        assert not held.processed
        sim.run()
        assert sim._runq.completions == 1
        assert held.processed and held.value == "done"

    def test_process_with_a_plain_callback_is_dispatched(self):
        # Only the kernel holds the child, but a callback waits on it.
        sim = _counting_sim()
        seen = []
        sim.process(_child(sim, "y")).add_callback(
            lambda ev: seen.append((ev.value, sim.now)))
        sim.run()
        assert seen == [("y", 1.0)]
        assert sim._runq.completions == 1

    def test_awaited_after_finishing_resumes_where_it_did(self):
        # Both wake-ups at t=1 are heap entries, the child's first; so
        # the waiter yields the child after it finished but before its
        # completion (a run-queue entry) was dispatched, and the wait
        # hangs on that completion. The second wait, long after, goes
        # through a relay. The (value, time, seq) triples are the
        # pre-shortcut kernel's.
        def scenario(sim):
            seen = []

            def waiter():
                child = sim.process(_child(sim, "x", 1.0))
                yield sim.timeout(0.0)  # let the child schedule first
                yield sim.timeout(1.0)
                value = yield child
                seen.append((value, sim.now, sim._seq))
                yield sim.timeout(4.0)
                value = yield child
                seen.append((value, sim.now, sim._seq))

            sim.process(waiter())
            return seen

        sim = _counting_sim()
        seen = scenario(sim)
        sim.run()
        assert seen == [("x", 1.0, 6), ("x", 5.0, 8)]
        assert sim._runq.completions == 1  # the waiter's own is elided

        stepped = Simulator()
        reference = scenario(stepped)
        while stepped._heap or stepped._runq:
            stepped.step()
        assert seen == reference and sim._seq == stepped._seq

    def test_process_in_all_of_is_dispatched(self):
        sim = _counting_sim()

        def parent():
            result = yield sim.all_of([sim.process(_child(sim, "a", 1.0)),
                                       sim.process(_child(sim, "b", 2.0))])
            return sorted(result.values())

        assert sim.run_process(parent()) == ["a", "b"]
        assert sim._runq.completions == 3  # both children and the parent

    def test_unwaited_failure_still_raises_at_its_slot(self):
        sim = _counting_sim()
        later = []

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("lost")

        def bystander():
            yield sim.timeout(1.0)
            later.append(sim.now)

        sim.process(failing())
        sim.process(bystander())
        with pytest.raises(ValueError, match="lost"):
            sim.run()
        assert sim._runq.completions == 1
        # The failure surfaced at its own dispatch: the bystander, woken
        # by a later-seq timeout at the same time, has already run.
        assert later == [1.0] and sim.now == 1.0


# -- run() vs step(): random process programs ---------------------------

_ACTIONS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from([0.0, 1.0, 2.5])),
    st.tuples(st.sampled_from(["spawn", "hold", "all_of", "any_of"]),
              st.integers(0, 3)),
    st.tuples(st.sampled_from(["await", "interrupt"]), st.integers(0, 7)),
    st.tuples(st.sampled_from(["fail", "relay"]), st.just(0)),
)
_PROGRAMS = st.lists(st.lists(_ACTIONS, max_size=6), min_size=1, max_size=5)


def _drive(programs, stepwise):
    """Run ``programs`` (program 0 is the root; program i spawns only
    programs after i) and return everything the model can observe."""
    sim = Simulator()
    early = sim.event()
    early.succeed("early")  # processed before anyone waits on it
    log, lost = [], []

    def spawn(idx, name, keep=False):
        if idx >= len(programs):
            return None
        proc = sim.process(body(idx, name))
        if keep:
            proc.add_callback(lambda ev: log.append(
                ("done", name, ev.ok, repr(ev.value), sim.now)))
        return proc

    def body(idx, name):
        held = []
        for n, (op, arg) in enumerate(programs[idx]):
            child = f"{name}.{n}"
            if op == "fail":
                raise ValueError(name)
            value = None
            try:
                if op == "timeout":
                    value = yield sim.timeout(arg, value=child)
                elif op == "spawn":
                    spawn(idx + 1 + arg, child)
                elif op == "hold":
                    proc = spawn(idx + 1 + arg, child, keep=True)
                    if proc is not None:
                        held.append(proc)
                elif op == "await" and held:
                    value = yield held[arg % len(held)]
                elif op == "interrupt" and held:
                    try:
                        held[arg % len(held)].interrupt(name)
                    except SimulationError as exc:
                        value = str(exc)
                elif op in ("all_of", "any_of"):
                    kids = [spawn(idx + 1 + arg, child + "a"),
                            spawn(idx + 2 + arg, child + "b"),
                            sim.timeout(1.5, value="slow")]
                    kids = [kid for kid in kids if kid is not None]
                    cond = sim.all_of if op == "all_of" else sim.any_of
                    value = list((yield cond(kids)).values())
                elif op == "relay":
                    value = yield early
            except Interrupt as intr:
                value = ("interrupted", intr.cause)
            except ValueError as exc:
                value = ("child failed", str(exc))
            log.append((name, n, op, repr(value), sim.now))
        return name

    spawn(0, "p")
    while True:
        try:
            if stepwise:
                while sim._heap or sim._runq:
                    sim.step()
            else:
                sim.run()
            break
        except (ValueError, Interrupt) as exc:
            lost.append((type(exc).__name__, str(exc), sim.now))
    return log, lost, sim.now, sim._seq


@settings(max_examples=300, deadline=None)
@given(programs=_PROGRAMS)
def test_inline_resume_matches_step(programs):
    """run()'s inline resume and no-op-completion shortcut are invisible:
    a step() loop, which resumes through Process._resume and dispatches
    every completion, sees the same callbacks, values, times, lost
    failures and final seq."""
    assert _drive(programs, stepwise=False) == \
        _drive(programs, stepwise=True)
