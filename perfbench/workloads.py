"""The benchmark's three traffic shapes, driven through the public API.

Every shape is a closed loop: each simulated client keeps a fixed number
of requests outstanding and issues the next one only when one completes.
The seed drives two things: ``params.seed`` (every RNG stream inside the
simulator) and a benchmark-owned :class:`random.Random` that generates
the inputs — offsets, file picks and operation kinds. The simulated
clients receive only those generated inputs.

Every read's payload is compared with the file system's truth
(``cluster.fs.block_content``) the moment it returns; a mismatch, an
``IntegrityError``, a ``ShardDownError`` or an ``RPCError`` (reject-retry
exhaustion surfaces as one) counts as a failed operation.

WORKLOADS.md records why each shape was chosen and which layers it loads.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Dict, Generator, List

from repro.bench.figures import PAPER_FIG3_PLATEAU
from repro.cluster import Cluster
from repro.integrity import IntegrityError
from repro.nas.shard import ShardDownError
from repro.params import KB, default_params
from repro.proto.rpc import RPCError

#: Exceptions that fail one operation without ending the run.
OP_FAILURES = (IntegrityError, ShardDownError, RPCError)


class Run:
    """One wired cluster, its generated inputs and the op tallies.

    ``latencies`` holds the simulated response time (µs) of every
    measured operation; warm-up operations are checked and counted in
    ``attempted``/``failed`` but not timed.
    """

    def __init__(self, cluster: Cluster, inputs: Dict):
        self.cluster = cluster
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: Dict[str, int] = {}
        self.measuring = False
        self.latencies: List[float] = []
        self.bytes_moved = 0

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def _done(self, start: float, nbytes: int) -> None:
        if self.measuring:
            self.latencies.append(self.cluster.sim.now - start)
            self.bytes_moved += nbytes

    def expected(self, name: str, offset: int, nbytes: int):
        """The file system's truth for one read, shaped like a payload:
        a block tuple for one block, a tuple of them for several."""
        fs = self.cluster.fs
        blocks = [fs.block_content(name, i)
                  for i in fs.blocks_in_range(name, offset, nbytes)]
        return blocks[0] if len(blocks) == 1 else tuple(blocks)

    def checked_read(self, client, name: str, offset: int, nbytes: int,
                     app_buffer=None) -> Generator:
        """Read and compare the payload with the file system's truth.
        Returns True when the read succeeded with the right data."""
        self.attempted += 1
        try:
            data = yield from client.read(name, offset, nbytes, app_buffer)
        except OP_FAILURES as exc:
            self._fail(type(exc).__name__)
            return False
        if data != self.expected(name, offset, nbytes):
            self.mismatches += 1
            self._fail("mismatch")
            return False
        return True

    def timed_read(self, client, name: str, offset: int, nbytes: int,
                   app_buffer=None) -> Generator:
        """One application read: checked, and timed when measuring."""
        start = self.cluster.sim.now
        ok = yield from self.checked_read(client, name, offset, nbytes,
                                          app_buffer)
        if ok:
            self._done(start, nbytes)


class Workload:
    """A named traffic shape: how to wire, warm and measure it."""

    name = ""
    system = ""
    n_clients = 1
    #: Outstanding requests per client.
    window = 1
    #: Application operations in the measured phase (p99 needs >= 1000).
    measured_ops = 0
    #: The paper's published throughput for this cell, if it has one.
    paper_mb_per_s = 0.0

    def inputs(self, rng: random.Random) -> Dict:
        """Generate this shape's inputs from the benchmark's RNG."""
        raise NotImplementedError

    def wire(self, params, inputs: Dict) -> Cluster:
        """Build the cluster and its files (server cache warm)."""
        raise NotImplementedError

    def warm(self, run: Run) -> None:
        """The warm-up phase: first pass or warm-up transactions."""
        raise NotImplementedError

    def measure(self, run: Run) -> None:
        """The measured phase: ``measured_ops`` application operations."""
        raise NotImplementedError

    def build(self, seed: int) -> Run:
        """Wire a fresh cluster on the calibrated testbed parameters with
        ``seed`` as the master seed, and generate its inputs."""
        p = default_params()
        p.seed = seed
        inputs = self.inputs(random.Random(seed))
        return Run(self.wire(p, inputs), inputs)


def _windowed(run: Run, client, issue: Callable[[int], Generator],
              count: int, window: int) -> Generator:
    """Keep ``window`` of ``count`` operations outstanding (closed loop)."""
    sim = run.cluster.sim
    pending: deque = deque()
    for i in range(count):
        if len(pending) >= window:
            yield pending.popleft()
        pending.append(sim.process(issue(i), name=f"{client.host.name}.op"))
    while pending:
        yield pending.popleft()


class StreamPrepost(Workload):
    """nfs-prepost, one client, 16 outstanding 256 KB sequential reads of
    files warm in the server cache; the client has no cache (Fig. 3's
    plateau cell). The client reads each file to its end, closes it and
    opens the next, cycling over the file set."""

    name = "stream-prepost-256k"
    system = "nfs-prepost"
    window = 16
    block = 256 * KB
    measured_ops = 1024
    n_files = 4
    paper_mb_per_s = PAPER_FIG3_PLATEAU["nfs-prepost"]

    #: The file set: 288 blocks (72 MB) however the seed splits it, so
    #: the warm-up pass, and with it setup time, has a fixed length.
    set_blocks = 288

    def inputs(self, rng: random.Random) -> Dict:
        # Files pair up to half the set each, 48..96 blocks (12..24 MB)
        # per file: file ends, with the window drain and the open each
        # costs, fall at seeded points of the measured phase.
        half = self.set_blocks // 2
        blocks = []
        for _ in range(self.n_files // 2):
            first = rng.randint(48, half - 48)
            blocks += [first, half - first]
        return {"blocks": blocks}

    def wire(self, params, inputs: Dict) -> Cluster:
        blocks = inputs["blocks"]
        cluster = Cluster(params, system=self.system, block_size=self.block,
                          server_cache_blocks=sum(blocks) + 8)
        for i, n in enumerate(blocks):
            cluster.create_file(f"stream{i}", n * self.block)
        return cluster

    def _segments(self, blocks: List[int], first: int, count: int):
        """Split reads ``[first, first+count)`` of the cyclic file-set
        stream into per-file runs: (file, first block, block count)."""
        cycle = sum(blocks)
        pos, end = first, first + count
        while pos < end:
            offset = pos % cycle
            for f, n in enumerate(blocks):
                if offset < n:
                    break
                offset -= n
            take = min(n - offset, end - pos)
            yield f"stream{f}", offset, take
            pos += take

    def _stream(self, run: Run, first: int, count: int) -> None:
        client = run.cluster.clients[0]
        buffers = [client.host.mem.alloc(self.block, name=f"app{j}")
                   for j in range(self.window)]

        def main() -> Generator:
            for name, start, n in self._segments(run.inputs["blocks"],
                                                 first, count):
                def issue(i: int, name=name, start=start) -> Generator:
                    return run.timed_read(client, name,
                                          (start + i) * self.block,
                                          self.block,
                                          buffers[i % self.window])

                yield from client.open(name)
                yield from _windowed(run, client, issue, n, self.window)
                yield from client.close(name)

        run.cluster.sim.run_process(main())

    def warm(self, run: Run) -> None:
        self._stream(run, 0, sum(run.inputs["blocks"]))

    def measure(self, run: Run) -> None:
        self._stream(run, sum(run.inputs["blocks"]), self.measured_ops)


class SmallIONFS(Workload):
    """nfs, eight clients, one outstanding seeded-random 4 KB read each,
    against a server with fair-share admission and a bounded queue."""

    name = "smallio-nfs-8c"
    system = "nfs"
    n_clients = 8
    block = 4 * KB
    warm_ops = 128          # per client
    measured_ops = 8000     # 1000 per client
    #: Client buffer-cache entries: the file is >= 96x larger.
    bcache_entries = 8
    #: Fair-share dispatch over 4 service threads with a 2-deep accept
    #: queue: eight clients overflow it, so busy replies and client
    #: backoff are part of the shape.
    service_threads = 4
    max_queue = 2

    def inputs(self, rng: random.Random) -> Dict:
        n_blocks = rng.randint(768, 1280)
        per_client = (self.warm_ops + self.measured_ops // self.n_clients)
        picks = [[rng.randrange(n_blocks) for _ in range(per_client)]
                 for _ in range(self.n_clients)]
        return {"n_blocks": n_blocks, "picks": picks}

    def wire(self, params, inputs: Dict) -> Cluster:
        params.sched.policy = "fair"
        params.sched.service_threads = self.service_threads
        params.sched.max_queue = self.max_queue
        n = inputs["n_blocks"]
        cluster = Cluster(params, system=self.system,
                          n_clients=self.n_clients, block_size=self.block,
                          server_cache_blocks=n + 8,
                          client_kwargs={"bcache_entries":
                                         self.bcache_entries})
        cluster.create_file("small", n * self.block)
        return cluster

    def _phase(self, run: Run, first: int, count: int, opened: bool) -> None:
        sim = run.cluster.sim

        def client_main(idx: int) -> Generator:
            client = run.cluster.clients[idx]
            if not opened:
                yield from client.open("small")
            for block in run.inputs["picks"][idx][first:first + count]:
                yield from run.timed_read(client, "small",
                                          block * self.block, self.block)

        def main() -> Generator:
            yield sim.all_of([sim.process(client_main(i), name=f"io{i}")
                              for i in range(self.n_clients)])

        sim.run_process(main())

    def warm(self, run: Run) -> None:
        self._phase(run, 0, self.warm_ops, opened=False)

    def measure(self, run: Run) -> None:
        self._phase(run, self.warm_ops, self.measured_ops // self.n_clients,
                    opened=True)


class PostMarkODAFS(Workload):
    """odafs, one client, PostMark transactions on 4 KB files: 70% read,
    20% write, 10% create+delete; the file set exceeds both caches."""

    name = "postmark-odafs-rw"
    system = "odafs"
    block = 4 * KB
    n_files = 1024
    #: 1/8 of the file set.
    client_cache_blocks = 128
    #: 1/1.7 of the file set.
    server_cache_blocks = 602
    measured_ops = 10000
    read_frac = 0.7
    write_frac = 0.2

    def inputs(self, rng: random.Random) -> Dict:
        # Per transaction: kind, file pick, and the application work
        # around the I/O (path handling, bookkeeping) as a multiple of
        # the calibrated mean ``app_txn_us``, uniform in [0.5, 1.5).
        txns = []
        for _ in range(self.measured_ops):
            u = rng.random()
            kind = ("read" if u < self.read_frac else
                    "write" if u < self.read_frac + self.write_frac else
                    "create_delete")
            txns.append((kind, rng.randrange(self.n_files),
                         0.5 + rng.random()))
        warm = [("read", i, 1.0)
                for i in rng.sample(range(self.n_files), self.n_files)]
        return {"txns": txns, "warm": warm}

    def wire(self, params, inputs: Dict) -> Cluster:
        cluster = Cluster(params, system=self.system, block_size=self.block,
                          server_cache_blocks=self.server_cache_blocks,
                          client_kwargs={"cache_blocks":
                                         self.client_cache_blocks})
        for i in range(self.n_files):
            cluster.create_file(self._name(i), self.block)
        return cluster

    @staticmethod
    def _name(i: int) -> str:
        return f"pm{i:06d}"

    def _txn(self, run: Run, kind: str, index: int, work: float,
             serial: int) -> Generator:
        client = run.cluster.clients[0]
        start = run.cluster.sim.now
        yield from client.host.cpu.execute(
            work * client.host.params.proto.app_txn_us, category="app")
        if kind == "create_delete":
            name = f"pmx{serial:06d}"
            run.attempted += 1
            try:
                yield from client.create(name, self.block)
                yield from client.remove(name)
            except OP_FAILURES as exc:
                run._fail(type(exc).__name__)
                return
            run._done(start, 0)
            return
        name = self._name(index)
        yield from client.open(name)
        if kind == "read":
            ok = yield from run.checked_read(client, name, 0, self.block)
        else:
            run.attempted += 1
            try:
                yield from client.write(name, 0, self.block)
                ok = True
            except OP_FAILURES as exc:
                run._fail(type(exc).__name__)
                ok = False
        yield from client.close(name)
        if ok:
            run._done(start, self.block)

    def _run_txns(self, run: Run, txns) -> None:
        def main() -> Generator:
            for serial, (kind, index, work) in enumerate(txns):
                yield from self._txn(run, kind, index, work, serial)

        run.cluster.sim.run_process(main())

    def warm(self, run: Run) -> None:
        # One read transaction per file in a seeded order: every file is
        # opened (delegation granted) and its ORDMA references collected.
        self._run_txns(run, run.inputs["warm"])

    def measure(self, run: Run) -> None:
        self._run_txns(run, run.inputs["txns"])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (StreamPrepost(), SmallIONFS(), PostMarkODAFS())}
