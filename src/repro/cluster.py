"""Testbed wiring: hosts, switch, server stacks and clients for one run.

A :class:`Cluster` reproduces the paper's experimental platform — up to
four PCs on a 2 Gb/s switch (Section 5) — configured for one of the five
NAS systems of Table 1:

========== ===================== ============================+
system      server                client
========== ===================== ============================+
nfs         NFSServer (UDP)       NFSClient (copies, bcache)
nfs-prepost NFSServer (UDP)       NFSPrepostClient (RDDP-RPC)
nfs-hybrid  NFSServer (UDP+GM)    NFSHybridClient (RDMA data)
dafs        DAFSServer (VI)       DAFSClient (user-level)
odafs       ODAFSServer (VI)      ODAFSClient (ORDMA)
========== ===================== ============================+

Server-side state is list-shaped — ``servers``, ``server_hosts``,
``filesystems``, ``disks``, ``caches``, ``schedulers`` — with one full
stack (host, disk, file cache, optional admission scheduler) per entry.
A plain cluster wires one; ``server``, ``server_host``, ``fs``, ``disk``,
``cache`` and ``scheduler`` alias element 0. The sharded subclass
(:class:`repro.nas.shard.ShardedCluster`) wires ``params.shard.n_servers``
and overrides only client wiring, placement and cache warming.
:meth:`Cluster.label` and :meth:`Cluster.endpoints` carry the one naming
rule every host, metric and RNG stream follows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .fs.disk import Disk
from .fs.files import FileSystem
from .hw.host import Host
from .hw.nic import NotifyMode
from .nas.client.dafs import DAFSClient
from .nas.client.nfs import NFSClient
from .nas.client.nfs_hybrid import NFSHybridClient
from .nas.client.nfs_prepost import NFSPrepostClient
from .nas.client.nfs_remap import NFSRemapClient
from .nas.client.odafs import ODAFSClient
from .nas.server.filecache import ServerFileCache
from .nas.server.sched import RequestScheduler
from .nas.server.server import (DAFS_PORT, NFS_PORT, DAFSServer, NFSServer,
                                ODAFSServer)
from .net.link import Switch
from .net.packet import reset_msg_ids
from .params import Params, default_params
from .proto.rpc import RetryPolicy
from .sim import (MetricsRegistry, RandomStreams, Simulator,
                  TimeSeriesSampler)

SYSTEMS = ("nfs", "nfs-prepost", "nfs-remap", "nfs-hybrid", "dafs", "odafs")


class Cluster:
    """One wired experiment: server stacks plus ``n_clients`` client hosts."""

    #: Server stacks wired (the sharded subclass reads ``params.shard``).
    n_servers = 1

    def __init__(self, params: Optional[Params] = None,
                 system: str = "dafs", n_clients: int = 1,
                 block_size: Optional[int] = None,
                 server_cache_blocks: int = 4096,
                 server_notify_mode: NotifyMode = NotifyMode.BLOCK,
                 use_capabilities: bool = True,
                 server_preload_tlb: bool = True,
                 client_kwargs: Optional[Dict] = None):
        self.params = params or default_params()
        self.system = system
        self._configure()
        self.sim = Simulator()
        self.rand = RandomStreams(self.params.seed)
        # The switch draws loss decisions from a named stream of the
        # master seed (not a hardcoded one) so --seed reaches every RNG.
        self.switch = Switch(self.sim, self.params.net,
                             rng=self.rand.stream("net.loss"))
        self.block_size = block_size or self.params.storage.server_cache_block

        self.server_hosts: List[Host] = []
        self.filesystems: List[FileSystem] = []
        self.disks: List[Disk] = []
        self.caches: List[ServerFileCache] = []
        self.servers = []
        #: Admission/request schedulers; ``None`` entries unless
        #: ``params.sched`` enables a policy (the seed dispatch model
        #: stays untouched).
        self.schedulers: List[Optional[RequestScheduler]] = []
        sched_p = self.params.sched
        for k in range(self.n_servers):
            host = Host(self.sim, self.params, self.switch,
                        self.label("server", k),
                        use_capabilities=use_capabilities)
            fs = FileSystem(self.block_size)
            disk = Disk(self.sim, self.params.storage,
                        name=f"{host.name}.disk")
            cache = ServerFileCache(host, self.block_size,
                                    server_cache_blocks,
                                    export=(system == "odafs"),
                                    preload_tlb=server_preload_tlb)
            if system == "odafs":
                server = ODAFSServer(host, fs, disk, cache,
                                     port=DAFS_PORT + k,
                                     mode=server_notify_mode)
            elif system == "dafs":
                server = DAFSServer(host, fs, disk, cache,
                                    port=DAFS_PORT + k,
                                    mode=server_notify_mode)
            else:
                server = NFSServer(host, fs, disk, cache, port=NFS_PORT + k)
            scheduler = None
            if sched_p.policy != "none":
                scheduler = RequestScheduler(
                    self.sim, policy=sched_p.policy,
                    service_threads=sched_p.service_threads,
                    max_queue=sched_p.max_queue)
                server.rpc.attach_scheduler(scheduler)
            server.start()
            self.server_hosts.append(host)
            self.filesystems.append(fs)
            self.disks.append(disk)
            self.caches.append(cache)
            self.servers.append(server)
            self.schedulers.append(scheduler)
        (self.server_host, self.fs, self.disk, self.cache, self.server,
         self.scheduler) = (self.server_hosts[0], self.filesystems[0],
                            self.disks[0], self.caches[0], self.servers[0],
                            self.schedulers[0])

        kwargs = dict(client_kwargs or {})
        self.client_hosts: List[Host] = []
        self.clients = []
        for i in range(n_clients):
            host = Host(self.sim, self.params, self.switch, f"client{i}",
                        use_capabilities=use_capabilities)
            self.client_hosts.append(host)
            self.clients.append(self._make_client(host, kwargs))
            if sched_p.policy == "none":
                continue
            for suffix, endpoint in self.endpoints(i):
                # Rejections come back as busy replies; each endpoint
                # backs off on its own seeded jitter stream.
                endpoint.rpc.reject_retry = RetryPolicy(
                    backoff_base_us=sched_p.reject_backoff_base_us,
                    backoff_factor=sched_p.reject_backoff_factor,
                    backoff_cap_us=sched_p.reject_backoff_cap_us,
                    jitter=sched_p.reject_jitter,
                    max_retries=sched_p.reject_max_retries,
                    rng=self.rand.stream(f"{host.name}.reject{suffix}"))

        #: One hierarchical read-out over every component's instruments.
        self.metrics = MetricsRegistry()
        self._register_metrics()
        #: Continuous telemetry; ``None`` until :meth:`attach_sampler`.
        self.sampler: Optional[TimeSeriesSampler] = None
        self.reset()

    def _configure(self) -> None:
        """Reject an unknown system before anything is wired."""
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"one of {SYSTEMS}")

    # -- naming ---------------------------------------------------------------

    def label(self, base: str, k: int) -> str:
        """``base`` as named for server stack ``k``.

        A plain cluster keeps the testbed's bare names (host ``server``,
        RNG streams ``disk`` and ``server``) so its seeds and digests
        never move; a sharded cluster indexes them (``server0``,
        ``disk1``).
        """
        return base

    def endpoints(self, i: int) -> List[Tuple[str, Any]]:
        """Client ``i``'s RPC endpoints as ``(name suffix, endpoint)``
        pairs: the client itself, suffix ``""`` (a sharded cluster has
        one per-server subclient each, suffix ``.s{k}``)."""
        return [("", self.clients[i])]

    def _client_extras(self, i: int) -> List[Tuple[str, Any]]:
        """``(name, component)`` pairs client ``i`` carries beyond its
        endpoints; each has ``stats`` and ``gauges()``."""
        return []

    # -- read-out -------------------------------------------------------------

    def reset(self) -> None:
        """Zero every id space a run consumes: the module-global message
        ids and each RPC endpoint's xid/session state.

        Called automatically at the end of wiring, so same-seed runs stay
        byte-identical even when one process builds several clusters in
        sequence — bench code must never call ``reset_msg_ids`` (or poke
        RPC internals) directly.
        """
        reset_msg_ids()
        for server in self.servers:
            server.rpc.reset_session()
        for i in range(len(self.clients)):
            for _, endpoint in self.endpoints(i):
                endpoint.rpc.reset_session()

    def _register_metrics(self) -> None:
        reg = self.metrics
        for host, server, disk, cache, scheduler in zip(
                self.server_hosts, self.servers, self.disks, self.caches,
                self.schedulers):
            prefix = host.name
            reg.register(f"{prefix}.cpu", host.cpu.busy)
            reg.register(f"{prefix}.nic", host.nic.stats)
            reg.register(f"{prefix}.disk", disk.stats)
            reg.register(f"{prefix}.cache", cache.stats)
            reg.register(f"{prefix}.ops", server.stats)
            reg.register(f"{prefix}.rpc", server.rpc.stats)
            if server.checksums is not None:
                reg.register(f"{prefix}.integrity", server.integrity)
            if scheduler is not None:
                reg.register(f"{prefix}.sched", scheduler.stats)
        for i, host in enumerate(self.client_hosts):
            reg.register(f"client{i}.cpu", host.cpu.busy)
            reg.register(f"client{i}.nic", host.nic.stats)
            for name, part in self._client_extras(i):
                reg.register(name, part.stats)
            for suffix, endpoint in self.endpoints(i):
                prefix = f"client{i}{suffix}"
                reg.register(f"{prefix}.ops", endpoint.stats)
                reg.register(f"{prefix}.rpc", endpoint.rpc.stats)
                cache = getattr(endpoint, "cache", None)
                if cache is not None and hasattr(cache, "stats"):
                    reg.register(f"{prefix}.cache", cache.stats)

    def attach_sampler(self, interval_us: float = 50.0,
                       capacity: int = 8192) -> TimeSeriesSampler:
        """Wire a :class:`~repro.sim.TimeSeriesSampler` over every
        component's gauges, under the registry's dotted naming scheme.

        Telemetry stays off by default — this only builds the probe set
        and registers it on :attr:`metrics` as ``timeseries``; sampling
        begins when the caller invokes ``sampler.start(stop_on=proc)``
        around the measured workload. Can be attached at most once.
        """
        if self.sampler is not None:
            raise RuntimeError("sampler already attached")
        sampler = TimeSeriesSampler(self.sim, interval_us=interval_us,
                                    capacity=capacity)
        for host, server, cache, scheduler in zip(
                self.server_hosts, self.servers, self.caches,
                self.schedulers):
            prefix = host.name
            sampler.probe_many(f"{prefix}.cpu", host.cpu.gauges())
            sampler.probe_many(f"{prefix}.nic", host.nic.gauges())
            sampler.probe_many(f"{prefix}.cache", cache.gauges())
            sampler.probe_many(f"{prefix}.rpc", server.rpc.gauges())
            if server.checksums is not None:
                sampler.probe_many(f"{prefix}.integrity",
                                   server.integrity_gauges())
            if scheduler is not None:
                sampler.probe_many(f"{prefix}.sched", scheduler.gauges())
            sampler.probe_many(f"net.{prefix}", host.nic.port.gauges())
        for i, host in enumerate(self.client_hosts):
            prefix = f"client{i}"
            sampler.probe_many(f"{prefix}.cpu", host.cpu.gauges())
            sampler.probe_many(f"{prefix}.nic", host.nic.gauges())
            for name, part in self._client_extras(i):
                sampler.probe_many(name, part.gauges())
            for suffix, endpoint in self.endpoints(i):
                sampler.probe_many(f"{prefix}{suffix}.rpc",
                                   endpoint.rpc.gauges())
                ordma = getattr(endpoint, "ordma", None)
                if ordma is not None:
                    sampler.probe_many(f"{prefix}{suffix}.ordma",
                                       ordma.gauges())
                directory = getattr(endpoint, "directory", None)
                if directory is not None:
                    sampler.probe_many(f"{prefix}{suffix}.dir",
                                       directory.gauges())
            sampler.probe_many(f"net.{prefix}", host.nic.port.gauges())
        sampler.probe_many("net.switch", self.switch.gauges())
        self.metrics.register("timeseries", sampler)
        self.sampler = sampler
        return sampler

    def _make_client(self, host: Host, kwargs: Dict, k: int = 0):
        """A ``self.system`` client on ``host`` for server stack ``k``."""
        server = self.server_hosts[k].name
        if self.system == "nfs":
            return NFSClient(host, server, **kwargs)
        if self.system == "nfs-prepost":
            return NFSPrepostClient(host, server, **kwargs)
        if self.system == "nfs-remap":
            return NFSRemapClient(host, server, **kwargs)
        if self.system == "nfs-hybrid":
            return NFSHybridClient(host, server, **kwargs)
        kwargs.setdefault("cache_block_size", self.block_size)
        cls = DAFSClient if self.system == "dafs" else ODAFSClient
        return cls(host, server, port=DAFS_PORT + k, **kwargs)

    # -- experiment setup -------------------------------------------------

    def create_file(self, name: str, size: int, warm: bool = True) -> None:
        """Create a file on the server; ``warm=True`` preloads the server
        file cache (the standard Section 5 setup)."""
        self.fs.create(name, size)
        if warm:
            self.server.warm(name)

    # -- measurement helpers ------------------------------------------------

    def reset_measurements(self) -> None:
        """Open a fresh measurement window on every host CPU."""
        for host in self.server_hosts + self.client_hosts:
            host.cpu.reset_measurement()

    def server_cpu_utilizations(self) -> List[float]:
        """Each server's CPU utilization over the measurement window."""
        return [host.cpu.utilization() for host in self.server_hosts]

    def server_cpu_utilization(self) -> float:
        """Mean per-server CPU utilization over the window (the quantity
        that saturates per machine in the scale-out sweep)."""
        utils = self.server_cpu_utilizations()
        return sum(utils) / len(utils)

    def client_cpu_utilization(self, index: int = 0) -> float:
        """One client's CPU utilization over the measurement window."""
        return self.client_hosts[index].cpu.utilization()

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (thin wrapper over ``sim.run``)."""
        self.sim.run(until=until)
