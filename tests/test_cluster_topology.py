"""Pinned topology surface of the single-server and sharded clusters.

Every name here feeds a seeded output: host names pick switch ports and
span tracks, registry and sampler names key the campaign JSON and the
telemetry export, and RNG stream names derive every random draw from the
master seed. The literals below were captured from the two-class
implementation (a separate ``Cluster`` and ``ShardedCluster``) that the
list-shaped ``Cluster`` replaced; any drift here moves a digest.
"""

import pytest

from repro.cluster import Cluster
from repro.faults import FaultSchedule, Injector
from repro.nas.shard import ShardedCluster
from repro.params import default_params
from repro.sim import RandomStreams


def build(kind, system):
    """Two clients; nfs runs fair-share admission with checksums on, so
    the reject streams and the sched/integrity instruments appear."""
    p = default_params()
    if system == "nfs":
        p.sched.policy = "fair"
        p.integrity.enabled = True
    kwargs = {"cache_blocks": 8} if system == "odafs" else {}
    if kind == "plain":
        return Cluster(p, system=system, n_clients=2, client_kwargs=kwargs)
    p.shard.n_servers = 2
    p.shard.replicas = 1
    return ShardedCluster(p, system=system, n_clients=2,
                          client_kwargs=kwargs)


def surface(kind, system, monkeypatch):
    """Hosts, registry, sampler and every RNG stream drawn while wiring
    the cluster and then arming a representative fault injector."""
    drawn = []
    stream = RandomStreams.stream

    def recording(self, name):
        drawn.append(name)
        return stream(self, name)
    monkeypatch.setattr(RandomStreams, "stream", recording)
    cluster = build(kind, system)
    built = list(drawn)
    del drawn[:]
    sampler = cluster.attach_sampler()
    inj = Injector(cluster)
    inj.enable_resilience()
    inj.disk_bitrot(0.01)
    inj.server_crashes(0.001)
    inj.schedule_server_crash(FaultSchedule.at([100.0]), downtime_us=50.0,
                              shard=len(cluster.servers) - 1)
    inj.arm()
    cluster.run(until=1.0)
    return {
        "hosts": [host.name for host in
                  cluster.server_hosts + cluster.client_hosts],
        "metrics": list(cluster.metrics.names()),
        "sampler": sampler.names(),
        "build_streams": built,
        "injector_streams": list(drawn),
    }

PLAIN_NFS = {
    "hosts": [
        "server", "client0", "client1",
    ],
    "metrics": [
        "client0.cpu", "client0.nic", "client0.ops", "client0.rpc",
        "client1.cpu", "client1.nic", "client1.ops", "client1.rpc", "faults",
        "server.cache", "server.cpu", "server.disk", "server.integrity",
        "server.nic", "server.ops", "server.rpc", "server.sched", "timeseries",
    ],
    "sampler": [
        "server.cpu.util", "server.cpu.util.copy", "server.cpu.util.interrupt",
        "server.cpu.util.proto", "server.cpu.queue", "server.nic.fw_queue",
        "server.nic.rdma_outstanding", "server.nic.dma_mb_s",
        "server.cache.blocks", "server.cache.hit_rate", "server.rpc.inflight",
        "server.rpc.requests_s", "server.integrity.detected_s",
        "server.integrity.repaired_s", "server.sched.qdepth",
        "server.sched.active", "server.sched.rejected_s",
        "net.server.tx_backlog", "net.server.rx_backlog", "net.server.tx_util",
        "net.server.rx_util", "client0.cpu.util", "client0.cpu.util.copy",
        "client0.cpu.util.interrupt", "client0.cpu.util.proto",
        "client0.cpu.queue", "client0.nic.fw_queue",
        "client0.nic.rdma_outstanding", "client0.nic.dma_mb_s",
        "client0.rpc.outstanding", "client0.rpc.calls_s",
        "net.client0.tx_backlog", "net.client0.rx_backlog",
        "net.client0.tx_util", "net.client0.rx_util", "client1.cpu.util",
        "client1.cpu.util.copy", "client1.cpu.util.interrupt",
        "client1.cpu.util.proto", "client1.cpu.queue", "client1.nic.fw_queue",
        "client1.nic.rdma_outstanding", "client1.nic.dma_mb_s",
        "client1.rpc.outstanding", "client1.rpc.calls_s",
        "net.client1.tx_backlog", "net.client1.rx_backlog",
        "net.client1.tx_util", "net.client1.rx_util", "net.switch.queue_bytes",
        "net.switch.frames_s",
    ],
    "build_streams": [
        "net.loss", "client0.reject", "client1.reject",
    ],
    "injector_streams": [
        "faults.retry.client0", "faults.retry.client1", "faults.disk",
        "faults.server", "faults.schedule.server-crash",
    ],
}

PLAIN_ODAFS = {
    "hosts": [
        "server", "client0", "client1",
    ],
    "metrics": [
        "client0.cache", "client0.cpu", "client0.nic", "client0.ops",
        "client0.rpc", "client1.cache", "client1.cpu", "client1.nic",
        "client1.ops", "client1.rpc", "faults", "server.cache", "server.cpu",
        "server.disk", "server.nic", "server.ops", "server.rpc", "timeseries",
    ],
    "sampler": [
        "server.cpu.util", "server.cpu.util.copy", "server.cpu.util.interrupt",
        "server.cpu.util.proto", "server.cpu.queue", "server.nic.fw_queue",
        "server.nic.rdma_outstanding", "server.nic.dma_mb_s",
        "server.cache.blocks", "server.cache.hit_rate", "server.rpc.inflight",
        "server.rpc.requests_s", "net.server.tx_backlog",
        "net.server.rx_backlog", "net.server.tx_util", "net.server.rx_util",
        "client0.cpu.util", "client0.cpu.util.copy",
        "client0.cpu.util.interrupt", "client0.cpu.util.proto",
        "client0.cpu.queue", "client0.nic.fw_queue",
        "client0.nic.rdma_outstanding", "client0.nic.dma_mb_s",
        "client0.rpc.outstanding", "client0.rpc.calls_s",
        "client0.ordma.reads_s", "client0.ordma.writes_s", "client0.dir.size",
        "client0.dir.invalidations", "net.client0.tx_backlog",
        "net.client0.rx_backlog", "net.client0.tx_util", "net.client0.rx_util",
        "client1.cpu.util", "client1.cpu.util.copy",
        "client1.cpu.util.interrupt", "client1.cpu.util.proto",
        "client1.cpu.queue", "client1.nic.fw_queue",
        "client1.nic.rdma_outstanding", "client1.nic.dma_mb_s",
        "client1.rpc.outstanding", "client1.rpc.calls_s",
        "client1.ordma.reads_s", "client1.ordma.writes_s", "client1.dir.size",
        "client1.dir.invalidations", "net.client1.tx_backlog",
        "net.client1.rx_backlog", "net.client1.tx_util", "net.client1.rx_util",
        "net.switch.queue_bytes", "net.switch.frames_s",
    ],
    "build_streams": [
        "net.loss",
    ],
    "injector_streams": [
        "faults.retry.client0", "faults.retry.client1", "faults.disk",
        "faults.server", "faults.schedule.server-crash",
    ],
}

SHARDED_NFS = {
    "hosts": [
        "server0", "server1", "client0", "client1",
    ],
    "metrics": [
        "client0.cpu", "client0.nic", "client0.s0.ops", "client0.s0.rpc",
        "client0.s1.ops", "client0.s1.rpc", "client0.shard", "client1.cpu",
        "client1.nic", "client1.s0.ops", "client1.s0.rpc", "client1.s1.ops",
        "client1.s1.rpc", "client1.shard", "faults", "server0.cache",
        "server0.cpu", "server0.disk", "server0.integrity", "server0.nic",
        "server0.ops", "server0.rpc", "server0.sched", "server1.cache",
        "server1.cpu", "server1.disk", "server1.integrity", "server1.nic",
        "server1.ops", "server1.rpc", "server1.sched", "timeseries",
    ],
    "sampler": [
        "server0.cpu.util", "server0.cpu.util.copy",
        "server0.cpu.util.interrupt", "server0.cpu.util.proto",
        "server0.cpu.queue", "server0.nic.fw_queue",
        "server0.nic.rdma_outstanding", "server0.nic.dma_mb_s",
        "server0.cache.blocks", "server0.cache.hit_rate",
        "server0.rpc.inflight", "server0.rpc.requests_s",
        "server0.integrity.detected_s", "server0.integrity.repaired_s",
        "server0.sched.qdepth", "server0.sched.active",
        "server0.sched.rejected_s", "net.server0.tx_backlog",
        "net.server0.rx_backlog", "net.server0.tx_util", "net.server0.rx_util",
        "server1.cpu.util", "server1.cpu.util.copy",
        "server1.cpu.util.interrupt", "server1.cpu.util.proto",
        "server1.cpu.queue", "server1.nic.fw_queue",
        "server1.nic.rdma_outstanding", "server1.nic.dma_mb_s",
        "server1.cache.blocks", "server1.cache.hit_rate",
        "server1.rpc.inflight", "server1.rpc.requests_s",
        "server1.integrity.detected_s", "server1.integrity.repaired_s",
        "server1.sched.qdepth", "server1.sched.active",
        "server1.sched.rejected_s", "net.server1.tx_backlog",
        "net.server1.rx_backlog", "net.server1.tx_util", "net.server1.rx_util",
        "client0.cpu.util", "client0.cpu.util.copy",
        "client0.cpu.util.interrupt", "client0.cpu.util.proto",
        "client0.cpu.queue", "client0.nic.fw_queue",
        "client0.nic.rdma_outstanding", "client0.nic.dma_mb_s",
        "client0.shard.down", "client0.s0.rpc.outstanding",
        "client0.s0.rpc.calls_s", "client0.s1.rpc.outstanding",
        "client0.s1.rpc.calls_s", "net.client0.tx_backlog",
        "net.client0.rx_backlog", "net.client0.tx_util", "net.client0.rx_util",
        "client1.cpu.util", "client1.cpu.util.copy",
        "client1.cpu.util.interrupt", "client1.cpu.util.proto",
        "client1.cpu.queue", "client1.nic.fw_queue",
        "client1.nic.rdma_outstanding", "client1.nic.dma_mb_s",
        "client1.shard.down", "client1.s0.rpc.outstanding",
        "client1.s0.rpc.calls_s", "client1.s1.rpc.outstanding",
        "client1.s1.rpc.calls_s", "net.client1.tx_backlog",
        "net.client1.rx_backlog", "net.client1.tx_util", "net.client1.rx_util",
        "net.switch.queue_bytes", "net.switch.frames_s",
    ],
    "build_streams": [
        "net.loss", "client0.reject.s0", "client0.reject.s1",
        "client1.reject.s0", "client1.reject.s1",
    ],
    "injector_streams": [
        "faults.retry.client0.s0", "faults.retry.client0.s1",
        "faults.retry.client1.s0", "faults.retry.client1.s1", "faults.disk0",
        "faults.disk1", "faults.server0", "faults.server1",
        "faults.schedule.server-crash1",
    ],
}

SHARDED_ODAFS = {
    "hosts": [
        "server0", "server1", "client0", "client1",
    ],
    "metrics": [
        "client0.cpu", "client0.nic", "client0.s0.cache", "client0.s0.ops",
        "client0.s0.rpc", "client0.s1.cache", "client0.s1.ops",
        "client0.s1.rpc", "client0.shard", "client1.cpu", "client1.nic",
        "client1.s0.cache", "client1.s0.ops", "client1.s0.rpc",
        "client1.s1.cache", "client1.s1.ops", "client1.s1.rpc",
        "client1.shard", "faults", "server0.cache", "server0.cpu",
        "server0.disk", "server0.nic", "server0.ops", "server0.rpc",
        "server1.cache", "server1.cpu", "server1.disk", "server1.nic",
        "server1.ops", "server1.rpc", "timeseries",
    ],
    "sampler": [
        "server0.cpu.util", "server0.cpu.util.copy",
        "server0.cpu.util.interrupt", "server0.cpu.util.proto",
        "server0.cpu.queue", "server0.nic.fw_queue",
        "server0.nic.rdma_outstanding", "server0.nic.dma_mb_s",
        "server0.cache.blocks", "server0.cache.hit_rate",
        "server0.rpc.inflight", "server0.rpc.requests_s",
        "net.server0.tx_backlog", "net.server0.rx_backlog",
        "net.server0.tx_util", "net.server0.rx_util", "server1.cpu.util",
        "server1.cpu.util.copy", "server1.cpu.util.interrupt",
        "server1.cpu.util.proto", "server1.cpu.queue", "server1.nic.fw_queue",
        "server1.nic.rdma_outstanding", "server1.nic.dma_mb_s",
        "server1.cache.blocks", "server1.cache.hit_rate",
        "server1.rpc.inflight", "server1.rpc.requests_s",
        "net.server1.tx_backlog", "net.server1.rx_backlog",
        "net.server1.tx_util", "net.server1.rx_util", "client0.cpu.util",
        "client0.cpu.util.copy", "client0.cpu.util.interrupt",
        "client0.cpu.util.proto", "client0.cpu.queue", "client0.nic.fw_queue",
        "client0.nic.rdma_outstanding", "client0.nic.dma_mb_s",
        "client0.shard.down", "client0.s0.rpc.outstanding",
        "client0.s0.rpc.calls_s", "client0.s0.ordma.reads_s",
        "client0.s0.ordma.writes_s", "client0.s0.dir.size",
        "client0.s0.dir.invalidations", "client0.s1.rpc.outstanding",
        "client0.s1.rpc.calls_s", "client0.s1.ordma.reads_s",
        "client0.s1.ordma.writes_s", "client0.s1.dir.size",
        "client0.s1.dir.invalidations", "net.client0.tx_backlog",
        "net.client0.rx_backlog", "net.client0.tx_util", "net.client0.rx_util",
        "client1.cpu.util", "client1.cpu.util.copy",
        "client1.cpu.util.interrupt", "client1.cpu.util.proto",
        "client1.cpu.queue", "client1.nic.fw_queue",
        "client1.nic.rdma_outstanding", "client1.nic.dma_mb_s",
        "client1.shard.down", "client1.s0.rpc.outstanding",
        "client1.s0.rpc.calls_s", "client1.s0.ordma.reads_s",
        "client1.s0.ordma.writes_s", "client1.s0.dir.size",
        "client1.s0.dir.invalidations", "client1.s1.rpc.outstanding",
        "client1.s1.rpc.calls_s", "client1.s1.ordma.reads_s",
        "client1.s1.ordma.writes_s", "client1.s1.dir.size",
        "client1.s1.dir.invalidations", "net.client1.tx_backlog",
        "net.client1.rx_backlog", "net.client1.tx_util", "net.client1.rx_util",
        "net.switch.queue_bytes", "net.switch.frames_s",
    ],
    "build_streams": [
        "net.loss",
    ],
    "injector_streams": [
        "faults.retry.client0.s0", "faults.retry.client0.s1",
        "faults.retry.client1.s0", "faults.retry.client1.s1", "faults.disk0",
        "faults.disk1", "faults.server0", "faults.server1",
        "faults.schedule.server-crash1",
    ],
}


@pytest.mark.parametrize("kind,system,expected", [
    ("plain", "nfs", PLAIN_NFS),
    ("plain", "odafs", PLAIN_ODAFS),
    ("sharded", "nfs", SHARDED_NFS),
    ("sharded", "odafs", SHARDED_ODAFS),
])
def test_topology_names_are_pinned(kind, system, expected, monkeypatch):
    assert surface(kind, system, monkeypatch) == expected


def test_plain_cluster_server_state_is_one_element_lists():
    cluster = Cluster(system="odafs", client_kwargs={"cache_blocks": 8})
    assert cluster.n_servers == 1
    for many, one in (("servers", "server"),
                      ("server_hosts", "server_host"),
                      ("filesystems", "fs"), ("disks", "disk"),
                      ("caches", "cache"), ("schedulers", "scheduler")):
        items = getattr(cluster, many)
        assert len(items) == 1
        assert items[0] is getattr(cluster, one)
    assert cluster.scheduler is None
    assert cluster.endpoints(0) == [("", cluster.clients[0])]
    assert cluster.label("disk", 0) == "disk"


def test_sharded_cluster_indexes_names_and_endpoints():
    p = default_params()
    p.shard.n_servers = 2
    cluster = ShardedCluster(p, system="odafs",
                             client_kwargs={"cache_blocks": 8})
    assert cluster.label("disk", 1) == "disk1"
    router = cluster.clients[0]
    assert cluster.endpoints(0) == [(".s0", router.subclients[0]),
                                    (".s1", router.subclients[1])]
    assert cluster.server is cluster.servers[0]
