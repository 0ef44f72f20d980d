"""Sharded testbed wiring: N full servers behind the existing switch.

A :class:`ShardedCluster` is a :class:`repro.cluster.Cluster` whose
list-shaped server state holds ``params.shard.n_servers`` stacks — each
with its own host, disk, file cache and (optional) admission scheduler —
so every workload, the metrics registry, the sampler and the fault
injector run on it unchanged. It overrides only what differs: the
system check, the server count and placement, client wiring (one
:class:`~repro.nas.shard.router.ShardRouter` per client host over one
per-system subclient per server), indexed names (``server{k}``,
``client{i}.s{k}``) and placement-scoped cache warming.

Port scheme: shard ``k`` serves on ``base_port + k`` (NFS 2049+k, DAFS
10+k). GM/UDP deliver to the same port number at the destination host,
so subclient ``k`` binds the matching port on the client side; the NFS
subclients share the client host's single UDP stack (one Ethernet
handler per NIC).

Every server's file system holds the *full* file — block content is the
``(name, index, version)`` tuple, so any server can serve any block
correctly from disk — but only the blocks a server primaries (or
replicates) are warmed into its cache. Striping is therefore purely a
routing and cache-warming concern, which is what makes striped reads
byte-identical to the single-server baseline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...cluster import Cluster
from ...hw.host import Host
from ...params import Params
from ...proto.udp import UDPStack
from ..server.server import NFS_PORT
from .placement import make_placement
from .router import ShardRouter

#: Systems the shard layer supports (the paper's baseline, the kernel
#: DAFS variant, and the optimistic client the scale-out story is about).
SHARD_SYSTEMS = ("nfs", "dafs", "odafs")


class ShardedCluster(Cluster):
    """N servers, ``n_clients`` routed client hosts, one switch."""

    def __init__(self, params: Optional[Params] = None,
                 system: str = "odafs", *args, **kwargs):
        super().__init__(params, system, *args, **kwargs)

    def _configure(self) -> None:
        if self.system not in SHARD_SYSTEMS:
            raise ValueError(f"unknown sharded system {self.system!r}; "
                             f"one of {SHARD_SYSTEMS}")
        self.n_servers = self.params.shard.n_servers
        self.placement = make_placement(self.params.shard, self.params.seed)

    def label(self, base: str, k: int) -> str:
        return f"{base}{k}"

    def endpoints(self, i: int) -> List[Tuple[str, Any]]:
        return [(f".s{k}", sub)
                for k, sub in enumerate(self.clients[i].subclients)]

    def _client_extras(self, i: int) -> List[Tuple[str, Any]]:
        # The router's failover counters and shards-down gauge.
        return [(f"client{i}.shard", self.clients[i])]

    def _make_client(self, host: Host, kwargs: Dict) -> ShardRouter:
        # One Ethernet handler per NIC: every NFS subclient shares the
        # host's single UDP stack, on its shard's port.
        stack = UDPStack(host) if self.system == "nfs" else None
        subclients = []
        for k in range(self.n_servers):
            sub_kwargs = dict(kwargs)
            if stack is not None:
                sub_kwargs["transport"] = stack.socket(NFS_PORT + k)
            subclients.append(super()._make_client(host, sub_kwargs, k))
        return ShardRouter(host, subclients, self.placement,
                           self.block_size,
                           down_cooldown_us=self.params.shard.down_cooldown_us)

    def create_file(self, name: str, size: int, warm: bool = True) -> None:
        """Create ``name`` in every server's namespace; ``warm=True``
        preloads each server's cache with the blocks it primaries or
        replicates (the Section 5 warm-cache setup, shard-scoped)."""
        for fs in self.filesystems:
            fs.create(name, size)
        if not warm:
            return
        for index in range(self.fs.block_count(name)):
            for k in self.placement.replica_chain(name, index):
                self.caches[k].insert(
                    (name, index),
                    self.filesystems[k].block_content(name, index))
