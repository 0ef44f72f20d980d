"""Per-layer host-time attribution by wrapping the simulator's classes.

:class:`LayerTracer` replaces, at run time, every public method and every
generator method of the classes each layer's modules define with a thin
wrapper that charges host time to that layer. Timing is exclusive: a
clock read at every entry into and exit from a wrapped call charges the
interval since the previous read to whichever wrapped call is innermost
(top of a stack), so nested calls are never counted twice. Intervals
with no wrapped call on the stack go to ``sim.core``, the kernel — and so
the per-layer self times add up exactly (integer nanoseconds) to the
traced wall time between :meth:`start` and :meth:`stop`.

A generator method's wrapper is itself a generator that forwards
``send``/``throw``/``close``; each resume of the wrapped generator is one
call. The wrappers neither create nor hold simulator objects beyond the
values they pass through, so a traced run simulates exactly what an
untraced one does (the benchmark checks the two digests are equal).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: Layer name -> the modules whose classes it owns. ``hw.pci`` is the
#: NIC's bus and counts as ``hw.nic``; the server's file cache counts as
#: ``cache``; delegations and locks are server state. Modules not listed
#: here (wiring, params, tracing, telemetry, integrity, faults) are not
#: wrapped, so their time lands in the caller's layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.core": ("repro.sim.core",),
    "sim.resources": ("repro.sim.resources",),
    "sim.monitor": ("repro.sim.monitor", "repro.sim.metrics"),
    "hw.cpu": ("repro.hw.cpu",),
    "hw.nic": ("repro.hw.nic", "repro.hw.pci"),
    "hw.tpt": ("repro.hw.tpt",),
    "hw.memory": ("repro.hw.memory",),
    "net": ("repro.net.link", "repro.net.packet"),
    "proto.rpc": ("repro.proto.rpc",),
    "proto.transport": ("repro.proto.udp", "repro.proto.vi",
                        "repro.proto.messaging", "repro.proto.tcp"),
    "proto.ordma": ("repro.proto.ordma",),
    "nas.client": ("repro.nas.client.base", "repro.nas.client.nfs",
                   "repro.nas.client.nfs_prepost",
                   "repro.nas.client.nfs_remap",
                   "repro.nas.client.nfs_hybrid", "repro.nas.client.dafs",
                   "repro.nas.client.odafs",
                   "repro.nas.client.directory"),
    "nas.server": ("repro.nas.server.server", "repro.nas.server.sched",
                   "repro.nas.server.vm_pressure", "repro.nas.delegation",
                   "repro.nas.locks"),
    "cache": ("repro.cache.block_cache", "repro.cache.lru",
              "repro.cache.mq", "repro.cache.policy",
              "repro.nas.server.filecache"),
    "fs": ("repro.fs.files", "repro.fs.disk"),
}

#: The layer that absorbs time outside every wrapped call.
KERNEL = "sim.core"


def _targets(module) -> List[Tuple[type, str, object]]:
    """(class, attribute, function) for every method to wrap: public
    functions and all generator functions (private ones included, since
    the simulated data paths live in them) of the classes ``module``
    defines. Dunder methods, properties and exceptions are left alone."""
    out = []
    for cls in vars(module).values():
        if (not isinstance(cls, type) or cls.__module__ != module.__name__
                or issubclass(cls, BaseException)):
            continue
        for attr, fn in vars(cls).items():
            if not inspect.isfunction(fn) or attr.startswith("__"):
                continue
            if attr.startswith("_") and not inspect.isgeneratorfunction(fn):
                continue
            out.append((cls, attr, fn))
    return out


class LayerTracer:
    """Exclusive host time and call counts per layer.

    Use as ``tracer.install()`` before building the cluster (so objects
    capture wrapped methods), ``start()``/``stop()`` around the measured
    phase, and ``uninstall()`` in a ``finally``.
    """

    def __init__(self):
        self.names: List[str] = list(LAYERS)
        self._modules = {name: [importlib.import_module(m) for m in mods]
                         for name, mods in LAYERS.items()}
        n = len(self.names)
        self.self_ns = [0] * n
        self.calls = [0] * n
        #: Calls per wrapped function, keyed "Class.method".
        self.fn_calls: Dict[str, int] = {}
        self._fn_index: Dict[str, int] = {}
        self._fn_counts: List[int] = []
        self._stack: List[int] = [self.names.index(KERNEL)]
        self._start = self._last = 0
        self._active = False
        self._saved: List[Tuple[type, str, object]] = []
        self.wall_ns = 0

    # -- accounting ---------------------------------------------------------

    def _enter(self, slot: int, fn_slot: int) -> None:
        now = perf_counter_ns()
        stack = self._stack
        if self._active:
            self.self_ns[stack[-1]] += now - self._last
            self.calls[slot] += 1
            self._fn_counts[fn_slot] += 1
        stack.append(slot)
        self._last = now

    def _leave(self) -> None:
        now = perf_counter_ns()
        stack = self._stack
        if self._active:
            self.self_ns[stack[-1]] += now - self._last
        stack.pop()
        self._last = now

    def start(self) -> None:
        """Zero the ledger and start charging time."""
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self._fn_counts = [0] * len(self._fn_counts)
        self._active = True
        self._start = self._last = perf_counter_ns()

    def stop(self) -> None:
        """Stop charging; the final interval goes to the open frame."""
        now = perf_counter_ns()
        self.self_ns[self._stack[-1]] += now - self._last
        self._active = False
        self.wall_ns = now - self._start
        self.fn_calls = {name: self._fn_counts[i]
                         for name, i in self._fn_index.items()}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, slot: int, fn_slot: int, fn):
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                value = None
                exc = None
                while True:
                    enter(slot, fn_slot)
                    try:
                        out = (gen.send(value) if exc is None
                               else gen.throw(exc))
                    except StopIteration as stop:
                        leave()
                        return stop.value
                    except BaseException:
                        leave()
                        raise
                    leave()
                    exc = None
                    try:
                        value = yield out
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # forwarded into gen
                        exc = thrown
                        value = None
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(slot, fn_slot)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    def install(self) -> None:
        """Replace every target method with its timing wrapper."""
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for slot, name in enumerate(self.names):
            for module in self._modules[name]:
                for cls, attr, fn in _targets(module):
                    key = f"{cls.__name__}.{attr}"
                    fn_slot = self._fn_index.setdefault(
                        key, len(self._fn_index))
                    if fn_slot == len(self._fn_counts):
                        self._fn_counts.append(0)
                    self._saved.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(slot, fn_slot, fn))

    def uninstall(self) -> None:
        """Restore every original method."""
        for cls, attr, fn in reversed(self._saved):
            setattr(cls, attr, fn)
        self._saved = []

    # -- read-out -----------------------------------------------------------

    def ledger(self) -> Dict[str, Tuple[float, int]]:
        """{layer: (self seconds, calls)} for the last start/stop window."""
        return {name: (self.self_ns[i] / 1e9, self.calls[i])
                for i, name in enumerate(self.names)}
