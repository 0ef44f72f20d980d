#!/usr/bin/env python3
"""End-to-end benchmark of the DA-NAS simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``WORKLOADS.md``) in this
process, on one thread, from the repository's ``src`` tree. Each round
wires a fresh cluster, creates and warms its files, runs the warm-up
phase, then times the measured phase; rounds repeat until ``--seconds``
have passed (at least three), and host figures are medians over rounds.
Host times are CPU seconds of the simulator's thread at a fixed reference
speed, gauged while it runs (see ``hostclock.py``).
Simulated figures are deterministic per seed: every round must produce
the same digest, or the run is reported incorrect.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
plain round, one round under :class:`layers.LayerTracer` (per-layer host
self time and calls) and one round with the simulator's span tracer
attached (critical-path split), checks that neither traced round changed
the simulation, and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Exit code
2 means the arguments or the checkout are unusable.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from hostclock import HostTimer, host_clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Rounds per end-to-end run, at least; more while --seconds allows.
MIN_ROUNDS = 3

#: Server CPU categories reported one by one; the rest sum to "other".
CPU_CATEGORIES = ("copy", "disk", "doorbell", "fs", "interrupt", "rdma",
                  "rpc", "sched", "syscall", "udp", "vi")

#: Request spans kept by the span-traced round (each workload's
#: measured phase starts fewer).
SPAN_CAPACITY = 1 << 17

#: Critical-path stages reported one by one (every stage the three
#: workloads mark today); any other stage sums to "other".
STAGES = ("client.cache", "client.copy", "deliver", "net.reply",
          "net.request", "nic.doorbell", "nic.tx", "ordma.complete",
          "ordma.directory", "ordma.fault", "ordma.reject", "ordma.server",
          "rdma.ack", "rdma.data", "rpc.marshal", "rpc.rejected",
          "rpc.unmarshal", "sched.queue", "sched.reject", "server.cache",
          "server.copy", "server.disk", "server.fs", "server.rdma",
          "server.reply")


def readout(cluster) -> Dict:
    """The cluster's registry snapshot plus the switch's frame count."""
    out = cluster.metrics.snapshot()
    out["switch.frames_forwarded"] = cluster.switch.frames_forwarded
    return out


class Round:
    """Host timings and the simulated outcome of one round.

    ``setup_s`` and ``measure_s`` are :class:`hostclock.HostTimer`
    seconds: CPU seconds, at the reference speed when the timer gauged
    it, whose slowness over each window is ``setup_slowness`` and
    ``measure_slowness``. ``build_s`` and ``warm_s`` split the setup in
    plain CPU seconds (reference slices included when gauged), and
    ``measure_wall_s`` is the measured phase's wall time.
    """

    def __init__(self, workload, run, build_s: float, warm_s: float,
                 setup: Tuple[float, float], measure: Tuple[float, float],
                 measure_wall_s: float, before: Dict, events: int,
                 sim_us: float):
        self.workload = workload
        self.run = run
        self.build_s = build_s
        self.warm_s = warm_s
        self.setup_s, self.setup_slowness = setup
        self.measure_s, self.measure_slowness = measure
        self.measure_wall_s = measure_wall_s
        self.before = before
        self.after = readout(run.cluster)
        self.events = events
        self.sim_us = sim_us

    @property
    def ops(self) -> int:
        return len(self.run.latencies)

    def delta(self, key: str) -> float:
        """Measured-phase change of one registry entry."""
        return self.after.get(key, 0) - self.before.get(key, 0)

    def delta_sum(self, prefix: str, suffix: str) -> float:
        """Sum of :meth:`delta` over entries ``prefix*suffix``."""
        return sum(self.delta(k) for k in self.after
                   if k.startswith(prefix) and k.endswith(suffix))

    def digest(self, seed: int) -> str:
        """SHA-256 over every simulated statistic of the round."""
        run = self.run
        record = {
            "workload": self.workload.name, "seed": seed,
            "ops": self.ops, "attempted": run.attempted,
            "failed": run.failed, "sim_us": run.cluster.sim.now,
            "events": run.cluster.sim._seq, "latencies": run.latencies,
            "registry": self.after,
        }
        blob = json.dumps(record, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def digest_line(self, seed: int) -> str:
        run = self.run
        registry = hashlib.sha256(json.dumps(
            self.after, sort_keys=True, default=repr).encode()).hexdigest()
        return (f"digest {self.workload.name} seed={seed} ops={self.ops} "
                f"sim_us={run.cluster.sim.now!r} "
                f"events={run.cluster.sim._seq} registry={registry[:16]} "
                f"sha={self.digest(seed)}")


def one_round(workload, seed: int, tracer=None, spans: bool = False,
              gauge: bool = False) -> Round:
    """Wire, warm and measure one fresh cluster.

    ``tracer``, an installed :class:`layers.LayerTracer`, is started and
    stopped around the measured phase; ``spans`` attaches the
    simulator's span tracer for the measured phase only. ``gauge``
    times setup and measured phase at the reference speed (see
    :class:`hostclock.HostTimer`); leave it off under a tracer.
    """
    timer = HostTimer(gauge)
    gc.collect()
    timer.start()
    t0 = host_clock()
    run = workload.build(seed)
    t1 = host_clock()
    workload.warm(run)
    t2 = host_clock()
    setup = timer.stop(), timer.slowness
    sim = run.cluster.sim
    before = readout(run.cluster)
    seq0, now0 = sim._seq, sim.now
    run.measuring = True
    if spans:
        from repro.sim import Tracer
        # Spans only: the event ring is not read.
        Tracer.attach(sim, capacity=1, span_capacity=SPAN_CAPACITY)
    gc.collect()
    if tracer is not None:
        tracer.start()
    w3 = time.perf_counter()
    timer.start()
    workload.measure(run)
    measure = timer.stop(), timer.slowness
    w4 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
    return Round(workload, run, t1 - t0, t2 - t1, setup, measure, w4 - w3,
                 before, sim._seq - seq0, sim.now - now0)


def simulated(rnd: Round) -> Dict[str, float]:
    """The simulated end-to-end figures of a round's measured phase."""
    from repro.sim import LatencyStats
    run = rnd.run
    lat = LatencyStats("op_us")
    for sample in run.latencies:
        lat.record(sample)
    ops = rnd.ops
    return {
        "sim_ops_per_s": ops / rnd.sim_us * 1e6,
        "sim_mb_per_s": run.bytes_moved / rnd.sim_us,
        "sim_lat_p50_us": lat.percentile(50),
        "sim_lat_p99_us": lat.percentile(99),
        "sim_server_cpu_us_per_op": rnd.delta("server.cpu.busy_us") / ops,
        "sim_client_cpu_us_per_op":
            rnd.delta_sum("client", ".cpu.busy_us") / ops,
        "ops_failed_frac": run.failed / run.attempted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(rnd: Round) -> Dict[str, float]:
    """Simulated per-layer counters of a round's measured phase."""
    ops = rnd.ops
    out = {}
    cats = {k[len("server.cpu.by."):]: rnd.delta(k) for k in rnd.after
            if k.startswith("server.cpu.by.")}
    for cat in CPU_CATEGORIES:
        out[f"hw.cpu.server_us_per_op.{cat}"] = cats.pop(cat, 0.0) / ops
    out["hw.cpu.server_us_per_op.other"] = sum(cats.values()) / ops
    out["hw.nic.dma_bytes_per_op"] = rnd.delta_sum("", ".nic.dma_bytes") \
        / ops
    out["net.frames_per_op"] = rnd.delta("switch.frames_forwarded") / ops
    out["proto.rpc.calls_per_op"] = rnd.delta_sum("client", ".rpc.calls") \
        / ops
    out["proto.rpc.rejected"] = rnd.delta_sum("client",
                                              ".rpc.rejected_calls")
    out["proto.rpc.retransmits"] = rnd.delta_sum("client",
                                                 ".rpc.retransmits")
    admitted = rnd.delta("server.sched.admitted")
    rejected = rnd.delta("server.sched.rejected")
    out["nas.server.sched.admitted_frac"] = (
        _ratio(admitted, admitted + rejected)
        if rnd.run.cluster.scheduler is not None else 1.0)
    ordma = rnd.delta_sum("client", ".ops.ordma_reads")
    faults = rnd.delta_sum("client", ".ops.ordma_faults")
    out["proto.ordma.success_ratio"] = _ratio(ordma, ordma + faults)
    hits = (rnd.delta_sum("client", ".cache.hits")
            + rnd.delta_sum("client", ".ops.cache_reads"))
    misses = (rnd.delta_sum("client", ".cache.misses")
              + rnd.delta_sum("client", ".ops.remote_reads"))
    out["cache.client.hit_ratio"] = _ratio(hits, hits + misses)
    s_hits = rnd.delta("server.cache.hits")
    out["cache.server.hit_ratio"] = _ratio(
        s_hits, s_hits + rnd.delta("server.cache.misses"))
    out["cache.server.evictions"] = rnd.delta("server.cache.evictions")
    out["fs.disk.reads"] = rnd.delta("server.disk.reads")
    return out


def critical_path(rnd: Round) -> Dict[str, float]:
    """Mean simulated µs per request span, split by critical-path stage
    (service plus queueing wait, from ``tracecli.critical_path``)."""
    from repro.bench.tracecli import critical_path as split
    spans = rnd.run.cluster.sim.tracer.finished_spans()
    totals: Dict[str, float] = {}
    for stages in split(spans).values():
        for stage, part in stages.items():
            total = part.service.mean * part.service.count \
                + part.wait.mean * part.wait.count
            totals[stage] = totals.get(stage, 0.0) + total
    n = len(spans)
    out = {f"simtime.{stage}_us": totals.pop(stage, 0.0) / n
           for stage in STAGES}
    out["simtime.other_us"] = sum(totals.values()) / n
    out["simtime.total_us"] = sum(s.duration for s in spans) / n
    return out


#: The end-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = {
    "host_ops_per_s": "1/s", "setup_s": "s", "host_peak_rss_mb": "MB",
    "sim_ops_per_s": "1/s", "sim_mb_per_s": "MB/s",
    "sim_server_cpu_us_per_op": "us", "sim_client_cpu_us_per_op": "us",
}


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or "_us_per_op" in name:
        return "us"
    if name.endswith("_ns_per_event"):
        return "ns"
    if name.endswith("_bytes_per_op"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """What one invocation prints: metrics, digests and the check."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.values: Dict[str, float] = {}
        self.lines: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def tally(self, rnd: Round) -> Dict[str, float]:
        """Take a round's op tallies, output check and digest line;
        returns its simulated figures."""
        run = rnd.run
        self.attempted, self.failed = run.attempted, run.failed
        if run.mismatches:
            self.problems.append(
                f"{run.mismatches} reads returned wrong data")
        self.lines.append(rnd.digest_line(self.seed))
        sim = simulated(rnd)
        self.lines.append(
            f"ops_failed_frac {sim['ops_failed_frac']!r} "
            f"({run.failed} of {run.attempted} ops; {run.errors or 'none'})"
            f"  latency samples {rnd.ops}")
        return sim

    def same_digest(self, label: str, digests: List[str]) -> None:
        """Flag the run incorrect unless every digest is equal."""
        if len(set(digests)) != 1:
            self.problems.append(f"{label}: digests differ {digests}")

    def emit(self, names: Dict[str, str]) -> None:
        """Print the table, then the JSON line with ``names`` only."""
        print(f"workload {self.workload.name} seed {self.seed}")
        for line in self.lines:
            print(line)
        for name, value in self.values.items():
            unit = names.get(name) or _unit(name)
            print(f"  {name:44s} {value:>16.6g} {unit}")
        for problem in self.problems:
            print(f"INCORRECT: {problem}")
        metrics = {name: {"value": self.values[name], "unit": unit}
                   for name, unit in names.items()}
        print(json.dumps({"correct": not self.problems,
                          "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))


def end_to_end(workload, seed: int, seconds: float) -> Report:
    """Rounds until ``seconds`` pass (at least :data:`MIN_ROUNDS`); host
    figures are medians over rounds. One cluster is alive at a time."""
    report = Report(workload, seed)
    started = time.perf_counter()
    rates: List[float] = []
    wall_rates: List[float] = []
    slowness: List[float] = []
    setups: List[float] = []
    digests: List[str] = []
    sim: Dict[str, float] = {}
    while (len(rates) < MIN_ROUNDS
           or time.perf_counter() - started < seconds):
        rnd = one_round(workload, seed, gauge=True)
        rates.append(rnd.ops / rnd.measure_s)
        wall_rates.append(rnd.ops / rnd.measure_wall_s)
        slowness.append(rnd.measure_slowness)
        setups.append(rnd.setup_s)
        digests.append(rnd.digest(seed))
        if not sim:
            sim = report.tally(rnd)
            if workload.paper_mb_per_s:
                error = sim["sim_mb_per_s"] / workload.paper_mb_per_s - 1
                report.lines.append(
                    f"sim_mb_per_s vs the paper's {workload.paper_mb_per_s}"
                    f" MB/s: {error:+.2%} (model error, not gated)")
        del rnd
    report.same_digest(f"{len(digests)} rounds", digests)
    report.values.update({
        "host_ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "host_peak_rss_mb": peak_rss_mb(),
    })
    report.values.update(sim)
    report.lines.append(f"rounds {len(rates)}: host_ops_per_s "
                        f"{[round(r, 1) for r in rates]}")
    report.lines.append(f"  host slowness (x reference): "
                        f"{[round(r, 3) for r in slowness]}")
    report.lines.append(f"  by wall time, reference slices included: "
                        f"{[round(r, 1) for r in wall_rates]}")
    return report


def traced(workload, seed: int) -> Report:
    """One plain round, one layer-traced round and one span-traced
    round; the per-layer metrics."""
    from layers import LayerTracer
    report = Report(workload, seed)
    plain = one_round(workload, seed)
    sim = report.tally(plain)
    values = report.values
    values["setup.build_s"] = plain.build_s
    values["setup.warm_s"] = plain.warm_s
    values["sim.core.events"] = plain.events
    values["sim.core.host_ns_per_event"] = plain.measure_s * 1e9 \
        / plain.events
    values.update(counters(plain))
    for name in ("sim_lat_p50_us", "sim_lat_p99_us", "ops_failed_frac"):
        values[name] = sim[name]
    values["sim_lat_samples"] = plain.ops
    digests = [plain.digest(seed)]
    plain_s, ops = plain.measure_wall_s, plain.ops
    del plain

    tracer = LayerTracer()
    tracer.install()
    try:
        layered = one_round(workload, seed, tracer=tracer)
    finally:
        tracer.uninstall()
    digests.append(layered.digest(seed))
    del layered
    for layer, (self_s, calls) in tracer.ledger().items():
        values[f"{layer}.host_self_s"] = self_s
        values[f"{layer}.calls"] = calls
    values["hw.memory.page_pins_per_op"] = \
        tracer.fn_calls.get("Page.pin", 0) / ops
    traced_s = tracer.wall_ns / 1e9
    values["trace.total_s"] = traced_s
    values["trace.overhead_ratio"] = traced_s / plain_s
    attributed = sum(tracer.self_ns)
    adds_up = attributed == tracer.wall_ns
    report.lines.append(
        f"layer self time sums to {attributed} ns of {tracer.wall_ns} ns "
        f"traced wall ({'OK' if adds_up else 'MISMATCH'})")
    if not adds_up:
        report.problems.append("layer self times do not add up")

    spanned = one_round(workload, seed, spans=True)
    digests.append(spanned.digest(seed))
    if spanned.run.cluster.sim.tracer.spans_started > SPAN_CAPACITY:
        report.problems.append("span ring overflowed")
    values.update(critical_path(spanned))
    del spanned
    report.same_digest("plain/layer-traced/span-traced rounds", digests)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.trace:
        report = traced(workload, args.seed)
        report.emit({name: _unit(name) for name in report.values})
    else:
        report = end_to_end(workload, args.seed, args.seconds)
        report.emit(END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
