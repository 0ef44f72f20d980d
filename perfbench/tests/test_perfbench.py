"""Tests for the end-to-end benchmark (run: python3 -m pytest perfbench/tests).

Workloads are shrunk (fewer measured ops) so the suite stays fast; the
shapes, seeding and checks are the benchmark's own.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.faults import Injector  # noqa: E402


def small(name, **sizes):
    """A copy of a workload with fewer operations."""
    w = type(workloads.WORKLOADS[name])()
    for attr, value in sizes.items():
        setattr(w, attr, value)
    return w


def smallio():
    return small("smallio-nfs-8c", warm_ops=8, measured_ops=400)


def postmark():
    return small("postmark-odafs-rw", measured_ops=300)


class DigestTest(unittest.TestCase):
    def test_repeats_for_a_seed_and_differs_across_seeds(self):
        w = smallio()
        first = run.one_round(w, 5).digest(5)
        self.assertEqual(first, run.one_round(w, 5).digest(5))
        self.assertNotEqual(first, run.one_round(w, 6).digest(6))

    def test_inputs_come_from_the_seed(self):
        w = postmark()
        self.assertEqual(w.build(9).inputs, w.build(9).inputs)
        self.assertNotEqual(w.build(9).inputs, w.build(10).inputs)
        self.assertEqual(w.build(9).cluster.params.seed, 9)


class HostTimerTest(unittest.TestCase):
    def test_gauged_round_simulates_the_same(self):
        w = smallio()
        plain = run.one_round(w, 8)
        gauged = run.one_round(w, 8, gauge=True)
        self.assertEqual(plain.digest(8), gauged.digest(8))
        self.assertEqual(plain.measure_slowness, 1.0)
        self.assertNotEqual(gauged.measure_slowness, 1.0)
        self.assertGreater(gauged.measure_s, 0.0)

    def test_slices_are_taken_out_and_scaled(self):
        timer = hostclock.HostTimer(gauge=True)
        timer.start()
        t0 = hostclock.host_clock()
        while hostclock.host_clock() - t0 < 0.2:
            pass
        seconds = timer.stop()
        self.assertGreater(timer.slices, 5)
        # The busy loop's own CPU time, at the reference speed.
        spent = hostclock.host_clock() - t0
        self.assertLess(seconds * timer.slowness, spent)
        self.assertEqual(hostclock.reference_slice(), hostclock.CHECKSUM)

    def test_plain_timer_is_cpu_time(self):
        timer = hostclock.HostTimer()
        timer.start()
        t0 = hostclock.host_clock()
        while hostclock.host_clock() - t0 < 0.05:
            pass
        seconds = timer.stop()
        self.assertEqual(timer.slowness, 1.0)
        self.assertGreaterEqual(seconds, 0.05)


class LayerTracerTest(unittest.TestCase):
    def test_self_times_reconcile_and_simulation_is_unchanged(self):
        w = postmark()
        plain = run.one_round(w, 3).digest(3)
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = run.one_round(w, 3, tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced.digest(3))
        self.assertEqual(sum(tracer.self_ns), tracer.wall_ns)
        ledger = tracer.ledger()
        for layer in ("sim.core", "proto.ordma", "hw.tpt", "nas.client",
                      "cache", "fs", "proto.rpc", "proto.transport"):
            self.assertGreater(ledger[layer][1], 0, layer)

    def test_uninstall_restores_every_method(self):
        from repro.sim.core import Simulator
        original = Simulator.run
        tracer = LayerTracer()
        tracer.install()
        self.assertIsNot(Simulator.run, original)
        tracer.uninstall()
        self.assertIs(Simulator.run, original)

    def test_generator_exceptions_pass_through(self):
        w = smallio()
        r = w.build(1)
        w.warm(r)
        for client in r.cluster.clients:  # first busy reply fails the op
            client.rpc.reject_retry.max_retries = 0
        tracer = LayerTracer()
        tracer.install()
        try:
            tracer.start()
            r.measuring = True
            w.measure(r)
            tracer.stop()
        finally:
            tracer.uninstall()
        self.assertEqual(sum(tracer.self_ns), tracer.wall_ns)
        self.assertGreater(r.errors.get("RPCError", 0), 0)
        self.assertEqual(r.failed, r.errors["RPCError"])


class OutputCheckTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        rnd = run.one_round(postmark(), 4)
        self.assertEqual(rnd.run.failed, 0)
        self.assertEqual(run.simulated(rnd)["ops_failed_frac"], 0.0)

    def test_silent_disk_corruption_is_caught(self):
        w = postmark()
        r = w.build(4)  # checksums are off by default
        self.assertFalse(r.cluster.params.integrity.enabled)
        injector = Injector(r.cluster)
        injector.disk_bitrot(0.3)
        injector.arm()
        w.warm(r)
        r.measuring = True
        w.measure(r)
        self.assertGreater(r.mismatches, 0)
        self.assertGreater(r.failed / r.attempted, 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_match_the_benchmark_file(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        report = run.traced(small("stream-prepost-256k",
                                  measured_ops=64), 2)
        self.assertEqual(report.problems, [])
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         list(report.values))
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["per_layer"]},
                         {n: run._unit(n) for n in report.values})

    def test_cli_refuses_bad_arguments_and_missing_sources(self):
        script = os.path.join(BENCH, "run.py")
        bad = subprocess.run(
            [sys.executable, script, "--workload", "nope", "--seed", "1"],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(bad.returncode, 2)
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            alone = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "smallio-nfs-8c", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(alone.returncode, 0)
        self.assertNotIn('"correct"', alone.stdout)


if __name__ == "__main__":
    unittest.main()
