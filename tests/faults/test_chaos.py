"""Chaos campaign runner: determinism, completion, CLI surface."""

import json

import pytest

from repro.bench.chaos import (campaign_failures, chaos_campaign, main,
                               run_point)
from repro.params import default_params


FAULTY = "0.1000"


def tiny_campaign(seed=7):
    # 10% rate: the workload is tiny, so a lower rate can legitimately
    # draw zero faults for a class with few decision points.
    return chaos_campaign(params=default_params().copy(seed=seed),
                          systems=("nfs", "odafs"),
                          fault_classes=("link", "nic"),
                          rates=(0.0, 0.1), blocks=12, passes=2)


def test_campaign_is_deterministic_for_a_fixed_seed():
    a, b = tiny_campaign(seed=7), tiny_campaign(seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_campaign_seed_actually_matters():
    # Different seed, different fault arrivals: some point must differ.
    a, b = tiny_campaign(seed=7), tiny_campaign(seed=8)
    assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def test_all_points_complete_and_faults_degrade_throughput():
    results = tiny_campaign()
    assert campaign_failures(results) == 0
    for system, per_class in results.items():
        for fault_class, series in per_class.items():
            clean = series["0.0000"]
            faulty = series[FAULTY]
            assert clean["ops_failed"] == 0
            assert clean["faults_injected"] == 0
            assert faulty["faults_injected"] > 0
            # Faults cost time: the faulty point is never faster.
            assert faulty["sim_us"] >= clean["sim_us"]


def test_odafs_fallback_fraction_is_reported():
    results = tiny_campaign()
    faulty = results["odafs"]["nic"][FAULTY]
    # Rejected optimistic accesses must show up as RPC fallbacks.
    assert faulty["ordma_faults"] > 0
    assert faulty["rpc_fallback_frac"] > \
        results["odafs"]["nic"]["0.0000"]["rpc_fallback_frac"]


def test_run_point_survives_every_class_at_5_percent():
    for fault_class in ("link", "nic", "disk", "server"):
        point, _ = run_point("dafs", fault_class, 0.05, blocks=12,
                             passes=2)
        assert point["completed"], fault_class
        assert point["ops_ok"] > 0, fault_class


def test_cli_json_output_round_trips(capsys):
    rc = main(["--seed", "7", "--json", "--systems", "nfs",
               "--classes", "link", "--rates", "0.0", "0.05",
               "--blocks", "8"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 7
    assert "nfs" in out["results"]
    assert set(out["results"]["nfs"]["link"]) == {"0.0000", "0.0500"}


@pytest.mark.parametrize("rate", ["-1", "1.5", "nan"])
def test_cli_rejects_rate_outside_unit_interval(rate, capsys):
    """A negative fault rate used to run the whole campaign; argparse
    now rejects any rate that is not a probability."""
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--rates", "0.1", rate])
    assert exc.value.code == 2
    assert "--rates: must be a probability in [0, 1]" in \
        capsys.readouterr().err


def test_cli_rejects_zero_blocks(capsys):
    """Zero blocks per pass used to run and exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--blocks", "0"])
    assert exc.value.code == 2
    assert "--blocks: must be >= 1" in capsys.readouterr().err


def test_cli_rejects_zero_passes(capsys):
    """Zero passes used to run and then report a failed campaign."""
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--passes", "0"])
    assert exc.value.code == 2
    assert "--passes: must be >= 1" in capsys.readouterr().err


def test_cli_dump_writes_loadable_trace(tmp_path, capsys):
    path = tmp_path / "chaos.jsonl"
    rc = main(["--seed", "7", "--systems", "odafs", "--classes", "nic",
               "--rates", "0.25", "--blocks", "12", "--json",
               "--dump", str(path)])
    assert rc == 0
    capsys.readouterr()
    from repro.sim import load_jsonl
    dump = load_jsonl(str(path))
    kinds = {ev.kind for ev in dump.events}
    assert "fault" in kinds          # injected faults round-trip
    assert dump.finished_spans()     # spans survived the dump too
