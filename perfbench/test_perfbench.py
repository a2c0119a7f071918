"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Tiny runs of every workload, the shape of ``BENCHMARK.json``, and the
correctness gate rejecting a tampered digest and a dropped record.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.mesh.fastdispatch import FastRequestEngine  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Sim workloads shrink by SCALE (warm-up and drain keep their length);
# the live one runs LIVE_SECONDS of load.
SCALE = 0.01
LIVE_SECONDS = 5.0


def _bench() -> dict:
    return run.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def _tiny(name: str, trace: bool):
    return run.run(name, seed=3, seconds=LIVE_SECONDS, trace=trace,
                   root=ROOT, scale=SCALE)


def test_benchmark_json_matches_the_workloads_and_spec():
    bench = _bench()
    spec = run.load_json(run.SPEC_PATH)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    assert list(whys) == list(wl.WORKLOADS) == list(spec["workloads"])
    declared = {m["name"] for m in bench["per_layer"]}
    for name, entry in spec["workloads"].items():
        assert entry["why"] == whys[name]
        assert len(whys[name]) <= 200 and "\n" not in whys[name]
        assert set(entry["moves"]) <= declared, name
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in bench["workloads"] + metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_reports_every_metric(name):
    bench = _bench()
    for trace, declared in ((False, bench["end_to_end"]),
                            (True, bench["per_layer"])):
        result, report = _tiny(name, trace)
        assert result["correct"], report["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for metric_name, metric in result["metrics"].items():
            assert NAME.match(metric_name)
            assert isinstance(metric["value"], (int, float))
            assert metric["unit"]
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        json.dumps(result)
    assert report["manifest"]["traced"] is True
    assert {"workload", "seed", "engine", "git_sha", "nproc", "python",
            "numpy"} <= set(report["manifest"])


def test_host_times_scale_to_the_reference_host():
    # A host on which the kernel takes twice its nominal time runs the
    # workload at half speed: reference figures undo that; without a
    # calibration (the live workload) figures stay as measured.
    cal = calibrate.Calibration()
    cal.wall = cal.cpu = [2 * calibrate.NOMINAL_S] * 3
    rep = wl.Rep(setup_s=0.0, host_s=4.0, cpu_s=4.0, generated=100,
                 completed=100, failed=0, p50_ms=1.0, p99_ms=2.0,
                 peak_rss_mb=1.0)
    scaled = run.end_to_end([rep], 1.0, cal)
    raw = run.end_to_end([rep], 1.0, None)
    assert scaled["req_per_s"] == 50.0 and raw["req_per_s"] == 25.0
    assert scaled["cpu_ms_per_req"] == 20.0 and raw["cpu_ms_per_req"] == 40.0
    assert wl.WORKLOADS["tier-steady"].calibrated
    assert not wl.WORKLOADS["live-flat"].calibrated


def test_kernel_samples_take_their_share():
    cal = calibrate.Calibration()
    cal.sample_for(0.05)
    assert cal.wall and sum(cal.wall) >= 0.05
    assert cal.wall_factor > 0 and cal.cpu_factor > 0
    # tick() samples until the samples are SHARE of the time since
    # resume(), however long the workload ran in between.
    cal = calibrate.Calibration()
    cal.resume()
    time.sleep(0.3)
    cal.tick()
    share = calibrate.SHARE
    assert sum(cal.wall) >= 0.3 * share / (1 - share)


def test_traced_runs_repeat_the_deterministic_counts():
    counts = []
    for _ in range(2):
        rep = wl.WORKLOADS["tier-steady"].rep(
            5, 0, scale=SCALE, tracer=wl.Tracer())
        counts.append({k: rep.counts[k] for k in wl.DETERMINISTIC_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["telemetry.scrape_rounds"] > 0


def test_gate_rejects_a_tampered_digest():
    rep = wl.WORKLOADS["tier-steady"].rep(1, 0, scale=SCALE)
    assert run.check(wl, 1, 1.0, [rep], {"digest": rep.digest}, 1) == []
    problems = run.check(wl, 1, 1.0, [rep], {"digest": "0" * 64}, 1)
    assert problems and "digest" in problems[0]


class _DropFirst:
    """A record sink that loses the first record it is given."""

    def __init__(self, records):
        self.records = records
        self.dropped = False

    def append(self, record):
        if self.dropped:
            self.records.append(record)
        else:
            self.dropped = True


def test_gate_rejects_a_dropped_record(monkeypatch):
    init = FastRequestEngine.__init__

    def lossy_init(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        engine.records = _DropFirst(engine.records)
    monkeypatch.setattr(FastRequestEngine, "__init__", lossy_init)
    result, report = run.run("tier-steady", seed=1, seconds=1, trace=False,
                             root=ROOT, scale=SCALE)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("records" in p for p in report["problems"])
