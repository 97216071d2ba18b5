"""Falsifiability tests for the benchmark itself.

Run from the root of a checkout: ``python -m pytest perfbench -q``.
They use short schedules; the benchmark's own runs use the full ones.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run as bench  # noqa: E402
import streams  # noqa: E402

with open(os.path.join(HERE, "workloads.json")) as _fh:
    CONFIG = json.load(_fh)
REF_S = CONFIG["probe_ref_ms"] / 1e3
IN_PROCESS = ["clickstream_rows", "sensor_columns", "tenant_shed"]


def small_cfg(name: str, **overrides) -> dict:
    cfg = dict(CONFIG["workloads"][name])
    if "batch_tuples" in cfg:
        cfg["batch_tuples"] = max(cfg["batch_tuples"] // 4, 20)
    cfg["round_batches"] = 10
    cfg.update(overrides)
    return cfg


def drive_small(wl, n: int):
    system = wl.open()
    wl.step(system, 0)
    try:
        return harness.drive(wl, system, list(range(1, n + 1)), wl.cfg["round_batches"], REF_S)
    finally:
        wl.close(system)


@pytest.mark.parametrize("name", sorted(CONFIG["workloads"]))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = streams.WORKLOADS[name]
    cfg = small_cfg(name)
    first = cls(cfg, 7, 12).digest()
    assert cls(cfg, 7, 12).digest() == first
    assert cls(cfg, 8, 12).digest() != first


@pytest.mark.parametrize("name", IN_PROCESS)
def test_clean_run_passes_every_check(name):
    wl = streams.WORKLOADS[name](small_cfg(name), 3, 30)
    run = drive_small(wl, 30)
    assert run.ok == [True] * 30, run.errors
    assert run.delivered > 0


def corrupt(raw):
    """Change one delivered value without changing the tuple count."""
    if isinstance(raw, tuple):  # tenant_shed: (outputs, shed counts)
        out, _shed = raw
        rows = out["gold"] or out["bronze"]
        rows[0].values["route"] = (rows[0]["route"] + 1) % 3
        return raw
    first = raw[0]
    field = list(first.values)[-1]
    first.values[field] = first.values[field] + 1
    return raw


@pytest.mark.parametrize("name", IN_PROCESS)
def test_corrupted_output_counts_as_failed(name):
    wl = streams.WORKLOADS[name](small_cfg(name), 3, 30)
    step = wl.step

    def bad_step(system, i, spans=None):
        raw = step(system, i)
        return corrupt(raw) if i == 5 else raw

    wl.step = bad_step
    run = drive_small(wl, 30)
    assert [k for k, ok in enumerate(run.ok) if not ok] == [4]


def test_raising_batch_counts_as_failed():
    wl = streams.ClickstreamRows(small_cfg("clickstream_rows"), 3, 20)
    step = wl.step

    def flaky(system, i, spans=None):
        if i == 7:
            raise RuntimeError("injected")
        return step(system, i)

    wl.step = flaky
    run = drive_small(wl, 20)
    assert run.ok.count(False) >= 1 and not run.ok[6]
    assert "injected" in run.errors[0]


class SlowClickstream(streams.ClickstreamRows):
    """Test-only variant: a fixed busy loop per tuple in the Map."""

    def build(self):
        net = super().build()
        score = net.boxes["score"].operator
        inner = score.func

        def slow(values):
            acc = 0
            for k in range(60):
                acc += k
            return inner(values)

        score.func = slow
        return net


def calibrated_capacity(cls) -> float:
    wl = cls(small_cfg("clickstream_rows", round_batches=20), 5, 120)
    run = drive_small(wl, 120)
    assert all(run.ok)
    return harness.upper_quartile(run.round_capacity(run.calibrated(run.busy)))


def test_calibration_cannot_hide_a_per_tuple_slowdown():
    base = calibrated_capacity(streams.ClickstreamRows)
    slow = calibrated_capacity(SlowClickstream)
    assert slow < 0.85 * base, (slow, base)


def test_latency_replays_the_queue_and_drops_steal():
    run = harness.Pass(batches=[1, 2, 3], round_batches=3, period=0.010, ref_s=0.001)
    run.busy = [0.030, 0.002, 0.002]
    run.cpu = [0.015, 0.002, 0.002]  # batch 1 lost 15 ms of wall time to steal
    run.probes = [(0, 0.002)]  # the host runs at half the reference speed
    busy = run.calibrated(run.busy)
    # The first batch's overrun delays the two queued behind it.
    assert run.replay_latency(busy) == pytest.approx([0.015, 0.006, 0.001])
    assert run.steal_free() == pytest.approx([0.015, 0.002, 0.002])
    assert run.replay_latency(run.calibrated(run.steal_free())) == pytest.approx(
        [0.0075, 0.001, 0.001])


def test_traced_run_reports_every_layer_metric_with_identical_counters():
    config = json.loads(json.dumps(CONFIG))
    config["workloads"]["tenant_shed"] = small_cfg("tenant_shed")
    result = bench.run_workload("tenant_shed", 4, 1.0, True, config)
    assert result["correct"], result["detail"]
    assert result["detail"]["traced_counters_identical"]
    assert set(result["metrics"]) == set(bench.COMMON_LAYERS) | set(bench.ENGINE_LAYERS)
    assert set(result["detail"]["layers"]) == set(bench.SHEDDER_LAYERS)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["obs.trace.spans_per_ktuple"] > 0
    assert metrics["scheduler.choose_ns_per_step"] > 0


def test_benchmark_json_declares_what_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {w["name"] for w in declared["workloads"]} <= set(CONFIG["workloads"])
    run = harness.Pass(batches=[1, 2], round_batches=2, period=0.01, ref_s=REF_S)
    run.busy, run.cpu, run.latency = [0.002, 0.003], [0.002, 0.003], [0.002, 0.003]
    run.ok, run.tuples, run.delivered, run.expected = [True, True], [5, 5], 4, 4
    run.probes = [(0, REF_S)]
    wl = streams.TenantShed(small_cfg("tenant_shed"), 1, 2)
    printed = bench.end_to_end(wl, run, [0.01])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: unit for k, (_v, unit) in printed.items()}
    layers = {**bench.COMMON_LAYERS, **bench.ENGINE_LAYERS}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers


def test_malformed_output_counts_as_failed():
    wl = streams.SensorColumns(small_cfg("sensor_columns"), 3, 20)
    step = wl.step

    def drop_field(system, i, spans=None):
        raw = step(system, i)
        if i == 3:
            del raw[0].values["total"]
        return raw

    wl.step = drop_field
    run = drive_small(wl, 20)
    assert [k for k, ok in enumerate(run.ok) if not ok] == [2]
