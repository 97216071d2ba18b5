"""Stream benchmark: one workload per run, open loop, outputs checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clickstream_rows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20          # every workload

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same schedule twice, untraced then traced (each
for half of ``--seconds``), requires their exact counters to agree and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count batches.
The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from harness import drive, iqr_ratio, peak_rss_mb, probe_median, timed_setup, upper_quartile
from layers import LayerTimers, SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(HERE, "workloads.json")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/repro; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(wl, run, setup_cal: list[float]) -> dict:
    """The gated metrics of one untraced pass.

    Capacity and the median read calibrated wall busy time; steal
    bursts only lower the rounds and batches they hit, which the upper
    quartile and the median pass over.  p99 is made of those batches,
    so it replays steal-free service times where the benchmark thread
    does all of a batch's work (see :meth:`harness.Pass.steal_free`).
    """
    busy = run.calibrated(run.busy)
    tail = run.calibrated(run.steal_free()) if wl.in_process else busy
    limit_s = wl.cfg["latency_limit_ms"] / 1e3
    attempted = len(run.ok)
    failed = attempted - sum(run.ok)
    within = sum(ok and lat <= limit_s for ok, lat in zip(run.ok, run.latency))
    return {
        "capacity_tps": (upper_quartile(run.round_capacity(busy)), "tuples/s"),
        "latency_p50_ms": (percentile(run.replay_latency(busy), 50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(run.replay_latency(tail), 99) * 1e3, "ms"),
        "delivered_fraction": (run.delivered / run.expected, "fraction"),
        "correct_fraction": (1.0 - failed / attempted, "fraction"),
        "slo_attainment": (within / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_cal), "s"),
    }


def raw_detail(run, setup_raw: list[float]) -> dict:
    """The uncalibrated figures printed beside the calibrated metrics."""
    probes = [s for _k, s in run.probes]
    p99 = percentile(run.latency, 99)
    return {
        "capacity_tps_raw": upper_quartile(run.round_capacity(run.busy)),
        "latency_p50_ms_raw": percentile(run.latency, 50) * 1e3,
        "latency_p99_ms_raw": p99 * 1e3,
        "setup_s_raw": statistics.median(setup_raw),
        "latency_samples": len(run.latency),
        "samples_beyond_p99": sum(lat > p99 for lat in run.latency),
        "rounds": run.n_rounds,
        "failed_fraction": 1.0 - sum(run.ok) / len(run.ok),
        "host_probe_ms_p50": statistics.median(probes) * 1e3,
        "host_probe_iqr_ratio": iqr_ratio(probes),
        "generator_lag_p99_ms": percentile(run.lag, 99) * 1e3,
    }


#: Per-layer metrics of every traced run (``BENCHMARK.json`` per_layer
#: lists exactly these): generator-side, host and tracing layers.
COMMON_LAYERS = {
    "generator.lag_p99_ms": "ms",
    "ingest.encode_ns_per_tuple": "ns/tuple",
    "deliver.readback_ns_per_tuple": "ns/tuple",
    "host.probe_ms_p50": "ms",
    "host.probe_iqr_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
#: ...plus these on the in-process workloads, where the engine runs in
#: the benchmark thread.
ENGINE_LAYERS = {
    "engine.push_ns_per_tuple": "ns/tuple",
    "engine.run_self_ns_per_tuple": "ns/tuple",
    "engine.steps_per_ktuple": "steps/ktuple",
    "engine.train_mean_tuples": "tuples",
    "fusion.fused_boxes": "count",
    "scheduler.choose_ns_per_step": "ns/step",
    "shedder.dropped_tuples": "count",
    "qos.record_ns_per_tuple": "ns/tuple",
    "storage.rebalance_ns_per_step": "ns/step",
    "storage.tuples_spilled": "count",
    "obs.trace.spans_per_ktuple": "spans/ktuple",
}
#: ...or these on ``parallel_offload``, whose engine runs in the worker.
PARALLEL_LAYERS = {
    "parallel.push_ns_per_tuple": "ns/tuple",
    "parallel.drain_ms_per_round": "ms",
    "parallel.inprocess_capacity_tps": "tuples/s",
    "framing.bytes_per_tuple": "bytes/tuple",
    "parallel.frames_per_ktuple": "frames/ktuple",
}
#: Shedder call times exist only where a shedder is attached, so they
#: are printed in the run's detail rather than as declared metrics.
SHEDDER_LAYERS = {
    "shedder.admit_ns_per_tuple": "ns/tuple",
    "shedder.update_ns_per_call": "ns/call",
}


def per_layer(wl, run_a, run_b, spans, timers, before: dict, after: dict,
              inprocess_tps: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass ``run_b``, and shedder extras.

    A layer's time is the total of its spans minus what the timers of
    its children accumulated inside them.  Times are raw wall clock:
    the traced run is a diagnosis, not a gate.
    """
    totals = spans.totals()
    tuples = sum(run_b.tuples)
    delivered = run_b.delivered
    delta = {k: after[k] - before[k] for k in after}
    ns, calls = timers.ns, timers.calls

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    probes = [s for _k, s in run_a.probes + run_b.probes]
    out = {
        "generator.lag_p99_ms": percentile(run_a.lag + run_b.lag, 99) * 1e3,
        "ingest.encode_ns_per_tuple": per(totals.get("encode", 0), tuples),
        "deliver.readback_ns_per_tuple": per(totals.get("readback", 0), delivered),
        "host.probe_ms_p50": statistics.median(probes) * 1e3,
        "host.probe_iqr_ratio": iqr_ratio(probes),
        "trace.overhead_ratio": sum(run_b.calibrated(run_b.busy)) / sum(run_a.calibrated(run_a.busy)),
    }
    units = dict(COMMON_LAYERS)
    extra = {}
    if wl.in_process:
        run_children = sum(ns(k) for k in (
            "scheduler.choose", "storage.rebalance", "qos.record", "shedder.update"))
        units.update(ENGINE_LAYERS)
        out.update({
            "engine.push_ns_per_tuple": per(totals.get("push", 0) - ns("shedder.admit"), tuples),
            "engine.run_self_ns_per_tuple": per(totals.get("run", 0) - run_children, tuples),
            "engine.steps_per_ktuple": per(delta["steps"] * 1000, tuples),
            "engine.train_mean_tuples": per(delta["train_tuples"], delta["trains"]),
            "fusion.fused_boxes": after["fused_boxes"],
            "scheduler.choose_ns_per_step": per(ns("scheduler.choose"), calls("scheduler.choose")),
            "shedder.dropped_tuples": delta["shed"],
            "qos.record_ns_per_tuple": per(ns("qos.record"), delivered),
            "storage.rebalance_ns_per_step": per(ns("storage.rebalance"), calls("storage.rebalance")),
            "storage.tuples_spilled": delta["spilled"],
            "obs.trace.spans_per_ktuple": per(delta["trace_spans"] * 1000, tuples),
        })
        if calls("shedder.admit"):
            extra = {
                "shedder.admit_ns_per_tuple": per(ns("shedder.admit"), calls("shedder.admit")),
                "shedder.update_ns_per_call": per(ns("shedder.update"), calls("shedder.update")),
            }
    else:
        units.update(PARALLEL_LAYERS)
        out.update({
            "parallel.push_ns_per_tuple": per(totals.get("push", 0), tuples),
            "parallel.drain_ms_per_round": per(totals.get("drain", 0) / 1e6, len(run_b.busy)),
            "parallel.inprocess_capacity_tps": inprocess_tps,
            "framing.bytes_per_tuple": per(delta["bytes_out"], delivered),
            "parallel.frames_per_ktuple": per(delta["frames_out"] * 1000, tuples),
        })
    metrics = {name: (value, units[name]) for name, value in out.items()}
    return metrics, {name: (value, SHEDDER_LAYERS[name]) for name, value in extra.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    # Imported here: streams imports repro, which load_program() put on the path.
    from streams import WORKLOADS

    cfg = config["workloads"][name]
    ref_s = config["probe_ref_ms"] / 1e3
    round_batches = cfg["round_batches"]
    n = max(round(seconds * cfg["batch_rate_hz"]), 2 * round_batches)
    n_pass = n // 2 if trace else n
    # Probes bracket input generation and the reference run, which is
    # also parallel_offload's timed in-process baseline.
    probe_before = probe_median(5)
    t0 = time.perf_counter()
    wl = WORKLOADS[name](cfg, seed, n_pass)
    prepare_s = time.perf_counter() - t0
    probe_after = probe_median(5)
    batches = list(range(1, n_pass + 1))
    detail = {"workload": name, "seed": seed, "input_digest": wl.digest(),
              "prepare_s": prepare_s, "offered_tps": sum(wl.tuples_in(i) for i in batches)
              / (n_pass * wl.period)}
    correct = True

    if not trace:
        system, setup_raw, setup_cal, warm_ok = timed_setup(
            wl, cfg["setup_repeats"], ref_s)
        try:
            run = drive(wl, system, batches, round_batches, ref_s)
            correct = warm_ok and wl.final_check(system)
        finally:
            wl.close(system)
        metrics = end_to_end(wl, run, setup_cal)
        detail.update(raw_detail(run, setup_raw))
    else:
        system = wl.open()
        try:
            correct &= wl.check(0, wl.step(system, 0))[0]
            run = drive(wl, system, batches, round_batches, ref_s)
            counters_a = wl.counters(system)
            correct &= wl.final_check(system)
        finally:
            wl.close(system)
        timers, spans = LayerTimers(), SpanRecorder()
        system = wl.open(timers)
        try:
            correct &= wl.check(0, wl.step(system, 0))[0]
            before = wl.layer_counts(system)
            for timer in timers.timers.values():
                timer.ns = timer.calls = 0
            run_b = drive(wl, system, batches, round_batches, ref_s, spans=spans)
            after = wl.layer_counts(system)
            counters_b = wl.counters(system)
            correct &= wl.final_check(system)
        finally:
            wl.close(system)
        if counters_a != counters_b:
            differing = sorted(k for k in set(counters_a) | set(counters_b)
                               if counters_a.get(k) != counters_b.get(k))
            print(f"perfbench: traced run INVALID, counters differ: {differing}",
                  file=sys.stderr)
            correct = False
        detail["traced_counters_identical"] = counters_a == counters_b
        # Per-box exact counts stand in for per-box time: operators inside
        # a fused run cannot be timed from outside the program.
        detail["counters"] = counters_b
        inprocess_tps = 0.0
        if not wl.in_process:
            busy = sum(wl.inprocess_busy_s[1:])
            tuples = sum(wl.tuples_in(i) for i in range(1, wl.n_batches))
            inprocess_tps = tuples / busy * ((probe_before + probe_after) / 2) / ref_s
        metrics, extra = per_layer(wl, run, run_b, spans, timers, before, after,
                                   inprocess_tps)
        detail["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
        os.makedirs(SPAN_DIR, exist_ok=True)
        spans.write(os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.json"))
        run.ok += run_b.ok
        run.errors += run_b.errors

    detail["errors"] = run.errors
    failed = sum(not ok for ok in run.ok)
    return {
        "name": name,
        "correct": bool(correct and failed == 0),
        "attempted": len(run.ok),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    with open(CONFIG) as fh:
        config = json.load(fh)
    names = list(config["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in config["workloads"]]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{sorted(config['workloads'])} or 'all'")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), config)
        results.append(result)
        print(json.dumps({"detail": result["detail"]}))
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:32s} {m['value']:16.6f} {m['unit']}")
        print(f"{name:18s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
