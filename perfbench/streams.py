"""The benchmark's four workloads.

Each workload generates its whole input from ``--seed`` before the
schedule starts, builds its system through the public ``repro`` API,
runs one batch per :meth:`Workload.step` (the timed part: encode, push,
run, read back) and checks every batch's outputs against a reference
it computed from the generated inputs.  Batch 0 is the warm-up batch
pushed during set-up; batches ``1..n`` are the measured schedule.

Virtual timestamps come from the fixed batch rate alone (batch ``i``
is due at ``i / batch_rate_hz``), so the engines' virtual clocks, and
with them the shedder's decisions, are a function of the seed only.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.core.columnar import ColumnarTrain, col
from repro.core.engine import AuroraEngine
from repro.core.operators import CaseFilter, Filter, Map, Tumble, Union
from repro.core.operators.map import columnar_map
from repro.core.qos import QoSSpec, latency_qos, loss_qos
from repro.core.query import QueryNetwork
from repro.core.scheduler import QoSScheduler, RoundRobinScheduler
from repro.core.shedder import LoadShedder
from repro.core.storage import StorageManager
from repro.core.tuples import StreamTuple
from repro.obs.trace import SpanSink, Tracer

from layers import NULL_SPANS


GEN_CHUNK = 1 << 16


def batch_key(rows: list) -> tuple[int, int]:
    """Order-sensitive fingerprint of one batch's outputs."""
    return len(rows), hash(tuple(rows))


class Workload:
    """Shared harness-facing shape; subclasses fill in the specifics."""

    name = ""
    #: True when an in-process ``AuroraEngine`` runs in the benchmark
    #: thread, so the thread's CPU time is the batch's service time.
    in_process = True

    def __init__(self, cfg: dict, seed: int, n_batches: int):
        self.cfg = cfg
        self.seed = seed
        self.period = 1.0 / cfg["batch_rate_hz"]
        self.n_batches = n_batches + 1  # batch 0 is the warm-up batch
        self.arrays: dict[str, np.ndarray] = {}
        self.offsets = np.zeros(1, dtype=np.int64)
        self.generate(np.random.default_rng(seed))
        self.expected: list[tuple[int, int]] = self.reference()

    # -- inputs -------------------------------------------------------------

    def generate(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def bounds(self, i: int) -> tuple[int, int]:
        return int(self.offsets[i]), int(self.offsets[i + 1])

    def tuples_in(self, i: int) -> int:
        a, b = self.bounds(i)
        return b - a

    def timestamps(self, i: int) -> np.ndarray:
        """Virtual timestamps of batch ``i``: due time plus even spacing."""
        n = self.tuples_in(i)
        return i * self.period + np.arange(n, dtype=np.float64) * (self.period / n)

    def fill(self, rng: np.random.Generator, columns: dict[str, np.dtype], draw) -> None:
        """Fill ``self.arrays`` chunk by chunk from ``draw(rng, n)``.

        Generating in chunks straight into the final compact dtypes
        keeps the generator's transient memory far below what the
        program itself holds, so ``peak_rss_mb`` measures the program.
        """
        total = int(self.offsets[-1])
        self.arrays = {name: np.empty(total, dtype) for name, dtype in columns.items()}
        for start in range(0, total, GEN_CHUNK):
            n = min(GEN_CHUNK, total - start)
            for name, values in draw(rng, n).items():
                self.arrays[name][start:start + n] = values

    def digest(self) -> str:
        """SHA-256 over every generated input array."""
        h = hashlib.sha256()
        for name in sorted(self.arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.arrays[name]).tobytes())
        h.update(self.offsets.tobytes())
        return h.hexdigest()

    # -- system ---------------------------------------------------------------

    def open(self, layers=None) -> Any:
        raise NotImplementedError

    def close(self, system: Any) -> None:
        pass

    def step(self, system: Any, i: int, spans=NULL_SPANS) -> Any:
        raise NotImplementedError

    # -- checks ---------------------------------------------------------------

    def reference(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def outputs_of(self, raw: Any) -> list:
        """Comparable rows of one batch's outputs (run outside busy time)."""
        raise NotImplementedError

    def check(self, i: int, raw: Any) -> tuple[bool, int]:
        """(outputs correct, output tuples delivered) for batch ``i``."""
        rows = self.outputs_of(raw)
        return batch_key(rows) == self.expected[i], len(rows)

    def expected_outputs(self, i: int) -> int:
        return self.expected[i][0]

    def counters(self, system: Any) -> dict[str, Any]:
        """Exact counters that must not depend on tracing."""
        return engine_counters(system)

    def final_check(self, system: Any) -> bool:
        """End-of-run consistency beyond the per-batch checks."""
        return True

    def layer_counts(self, engine: Any) -> dict[str, float]:
        """Cumulative layer counters, read before and after a traced pass."""
        hist = engine.metrics.histogram("engine.train.tuples")
        return {
            "steps": engine.steps,
            "train_tuples": hist.sum,
            "trains": hist.count,
            "shed": engine.shedder.tuples_dropped if engine.shedder else 0,
            "spilled": engine.storage.tuples_spilled,
            "trace_spans": len(engine.tracer.sink) if engine.tracer else 0,
            "fused_boxes": sum(len(run) for run in engine.fused_runs()),
        }


def make_engine(net: QueryNetwork, layers, scheduler=None, shedder=None, **kwargs):
    """Construct an engine, wrapping its injected parts when traced."""
    scheduler = scheduler or RoundRobinScheduler()
    storage = StorageManager()
    if layers is not None:
        layers.instrument_engine_parts(scheduler, storage, shedder)
    engine = AuroraEngine(
        net, scheduler=scheduler, storage=storage, shedder=shedder, **kwargs
    )
    if layers is not None:
        layers.instrument_engine(engine)
    return engine


def read_back(engine: AuroraEngine, name: str) -> list[StreamTuple]:
    """Hand one output stream's new tuples to the caller and clear it."""
    buffer = engine.outputs[name]
    rows = list(buffer)
    buffer.clear()
    return rows


def engine_counters(engine: AuroraEngine) -> dict[str, Any]:
    metrics = engine.metrics
    out: dict[str, Any] = {
        "engine.tuples_processed": engine.tuples_processed,
        "engine.steps": engine.steps,
        "fused_runs": engine.fused_runs(),
    }
    for direction in ("in", "out"):
        per_box = metrics.label_values(f"engine.box.tuples_{direction}", "box")
        for box_id, n in sorted(per_box.items()):
            out[f"box.{box_id}.tuples_{direction}"] = n
    for stream, n in metrics.label_values("engine.delivered.tuples", "stream").items():
        out[f"delivered.{stream}"] = n
    for stream, n in metrics.label_values("engine.shed.dropped", "input").items():
        out[f"shed.{stream}"] = n
    return out


# -- clickstream_rows -----------------------------------------------------------


def zipf_choice(rng: np.random.Generator, n_keys: int, s: float, size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** s
    return rng.choice(n_keys, size=size, p=weights / weights.sum())


class ClickstreamRows(Workload):
    """Row events pushed with ``push_many`` into lambda Filter -> Map ->
    keyed count-mode Tumble."""

    name = "clickstream_rows"
    BOT = 3

    def generate(self, rng):
        cfg = self.cfg
        self.offsets = np.arange(self.n_batches + 1, dtype=np.int64) * cfg["batch_tuples"]
        self.fill(rng, {"user": np.int32, "kind": np.int8, "dwell": np.int16},
                  lambda rng, n: {
                      "user": zipf_choice(rng, cfg["users"], cfg["zipf_s"], n),
                      "kind": rng.choice(4, size=n, p=[0.6, 0.2, 0.1, 0.1]),
                      "dwell": rng.integers(0, 5000, size=n),
                  })

    def build(self) -> QueryNetwork:
        bot = self.BOT
        net = QueryNetwork("clickstream")
        net.add_box("humans", Filter(lambda t: t["kind"] != bot, name="not_bot"))
        net.add_box("score", Map(
            lambda v: {"user": v["user"],
                       "score": v["dwell"] // 100 + (5 if v["kind"] == 2 else 1)},
            name="score"))
        net.add_box("windows", Tumble(
            "sum", groupby=("user",), value_attr="score", result_attr="total",
            mode="count", window_size=self.cfg["window"]))
        net.connect("in:clicks", "humans")
        net.connect("humans", "score")
        net.connect("score", "windows")
        net.connect("windows", "out:totals")
        return net

    def open(self, layers=None):
        return make_engine(self.build(), layers, train_size=self.cfg["train_size"])

    def step(self, engine, i, spans=NULL_SPANS):
        a, b = self.bounds(i)
        spans.open("encode", i)
        users = self.arrays["user"][a:b].tolist()
        kinds = self.arrays["kind"][a:b].tolist()
        dwells = self.arrays["dwell"][a:b].tolist()
        stamps = self.timestamps(i).tolist()
        rows = [
            StreamTuple({"user": u, "kind": k, "dwell": d}, ts)
            for u, k, d, ts in zip(users, kinds, dwells, stamps)
        ]
        spans.close()
        spans.open("push", i)
        engine.push_many("clicks", rows)
        spans.close()
        spans.open("run", i)
        engine.run_until_idle()
        spans.close()
        spans.open("readback", i)
        out = read_back(engine, "totals")
        spans.close()
        return out

    def outputs_of(self, raw):
        return [(t["user"], t["total"]) for t in raw]

    def reference(self):
        window = self.cfg["window"]
        bot = self.BOT
        counts: dict[int, int] = {}
        sums: dict[int, int] = {}
        expected = []
        for i in range(self.n_batches):
            a, b = self.bounds(i)
            rows = []
            for u, k, d in zip(self.arrays["user"][a:b].tolist(),
                               self.arrays["kind"][a:b].tolist(),
                               self.arrays["dwell"][a:b].tolist()):
                if k == bot:
                    continue
                score = d // 100 + (5 if k == 2 else 1)
                c = counts.get(u, 0) + 1
                s = sums.get(u, 0) + score
                if c == window:
                    rows.append((u, s))
                    c, s = 0, 0
                counts[u] = c
                sums[u] = s
            expected.append(batch_key(rows))
        return expected


# -- sensor_columns -------------------------------------------------------------


class SensorColumns(Workload):
    """Numpy columns wrapped in ``ColumnarTrain`` and pushed with
    ``push_train`` through a compiled filter and int/float map into a
    run-mode Tumble; outputs read back through ``OutputBuffer``."""

    name = "sensor_columns"
    FIELDS = ("sensor", "value", "flags")

    def generate(self, rng):
        cfg = self.cfg
        self.offsets = np.arange(self.n_batches + 1, dtype=np.int64) * cfg["batch_tuples"]

        def draw(rng, n):
            # Readings come in bursts from one sensor: geometric run lengths.
            runs = rng.geometric(1.0 / cfg["mean_run"], size=n // cfg["mean_run"] * 2 + 16)
            n_runs = int(np.searchsorted(np.cumsum(runs), n)) + 1
            ids = rng.integers(0, cfg["sensors"], size=n_runs)
            return {
                "sensor": np.repeat(ids, runs[:n_runs])[:n],
                # Quarter-unit readings: every window sum below is exact
                # in float64 whatever the summation order.
                "quarters": rng.integers(-400, 4000, size=n),
                "flags": rng.integers(0, 8, size=n),
            }

        self.fill(rng, {"sensor": np.int16, "quarters": np.int16, "flags": np.int8}, draw)

    def build(self) -> QueryNetwork:
        net = QueryNetwork("sensors")
        net.add_box("valid", Filter(col("value") >= 0.0))
        net.add_box("scale", columnar_map({
            "sensor": col("sensor") % self.cfg["key_mod"],
            "v": col("value") * 2.0 + 0.5,
            "level": col("flags") + 1,
        }))
        net.add_box("windows", Tumble(
            "sum", groupby=("sensor",), value_attr="v", result_attr="total"))
        net.connect("in:readings", "valid")
        net.connect("valid", "scale")
        net.connect("scale", "windows")
        net.connect("windows", "out:totals")
        return net

    def open(self, layers=None):
        return make_engine(self.build(), layers, train_size=self.cfg["train_size"])

    def step(self, engine, i, spans=NULL_SPANS):
        a, b = self.bounds(i)
        spans.open("encode", i)
        train = ColumnarTrain(
            self.FIELDS,
            {
                "sensor": self.arrays["sensor"][a:b].astype(np.int64),
                "value": self.arrays["quarters"][a:b] * 0.25,
                "flags": self.arrays["flags"][a:b].astype(np.int64),
            },
            self.timestamps(i),
        )
        spans.close()
        spans.open("push", i)
        engine.push_train("readings", train)
        spans.close()
        spans.open("run", i)
        engine.run_until_idle()
        spans.close()
        spans.open("readback", i)
        out = read_back(engine, "totals")
        spans.close()
        return out

    def outputs_of(self, raw):
        return [(t["sensor"], t["total"]) for t in raw]

    def reference(self):
        """Run-mode window sums, one batch at a time with the open window
        carried across batch boundaries (keeps memory per batch)."""
        key_mod = self.cfg["key_mod"]
        carry: tuple[int, float] | None = None
        expected = []
        for i in range(self.n_batches):
            a, b = self.bounds(i)
            quarters = self.arrays["quarters"][a:b]
            keep = np.flatnonzero(quarters >= 0)
            keys = self.arrays["sensor"][a:b][keep].astype(np.int64) % key_mod
            v = quarters[keep] * 0.5 + 0.5
            rows: list[tuple[int, float]] = []
            if len(keep):
                starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
                run_keys = keys[starts].tolist()
                sums = np.add.reduceat(v, starts).tolist()
                if carry is not None:
                    if run_keys[0] == carry[0]:
                        sums[0] += carry[1]
                    else:
                        rows.append(carry)
                # Window r closes when run r + 1 starts; the last stays open.
                rows.extend(zip(run_keys[:-1], sums[:-1]))
                carry = (run_keys[-1], sums[-1])
            expected.append(batch_key(rows))
        return expected


# -- tenant_shed ----------------------------------------------------------------


ROUTE_KINDS = (0, 1)  # CaseFilter predicates; port 2 is the else port


def route_holds(route: int, kind: int) -> bool:
    if route < len(ROUTE_KINDS):
        return kind == ROUTE_KINDS[route]
    return kind not in ROUTE_KINDS


class TenantShed(Workload):
    """Interleaved gold/bronze tuples through per-tuple ``engine.push``
    with a load shedder, QoS scheduler, sampled tracer, CaseFilter
    fan-out and Union fan-in per tenant."""

    name = "tenant_shed"
    TENANTS = ("gold", "bronze")

    def generate(self, rng):
        cfg = self.cfg
        sizes = []
        for i in range(self.n_batches):
            burst = (i % cfg["burst_cycle"]) < cfg["burst_batches"]
            sizes.append((cfg["gold_per_batch"],
                          cfg["bronze_burst"] if burst else cfg["bronze_base"]))
        tenant_parts = []
        for gold, bronze in sizes:
            labels = np.concatenate((np.zeros(gold, np.int8), np.ones(bronze, np.int8)))
            tenant_parts.append(rng.permutation(labels))
        self.offsets = np.concatenate(([0], np.cumsum([g + b for g, b in sizes]))).astype(np.int64)
        tenant = np.concatenate(tenant_parts)
        self.fill(rng, {"kind": np.int8, "amount": np.int16},
                  lambda rng, n: {"kind": rng.integers(0, 5, size=n),
                                  "amount": rng.integers(1, 1000, size=n)})
        self.arrays["tenant"] = tenant

    def build(self) -> QueryNetwork:
        net = QueryNetwork("tenants")
        n_ports = len(ROUTE_KINDS) + 1
        for tenant in self.TENANTS:
            route = f"{tenant}_route"
            net.add_box(route, CaseFilter(
                [lambda t, k=k: t["kind"] == k for k in ROUTE_KINDS],
                with_else_port=True, cost_per_tuple=0.001))
            net.add_box(f"{tenant}_union", Union(n_ports, cost_per_tuple=0.0002))
            for port in range(n_ports):
                tag = f"{tenant}_tag{port}"
                net.add_box(tag, Map(lambda v, p=port: {**v, "route": p}, name=tag,
                                     cost_per_tuple=0.0002))
                net.connect((route, port), tag)
                net.connect(tag, (f"{tenant}_union", port))
            net.connect(f"in:{tenant}", route)
            net.connect(f"{tenant}_union", f"out:{tenant}_out")
        return net

    def open(self, layers=None):
        cfg = self.cfg
        qos = {
            "gold_out": QoSSpec(latency_qos(0.05, 0.5), loss_qos(), importance=10.0),
            "bronze_out": QoSSpec(latency_qos(0.5, 5.0), loss_qos(), importance=1.0),
        }
        return make_engine(
            self.build(),
            layers,
            scheduler=QoSScheduler(),
            shedder=LoadShedder(target_load=cfg["target_load"], seed=self.seed),
            train_size=cfg["train_size"],
            cpu_capacity=cfg["cpu_capacity"],
            load_window=cfg["load_window"],
            qos_specs=qos,
            tracer=Tracer(SpanSink(), sample_rate=cfg["trace_sample"]),
        )

    def step(self, engine, i, spans=NULL_SPANS):
        a, b = self.bounds(i)
        spans.open("encode", i)
        names = [self.TENANTS[t] for t in self.arrays["tenant"][a:b].tolist()]
        rows = [
            StreamTuple({"id": j, "kind": k, "amount": m}, ts)
            for j, k, m, ts in zip(range(a, b),
                                   self.arrays["kind"][a:b].tolist(),
                                   self.arrays["amount"][a:b].tolist(),
                                   self.timestamps(i).tolist())
        ]
        spans.close()
        shed = {tenant: 0 for tenant in self.TENANTS}
        spans.open("push", i)
        push = engine.push
        for name, tup in zip(names, rows):
            if not push(name, tup):
                shed[name] += 1
        spans.close()
        spans.open("run", i)
        engine.run_until_idle()
        spans.close()
        spans.open("readback", i)
        out = {tenant: read_back(engine, f"{tenant}_out") for tenant in self.TENANTS}
        spans.close()
        return out, shed

    def reference(self):
        return []  # checked structurally, see check()

    def check(self, i, raw):
        out, shed = raw
        a, b = self.bounds(i)
        tenant = self.arrays["tenant"]
        kind = self.arrays["kind"]
        amount = self.arrays["amount"]
        ok = True
        delivered = 0
        for t_index, name in enumerate(self.TENANTS):
            offered = int(np.count_nonzero(tenant[a:b] == t_index))
            ids = [t["id"] for t in out[name]]
            delivered += len(ids)
            # Conservation: ingested = delivered path + shed.
            ok &= len(ids) + shed[name] == offered
            ok &= len(set(ids)) == len(ids)
            for tup, j in zip(out[name], ids):
                ok &= (
                    a <= j < b
                    and tenant[j] == t_index
                    and tup["kind"] == kind[j]
                    and tup["amount"] == amount[j]
                    and route_holds(tup["route"], tup["kind"])
                )
        return bool(ok), delivered

    def expected_outputs(self, i):
        return self.tuples_in(i)

    def final_check(self, engine):
        counters = engine_counters(engine)
        total = int(self.offsets[-1])
        delivered = sum(counters.get(f"delivered.{t}_out", 0) for t in self.TENANTS)
        shed = sum(counters.get(f"shed.{t}", 0) for t in self.TENANTS)
        return delivered + shed == total and engine.shedder.tuples_dropped == shed


# -- parallel_offload -----------------------------------------------------------


class ParallelOffload(Workload):
    """A CPU-bound Map chain under ``ParallelSystem`` with one worker;
    each batch is a push followed by ``drain``."""

    name = "parallel_offload"
    in_process = False

    def generate(self, rng):
        cfg = self.cfg
        self.offsets = np.arange(self.n_batches + 1, dtype=np.int64) * cfg["batch_tuples"]
        self.fill(rng, {"x": np.int64}, lambda rng, n: {"x": rng.integers(0, 2**31, size=n)})

    def spec(self) -> dict:
        from repro.parallel import blueprint

        return blueprint("offload:cpu_chain", stages=self.cfg["stages"],
                         rounds=self.cfg["rounds"])

    def rows(self, i: int) -> list[StreamTuple]:
        a, b = self.bounds(i)
        return [
            StreamTuple({"id": j, "x": x}, ts)
            for j, x, ts in zip(range(a, b), self.arrays["x"][a:b].tolist(),
                                self.timestamps(i).tolist())
        ]

    def open(self, layers=None):
        from repro.parallel import ParallelSystem

        system = ParallelSystem(self.spec(), n_workers=1, train_size=self.cfg["train_size"])
        return system.start()

    def close(self, system):
        system.shutdown()

    def step(self, system, i, spans=NULL_SPANS):
        spans.open("encode", i)
        rows = self.rows(i)
        spans.close()
        spans.open("push", i)
        system.push("source", rows)
        spans.close()
        spans.open("drain", i)
        system.drain()
        spans.close()
        spans.open("readback", i)
        sink = system.outputs["sink"]
        out = list(sink)
        sink.clear()
        spans.close()
        return out

    def outputs_of(self, raw):
        return sorted((t["id"], t["x"]) for t in raw)

    def reference(self):
        """Outputs of an in-process ``AuroraEngine`` on the same blueprint.

        Also the single-process baseline: its busy time per batch is
        kept in ``inprocess_busy_s``.
        """
        from time import perf_counter

        from repro.parallel.blueprints import build_network

        engine = AuroraEngine(build_network(self.spec()), train_size=self.cfg["train_size"])
        expected = []
        self.inprocess_busy_s: list[float] = []
        for i in range(self.n_batches):
            start = perf_counter()
            engine.push_many("source", self.rows(i))
            engine.run_until_idle()
            out = read_back(engine, "sink")
            self.inprocess_busy_s.append(perf_counter() - start)
            expected.append(batch_key(self.outputs_of(out)))
        return expected

    def counters(self, system):
        # Frame counts depend on how the worker's claims cut the trains,
        # which races with frame arrival, so only tuple counts are exact.
        stats = system.stats()
        out: dict[str, Any] = {}
        for box_id, box in sorted(stats["boxes"].items()):
            out[f"box.{box_id}.tuples_in"] = box["tuples_in"]
            out[f"box.{box_id}.tuples_out"] = box["tuples_out"]
        for worker, w in sorted(stats["workers"].items()):
            out[f"{worker}.processed"] = w["processed"]
        return out

    def layer_counts(self, system):
        workers = system.stats()["workers"].values()
        return {
            "frames_out": sum(w["frames_out"] for w in workers),
            "bytes_out": sum(w["bytes_out"] for w in workers),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ClickstreamRows, SensorColumns, TenantShed, ParallelOffload)
}
