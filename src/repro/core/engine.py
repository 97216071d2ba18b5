"""The single-node Aurora run-time (Section 2.3, Figure 3).

Wires together the router, scheduler (with train scheduling), storage
manager, QoS monitor and load shedder around a query network.  Time is
virtual: the engine's clock advances by the CPU cost of the work it
performs (box costs scaled by CPU capacity, scheduling overhead, spill
I/O), so latency measurements are deterministic.

The engine runs standalone (these semantics are exercised directly by
tests and example applications) and embedded in a simulated distributed
node (:mod:`repro.distributed.node`), where the surrounding simulator
owns the clock.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Callable, Iterable, Union

import numpy as np

from repro.core.catalog import LocalCatalog
from repro.core.columnar import ColumnarTrain, OutputBuffer, running_max
from repro.core.fusion import Batch, FusedChain, FusionOverlay, find_runs
from repro.core.qos import QoSMonitor, QoSSpec
from repro.core.query import Arc, Box, QueryNetwork
from repro.core.scheduler import RoundRobinScheduler, Scheduler
from repro.core.shedder import LoadShedder
from repro.core.storage import StorageManager
from repro.core.tuples import StreamTuple
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.trace import Tracer


class AuroraEngine:
    """A scheduled, QoS-monitored executor for one query network.

    Args:
        network: the query network to run (validated on construction).
        scheduler: box-selection discipline (default round-robin).
        train_size: max tuples processed per scheduling decision
            ("how many of the tuples ... waiting in front of a given
            box to process").
        push_trains: if True, a train is pushed through downstream
            boxes within the same scheduling step ("how far to push
            them toward the output") — Section 2.3's train scheduling.
        cpu_capacity: CPU seconds of box work completed per virtual
            second (node speed; 1.0 = costs are wall-clock).
        scheduling_overhead: virtual seconds charged per scheduling
            decision (this is what train scheduling amortizes).
        batch_execution: the one execution switch.  True (the default)
            runs every train through the fast runner: a train is claimed,
            charged and processed as one batch per run of stages — a
            superbox (:mod:`repro.core.fusion`: with ``push_trains``, a
            maximal linear run of stateless boxes compiled and threaded
            through every constituent kernel in a single pass), or a
            single box.  A train stays columnar while it rides whole
            :class:`~repro.core.columnar.ColumnarTrain` segments (those
            admitted via :meth:`push_train`) and materializes only at
            the barriers of docs/columnar.md; row pushes stay rows.  False
            selects the per-tuple reference path (``Operator.process``,
            one tuple at a time, unfused), which the equivalence
            oracles compare against.  Both modes deliver the same
            outputs at the same virtual clock (docs/architecture.md
            names the one latency-granularity difference).
        qos_specs: per-output-stream QoS specifications.
        storage: storage manager (buffer/spill accounting).
        shedder: load shedder; None disables shedding.
        load_window: horizon (virtual seconds) over which queued work is
            compared against capacity to compute the load factor.
        metrics: observability registry (:mod:`repro.obs`).  Enabled by
            default; all updates are batch-aware (one increment per
            train), so the cost is a handful of handle calls per
            scheduling decision.  Pass ``MetricsRegistry(enabled=False)``
            to strip even that.
        tracer: trace-span recorder; None (the default) disables
            per-tuple lineage tracing entirely.

    Superboxes are an overlay (:attr:`superboxes`): per-constituent
    statistics, obs counters and trace spans are emitted exactly as the
    unfused network would emit them, and :meth:`defuse` dissolves them
    at any scheduling boundary.
    """

    def __init__(
        self,
        network: QueryNetwork,
        scheduler: Scheduler | None = None,
        train_size: int = 10,
        push_trains: bool = True,
        cpu_capacity: float = 1.0,
        scheduling_overhead: float = 0.0005,
        qos_specs: dict[str, QoSSpec] | None = None,
        storage: StorageManager | None = None,
        shedder: LoadShedder | None = None,
        load_window: float = 1.0,
        batch_execution: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        network.validate()
        if train_size < 1:
            raise ValueError("train_size must be >= 1")
        if cpu_capacity <= 0:
            raise ValueError("cpu_capacity must be positive")
        self.network = network
        self.scheduler = scheduler or RoundRobinScheduler()
        self.train_size = train_size
        self.push_trains = push_trains
        self.cpu_capacity = cpu_capacity
        self.scheduling_overhead = scheduling_overhead
        self.qos_monitor = QoSMonitor(qos_specs)
        self.storage = storage or StorageManager()
        self.shedder = shedder
        self.load_window = load_window
        self.batch_execution = batch_execution
        self.catalog = LocalCatalog()

        # Observability (repro.obs): metrics stay on by default — every
        # update below is per-train, never per-tuple — and tracing is
        # opt-in via the tracer's sampling knob.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.active
        self.storage.bind_metrics(self.metrics)
        self._m_tuples = self.metrics.counter("engine.tuples_processed")
        self._m_emitted = self.metrics.counter("engine.tuples_emitted")
        self._m_train_hist = self.metrics.histogram("engine.train.tuples")
        self._m_decisions: dict[str, Counter] = {}
        self._m_box_in: dict[str, Counter] = {}
        self._m_box_out: dict[str, Counter] = {}
        self._m_ingest: dict[str, Counter] = {}
        self._m_delivered: dict[str, Counter] = {}
        self._m_shed: dict[str, Counter] = {}

        self.clock = 0.0
        self.steps = 0
        self.tuples_processed = 0
        # Whether push_train keeps trains columnar (derived, not an
        # option): segments are claimed by the batch runner only, and
        # tracing stamps per-tuple spans, so traced engines materialize
        # at ingestion instead.
        self.columnar = batch_execution and not self._tracing
        self.outputs: dict[str, Union[list[StreamTuple], OutputBuffer]] = {}
        self.box_order: list[str] = []
        # Public scheduler-facing indexes (see the scheduler module):
        # queued_counts holds only boxes with queued tuples, so choice
        # is O(non-empty boxes); topo_position breaks ties the same way
        # a topological scan would.
        self.topo_position: dict[str, int] = {}
        self.queued_counts: dict[str, int] = {}
        self._reach_cache: dict[str, frozenset[str]] = {}
        self._input_reach_cache: dict[str, frozenset[str]] = {}
        self._runs: dict[str, list[str]] = {}
        self.superboxes = FusionOverlay()
        self.invalidate_caches()

    # -- topology caches -----------------------------------------------------

    def invalidate_caches(self) -> None:
        """Recompute topology-derived state after a network change.

        Load management (Section 5) rewrites the network at run time —
        box sliding and splitting add/remove boxes — so everything
        derived from topology must be refreshed: reachability,
        scheduling order, the queued-count index, the output buffers
        (streams a rewrite removed drop their buffers instead of
        lingering) and the superbox fusion overlay, which re-runs from
        scratch (defuse + refuse) so direct network mutations are
        honored.  The scheduler is notified last, so cursors cannot
        point past a shrunken ``box_order``.
        """
        self.box_order = self.network.topological_order()
        self.topo_position = {b: i for i, b in enumerate(self.box_order)}
        self._reach_cache.clear()
        self._input_reach_cache.clear()
        # Columnar engines deliver whole segments, so their buffers are
        # lazily materializing; list-path engines keep plain lists.
        fresh = OutputBuffer if self.columnar else list
        self.outputs = {
            name: (self.outputs[name] if name in self.outputs else fresh())
            for name in self.network.outputs
        }
        self.queued_counts = {}
        for box_id, box in self.network.boxes.items():
            queued = box.queued()
            if queued:
                self.queued_counts[box_id] = queued
        # Boxes *removed* by a rewrite (a merge, a replica retirement)
        # must not linger in the per-box obs handle caches: under
        # elastic churn replica ids are never reused, so stale handles
        # would accumulate without bound.  The registry keeps the
        # underlying counters, so lifetime totals survive the prune.
        live = self.network.boxes
        for cache in (self._m_box_in, self._m_box_out, self._m_decisions):
            for stale in [box_id for box_id in cache if box_id not in live]:
                del cache[stale]
        # Superbox compilation (repro.core.fusion).  The run map is kept
        # for the per-tuple reference path too, which runs unfused: train
        # pushing and flushing visit a run's members consecutively in
        # both modes, so they stay clock-identical tuple for tuple.
        runs = find_runs(self.network) if self.push_trains else []
        self._runs = {run[0]: run for run in runs}
        self.superboxes.rebuild(self.network, runs if self.batch_execution else [])
        hook = getattr(self.scheduler, "network_changed", None)
        if hook is not None:
            hook(self)

    def defuse(self, box_id: str | None = None) -> None:
        """Dissolve superboxes — all of them, or the one containing ``box_id``.

        The run is still *pushed* member-by-member in the fused order,
        so even the virtual clock is unaffected (see
        :meth:`FusionOverlay.defuse`).
        """
        self.superboxes.defuse(box_id)

    def fused_runs(self) -> list[list[str]]:
        """Box-id runs currently compiled into superboxes."""
        return self.superboxes.fused_runs()

    def outputs_reachable_from(self, box_id: str) -> frozenset[str]:
        """Output stream names downstream of ``box_id``."""
        cached = self._reach_cache.get(box_id)
        if cached is not None:
            return cached
        reached: set[str] = set()
        stack = [box_id]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            box = self.network.boxes[current]
            for arcs in box.output_arcs.values():
                for arc in arcs:
                    kind, ref = arc.target
                    if kind == "out":
                        reached.add(str(ref))
                    else:
                        stack.append(str(kind))
        result = frozenset(reached)
        self._reach_cache[box_id] = result
        return result

    def outputs_reachable_from_input(self, input_name: str) -> frozenset[str]:
        """Output stream names downstream of a network input."""
        cached = self._input_reach_cache.get(input_name)
        if cached is not None:
            return cached
        reached: set[str] = set()
        for arc in self.network.inputs.get(input_name, []):
            kind, ref = arc.target
            if kind == "out":
                reached.add(str(ref))
            else:
                reached |= self.outputs_reachable_from(str(kind))
        result = frozenset(reached)
        self._input_reach_cache[input_name] = result
        return result

    # -- observability handle caches ------------------------------------------

    def _counter_for(
        self, cache: dict[str, Counter], name: str, label: str, value: str
    ) -> Counter:
        handle = cache.get(value)
        if handle is None:
            handle = cache[value] = self.metrics.counter(name, **{label: value})
        return handle

    def record_shed(self, input_name: str) -> None:
        """Account one shedder drop at an input (called by the shedder)."""
        self._counter_for(
            self._m_shed, "engine.shed.dropped", "input", input_name
        ).inc()

    # -- ingestion -------------------------------------------------------------

    def push(self, input_name: str, tup: StreamTuple) -> bool:
        """Admit one tuple on a named input stream.

        The clock advances to the tuple's timestamp if that is in the
        future (sources run in real time).  Returns False if the load
        shedder dropped the tuple.
        """
        if input_name not in self.network.inputs:
            raise KeyError(f"engine network has no input {input_name!r}")
        self.clock = max(self.clock, tup.timestamp)
        if self.shedder is not None and not self.shedder.admit(self, input_name):
            return False
        self._counter_for(
            self._m_ingest, "engine.ingest.tuples", "input", input_name
        ).inc()
        if self._tracing:
            # Ingestion is authoritative: stamp a fresh context for
            # sampled tuples and clear any stale one left over from a
            # prior engine run over the same tuple objects.
            tup.trace = self.tracer.start_trace(
                f"source:{input_name}", at=tup.timestamp
            )
        for arc in self.network.inputs[input_name]:
            self._enqueue(arc, tup)
        return True

    def push_train(self, input_name: str, train: ColumnarTrain) -> int:
        """Admit a whole columnar train on a named input stream.

        The columnar fast path: the train is enqueued as ONE segment —
        no per-tuple queue traffic at all — with per-tuple enqueue
        clocks computed by a running max (bit-identical to ``push()``'s
        ``clock = max(clock, timestamp)`` chain, since max is exact
        selection).  Falls back to :meth:`push_many` whenever a barrier
        applies at ingestion: the per-tuple reference mode, a shedder attached
        (admission is per-tuple), active tracing (span stamps are
        per-tuple), input fan-out, or a connection point on the arc
        (history recording is per-tuple).
        """
        if input_name not in self.network.inputs:
            raise KeyError(f"engine network has no input {input_name!r}")
        n = len(train)
        if n == 0:
            return 0
        arcs = self.network.inputs[input_name]
        if (
            not self.columnar
            or self.shedder is not None
            or len(arcs) != 1
            or arcs[0].connection_point is not None
        ):
            return self.push_many(input_name, train.to_tuples())
        arc = arcs[0]
        clocks = running_max(self.clock, train.timestamps)
        arc.append_train(train, clocks)
        self.clock = float(clocks[-1])
        target = arc.target[0]
        if target != "out":
            target = str(target)
            self.queued_counts[target] = self.queued_counts.get(target, 0) + n
        self._counter_for(
            self._m_ingest, "engine.ingest.tuples", "input", input_name
        ).inc(n)
        return n

    def push_many(self, input_name: str, tuples: Iterable[StreamTuple]) -> int:
        """Admit a batch; returns the number of tuples admitted."""
        if isinstance(tuples, ColumnarTrain):
            return self.push_train(input_name, tuples)
        if input_name not in self.network.inputs:
            raise KeyError(f"engine network has no input {input_name!r}")
        arcs = self.network.inputs[input_name]
        if (
            self.batch_execution
            and self.shedder is None
            and len(arcs) == 1
            and arcs[0].connection_point is None
        ):
            # Fast path: same per-tuple clock/stamp semantics as push(),
            # with the arc and queue lookups hoisted out of the loop.
            arc = arcs[0]
            queue = arc.queue
            queue_times = arc.queue_times
            clock = self.clock
            admitted = 0
            tracing = self._tracing
            for tup in tuples:
                if tup.timestamp > clock:
                    clock = tup.timestamp
                if tracing:
                    tup.trace = self.tracer.start_trace(
                        f"source:{input_name}", at=tup.timestamp
                    )
                queue.append(tup)
                queue_times.append(clock)
                admitted += 1
            arc.tuples_transferred += admitted
            self.clock = clock
            if admitted:
                target = arc.target[0]
                if target != "out":
                    target = str(target)
                    self.queued_counts[target] = (
                        self.queued_counts.get(target, 0) + admitted
                    )
            self._counter_for(
                self._m_ingest, "engine.ingest.tuples", "input", input_name
            ).inc(admitted)
            return admitted
        admitted = 0
        for tup in tuples:
            if self.push(input_name, tup):
                admitted += 1
        return admitted

    def _enqueue(self, arc: Arc, tup: StreamTuple) -> None:
        if arc.push(tup):
            arc.queue_times.append(self.clock)
            target = arc.target[0]
            if target != "out":
                target = str(target)
                self.queued_counts[target] = self.queued_counts.get(target, 0) + 1

    def _drop_queued(self, box_id: str, n: int) -> None:
        """Account ``n`` tuples consumed at a box in the queued index."""
        counts = self.queued_counts
        left = counts.get(box_id, 0) - n
        if left > 0:
            counts[box_id] = left
        else:
            counts.pop(box_id, None)

    # -- execution ---------------------------------------------------------------

    def step(self) -> float:
        """One scheduling decision.  Returns virtual seconds consumed (0 if idle)."""
        consumed = self._step()
        return 0.0 if consumed is None else consumed

    def _step(self) -> float | None:
        """One scheduling decision; None when the scheduler chose no box.

        Idleness is the scheduler's verdict, never the time a step took:
        zero-cost boxes with no scheduling overhead do real work in zero
        virtual seconds.
        """
        box_id = self.scheduler.choose(self)
        if box_id is None:
            return None
        self._counter_for(
            self._m_decisions, "engine.scheduler.decisions", "box", box_id
        ).inc()
        start = self.clock
        self.clock += self.scheduling_overhead
        self._run_train(box_id)
        if self.push_trains:
            self._push_downstream(box_id)
        self.clock += self.storage.rebalance(self.network)
        self.steps += 1
        if self.shedder is not None and self.steps % 50 == 0:
            self.shedder.update(self)
        return self.clock - start

    def _run_train(self, box_id: str, limit: int | None = None) -> None:
        """Process up to ``train_size`` tuples at one box (or superbox).

        Batch execution runs the box's run of stages (its superbox, or
        the box alone) through :meth:`_run_chain`; reference mode runs
        the per-tuple :meth:`_run_train_scalar`.
        """
        budget = self.train_size if limit is None else limit
        box = self.network.boxes[box_id]
        if self.batch_execution:
            self._run_chain(self.superboxes.run_of(box), budget)
            return
        in_before = box.tuples_in
        out_before = box.tuples_out
        self._run_train_scalar(box, budget)
        n = box.tuples_in - in_before
        if n:
            self._drop_queued(box_id, n)
            self._train_obs(box_id, n, box.tuples_out - out_before)

    def _train_obs(self, box_id: str, n: int, emitted: int) -> None:
        """The per-train obs update set for one (logical) box."""
        self._counter_for(
            self._m_box_in, "engine.box.tuples_in", "box", box_id
        ).inc(n)
        if emitted:
            self._counter_for(
                self._m_box_out, "engine.box.tuples_out", "box", box_id
            ).inc(emitted)
            self._m_emitted.inc(emitted)
        self._m_tuples.inc(n)
        self._m_train_hist.observe(n)

    def _run_train_scalar(self, box: Box, budget: int) -> None:
        """The per-tuple reference path: one full engine round per tuple."""
        tracing = self._tracing
        while budget > 0:
            arc = self._oldest_input_arc(box)
            if arc is None:
                break
            port = int(arc.target[1])
            self.clock += self.storage.charge_consume(arc)
            tup = arc.queue.popleft()
            enqueued_at = arc.queue_times.popleft() if arc.queue_times else self.clock
            cost = box.operator.cost_per_tuple / self.cpu_capacity
            self.clock += cost
            box.busy_time += cost
            box.tuples_in += 1
            self.tuples_processed += 1
            if tracing and tup.trace is not None:
                # Re-stamp before process() so emissions inherit the
                # child context (derive() copies the trace field).
                tup.trace = self.tracer.span(
                    tup.trace, f"box:{box.id}",
                    start=self.clock - cost, end=self.clock,
                )
            for out_port, emitted in box.operator.process(tup, port=port):
                box.tuples_out += 1
                self._emit(box, out_port, emitted)
            box.latency_sum += self.clock - enqueued_at
            box.latency_count += 1
            budget -= 1

    def _oldest_input_arc(self, box: Box) -> Arc | None:
        """The input arc whose head tuple was enqueued earliest."""
        best: Arc | None = None
        best_time = float("inf")
        for arc in box.input_arcs.values():
            if not arc.queue:
                continue
            head_time = arc.queue_times[0] if arc.queue_times else 0.0
            if head_time < best_time:
                best, best_time = arc, head_time
        return best

    def _run_chain(self, chain: FusedChain, budget: int) -> None:
        """One train through a run of stages — a superbox, or one box.

        1. Claim at the head with the shared :func:`claim_run` rule,
           looping claims for fan-in boxes (so consumption order across
           input arcs is exactly the per-tuple path's); a queue holding
           only columnar segments is claimed as one segment train.
        2. Charge each stage once per claim (``account``): the Python
           float chain for a row train, sequential ``add.accumulate``
           chains for a columnar one — the same float operations in the
           same order, so both are bit-identical to the per-tuple path.
        3-4. :meth:`FusedChain.run` threads the claim through the stage
           kernels and runs the tail's ``process_columnar`` or
           ``process_batch`` on the claimed port.
        5. Emit the tail's output as whole batches; after the last
           claim, one obs update per box for the whole train.

        Interior arcs of a superbox see no traffic at all, while the
        clock, per-stage statistics and trace spans advance exactly as
        the unfused member-by-member train push would advance them.
        The one granularity change from the per-tuple path: a train's
        emissions are enqueued downstream with the train-end clock
        rather than per-tuple intermediate clocks (see
        docs/architecture.md).
        """
        stages = chain.stages
        head = stages[0]
        tail = stages[-1]
        tail_out = tail.tuples_out
        counts = [0] * len(stages)
        tracing = self._tracing
        capacity = self.cpu_capacity
        per_read = self.storage.read_cost
        # Per-claim state read by account(): a columnar claim's enqueue
        # clocks, or a row claim's enqueue clocks and first spilled read.
        clocks: np.ndarray | None = None
        times: list[float] = []
        first_read = 0

        def account(index: int, box: Box, batch: Batch) -> None:
            n = len(batch)
            counts[index] += n
            cost = box.operator.cost_per_tuple / capacity
            # Stage 0 measures latency from each tuple's enqueue clock;
            # interior stages are logically enqueued at the previous
            # stage's train-end clock (the stamp emission writes).
            clock = self.clock
            if clocks is not None:
                running = np.empty(n + 1, dtype=np.float64)
                running[0] = clock
                running[1:] = cost
                np.add.accumulate(running, out=running)
                running = running[1:]
                deltas = running - (clocks if index == 0 else clock)
                np.add.accumulate(deltas, out=deltas)
                box.latency_sum += float(deltas[-1])
                self.clock = float(running[-1])
            else:
                stage_times, reads = (times, first_read) if index == 0 else ([clock] * n, n)
                latency = 0.0
                if reads >= n and len(stage_times) == n and not tracing:
                    # Common case: no spilled reads, clocks in lockstep.
                    for enqueued_at in stage_times:
                        clock += cost
                        latency += clock - enqueued_at
                else:
                    timed = len(stage_times)
                    for i in range(n):
                        if i >= reads:
                            clock += per_read
                        enqueued_at = stage_times[i] if i < timed else clock
                        clock += cost
                        latency += clock - enqueued_at
                        if tracing:
                            tup = batch[i]
                            if tup.trace is not None:
                                # Same span, same clocks, as the
                                # per-tuple path records for this tuple.
                                tup.trace = self.tracer.span(
                                    tup.trace, f"box:{box.id}",
                                    start=clock - cost, end=clock,
                                )
                box.latency_sum += latency
                self.clock = clock
            box.busy_time += n * cost
            box.latency_count += n
            self.tuples_processed += n

        while budget > 0:
            arc = self._segment_arc(head, budget)
            if arc is not None:
                n = min(budget, arc.queued_tuples())
                batch, clocks = self._dequeue_segments(arc, n)
            else:
                arc, n = claim_run(head, budget, _enqueue_keys)
                if arc is None:
                    break
                # Charge storage against the pre-pop queue length: the
                # per-tuple path tests ``len(queue) <= spilled`` before
                # each popleft, so the batch charge must see the same
                # lengths.
                _io, first_read = self.storage.charge_consume_batch(arc, n)
                batch = popleft_n(arc.queue, n)
                times = popleft_n(arc.queue_times, n)
                clocks = None
            emissions, columnar = chain.run(batch, int(arc.target[1]), account)
            if columnar:
                self._emit_columnar(tail, emissions)
            else:
                self._emit_batch(tail, emissions)
            budget -= n
        if counts[0]:
            self._drop_queued(head.id, counts[0])
        last = len(stages) - 1
        for index, box in enumerate(stages):
            n = counts[index]
            if not n:
                break
            # A stage's output is exactly the next stage's input.
            out = counts[index + 1] if index < last else tail.tuples_out - tail_out
            self._train_obs(box.id, n, out)

    def _segment_arc(self, box: Box, budget: int) -> Arc | None:
        """The arc to claim ``box``'s next train from as columnar segments.

        Only a single-input box whose queue holds nothing but segments
        qualifies.  At barriers — fan-in (multi-arc claims interleave
        per tuple), a queue mixing plain tuples with segments, or
        spilled tuples inside the claim (spilled reads interleave
        per-tuple charges into the clock chain) — the segments are
        expanded in place and None is returned, so the row claim
        proceeds with identical per-tuple enqueue clocks and train
        boundaries.
        """
        input_arcs = box.input_arcs
        if len(input_arcs) == 1:
            arc = next(iter(input_arcs.values()))
            if not arc._segments:
                return None
            if arc._segments == len(arc.queue):
                queued = arc.queued_tuples()
                spilled = self.storage.spilled_on(arc)
                if not spilled or queued - spilled >= min(budget, queued):
                    return arc
            arc.materialize_segments()
            return None
        for arc in input_arcs.values():
            if arc._segments:
                arc.materialize_segments()
        return None

    def _dequeue_segments(
        self, arc: Arc, n: int
    ) -> tuple[ColumnarTrain, np.ndarray]:
        """Dequeue exactly ``n`` tuples of columnar segments from ``arc``.

        Splits the last segment at the train budget boundary (the
        unclaimed tail goes back as the new head), so claim sizes — and
        therefore step counts and the virtual clock — match the list
        path exactly.  Returns the combined train and its per-tuple
        enqueue clocks.
        """
        head = arc.pop_segment()
        count = len(head)
        if count > n:
            head, tail = head.split(n)
            arc.replace_head_segment(tail)
            return head, head.enqueue_clocks  # type: ignore[return-value]
        if count == n:
            return head, head.enqueue_clocks  # type: ignore[return-value]
        parts = [head]
        while count < n:
            seg = arc.pop_segment()
            if count + len(seg) > n:
                take, rest = seg.split(n - count)
                arc.replace_head_segment(rest)
                parts.append(take)
                count = n
            else:
                parts.append(seg)
                count += len(seg)
        train = ColumnarTrain.concat(parts)
        times = np.concatenate([p.enqueue_clocks for p in parts])
        return train, times

    def _advance_run(self, box_id: str) -> str:
        """After running ``box_id``, bring the rest of its run current.

        Returns the frontier expansion point.  A fused chain already ran
        in one pass; an unfused (or defused) run processes each member
        consecutively — the same schedule the fused pass uses, which
        keeps the two clock-identical even in fan-out topologies where
        the push frontier holds siblings.
        """
        run = self._runs.get(box_id)
        if run is None:
            return box_id
        if box_id not in self.superboxes.chains:
            boxes = self.network.boxes
            for member in run[1:]:
                if boxes[member].queued():
                    self._run_train(member)
        return run[-1]

    def _push_downstream(self, box_id: str) -> None:
        """Push a train's outputs through downstream boxes (train scheduling)."""
        frontier = deque(
            dict.fromkeys(self.network.downstream_boxes(self._advance_run(box_id)))
        )
        seen = set(frontier)
        while frontier:
            current = frontier.popleft()
            box = self.network.boxes[current]
            if box.queued() == 0:
                continue
            self._run_train(current)
            for succ in self.network.downstream_boxes(self._advance_run(current)):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)

    def _push_one(self, arc: Arc, tup: StreamTuple) -> None:
        """Hand one tuple to one arc: enqueue it, or deliver it.

        The per-tuple route, and the fallback of the batch routes on
        connection-point arcs — history recording, subscribers and
        choking are per-tuple affairs.
        """
        kind, ref = arc.target
        if kind == "out":
            if arc.push(tup):
                arc.queue.popleft()
                self._deliver(str(ref), tup)
        else:
            self._enqueue(arc, tup)

    def _emit(self, box: Box, out_port: int, tup: StreamTuple) -> None:
        for arc in box.output_arcs.get(out_port, []):
            self._push_one(arc, tup)

    def _emit_batch(self, box: Box, emissions: list[tuple[int, StreamTuple]]) -> None:
        """Route a whole train's emissions, appending per-arc lists.

        Per-port emission order is preserved (each arc is fed from a
        single source port, so per-arc queue order matches the scalar
        path).  Arcs with connection points fall back to per-tuple
        :meth:`_push_one`.
        """
        if not emissions:
            return
        groups: dict[int, list[StreamTuple]] = {}
        for out_port, tup in emissions:
            group = groups.get(out_port)
            if group is None:
                groups[out_port] = group = [tup]
            else:
                group.append(tup)
        output_arcs = box.output_arcs
        for out_port, tuples in groups.items():
            for arc in output_arcs.get(out_port, []):
                kind, ref = arc.target
                if arc.connection_point is not None:
                    for tup in tuples:
                        self._push_one(arc, tup)
                elif kind == "out":
                    arc.tuples_transferred += len(tuples)
                    self._deliver_batch(str(ref), tuples)
                else:
                    arc.queue.extend(tuples)
                    arc.tuples_transferred += len(tuples)
                    arc.queue_times.extend([self.clock] * len(tuples))
                    target = str(kind)
                    self.queued_counts[target] = (
                        self.queued_counts.get(target, 0) + len(tuples)
                    )

    def _emit_columnar(
        self, box: Box, emissions: list[tuple[int, ColumnarTrain]]
    ) -> None:
        """Route whole per-port sub-trains downstream as segments.

        The columnar twin of :meth:`_emit_batch`: each non-empty
        sub-train is appended to its arcs as ONE queue entry stamped
        with the train-end clock.  Connection-point arcs materialize
        here and take :meth:`_push_one`; delivery to applications stays
        columnar and lazy.
        """
        clock = self.clock
        output_arcs = box.output_arcs
        for out_port, train in emissions:
            n = len(train)
            if n == 0:
                continue
            for arc in output_arcs.get(out_port, []):
                kind, ref = arc.target
                if arc.connection_point is not None:
                    for tup in train.to_tuples():
                        self._push_one(arc, tup)
                elif kind == "out":
                    arc.tuples_transferred += n
                    self._deliver_train(str(ref), train)
                else:
                    # Read-only broadcast: every tuple in the segment is
                    # stamped with the same train-end clock.
                    arc.append_train(train, np.broadcast_to(clock, (n,)))
                    target = str(kind)
                    self.queued_counts[target] = (
                        self.queued_counts.get(target, 0) + n
                    )

    def _deliver_train(self, output_name: str, train: ColumnarTrain) -> None:
        """Deliver a whole columnar segment to an application output.

        The segment lands in the lazy :class:`OutputBuffer` unmaterialized;
        QoS latency samples are the vectorized ``clock - timestamp``
        column (elementwise — the same floats the per-tuple path records).
        """
        buffer = self.outputs[output_name]
        if isinstance(buffer, OutputBuffer):
            buffer.extend_train(train)
        else:
            buffer.extend(train.to_tuples())
        latencies = (self.clock - train.timestamps).tolist()
        self.qos_monitor.record_output_batch(output_name, latencies)
        self._counter_for(
            self._m_delivered, "engine.delivered.tuples", "stream", output_name
        ).inc(len(train))

    def _deliver(self, output_name: str, tup: StreamTuple) -> None:
        self.outputs[output_name].append(tup)
        self.qos_monitor.record_output(output_name, self.clock - tup.timestamp)
        self._counter_for(
            self._m_delivered, "engine.delivered.tuples", "stream", output_name
        ).inc()
        if self._tracing and tup.trace is not None:
            # Stamped with the tuple's source timestamp, not the engine
            # clock: the batched path delivers at train-end clock, so
            # only the timestamp is path-invariant.
            self.tracer.event(tup.trace, f"deliver:{output_name}", at=tup.timestamp)

    def _deliver_batch(self, output_name: str, tuples: list[StreamTuple]) -> None:
        self.outputs[output_name].extend(tuples)
        record = self.qos_monitor.record_output
        clock = self.clock
        for tup in tuples:
            record(output_name, clock - tup.timestamp)
        self._counter_for(
            self._m_delivered, "engine.delivered.tuples", "stream", output_name
        ).inc(len(tuples))
        if self._tracing:
            tracer = self.tracer
            for tup in tuples:
                if tup.trace is not None:
                    tracer.event(
                        tup.trace, f"deliver:{output_name}", at=tup.timestamp
                    )

    def drain_boxes(self, box_ids: Iterable[str], max_rounds: int = 1_000_000) -> int:
        """Synchronously run the given boxes until their queues are empty.

        The elasticity controller's quiesce step: before moving window
        state between replicas it drains the group (router first — the
        boxes run in topological order — then the replicas), so no
        in-flight tuple of a migrating key can reach its old owner after
        the ring changes.  Runs through :meth:`_run_train`, so queued
        counts, busy time and obs accounting stay exact.  Returns the
        number of tuples drained.
        """
        drained = 0
        for box_id in sorted(box_ids, key=lambda b: self.topo_position.get(b, 0)):
            self.defuse(box_id)
            box = self.network.boxes[box_id]
            for _ in range(max_rounds):
                queued = box.queued()
                if queued == 0:
                    break
                before = box.tuples_in
                self._run_train(box_id, limit=queued)
                if box.tuples_in == before:
                    raise RuntimeError(
                        f"drain of {box_id!r} stalled with {queued} tuples queued"
                    )
                drained += box.tuples_in - before
            else:
                raise RuntimeError(f"drain of {box_id!r} exceeded {max_rounds} rounds")
        return drained

    def run_until_idle(self, max_steps: int = 1_000_000) -> float:
        """Step until the scheduler finds no runnable box.  Returns time consumed."""
        start = self.clock
        for _ in range(max_steps):
            if self._step() is None:
                return self.clock - start
        raise RuntimeError(f"engine did not go idle within {max_steps} steps")

    def advance_to(self, when: float) -> None:
        """Step until the clock reaches ``when``; an idle engine jumps there."""
        while self.clock < when:
            if self._step() is None:
                self.clock = when
                return

    def flush(self) -> None:
        """End-of-stream: flush windowed boxes in topological order.

        Flush emissions are enqueued and processed like normal tuples,
        so a flushed aggregate still flows through its merge network.
        A fused run drains and flushes as one group (members back to
        back — the same schedule whether or not fusion is active), and
        flush emissions travel the same batched or scalar emit path as
        steady-state traffic, so end-of-stream accounting matches.
        """
        visited: set[str] = set()
        for box_id in self.network.topological_order():
            if box_id in visited:
                continue
            group = self._runs.get(box_id, (box_id,))
            for member in group:
                visited.add(member)
                box = self.network.boxes[member]
                # Drain anything still queued at this box first.
                while box.queued() > 0:
                    self._run_train(member, limit=box.queued())
            for member in group:
                box = self.network.boxes[member]
                emissions = box.operator.flush()
                if not emissions:
                    continue
                box.tuples_out += len(emissions)
                if self.batch_execution:
                    self._emit_batch(box, emissions)
                else:
                    for out_port, emitted in emissions:
                        self._emit(box, out_port, emitted)
        self.run_until_idle()

    # -- load signals -------------------------------------------------------------

    def queued_work(self) -> float:
        """CPU-seconds of work currently queued across all boxes."""
        total = 0.0
        for box in self.network.boxes.values():
            total += box.queued() * box.operator.cost_per_tuple
        return total / self.cpu_capacity

    def load_factor(self) -> float:
        """Queued work relative to what fits in one load window."""
        return self.queued_work() / self.load_window

    def oldest_queued_timestamp(self, box_id: str) -> float | None:
        """Source timestamp of the oldest tuple queued at ``box_id``.

        Reads the head of a columnar segment's timestamp column directly
        — QoS scheduling never forces materialization.
        """
        oldest: float | None = None
        for arc in self.network.boxes[box_id].input_arcs.values():
            if arc.queue:
                head = arc.queue[0]
                if isinstance(head, ColumnarTrain):
                    ts = float(head.timestamps[0])
                else:
                    ts = head.timestamp
                if oldest is None or ts < oldest:
                    oldest = ts
        return oldest

    def aggregate_utility(self) -> float:
        """Current importance-weighted QoS utility across outputs."""
        return self.qos_monitor.aggregate_utility()

    def __repr__(self) -> str:
        return (
            f"AuroraEngine({self.network.name!r}, clock={self.clock:.4f}, "
            f"scheduler={self.scheduler.name})"
        )


# -- backend-agnostic claim loop ---------------------------------------------
#
# Every execution backend — the virtual-time engine above, the Aurora*
# node simulation, and the real multiprocessing workers (repro.parallel)
# — consumes input arcs with the same selection rule: pick the arc whose
# head carries the smallest order key (ties to the earlier port), and
# take the maximal run of consecutive head tuples that keep winning.
# The backends differ only in what the order key *is* (the engine keys
# on enqueue clocks, the distributed planes key on source timestamps),
# so the rule lives here once, parameterized by a key view.


def _enqueue_keys(arc: Arc):
    """The engine's order keys: per-entry enqueue clocks."""
    return arc.queue_times


def popleft_n(queue: deque, n: int) -> list:
    """Dequeue the first ``n`` entries of ``queue`` (all, if fewer) as a list."""
    if n >= len(queue):
        items = list(queue)
        queue.clear()
        return items
    popleft = queue.popleft
    return [popleft() for _ in range(n)]


class timestamp_keys:
    """Sequence view of a queue's source timestamps, for :func:`claim_run`.

    Used by the backends that order claims by tuple timestamp rather
    than enqueue clock (Aurora* nodes, parallel workers).
    """

    __slots__ = ("_queue",)

    def __init__(self, arc: Arc):
        self._queue = arc.queue

    def __len__(self) -> int:
        return len(self._queue)

    def __getitem__(self, index: int) -> float:
        return self._queue[index].timestamp

    def __iter__(self):
        for tup in self._queue:
            yield tup.timestamp


def claim_run(
    box: Box, budget: int, keys_of: "Callable[[Arc], Any]"
) -> tuple[Arc | None, int]:
    """The input arc a per-tuple loop would consume from next, and how
    many consecutive head tuples it would take before switching arcs
    (capped by ``budget``).

    ``keys_of(arc)`` returns a sequence of per-entry order keys aligned
    with ``arc.queue``; it may be shorter than the queue (entries
    without keys are treated as infinitely old, so the arc keeps
    winning).  Selection rule: the first arc (in port order) whose head
    key is strictly smaller than any earlier arc's and no larger than
    any later arc's.
    """
    arcs = [arc for arc in box.input_arcs.values() if arc.queue]
    if not arcs:
        return None, 0
    if len(arcs) == 1:
        arc = arcs[0]
        return arc, min(budget, len(arc.queue))
    best = None
    best_key = float("inf")
    best_index = 0
    heads = []
    for index, arc in enumerate(arcs):
        keys = keys_of(arc)
        head = keys[0] if len(keys) else 0.0
        heads.append(head)
        if head < best_key:
            best, best_key, best_index = arc, head, index
    # How long `best` keeps winning: its next head must stay strictly
    # below every earlier arc's head and at or below every later one's
    # (ties go to the earlier arc in port order).
    min_before = min(heads[:best_index], default=float("inf"))
    min_after = min(heads[best_index + 1:], default=float("inf"))
    limit = min(budget, len(best.queue))
    n = 0
    for key in islice(keys_of(best), limit):
        if key < min_before and key <= min_after:
            n += 1
        else:
            break
    if n == 0:
        # No order keys at all (tuples enqueued outside the engine):
        # the per-tuple path treats the head as infinitely old, so this
        # arc keeps winning for the whole run.
        n = limit
    return best, n
