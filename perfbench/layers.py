"""Layer timing from outside the program, for the traced run.

Two mechanisms, both living in the benchmark's own files:

* :class:`SpanRecorder` records a span (name, start, end, parent, batch)
  around each public boundary the benchmark calls: ``push``/``push_many``/
  ``push_train``, ``run_until_idle``, output read-back, and
  ``StreamTuple``/``ColumnarTrain`` construction.  :data:`NULL_SPANS`
  is the untraced stand-in, so both runs execute the same benchmark code.
* :class:`LayerTimer` accumulators wrap the engine parts that are
  constructor-injected (scheduler, storage manager, load shedder) and
  the engine's ``qos_monitor`` instance.  Their calls happen inside the
  ``push``/``run`` spans, so a span's self time is its duration minus
  what these children accumulated while it was open.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns
from typing import Any


class SpanRecorder:
    """In-memory span list; written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, name: str, batch: int) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent, batch])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def totals(self) -> dict[str, int]:
        """Total nanoseconds per span name."""
        out: dict[str, int] = {}
        for name, start, end, _parent, _batch in self.spans:
            out[name] = out.get(name, 0) + (end - start)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "batch"],
                 "spans": self.spans},
                fh,
            )


class _NullSpans:
    def open(self, name: str, batch: int) -> None:
        pass

    def close(self) -> None:
        pass


NULL_SPANS = _NullSpans()


class LayerTimer:
    """Wall-clock nanoseconds and call count for one wrapped method."""

    __slots__ = ("ns", "calls")

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0


class LayerTimers:
    """Accumulators for every injected part, keyed ``part.method``."""

    def __init__(self) -> None:
        self.timers: dict[str, LayerTimer] = {}

    def wrap(self, obj: Any, method: str, key: str) -> None:
        """Replace ``obj.method`` on the instance with a timing wrapper."""
        timer = self.timers.setdefault(key, LayerTimer())
        inner = getattr(obj, method)

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter_ns()
            try:
                return inner(*args, **kwargs)
            finally:
                timer.ns += perf_counter_ns() - start
                timer.calls += 1

        setattr(obj, method, timed)

    def ns(self, key: str) -> int:
        timer = self.timers.get(key)
        return timer.ns if timer else 0

    def calls(self, key: str) -> int:
        timer = self.timers.get(key)
        return timer.calls if timer else 0

    def instrument_engine_parts(self, scheduler, storage, shedder) -> None:
        """Wrap the constructor-injected parts before the engine is built."""
        self.wrap(scheduler, "choose", "scheduler.choose")
        self.wrap(storage, "rebalance", "storage.rebalance")
        if shedder is not None:
            self.wrap(shedder, "admit", "shedder.admit")
            self.wrap(shedder, "update", "shedder.update")

    def instrument_engine(self, engine) -> None:
        """Instance-wrap the engine's QoS monitor (built by the engine)."""
        self.wrap(engine.qos_monitor, "record_output", "qos.record")
        self.wrap(engine.qos_monitor, "record_output_batch", "qos.record")
