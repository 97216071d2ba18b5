"""Open-loop load generator, host calibration probe and the estimators.

Host noise shapes every estimator here.  On a shared 2-vCPU host the
machine's own speed drifts between runs and the host steals the virtual
CPU in bursts, so each pass's times are scaled by calibration probes
timed in its idle gaps.  The probe is
plain Python, dict building and a numpy accumulate, with nothing from
``repro``, so a change to the program cannot move it.  Raw numbers are
kept beside calibrated ones.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from layers import NULL_SPANS

_PROBE_ARRAY = np.arange(30000, dtype=np.float64) * 0.5


def probe() -> float:
    """One calibration probe; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for k in range(5000):
        acc = (acc * 31 + k) & 0xFFFFFFF
    # Int values only: the probe allocates one GC-tracked object, so how
    # many probes fit in the gaps cannot shift the program's GC schedule.
    table = {}
    for k in range(2500):
        table[k] = k ^ acc
    np.add.accumulate(_PROBE_ARRAY)
    return time.perf_counter() - start


def probe_median(n: int = 5) -> float:
    """Median wall time of ``n`` back-to-back probes."""
    return statistics.median(probe() for _ in range(n))


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def iqr_ratio(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """Everything one open-loop pass over a batch schedule recorded."""

    batches: list[int]
    round_batches: int
    period: float
    #: the probe's wall time on the reference host (``probe_ref_ms``)
    ref_s: float
    busy: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    tuples: list[int] = field(default_factory=list)
    delivered: int = 0
    expected: int = 0
    #: (index of the batch the probe preceded, probe wall seconds)
    probes: list[tuple[int, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return (len(self.batches) + self.round_batches - 1) // self.round_batches

    def calibrated(self, times: list[float]) -> list[float]:
        """``times`` in reference-host seconds.

        One factor per pass: ``ref_s`` over the median of every probe of
        the pass.  The host's speed drifts between runs minutes apart,
        which this cancels.  A local factor (the median probe of the
        quarter second around a batch) was tried and dropped: in a steal
        episode most nearby probes are stretched too, and the factor
        inflated a round's capacity fourfold.
        """
        factor = self.ref_s / statistics.median(s for _k, s in self.probes)
        return [t * factor for t in times]

    def steal_free(self) -> list[float]:
        """Each batch's wall busy time with the host's steal taken out.

        The host preempts this virtual CPU in 10-40 ms bursts (steal
        time) that land on random batches: a batch whose thread ran 5 ms
        took 17-36 ms of wall time.  The thread's CPU clock leaves them
        out, but it is not a wall clock: the guest's steal accounting
        also takes time off it that the thread did run, over whole runs
        (a CPU share of 0.57 with normal wall times) or in episodes.  So
        a batch is charged its CPU time over the run's median CPU share,
        capped at its wall time.  Only meaningful when the benchmark
        thread does all of the batch's work.
        """
        share = statistics.median(c / b for c, b in zip(self.cpu, self.busy))
        return [min(b, c / share) for b, c in zip(self.busy, self.cpu)]

    def round_capacity(self, service: list[float]) -> list[float]:
        """Tuples per second of ``service`` time for each round."""
        caps = []
        for r in range(self.n_rounds):
            lo, hi = r * self.round_batches, (r + 1) * self.round_batches
            caps.append(sum(self.tuples[lo:hi]) / sum(service[lo:hi]))
        return caps

    def replay_latency(self, service: list[float]) -> list[float]:
        """Open-loop latency of each batch from the schedule and ``service``.

        ``finish[k] = max(due[k], finish[k-1]) + service[k]``: a slow
        batch still charges every batch queued behind it.
        """
        out, finish = [], float("-inf")
        for k, s in enumerate(service):
            due = k * self.period
            finish = max(due, finish) + s
            out.append(finish - due)
        return out


def drive(workload, system, batches: list[int], round_batches: int, ref_s: float,
          spans=NULL_SPANS, lead_s: float = 0.05) -> Pass:
    """Run ``batches`` open loop: batch ``k`` is due ``k`` periods after
    the start whether or not earlier batches finished.

    Each batch is timed from its due time to the moment its outputs
    are handed back.  The probe runs only in an idle gap long enough to
    hold it three times over, so it never delays a due batch.  Output
    checks run after the batch's clock stops.
    """
    period = workload.period
    run = Pass(batches=list(batches), round_batches=round_batches, period=period,
               ref_s=ref_s)
    # Frozen: the generated inputs and reference stay out of the
    # program's garbage collections during the pass.
    gc.collect()
    gc.freeze()
    try:
        recent = [probe() for _ in range(3)]
        run.probes.extend((0, s) for s in recent)
        start_at = time.perf_counter() + lead_s
        for k, i in enumerate(run.batches):
            due = start_at + k * period
            now = time.perf_counter()
            # A recent median, so one slow probe cannot stop the probing.
            if due - now > 3.0 * statistics.median(recent[-5:]) + 0.001:
                recent.append(probe())
                run.probes.append((k, recent[-1]))
                now = time.perf_counter()
            if due - now > 0.001:
                time.sleep(due - now - 0.0008)
            while time.perf_counter() < due:
                pass
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                raw = workload.step(system, i, spans)
                failed = False
            except Exception:  # a raising batch is a failed batch
                raw, failed = None, True
                if len(run.errors) < 3:
                    run.errors.append(traceback.format_exc())
            c1 = time.thread_time()
            t1 = time.perf_counter()
            run.busy.append(t1 - t0)
            run.cpu.append(c1 - c0)
            run.latency.append(t1 - due)
            run.lag.append(t0 - due)
            run.tuples.append(workload.tuples_in(i))
            run.expected += workload.expected_outputs(i)
            if failed:
                run.ok.append(False)
                continue
            try:
                ok, delivered = workload.check(i, raw)
            except Exception:  # malformed outputs are wrong outputs
                ok, delivered = False, 0
                if len(run.errors) < 3:
                    run.errors.append(traceback.format_exc())
            run.ok.append(ok)
            run.delivered += delivered
        for _ in range(3):
            run.probes.append((len(run.batches) - 1, probe()))
    finally:
        gc.unfreeze()
    return run


def timed_setup(workload, repeats: int, ref_s: float) -> tuple[Any, list[float], list[float], bool]:
    """Build the system and push the warm-up batch ``repeats`` times.

    Set-up is everything before the first measured batch: building the
    network, constructing the engine (or spawning workers and finishing
    the handshake) and pushing batch 0 end to end, which fills lazy
    fusion and column-expression set-up.  Each repetition is scaled by
    probes taken right before it.  The last system is kept for the run.
    Returns (system, raw seconds, calibrated seconds, warm-up correct).
    """
    raw, calibrated = [], []
    correct = True
    system = None
    for k in range(repeats):
        if system is not None:
            workload.close(system)
        gc.collect()
        probe_s = probe_median(5)
        t0 = time.perf_counter()
        system = workload.open()
        out = workload.step(system, 0)
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        calibrated.append((t1 - t0) * ref_s / probe_s)
        correct &= workload.check(0, out)[0]
    return system, raw, calibrated, correct
