"""Closed-loop runner shared by the per-op workloads, and the summary
statistics every workload reports.

One client sends op ``i + 1`` only after op ``i`` has returned. Ops are
numbered; a workload maps the number to a fixed shape (which request, which
input size) with period ``period``, so that op ``i`` and op ``i + period``
do the same kind of work on different or identical inputs. A run stops at
the first multiple of the workload's ``unit`` ops after its time is up, so
that every run's sample holds the same mix of shapes.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Timed:
    """What the timed phase of one run did."""

    attempted: int
    elapsed_s: float
    latencies_s: list[float] = field(default_factory=list)
    # peak resident memory after the first period of ops (or the first
    # pass), so that it does not grow with the number of ops a run fits in
    rss_mb: float = 0.0
    # traced runs: wall time of the reference ops, untraced and traced
    reference_untraced_s: float | None = None
    reference_traced_s: float | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(
    run_op: Callable[[int], None],
    first: int,
    seconds: float,
    limit: int,
    period: int = 0,
    unit: int = 1,
) -> tuple[list[float], float]:
    """Run ops ``first, first + 1, ...`` until ``seconds`` have passed and a
    whole number of ``unit`` ops has run, or ``limit`` ops have run. Return
    each op's latency in seconds and the peak RSS once ``period`` ops (or
    all, if fewer) have run."""
    latencies: list[float] = []
    rss = 0.0
    start = time.perf_counter()
    while len(latencies) < limit:
        t0 = time.perf_counter()
        run_op(first + len(latencies))
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if len(latencies) == period:
            rss = peak_rss_mb()
        if t1 - start >= seconds and len(latencies) % unit == 0:
            break
    return latencies, rss or peak_rss_mb()


def measure_ops(workload, seconds: float, tracer) -> Timed:
    """Timed phase of a per-op workload.

    Untraced runs start at op 0. A traced run first runs the workload's
    reference ops untraced, then installs the tracer and starts at op
    ``period``, so its first ops repeat the reference shapes and the
    difference in wall time is the tracing overhead.
    """
    if tracer is None:
        start = time.perf_counter()
        lat, rss = closed_loop(
            workload.run_op, 0, seconds, workload.pool_size, workload.period, workload.unit
        )
        return Timed(len(lat), time.perf_counter() - start, lat, rss_mb=rss)
    ref = workload.reference_ops
    untraced, _ = closed_loop(workload.run_op, 0, float("inf"), ref)
    workload.tracer = tracer
    tracer.install()
    try:
        start = time.perf_counter()
        lat, rss = closed_loop(
            workload.run_op,
            workload.period,
            seconds,
            workload.pool_size - workload.period,
            unit=workload.unit,
        )
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
        workload.tracer = None
    return Timed(
        len(lat),
        elapsed,
        lat,
        rss_mb=rss,
        reference_untraced_s=sum(untraced),
        reference_traced_s=sum(lat[:ref]) if len(lat) >= ref else None,
    )


def percentile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between ranks."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
