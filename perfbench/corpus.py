"""Workload ``corpus``: all eleven ``EXPERIMENTS`` runners at default scale,
in registry order in one process, as the acceptance gate runs them. One op
is one check, as counted in ``ExperimentResult.checks``.

Why: thousands of digraphs with at most twelve vertices plus the exhaustive
scans, so per-call overhead, generation and ``flatten``'s cache decide the
cost. A change that speeds up big digraphs at the cost of tiny ones shows
up here as a loss.

A pass runs every runner once with one seed: the workload seed for the first
pass, derived seeds after it. A run makes at least ``MIN_PASSES`` whole
passes, and starts another while its time is not yet up: the establishment
runner's search cost depends on the seed, so each run averages two seeds.
Checks are not timed one by one, and the runners differ too much in size for
their times to make a percentile, so latency is the wall time of a pass:
what one run of the acceptance corpora makes its user wait.
"""

from __future__ import annotations

import time
from typing import Any

from .loop import Timed, peak_rss_mb

# Floors the acceptance gate demands at default scale, per runner.
FLOORS: dict[str, Any] = {
    "king-characterization": lambda r: r.instances >= 2000
    and r.checks >= 10 * r.instances
    and r.elapsed_s < 60.0,
    "three-king-count": lambda r: r.instances >= 2000,
    "nonking-witness": lambda r: r.info["instances_with_non_kings"] >= 50 and r.checks >= 50,
    "establishment": lambda r: r.instances >= 50 and r.info["exhaustive_tournament_hits"] >= 1,
    "four-king-bound": lambda r: r.instances >= 2000 and "no_three_king_instances" in r.info,
    "quasi-kernel": lambda r: r.instances >= 5000,
    "disjoint-quasi-kernels": lambda r: r.instances >= 1000
    and r.info["exhaustive_sink_free_digraphs"] >= 1
    and r.checks >= r.instances + 1000,
    "kkernel-poly": lambda r: r.instances >= 500
    and r.checks >= 3 * r.instances
    and r.info["poly_elapsed_s"] < 5.0,
    "kkernel-reduction": lambda r: r.instances >= 200
    and r.info["digraphs_with_3kernel"] >= 1
    and r.info["digraphs_without_3kernel"] >= 1,
    "absorbent-transfer": lambda r: r.instances >= 500 and r.checks >= 3 * r.instances,
    "fixture-regression": lambda r: r.checks == 4,
}
SMALL_INSTANCES = 4
MIN_PASSES = 2


class Corpus:
    name = "corpus"

    def __init__(self, kk: Any, seed: int, small: bool = False) -> None:
        self.kk = kk
        self.seed = seed
        self.instances = SMALL_INSTANCES if small else None
        self.results: list[tuple[str, float, Any]] = []
        self.traced: dict[str, float] = {}

    def build(self, workdir: Any) -> None:
        """The runners generate their own corpora; set-up is the import."""

    def _pass(self, seed: int, tracer: Any = None) -> list[tuple[str, float, Any]]:
        done = []
        for name, runner in self.kk.experiments.EXPERIMENTS.items():
            start = time.perf_counter()
            if tracer is None:
                result = runner(seed=seed, instances=self.instances)
            else:
                with tracer.span(f"experiments.{name}"):
                    result = runner(seed=seed, instances=self.instances)
            done.append((name, time.perf_counter() - start, result))
        return done

    def measure(self, seconds: float, tracer: Any) -> Timed:
        if tracer is not None:
            start = time.perf_counter()
            self._pass(self.seed)
            untraced = time.perf_counter() - start
            tracer.install()
            try:
                start = time.perf_counter()
                self.results = self._pass(self.seed, tracer)
                elapsed = time.perf_counter() - start
            finally:
                tracer.uninstall()
            for name, _, result in self.results:
                self.traced[f"experiments.{name}_checks"] = result.checks
            return Timed(
                attempted=sum(r.checks for _, _, r in self.results),
                elapsed_s=elapsed,
                latencies_s=[elapsed],
                reference_untraced_s=untraced,
                reference_traced_s=elapsed,
            )
        start = time.perf_counter()
        passes: list[float] = []
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            seed = self.seed if not passes else self.kk.gen.derive(self.seed, 5, len(passes))
            began = time.perf_counter()
            self.results.extend(self._pass(seed))
            passes.append(time.perf_counter() - began)
            if len(passes) == 1:
                rss = peak_rss_mb()
        return Timed(
            attempted=sum(r.checks for _, _, r in self.results),
            elapsed_s=time.perf_counter() - start,
            latencies_s=passes,
            rss_mb=rss,
        )

    def check(self) -> list[tuple[int, str]]:
        """(failed checks, message) per runner result that is wrong."""
        failures = []
        for name, _, result in self.results:
            if result.violations:
                failures.append(
                    (result.violations, f"{name}: {result.violations} violations: {result.failures[:1]}")
                )
            if self.instances is None and not FLOORS[name](result):
                failures.append((1, f"{name}: below the acceptance floor ({result.info})"))
        return failures

    def layer_metrics(self) -> dict[str, float]:
        return dict(self.traced)
