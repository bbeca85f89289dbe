"""Workload ``library-decide``: one op is one public composition-level
library call on a large composition, never flattening or parsing.

Why: this is the paper's fast route. Outer-digraph eccentricities dominate
each call, so a change to the BFS core shows here, while a change to
``flatten`` or ``fileformat`` alone should not move it.

The calls are ``composition_has_k_king`` and ``composition_all_k_kings`` for
k = 2..6, ``classify_three_kings`` and ``can_establish(c.outer)``. The
library keeps no cache for these calls, so instances are reused and the op
schedule repeats. Within one round every instance gets one call, and the
call rotates from round to round; runs stop at round boundaries.

Answers are checked against flat eccentricities: BFS on the flattened
digraph where the rung is small enough to afford it, and the
lexicographic-product distance formula everywhere (the two are compared
with each other on the affordable rungs).
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from . import reference
from .reference import expect

KS = (2, 3, 4, 5, 6)
CALLS: tuple[tuple[str, int | None], ...] = (
    *(("composition_has_k_king", k) for k in KS),
    *(("composition_all_k_kings", k) for k in KS),
    ("classify_three_kings", None),
    ("can_establish", None),
)
# classify_three_kings and can_establish need a strong semicomplete outer;
# the Erdos-Renyi rungs get a 3-king decision in their place
ERDOS_RENYI_STANDIN = {
    "classify_three_kings": ("composition_has_k_king", 3),
    "can_establish": ("composition_all_k_kings", 3),
}
KINDS = ("tournament", "semicomplete", "erdos-renyi")
TS = (100, 150, 200, 250)
SMALL_TS = (12, 16, 20, 24)
FACTOR_SIZES = (1, 3)
COMPOSITION_ROUTE_REPEATS = 3


class LibraryDecide:
    name = "library-decide"
    pool_size = 10**9

    def __init__(self, kk: Any, seed: int, small: bool = False) -> None:
        self.kk = kk
        self.seed = seed
        self.ts = SMALL_TS if small else TS
        self.flat_check_max_t = self.ts[-2]
        self.rungs = [(kind, t) for t in self.ts for kind in KINDS]
        self.schedule = [
            (inst, self._call_for(inst, CALLS[(r + inst) % len(CALLS)]))
            for r in range(len(CALLS))
            for inst in range(len(self.rungs))
        ]
        self.period = len(self.schedule)
        self.unit = self.reference_ops = len(self.rungs)
        self.instances: list[Any] = []
        self.results: list[tuple[int, Any]] = []
        self.route_failures: list[str] = []
        self.tracer = None

    def _call_for(self, inst: int, call: tuple[str, int | None]) -> tuple[str, int | None]:
        if self.rungs[inst][0] == "erdos-renyi":
            return ERDOS_RENYI_STANDIN.get(call[0], call)
        return call

    def build(self, workdir: Any) -> None:
        gen = self.kk.gen
        self.instances = []
        for idx, (kind, t) in enumerate(self.rungs):
            constraints = (
                frozenset() if kind == "erdos-renyi" else frozenset({gen.Constraint.STRONG_OUTER})
            )
            spec = gen.GenSpec(
                seed=gen.derive(self.seed, 4, idx),
                kind=gen.Kind[kind.upper().replace("-", "_")],
                t=t,
                size_min=FACTOR_SIZES[0],
                size_max=FACTOR_SIZES[1],
                p=0.5,
                constraints=constraints,
            )
            self.instances.append(gen.generate(spec))

    def _call(self, inst: int, call: tuple[str, int | None]) -> Any:
        c = self.instances[inst]
        fn = getattr(self.kk.kings, call[0])
        if call[0] == "can_establish":
            return fn(c.outer)
        if call[1] is None:
            return fn(c)
        return fn(c, call[1])

    def run_op(self, i: int) -> None:
        slot = i % self.period
        try:
            result = self._call(*self.schedule[slot])
        except Exception as exc:  # a raising call is a failed op
            result = exc
        self.results.append((slot, result))

    # checks -----------------------------------------------------------------

    def check(self) -> list[tuple[int, str]]:
        failures = list(self.route_failures)
        reference_eccs = {}
        for inst, (kind, t) in enumerate(self.rungs):
            c = self.instances[inst]
            eccs = reference.composition_eccentricities(c)
            if t <= self.flat_check_max_t:
                flat = reference.eccentricities(self.kk.composition.flatten(c))
                if flat != eccs:
                    failures.append((1, f"{kind} t={t}: distance formula disagrees with flat BFS"))
                    eccs = flat
            reference_eccs[inst] = eccs
        for slot, result in self.results:
            inst, call = self.schedule[slot]
            try:
                if isinstance(result, Exception):
                    raise result
                self._check_one(self.instances[inst], reference_eccs[inst], call, result)
            except Exception as exc:
                kind, t = self.rungs[inst]
                failures.append((1, f"{call} on {kind} t={t}: {type(exc).__name__}: {exc}"))
        return failures

    def _check_one(self, c: Any, eccs: list[float], call: tuple[str, int | None], result: Any) -> None:
        name, k = call
        blocks = reference.factor_blocks(c)
        if name == "composition_has_k_king":
            expect(result.exists == any(e <= k for e in eccs), "existence")
            if result.exists:
                expect(any(eccs[x] <= k for x in blocks[result.witness_factor]), "witness factor")
        elif name == "composition_all_k_kings":
            expect(result == all(e <= k for e in eccs), "answer")
        elif name == "classify_three_kings":
            for i, block in enumerate(blocks):
                inside = {eccs[x] <= 3 for x in block}
                expect(len(inside) == 1, f"factor {i} is not all-or-nothing")
                expect((result.flags[i].value == "ALL") == inside.pop(), f"factor {i} flag")
        elif name == "can_establish":
            outer = reference.eccentricities(c.outer)
            strict = {v for v, e in enumerate(outer) if e == 3}
            two = {v for v, e in enumerate(outer) if e <= 2}
            in_nbrs: dict[int, set[int]] = {v: set() for v in range(c.t)}
            for u, v in c.outer.arcs():
                in_nbrs[v].add(u)
            blocking = {v for v in two if not in_nbrs[v] & strict}
            expect(result.strict_three_kings == strict, "strict 3-kings")
            expect(result.two_kings == two, "2-kings")
            expect(result.blocking_two_kings == blocking, "blocking 2-kings")
            expect(result.ok == (bool(strict) and not blocking), "eligibility")

    # traced extras ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Outer-BFS probe per instance, and the flat route timed beside the
        composition route on the affordable rungs, as a ratio per rung."""
        kk = self.kk
        out: dict[str, float] = {}
        probe = 0.0
        for c in self.instances:
            start = time.perf_counter()
            kk.digraph.out_eccentricities(c.outer)
            probe += time.perf_counter() - start
        out["digraph.outer_ecc_s"] = probe
        for t in self.ts:
            if t > self.flat_check_max_t:
                continue
            flat_s = composition_s = 0.0
            for inst, (_, rung_t) in enumerate(self.rungs):
                if rung_t != t:
                    continue
                c = self.instances[inst]
                runs = []
                for _ in range(COMPOSITION_ROUTE_REPEATS):
                    start = time.perf_counter()
                    decided = kk.kings.composition_has_k_king(c, 3).exists
                    runs.append(time.perf_counter() - start)
                composition_s += statistics.median(runs)
                start = time.perf_counter()
                flat_kings = kk.kings.k_kings(kk.composition.flatten(c), 3).kings
                flat_s += time.perf_counter() - start
                if bool(flat_kings) != decided:
                    self.route_failures.append((1, f"t={t}: flat and composition routes disagree"))
            out[f"route.flat_over_composition.t{t}"] = flat_s / composition_s
        return out
