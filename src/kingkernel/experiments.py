"""Corpus experiments validating the library's guaranteed properties.

Each runner generates a seeded corpus, checks one guarantee on every
instance, and reports how many checks ran and how many failed. A nonzero
violation count means a guaranteed property failed on a concrete instance,
which is the strongest bug signal this package can produce; the first few
offending instances are kept in the result for reproduction.

Every runner is an `Experiment`: a body decorated with `_experiment(name,
default_instances)`. The harness owns the shared plumbing. It builds the
empty `ExperimentResult` under the experiment's name, substitutes the
default instance count when `instances` is None, and times the whole body
into `elapsed_s`. The body only generates instances, counts checks and
records failures. `EXPERIMENTS` maps each name to its runner, in the order
the acceptance gate runs them.

Checks are dual-route on purpose: the operation under test is compared
against a direct recomputation on the flattened digraph (eccentricities,
fresh BFS runs, subset enumeration), never against itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .composition import Composition, compose, flatten
from .digraph import (
    Digraph,
    build_digraph,
    classify_digraph,
    distances_from,
    distances_to,
    induced_subdigraph,
    is_strong,
    out_eccentricities,
)
from .errors import GenerationError, PreconditionError, TheoremViolation
from .fileformat import _to_json
from .gen import (
    Constraint,
    GenSpec,
    Kind,
    SplitMix64,
    all_semicomplete_digraphs,
    all_tournaments,
    derive,
    generate,
    random_composition,
    random_digraph,
    unique_three_king_fixture,
)
from .kernels import (
    c3_gadget,
    composition_k_kernel,
    disjoint_quasi_kernels,
    k_kernel_brute_force,
    quasi_kernel,
    singleton_quasi_kernels,
    validate_certificate,
)
from .kings import (
    can_establish,
    classified_flat_three_kings,
    classify_three_kings,
    composition_all_k_kings,
    composition_has_k_king,
    establish,
    four_king_bound_report,
    k_kings,
    non_king_dominator_witness,
)

DEFAULT_SEED = 20260817
MAX_KEPT_FAILURES = 5


@dataclass
class ExperimentResult:
    name: str
    instances: int
    checks: int
    violations: int
    failures: list[dict[str, Any]] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def record(self, detail: str, instance: Any = None) -> None:
        self.violations += 1
        if len(self.failures) < MAX_KEPT_FAILURES:
            entry: dict[str, Any] = {"detail": detail}
            if instance is not None:
                # keyed "digraph" or "composition" by the instance's type
                entry[type(instance).__name__.lower()] = _to_json(instance)
            self.failures.append(entry)

    def to_json(self) -> dict[str, Any]:
        return {**_to_json(self), "elapsed_s": round(self.elapsed_s, 3)}


Body = Callable[[ExperimentResult, int, int], None]


@dataclass(frozen=True)
class Experiment:
    """A named corpus runner with the common call signature (seed,
    instances); `body` fills in the result that the call builds and times."""

    name: str
    default_instances: int
    body: Body

    def __call__(
        self,
        seed: int = DEFAULT_SEED,
        instances: int | None = None,
    ) -> ExperimentResult:
        res = ExperimentResult(self.name, 0, 0, 0)
        start = time.perf_counter()
        if instances is None:
            instances = self.default_instances
        self.body(res, seed, instances)
        res.elapsed_s = time.perf_counter() - start
        return res


def _experiment(name: str, default_instances: int) -> Callable[[Body], Experiment]:
    return lambda body: Experiment(name, default_instances, body)


def path_like_tournament(n: int) -> Digraph:
    """Strong tournament with arcs i -> i+1 and j -> i for j >= i+2. Vertex 0
    reaches vertex j only along the forward path, so d(0, j) = j and the
    tournament has eccentricity-(n-1) vertices; for n >= 5 that makes factor
    0 of any composition over it a source of non-kings."""
    arcs = [(i, i + 1) for i in range(n - 1)]
    arcs += [(j, i) for i in range(n) for j in range(i + 2, n)]
    return build_digraph(n, arcs)


def _corpus_composition(
    seed: int,
    idx: int,
    kinds: tuple[Kind, ...],
    t_lo: int = 2,
    min_total: int | None = None,
    constraints: frozenset[Constraint] = frozenset(),
) -> Composition:
    """One deterministic corpus instance: outer kind cycles with idx, the
    rest is drawn from streams derived from (seed, idx). The outer has t_lo
    to 5 vertices, each factor 1 to 3, and the flattening at most 12."""
    meta = SplitMix64(derive(seed, idx))
    t = meta.randint(t_lo, 5)
    p = (0.2, 0.5, 0.8)[meta.randint(0, 2)]
    kind = kinds[idx % len(kinds)]
    # a 2-vertex tournament has a sink, a source, and is not strong, so
    # every outer constraint is unsatisfiable at t = 2 for that kind
    if kind is Kind.TOURNAMENT and constraints and t == 2:
        t = 3
    for attempt in range(1000):
        spec = GenSpec(
            seed=derive(seed, idx, attempt),
            kind=kind,
            t=t,
            size_min=1,
            size_max=3,
            p=p,
            p2=0.3,
            constraints=constraints,
        )
        c = random_composition(spec)
        total = c.total_vertices
        if total <= 12 and (min_total is None or total >= min_total):
            return c
    raise GenerationError(
        f"no corpus instance within the size window for seed={seed} idx={idx}"
    )


_MIXED_KINDS = (Kind.TOURNAMENT, Kind.SEMICOMPLETE, Kind.ERDOS_RENYI)
_SEMI_KINDS = (Kind.TOURNAMENT, Kind.SEMICOMPLETE)


@_experiment("king-characterization", 2000)
def king_characterization(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """Composition-level k-king decisions versus brute-force kings of the
    flattened digraph, for k in 2..6, on mixed outer kinds."""
    for idx in range(instances):
        c = _corpus_composition(seed, idx, _MIXED_KINDS)
        res.instances += 1
        eccs = out_eccentricities(flatten(c))
        for k in range(2, 7):
            witness = composition_has_k_king(c, k)
            brute_exists = any(e <= k for e in eccs)
            res.checks += 1
            if witness.exists != brute_exists:
                res.record(
                    f"existence mismatch at k={k}: characterization says "
                    f"{witness.exists}, brute force says {brute_exists}",
                    c,
                )
            elif witness.exists and witness.witness_factor is None:
                res.record(f"missing witness factor at k={k}", c)
            res.checks += 1
            if composition_all_k_kings(c, k) != all(e <= k for e in eccs):
                res.record(f"all-vertices mismatch at k={k}", c)


@_experiment("three-king-count", 2000)
def three_king_count(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """Strong semicomplete compositions: at least two 3-kings, and the
    factor classification matches the brute-force 3-king set vertex by
    vertex."""
    strong = frozenset({Constraint.STRONG_OUTER})
    for idx in range(instances):
        c = _corpus_composition(seed, idx, _SEMI_KINDS, constraints=strong)
        res.instances += 1
        classification = classify_three_kings(c)
        claimed = classified_flat_three_kings(c, classification)
        direct = k_kings(flatten(c), 3).kings
        res.checks += 2
        if claimed != direct:
            res.record("classification disagrees with brute-force 3-kings", c)
        if len(direct) < 2:
            res.record(f"only {len(direct)} 3-kings in a strong composition", c)


@_experiment("nonking-witness", 400)
def nonking_witness(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """Every non-king of a strong semicomplete composition is dominated by a
    3-king at distance more than 3. Half the corpus uses path-like outer
    tournaments, which are guaranteed to produce non-kings."""
    with_non_kings = 0
    for idx in range(instances):
        if idx % 2 == 0:
            meta = SplitMix64(derive(seed, idx))
            outer = path_like_tournament(meta.randint(5, 7))
            factors = tuple(
                random_digraph(
                    meta.randint(1, 2), derive(seed, idx, 2 + i), 0.5
                )
                for i in range(outer.n)
            )
            c = compose(outer, factors)
        else:
            c = _corpus_composition(
                seed,
                idx,
                _SEMI_KINDS,
                constraints=frozenset({Constraint.STRONG_OUTER}),
            )
        res.instances += 1
        q = flatten(c)
        eccs = out_eccentricities(q)
        non = [v for v, e in enumerate(eccs) if e > 3]
        if non:
            with_non_kings += 1
        for u in non:
            res.checks += 1
            try:
                v = non_king_dominator_witness(c, u)
            except (PreconditionError, TheoremViolation) as exc:
                res.record(f"witness lookup failed for {u}: {exc}", c)
                continue
            if eccs[v] > 3:
                res.record(f"witness {v} for {u} is not a 3-king", c)
            elif not q.has_arc(v, u):
                res.record(f"witness {v} does not dominate {u}", c)
            elif distances_from(q, u)[v] <= 3:
                res.record(f"witness {v} is within distance 3 of {u}", c)
    res.info["instances_with_non_kings"] = with_non_kings


def _establishable_outers(seed: int, needed: int) -> tuple[list[Digraph], dict[str, Any]]:
    """Outer digraphs passing can_establish: the strong tournaments on three
    to six vertices that pass, in scan order, fill half the quota, seeded
    semicomplete search the rest."""
    hits = [
        d
        for n in range(3, 7)
        for d in all_tournaments(n)
        if is_strong(d) and can_establish(d).ok
    ]
    found = hits[: max(1, needed // 2)]
    scan_hits = list(found)
    strong = frozenset({Constraint.STRONG_OUTER})
    attempt = 0
    while len(found) < needed and attempt < 100000:
        spec = GenSpec(
            seed=derive(seed, 777, attempt),
            kind=Kind.SEMICOMPLETE,
            n=5 + attempt % 4,
            p2=0.2,
            constraints=strong,
        )
        d = generate(spec)
        if not isinstance(d, Digraph):
            raise GenerationError(f"expected a digraph from {spec}")
        if can_establish(d).ok:
            found.append(d)
        attempt += 1
    while len(found) < needed and scan_hits:
        found.append(scan_hits[len(found) % len(scan_hits)])
    return found, {
        "exhaustive_tournament_hits": len(hits),
        "smallest_tournament_n": hits[0].n if hits else None,
        "seeded_search_attempts": attempt,
    }


@_experiment("establishment", 50)
def establishment(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """The establishment construction yields an extension whose 3-king set is
    exactly the original vertex set, re-verified here by flat k_kings."""
    outers, info = _establishable_outers(seed, instances)
    res.info.update(info)
    for idx in range(min(instances, len(outers))):
        outer = outers[idx]
        meta = SplitMix64(derive(seed, idx, 3))
        sizes = [1] * outer.n
        sizes[meta.randint(0, outer.n - 1)] = meta.randint(1, 2)
        factors = tuple(
            random_digraph(sizes[i], derive(seed, idx, 4 + i), 0.5)
            for i in range(outer.n)
        )
        c = compose(outer, factors)
        res.instances += 1
        res.checks += 1
        try:
            extended = establish(c)
        except TheoremViolation as exc:
            res.record(f"establishment postcondition failed: {exc}", c)
            continue
        if k_kings(flatten(extended), 3).kings != frozenset(range(c.total_vertices)):
            res.record("re-verification of the extension's 3-king set failed", c)


@_experiment("four-king-bound", 2000)
def four_king_bound(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """At least five 4-kings in every strong semicomplete composition on six
    or more vertices. The counts are checked against the flat 4-kings and
    their strict ones; instances without a 3-king, which the outer 2-king
    rules out (`four_king_bound_report`), are counted."""
    no_three_king_instances = 0
    for idx in range(instances):
        c = _corpus_composition(
            seed,
            idx,
            _SEMI_KINDS,
            t_lo=3,
            min_total=6,
            constraints=frozenset({Constraint.STRONG_OUTER}),
        )
        res.instances += 1
        res.checks += 1
        report = four_king_bound_report(c)
        if report.three_kings == 0:
            no_three_king_instances += 1
        counts = (report.four_kings, report.three_kings)
        flat = k_kings(flatten(c), 4)
        if counts != (len(flat.kings), len(flat.kings - flat.strict)):
            res.record(f"(4-king, 3-king) counts {counts} differ from flat k_kings", c)
        if not report.bound_satisfied:
            res.record(
                f"bound failed: n={report.n}, four={report.four_kings}, "
                f"three={report.three_kings}",
                c,
            )
    res.info["no_three_king_instances"] = no_three_king_instances


@_experiment("quasi-kernel", 5000)
def quasi_kernel_validation(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """The constructed quasi-kernel validates on random digraphs across a
    spread of densities."""
    densities = (0.1, 0.3, 0.5, 0.8)
    for idx in range(instances):
        meta = SplitMix64(derive(seed, idx))
        d = random_digraph(
            meta.randint(1, 14), derive(seed, idx, 1), densities[idx % 4]
        )
        res.instances += 1
        res.checks += 1
        try:
            cert = quasi_kernel(d)
        except TheoremViolation as exc:
            res.record(str(exc), d)
            continue
        if not (cert.validated and validate_certificate(d, cert)):
            res.record("returned quasi-kernel does not validate", d)


@_experiment("disjoint-quasi-kernels", 1000)
def disjoint_quasi_kernel_pairs(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """Sink-free outer digraphs admit two disjoint quasi-kernels lifted from
    factors, and sink-free semicomplete digraphs have at least two singleton
    quasi-kernel vertices (exhaustively to n=5, then randomly to n=10)."""
    sink_free = frozenset({Constraint.NO_SINK_OUTER})
    for idx in range(instances):
        c = _corpus_composition(seed, idx, _SEMI_KINDS, constraints=sink_free)
        res.instances += 1
        res.checks += 1
        try:
            first, second = disjoint_quasi_kernels(c)
        except TheoremViolation as exc:
            res.record(f"disjoint pair construction failed: {exc}", c)
            continue
        q = flatten(c)
        if first.vertices & second.vertices:
            res.record("quasi-kernels are not disjoint", c)
        elif not (
            validate_certificate(q, first) and validate_certificate(q, second)
        ):
            res.record("one of the pair does not validate", c)

    def check_singletons(d: Digraph) -> None:
        res.checks += 1
        try:
            if len(singleton_quasi_kernels(d)) < 2:
                res.record("fewer than two singleton quasi-kernels", d)
        except TheoremViolation as exc:
            res.record(str(exc), d)

    exhaustive_checked = 0
    for n in range(1, 6):
        for d in all_semicomplete_digraphs(n):
            if all(d.out_masks):
                exhaustive_checked += 1
                check_singletons(d)
    res.info["exhaustive_sink_free_digraphs"] = exhaustive_checked

    for idx in range(1000):
        meta = SplitMix64(derive(seed, 555, idx))
        spec = GenSpec(
            seed=derive(seed, 555, idx, 1),
            kind=Kind.SEMICOMPLETE,
            n=meta.randint(2, 10),
            p2=(0.1, 0.3, 0.6)[idx % 3],
            constraints=sink_free,
        )
        d = generate(spec)
        if not isinstance(d, Digraph):
            raise GenerationError(f"expected a digraph from {spec}")
        check_singletons(d)


@_experiment("kkernel-poly", 500)
def kkernel_poly(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """Polynomial k-kernel decisions (k in 4..6) versus the subset-enumeration
    oracle on strong semicomplete compositions."""
    poly_elapsed = 0.0
    strong = frozenset({Constraint.STRONG_OUTER})
    for idx in range(instances):
        c = _corpus_composition(seed, idx, _SEMI_KINDS, constraints=strong)
        res.instances += 1
        q = flatten(c)
        for k in (4, 5, 6):
            res.checks += 1
            t0 = time.perf_counter()
            poly = composition_k_kernel(c, k)
            poly_elapsed += time.perf_counter() - t0
            oracle = k_kernel_brute_force(q, k, max_n=max(16, q.n))
            if (poly is None) != (oracle is None):
                res.record(
                    f"existence mismatch at k={k}: poly={poly is not None}, "
                    f"oracle={oracle is not None}",
                    c,
                )
                continue
            if poly is not None and not validate_certificate(q, poly):
                res.record(f"poly certificate invalid at k={k}", c)
            if oracle is not None and not validate_certificate(q, oracle):
                res.record(f"oracle certificate invalid at k={k}", c)
    res.info["poly_elapsed_s"] = round(poly_elapsed, 3)


@_experiment("kkernel-reduction", 200)
def kkernel_reduction(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """3-kernel existence is preserved by the three-copy gadget, oracle
    checked on both sides (the gadget side runs on up to 12 vertices)."""
    densities = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    # the directed 4-cycle has no 3-kernel (no pair is 3-independent and no
    # singleton is 2-absorbent), so the negative branch is always exercised
    four_cycle = build_digraph(4, [(i, (i + 1) % 4) for i in range(4)])
    with_kernel = 0
    for idx in range(instances):
        if idx == 0:
            d = four_cycle
        else:
            n = 1 + idx % 4
            d = random_digraph(n, derive(seed, idx), densities[idx % len(densities)])
        res.instances += 1
        res.checks += 1
        direct = k_kernel_brute_force(d, 3) is not None
        via_gadget = k_kernel_brute_force(c3_gadget(d), 3) is not None
        if direct:
            with_kernel += 1
        if direct != via_gadget:
            res.record(
                f"gadget mismatch: digraph {direct}, gadget {via_gadget}", d
            )
    res.info["digraphs_with_3kernel"] = with_kernel
    res.info["digraphs_without_3kernel"] = res.instances - with_kernel


@_experiment("absorbent-transfer", 500)
def absorbent_transfer(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """{v} is k-absorbent in the flattened composition with the rest of v's
    factor removed exactly when the factor's outer vertex is a k-absorbent
    singleton of the outer digraph; both sides computed independently for
    k in 3..5."""
    for idx in range(instances):
        c = _corpus_composition(seed, idx, _MIXED_KINDS)
        res.instances += 1
        q = flatten(c)
        offs = c.offsets
        for i in range(c.t):
            h = c.factors[i]
            # Route two: one backward BFS in the outer digraph.
            outer_dists = distances_to(c.outer, i)
            inner_picks = {0, h.n - 1}
            for inner in inner_picks:
                v = offs[i] + inner
                keep = [
                    x
                    for x in range(q.n)
                    if x == v or not offs[i] <= x < offs[i] + h.n
                ]
                sub, new_id = induced_subdigraph(q, keep)
                target = new_id[v]
                # Route one: forward BFS from every vertex of the reduced
                # flattened digraph.
                reduced_dists = [distances_from(sub, x)[target] for x in range(sub.n)]
                for k in (3, 4, 5):
                    res.checks += 1
                    reduced_side = all(dist <= k for dist in reduced_dists)
                    outer_side = all(dist <= k for dist in outer_dists)
                    if reduced_side != outer_side:
                        res.record(
                            f"absorbency transfer mismatch at factor {i}, "
                            f"inner {inner}, k={k}",
                            c,
                        )


@_experiment("fixture-regression", 1)
def fixture_regression(
    res: ExperimentResult, seed: int, instances: int
) -> None:
    """The pinned unique-3-king example keeps its four properties: no source
    in the flattened digraph, a source in the outer, flat vertex 3 as the
    unique 3-king, and no arc between flat vertices 3 and 0."""
    res.instances, res.checks = 1, 4
    c = unique_three_king_fixture()
    q = flatten(c)
    if not all(q.in_masks):
        res.record("flattened fixture has a source", c)
    if not classify_digraph(c.outer).sources:
        res.record("outer digraph of the fixture has no source", c)
    if k_kings(q, 3).kings != frozenset({3}):
        res.record("fixture's 3-king set is not exactly {3}", c)
    if q.has_arc(3, 0) or q.has_arc(0, 3):
        res.record("fixture has an arc between flat vertices 3 and 0", c)


EXPERIMENTS: dict[str, Experiment] = {
    runner.name: runner
    for runner in (
        king_characterization,
        three_king_count,
        nonking_witness,
        establishment,
        four_king_bound,
        quasi_kernel_validation,
        disjoint_quasi_kernel_pairs,
        kkernel_poly,
        kkernel_reduction,
        absorbent_transfer,
        fixture_regression,
    )
}
