"""Seeded, reproducible digraph and composition generators.

PRNG contract
-------------
All randomness comes from SplitMix64 (Steele, Lea and Flood's 64-bit
generator): the state advances by the golden-ratio increment
0x9E3779B97F4A7C15 and each output is the mix64 scramble of the new state.
Draw rules, in stream order:

* coin(): top bit of the next output;
* uniform(): next output divided by 2^64, in [0, 1);
* randint(lo, hi): lo + next output modulo the range size (the modulo bias
  is irrelevant at the range sizes used here and keeps draws one per call).

Child seeds come from derive(seed, *labels), which folds each label into the
running state as mix64(state + 0x9E3779B97F4A7C15 * (label + 1)). Composition
generation splits one stream per role: labels (attempt, 0) size the factors,
(attempt, 1) drive the outer digraph, (attempt, 2 + i) drive factor i. Equal
seeds therefore reproduce instances bit-for-bit, and any implementation of
SplitMix64 plus these rules reproduces them cross-language.

The generators OR each drawn arc straight into the out- and in-masks of
the `Digraph` they return; no arc list is built and nothing is re-checked.
That is how they store an instance, not what they draw: the draws and
their order are the rules above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .composition import Composition, compose
from .digraph import Digraph, build_digraph, is_strong
from .errors import GenerationError, PreconditionError

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

RETRY_CAP = 10000


def mix64(x: int) -> int:
    """SplitMix64 output scrambler."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive(seed: int, *labels: int) -> int:
    """Deterministic child seed; see the module docstring for the rule."""
    s = seed & MASK64
    for label in labels:
        s = mix64((s + GOLDEN * (label + 1)) & MASK64)
    return s


class SplitMix64:
    """One sequential SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def coin(self) -> int:
        return self.next_u64() >> 63

    def uniform(self) -> float:
        return self.next_u64() / 2**64

    def below(self, p: float) -> bool:
        return self.uniform() < p

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise PreconditionError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


class Kind(Enum):
    TOURNAMENT = "TOURNAMENT"
    SEMICOMPLETE = "SEMICOMPLETE"
    ERDOS_RENYI = "ERDOS_RENYI"
    COMPOSITION = "COMPOSITION"


class Constraint(Enum):
    STRONG_OUTER = "STRONG_OUTER"
    NO_SINK_OUTER = "NO_SINK_OUTER"
    NO_SOURCE_OUTER = "NO_SOURCE_OUTER"


@dataclass(frozen=True)
class GenSpec:
    """Everything a generation call depends on. Same spec, same instance.

    n sizes the plain digraph kinds; t with the factor-size range sizes a
    composition (kind then describes the outer digraph, with COMPOSITION a
    synonym for SEMICOMPLETE). p is the arc probability for ERDOS_RENYI,
    p2 the probability that a semicomplete pair gets both arcs. Constraints
    restrict the generated digraph (the outer one for compositions) by
    rejection sampling."""

    seed: int
    kind: Kind
    n: int | None = None
    t: int | None = None
    size_min: int | None = None
    size_max: int | None = None
    p: float = 0.5
    p2: float = 0.25
    constraints: frozenset[Constraint] = field(default_factory=frozenset)


def _oriented(n: int, stream: SplitMix64, p2: float | None) -> Digraph:
    """Each pair {i, j}, visited in ascending (i, j) order, takes a digit as
    in `_all_orientations`: 2 (both arcs) when p2 is given and `below(p2)`
    shows, else a coin, 0 for i -> j and 1 for j -> i. Arcs are ORed
    straight into the masks."""
    below, coin = stream.below, stream.coin
    out = [0] * n
    inn = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            digit = 2 if p2 is not None and below(p2) else coin()
            if digit != 1:
                out[i] |= 1 << j
                inn[j] |= 1 << i
            if digit != 0:
                out[j] |= 1 << i
                inn[i] |= 1 << j
    return Digraph(n, tuple(out), tuple(inn))


def random_tournament(n: int, seed: int) -> Digraph:
    """Tournament on n vertices: each pair {i, j}, visited in ascending
    (i, j) order, is oriented i -> j when the coin shows 0."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    return _oriented(n, SplitMix64(seed), None)


def random_semicomplete(n: int, seed: int, p2: float) -> Digraph:
    """Semicomplete digraph: each pair, in ascending order, gets both arcs
    with probability p2 and otherwise one arc oriented by a coin (0 means
    i -> j)."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if not 0 <= p2 <= 1:
        raise PreconditionError(f"p2 must be in [0, 1], got {p2}")
    return _oriented(n, SplitMix64(seed), p2)


def random_digraph(n: int, seed: int, p: float) -> Digraph:
    """Erdos-Renyi digraph: every ordered pair (u, v), u != v, visited in
    row-major order, gets an arc with probability p."""
    if n < 0:
        raise PreconditionError(f"need n >= 0, got {n}")
    if not 0 <= p <= 1:
        raise PreconditionError(f"p must be in [0, 1], got {p}")
    below = SplitMix64(seed).below
    out = [0] * n
    inn = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and below(p):
                out[u] |= 1 << v
                inn[v] |= 1 << u
    return Digraph(n, tuple(out), tuple(inn))


def _satisfies(d: Digraph, constraints: frozenset[Constraint]) -> bool:
    """Whether d meets every constraint asked; only those are checked, and
    strongness, the one that walks, last."""
    return (
        (Constraint.NO_SINK_OUTER not in constraints or all(d.out_masks))
        and (Constraint.NO_SOURCE_OUTER not in constraints or all(d.in_masks))
        and (Constraint.STRONG_OUTER not in constraints or is_strong(d))
    )


def _outer_for(spec: GenSpec, n: int, seed: int) -> Digraph:
    if spec.kind is Kind.TOURNAMENT:
        return random_tournament(n, seed)
    if spec.kind is Kind.ERDOS_RENYI:
        return random_digraph(n, seed, spec.p)
    # SEMICOMPLETE, and COMPOSITION as its synonym
    return random_semicomplete(n, seed, spec.p2)


def random_composition(spec: GenSpec) -> Composition:
    """Composition with a generated outer digraph and Erdos-Renyi factors.
    Factor sizes are drawn uniformly from [size_min, size_max]. Constraints
    apply to the outer digraph and are enforced by rejection over derived
    attempt seeds; failing all RETRY_CAP attempts is an error."""
    if spec.t is None or spec.t < 2:
        raise PreconditionError(f"composition needs t >= 2, got {spec.t}")
    if spec.size_min is None or spec.size_max is None:
        raise PreconditionError("composition needs a factor-size range")
    if spec.size_min < 1 or spec.size_max < spec.size_min:
        raise PreconditionError(
            f"bad factor-size range [{spec.size_min}, {spec.size_max}]"
        )
    t = spec.t
    for attempt in range(RETRY_CAP):
        sizing = SplitMix64(derive(spec.seed, attempt, 0))
        sizes = [sizing.randint(spec.size_min, spec.size_max) for _ in range(t)]
        outer = _outer_for(spec, t, derive(spec.seed, attempt, 1))
        if not _satisfies(outer, spec.constraints):
            continue
        factors = tuple(
            random_digraph(sizes[i], derive(spec.seed, attempt, 2 + i), spec.p)
            for i in range(t)
        )
        return compose(outer, factors)
    raise GenerationError(
        f"no composition satisfying {sorted(x.value for x in spec.constraints)} "
        f"within {RETRY_CAP} attempts for spec {spec}"
    )


def generate(spec: GenSpec) -> Digraph | Composition:
    """Dispatch on the spec: a composition when t (or kind COMPOSITION) is
    given, else a plain digraph of the requested kind. Plain digraphs with
    constraints are drawn by rejection over derived attempt seeds; without
    constraints the seed feeds the generator directly."""
    if spec.kind is Kind.COMPOSITION or spec.t is not None:
        return random_composition(spec)
    if spec.n is None:
        raise PreconditionError("plain digraph generation needs n")
    if not spec.constraints:
        return _outer_for(spec, spec.n, spec.seed)
    for attempt in range(RETRY_CAP):
        d = _outer_for(spec, spec.n, derive(spec.seed, attempt))
        if _satisfies(d, spec.constraints):
            return d
    raise GenerationError(
        f"no digraph satisfying {sorted(x.value for x in spec.constraints)} "
        f"within {RETRY_CAP} attempts for spec {spec}"
    )


def unique_three_king_fixture() -> Composition:
    """The pinned example showing a composition can have exactly one 3-king
    even though its flattening has no source: a transitive tournament on
    three outer vertices, a bidirected path as the first factor, singleton
    second and third factors. The path has 7 vertices so its midpoint (flat
    id 3) is the unique 3-king; on a 6-vertex path the two middle vertices
    tie, so the 3-king would not be unique."""
    outer = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
    path_arcs: list[tuple[int, int]] = []
    for j in range(6):
        path_arcs.append((j, j + 1))
        path_arcs.append((j + 1, j))
    path = build_digraph(7, path_arcs)
    singleton = build_digraph(1, [])
    return compose(outer, (path, singleton, singleton))


def _all_orientations(n: int, states: int) -> Iterator[Digraph]:
    """Every labeled digraph on n vertices whose pairs each take one of
    `states` digits: 0 is i -> j, 1 is j -> i, 2 is both. Codes count up in
    base `states`, the first pair being the lowest digit."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for code in range(states ** len(pairs)):
        out = [0] * n
        inn = [0] * n
        for i, j in pairs:
            code, digit = divmod(code, states)
            if digit != 1:
                out[i] |= 1 << j
                inn[j] |= 1 << i
            if digit != 0:
                out[j] |= 1 << i
                inn[i] |= 1 << j
        yield Digraph(n, tuple(out), tuple(inn))


def all_tournaments(n: int) -> Iterator[Digraph]:
    """Every labeled tournament on n vertices (not isomorph-reduced);
    2^(n choose 2) digraphs, intended for n <= 6."""
    return _all_orientations(n, 2)


def all_semicomplete_digraphs(n: int) -> Iterator[Digraph]:
    """Every labeled semicomplete digraph on n vertices: each pair is forward,
    backward, or bidirected; 3^(n choose 2) digraphs, intended for n <= 5."""
    return _all_orientations(n, 3)
