"""k-kings of digraphs and of compositions.

A k-king reaches every other vertex by a directed path of length at most k;
it is strict when some vertex sits at distance exactly k. A king is a 2-king;
a non-king is a vertex that is not even a 3-king.

For compositions every king question reads one rule, the
lexicographic-product distance rule: x in H_i is a k-king of the flattened
composition when u_i is an outer k-king and x reaches the rest of H_i within
k, inside H_i or round an outer cycle through u_i of length at most k.
`_factor_kings` reads it as masks from one outer walk that starts at u_i
(`establish` checks its postcondition so), and `_composition_k_kings` as
eccentricities, so nothing here flattens.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .composition import (
    Composition,
    compose,
    require_strong_semicomplete_composition,
)
from .digraph import (
    UNREACHABLE,
    Digraph,
    Dist,
    _check_vertex,
    _is_semicomplete,
    _levels,
    _reach,
    build_digraph,
    min_cycle_length_through,
    out_eccentricities,
)
from .errors import PreconditionError, TheoremViolation


@dataclass(frozen=True)
class KingReport:
    """k-king census of a digraph: the kings, the strict ones (eccentricity
    exactly k), and every vertex's out-eccentricity."""

    k: int
    kings: frozenset[int]
    strict: frozenset[int]
    ecc_out: tuple[Dist, ...]


class KingWitnessReason(Enum):
    FACTOR_HAS_KING = "FACTOR_HAS_KING"
    SHORT_OUTER_CYCLE = "SHORT_OUTER_CYCLE"


@dataclass(frozen=True)
class CompositionKingWitness:
    """Outcome of the composition-level k-king decision. witness_factor is
    0-based here; serialized reports print factor indices 1-based."""

    exists: bool
    witness_factor: int | None
    reason: KingWitnessReason | None


class FactorKingFlag(Enum):
    ALL_3KINGS = "ALL"
    NO_3KINGS = "NONE"


@dataclass(frozen=True)
class ThreeKingClassification:
    """Per-factor 3-king verdict for a strong semicomplete composition. Every
    factor is all-or-nothing: its vertices are 3-kings of the flattened
    digraph exactly when the factor's outer vertex is a 3-king of the outer."""

    flags: tuple[FactorKingFlag, ...]
    outer_three_kings: frozenset[int]


@dataclass(frozen=True)
class EstablishReport:
    ok: bool
    strict_three_kings: frozenset[int]
    two_kings: frozenset[int]
    blocking_two_kings: frozenset[int]


@dataclass(frozen=True)
class FourKingReport:
    n: int
    four_kings: int
    three_kings: int
    bound_satisfied: bool


def k_kings(d: Digraph, k: int) -> KingReport:
    """All k-kings of d, k >= 2. A vertex with unreachable eccentricity is
    never a king; strictness compares finite eccentricities only."""
    return _king_report(out_eccentricities(d), k)


def _king_report(eccs: list[Dist], k: int) -> KingReport:
    if k < 2:
        raise PreconditionError(f"king order must be >= 2, got {k}")
    kings = frozenset(v for v, e in enumerate(eccs) if e <= k)
    strict = frozenset(v for v in kings if eccs[v] == k)
    return KingReport(k=k, kings=kings, strict=strict, ecc_out=tuple(eccs))


def _composition_k_kings(c: Composition, k: int) -> KingReport:
    """k_kings of the flattened composition: x in H_i has eccentricity
    max(ecc_T(u_i), min(ecc_Hi(x), c_T(u_i))), c_T(u_i) the shortest outer cycle."""
    outer = out_eccentricities(c.outer)
    eccs: list[Dist] = []
    for i, h in enumerate(c.factors):
        cycle = min_cycle_length_through(c.outer, i)
        eccs.extend(max(outer[i], min(e, cycle)) for e in out_eccentricities(h))
    return _king_report(eccs, k)


def _factor_kings(c: Composition, i: int, k: int) -> int:
    """The k-kings of the flattened composition that lie in factor i, as a
    mask over H_i: none when u_i is not an outer k-king, all of H_i when u_i
    also lies on an outer cycle of length at most k, and otherwise the
    k-kings of H_i. Both outer questions read one walk from u_i to level k:
    u_i is a k-king when levels 0..k hold every vertex, and lies on such a
    cycle when levels 0..k-1 meet its in-neighbours. Refuses k < 2."""
    if k < 2:
        raise PreconditionError(f"king order must be >= 2, got {k}")
    levels = list(islice(_levels(c.outer.out_masks, 1 << i), k + 1))
    if sum(levels) != (1 << c.t) - 1:
        return 0
    h = c.factors[i]
    if sum(levels[:k]) & c.outer.in_masks[i]:
        return (1 << h.n) - 1
    return sum(1 << x for x in k_kings(h, k).kings)


def composition_has_k_king(c: Composition, k: int) -> CompositionKingWitness:
    """Whether the flattened composition has a k-king, decided without
    flattening on an arbitrary outer digraph: the witness is the smallest
    factor that holds one (`_factor_kings`). The reason is FACTOR_HAS_KING
    when that factor has a k-king of its own (a singleton always does), else
    SHORT_OUTER_CYCLE."""
    for i in range(c.t):
        if _factor_kings(c, i, k):
            reason = (
                KingWitnessReason.FACTOR_HAS_KING
                if k_kings(c.factors[i], k).kings
                else KingWitnessReason.SHORT_OUTER_CYCLE
            )
            return CompositionKingWitness(exists=True, witness_factor=i, reason=reason)
    return CompositionKingWitness(exists=False, witness_factor=None, reason=None)


def composition_all_k_kings(c: Composition, k: int) -> bool:
    """Whether every vertex of the flattened composition is a k-king, decided
    without flattening: every factor must consist entirely of k-kings
    (`_factor_kings`), so every outer vertex must be an outer k-king."""
    return all(
        _factor_kings(c, i, k) == (1 << h.n) - 1 for i, h in enumerate(c.factors)
    )


def classify_three_kings(c: Composition) -> ThreeKingClassification:
    """Factor-level 3-king classification of a strong semicomplete
    composition. Refuses non-strong input: the all-or-nothing split is only
    guaranteed in the strong case."""
    require_strong_semicomplete_composition(c)
    # a set question about the outer, answered by one eccentricity pass
    outer3 = k_kings(c.outer, 3).kings
    flags = tuple(
        FactorKingFlag.ALL_3KINGS if i in outer3 else FactorKingFlag.NO_3KINGS
        for i in range(c.t)
    )
    return ThreeKingClassification(flags=flags, outer_three_kings=outer3)


def classified_flat_three_kings(c: Composition, cls: ThreeKingClassification) -> frozenset[int]:
    """Flat 3-king set implied by a classification: the union of the
    ALL_3KINGS factors."""
    out: set[int] = set()
    offs = c.offsets
    for i, flag in enumerate(cls.flags):
        if flag is FactorKingFlag.ALL_3KINGS:
            out.update(range(offs[i], offs[i] + c.factors[i].n))
    return frozenset(out)


def non_king_dominator_witness(c: Composition, u: int) -> int:
    """For a non-king u of a strong semicomplete composition: the smallest
    3-king v that dominates u (arc v -> u) while sitting at distance more
    than 3 from u. Such a v always exists; failing to find one is a theorem
    violation, not a normal result.

    Decided on the outer digraph: with u in factor i, every vertex of another
    factor j dominates u when u_j -> u_i and sits at distance d_T(u_i, u_j)
    from u. So the candidates are the factors j with an arc u_j -> u_i outside
    the out-reach of radius 3 of u_i, and v is the smallest 3-king
    (`_factor_kings`) of the first candidate factor that holds one."""
    require_strong_semicomplete_composition(c)
    i, inner, _ = c.locate(_check_vertex(c.total_vertices, u))
    if _factor_kings(c, i, 3) >> inner & 1:
        raise PreconditionError(f"vertex {u} is a 3-king, not a non-king")
    candidates = c.outer.in_masks[i] & ~_reach(c.outer.out_masks, 1 << i, 3)
    for j in range(c.t):
        if candidates >> j & 1 and (kings := _factor_kings(c, j, 3)):
            return c.flat_id(j, (kings & -kings).bit_length() - 1)
    raise TheoremViolation(
        f"no dominating 3-king at distance > 3 from non-king {u}", instance=c
    )


def can_establish(t: Digraph) -> EstablishReport:
    """Eligibility of a strong semicomplete outer digraph for establishment:
    a strict 3-king exists and every 2-king has an in-neighbor among the
    strict 3-kings. blocking_two_kings lists the 2-kings that fail. One
    eccentricity pass answers it all: t is strong when no eccentricity is
    UNREACHABLE, and the strict 3-kings and 2-kings are read from it."""
    eccs = out_eccentricities(t) if _is_semicomplete(t) else [UNREACHABLE]
    if UNREACHABLE in eccs:
        raise PreconditionError("digraph is not strong semicomplete")
    strict3 = frozenset(v for v, e in enumerate(eccs) if e == 3)
    two = frozenset(v for v, e in enumerate(eccs) if e <= 2)
    strict3_mask = sum(1 << v for v in strict3)
    blocking = frozenset(v for v in two if not t.in_masks[v] & strict3_mask)
    return EstablishReport(
        ok=bool(strict3) and not blocking,
        strict_three_kings=strict3,
        two_kings=two,
        blocking_two_kings=blocking,
    )


def establish(c: Composition) -> Composition:
    """Extend a strong semicomplete composition with one singleton factor per
    strict 3-king of the outer so that the 3-king set of the extended
    composition is exactly the original vertex set.

    Each new outer vertex w_i, paired with strict 3-king s_i, gets the arcs
    w_i -> s_i, u_j -> w_i for every original j != s_i, and w_i -> w_j
    mirroring s_i -> s_j. New factors are appended after the originals, so
    the original flat ids are preserved. The postcondition is checked on
    every call by the per-factor rule (`_factor_kings`): every original
    factor must be all 3-kings and every added singleton none."""
    report = can_establish(c.outer)
    if not report.ok:
        raise PreconditionError(
            "outer digraph is not eligible: needs a strict 3-king and every "
            "2-king dominated by one"
        )
    t = c.t
    strict = sorted(report.strict_three_kings)
    arcs = list(c.outer.arcs())
    for idx, s in enumerate(strict):
        w = t + idx
        arcs.append((w, s))
        for j in range(t):
            if j != s:
                arcs.append((j, w))
        for jdx, s2 in enumerate(strict):
            if s2 != s and c.outer.has_arc(s, s2):
                arcs.append((w, t + jdx))
    outer2 = build_digraph(t + len(strict), arcs)
    singleton = build_digraph(1, [])
    extended = compose(outer2, c.factors + tuple(singleton for _ in strict))
    expected = [(1 << h.n) - 1 for h in c.factors] + [0] * len(strict)
    if [_factor_kings(extended, i, 3) for i in range(extended.t)] != expected:
        raise TheoremViolation(
            "establishment postcondition failed: 3-king set of the extension "
            "differs from the original vertex set",
            instance=c,
        )
    return extended


def four_king_bound_report(c: Composition) -> FourKingReport:
    """3- and 4-king counts of the flattened composition, summed over the
    factors' king masks (`_factor_kings`) without flattening, and whether the
    guaranteed bound holds: with at least six vertices there are at least
    five 4-kings; below six it is vacuous. "At least eight when there is no
    3-king" is not tested, as it cannot be reached: a vertex u_i of maximum
    out-degree in the semicomplete outer is a 2-king (Landau: a vertex it
    does not reach in two steps would dominate u_i and all its
    out-neighbours, a larger out-degree), and in a strong semicomplete outer
    on t >= 2 vertices every vertex lies on a cycle of length at most 3, so
    all of H_i is 3-kings."""
    require_strong_semicomplete_composition(c)
    n = c.total_vertices
    four, three = (
        sum(_factor_kings(c, i, k).bit_count() for i in range(c.t)) for k in (4, 3)
    )
    ok = n < 6 or four >= 5
    return FourKingReport(n=n, four_kings=four, three_kings=three, bound_satisfied=ok)
