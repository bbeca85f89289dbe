"""Core digraph type and reachability algorithms.

Digraphs are loopless and use vertex ids 0..n-1. Parallel arcs collapse; the
pair of opposite arcs (u, v), (v, u) is allowed and is how 2-cycles and
bidirected edges are modelled.

A digraph is stored as its adjacency masks and nothing else: Python ints
where bit v of out_masks[u], and bit u of in_masks[v], is set iff u -> v.
`build_digraph` ORs them together once from an arc list, checking every
arc; `composition.flatten` builds them from block masks, and the seeded
generators and exhaustive enumerators of `gen` OR each drawn arc straight
into them. Every query reads them.

Every distance question runs on one bitset BFS core. `_levels` expands a
frontier mask one level at a time by OR-ing the masks of its vertices, and
stops at the first frontier vertex after which every vertex has been
reached, so no walk reads a mask that can add nothing, inside a level or
after it. Callers stop earlier when they have their answer: the shortest
cycle through v stops at the first level that meets v's in-neighbours, and
a reach at its depth bound.

Every "within j steps" question goes through one depth-bounded primitive,
`_reach(masks, sources, depth)`: the mask of vertices within `depth` steps
of a source mask, along out_masks (out-reach) or in_masks (in-reach). A
k-king is a vertex whose out-reach of radius k is every vertex; a set is
j-independent when no member's out-reach of radius j-1 holds another member,
and a-absorbent when its in-reach of radius a is every vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionError

# Distance marker for "no path". Compares greater than every finite distance,
# and survives +1 arithmetic, so min/max folds need no special casing.
UNREACHABLE: float = math.inf

Dist = int | float


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph as adjacency bitmasks: bit v of out_masks[u], and
    bit u of in_masks[v], is set iff u -> v."""

    n: int
    out_masks: tuple[int, ...]
    in_masks: tuple[int, ...]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs in sorted order; deterministic across runs."""
        for u, mask in enumerate(self.out_masks):
            while mask:
                low = mask & -mask
                yield (u, low.bit_length() - 1)
                mask ^= low

    @property
    def arc_count(self) -> int:
        return sum(mask.bit_count() for mask in self.out_masks)

    def has_arc(self, u: int, v: int) -> bool:
        u, v = _check_vertex(self.n, u), _check_vertex(self.n, v)
        return bool(self.out_masks[u] >> v & 1)

    def out_degree(self, u: int) -> int:
        return self.out_masks[u].bit_count()

    def in_degree(self, u: int) -> int:
        return self.in_masks[u].bit_count()


@dataclass(frozen=True)
class DigraphClass:
    """Structural classification: adjacency completeness, sources, sinks,
    strong connectivity."""

    is_semicomplete: bool
    is_tournament: bool
    sources: frozenset[int]
    sinks: frozenset[int]
    is_strong: bool


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Construct a digraph, rejecting loops and out-of-range endpoints."""
    if n < 0:
        raise PreconditionError(f"vertex count must be nonnegative, got {n}")
    out = [0] * n
    inn = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise PreconditionError(f"loop arc ({u}, {v}) not allowed")
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return Digraph(n=n, out_masks=tuple(out), in_masks=tuple(inn))


def _check_vertex(n: int, v: int) -> int:
    """v itself, once checked against range(n)."""
    if not 0 <= v < n:
        raise PreconditionError(f"vertex {v} out of range for n={n}")
    return v


def _levels(masks: tuple[int, ...], frontier: int) -> Iterator[int]:
    """BFS along masks (a digraph's out_masks or in_masks) from the vertex
    mask `frontier`: the j-th yielded mask (from 0) holds the vertices first
    reached after j steps. A level is expanded only when the caller asks for
    the next one, so stopping early costs nothing. Expanding a level stops at
    the first of its vertices after which every vertex has been reached: the
    rest of the level can add nothing, and the unreached vertices are exactly
    the next level, the last one."""
    full = (1 << len(masks)) - 1
    seen = frontier
    while frontier:
        yield frontier
        reach = seen
        while frontier and reach != full:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach ^ seen
        seen = reach


def _bfs(masks: tuple[int, ...], source: int) -> list[Dist]:
    """BFS along masks: entry v holds the fewest steps from source to v."""
    n = len(masks)
    dist: list[Dist] = [UNREACHABLE] * n
    for level, frontier in enumerate(_levels(masks, 1 << _check_vertex(n, source))):
        while frontier:
            low = frontier & -frontier
            dist[low.bit_length() - 1] = level
            frontier ^= low
    return dist


def _reach(masks: tuple[int, ...], sources: int, depth: int) -> int:
    """The mask of vertices within `depth` >= 0 steps of the vertex mask
    `sources` along masks, sources included. It stops after `depth` levels
    (and, like every walk, once every vertex has been reached)."""
    reached = 0
    for level, frontier in enumerate(_levels(masks, sources)):
        reached |= frontier
        if level == depth:
            break
    return reached


def distances_from(d: Digraph, source: int) -> list[Dist]:
    """BFS out-distances from source; UNREACHABLE where no path exists."""
    return _bfs(d.out_masks, source)


def distances_to(d: Digraph, target: int) -> list[Dist]:
    """BFS over in-arcs: entry u holds the length of a shortest u -> target
    path. Equivalent to distances_from in the converse digraph."""
    return _bfs(d.in_masks, target)


def out_eccentricities(d: Digraph) -> list[Dist]:
    """Out-eccentricity of every vertex: max distance to any other vertex,
    UNREACHABLE when some vertex cannot be reached. The last level of each
    BFS is the eccentricity; no distance list is built."""
    full = (1 << d.n) - 1
    eccs: list[Dist] = []
    for v in range(d.n):
        levels = list(_levels(d.out_masks, 1 << v))
        # levels are disjoint, so their sum is every vertex v reaches
        eccs.append(len(levels) - 1 if sum(levels) == full else UNREACHABLE)
    return eccs


def is_strong(d: Digraph) -> bool:
    """One strong component covering every vertex: vertex 0 reaches every
    vertex and every vertex reaches it. The empty digraph and the single
    vertex count as strong."""
    if d.n <= 1:
        return True
    full = (1 << d.n) - 1
    return sum(_levels(d.out_masks, 1)) == full and sum(_levels(d.in_masks, 1)) == full


def _is_semicomplete(d: Digraph) -> bool:
    """Every other vertex is an out- or in-neighbour of each vertex."""
    full = (1 << d.n) - 1
    outs, ins = d.out_masks, d.in_masks
    return all(outs[u] | ins[u] | 1 << u == full for u in range(d.n))


def classify_digraph(d: Digraph) -> DigraphClass:
    # a tournament is semicomplete with no pair joined both ways
    outs, ins = d.out_masks, d.in_masks
    semicomplete = _is_semicomplete(d)
    tournament = semicomplete and not any(outs[u] & ins[u] for u in range(d.n))
    sources = frozenset(v for v in range(d.n) if not ins[v])
    sinks = frozenset(v for v in range(d.n) if not outs[v])
    return DigraphClass(
        is_semicomplete=semicomplete,
        is_tournament=tournament,
        sources=sources,
        sinks=sinks,
        is_strong=is_strong(d),
    )


def min_cycle_length_through(d: Digraph, v: int) -> Dist:
    """Length of a shortest directed cycle through v.

    One BFS from v: a shortest cycle is a shortest path from v to an
    in-neighbour w of v closed by the arc w -> v, so its length is one more
    than the first level that meets v's in-neighbours.
    """
    into = d.in_masks[_check_vertex(d.n, v)]
    for level, frontier in enumerate(_levels(d.out_masks, 1 << v)):
        if frontier & into:
            return level + 1
    return UNREACHABLE


def induced_subdigraph(d: Digraph, keep: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Induced subdigraph on `keep`, plus the old-id -> new-id map."""
    kept = sorted(set(keep))
    new_id = {old: i for i, old in enumerate(kept)}
    arcs = [(new_id[u], new_id[v]) for u in kept for v in kept if d.has_arc(u, v)]
    return build_digraph(len(kept), arcs), new_id
