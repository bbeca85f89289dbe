"""Core digraph type and reachability algorithms.

Digraphs are loopless and use vertex ids 0..n-1. Parallel arcs collapse; the
pair of opposite arcs (u, v), (v, u) is allowed and is how 2-cycles and
bidirected edges are modelled.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionError

# Distance marker for "no path". Compares greater than every finite distance,
# and survives +1 arithmetic, so min/max folds need no special casing.
UNREACHABLE: float = math.inf

Dist = int | float


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph with both adjacency directions precomputed."""

    n: int
    out_adj: tuple[frozenset[int], ...]
    in_adj: tuple[frozenset[int], ...]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs in sorted order; deterministic across runs."""
        for u in range(self.n):
            for v in sorted(self.out_adj[u]):
                yield (u, v)

    @property
    def arc_count(self) -> int:
        return sum(len(s) for s in self.out_adj)

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_adj[u]

    def out_degree(self, u: int) -> int:
        return len(self.out_adj[u])

    def in_degree(self, u: int) -> int:
        return len(self.in_adj[u])


@dataclass(frozen=True)
class DigraphClass:
    """Structural classification: adjacency completeness, sources, sinks,
    strong connectivity."""

    is_semicomplete: bool
    is_tournament: bool
    sources: frozenset[int]
    sinks: frozenset[int]
    is_strong: bool


@dataclass(frozen=True)
class StrongDecomposition:
    """Strong components, numbered by smallest member vertex. initial_ids are
    the components with no incoming arc in the condensation."""

    component_of: tuple[int, ...]
    components: tuple[frozenset[int], ...]
    initial_ids: frozenset[int]


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Construct a digraph, rejecting loops and out-of-range endpoints."""
    if n < 0:
        raise PreconditionError(f"vertex count must be nonnegative, got {n}")
    out: list[set[int]] = [set() for _ in range(n)]
    inn: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise PreconditionError(f"loop arc ({u}, {v}) not allowed")
        out[u].add(v)
        inn[v].add(u)
    return Digraph(
        n=n,
        out_adj=tuple(frozenset(s) for s in out),
        in_adj=tuple(frozenset(s) for s in inn),
    )


def _bfs(adj: tuple[frozenset[int], ...], sources: Iterable[int]) -> list[Dist]:
    """Multi-source BFS along adj (a digraph's out_adj or in_adj): entry v
    holds the fewest adj-steps from the source set to v, 0 on the sources."""
    n = len(adj)
    dist: list[Dist] = [UNREACHABLE] * n
    queue: deque[int] = deque()
    for s in sources:
        if not 0 <= s < n:
            raise PreconditionError(f"vertex {s} out of range for n={n}")
        if dist[s] is UNREACHABLE:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] is UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return dist


def distances_from(d: Digraph, source: int) -> list[Dist]:
    """BFS out-distances from source; UNREACHABLE where no path exists."""
    return _bfs(d.out_adj, (source,))


def distances_to(d: Digraph, target: int) -> list[Dist]:
    """BFS over in-arcs: entry u holds the length of a shortest u -> target
    path. Equivalent to distances_from in the converse digraph."""
    return _bfs(d.in_adj, (target,))


def distances_to_set(d: Digraph, targets: Iterable[int]) -> list[Dist]:
    """Multi-source variant of distances_to: shortest distance from each
    vertex into the target set (0 on the set itself)."""
    return _bfs(d.in_adj, targets)


def out_eccentricities(d: Digraph) -> list[Dist]:
    """Out-eccentricity of every vertex: max distance to any other vertex,
    UNREACHABLE when some vertex cannot be reached."""
    eccs: list[Dist] = []
    for v in range(d.n):
        dist = distances_from(d, v)
        ecc: Dist = 0
        for u in range(d.n):
            if dist[u] > ecc:
                ecc = dist[u]
        eccs.append(ecc)
    return eccs


def converse(d: Digraph) -> Digraph:
    """Reverse every arc. Kings of the converse are the 2-step absorbing
    vertices of the original, which is how singleton quasi-kernels are found."""
    return Digraph(n=d.n, out_adj=d.in_adj, in_adj=d.out_adj)


def strong_decomposition(d: Digraph) -> StrongDecomposition:
    """Tarjan's algorithm, iterative to survive deep recursion on path-like
    digraphs. Components are renumbered by their smallest vertex."""
    index_of: list[int] = [-1] * d.n
    lowlink: list[int] = [0] * d.n
    on_stack: list[bool] = [False] * d.n
    stack: list[int] = []
    comp_of: list[int] = [-1] * d.n
    comps: list[frozenset[int]] = []
    counter = 0

    for root in range(d.n):
        if index_of[root] != -1:
            continue
        # Each frame is (vertex, iterator over its out-neighbours).
        work: list[tuple[int, Iterator[int]]] = []
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work.append((root, iter(d.out_adj[root])))
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(d.out_adj[w])))
                    advanced = True
                    break
                if on_stack[w] and index_of[w] < lowlink[v]:
                    lowlink[v] = index_of[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index_of[v]:
                members = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.add(w)
                    if w == v:
                        break
                cid = len(comps)
                comps.append(frozenset(members))
                for w in members:
                    comp_of[w] = cid

    # Renumber components by smallest member for a canonical presentation.
    order = sorted(range(len(comps)), key=lambda c: min(comps[c]))
    renum = {old: new for new, old in enumerate(order)}
    components = tuple(comps[old] for old in order)
    component_of = tuple(renum[comp_of[v]] for v in range(d.n))

    has_incoming = [False] * len(components)
    for u in range(d.n):
        cu = component_of[u]
        for v in d.out_adj[u]:
            cv = component_of[v]
            if cu != cv:
                has_incoming[cv] = True
    initial = frozenset(c for c in range(len(components)) if not has_incoming[c])
    return StrongDecomposition(
        component_of=component_of, components=components, initial_ids=initial
    )


def is_strong(d: Digraph) -> bool:
    """One strong component covering every vertex. The empty digraph and the
    single vertex count as strong."""
    if d.n <= 1:
        return True
    return len(strong_decomposition(d).components) == 1


def classify_digraph(d: Digraph) -> DigraphClass:
    semicomplete = True
    tournament = True
    for u in range(d.n):
        for v in range(u + 1, d.n):
            fw = v in d.out_adj[u]
            bw = u in d.out_adj[v]
            if not (fw or bw):
                semicomplete = False
                tournament = False
            elif fw and bw:
                tournament = False
    sources = frozenset(v for v in range(d.n) if not d.in_adj[v])
    sinks = frozenset(v for v in range(d.n) if not d.out_adj[v])
    return DigraphClass(
        is_semicomplete=semicomplete,
        is_tournament=tournament,
        sources=sources,
        sinks=sinks,
        is_strong=is_strong(d),
    )


def min_cycle_length_through(d: Digraph, v: int) -> Dist:
    """Length of a shortest directed cycle through v.

    One backward BFS to v gives d(w, v) for every out-neighbour w, and a
    shortest cycle is an arc v -> w extended by a shortest w -> v path.
    """
    back = distances_to(d, v)
    best: Dist = UNREACHABLE
    for w in d.out_adj[v]:
        if back[w] + 1 < best:
            best = back[w] + 1
    return best


def induced_subdigraph(d: Digraph, keep: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Induced subdigraph on `keep`, plus the old-id -> new-id map."""
    kept = sorted(set(keep))
    new_id = {old: i for i, old in enumerate(kept)}
    arcs = [
        (new_id[u], new_id[v])
        for u in kept
        for v in d.out_adj[u]
        if v in new_id
    ]
    return build_digraph(len(kept), arcs), new_id
