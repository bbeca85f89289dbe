"""Independent oracles for the test suite.

Everything here recomputes answers by a different route than the library:
relaxation instead of BFS, closure matrices instead of mask searches, path
enumeration instead of distance arithmetic, and the definitional double loop
instead of offset bookkeeping. Slow on purpose; used only on small inputs.
`CountingMasks` is the one probe: it counts the mask reads of a walk.
"""

from __future__ import annotations

from kingkernel import Composition, Digraph, build_digraph

INF = float("inf")


class CountingMasks(tuple):
    """A mask tuple that counts how often a walk reads one of its masks."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def brute_distances(d: Digraph, s: int) -> list[float]:
    """Shortest path lengths from s by Bellman-Ford relaxation."""
    arcs = list(d.arcs())
    dist = [INF] * d.n
    dist[s] = 0
    for _ in range(d.n):
        for u, v in arcs:
            if dist[u] + 1 < dist[v]:
                dist[v] = dist[u] + 1
    return dist


def reverse_arcs(d: Digraph) -> Digraph:
    """Every arc turned round, rebuilt from the arc list."""
    return build_digraph(d.n, [(v, u) for u, v in d.arcs()])


def reachability_matrix(d: Digraph) -> list[list[bool]]:
    """Reflexive transitive closure by Floyd-Warshall style sweeps."""
    n = d.n
    reach = [[u == v or d.has_arc(u, v) for v in range(n)] for u in range(n)]
    for mid in range(n):
        row_mid = reach[mid]
        for u in range(n):
            if reach[u][mid]:
                reach[u] = [a or b for a, b in zip(reach[u], row_mid)]
    return reach


def brute_components(d: Digraph) -> list[set[int]]:
    """Strong components as mutual-reachability classes, ordered by their
    smallest member."""
    reach = reachability_matrix(d)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for u in range(d.n):
        if u in seen:
            continue
        comp = {v for v in range(d.n) if reach[u][v] and reach[v][u]}
        comps.append(comp)
        seen |= comp
    return comps


def brute_min_cycle_through(d: Digraph, v: int) -> float:
    """Shortest cycle through v by depth-first simple-path enumeration."""
    best = INF

    def walk(u: int, length: int, visited: frozenset[int]) -> None:
        nonlocal best
        if length + 1 >= best:
            return
        for w in range(d.n):
            if not d.has_arc(u, w):
                continue
            if w == v:
                best = min(best, length + 1)
            elif w not in visited:
                walk(w, length + 1, visited | {w})

    walk(v, 0, frozenset({v}))
    return best


def brute_eccentricities(d: Digraph) -> list[float]:
    """Out-eccentricity of every vertex, one Bellman-Ford table per source."""
    return [max(brute_distances(d, u)) for u in range(d.n)]


def brute_k_kings(d: Digraph, k: int) -> set[int]:
    return {u for u, ecc in enumerate(brute_eccentricities(d)) if ecc <= k}


def brute_flat_arcs(c: Composition) -> set[tuple[int, int]]:
    """Arc set of the flattened composition straight from the definition:
    factor arcs within a factor, outer arcs between factors."""
    verts = [(i, j) for i in range(c.t) for j in range(c.factors[i].n)]
    arcs: set[tuple[int, int]] = set()
    for i, j in verts:
        for p, q in verts:
            if (i, j) == (p, q):
                continue
            if i == p:
                present = c.factors[i].has_arc(j, q)
            else:
                present = c.outer.has_arc(i, p)
            if present:
                arcs.add((c.flat_id(i, j), c.flat_id(p, q)))
    return arcs


def brute_is_quasi_kernel(d: Digraph, vertices: set[int]) -> bool:
    for u in vertices:
        for v in vertices:
            if u != v and d.has_arc(u, v):
                return False
    for x in range(d.n):
        if x in vertices:
            continue
        dist = brute_distances(d, x)
        if not any(dist[y] <= 2 for y in vertices):
            return False
    return True


def brute_is_k_kernel(d: Digraph, vertices: set[int], k: int) -> bool:
    """k-independent (every ordered pair of distinct members at distance at
    least k) and (k-1)-absorbent (every outside vertex within k-1 steps of
    some member), straight from Bellman-Ford distances."""
    dist = [brute_distances(d, u) for u in range(d.n)]
    for u in vertices:
        for v in vertices:
            if u != v and dist[u][v] < k:
                return False
    return all(
        any(dist[x][y] <= k - 1 for y in vertices)
        for x in range(d.n)
        if x not in vertices
    )
