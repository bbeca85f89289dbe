"""Reference answers for the benchmark's checks, computed without the
library's BFS.

Distances here come from a bitset BFS over Python-int adjacency masks,
written apart from ``kingkernel.digraph`` so that a defect in the library's
distance code cannot hide in the check. Compositions are answered two ways:
by BFS on a flattened digraph, and by the lexicographic-product distance
formula, which needs only the outer digraph and the factors:

* ``d_Q(x, y) = d_T(i, j)`` for ``x`` in ``H_i``, ``y`` in ``H_j``, ``i != j``;
* ``d_Q(x, y) = min(d_{H_i}(x, y), c_T(i))`` for ``x != y`` in ``H_i``, where
  ``c_T(i)`` is the length of a shortest outer cycle through ``i``.

Only the public attributes ``n``, ``arcs()``, ``outer`` and ``factors`` of the
library's values are read.
"""

from __future__ import annotations

import math

INF = math.inf


def out_masks(d) -> list[int]:
    masks = [0] * d.n
    for u, v in d.arcs():
        masks[u] |= 1 << v
    return masks


def distance_rows(d) -> list[list[float]]:
    """All-pairs out-distances: ``rows[s][v]`` is ``d(s, v)``, INF when v is
    unreachable from s."""
    n = d.n
    masks = out_masks(d)
    rows = []
    for s in range(n):
        row = [INF] * n
        row[s] = 0
        seen = frontier = 1 << s
        depth = 0
        while frontier:
            depth += 1
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= masks[low.bit_length() - 1]
                f ^= low
            frontier = reach & ~seen
            seen |= frontier
            f = frontier
            while f:
                low = f & -f
                row[low.bit_length() - 1] = depth
                f ^= low
        rows.append(row)
    return rows


def eccentricities(d) -> list[float]:
    """Out-eccentricity of every vertex; INF when some vertex is unreachable."""
    return [max(row, default=0) for row in distance_rows(d)]


def shortest_cycles(rows: list[list[float]], d) -> list[float]:
    """Length of a shortest directed cycle through each vertex."""
    best = [INF] * d.n
    for u, v in d.arcs():
        best[u] = min(best[u], rows[v][u] + 1)
    return best


def composition_eccentricities(c) -> list[float]:
    """Flat out-eccentricities of ``c`` from the distance formula, in flat
    vertex order (factor blocks in sequence)."""
    outer_rows = distance_rows(c.outer)
    cycle = shortest_cycles(outer_rows, c.outer)
    eccs: list[float] = []
    for i, h in enumerate(c.factors):
        across = max(
            (outer_rows[i][j] for j in range(c.t) if j != i), default=0
        )
        inner_rows = distance_rows(h)
        for x in range(h.n):
            within = max(
                (min(inner_rows[x][y], cycle[i]) for y in range(h.n) if y != x),
                default=0,
            )
            eccs.append(max(across, within))
    return eccs


def flat_arc_count(c) -> int:
    """Arc count of the flattened composition: factor arcs plus one complete
    bundle per outer arc."""
    sizes = [h.n for h in c.factors]
    inner = sum(sum(1 for _ in h.arcs()) for h in c.factors)
    return inner + sum(sizes[i] * sizes[j] for i, j in c.outer.arcs())


def factor_blocks(c) -> list[range]:
    """Flat vertex ids of each factor."""
    blocks = []
    start = 0
    for h in c.factors:
        blocks.append(range(start, start + h.n))
        start += h.n
    return blocks


def expect(ok: bool, what: str) -> None:
    """Fail a check; raised, not asserted, so that it survives ``python -O``."""
    if not ok:
        raise AssertionError(f"wrong {what}")
