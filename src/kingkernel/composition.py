"""Compositions of digraphs.

A composition Q = T[H_1, ..., H_t] substitutes a factor digraph H_i for each
vertex u_i of the outer digraph T. Q keeps every factor's internal arcs and
adds all arcs from V(H_i) to V(H_j) whenever T has the arc u_i -> u_j.

The composition is semicomplete when T is, and strong semicomplete when T is
additionally strong (with t >= 2 and nonempty factors, which the constructor
enforces). Factors are never required to be semicomplete.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple

from .digraph import Digraph, DigraphClass, _reach, classify_digraph
from .errors import PreconditionError


class CompositionVertex(NamedTuple):
    """A flattened vertex located as (factor, inner); everything 0-based.
    Reports render factor indices 1-based to match the written convention."""

    factor: int
    inner: int
    flat: int


@dataclass(frozen=True)
class Composition:
    outer: Digraph
    factors: tuple[Digraph, ...]

    @property
    def t(self) -> int:
        return self.outer.n

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Flat id of each factor's vertex 0."""
        offs = []
        acc = 0
        for h in self.factors:
            offs.append(acc)
            acc += h.n
        return tuple(offs)

    @property
    def total_vertices(self) -> int:
        return sum(h.n for h in self.factors)

    def flat_id(self, factor: int, inner: int) -> int:
        if not 0 <= factor < self.t:
            raise PreconditionError(f"factor {factor} out of range for t={self.t}")
        if not 0 <= inner < self.factors[factor].n:
            raise PreconditionError(
                f"inner vertex {inner} out of range for factor {factor}"
            )
        return self.offsets[factor] + inner

    def locate(self, flat: int) -> CompositionVertex:
        """Inverse of flat_id."""
        if not 0 <= flat < self.total_vertices:
            raise PreconditionError(
                f"flat id {flat} out of range for {self.total_vertices} vertices"
            )
        offs = self.offsets
        factor = bisect_right(offs, flat) - 1
        return CompositionVertex(factor=factor, inner=flat - offs[factor], flat=flat)


def compose(outer: Digraph, factors: tuple[Digraph, ...] | list[Digraph]) -> Composition:
    """Validate and assemble a composition. Requires t >= 2 and every factor
    nonempty; factors may be arbitrary digraphs (an extension uses arcless
    ones)."""
    factors = tuple(factors)
    if outer.n < 2:
        raise PreconditionError(f"outer digraph needs at least 2 vertices, got {outer.n}")
    if len(factors) != outer.n:
        raise PreconditionError(
            f"expected {outer.n} factors, got {len(factors)}"
        )
    for i, h in enumerate(factors):
        if h.n < 1:
            raise PreconditionError(f"factor {i} is empty")
    return Composition(outer=outer, factors=factors)


def flatten(c: Composition) -> Digraph:
    """The composed digraph on sum(|V(H_i)|) vertices, factor blocks laid out
    in order: internal arcs shifted by the factor offset, plus a complete
    bundle V(H_i) x V(H_j) for every outer arc u_i -> u_j.

    Built on masks: a vertex of factor i has its factor mask shifted to the
    block, ORed with the union of the blocks u_i points to (out) or that
    point to u_i (in)."""
    offs = c.offsets
    blocks = [((1 << h.n) - 1) << offs[i] for i, h in enumerate(c.factors)]
    out_bundle = [0] * c.t
    in_bundle = [0] * c.t
    for i, j in c.outer.arcs():
        out_bundle[i] |= blocks[j]
        in_bundle[j] |= blocks[i]
    out: list[int] = []
    inn: list[int] = []
    for i, h in enumerate(c.factors):
        out.extend(mask << offs[i] | out_bundle[i] for mask in h.out_masks)
        inn.extend(mask << offs[i] | in_bundle[i] for mask in h.in_masks)
    return Digraph(n=c.total_vertices, out_masks=tuple(out), in_masks=tuple(inn))


def _composition_reach(c: Composition, sources: int, depth: int, inward: bool = False) -> int:
    """`_reach` on the flattened composition (along in-arcs when inward), over
    flat-id masks, from T and the factors: a factor is whole when an outer
    walk of 1..depth steps leads to it from a factor holding a source (for
    that factor, an outer cycle); any other holds its sources' inner reach."""
    parts = [(sources >> c.offsets[i]) & ((1 << h.n) - 1) for i, h in enumerate(c.factors)]
    outer = c.outer.in_masks if inward else c.outer.out_masks
    first = reduce(or_, (adjacent for part, adjacent in zip(parts, outer) if part), 0)
    whole = _reach(outer, first, depth - 1) if depth else 0
    reached = 0
    for i, h in enumerate(c.factors):
        if whole >> i & 1:
            reached |= ((1 << h.n) - 1) << c.offsets[i]
        elif parts[i]:
            masks = h.in_masks if inward else h.out_masks
            reached |= _reach(masks, parts[i], depth) << c.offsets[i]
    return reached


def require_semicomplete_composition(c: Composition) -> DigraphClass:
    """The outer digraph's classification; refuses a non-semicomplete outer."""
    cls = classify_digraph(c.outer)
    if not cls.is_semicomplete:
        raise PreconditionError("outer digraph is not semicomplete")
    return cls


def require_strong_semicomplete_composition(c: Composition) -> DigraphClass:
    """The outer digraph's classification; refuses an outer that is not
    strong semicomplete."""
    cls = require_semicomplete_composition(c)
    if not cls.is_strong:
        raise PreconditionError("outer digraph is not strong")
    return cls


__all__ = [
    "Composition",
    "CompositionVertex",
    "compose",
    "flatten",
    "require_semicomplete_composition",
    "require_strong_semicomplete_composition",
]
