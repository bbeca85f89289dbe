from __future__ import annotations

import dataclasses
import math

import pytest

from kingkernel import (
    Digraph,
    PreconditionError,
    UNREACHABLE,
    build_digraph,
    classify_digraph,
    distances_from,
    distances_to,
    induced_subdigraph,
    is_strong,
    min_cycle_length_through,
    out_eccentricities,
)
from kingkernel.digraph import _levels
from kingkernel.gen import random_digraph

from bruteforce import CountingMasks, brute_distances, reverse_arcs


def path(n: int) -> Digraph:
    return build_digraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Digraph:
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuild:
    def test_isolated_vertex(self):
        d = build_digraph(1, [])
        assert d.n == 1
        assert d.arc_count == 0

    def test_two_cycle_mirrors_adjacency(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert d.out_masks[0] == 0b10
        assert d.in_masks[0] == 0b10

    def test_duplicate_arcs_collapse(self):
        d = build_digraph(3, [(0, 1), (0, 1), (1, 2)])
        assert d.arc_count == 2

    def test_loop_rejected(self):
        with pytest.raises(PreconditionError, match=r"\(1, 1\)"):
            build_digraph(2, [(0, 1), (1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            build_digraph(2, [(0, 2)])
        with pytest.raises(PreconditionError):
            build_digraph(2, [(-1, 0)])

    def test_has_arc_rejects_endpoints_outside_the_vertex_range(self):
        d = build_digraph(3, [(2, 0)])
        assert d.has_arc(2, 0) and not d.has_arc(0, 2)
        for u, v in ((-1, 0), (3, 0), (0, -1), (0, 3)):
            bad = u if not 0 <= u < 3 else v
            with pytest.raises(PreconditionError, match=rf"^vertex {bad} out of range for n=3$"):
                d.has_arc(u, v)

    def test_mirror_consistency(self):
        d = build_digraph(4, [(0, 1), (2, 1), (3, 0), (1, 3)])
        for u, v in d.arcs():
            assert d.in_masks[v] >> u & 1
        assert list(d.arcs()) == [(0, 1), (1, 3), (2, 1), (3, 0)]

    def test_cached_masks_leave_value_semantics_alone(self):
        arcs = [(0, 1), (1, 2), (2, 0), (0, 2)]
        a, b = build_digraph(3, arcs), build_digraph(3, arcs)
        before = hash(b)
        assert a.out_masks == (0b110, 0b100, 0b001)
        assert a.in_masks == (0b100, 0b001, 0b011)
        assert a == b
        assert hash(a) == hash(b) == before
        assert [f.name for f in dataclasses.fields(Digraph)] == ["n", "out_masks", "in_masks"]


class TestDistances:
    def test_forward_along_path(self):
        assert distances_from(path(3), 0) == [0, 1, 2]

    def test_nothing_behind_the_path_end(self):
        assert distances_from(path(3), 2) == [UNREACHABLE, UNREACHABLE, 0]

    def test_around_a_cycle(self):
        assert distances_from(cycle(3), 0) == [0, 1, 2]

    def test_source_out_of_range(self):
        with pytest.raises(PreconditionError):
            distances_from(path(3), 3)

    def test_distances_to_is_converse_view(self):
        d = build_digraph(4, [(0, 1), (1, 2), (3, 1), (2, 3)])
        for v in range(4):
            assert distances_to(d, v) == distances_from(reverse_arcs(d), v)

    def test_unreachable_marker_semantics(self):
        # the marker must survive comparisons against any finite distance
        assert UNREACHABLE > 10**9
        assert not UNREACHABLE <= 3
        assert UNREACHABLE == math.inf


class TestMultiWordMasks:
    # 130 vertices, so every adjacency mask spans three 64-bit words; vertex
    # 129 is made a sink so that some distances are UNREACHABLE
    d = build_digraph(
        130, [(u, v) for u, v in random_digraph(130, 20261018, 0.04).arcs() if u != 129]
    )

    def test_distances_match_bellman_ford(self):
        for s in (0, 1, 63, 64, 129):
            assert distances_from(self.d, s) == brute_distances(self.d, s)
            assert distances_to(self.d, s) == brute_distances(reverse_arcs(self.d), s)

    def test_eccentricities_match_bellman_ford(self):
        assert out_eccentricities(self.d) == [
            max(brute_distances(self.d, s)) for s in range(self.d.n)
        ]

    def test_arcs_and_degrees_match_the_arc_list(self):
        # endpoints on both sides of each 64-bit word boundary, one duplicate
        arcs = [
            (0, 63), (63, 64), (64, 127), (127, 128), (128, 129), (129, 0),
            (0, 129), (64, 0), (128, 63), (63, 64), (5, 128), (127, 5),
        ]
        d = build_digraph(130, arcs)
        distinct = sorted(set(arcs))
        assert list(d.arcs()) == distinct
        assert d.arc_count == len(distinct) == len(arcs) - 1
        for v in range(d.n):
            assert d.out_degree(v) == sum(1 for a, _ in distinct if a == v)
            assert d.in_degree(v) == sum(1 for _, b in distinct if b == v)


class TestEccentricities:
    def test_cycle_is_uniform(self):
        assert out_eccentricities(cycle(4)) == [3, 3, 3, 3]

    def test_path_grows_toward_the_start(self):
        assert out_eccentricities(path(3)) == [2, UNREACHABLE, UNREACHABLE]

    def test_singleton_has_zero(self):
        assert out_eccentricities(build_digraph(1, [])) == [0]


class TestLevels:
    def test_walk_stops_once_every_vertex_is_reached(self):
        n = 6
        complete = build_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        masks = CountingMasks(complete.out_masks)
        assert list(_levels(masks, 1)) == [1, (1 << n) - 2]
        # vertex 0's mask reaches everyone; the second level is never expanded
        assert masks.reads == 1

    def test_walk_stops_inside_a_level_once_every_vertex_is_reached(self):
        # level 1 is {1, 2, 3}; vertex 1 alone reaches the rest, so the masks
        # of 2 and 3 are never read, though they point into level 2 as well
        d = build_digraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5)])
        masks = CountingMasks(d.out_masks)
        assert list(_levels(masks, 1)) == [0b1, 0b1110, 0b110000]
        assert masks.reads == 2


class TestStrongDecomposition:
    """is_strong: whether the strong decomposition is a single component."""

    def test_is_strong_shortcuts(self):
        assert is_strong(build_digraph(0, []))
        assert is_strong(build_digraph(1, []))
        assert is_strong(cycle(5))
        assert not is_strong(path(2))


class TestClassify:
    def test_two_cycle(self):
        cls = classify_digraph(build_digraph(2, [(0, 1), (1, 0)]))
        assert cls.is_semicomplete
        assert not cls.is_tournament
        assert cls.sources == frozenset()
        assert cls.sinks == frozenset()
        assert cls.is_strong

    def test_transitive_triangle(self):
        cls = classify_digraph(build_digraph(3, [(0, 1), (0, 2), (1, 2)]))
        assert cls.is_tournament
        assert cls.sources == frozenset({0})
        assert cls.sinks == frozenset({2})
        assert not cls.is_strong

    def test_isolated_pair(self):
        cls = classify_digraph(build_digraph(2, []))
        assert not cls.is_semicomplete
        assert cls.sources == frozenset({0, 1})
        assert cls.sinks == frozenset({0, 1})


class TestMinCycle:
    def test_triangle(self):
        for v in range(3):
            assert min_cycle_length_through(cycle(3), v) == 3

    def test_vertex_off_every_cycle(self):
        d = build_digraph(3, [(0, 1), (1, 0), (1, 2)])
        assert min_cycle_length_through(d, 2) is UNREACHABLE

    def test_strong_four_tournament(self):
        # out-neighbors of 0 are {1, 2}; both need two steps back to 0
        d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        assert min_cycle_length_through(d, 0) == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(PreconditionError):
            min_cycle_length_through(cycle(3), 5)


class TestInduced:
    def test_keeps_internal_arcs_only(self):
        d = build_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sub, mapping = induced_subdigraph(d, {1, 2, 3})
        assert sub.n == 3
        assert mapping == {1: 0, 2: 1, 3: 2}
        assert list(sub.arcs()) == [(0, 1), (1, 2)]

    def test_empty_selection(self):
        sub, mapping = induced_subdigraph(cycle(3), set())
        assert sub.n == 0
        assert mapping == {}
