from __future__ import annotations

import gc
import weakref

import pytest

from kingkernel import (
    PreconditionError,
    build_digraph,
    classify_digraph,
    compose,
    flatten,
    require_semicomplete_composition,
    require_strong_semicomplete_composition,
)
from bruteforce import brute_flat_arcs


def singletons(t: int):
    return tuple(build_digraph(1, []) for _ in range(t))


def two_cycle():
    return build_digraph(2, [(0, 1), (1, 0)])


def three_cycle():
    return build_digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestCompose:
    def test_rejects_single_outer_vertex(self):
        with pytest.raises(PreconditionError):
            compose(build_digraph(1, []), singletons(1))

    def test_rejects_factor_count_mismatch(self):
        with pytest.raises(PreconditionError):
            compose(two_cycle(), singletons(3))

    def test_rejects_empty_factor(self):
        with pytest.raises(PreconditionError):
            compose(two_cycle(), (build_digraph(0, []), build_digraph(1, [])))

    def test_all_singletons_reproduce_outer(self):
        c = compose(three_cycle(), singletons(3))
        assert flatten(c) == three_cycle()

    def test_extension_bundles_only(self):
        arcless = (build_digraph(2, []), build_digraph(1, []))
        c = compose(build_digraph(2, [(0, 1)]), arcless)
        assert sorted(flatten(c).arcs()) == [(0, 2), (1, 2)]

    def test_arc_count_follows_the_bundle_formula(self):
        # 2 internal arcs, then bundles 2*1 + 1*1 + 1*2 along the outer cycle
        c = compose(three_cycle(), (two_cycle(), *singletons(2)))
        assert flatten(c).arc_count == 7

    def test_offsets_accumulate_sizes(self):
        c = compose(
            three_cycle(),
            (build_digraph(3, []), build_digraph(2, []), build_digraph(1, [])),
        )
        assert c.offsets == (0, 3, 5)
        assert c.total_vertices == 6


class TestVertexMap:
    def test_singleton_factors(self):
        c = compose(two_cycle(), singletons(2))
        assert c.flat_id(0, 0) == 0
        assert c.flat_id(1, 0) == 1

    def test_second_factor_offset(self):
        c = compose(two_cycle(), (build_digraph(2, []), build_digraph(1, [])))
        assert c.flat_id(1, 0) == 2
        assert c.locate(2).factor == 1
        assert c.locate(2).inner == 0

    def test_round_trip_bijection(self):
        c = compose(
            three_cycle(),
            (build_digraph(3, []), build_digraph(2, []), build_digraph(1, [])),
        )
        v = c.locate(4)
        assert (v.factor, v.inner, v.flat) == (1, 1, 4)
        for flat in range(c.total_vertices):
            w = c.locate(flat)
            assert c.flat_id(w.factor, w.inner) == flat

    def test_locate_out_of_range(self):
        c = compose(two_cycle(), singletons(2))
        with pytest.raises(PreconditionError):
            c.locate(2)


class TestFlatten:
    def test_matches_definition_on_mixed_factors(self):
        c = compose(
            three_cycle(),
            (two_cycle(), build_digraph(2, [(1, 0)]), build_digraph(1, [])),
        )
        assert set(flatten(c).arcs()) == brute_flat_arcs(c)

    def test_arcless_outer_gives_disjoint_union(self):
        c = compose(build_digraph(2, []), (two_cycle(), two_cycle()))
        assert sorted(flatten(c).arcs()) == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_deterministic_and_idempotent(self):
        c = compose(three_cycle(), (two_cycle(), *singletons(2)))
        assert flatten(c) == flatten(c)

    def test_result_is_not_retained(self):
        c = compose(three_cycle(), (two_cycle(), *singletons(2)))
        q = flatten(c)
        ref = weakref.ref(q)
        del q
        gc.collect()
        assert ref() is None


class TestProfile:
    """The require_* checks return the outer digraph's classification or
    refuse the composition."""

    def test_two_cycle_outer_is_strong_semicomplete(self):
        c = compose(two_cycle(), singletons(2))
        cls = require_strong_semicomplete_composition(c)
        assert cls == classify_digraph(c.outer)
        assert cls.is_semicomplete and cls.is_strong
        assert require_semicomplete_composition(c) == cls

    def test_transitive_triangle_outer_has_a_source(self):
        outer = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
        c = compose(outer, singletons(3))
        cls = require_semicomplete_composition(c)
        assert cls == classify_digraph(outer)
        assert cls.sources == frozenset({0})
        assert cls.sinks == frozenset({2})
        with pytest.raises(PreconditionError, match="^outer digraph is not strong$"):
            require_strong_semicomplete_composition(c)

    def test_arcless_outer_is_not_semicomplete(self):
        c = compose(build_digraph(2, []), singletons(2))
        for require in (
            require_semicomplete_composition,
            require_strong_semicomplete_composition,
        ):
            with pytest.raises(
                PreconditionError, match="^outer digraph is not semicomplete$"
            ):
                require(c)
