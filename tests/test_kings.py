from __future__ import annotations

import pytest

from kingkernel import (
    Constraint,
    Digraph,
    FactorKingFlag,
    GenSpec,
    Kind,
    KingWitnessReason,
    PreconditionError,
    TheoremViolation,
    build_digraph,
    can_establish,
    classified_flat_three_kings,
    classify_three_kings,
    compose,
    composition_all_k_kings,
    composition_has_k_king,
    distances_from,
    establish,
    flatten,
    four_king_bound_report,
    generate,
    k_kings,
    non_king_dominator_witness,
    out_eccentricities,
)
import kingkernel.kings as kings_module
from kingkernel.experiments import path_like_tournament
from bruteforce import CountingMasks, brute_k_kings

THREE_CYCLE = [(0, 1), (1, 2), (2, 0)]
TRANSITIVE = [(0, 1), (0, 2), (1, 2)]
# strong tournament 0->1->2->3->0 with chords 0->2 and 1->3
STRONG_FOUR = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
# smallest establishable tournament found by exhaustive scan over n <= 6
ESTABLISHABLE_SIX = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
    (3, 4), (3, 5), (4, 0), (4, 1), (4, 5), (5, 0), (5, 1),
]


def singletons(t: int):
    return tuple(build_digraph(1, []) for _ in range(t))


class TestKKings:
    def test_rejects_k_below_two(self):
        with pytest.raises(PreconditionError):
            k_kings(build_digraph(3, THREE_CYCLE), 1)

    def test_three_cycle_all_strict(self):
        report = k_kings(build_digraph(3, THREE_CYCLE), 2)
        assert report.kings == frozenset({0, 1, 2})
        assert report.strict == frozenset({0, 1, 2})

    def test_transitive_triangle_source_not_strict(self):
        report = k_kings(build_digraph(3, TRANSITIVE), 2)
        assert report.kings == frozenset({0})
        assert report.strict == frozenset()
        assert report.ecc_out[0] == 1

    def test_strong_four_tournament(self):
        report = k_kings(build_digraph(4, STRONG_FOUR), 3)
        assert report.kings == frozenset({0, 1, 2, 3})
        assert report.strict == frozenset({2})
        assert report.ecc_out == (2, 2, 3, 2)

    def test_agrees_with_relaxation_oracle(self):
        d = build_digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        for k in (2, 3, 4):
            assert k_kings(d, k).kings == frozenset(brute_k_kings(d, k))


class TestNonKings:
    """Non-kings are the vertices outside the 3-king set."""

    def test_three_cycle_has_none(self):
        d = build_digraph(3, THREE_CYCLE)
        assert frozenset(range(3)) - k_kings(d, 3).kings == frozenset()

    def test_path_tail_cannot_reach_back(self):
        d = build_digraph(3, [(0, 1), (1, 2)])
        assert frozenset(range(3)) - k_kings(d, 3).kings == frozenset({1, 2})

    def test_transitive_triangle(self):
        d = build_digraph(3, TRANSITIVE)
        assert frozenset(range(3)) - k_kings(d, 3).kings == frozenset({1, 2})


class TestExistenceCharacterization:
    def test_short_outer_cycle_route(self):
        c = compose(
            build_digraph(2, [(0, 1), (1, 0)]),
            (build_digraph(2, []), build_digraph(1, [])),
        )
        witness = composition_has_k_king(c, 2)
        assert witness.exists
        assert witness.witness_factor == 0
        assert witness.reason is KingWitnessReason.SHORT_OUTER_CYCLE
        assert k_kings(flatten(c), 2).kings

    def test_singleton_factor_route(self):
        c = compose(build_digraph(3, TRANSITIVE), singletons(3))
        witness = composition_has_k_king(c, 3)
        assert witness.exists
        assert witness.witness_factor == 0
        assert witness.reason is KingWitnessReason.FACTOR_HAS_KING

    def test_kingless_when_no_route_applies(self):
        # outer king sits on no cycle and its large factor has no king
        c = compose(
            build_digraph(2, [(0, 1)]),
            (build_digraph(2, []), build_digraph(1, [])),
        )
        witness = composition_has_k_king(c, 2)
        assert not witness.exists
        assert witness.witness_factor is None
        assert not k_kings(flatten(c), 2).kings

    def test_rejects_k_below_two(self):
        c = compose(build_digraph(2, [(0, 1), (1, 0)]), singletons(2))
        with pytest.raises(PreconditionError):
            composition_has_k_king(c, 1)


class TestAllVerticesCharacterization:
    def test_singletons_over_a_cycle(self):
        c = compose(build_digraph(3, THREE_CYCLE), singletons(3))
        assert composition_all_k_kings(c, 2)

    def test_large_factor_saved_by_the_outer_cycle(self):
        c = compose(
            build_digraph(3, THREE_CYCLE),
            (build_digraph(2, []), *singletons(2)),
        )
        assert composition_all_k_kings(c, 3)
        assert k_kings(flatten(c), 3).kings == frozenset(range(4))

    def test_non_king_outer_vertex_blocks(self):
        c = compose(build_digraph(3, TRANSITIVE), singletons(3))
        assert not composition_all_k_kings(c, 3)


class TestThreeKingClassification:
    def test_cycle_outer_marks_every_factor(self):
        c = compose(build_digraph(3, THREE_CYCLE), singletons(3))
        cls = classify_three_kings(c)
        assert cls.flags == (FactorKingFlag.ALL_3KINGS,) * 3
        assert cls.outer_three_kings == frozenset({0, 1, 2})
        assert classified_flat_three_kings(c, cls) == frozenset({0, 1, 2})

    def test_strong_four_tournament_with_a_big_factor(self):
        c = compose(
            build_digraph(4, STRONG_FOUR),
            (build_digraph(2, []), *singletons(3)),
        )
        cls = classify_three_kings(c)
        assert cls.flags == (FactorKingFlag.ALL_3KINGS,) * 4
        assert classified_flat_three_kings(c, cls) == k_kings(flatten(c), 3).kings

    def test_far_vertex_factor_flagged_none(self):
        # vertex 0 of this tournament is at distance 4 from the last vertex
        outer = path_like_tournament(5)
        assert out_eccentricities(outer)[0] == 4
        c = compose(outer, singletons(5))
        cls = classify_three_kings(c)
        assert cls.flags[0] is FactorKingFlag.NO_3KINGS
        assert 0 not in cls.outer_three_kings

    def test_refuses_non_strong_outer(self):
        c = compose(build_digraph(3, TRANSITIVE), singletons(3))
        with pytest.raises(PreconditionError, match="strong"):
            classify_three_kings(c)

    def test_refuses_non_semicomplete_outer(self):
        c = compose(build_digraph(2, []), singletons(2))
        with pytest.raises(PreconditionError):
            classify_three_kings(c)


class TestNonKingWitness:
    @pytest.fixture
    def with_non_kings(self):
        return compose(path_like_tournament(5), singletons(5))

    def test_witness_validates(self, with_non_kings):
        c = with_non_kings
        q = flatten(c)
        report = k_kings(q, 3)
        assert report.kings != frozenset(range(q.n))
        for u in sorted(set(range(q.n)) - report.kings):
            v = non_king_dominator_witness(c, u)
            assert v in report.kings
            assert q.has_arc(v, u)
            assert distances_from(q, u)[v] > 3

    def test_smallest_witness_returned(self, with_non_kings):
        c = with_non_kings
        q = flatten(c)
        report = k_kings(q, 3)
        u = min(set(range(q.n)) - report.kings)
        v = non_king_dominator_witness(c, u)
        for smaller in range(v):
            valid = (
                smaller in report.kings
                and q.has_arc(smaller, u)
                and distances_from(q, u)[smaller] > 3
            )
            assert not valid

    def test_rejects_actual_king(self, with_non_kings):
        report = k_kings(flatten(with_non_kings), 3)
        king = min(report.kings)
        with pytest.raises(PreconditionError):
            non_king_dominator_witness(with_non_kings, king)

    def test_rejects_out_of_range(self, with_non_kings):
        with pytest.raises(PreconditionError):
            non_king_dominator_witness(with_non_kings, 99)


class TestEstablish:
    def test_cycle_outer_has_no_strict_king(self):
        report = can_establish(build_digraph(3, THREE_CYCLE))
        assert not report.ok
        assert report.strict_three_kings == frozenset()

    def test_blocked_by_undominated_two_kings(self):
        report = can_establish(build_digraph(4, STRONG_FOUR))
        assert not report.ok
        assert report.strict_three_kings == frozenset({2})
        assert report.two_kings == frozenset({0, 1, 3})
        assert report.blocking_two_kings == frozenset({0, 1})

    def test_rejects_non_strong(self):
        with pytest.raises(PreconditionError):
            can_establish(build_digraph(3, TRANSITIVE))

    @pytest.mark.parametrize(
        "t", [build_digraph(4, STRONG_FOUR), build_digraph(6, ESTABLISHABLE_SIX)]
    )
    def test_one_walk_per_vertex(self, t, walks):
        # one eccentricity pass answers strongness and both king sets
        can_establish(t)
        assert walks[0] == t.n

    def test_known_eligible_tournament(self):
        report = can_establish(build_digraph(6, ESTABLISHABLE_SIX))
        assert report.ok
        assert report.strict_three_kings
        assert not report.blocking_two_kings

    def test_extension_pins_the_original_king_set(self):
        outer = build_digraph(6, ESTABLISHABLE_SIX)
        c = compose(outer, singletons(6))
        extended = establish(c)
        added = len(can_establish(outer).strict_three_kings)
        assert extended.t == c.t + added
        assert all(h.n == 1 for h in extended.factors[c.t:])
        assert k_kings(flatten(extended), 3).kings == frozenset(range(6))

    def test_extension_with_a_wide_factor(self):
        outer = build_digraph(6, ESTABLISHABLE_SIX)
        c = compose(outer, (build_digraph(2, []), *singletons(5)))
        extended = establish(c)
        flat_kings = k_kings(flatten(extended), 3).kings
        assert flat_kings == frozenset(range(c.total_vertices))

    def test_rejects_ineligible_input(self):
        c = compose(build_digraph(3, THREE_CYCLE), singletons(3))
        with pytest.raises(PreconditionError):
            establish(c)

    def test_postcondition_catches_a_broken_extension(self, monkeypatch):
        # drop every arc u_j -> w_i into the added outer vertices: no original
        # vertex reaches them, so the extension has no 3-king at all
        c = compose(build_digraph(6, ESTABLISHABLE_SIX), singletons(6))
        real = kings_module.build_digraph

        def without_arcs_into_added(n, arcs):
            return real(n, [(u, v) for u, v in arcs if not u < c.t <= v])

        monkeypatch.setattr(kings_module, "build_digraph", without_arcs_into_added)
        with pytest.raises(TheoremViolation, match="postcondition"):
            establish(c)


class TestFourKingBound:
    def test_six_vertices_over_a_cycle(self):
        c = compose(
            build_digraph(3, THREE_CYCLE),
            tuple(build_digraph(2, []) for _ in range(3)),
        )
        report = four_king_bound_report(c)
        assert report.n == 6
        assert report.four_kings == 6
        assert report.bound_satisfied

    def test_six_vertices_over_a_digon(self):
        c = compose(
            build_digraph(2, [(0, 1), (1, 0)]),
            (build_digraph(3, []), build_digraph(3, [])),
        )
        report = four_king_bound_report(c)
        assert report.four_kings >= 5
        assert report.bound_satisfied

    def test_small_instances_pass_vacuously(self):
        c = compose(
            build_digraph(2, [(0, 1), (1, 0)]),
            (build_digraph(3, []), build_digraph(2, [])),
        )
        report = four_king_bound_report(c)
        assert report.n == 5
        assert report.bound_satisfied

    def test_rejects_non_strong(self):
        c = compose(build_digraph(3, TRANSITIVE), singletons(3))
        with pytest.raises(PreconditionError):
            four_king_bound_report(c)


class TestOuterWalkWork:
    """Mask reads, not time: a walk from u_i stops inside a level once it has
    reached every outer vertex. A walk that expands whole levels reads about
    t masks per outer vertex, 40,000 on this outer for the first call."""

    @pytest.mark.parametrize(
        "decide",
        [lambda c: composition_all_k_kings(c, 3), classify_three_kings],
        ids=["composition_all_k_kings", "classify_three_kings"],
    )
    def test_outer_reads_on_a_large_strong_tournament(self, decide):
        spec = GenSpec(
            seed=1, kind=Kind.TOURNAMENT, t=200, size_min=1, size_max=3,
            constraints=frozenset({Constraint.STRONG_OUTER}),
        )
        c = generate(spec)
        out, into = CountingMasks(c.outer.out_masks), CountingMasks(c.outer.in_masks)
        counted = compose(Digraph(c.t, out, into), c.factors)
        decide(counted)
        assert out.reads + into.reads <= 5000
