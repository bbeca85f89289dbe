from __future__ import annotations

import hashlib

import pytest

from kingkernel import (
    Constraint,
    GenSpec,
    GenerationError,
    Kind,
    PreconditionError,
    SplitMix64,
    build_digraph,
    classify_digraph,
    compose,
    derive,
    flatten,
    generate,
    induced_subdigraph,
    is_strong,
    k_kings,
    mix64,
)
from kingkernel.fileformat import format_composition, format_digraph
from kingkernel.gen import (
    all_semicomplete_digraphs,
    all_tournaments,
    random_digraph,
    random_semicomplete,
    random_tournament,
    unique_three_king_fixture,
)
from bruteforce import brute_components

TOURNAMENT_5_42_SHA = "94fd33823740cb07680d0fcb483fd6d234ff69e4e2f4859e164d92896a8d684a"
COMPOSITION_PIN_SHA = "2c51cf4d11cfb0dd5637681c67c54c0d99030afdfd6c4a2b3b8877bfaf1c869f"
FIXTURE_SHA = "a01317217cbf9a5246cd7a7474bd5168092c35c3ab89edd41ef74c3a247a1969"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestStream:
    def test_mix64_is_a_pure_function(self):
        assert mix64(12345) == mix64(12345)
        assert mix64(0) != mix64(1)

    def test_derive_separates_labels(self):
        seeds = {derive(7), derive(7, 0), derive(7, 1), derive(7, 0, 0), derive(7, 0, 1)}
        assert len(seeds) == 5

    def test_derive_is_order_sensitive(self):
        assert derive(3, 1, 2) != derive(3, 2, 1)

    def test_coin_is_binary(self):
        rng = SplitMix64(99)
        draws = {rng.coin() for _ in range(64)}
        assert draws <= {0, 1}
        assert len(draws) == 2

    def test_randint_stays_in_range(self):
        rng = SplitMix64(1)
        for _ in range(200):
            assert 3 <= rng.randint(3, 7) <= 7

    def test_below_edge_probabilities(self):
        rng = SplitMix64(5)
        assert not any(rng.below(0.0) for _ in range(50))
        assert all(rng.below(1.0) for _ in range(50))

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(404), SplitMix64(404)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


class TestRandomDigraphs:
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_tournament_shape(self, n, seed):
        d = random_tournament(n, seed)
        assert classify_digraph(d).is_tournament
        assert d.arc_count == n * (n - 1) // 2

    def test_tournament_pinned_instance(self):
        assert sha(format_digraph(random_tournament(5, 42))) == TOURNAMENT_5_42_SHA

    @pytest.mark.parametrize("seed", [2, 17])
    def test_semicomplete_shape(self, seed):
        d = random_semicomplete(5, seed, 0.4)
        assert classify_digraph(d).is_semicomplete

    def test_semicomplete_extremes(self):
        assert classify_digraph(random_semicomplete(4, 8, 0.0)).is_tournament
        full = random_semicomplete(4, 8, 1.0)
        assert full.arc_count == 12

    def test_density_extremes(self):
        assert random_digraph(5, 3, 0.0).arc_count == 0
        assert random_digraph(5, 3, 1.0).arc_count == 20


class TestGenerate:
    def test_equal_specs_give_equal_instances(self):
        spec = GenSpec(seed=11, kind=Kind.SEMICOMPLETE, n=6, p2=0.3)
        assert generate(spec) == generate(spec)

    def test_strong_constraint_enforced(self):
        spec = GenSpec(
            seed=1,
            kind=Kind.TOURNAMENT,
            n=5,
            constraints=frozenset({Constraint.STRONG_OUTER}),
        )
        assert is_strong(generate(spec))

    def test_impossible_constraint_exhausts_retries(self):
        # no 2-vertex tournament is strong, so rejection can never succeed
        spec = GenSpec(
            seed=1,
            kind=Kind.TOURNAMENT,
            n=2,
            constraints=frozenset({Constraint.STRONG_OUTER}),
        )
        with pytest.raises(GenerationError):
            generate(spec)

    def test_composition_respects_the_spec_window(self):
        spec = GenSpec(
            seed=5, kind=Kind.COMPOSITION, t=4, size_min=2, size_max=3, p=0.4
        )
        c = generate(spec)
        assert c.t == 4
        assert all(2 <= h.n <= 3 for h in c.factors)

    def test_composition_pinned_instance(self):
        spec = GenSpec(
            seed=20260817,
            kind=Kind.COMPOSITION,
            t=3,
            size_min=1,
            size_max=3,
            p=0.5,
            p2=0.25,
            constraints=frozenset({Constraint.STRONG_OUTER}),
        )
        c = generate(spec)
        assert sha(format_composition(c)) == COMPOSITION_PIN_SHA
        assert is_strong(c.outer)

    def test_plain_kind_requires_n(self):
        with pytest.raises(PreconditionError):
            generate(GenSpec(seed=1, kind=Kind.TOURNAMENT))


class TestExhaustiveEnumerators:
    def test_tournament_count(self):
        ts = list(all_tournaments(3))
        assert len(ts) == 8
        assert len(set(ts)) == 8
        assert all(classify_digraph(t).is_tournament for t in ts)

    def test_semicomplete_count(self):
        ds = list(all_semicomplete_digraphs(2))
        assert len(ds) == 3
        assert all(classify_digraph(d).is_semicomplete for d in ds)


class TestUniqueThreeKingFixture:
    def test_pinned_serialization(self):
        assert sha(format_composition(unique_three_king_fixture())) == FIXTURE_SHA

    def test_flat_graph_has_no_source(self):
        q = flatten(unique_three_king_fixture())
        assert classify_digraph(q).sources == frozenset()

    def test_outer_has_a_source(self):
        c = unique_three_king_fixture()
        assert classify_digraph(c.outer).sources == frozenset({0})

    def test_unique_three_king_is_the_path_midpoint(self):
        c = unique_three_king_fixture()
        assert k_kings(flatten(c), 3).kings == frozenset({3})

    def test_king_and_path_end_not_adjacent(self):
        q = flatten(unique_three_king_fixture())
        assert not q.has_arc(3, 0)
        assert not q.has_arc(0, 3)

    def test_six_vertex_variant_breaks_uniqueness(self):
        # with the shorter bidirected path both midpoints tie, which is why
        # the fixture's path has seven vertices
        c = unique_three_king_fixture()
        six, _ = induced_subdigraph(c.factors[0], range(6))
        kings = k_kings(flatten(compose(c.outer, (six, *c.factors[1:]))), 3).kings
        assert kings == frozenset({2, 3})

    def test_outer_is_semicomplete_but_not_strong(self):
        c = unique_three_king_fixture()
        cls = classify_digraph(c.outer)
        assert cls.is_semicomplete
        assert not cls.is_strong
        assert len(brute_components(flatten(c))) > 1
