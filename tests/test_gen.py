from __future__ import annotations

import hashlib

import pytest

from kingkernel import (
    Constraint,
    Digraph,
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
from kingkernel.experiments import _MIXED_KINDS, _SEMI_KINDS, _corpus_composition
from kingkernel.fileformat import format_composition, format_digraph
from kingkernel.gen import (
    all_semicomplete_digraphs,
    all_tournaments,
    random_digraph,
    random_semicomplete,
    random_tournament,
    unique_three_king_fixture,
)
from hypothesis import given, settings, strategies as st

from bruteforce import brute_components

TOURNAMENT_5_42_SHA = "94fd33823740cb07680d0fcb483fd6d234ff69e4e2f4859e164d92896a8d684a"
COMPOSITION_PIN_SHA = "2c51cf4d11cfb0dd5637681c67c54c0d99030afdfd6c4a2b3b8877bfaf1c869f"
FIXTURE_SHA = "a01317217cbf9a5246cd7a7474bd5168092c35c3ab89edd41ef74c3a247a1969"
# Batch pins: every instance, draw and output of the generators is fixed by
# the PRNG contract, so these hashes must never move.
TOURNAMENT_BATCH_SHA = "3654ad226aa3aa05de9135472a63c5fbb0b98e67152bb9450575eeae14ac0542"
SEMICOMPLETE_BATCH_SHA = "201359e28b042a6a47e47140c4c1d959d3e75501e38b5a13877a67c8bd266f24"
ERDOS_RENYI_BATCH_SHA = "b98f54f7c26151a60fbcbf86fe667b2f86a62f696e606de491c8819baedafd8e"
ALL_TOURNAMENTS_5_SHA = "42d94a1e809051e72554e3b1a1eac352b5e8149316a9ebe5f37f5f95862d30e8"
ALL_SEMICOMPLETE_4_SHA = "4d3090729ceeef58aa5467d59389760614a154355a9d1c4ffc9f86faffa9b623"
CONSTRAINED_GENERATE_SHA = "eae377d956b6440cb5a038ade5ed3ec4feecd75e2797696208775cc3c4366d24"
CORPUS_COMPOSITION_SHA = "b08b28226eda7a3907369675b807daf4643486a4e828690957c757f97dab6595"

# every subset of the outer constraints, the empty one included
CONSTRAINT_SETS = [
    frozenset(c for bit, c in enumerate(Constraint) if mask >> bit & 1)
    for mask in range(1 << len(Constraint))
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tournament_batch() -> str:
    return "".join(
        format_digraph(random_tournament(n, seed))
        for seed in range(12)
        for n in (1, 2, 5, 9)
    )


def semicomplete_batch() -> str:
    return "".join(
        format_digraph(random_semicomplete(n, seed, p2))
        for seed in range(12)
        for n in (1, 3, 7)
        for p2 in (0.0, 0.3, 1.0)
    )


def erdos_renyi_batch() -> str:
    return "".join(
        format_digraph(random_digraph(n, seed, p))
        for seed in range(12)
        for n in (0, 1, 4, 8)
        for p in (0.0, 0.2, 0.5, 1.0)
    )


def constrained_generate_batch() -> str:
    """Plain digraphs of every kind and compositions, under every constraint
    set, so the rejection loops and their screening are pinned too."""
    out = []
    for constraints in CONSTRAINT_SETS:
        for seed in range(4):
            for kind in (Kind.TOURNAMENT, Kind.SEMICOMPLETE, Kind.ERDOS_RENYI):
                for n in (3, 6):
                    spec = GenSpec(seed=seed, kind=kind, n=n, constraints=constraints)
                    out.append(format_digraph(generate(spec)))
            spec = GenSpec(
                seed=seed,
                kind=Kind.COMPOSITION,
                t=4,
                size_min=1,
                size_max=3,
                constraints=constraints,
            )
            out.append(format_composition(generate(spec)))
    return "".join(out)


def corpus_composition_batch() -> str:
    strong = frozenset({Constraint.STRONG_OUTER})
    sink_free = frozenset({Constraint.NO_SINK_OUTER})
    return "".join(
        format_composition(_corpus_composition(seed, idx, kinds, constraints=constraints))
        for seed in (1, 20260817)
        for idx in range(24)
        for kinds, constraints in (
            (_MIXED_KINDS, frozenset()),
            (_SEMI_KINDS, strong),
            (_SEMI_KINDS, sink_free),
        )
    )


def rebuilt(d: Digraph) -> Digraph:
    return build_digraph(d.n, list(d.arcs()))


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


    def test_batches_are_pinned(self):
        assert sha(tournament_batch()) == TOURNAMENT_BATCH_SHA
        assert sha(semicomplete_batch()) == SEMICOMPLETE_BATCH_SHA
        assert sha(erdos_renyi_batch()) == ERDOS_RENYI_BATCH_SHA

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(["tournament", "semicomplete", "erdos-renyi"]),
        st.integers(0, 2**64 - 1),
        st.integers(1, 9),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    def test_generated_masks_are_the_checked_build(self, kind, seed, n, p):
        # the generators fill the masks without build_digraph's checks, so
        # they must equal what the checked constructor makes of their arcs
        d = {
            "tournament": lambda: random_tournament(n, seed),
            "semicomplete": lambda: random_semicomplete(n, seed, p),
            "erdos-renyi": lambda: random_digraph(n, seed, p),
        }[kind]()
        assert d == rebuilt(d)


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

    def test_constrained_instances_are_pinned(self):
        assert sha(constrained_generate_batch()) == CONSTRAINED_GENERATE_SHA

    def test_corpus_compositions_are_pinned(self):
        assert sha(corpus_composition_batch()) == CORPUS_COMPOSITION_SHA

    @pytest.mark.parametrize("constraints", CONSTRAINT_SETS, ids=str)
    def test_constrained_instances_satisfy_their_constraints(self, constraints):
        for seed in range(6):
            d = generate(GenSpec(seed=seed, kind=Kind.ERDOS_RENYI, n=5, constraints=constraints))
            cls = classify_digraph(d)
            assert cls.is_strong or Constraint.STRONG_OUTER not in constraints
            assert not cls.sinks or Constraint.NO_SINK_OUTER not in constraints
            assert not cls.sources or Constraint.NO_SOURCE_OUTER not in constraints

    def test_sink_free_screening_walks_nothing(self, walks):
        # a constraint that is a mask test must not pay for a strongness walk
        spec = GenSpec(
            seed=3,
            kind=Kind.ERDOS_RENYI,
            n=6,
            p=0.3,
            constraints=frozenset({Constraint.NO_SINK_OUTER}),
        )
        generate(spec)
        assert walks[0] == 0

    def test_plain_kind_requires_n(self):
        with pytest.raises(PreconditionError):
            generate(GenSpec(seed=1, kind=Kind.TOURNAMENT))


class TestExhaustiveEnumerators:
    def test_tournament_count(self):
        ts = list(all_tournaments(3))
        assert len(ts) == 8
        assert len(set(ts)) == 8
        assert all(classify_digraph(t).is_tournament for t in ts)

    def test_enumerations_are_pinned(self):
        assert sha("".join(map(format_digraph, all_tournaments(5)))) == ALL_TOURNAMENTS_5_SHA
        assert (
            sha("".join(map(format_digraph, all_semicomplete_digraphs(4))))
            == ALL_SEMICOMPLETE_4_SHA
        )

    def test_enumerated_masks_are_the_checked_build(self):
        for d in [*all_tournaments(4), *all_semicomplete_digraphs(4)]:
            assert d == rebuilt(d)

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
