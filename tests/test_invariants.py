from __future__ import annotations

import functools
import json
import math
from itertools import combinations

import jsonschema
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kingkernel import (
    UNREACHABLE,
    CertificateKind,
    Constraint,
    Digraph,
    GenSpec,
    KernelCertificate,
    Kind,
    PreconditionError,
    TheoremViolation,
    build_digraph,
    c3_gadget,
    can_establish,
    classified_flat_three_kings,
    classify_three_kings,
    compose,
    composition_all_k_kings,
    composition_has_k_king,
    composition_k_kernel,
    disjoint_quasi_kernels,
    distances_from,
    distances_to,
    establish,
    flatten,
    four_king_bound_report,
    induced_subdigraph,
    is_strong,
    k_kernel_brute_force,
    k_kings,
    min_cycle_length_through,
    non_king_dominator_witness,
    out_eccentricities,
    quasi_kernel,
    singleton_quasi_kernels,
    schemas,
    validate_certificate,
)
from kingkernel.composition import _composition_reach
from kingkernel.digraph import _levels, _reach
from kingkernel.experiments import (
    DEFAULT_SEED,
    MAX_KEPT_FAILURES,
    ExperimentResult,
    _establishable_outers,
    path_like_tournament,
)
from kingkernel.fileformat import (
    _to_json,
    composition_from_json,
    composition_to_json,
    digraph_from_json,
    digraph_to_json,
    format_composition,
    format_digraph,
    parse_composition,
    parse_digraph,
)
from kingkernel.gen import all_tournaments
from kingkernel.kings import _composition_k_kings, _factor_kings
from bruteforce import (
    brute_components,
    brute_distances,
    brute_eccentricities,
    brute_flat_arcs,
    brute_is_k_kernel,
    brute_is_quasi_kernel,
    brute_k_kings,
    brute_min_cycle_through,
    reverse_arcs,
)


@st.composite
def digraphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_digraph(n, arcs)


@st.composite
def semicompletes(draw, min_n: int = 1, max_n: int = 6):
    n = draw(st.integers(min_n, max_n))
    arcs: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            pick = draw(st.sampled_from(("fwd", "back", "both")))
            if pick != "back":
                arcs.append((u, v))
            if pick != "fwd":
                arcs.append((v, u))
    return build_digraph(n, arcs)


@st.composite
def tournaments(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    return build_digraph(
        n, [(u, v) if draw(st.booleans()) else (v, u) for u in range(n) for v in range(u + 1, n)]
    )


@st.composite
def compositions(draw, min_t: int = 2, max_t: int = 4, min_size: int = 1, max_size: int = 3):
    t = draw(st.integers(min_t, max_t))
    outer = draw(digraphs(min_n=t, max_n=t))
    factors = tuple(draw(digraphs(min_n=min_size, max_n=max_size)) for _ in range(t))
    return compose(outer, factors)


@st.composite
def semicomplete_compositions(
    draw, min_t: int = 2, max_t: int = 4, min_size: int = 1, max_size: int = 3
):
    # only the outer digraph must be semicomplete; factors are unrestricted
    t = draw(st.integers(min_t, max_t))
    outer = draw(semicompletes(min_n=t, max_n=t))
    factors = tuple(
        draw(digraphs(min_n=min_size, max_n=max_size)) for _ in range(t)
    )
    return compose(outer, factors)


@st.composite
def long_factors(draw, min_n: int = 4, max_n: int = 8):
    # a directed path, or a sparse digraph: finite eccentricities up to n-1,
    # so a factor king's order can fall between k and k+1
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        return build_digraph(n, [(v, v + 1) for v in range(n - 1)])
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n + 2))
    return build_digraph(n, arcs)


@st.composite
def long_factor_compositions(draw, min_t: int = 2, max_t: int = 5):
    t = draw(st.integers(min_t, max_t))
    outer = draw(digraphs(min_n=t, max_n=t))
    return compose(outer, tuple(draw(long_factors()) for _ in range(t)))


@st.composite
def path_like_outers(draw, min_t: int = 5, max_t: int = 7):
    # the path-like tournament i -> i+1, j -> i (j >= i+2) has vertices of
    # eccentricity t-1 >= 4; a few added back arcs (2-cycles) keep it strong
    # semicomplete
    t = draw(st.integers(min_t, max_t))
    base = path_like_tournament(t)
    extra = draw(st.lists(st.sampled_from([(v, u) for u, v in base.arcs()]), max_size=2))
    return build_digraph(t, [*base.arcs(), *extra])


@st.composite
def path_like_compositions(draw, min_t: int = 5, max_t: int = 7, max_size: int = 2):
    # compositions over path-like outers have non-kings
    outer = draw(path_like_outers(min_t, max_t))
    factors = tuple(draw(digraphs(min_n=1, max_n=max_size)) for _ in range(outer.n))
    return compose(outer, factors)


class TestDistances:
    @settings(deadline=None, max_examples=80)
    @given(digraphs())
    def test_single_source_distances_match_bellman_ford(self, d):
        for s in range(d.n):
            assert distances_from(d, s) == brute_distances(d, s)

    @settings(deadline=None, max_examples=80)
    @given(digraphs(min_n=1))
    def test_source_at_zero_and_one_step_per_arc(self, d):
        for s in range(d.n):
            dist = distances_from(d, s)
            assert dist[s] == 0
            for u, v in d.arcs():
                assert dist[v] <= dist[u] + 1

    @settings(deadline=None, max_examples=80)
    @given(digraphs(min_n=1))
    def test_inbound_distances_are_outbound_in_the_converse(self, d):
        rev = reverse_arcs(d)
        for v in range(d.n):
            assert distances_to(d, v) == distances_from(rev, v)

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_depth_bounded_reach_matches_brute_force(self, data):
        d = data.draw(digraphs(min_n=1, max_n=7))
        sources = data.draw(st.sets(st.integers(0, d.n - 1)))
        mask = sum(1 << s for s in sources)
        out_dist = [brute_distances(d, s) for s in range(d.n)]
        in_dist = [brute_distances(reverse_arcs(d), s) for s in range(d.n)]

        def near(dist, depth):
            return sum(1 << v for v in range(d.n) if any(dist[s][v] <= depth for s in sources))

        for depth in range(5):
            assert _reach(d.out_masks, mask, depth) == near(out_dist, depth)
            assert _reach(d.in_masks, mask, depth) == near(in_dist, depth)
        # a walk from s's out-neighbours is, with s added, s's out-reach of
        # radius k, and it holds s iff s lies on a cycle of length at most k
        for s in range(d.n):
            cycle = brute_min_cycle_through(d, s)
            for k in range(1, 6):
                onward = _reach(d.out_masks, d.out_masks[s], k - 1)
                assert onward | 1 << s == _reach(d.out_masks, 1 << s, k)
                assert bool(onward >> s & 1) == (cycle <= k)

    @settings(deadline=None, max_examples=80)
    @given(st.one_of(digraphs(min_n=1), semicompletes()), st.data())
    def test_levels_are_the_distance_classes_of_the_sources(self, d, data):
        sources = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1))
        for masks, g in ((d.out_masks, d), (d.in_masks, reverse_arcs(d))):
            dist = [min(col) for col in zip(*(brute_distances(g, s) for s in sources))]
            classes = [
                sum(1 << v for v in range(d.n) if dist[v] == j)
                for j in range(max(x for x in dist if x != math.inf) + 1)
            ]
            assert list(_levels(masks, sum(1 << s for s in sources))) == classes

    @settings(deadline=None, max_examples=80)
    @given(digraphs(min_n=1))
    def test_eccentricity_is_the_farthest_distance(self, d):
        ecc = out_eccentricities(d)
        for s in range(d.n):
            assert ecc[s] == max(distances_from(d, s))


class TestStrongStructure:
    @settings(deadline=None, max_examples=70)
    @given(digraphs(min_n=1, max_n=7))
    def test_strong_means_one_component(self, d):
        assert is_strong(d) == (len(brute_components(d)) == 1)

    # tournaments have no 2-cycles: a walk from v meets an in-neighbour of v
    # at level 2 at the earliest
    @settings(deadline=None, max_examples=80)
    @given(st.one_of(digraphs(min_n=1, max_n=7), tournaments()))
    def test_shortest_cycle_matches_simple_cycle_enumeration(self, d):
        for v in range(d.n):
            assert min_cycle_length_through(d, v) == brute_min_cycle_through(d, v)


class TestFlattening:
    @settings(deadline=None, max_examples=60)
    @given(compositions())
    def test_flat_arcs_match_naive_bundle_expansion(self, c):
        q = flatten(c)
        assert q.n == sum(h.n for h in c.factors)
        assert set(q.arcs()) == brute_flat_arcs(c)
        # flatten builds both mask tuples itself; the in-side must agree too
        assert q == build_digraph(q.n, brute_flat_arcs(c))

    @settings(deadline=None, max_examples=60)
    @given(compositions())
    def test_locate_inverts_the_offset_layout(self, c):
        for flat in range(flatten(c).n):
            where = c.locate(flat)
            assert where.flat == flat
            assert c.offsets[where.factor] + where.inner == flat

    @settings(deadline=None, max_examples=60)
    @given(compositions())
    def test_flat_strongness_tracks_the_outer(self, c):
        assert is_strong(flatten(c)) == is_strong(c.outer)


class TestKingProjection:
    @settings(deadline=None, max_examples=50)
    @given(compositions())
    def test_flat_kings_project_onto_outer_kings(self, c):
        q = flatten(c)
        for k in (2, 3, 4):
            outer_kings = k_kings(c.outer, k).kings
            for flat in k_kings(q, k).kings:
                assert c.locate(flat).factor in outer_kings

    @settings(deadline=None, max_examples=60)
    @given(
        st.one_of(compositions(), path_like_compositions(), long_factor_compositions())
    )
    # u_0 is an outer 2-king on no cycle, and its factor's vertex 0 has
    # eccentricity 3: a 3-king of H_0 that is not a flat 2-king
    @example(
        compose(
            build_digraph(2, [(0, 1)]),
            (build_digraph(4, [(0, 1), (1, 2), (2, 3)]), build_digraph(1, [])),
        )
    )
    def test_factor_king_masks_match_the_flat_kings(self, c):
        eccs = brute_eccentricities(flatten(c))
        for k in (2, 3, 4, 5, 6):
            flat_kings = {v for v, ecc in enumerate(eccs) if ecc <= k}
            for i, off in enumerate(c.offsets):
                block = {x for x in range(c.factors[i].n) if off + x in flat_kings}
                assert _factor_kings(c, i, k) == sum(1 << x for x in block)

    @settings(deadline=None, max_examples=60)
    @given(digraphs(min_n=2), st.data())
    def test_removing_an_arc_never_creates_kings(self, d, data):
        arcs = list(d.arcs())
        assume(arcs)
        dropped = data.draw(st.sampled_from(arcs))
        sub = build_digraph(d.n, [a for a in arcs if a != dropped])
        for k in (2, 3, 4):
            assert k_kings(sub, k).kings <= k_kings(d, k).kings

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(compositions(), long_factor_compositions()))
    def test_king_existence_agrees_with_flat_search(self, c):
        q = flatten(c)
        for k in (2, 3, 4, 5, 6):
            witness = composition_has_k_king(c, k)
            assert witness.exists == bool(k_kings(q, k).kings)
            if witness.exists:
                assert witness.witness_factor in k_kings(c.outer, k).kings
                assert witness.reason is not None

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(compositions(), long_factor_compositions()))
    def test_universal_kingship_agrees_with_flat_search(self, c):
        q = flatten(c)
        for k in (2, 3, 4, 5, 6):
            everyone = k_kings(q, k).kings == frozenset(range(q.n))
            assert composition_all_k_kings(c, k) == everyone


class TestThreeKingStructure:
    @settings(deadline=None, max_examples=50)
    @given(semicomplete_compositions())
    def test_classification_fills_whole_factors(self, c):
        assume(is_strong(c.outer))
        cls = classify_three_kings(c)
        q = flatten(c)
        flat_kings = k_kings(q, 3).kings
        assert classified_flat_three_kings(c, cls) == flat_kings
        assert cls.outer_three_kings == k_kings(c.outer, 3).kings
        assert len(flat_kings) >= 2

    @settings(deadline=None, max_examples=50)
    @given(semicomplete_compositions(min_t=3))
    def test_sourceless_outer_never_leaves_a_lone_three_king(self, c):
        assume(all(c.outer.in_degree(v) > 0 for v in range(c.outer.n)))
        flat_kings = k_kings(flatten(c), 3).kings
        assert len(flat_kings) != 1

    @settings(deadline=None, max_examples=30)
    @given(st.one_of(semicomplete_compositions(max_t=3), path_like_compositions()))
    def test_non_kings_are_beaten_by_a_distant_three_king(self, c):
        assume(is_strong(c.outer))
        q = flatten(c)
        three_kings = k_kings(q, 3).kings
        for u in frozenset(range(q.n)) - three_kings:
            v = non_king_dominator_witness(c, u)
            assert v in three_kings
            assert q.has_arc(v, u)
            assert distances_from(q, u)[v] > 3

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(semicomplete_compositions(), path_like_compositions()))
    def test_non_king_witness_is_the_smallest_flat_witness(self, c):
        assume(is_strong(c.outer))
        q = flatten(c)
        three_kings = brute_k_kings(q, 3)
        for u in range(q.n):
            if u in three_kings:
                with pytest.raises(PreconditionError):
                    non_king_dominator_witness(c, u)
                continue
            dist_u = brute_distances(q, u)
            expected = min(
                v for v in three_kings if q.has_arc(v, u) and dist_u[v] > 3
            )
            assert non_king_dominator_witness(c, u) == expected
        with pytest.raises(PreconditionError):
            non_king_dominator_witness(c, q.n)

    @settings(deadline=None, max_examples=30)
    @given(semicomplete_compositions(min_t=3, min_size=2))
    def test_large_strong_compositions_have_five_four_kings(self, c):
        assume(is_strong(c.outer))
        report = four_king_bound_report(c)
        assert report.n >= 6
        assert report.bound_satisfied
        assert report.four_kings >= 5
        assert report.three_kings <= report.four_kings

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(semicomplete_compositions(), path_like_compositions()))
    def test_four_king_counts_match_brute_force(self, c):
        assume(is_strong(c.outer))
        q = flatten(c)
        report = four_king_bound_report(c)
        four, three = len(brute_k_kings(q, 4)), len(brute_k_kings(q, 3))
        assert report.n == q.n
        assert (report.four_kings, report.three_kings) == (four, three)
        # an outer 2-king on a short cycle makes its factor all 3-kings
        assert three >= 1
        assert report.bound_satisfied == (
            q.n < 6 or (four >= 5 and (three > 0 or four >= 8))
        )


@functools.cache
def eligible_outers() -> tuple[tuple[Digraph, ...], dict[str, object]]:
    """The establishment experiment's first six outers, and its info:
    three tournaments from its exhaustive scan, three semicomplete digraphs
    from its seeded search."""
    outers, info = _establishable_outers(DEFAULT_SEED, 6)
    return tuple(outers), info


class TestEstablishment:
    @settings(deadline=None, max_examples=80)
    @given(st.one_of(semicompletes(min_n=1, max_n=7), path_like_outers(min_t=3)))
    def test_eligibility_matches_brute_force_distances(self, t):
        assume(is_strong(t))
        eccs = [max(brute_distances(t, v)) for v in range(t.n)]
        strict3 = frozenset(v for v in range(t.n) if eccs[v] == 3)
        two = frozenset(v for v in range(t.n) if eccs[v] <= 2)
        blocking = frozenset(
            v for v in two if not any(t.has_arc(s, v) for s in strict3)
        )
        report = can_establish(t)
        assert report.strict_three_kings == strict3
        assert report.two_kings == two
        assert report.blocking_two_kings == blocking
        assert report.ok == (bool(strict3) and not blocking)

    def test_scan_picks_match_a_brute_force_scan(self):
        # the experiment's scan keeps the strong tournaments, in scan order,
        # that are eligible by Bellman-Ford distances
        def eligible(t):
            eccs = [max(brute_distances(t, v)) for v in range(t.n)]
            strict3 = [v for v in range(t.n) if eccs[v] == 3]
            return max(eccs) < math.inf and bool(strict3) and all(
                any(t.has_arc(s, v) for s in strict3)
                for v in range(t.n)
                if eccs[v] <= 2
            )

        scan = (t for n in range(3, 7) for t in all_tournaments(n))
        hits = [t for t in scan if eligible(t)]
        outers, info = eligible_outers()
        assert outers[:3] == tuple(hits[:3])
        assert len(hits) == info["exhaustive_tournament_hits"]
        assert info == {
            "exhaustive_tournament_hits": 240,
            "smallest_tournament_n": 6,
            "seeded_search_attempts": 10644,
        }

    @settings(deadline=None, max_examples=25)
    @given(st.data())
    def test_established_three_kings_are_exactly_the_original_vertices(self, data):
        outer = data.draw(st.sampled_from(eligible_outers()[0]))
        factors = data.draw(st.tuples(*[digraphs(min_n=1, max_n=2)] * outer.n))
        c = compose(outer, factors)
        extended = establish(c)
        assert extended.t > c.t
        q2 = flatten(extended)
        kings3 = {v for v in range(q2.n) if max(brute_distances(q2, v)) <= 3}
        assert kings3 == set(range(c.total_vertices))


class TestKernelConstructions:
    @settings(deadline=None, max_examples=60)
    @given(digraphs(max_n=10))
    def test_constructed_quasi_kernel_always_validates(self, d):
        cert = quasi_kernel(d)
        assert cert.validated
        assert validate_certificate(d, cert)
        assert brute_is_quasi_kernel(d, set(cert.vertices))

    @settings(deadline=None, max_examples=60)
    @given(semicompletes(min_n=2, max_n=7))
    def test_sink_free_semicomplete_has_two_lone_vertex_quasi_kernels(self, d):
        assume(all(d.out_degree(v) > 0 for v in range(d.n)))
        found = singleton_quasi_kernels(d)
        assert len(found) >= 2
        for v in found:
            assert brute_is_quasi_kernel(d, {v})

    @settings(deadline=None, max_examples=40)
    @given(semicomplete_compositions(min_t=3))
    def test_lifted_quasi_kernel_pair_is_disjoint_and_valid(self, c):
        assume(all(c.outer.out_degree(v) > 0 for v in range(c.outer.n)))
        first, second = disjoint_quasi_kernels(c)
        assert not first.vertices & second.vertices
        q = flatten(c)
        for cert in (first, second):
            assert cert.validated
            assert brute_is_quasi_kernel(q, set(cert.vertices))

    @settings(deadline=None, max_examples=40)
    @given(semicomplete_compositions())
    def test_factor_level_kernel_decision_matches_the_oracle(self, c):
        assume(is_strong(c.outer))
        q = flatten(c)
        for k in (4, 5):
            fast = composition_k_kernel(c, k)
            slow = k_kernel_brute_force(q, k)
            assert (fast is not None) == (slow is not None)
            if fast is not None:
                assert validate_certificate(q, fast)

    @settings(deadline=None, max_examples=30)
    @given(semicomplete_compositions(max_t=3))
    def test_oracle_kernels_sit_inside_a_single_factor(self, c):
        q = flatten(c)
        for k in (3, 4):
            cert = k_kernel_brute_force(q, k)
            if cert is None or not cert.vertices:
                continue
            homes = {c.locate(v).factor for v in cert.vertices}
            assert len(homes) == 1
            home = homes.pop()
            factor_flats = {
                c.offsets[home] + inner for inner in range(c.factors[home].n)
            }
            absorbed = False
            for v in cert.vertices:
                keep = [x for x in range(q.n) if x not in factor_flats or x == v]
                reduced, relabel = induced_subdigraph(q, keep)
                dist = distances_to(reduced, relabel[v])
                if all(
                    dist[relabel[x]] <= k - 1 for x in keep if x != v
                ):
                    absorbed = True
                    break
            assert absorbed

    @settings(deadline=None, max_examples=40)
    @given(compositions(), st.data())
    def test_lone_vertex_absorbency_transfers_between_levels(self, c, data):
        i = data.draw(st.integers(0, c.t - 1))
        inner = data.draw(st.integers(0, c.factors[i].n - 1))
        v = c.offsets[i] + inner
        q = flatten(c)
        factor_flats = {c.offsets[i] + j for j in range(c.factors[i].n)}
        keep = [x for x in range(q.n) if x not in factor_flats or x == v]
        reduced, relabel = induced_subdigraph(q, keep)
        flat_dist = distances_to(reduced, relabel[v])
        outer_dist = distances_to(c.outer, i)
        for k in (1, 2, 3):
            flat_side = all(
                flat_dist[relabel[x]] <= k for x in keep if x != v
            )
            outer_side = all(
                outer_dist[j] <= k for j in range(c.outer.n) if j != i
            )
            assert flat_side == outer_side

    @settings(deadline=None, max_examples=30)
    @given(digraphs(min_n=1, max_n=4))
    def test_triangle_gadget_preserves_kernel_existence(self, d):
        direct = k_kernel_brute_force(d, 3)
        lifted = k_kernel_brute_force(flatten(c3_gadget(d)), 3)
        assert (direct is not None) == (lifted is not None)


class TestCertificateCheck:
    @settings(deadline=None, max_examples=100)
    @given(digraphs(), st.data())
    def test_check_matches_the_definition_on_any_claimed_set(self, d, data):
        # claimed sets are arbitrary, so the reject side is exercised too; on
        # up to six vertices every subset is claimed
        everyone = range(d.n)
        if d.n <= 6:
            claims = [set(c) for r in range(d.n + 1) for c in combinations(everyone, r)]
        else:
            claims = [set(), set(everyone), data.draw(st.sets(st.sampled_from(everyone)))]
        for vertices in claims:
            for k in (None, 2, 3, 4, 5):
                if k is None:
                    kind, expected = CertificateKind.QUASI_KERNEL, brute_is_quasi_kernel(d, vertices)
                else:
                    kind, expected = CertificateKind.K_KERNEL, brute_is_k_kernel(d, vertices, k)
                cert = KernelCertificate(kind, frozenset(vertices), k, validated=False)
                assert validate_certificate(d, cert) == expected


class TestCompositionRoute:
    # the answers read from T and the factors against the same questions
    # asked of the flattened digraph

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(compositions(), long_factor_compositions()), st.data())
    def test_composition_reach_matches_the_flat_reach(self, c, data):
        q = flatten(c)
        sources = sum(1 << v for v in data.draw(st.sets(st.sampled_from(range(q.n)))))
        for depth in range(5):
            assert _composition_reach(c, sources, depth) == _reach(q.out_masks, sources, depth)
            assert _composition_reach(c, sources, depth, inward=True) == _reach(
                q.in_masks, sources, depth
            )

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(compositions(), long_factor_compositions()), st.data())
    def test_certificate_check_matches_the_flat_check(self, c, data):
        # arbitrary claims, every singleton and the flat greedy quasi-kernel,
        # so both verdicts occur
        q = flatten(c)
        everyone = range(q.n)
        claims = [set(), set(everyone), set(quasi_kernel(q).vertices)]
        claims += [{v} for v in everyone]
        claims += [data.draw(st.sets(st.sampled_from(everyone))) for _ in range(3)]
        for vertices in claims:
            for k in (None, 2, 3, 4, 5):
                kind = CertificateKind.QUASI_KERNEL if k is None else CertificateKind.K_KERNEL
                cert = KernelCertificate(kind, frozenset(vertices), k, validated=False)
                assert validate_certificate(c, cert) == validate_certificate(q, cert)

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(compositions(), long_factor_compositions()))
    def test_quasi_kernel_is_the_flat_greedy_set(self, c):
        cert = quasi_kernel(c)
        assert cert.validated
        assert cert.vertices == quasi_kernel(flatten(c)).vertices

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(compositions(), long_factor_compositions()))
    def test_king_report_matches_the_flat_report(self, c):
        q = flatten(c)
        for k in (2, 3, 4, 5, 6):
            assert _composition_k_kings(c, k) == k_kings(q, k)

    def test_certificate_vertex_out_of_range(self):
        c = compose(build_digraph(2, [(0, 1)]), (build_digraph(2, []), build_digraph(1, [])))
        cert = KernelCertificate(CertificateKind.QUASI_KERNEL, frozenset({3}), None, False)
        with pytest.raises(PreconditionError, match="out of range for n=3"):
            validate_certificate(c, cert)

    def test_lifted_pair_is_checked_on_the_composition(self, monkeypatch):
        # u_3 dominates the 3-cycle on u_0, u_1, u_2 and absorbs nothing, so a
        # lifted quasi-kernel of H_3 must fail the check
        outer = build_digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
        c = compose(outer, tuple(build_digraph(2, [(0, 1)]) for _ in range(4)))
        monkeypatch.setattr(
            "kingkernel.kernels.singleton_quasi_kernels", lambda d: frozenset({0, 3})
        )
        with pytest.raises(TheoremViolation, match=r"factors \[3\]") as caught:
            disjoint_quasi_kernels(c)
        assert caught.value.instance is c


class TestRoundTrips:
    @settings(deadline=None, max_examples=60)
    @given(digraphs())
    def test_digraph_text_round_trip(self, d):
        assert parse_digraph(format_digraph(d)) == d

    @settings(deadline=None, max_examples=60)
    @given(compositions())
    def test_composition_text_round_trip(self, c):
        assert parse_composition(format_composition(c)) == c

    @settings(deadline=None, max_examples=60)
    @given(digraphs())
    def test_digraph_json_round_trip(self, d):
        assert digraph_from_json(digraph_to_json(d)) == d

    @settings(deadline=None, max_examples=60)
    @given(compositions())
    def test_composition_json_round_trip(self, c):
        assert composition_from_json(composition_to_json(c)) == c


@st.composite
def gen_specs(draw):
    maybe_int = st.none() | st.integers(0, 50)
    return GenSpec(
        seed=draw(st.integers(-(2**63), 2**64)),
        kind=draw(st.sampled_from(list(Kind))),
        n=draw(maybe_int),
        t=draw(maybe_int),
        size_min=draw(maybe_int),
        size_max=draw(maybe_int),
        p=draw(st.floats(0, 1)),
        p2=draw(st.floats(0, 1)),
        constraints=draw(st.frozensets(st.sampled_from(list(Constraint)))),
    )


@st.composite
def certificates(draw):
    return KernelCertificate(
        kind=draw(st.sampled_from(list(CertificateKind))),
        vertices=draw(st.frozensets(st.integers(0, 60))),
        k=draw(st.none() | st.integers(2, 9)),
        validated=draw(st.booleans()),
    )


def as_json(value):
    """The serialized form, after a trip through the JSON text itself."""
    return json.loads(json.dumps(_to_json(value)))


class TestResultJson:
    """_to_json against the hand-written field lists it replaced and the
    CLI's schemas."""

    @settings(deadline=None, max_examples=100)
    @given(gen_specs())
    def test_generation_spec(self, spec):
        payload = as_json(spec)
        jsonschema.validate(payload, schemas.GENSPEC)
        assert payload == {
            "seed": spec.seed,
            "kind": spec.kind.name,
            "n": spec.n,
            "t": spec.t,
            "size_min": spec.size_min,
            "size_max": spec.size_max,
            "p": spec.p,
            "p2": spec.p2,
            "constraints": sorted(c.name for c in spec.constraints),
        }

    @settings(deadline=None, max_examples=100)
    @given(certificates())
    def test_certificate(self, cert):
        payload = as_json(cert)
        jsonschema.validate(payload, schemas.CERTIFICATE)
        assert payload == {
            "kind": cert.kind.name,
            "k": cert.k,
            "vertices": sorted(cert.vertices),
            "validated": cert.validated,
        }

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(semicompletes(min_n=1, max_n=7), path_like_outers(min_t=3)))
    def test_establishment_report(self, t):
        assume(is_strong(t))
        report = can_establish(t)
        payload = as_json(report)
        jsonschema.validate(payload, schemas.ESTABLISH["properties"]["can_establish"])
        assert payload == {
            "ok": report.ok,
            "strict_three_kings": sorted(report.strict_three_kings),
            "two_kings": sorted(report.two_kings),
            "blocking_two_kings": sorted(report.blocking_two_kings),
        }

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.one_of(digraphs(), compositions()), max_size=7))
    def test_experiment_result(self, instances):
        res = ExperimentResult("x", len(instances), 2 * len(instances), 0)
        for i, instance in enumerate(instances):
            res.record(f"failure {i}", instance)
        payload = as_json(res.to_json())
        jsonschema.validate(payload, schemas.EXPERIMENT)
        assert payload["violations"] == len(instances)
        assert len(payload["failures"]) == min(len(instances), MAX_KEPT_FAILURES)
        for i, (entry, instance) in enumerate(zip(payload["failures"], instances)):
            if isinstance(instance, Digraph):
                assert entry == {"detail": f"failure {i}", "digraph": digraph_to_json(instance)}
                jsonschema.validate(entry["digraph"], schemas.DIGRAPH)
            else:
                expected = composition_to_json(instance)
                assert entry == {"detail": f"failure {i}", "composition": expected}
                jsonschema.validate(entry["composition"], schemas.COMPOSITION)
