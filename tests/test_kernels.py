from __future__ import annotations

import pytest

from kingkernel import (
    CertificateKind,
    KernelCertificate,
    PreconditionError,
    TheoremViolation,
    build_digraph,
    c3_gadget,
    compose,
    composition_k_kernel,
    disjoint_quasi_kernels,
    flatten,
    k_kernel_brute_force,
    quasi_kernel,
    singleton_quasi_kernels,
    validate_certificate,
)
import kingkernel.kernels as kernels_module
from kingkernel.kernels import DEFAULT_ORACLE_CAP
from bruteforce import brute_is_quasi_kernel


def cycle(n: int) -> "build_digraph":
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def singletons(t: int):
    return tuple(build_digraph(1, []) for _ in range(t))


def cert(kind: CertificateKind, vertices: set[int], k: int | None = None):
    return KernelCertificate(kind=kind, vertices=frozenset(vertices), k=k, validated=False)


class TestValidateCertificate:
    def test_lone_vertex_is_its_own_kernel(self):
        d = build_digraph(1, [])
        assert validate_certificate(d, cert(CertificateKind.K_KERNEL, {0}, 2))

    def test_adjacent_pair_is_not_independent(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert not validate_certificate(d, cert(CertificateKind.K_KERNEL, {0, 1}, 2))

    def test_opposite_pair_on_the_four_cycle(self):
        assert validate_certificate(cycle(4), cert(CertificateKind.K_KERNEL, {0, 2}, 2))

    def test_quasi_kernel_needs_two_step_absorption(self):
        d = build_digraph(4, [(0, 1), (1, 2), (2, 3)])
        assert validate_certificate(d, cert(CertificateKind.QUASI_KERNEL, {1, 3}))
        assert not validate_certificate(d, cert(CertificateKind.QUASI_KERNEL, {3}))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(PreconditionError):
            validate_certificate(cycle(3), cert(CertificateKind.QUASI_KERNEL, {5}))

    def test_rejects_low_k(self):
        with pytest.raises(PreconditionError):
            validate_certificate(cycle(3), cert(CertificateKind.K_KERNEL, {0}, 1))


class TestQuasiKernel:
    def test_single_vertex(self):
        out = quasi_kernel(build_digraph(1, []))
        assert out.vertices == frozenset({0})
        assert out.validated

    def test_empty_digraph(self):
        assert quasi_kernel(build_digraph(0, [])).vertices == frozenset()

    def test_path_keeps_both_ends(self):
        # smallest-id pivoting on 0 -> 1 -> 2 discards only the middle
        out = quasi_kernel(build_digraph(3, [(0, 1), (1, 2)]))
        assert out.vertices == frozenset({0, 2})

    def test_cycle_yields_a_singleton(self):
        out = quasi_kernel(cycle(3))
        assert out.vertices == frozenset({1})

    def test_output_validates_definitionally(self):
        d = build_digraph(6, [(0, 3), (3, 1), (1, 4), (4, 0), (2, 5), (5, 2), (0, 5)])
        out = quasi_kernel(d)
        assert brute_is_quasi_kernel(d, set(out.vertices))


class TestSingletonQuasiKernels:
    def test_digon(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert singleton_quasi_kernels(d) == frozenset({0, 1})

    def test_cycle(self):
        assert singleton_quasi_kernels(cycle(3)) == frozenset({0, 1, 2})

    def test_sink_absorbs_alone(self):
        d = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
        assert singleton_quasi_kernels(d) == frozenset({2})

    def test_rejects_non_semicomplete(self):
        with pytest.raises(PreconditionError):
            singleton_quasi_kernels(build_digraph(2, []))

    @pytest.mark.parametrize("d", [cycle(3), build_digraph(3, [(0, 1), (0, 2), (1, 2)])])
    def test_one_walk_per_vertex(self, d, walks):
        # the sink-free test reads the out-masks; it walks nothing
        singleton_quasi_kernels(d)
        assert walks[0] == d.n


class TestDisjointQuasiKernels:
    def test_digon_outer_with_singletons(self):
        c = compose(build_digraph(2, [(0, 1), (1, 0)]), singletons(2))
        first, second = disjoint_quasi_kernels(c)
        assert first.vertices == frozenset({0})
        assert second.vertices == frozenset({1})

    def test_wide_factors_stay_disjoint_and_valid(self):
        c = compose(
            build_digraph(2, [(0, 1), (1, 0)]),
            (build_digraph(2, [(0, 1), (1, 0)]), cycle(3)),
        )
        first, second = disjoint_quasi_kernels(c)
        q = flatten(c)
        assert not first.vertices & second.vertices
        assert brute_is_quasi_kernel(q, set(first.vertices))
        assert brute_is_quasi_kernel(q, set(second.vertices))

    def test_rejects_outer_sink(self):
        c = compose(build_digraph(3, [(0, 1), (0, 2), (1, 2)]), singletons(3))
        with pytest.raises(PreconditionError, match="sink"):
            disjoint_quasi_kernels(c)


class TestCompositionKKernel:
    def test_singletons_over_a_cycle(self):
        c = compose(cycle(3), singletons(3))
        out = composition_k_kernel(c, 4)
        assert out is not None
        assert out.vertices == frozenset({0})
        assert out.validated
        assert out.k == 4

    def test_agrees_with_the_oracle(self):
        c = compose(
            cycle(3), (build_digraph(2, [(0, 1), (1, 0)]), *singletons(2))
        )
        out = composition_k_kernel(c, 4)
        oracle = k_kernel_brute_force(flatten(c), 4)
        assert (out is not None) == (oracle is not None)
        assert validate_certificate(flatten(c), out)

    def test_rejects_k_below_four(self):
        c = compose(cycle(3), singletons(3))
        with pytest.raises(PreconditionError):
            composition_k_kernel(c, 3)

    def test_rejects_non_strong(self):
        c = compose(build_digraph(3, [(0, 1), (0, 2), (1, 2)]), singletons(3))
        with pytest.raises(PreconditionError):
            composition_k_kernel(c, 4)


class TestBruteForceOracle:
    def test_single_vertex(self):
        out = k_kernel_brute_force(build_digraph(1, []), 2)
        assert out is not None
        assert out.vertices == frozenset({0})

    def test_digon_minimum_kernel(self):
        out = k_kernel_brute_force(build_digraph(2, [(0, 1), (1, 0)]), 2)
        assert out is not None
        assert out.vertices == frozenset({0})

    def test_four_cycle_has_no_3_kernel(self):
        assert k_kernel_brute_force(cycle(4), 3) is None

    def test_four_cycle_smallest_2_kernel(self):
        out = k_kernel_brute_force(cycle(4), 2)
        assert out is not None
        assert out.vertices == frozenset({0, 2})

    def test_rejects_low_k(self):
        with pytest.raises(PreconditionError):
            k_kernel_brute_force(cycle(3), 1)

    def test_default_cap_blocks_large_inputs(self):
        d = build_digraph(DEFAULT_ORACLE_CAP + 1, [])
        with pytest.raises(PreconditionError, match=str(DEFAULT_ORACLE_CAP)):
            k_kernel_brute_force(d, 2)

    def test_argument_sets_the_cap(self):
        d = build_digraph(5, [])
        with pytest.raises(PreconditionError, match="cap=4"):
            k_kernel_brute_force(d, 2, max_n=4)
        assert k_kernel_brute_force(d, 2, max_n=5) is not None

    def test_rejected_winner_raises_theorem_violation(self, monkeypatch):
        # must raise even under python -O, so not an assert
        monkeypatch.setattr(kernels_module, "validate_certificate", lambda d, c: False)
        d = cycle(4)
        with pytest.raises(TheoremViolation) as info:
            k_kernel_brute_force(d, 2)
        assert info.value.instance is d


class TestGadget:
    def test_singleton_becomes_the_outer_cycle(self):
        g = c3_gadget(build_digraph(1, []))
        assert g.t == 3
        assert flatten(g) == cycle(3)

    def test_rejects_empty_digraph(self):
        with pytest.raises(PreconditionError):
            c3_gadget(build_digraph(0, []))

    def test_arcless_pair_preserves_existence(self):
        d = build_digraph(2, [])
        direct = k_kernel_brute_force(d, 3)
        lifted = k_kernel_brute_force(flatten(c3_gadget(d)), 3)
        assert (direct is not None) and (lifted is not None)

    def test_four_cycle_preserves_absence(self):
        d = cycle(4)
        assert k_kernel_brute_force(d, 3) is None
        assert k_kernel_brute_force(flatten(c3_gadget(d)), 3) is None
