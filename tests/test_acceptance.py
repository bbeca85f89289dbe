"""Acceptance gate: one test per advertised guarantee, each running its
experiment at full default scale and demanding zero violations."""

from __future__ import annotations

from kingkernel.experiments import (
    absorbent_transfer,
    disjoint_quasi_kernel_pairs,
    establishment,
    fixture_regression,
    four_king_bound,
    king_characterization,
    kkernel_poly,
    kkernel_reduction,
    nonking_witness,
    quasi_kernel_validation,
    three_king_count,
)
from acceptance_report import criterion


def counts(res):
    """What a run at the default seed is pinned to: its instances, checks
    and info, timings left out. A change that alters any corpus, its scans
    or its draws shows here."""
    info = {k: v for k, v in res.info.items() if k != "poly_elapsed_s"}
    return res.instances, res.checks, info


@criterion(1, "composition king decisions match brute force on 2000 mixed instances under 60s")
def test_king_decision_equivalence_at_scale():
    res = king_characterization()
    assert counts(res) == (2000, 20000, {})
    assert res.instances >= 2000
    assert res.checks >= res.instances * 10
    assert res.violations == 0, res.failures[:3]
    assert res.elapsed_s < 60.0


@criterion(2, "strong semicomplete compositions always show two 3-kings and exact factor classification")
def test_three_king_floor_and_classification():
    res = three_king_count()
    assert counts(res) == (2000, 4000, {})
    assert res.instances >= 2000
    assert res.violations == 0, res.failures[:3]


@criterion(3, "every non-king is dominated by a 3-king from distance over 3, across 50+ qualifying instances")
def test_non_king_witnesses_verify():
    res = nonking_witness()
    assert counts(res) == (400, 630, {"instances_with_non_kings": 201})
    assert res.info["instances_with_non_kings"] >= 50
    assert res.checks >= 50
    assert res.violations == 0, res.failures[:3]


@criterion(4, "establishment extends 50 eligible compositions so exactly the originals are 3-kings")
def test_establishment_postcondition_at_scale():
    res = establishment()
    assert counts(res) == (
        50,
        50,
        {
            "exhaustive_tournament_hits": 240,
            "smallest_tournament_n": 6,
            "seeded_search_attempts": 36387,
        },
    )
    assert res.instances >= 50
    assert res.info["exhaustive_tournament_hits"] >= 1
    assert res.violations == 0, res.failures[:3]


@criterion(5, "strong compositions on six or more vertices always have at least five 4-kings")
def test_four_king_floor():
    res = four_king_bound()
    assert counts(res) == (2000, 2000, {"no_three_king_instances": 0})
    assert res.instances >= 2000
    assert res.violations == 0, res.failures[:3]
    assert "no_three_king_instances" in res.info


@criterion(6, "constructed quasi-kernels validate on 5000 random digraphs")
def test_quasi_kernel_validity_at_scale():
    res = quasi_kernel_validation()
    assert counts(res) == (5000, 5000, {})
    assert res.instances >= 5000
    assert res.violations == 0, res.failures[:3]


@criterion(7, "sink-free inputs yield disjoint quasi-kernel pairs and two singleton witnesses")
def test_disjoint_pairs_and_singleton_floor():
    res = disjoint_quasi_kernel_pairs()
    assert counts(res) == (1000, 58044, {"exhaustive_sink_free_digraphs": 56044})
    assert res.instances >= 1000
    assert res.info["exhaustive_sink_free_digraphs"] >= 1
    assert res.checks >= res.instances + 1000
    assert res.violations == 0, res.failures[:3]


@criterion(8, "fast k-kernel decisions agree with the exhaustive oracle, fast side under 5s")
def test_kernel_decision_agreement():
    res = kkernel_poly()
    assert counts(res) == (500, 1500, {})
    assert res.instances >= 500
    assert res.checks >= res.instances * 3
    assert res.violations == 0, res.failures[:3]
    assert res.info["poly_elapsed_s"] < 5.0


@criterion(9, "the triple-copy gadget preserves 3-kernel existence on 200 small digraphs")
def test_gadget_reduction_soundness():
    res = kkernel_reduction()
    assert counts(res) == (
        200,
        200,
        {"digraphs_with_3kernel": 199, "digraphs_without_3kernel": 1},
    )
    assert res.instances >= 200
    assert res.info["digraphs_with_3kernel"] >= 1
    assert res.info["digraphs_without_3kernel"] >= 1
    assert res.violations == 0, res.failures[:3]


@criterion(10, "single-vertex absorbency transfers between flattened and outer levels")
def test_absorbency_transfer_equivalence():
    res = absorbent_transfer()
    assert counts(res) == (500, 8685, {})
    assert res.instances >= 500
    assert res.checks >= res.instances * 3
    assert res.violations == 0, res.failures[:3]


@criterion(11, "the pinned unique-3-king example keeps all four recorded properties")
def test_fixture_regression_holds():
    res = fixture_regression()
    assert counts(res) == (1, 4, {})
    assert res.checks == 4
    assert res.violations == 0, res.failures[:3]
