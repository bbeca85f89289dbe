from __future__ import annotations

import pytest

from kingkernel import TheoremViolation, build_digraph, is_strong, classify_digraph
from kingkernel.experiments import (
    DEFAULT_SEED,
    EXPERIMENTS,
    MAX_KEPT_FAILURES,
    ExperimentResult,
    path_like_tournament,
)
from bruteforce import brute_distances

EXPECTED_NAMES = {
    "king-characterization",
    "three-king-count",
    "nonking-witness",
    "establishment",
    "four-king-bound",
    "quasi-kernel",
    "disjoint-quasi-kernels",
    "kkernel-poly",
    "kkernel-reduction",
    "absorbent-transfer",
    "fixture-regression",
}


class TestRegistry:
    def test_expected_names(self):
        assert set(EXPERIMENTS) == EXPECTED_NAMES

    def test_runners_accept_the_common_signature(self):
        result = EXPERIMENTS["fixture-regression"](seed=DEFAULT_SEED, instances=None)
        assert isinstance(result, ExperimentResult)


class TestResultRecord:
    def test_failure_list_is_capped(self):
        res = ExperimentResult("x", 0, 0, 0)
        d = build_digraph(1, [])
        for _ in range(MAX_KEPT_FAILURES + 3):
            res.record("boom", d)
        assert res.violations == MAX_KEPT_FAILURES + 3
        assert len(res.failures) == MAX_KEPT_FAILURES

    def test_json_shape(self):
        res = ExperimentResult("x", 2, 5, 0)
        res.info["extra"] = 1
        payload = res.to_json()
        assert payload["name"] == "x"
        assert payload["instances"] == 2
        assert payload["checks"] == 5
        assert payload["violations"] == 0
        assert payload["failures"] == []
        assert payload["info"] == {"extra": 1}
        assert isinstance(payload["elapsed_s"], float)

    def test_recorded_instance_is_serialized(self):
        res = ExperimentResult("x", 0, 0, 0)
        res.record("boom", build_digraph(2, [(0, 1)]))
        entry = res.failures[0]
        assert entry["detail"] == "boom"
        assert entry["digraph"]["n"] == 2


class TestPathLikeTournament:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_is_a_strong_tournament(self, n):
        d = path_like_tournament(n)
        assert classify_digraph(d).is_tournament
        assert is_strong(d)

    def test_vertex_zero_walks_the_whole_path(self):
        d = path_like_tournament(6)
        assert brute_distances(d, 0) == [0, 1, 2, 3, 4, 5]


class TestRunnersAtSmallScale:
    @pytest.mark.parametrize(
        "name",
        sorted(EXPECTED_NAMES - {"fixture-regression", "establishment"}),
    )
    def test_small_run_is_clean_and_deterministic(self, name):
        runner = EXPERIMENTS[name]
        first = runner(instances=12)
        second = runner(instances=12)
        assert first.violations == 0
        assert first.instances >= 12
        assert first.checks == second.checks
        timing = {"poly_elapsed_s"}
        stable = {k: v for k, v in first.info.items() if k not in timing}
        assert stable == {k: v for k, v in second.info.items() if k not in timing}

    def test_results_ignore_the_oracle_cap_variable(self, monkeypatch):
        def run() -> dict:
            result = EXPERIMENTS["kkernel-reduction"](instances=8).to_json()
            result.pop("elapsed_s")
            return result

        unset = run()
        monkeypatch.setenv("KK_MAX_N", "1")
        assert run() == unset

    def test_establishment_small_run(self):
        result = EXPERIMENTS["establishment"](instances=5)
        assert result.instances == 5
        assert result.violations == 0

    def test_fixture_regression_checks_all_pins(self):
        result = EXPERIMENTS["fixture-regression"]()
        assert result.checks == 4
        assert result.violations == 0
