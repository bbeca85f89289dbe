from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys

import jsonschema
import pytest

from kingkernel import TheoremViolation, build_digraph, compose, flatten, k_kings, schemas
from kingkernel.cli import main
from kingkernel.experiments import ExperimentResult, path_like_tournament
from kingkernel.fileformat import (
    composition_from_json,
    format_composition,
    format_digraph,
    parse_composition,
)

THREE_CYCLE_TEXT = "digraph 3\n0 1\n1 2\n2 0\n"

ESTABLISHABLE_SIX = build_digraph(
    6,
    [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
        (3, 4), (3, 5), (4, 0), (4, 1), (4, 5), (5, 0), (5, 1),
    ],
)


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin with a byte buffer behind it. Its text layer
    escapes bad bytes, as stdin does under the C locale or UTF-8 mode."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def checked(payload: dict, subcommand: str) -> dict:
    jsonschema.validate(payload, schemas.BY_SUBCOMMAND[subcommand])
    return payload


@pytest.fixture
def three_cycle_file(tmp_path):
    path = tmp_path / "cycle.dg"
    path.write_text(THREE_CYCLE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def strong_composition_file(tmp_path):
    outer = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    factors = (
        build_digraph(2, [(0, 1)]),
        build_digraph(1, []),
        build_digraph(2, []),
    )
    path = tmp_path / "strong.cmp"
    path.write_text(format_composition(compose(outer, factors)), encoding="utf-8")
    return str(path)


@pytest.fixture
def establishable_composition_file(tmp_path):
    factors = tuple(build_digraph(1, []) for _ in range(6))
    path = tmp_path / "six.cmp"
    path.write_text(format_composition(compose(ESTABLISHABLE_SIX, factors)), encoding="utf-8")
    return str(path)


@pytest.fixture
def transitive_composition_file(tmp_path):
    outer = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
    factors = tuple(build_digraph(1, []) for _ in range(3))
    path = tmp_path / "transitive.cmp"
    path.write_text(format_composition(compose(outer, factors)), encoding="utf-8")
    return str(path)


class TestKings:
    def test_three_cycle_at_reach_three(self, capsys, three_cycle_file):
        code, payload = run_json(capsys, "kings", three_cycle_file, "--k", "3")
        assert code == 0
        checked(payload, "kings")
        assert payload["kings"] == [0, 1, 2]
        assert payload["strict"] == []
        assert payload["ecc"] == [2, 2, 2]

    def test_reads_standard_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", stdin_bytes(THREE_CYCLE_TEXT.encode()))
        code, payload = run_json(capsys, "kings", "-", "--k", "2")
        assert code == 0
        assert payload["kings"] == [0, 1, 2]

    def test_reach_below_two_is_a_precondition_failure(self, capsys, three_cycle_file):
        code, _, err = run_cli(capsys, "kings", three_cycle_file, "--k", "1")
        assert code == 1
        assert "error" in err

    def test_format_flag_accepted_on_both_sides(self, capsys, three_cycle_file):
        code, before, _ = run_cli(
            capsys, "--format", "text", "kings", three_cycle_file, "--k", "2"
        )
        assert code == 0
        code, after, _ = run_cli(
            capsys, "kings", three_cycle_file, "--k", "2", "--format", "text"
        )
        assert code == 0
        assert before == after
        assert "kings: 0 1 2" in before

    def test_composition_input_is_flattened(self, capsys, strong_composition_file):
        code, payload = run_json(capsys, "kings", strong_composition_file, "--k", "3")
        assert code == 0
        assert len(payload["ecc"]) == 5


class TestClassify:
    def test_digraph_report(self, capsys, three_cycle_file):
        code, payload = run_json(capsys, "classify", three_cycle_file)
        assert code == 0
        checked(payload, "classify-digraph")
        cls = payload["classification"]
        assert cls["tournament"] and cls["semicomplete"] and cls["strong"]
        assert cls["sources"] == [] and cls["sinks"] == []

    def test_composition_factor_flags(self, capsys, strong_composition_file):
        code, payload = run_json(capsys, "classify", strong_composition_file)
        assert code == 0
        checked(payload, "classify-composition")
        assert set(payload["factors"]) == {"1", "2", "3"}
        assert set(payload["factors"].values()) <= {"ALL", "NONE"}
        assert payload["three_kings"] == sorted(payload["three_kings"])

    def test_three_kings_are_the_flat_three_kings(self, capsys, tmp_path):
        # over path_like_tournament(5) outer vertex 0 is no 3-king, so the
        # listed flat ids must skip a whole NONE factor
        factors = tuple(build_digraph(h, [(0, 1)] if h > 1 else []) for h in (2, 1, 3, 2, 1))
        c = compose(path_like_tournament(5), factors)
        path = tmp_path / "pathlike.cmp"
        path.write_text(format_composition(c), encoding="utf-8")
        code, payload = run_json(capsys, "classify", str(path))
        assert code == 0
        checked(payload, "classify-composition")
        assert "NONE" in payload["factors"].values()
        assert payload["three_kings"] == sorted(k_kings(flatten(c), 3).kings)

    def test_non_strong_composition_is_refused(self, capsys, transitive_composition_file):
        code, _, err = run_cli(capsys, "classify", transitive_composition_file)
        assert code == 1
        assert "strong" in err


class TestParseErrors:
    def test_loop_arc_cites_its_line(self, capsys, tmp_path):
        bad = tmp_path / "loop.dg"
        bad.write_text("digraph 2\n0 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "kings", str(tmp_path / "absent.dg"), "--k", "2")
        assert code == 2
        assert "absent.dg" in err

    def test_undecodable_file_is_a_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.dg"
        bad.write_bytes(b"digraph 2\n0 1\n\xff\n")
        code, out, err = run_cli(capsys, "kings", str(bad), "--k", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "decode" in err

    def test_undecodable_stdin_is_read_by_the_file_rule(self, capsys, monkeypatch, tmp_path):
        data = b'{"n": 2, "arcs": [[0, 1]], "note": "\xff"}'
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        file_code, _, file_err = run_cli(capsys, "validate", str(bad))
        monkeypatch.setattr(sys, "stdin", stdin_bytes(data))
        code, out, err = run_cli(capsys, "validate", "-")
        assert (code, file_code) == (2, 2)
        assert out == ""
        assert err.startswith("error: cannot read -: ")
        assert err.removeprefix("error: cannot read -") == file_err.removeprefix(
            f"error: cannot read {bad}"
        )

    def test_unknown_header(self, capsys, tmp_path):
        bad = tmp_path / "odd.dg"
        bad.write_text("multigraph 2\n0 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 2

    def test_usage_error_without_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2


class TestQuasiKernel:
    def test_certificate_is_validated(self, capsys, three_cycle_file):
        code, payload = run_json(capsys, "quasikernel", three_cycle_file)
        assert code == 0
        checked(payload, "quasikernel")
        assert payload["kind"] == "QUASI_KERNEL"
        assert payload["validated"] is True
        assert payload["vertices"] == [1]


class TestDisjointQuasiKernels:
    def test_pair_is_disjoint(self, capsys, strong_composition_file):
        code, payload = run_json(capsys, "disjoint-qk", strong_composition_file)
        assert code == 0
        checked(payload, "disjoint-qk")
        first = set(payload["first"]["vertices"])
        second = set(payload["second"]["vertices"])
        assert first and second and not first & second

    def test_outer_sink_is_refused(self, capsys, transitive_composition_file):
        code, _, err = run_cli(capsys, "disjoint-qk", transitive_composition_file)
        assert code == 1
        assert "sink" in err


class TestKKernel:
    def test_strong_composition_always_has_one(self, capsys, strong_composition_file):
        code, payload = run_json(capsys, "kkernel", strong_composition_file, "--k", "4")
        assert code == 0
        checked(payload, "kkernel")
        assert payload["exists"] is True
        assert payload["certificate"]["validated"] is True

    def test_order_below_four_is_refused(self, capsys, strong_composition_file):
        code, _, err = run_cli(capsys, "kkernel", strong_composition_file, "--k", "3")
        assert code == 1
        assert "4" in err


class TestOracle:
    def test_four_cycle_has_no_three_kernel(self, capsys, tmp_path):
        path = tmp_path / "c4.dg"
        path.write_text("digraph 4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
        code, payload = run_json(capsys, "oracle", str(path), "--k", "3")
        assert code == 0
        checked(payload, "oracle")
        assert payload["exists"] is False
        assert payload["certificate"] is None

    def test_cap_flag_rejects_large_inputs(self, capsys, three_cycle_file):
        code, _, err = run_cli(
            capsys, "oracle", three_cycle_file, "--k", "2", "--max-n", "2"
        )
        assert code == 1
        assert "cap" in err

    def test_env_var_raises_the_cap(self, capsys, tmp_path, monkeypatch):
        n = 17
        path = tmp_path / "k17.dg"
        arcs = "".join(f"{u} {v}\n" for u in range(n) for v in range(n) if u != v)
        path.write_text(f"digraph {n}\n{arcs}", encoding="utf-8")
        code, _, err = run_cli(capsys, "oracle", str(path), "--k", "2")
        assert code == 1
        assert "cap=16" in err
        monkeypatch.setenv("KK_MAX_N", str(n))
        code, payload = run_json(capsys, "oracle", str(path), "--k", "2")
        assert code == 0
        assert payload["certificate"]["vertices"] == [0]

    def test_composition_is_sized_before_it_is_flattened(
        self, capsys, tmp_path, monkeypatch
    ):
        # a directed 20-cycle of arcless 5,000-vertex factors: N = 100,000
        # from 412 bytes, whose flattened digraph would not fit in memory
        t = 20
        outer = "".join(f"{i} {(i + 1) % t}\n" for i in range(t))
        factors = "".join(f"factor {i} 5000\n" for i in range(1, t + 1))
        path = tmp_path / "wide.cmp"
        text = f"composition {t}\nouter\n{outer}{factors}"
        path.write_text(text, encoding="utf-8")
        assert path.stat().st_size == 412

        def refuse(c):
            raise RuntimeError("flattened before the cap check")

        monkeypatch.setattr("kingkernel.cli.flatten", refuse)
        monkeypatch.setattr("kingkernel.kernels.flatten", refuse)
        code, out, err = run_cli(capsys, "oracle", str(path), "--k", "2")
        assert code == 1
        assert out == ""
        assert err == "error: oracle cap exceeded: n=100000 > cap=16\n"

    def test_argument_beats_env_var(self, capsys, three_cycle_file, monkeypatch):
        monkeypatch.setenv("KK_MAX_N", "20")
        code, _, err = run_cli(
            capsys, "reduce", three_cycle_file, "--check", "--max-n", "8"
        )
        assert code == 1
        assert "n=9 > cap=8" in err

    def test_malformed_env_var_is_a_precondition_failure(
        self, capsys, three_cycle_file, monkeypatch
    ):
        monkeypatch.setenv("KK_MAX_N", "many")
        code, _, err = run_cli(capsys, "oracle", three_cycle_file, "--k", "2")
        assert code == 1
        assert "KK_MAX_N must be an integer, got 'many'" in err

    def test_cap_flag_outranks_the_environment(self, capsys, three_cycle_file, monkeypatch):
        monkeypatch.setenv("KK_MAX_N", "2")
        assert run_cli(capsys, "oracle", three_cycle_file, "--k", "3")[0] == 1
        code, payload = run_json(
            capsys, "oracle", three_cycle_file, "--k", "3", "--max-n", "5"
        )
        assert code == 0
        assert payload["exists"] is True


class TestReduce:
    def test_gadget_round_trips_and_agrees(self, capsys, tmp_path):
        path = tmp_path / "c4.dg"
        path.write_text("digraph 4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
        out = tmp_path / "gadget.cmp"
        code, payload = run_json(
            capsys, "reduce", str(path), "--check", "--output", str(out)
        )
        assert code == 0
        checked(payload, "reduce")
        assert payload["check"]["agree"] is True
        written = parse_composition(out.read_text(encoding="utf-8"))
        assert written == composition_from_json(payload["composition"])
        assert written.t == 3

    def test_composition_input_is_refused(self, capsys, strong_composition_file):
        code, _, err = run_cli(capsys, "reduce", strong_composition_file)
        assert code == 1
        assert "digraph" in err


class TestEstablish:
    def test_eligible_composition_is_extended(
        self, capsys, tmp_path, establishable_composition_file
    ):
        out = tmp_path / "extended.cmp"
        code, payload = run_json(
            capsys, "establish", establishable_composition_file, "--output", str(out)
        )
        assert code == 0
        checked(payload, "establish")
        assert payload["can_establish"]["ok"] is True
        extended = parse_composition(out.read_text(encoding="utf-8"))
        assert extended == composition_from_json(payload["composition"])
        assert extended.t == 6 + len(payload["can_establish"]["strict_three_kings"])

    def test_blocked_outer_exits_nonzero(self, capsys, tmp_path):
        outer = build_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        src = tmp_path / "blocked.cmp"
        src.write_text(
            format_composition(compose(outer, tuple(build_digraph(1, []) for _ in range(4)))),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "establish", str(src))
        assert code == 1
        assert "no establishing extension" in err
        payload = json.loads(out)
        assert payload["can_establish"]["ok"] is False
        assert payload["can_establish"]["blocking_two_kings"] == [0, 1]


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--seed", "1", "--n", "4", "--output", "{out}"],
            ["gen", "--seed", "1", "--n", "4", "--dot", "{out}"],
            ["validate", "{cycle}", "--dot", "{out}"],
            ["establish", "{eligible}", "--output", "{out}"],
            ["reduce", "{cycle}", "--output", "{out}"],
        ],
        ids=["gen-output", "gen-dot", "validate-dot", "establish-output", "reduce-output"],
    )
    def test_exits_two_with_the_reason(
        self, capsys, tmp_path, three_cycle_file, establishable_composition_file, argv
    ):
        out_path = tmp_path / "missing" / "x.txt"
        files = {"cycle": three_cycle_file, "eligible": establishable_composition_file}
        filled = [a.format(out=out_path, **files) for a in argv]
        code, out, err = run_cli(capsys, *filled)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")


class TestOutOfMemory:
    # small files whose flattened or parsed digraph would not fit in memory:
    # N = 100,000 over a 20-cycle, N = 120,000 over a 3-cycle, and a header
    # asking for 10^8 vertices
    FILES = {
        "wide.cmp": "composition 20\nouter\n"
        + "".join(f"{i} {(i + 1) % 20}\n" for i in range(20))
        + "".join(f"factor {i} 5000\n" for i in range(1, 21)),
        "tri.cmp": "composition 3\nouter\n0 1\n1 2\n2 0\n"
        + "".join(f"factor {i} 40000\n" for i in range(1, 4)),
        "huge.dg": "digraph 100000000\n",
    }

    @pytest.fixture
    def files(self, tmp_path):
        sizes = {name: len(text) for name, text in self.FILES.items()}
        assert sizes == {"wide.cmp": 412, "tri.cmp": 77, "huge.dg": 18}
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [["validate", "wide.cmp"], ["classify", "huge.dg"]],
        ids=["validate", "classify"],
    )
    def test_exits_one_with_one_line(self, capsys, files, monkeypatch, argv):
        # the patches raise where the allocation fails
        real_build = build_digraph

        def build(n, arcs):
            if n > 10**6:
                raise MemoryError
            return real_build(n, arcs)

        def refuse(c):
            raise MemoryError

        monkeypatch.setattr("kingkernel.fileformat.build_digraph", build)
        monkeypatch.setattr("kingkernel.cli.flatten", refuse)
        code, out, err = run_cli(capsys, argv[0], str(files / argv[1]), *argv[2:])
        assert code == 1
        assert out == ""
        assert err == "error: not enough memory for this input\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["kings", "wide.cmp", "--k", "2"],
            ["quasikernel", "wide.cmp"],
            ["disjoint-qk", "tri.cmp"],
            ["kkernel", "tri.cmp", "--k", "4"],
        ],
        ids=["kings", "quasikernel", "disjoint-qk", "kkernel"],
    )
    def test_answers_without_flattening(self, capsys, files, monkeypatch, argv):
        def refuse(c):
            raise RuntimeError("flattened")

        for module in ("cli", "kernels", "composition"):
            monkeypatch.setattr(f"kingkernel.{module}.flatten", refuse)
        code, payload = run_json(capsys, argv[0], str(files / argv[1]), *argv[2:])
        assert code == 0
        if argv[0] == "kings":
            # no vertex reaches the rest of its factor in fewer than 20 steps
            assert payload == {"k": 2, "kings": [], "strict": [], "ecc": [20] * 100_000}
        elif argv[0] == "quasikernel":
            # the even factors of the 20-cycle, 5,000 vertices each
            assert payload["vertices"] == [v for v in range(100_000) if v // 5000 % 2 == 0]
        elif argv[0] == "disjoint-qk":
            assert payload["first"]["vertices"] == list(range(40_000))
            assert payload["second"]["vertices"] == list(range(40_000, 80_000))
        else:
            assert payload["certificate"]["vertices"] == [0]


class TestGen:
    def test_repeat_runs_are_identical(self, capsys):
        first = run_cli(capsys, "gen", "--seed", "7", "--kind", "tournament", "--n", "6")
        second = run_cli(capsys, "gen", "--seed", "7", "--kind", "tournament", "--n", "6")
        assert first == second
        assert first[0] == 0
        payload = json.loads(first[1])
        checked(payload, "gen")
        assert payload["digraph"]["n"] == 6

    def test_composition_with_constraints(self, capsys, tmp_path):
        out = tmp_path / "inst.cmp"
        dot = tmp_path / "inst.dot"
        code, payload = run_json(
            capsys,
            "gen", "--seed", "11", "--kind", "composition", "--t", "4",
            "--sizes", "1,3", "--constraints", "strong-outer",
            "--output", str(out), "--dot", str(dot),
        )
        assert code == 0
        checked(payload, "gen")
        written = parse_composition(out.read_text(encoding="utf-8"))
        assert written == composition_from_json(payload["composition"])
        assert written.t == 4
        assert all(1 <= h.n <= 3 for h in written.factors)
        assert "->" in dot.read_text(encoding="utf-8")

    def test_unknown_constraint_is_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--seed", "3", "--kind", "composition", "--t", "3",
            "--constraints", "acyclic",
        )
        assert code == 1
        assert "acyclic" in err

    def test_malformed_size_range_is_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--seed", "3", "--kind", "composition", "--t", "3",
            "--sizes", "1,2,3",
        )
        assert code == 1
        assert "sizes" in err


def one_violation(seed, instances=None):
    result = ExperimentResult(name="quasi-kernel", instances=1, checks=1, violations=0)
    result.record("forced failure", build_digraph(2, [(0, 1)]))
    return result


def guarantee_breach(seed, instances=None):
    raise TheoremViolation("guaranteed property failed", instance=build_digraph(1, []))


class TestExperiment:
    def test_small_run_reports_clean(self, capsys):
        code, payload = run_json(
            capsys, "experiment", "quasi-kernel", "--seeds", "5"
        )
        assert code == 0
        checked(payload, "experiment")
        assert payload["violations"] == 0
        assert payload["instances"] >= 5

    def test_recorded_violations_exit_three(self, capsys, tmp_path, monkeypatch):
        import kingkernel.cli as cli_module

        monkeypatch.setitem(cli_module.EXPERIMENTS, "quasi-kernel", one_violation)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "experiment", "quasi-kernel")
        assert code == 3
        assert "anomaly" in err
        saved = json.loads((tmp_path / "kk-anomaly.json").read_text(encoding="utf-8"))
        assert "forced failure" in saved["detail"]
        assert saved["digraph"]["n"] == 2

    def test_guarantee_breach_saves_the_instance(self, capsys, tmp_path, monkeypatch):
        import kingkernel.cli as cli_module

        monkeypatch.setitem(cli_module.EXPERIMENTS, "quasi-kernel", guarantee_breach)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "experiment", "quasi-kernel")
        assert code == 3
        saved = json.loads((tmp_path / "kk-anomaly.json").read_text(encoding="utf-8"))
        assert saved["error"] == "guaranteed property failed"
        assert saved["instance"]["n"] == 1

    def test_anomaly_is_saved_before_the_report_is_printed(self, tmp_path, monkeypatch):
        import kingkernel.cli as cli_module

        class ClosedPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setitem(cli_module.EXPERIMENTS, "quasi-kernel", one_violation)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["experiment", "quasi-kernel"])
        saved = json.loads((tmp_path / "kk-anomaly.json").read_text(encoding="utf-8"))
        assert "forced failure" in saved["detail"]

    @pytest.mark.parametrize("runner", [one_violation, guarantee_breach])
    def test_unsaved_anomaly_still_exits_three(self, capsys, tmp_path, monkeypatch, runner):
        import kingkernel.cli as cli_module

        monkeypatch.setitem(cli_module.EXPERIMENTS, "quasi-kernel", runner)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kk-anomaly.json").mkdir()
        code, _, err = run_cli(capsys, "experiment", "quasi-kernel")
        assert code == 3
        assert "not saved: cannot write kk-anomaly.json: " in err
        assert "saved to" not in err

    def test_negative_instance_count_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "quasi-kernel", "--seeds", "-3")
        assert code == 2
        assert out == ""
        assert "--seeds: must be at least 0, got -3" in err


class TestValidate:
    def test_digraph_summary(self, capsys, three_cycle_file):
        code, payload = run_json(capsys, "validate", three_cycle_file)
        assert code == 0
        checked(payload, "validate-digraph")
        assert payload["arc_count"] == 3

    def test_composition_summary_checks_the_arc_formula(
        self, capsys, strong_composition_file
    ):
        code, payload = run_json(capsys, "validate", strong_composition_file)
        assert code == 0
        checked(payload, "validate-composition")
        assert payload["arc_formula_ok"] is True
        assert payload["total_vertices"] == 5
        assert payload["flat_arc_count"] == 1 + (2 + 2 + 4)

    @pytest.mark.parametrize(
        ("arcs", "semicomplete", "strong_semicomplete"),
        [
            ([(0, 1), (1, 2), (2, 0)], True, True),
            ([(0, 1), (0, 2), (1, 2)], True, False),
            ([], False, False),
        ],
        ids=["strong", "transitive", "arcless"],
    )
    def test_composition_keys_follow_the_outer(
        self, capsys, tmp_path, arcs, semicomplete, strong_semicomplete
    ):
        factors = (build_digraph(2, [(0, 1)]), build_digraph(1, []), build_digraph(2, []))
        path = tmp_path / "outer.cmp"
        path.write_text(
            format_composition(compose(build_digraph(3, arcs), factors)), encoding="utf-8"
        )
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 0
        checked(payload, "validate-composition")
        assert payload["semicomplete_composition"] is semicomplete
        assert payload["strong_semicomplete_composition"] is strong_semicomplete
        code, out, _ = run_cli(capsys, "--format", "text", "validate", str(path))
        assert code == 0
        lines = out.splitlines()
        assert f"semicomplete composition: {semicomplete}" in lines
        assert f"strong semicomplete composition: {strong_semicomplete}" in lines

    def test_dot_export(self, capsys, three_cycle_file, tmp_path):
        dot = tmp_path / "cycle.dot"
        code, _ = run_json(capsys, "validate", three_cycle_file, "--dot", str(dot))
        assert code == 0
        text = dot.read_text(encoding="utf-8")
        assert text.startswith("digraph")
        assert "->" in text


class TestModuleEntry:
    def test_python_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kingkernel", "kings", "-", "--k", "2"],
            input=THREE_CYCLE_TEXT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kings"] == [0, 1, 2]

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
    def test_closed_stdout_ends_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kingkernel", "gen", "--seed", "1", "--n", "5"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == -signal.SIGPIPE
