"""Smoke check of the benchmark itself, at reduced scale: every workload,
traced and untraced, with every answer check and the trace writer run, and
each checker shown to catch a wrong answer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

It takes about a minute, most of it in the corpus's exhaustive scans, which
do not shrink with the instance count.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.cli_compositions import MIX, CliCompositions
from perfbench.corpus import Corpus
from perfbench.library_decide import LibraryDecide

SPEC = run.benchmark_spec()
SEED = 7


@pytest.fixture(scope="module")
def kk():
    return run.load_library()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_is_correct(workload, trace):
    result, info = run.run_workload(workload, SEED, seconds=1, trace=trace, small=True)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    if workload == "library-decide":
        assert values["composition.flatten_calls"] == 0
        assert values["fileformat.parse_s"] == 0
        assert values["kings.composition_has_k_king_calls"] > 0
    elif workload == "cli-compositions":
        assert values["composition.flatten_calls"] > 0
        assert values["cli.kings_ms"] > 0
        assert values["fileformat.parse_bytes"] > 0
    else:
        assert values["experiments.king-characterization_checks"] > 0
    body = json.loads((run.ROOT / info["trace_file"]).read_text(encoding="utf-8"))
    ids = {span["id"] for span in body["spans"]}
    assert body["spans"]
    assert all(span["parent"] is None or span["parent"] in ids for span in body["spans"])


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def corrupt_cli(command, payload, flat_n):
    if command == "kings":
        payload["ecc"][0] += 1
    elif command == "validate":
        payload["flat_arc_count"] += 1
    elif command == "quasikernel":
        # the first and the last factor are joined by a bundle of arcs
        payload["vertices"] = [0, flat_n - 1]
    elif command == "disjoint-qk":
        payload["second"] = payload["first"]
    elif command == "kkernel":
        payload["exists"] = not payload["exists"]
    elif command == "classify":
        flag = payload["factors"]["1"]
        payload["factors"]["1"] = "NONE" if flag == "ALL" else "ALL"
    elif command == "establish":
        payload["composition"]["outer"]["arcs"].pop()
    elif command == "gen":
        payload["composition"]["outer"]["arcs"].pop()


def test_cli_checks_catch_wrong_answers(kk, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = CliCompositions(kk, SEED, small=True)
    workload.build(tmp_path)
    for i in range(len(MIX)):
        workload.run_op(i)
    assert workload.check() == []
    for i, command in enumerate(MIX):
        code, out, err = workload.outputs[i]
        payload = json.loads(out)
        c = workload.inputs.get(i)
        corrupt_cli(command[0], payload, c.total_vertices if c else 0)
        workload.outputs[i] = (code, json.dumps(payload), err)
    workload.outputs[len(MIX)] = (1, "", "error: refused")
    assert len(workload.check()) == len(MIX) + 1


def corrupt_decision(result):
    if isinstance(result, bool):
        return not result
    if hasattr(result, "exists"):
        return dataclasses.replace(result, exists=not result.exists)
    return dataclasses.replace(result, ok=not result.ok)


def test_library_checks_catch_wrong_answers(kk):
    workload = LibraryDecide(kk, SEED, small=True)
    workload.build(None)
    for i in range(workload.period):
        workload.run_op(i)
    assert workload.check() == []
    wrong = {"composition_has_k_king", "composition_all_k_kings", "can_establish"}
    workload.results = [
        (slot, corrupt_decision(result))
        for slot, result in workload.results
        if workload.schedule[slot][1][0] in wrong
    ]
    assert len(workload.check()) == len(workload.results)


def test_corpus_check_counts_violations(kk):
    workload = Corpus(kk, SEED, small=True)
    result = kk.experiments.ExperimentResult("fixture-regression", 1, 4, 0)
    result.record("planted failure")
    result.record("another planted failure")
    workload.results = [("fixture-regression", 0.1, result)]
    assert workload.check() == [(2, "fixture-regression: 2 violations: [{'detail': 'planted failure'}]")]
