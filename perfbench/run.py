"""Benchmark for kingkernel: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, and a checkout without it is refused with exit code 2.
Workloads (closed loop, one client, one process):

* ``cli-compositions``: in-process CLI requests on composition files;
* ``library-decide``: composition-level decisions on large compositions;
* ``corpus``: the eleven experiment corpora at default scale.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, taken with the tracer of
``tracing.py`` installed, and the spans are written under
``.perfbench/traces``. The line before it records the environment. Every
op's answer is checked after the timed phase; ``failed`` counts the wrong
ones. Scratch files live in ``.perfbench`` and CLI requests run there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3

if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path[0] = str(ROOT)
elif str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import loop, tracing  # noqa: E402


class MissingLibrary(Exception):
    pass


def load_library() -> Any:
    """Import kingkernel from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kingkernel" / "__init__.py").is_file():
        raise MissingLibrary(f"no kingkernel sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import kingkernel
    import kingkernel.cli
    import kingkernel.experiments
    import kingkernel.schemas

    if Path(kingkernel.__file__).resolve().parent != src / "kingkernel":
        raise MissingLibrary(f"kingkernel was imported from {kingkernel.__file__}")
    return kingkernel


def timed_import() -> tuple[Any, float]:
    """Import the library afresh, dropping any copy already loaded, and time
    it. The interpreter's own start is left out: it is not the library's."""
    for key in [k for k in sys.modules if k == "kingkernel" or k.startswith("kingkernel.")]:
        del sys.modules[key]
    start = time.perf_counter()
    kk = load_library()
    return kk, time.perf_counter() - start


def workload_class(name: str) -> Any:
    from perfbench.cli_compositions import CliCompositions
    from perfbench.corpus import Corpus
    from perfbench.library_decide import LibraryDecide

    return {w.name: w for w in (CliCompositions, LibraryDecide, Corpus)}[name]


def benchmark_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def end_to_end(timed: loop.Timed, failed: int, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": timed.attempted / timed.elapsed_s,
        "latency_p50_ms": 1000 * loop.percentile(timed.latencies_s, 0.5),
        "latency_p90_ms": 1000 * loop.percentile(timed.latencies_s, 0.9),
        "peak_rss_mb": timed.rss_mb,
        "success_ratio": (timed.attempted - failed) / timed.attempted,
    }


def per_layer(tracer: tracing.Tracer, workload: Any, timed: loop.Timed) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, seconds in tracer.seconds.items():
        out[f"{name}_s"] = seconds
    for name, calls in tracer.calls.items():
        out[f"{name}_calls"] = calls
    out["gen.instances"] = tracer.calls["gen.generate"]
    out.update(tracer.counts)
    out.update(workload.layer_metrics())
    if timed.reference_traced_s is not None:
        out["trace.overhead_s"] = timed.reference_traced_s - timed.reference_untraced_s
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, small: bool = False
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One benchmark run; returns the result object and the info record."""
    imports = []
    for _ in range(SETUP_REPEATS):
        kk, took = timed_import()
        imports.append(took)
    spec = benchmark_spec()
    workload = workload_class(name)(kk, seed, small=small)
    tracer = tracing.Tracer() if trace else None
    workdir = SCRATCH / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        builds = []
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            if tracer is not None and last:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.build(workdir)
            finally:
                if tracer is not None and last:
                    tracer.uninstall()
            builds.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(builds)

        if hasattr(workload, "measure"):
            timed = workload.measure(seconds, tracer)
        else:
            timed = loop.measure_ops(workload, seconds, tracer)
        layers = per_layer(tracer, workload, timed) if tracer is not None else {}
        failures = workload.check()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(timed.attempted, sum(count for count, _ in failures))
    if tracer is None:
        values = end_to_end(timed, failed, setup_s)
        wanted = spec["end_to_end"]
    else:
        values = layers
        wanted = spec["per_layer"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "ops": timed.attempted,
        "latency_samples": len(timed.latencies_s),
        "timed_s": timed.elapsed_s,
        "setup_import_s": imports,
        "setup_build_s": builds,
        "failures": [message for _, message in failures[:5]],
    }
    if tracer is not None:
        info["trace_overhead_s"] = layers.get("trace.overhead_s")
        trace_file = SCRATCH / "traces" / f"{name}-seed{seed}.json"
        tracer.write(trace_file, {"info": info, "per_layer": layers})
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {
        "correct": not failures,
        "attempted": timed.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("cli-compositions", "library-decide", "corpus")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in info["failures"]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
