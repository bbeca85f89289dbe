"""Command line front end.

Every subcommand reads a digraph or composition from a file (``-`` for
stdin), runs one library operation, and prints the result as JSON (default)
or a plain text summary. Exit status: 0 success, 1 precondition or
generation failure, 2 malformed input or usage, 3 a guaranteed property
failed to hold (the offending instance is saved to ``kk-anomaly.json``, or
stderr says why it could not be).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any

from .composition import Composition, flatten, require_strong_semicomplete_composition
from .digraph import Digraph, DigraphClass, UNREACHABLE, classify_digraph
from .errors import FormatError, GenerationError, PreconditionError, TheoremViolation
from .experiments import DEFAULT_SEED, EXPERIMENTS
from .fileformat import _to_json, format_composition, format_digraph, parse_any, to_dot
from .gen import Constraint, GenSpec, Kind, generate
from .kernels import (
    DEFAULT_ORACLE_CAP,
    KernelCertificate,
    c3_gadget,
    composition_k_kernel,
    disjoint_quasi_kernels,
    k_kernel_brute_force,
    quasi_kernel,
)
from .kings import (
    _composition_k_kings,
    can_establish,
    classified_flat_three_kings,
    classify_three_kings,
    establish,
    k_kings,
)

ANOMALY_FILE = "kk-anomaly.json"


def _read_source(path: str) -> str:
    """The text of the file at path, or of stdin for '-', decoded by one rule:
    strict UTF-8 with universal newlines, as `open` reads a text file."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_any(path: str) -> Digraph | Composition:
    return parse_any(_read_source(path))


def _load_composition(path: str) -> Composition:
    obj = _load_any(path)
    if not isinstance(obj, Composition):
        raise PreconditionError("this operation needs a composition input")
    return obj


def _ecc_json(values: tuple[int | float, ...]) -> list[int | None]:
    return [None if v is UNREACHABLE else int(v) for v in values]


def _classification_json(cls: DigraphClass) -> dict[str, Any]:
    return {
        "semicomplete": cls.is_semicomplete,
        "tournament": cls.is_tournament,
        "strong": cls.is_strong,
        "sources": sorted(cls.sources),
        "sinks": sorted(cls.sinks),
    }


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _write_text(path: str | None, content: str) -> None:
    if path is None:
        return
    try:
        Path(path).write_text(content, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _id_line(label: str, ids: Any) -> str:
    body = " ".join(str(v) for v in sorted(ids)) or "(none)"
    return f"{label}: {body}"


def _cmd_kings(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    report = (_composition_k_kings if isinstance(obj, Composition) else k_kings)(obj, args.k)
    payload = {
        "k": report.k,
        "kings": sorted(report.kings),
        "strict": sorted(report.strict),
        "ecc": _ecc_json(report.ecc_out),
    }
    text = "\n".join(
        [
            f"k: {report.k}",
            _id_line("kings", report.kings),
            _id_line("strict", report.strict),
            "ecc: " + " ".join("-" if e is UNREACHABLE else str(e) for e in report.ecc_out),
        ]
    )
    _emit(args, payload, text)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    if isinstance(obj, Digraph):
        payload = {
            "type": "digraph",
            "n": obj.n,
            "classification": _classification_json(classify_digraph(obj)),
        }
        cls = payload["classification"]
        text = "\n".join(
            [
                f"digraph on {obj.n} vertices",
                f"semicomplete: {cls['semicomplete']}",
                f"tournament: {cls['tournament']}",
                f"strong: {cls['strong']}",
                _id_line("sources", cls["sources"]),
                _id_line("sinks", cls["sinks"]),
            ]
        )
        _emit(args, payload, text)
        return 0
    classification = classify_three_kings(obj)
    flags = {str(i + 1): classification.flags[i].value for i in range(obj.t)}
    three = sorted(classified_flat_three_kings(obj, classification))
    payload = {
        "type": "composition",
        "t": obj.t,
        "outer": _classification_json(classify_digraph(obj.outer)),
        "factors": flags,
        "three_kings": three,
    }
    lines = [f"composition with {obj.t} factors"]
    lines.extend(f"factor {i + 1}: {classification.flags[i].value}" for i in range(obj.t))
    lines.append(_id_line("three-kings", three))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_establish(args: argparse.Namespace) -> int:
    c = _load_composition(args.input)
    require_strong_semicomplete_composition(c)
    report = can_establish(c.outer)
    payload: dict[str, Any] = {"can_establish": _to_json(report), "composition": None}
    if not report.ok:
        _emit(
            args,
            payload,
            "not establishable: "
            + _id_line("blocking two-kings", report.blocking_two_kings),
        )
        print("error: the outer digraph admits no establishing extension", file=sys.stderr)
        return 1
    extended = establish(c)
    payload["composition"] = _to_json(extended)
    _write_text(args.output, format_composition(extended))
    text = "\n".join(
        [
            _id_line("strict three-kings", report.strict_three_kings),
            f"added factors: {extended.t - c.t}",
            f"total vertices: {extended.total_vertices}",
        ]
    )
    _emit(args, payload, text)
    return 0


def _cmd_quasikernel(args: argparse.Namespace) -> int:
    cert = quasi_kernel(_load_any(args.input))
    _emit(args, _to_json(cert), _id_line("quasi-kernel", cert.vertices))
    return 0


def _cmd_disjoint_qk(args: argparse.Namespace) -> int:
    c = _load_composition(args.input)
    first, second = disjoint_quasi_kernels(c)
    payload = {"first": _to_json(first), "second": _to_json(second)}
    text = "\n".join(
        [_id_line("first", first.vertices), _id_line("second", second.vertices)]
    )
    _emit(args, payload, text)
    return 0


def _kernel_payload(k: int, cert: KernelCertificate | None) -> dict[str, Any]:
    return {
        "k": k,
        "exists": cert is not None,
        "certificate": _to_json(cert),
    }


def _kernel_text(k: int, cert: KernelCertificate | None) -> str:
    if cert is None:
        return f"no {k}-kernel"
    return _id_line(f"{k}-kernel", cert.vertices)


def _cmd_kkernel(args: argparse.Namespace) -> int:
    c = _load_composition(args.input)
    cert = composition_k_kernel(c, args.k)
    _emit(args, _kernel_payload(args.k, cert), _kernel_text(args.k, cert))
    return 0


def _oracle_cap(max_n: int | None) -> int:
    """The oracle size cap: the --max-n flag, else the KK_MAX_N environment
    variable, else the library default."""
    if max_n is not None:
        return max_n
    env = os.environ.get("KK_MAX_N")
    if env is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(f"KK_MAX_N must be an integer, got {env!r}") from None


def _cmd_oracle(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    cert = k_kernel_brute_force(obj, args.k, max_n=_oracle_cap(args.max_n))
    _emit(args, _kernel_payload(args.k, cert), _kernel_text(args.k, cert))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    if not isinstance(obj, Digraph):
        raise PreconditionError("reduce expects a digraph input")
    gadget = c3_gadget(obj)
    check = None
    if args.check:
        cap = _oracle_cap(args.max_n)
        direct = k_kernel_brute_force(obj, 3, max_n=cap)
        lifted = k_kernel_brute_force(gadget, 3, max_n=cap)
        check = {
            "digraph_has_3kernel": direct is not None,
            "gadget_has_3kernel": lifted is not None,
            "agree": (direct is not None) == (lifted is not None),
        }
    payload = {"composition": _to_json(gadget), "check": check}
    _write_text(args.output, format_composition(gadget))
    lines = [f"gadget with {gadget.t} factors, {gadget.total_vertices} vertices"]
    if check is not None:
        lines.append(f"3-kernel in input: {check['digraph_has_3kernel']}")
        lines.append(f"3-kernel in gadget: {check['gadget_has_3kernel']}")
        lines.append(f"agree: {check['agree']}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _count(raw: str) -> int:
    """A non-negative integer option; argparse turns the errors into exit 2."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _parse_sizes(raw: str | None) -> tuple[int | None, int | None]:
    if raw is None:
        return None, None
    parts = raw.split(",")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise PreconditionError("--sizes expects LO,HI or a single integer") from None
    return lo, hi


def _parse_constraints(raw: str | None) -> frozenset[Constraint]:
    if not raw:
        return frozenset()
    out = set()
    for name in raw.split(","):
        cleaned = name.strip().upper().replace("-", "_")
        try:
            out.add(Constraint[cleaned])
        except KeyError:
            choices = ", ".join(c.name for c in Constraint)
            raise PreconditionError(
                f"unknown constraint {name!r} (choices: {choices})"
            ) from None
    return frozenset(out)


def _cmd_gen(args: argparse.Namespace) -> int:
    size_min, size_max = _parse_sizes(args.sizes)
    spec = GenSpec(
        seed=args.seed,
        kind=Kind[args.kind.upper().replace("-", "_")],
        n=args.n,
        t=args.t,
        size_min=size_min,
        size_max=size_max,
        p=args.p,
        p2=args.p2,
        constraints=_parse_constraints(args.constraints),
    )
    obj = generate(spec)
    # keyed "digraph" or "composition" by the instance's type
    payload = {"spec": _to_json(spec), type(obj).__name__.lower(): _to_json(obj)}
    text = format_composition(obj) if isinstance(obj, Composition) else format_digraph(obj)
    _write_text(args.output, text)
    if args.dot is not None:
        _write_text(args.dot, to_dot(obj))
    _emit(args, payload, text.rstrip("\n"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS[args.name]
    result = runner(seed=args.seed, instances=args.seeds)
    payload = result.to_json()
    lines = [
        f"experiment: {result.name}",
        f"instances: {result.instances}",
        f"checks: {result.checks}",
        f"violations: {result.violations}",
        f"elapsed: {result.elapsed_s:.2f}s",
    ]
    for key, value in sorted(result.info.items()):
        lines.append(f"{key}: {value}")
    if result.violations:
        # saved before the report is printed, so a closed stdout cannot lose it
        detail = result.failures[0] if result.failures else {}
        saved = _write_anomaly(
            {"error": f"{result.name}: {result.violations} violations", **detail}
        )
    _emit(args, payload, "\n".join(lines))
    if result.violations:
        print(f"anomaly: {result.violations} violations (first {saved})", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    if args.dot is not None:
        _write_text(args.dot, to_dot(obj))
    if isinstance(obj, Digraph):
        payload = {
            "type": "digraph",
            "n": obj.n,
            "arc_count": obj.arc_count,
            "classification": _classification_json(classify_digraph(obj)),
        }
        text = f"valid digraph: {obj.n} vertices, {obj.arc_count} arcs"
        _emit(args, payload, text)
        return 0
    outer = classify_digraph(obj.outer)
    strong_semicomplete = outer.is_semicomplete and outer.is_strong
    flat = flatten(obj)
    expected = sum(h.arc_count for h in obj.factors) + sum(
        obj.factors[i].n * obj.factors[j].n for i, j in obj.outer.arcs()
    )
    payload = {
        "type": "composition",
        "t": obj.t,
        "sizes": [h.n for h in obj.factors],
        "total_vertices": obj.total_vertices,
        "outer": _classification_json(outer),
        "semicomplete_composition": outer.is_semicomplete,
        "strong_semicomplete_composition": strong_semicomplete,
        "flat_arc_count": flat.arc_count,
        "arc_formula_ok": flat.arc_count == expected,
    }
    text = "\n".join(
        [
            f"valid composition: {obj.t} factors, {obj.total_vertices} vertices",
            f"semicomplete composition: {outer.is_semicomplete}",
            f"strong semicomplete composition: {strong_semicomplete}",
            f"flattened arcs: {flat.arc_count}",
        ]
    )
    _emit(args, payload, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kingkernel",
        description="kings, quasi-kernels, and k-kernels in digraph compositions",
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, helptext: str, func: Any) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        # accepted after the subcommand too; SUPPRESS keeps a leading
        # --format from being clobbered by the subparser default
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default=argparse.SUPPRESS,
            help="output format (default: json)",
        )
        p.set_defaults(func=func)
        return p

    p = add("kings", "k-kings of a digraph or flattened composition", _cmd_kings)
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--k", type=int, required=True, help="reach bound, at least 2")

    p = add("classify", "classify a digraph, or 3-king factors of a composition", _cmd_classify)
    p.add_argument("input", help="input file, or - for stdin")

    p = add("establish", "extend a composition so every vertex becomes a 3-king", _cmd_establish)
    p.add_argument("input", help="composition file, or - for stdin")
    p.add_argument("--output", help="write the extended composition here as text")

    p = add("quasikernel", "compute a validated quasi-kernel", _cmd_quasikernel)
    p.add_argument("input", help="input file, or - for stdin")

    p = add("disjoint-qk", "two disjoint quasi-kernels of a composition", _cmd_disjoint_qk)
    p.add_argument("input", help="composition file, or - for stdin")

    p = add("kkernel", "k-kernel of a strong semicomplete composition, k >= 4", _cmd_kkernel)
    p.add_argument("input", help="composition file, or - for stdin")
    p.add_argument("--k", type=int, required=True, help="kernel order, at least 4")

    p = add("oracle", "exhaustive k-kernel search on a small digraph", _cmd_oracle)
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--k", type=int, required=True, help="kernel order, at least 2")
    p.add_argument("--max-n", type=int, help="override the oracle size cap")

    p = add("reduce", "wrap a digraph in the 3-cycle gadget", _cmd_reduce)
    p.add_argument("input", help="digraph file, or - for stdin")
    p.add_argument("--check", action="store_true", help="compare 3-kernel existence on both sides")
    p.add_argument("--max-n", type=int, help="oracle size cap for --check")
    p.add_argument("--output", help="write the gadget here as text")

    p = add("gen", "generate a seeded random digraph or composition", _cmd_gen)
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument(
        "--kind",
        default="tournament",
        choices=("tournament", "semicomplete", "erdos-renyi", "composition"),
        help="what to generate (default: tournament)",
    )
    p.add_argument("--n", type=int, help="vertex count for plain digraphs")
    p.add_argument("--t", type=int, help="factor count; implies a composition")
    p.add_argument("--sizes", help="factor size range LO,HI (or one exact size)")
    p.add_argument("--p", type=float, default=0.5, help="arc probability (default: 0.5)")
    p.add_argument("--p2", type=float, default=0.25, help="digon probability (default: 0.25)")
    p.add_argument("--constraints", help="comma separated: strong-outer, no-sink-outer, no-source-outer")
    p.add_argument("--output", help="write the instance here as text")
    p.add_argument("--dot", help="write a DOT rendering here")

    p = add("experiment", "run a property-checking corpus", _cmd_experiment)
    p.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment name")
    p.add_argument("--seeds", type=_count, help="instance count override")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed")

    p = add("validate", "parse a file and report what it contains", _cmd_validate)
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--dot", help="write a DOT rendering here")

    return parser


def _write_anomaly(report: dict[str, Any]) -> str:
    """Save a failure report to ANOMALY_FILE. Returns where it went, or why
    it could not be saved; either way the run still exits 3."""
    try:
        _write_text(ANOMALY_FILE, json.dumps(report, indent=2, sort_keys=True))
    except FormatError as exc:
        return f"not saved: {exc}"
    return f"saved to {ANOMALY_FILE}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 1
    except TheoremViolation as exc:
        saved = _write_anomaly({"error": str(exc), "instance": _to_json(exc.instance)})
        print(f"anomaly: {exc} (instance {saved})", file=sys.stderr)
        return 3


def entry() -> None:
    # a closed stdout (`kingkernel ... | head`) ends the process quietly
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
