"""Workload ``cli-compositions``: one request is one in-process
``kingkernel.cli.main(argv)`` call on a composition text file written in
set-up, as a user who starts one process per call would issue it.

Why: every composition subcommand here except ``classify`` flattens, so
flatten plus BFS on the flat digraph is most of the cost; ``kings`` and
``establish`` on the largest rungs set the tail. The ``gen`` request is the
write side.

Each request gets its own instance, so no request can be answered from
``flatten``'s cache by an earlier one. Request ``i`` runs subcommand
``MIX[i % 8]`` on rung ``(i + i // 8) % 8``: every eight consecutive
requests cover the mix, and every ``PERIOD`` requests cover each
(subcommand, rung) pair once. A run ends at the first multiple of
``PERIOD`` requests after its time is up, or when the ``POOL`` inputs built
in set-up are used.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any

import jsonschema

from . import reference
from .reference import expect

MIX: tuple[tuple[str, ...], ...] = (
    ("kings", "--k", "3"),
    ("validate",),
    ("quasikernel",),
    ("disjoint-qk",),
    ("kkernel", "--k", "4"),
    ("classify",),
    ("establish",),
    ("gen",),
)
SCHEMA_KEY = {"classify": "classify-composition", "validate": "validate-composition"}

# (outer kind, t); factors of 4 to 6 vertices, so flat N reaches ~480. The
# narrow size range keeps N, and so the cost, nearly the same for every seed.
RUNGS = tuple((kind, t) for t in (20, 40, 60, 80) for kind in ("tournament", "semicomplete"))
FACTOR_SIZES = (4, 6)
# establish: small eligible tournament outers (6 to 8 vertices) with factors
# of about 20 to 50 vertices, sized so that flat N is the rung's exactly
ESTABLISH_FLAT_N = tuple(150 + 25 * r for r in range(8))
ESTABLISH_OUTER_SIZES = (6, 7, 8)
ELIGIBLE_OUTERS = 8
ELIGIBLE_SEARCH_CAP = 100_000

PERIOD = len(MIX) * len(RUNGS)
POOL = 4 * PERIOD

SMALL_RUNGS = tuple((kind, t) for t in (4, 6, 8, 10) for kind in ("tournament", "semicomplete"))
SMALL_ESTABLISH_FLAT_N = tuple(8 + r for r in range(8))


def shape(i: int) -> tuple[tuple[str, ...], int]:
    return MIX[i % len(MIX)], (i + i // len(MIX)) % len(RUNGS)


class CliCompositions:
    name = "cli-compositions"
    period = PERIOD
    pool_size = POOL
    unit = PERIOD
    reference_ops = 2 * len(MIX)

    def __init__(self, kk: Any, seed: int, small: bool = False) -> None:
        self.kk = kk
        self.seed = seed
        self.rungs = SMALL_RUNGS if small else RUNGS
        self.establish_flat_n = SMALL_ESTABLISH_FLAT_N if small else ESTABLISH_FLAT_N
        if small:
            self.pool_size = 2 * PERIOD
        self.inputs: dict[int, Any] = {}
        self.argv: dict[int, list[str]] = {}
        self.outputs: dict[int, tuple[int | None, str, str]] = {}
        self.latency_by_command: dict[str, list[float]] = {}
        self.residual_s: list[float] = []
        self.validators: dict[str, Any] = {}
        self.tracer = None

    # set-up -----------------------------------------------------------------

    def _spec(self, seed: int, kind: str, t: int) -> Any:
        gen = self.kk.gen
        return gen.GenSpec(
            seed=seed,
            kind=gen.Kind[kind.upper()],
            t=t,
            size_min=FACTOR_SIZES[0],
            size_max=FACTOR_SIZES[1],
            constraints=frozenset({gen.Constraint.STRONG_OUTER}),
        )

    def _eligible_outers(self) -> list[Any]:
        """Seeded can_establish search over small strong tournaments."""
        gen, kings = self.kk.gen, self.kk.kings
        found = []
        attempt = 0
        while len(found) < ELIGIBLE_OUTERS:
            if attempt == ELIGIBLE_SEARCH_CAP:
                raise RuntimeError(f"no {ELIGIBLE_OUTERS} eligible outers in {attempt} attempts")
            n = ESTABLISH_OUTER_SIZES[attempt % len(ESTABLISH_OUTER_SIZES)]
            spec = gen.GenSpec(
                seed=gen.derive(self.seed, 1, attempt),
                kind=gen.Kind.TOURNAMENT,
                n=n,
                constraints=frozenset({gen.Constraint.STRONG_OUTER}),
            )
            d = gen.generate(spec)
            if kings.can_establish(d).ok:
                found.append(d)
            attempt += 1
        return found

    def _establish_input(self, i: int, outer: Any, flat_n: int) -> Any:
        gen = self.kk.gen
        base, extra = divmod(flat_n, outer.n)
        factors = [
            gen.generate(
                gen.GenSpec(
                    seed=gen.derive(self.seed, 3, i, v),
                    kind=gen.Kind.ERDOS_RENYI,
                    n=base + (v < extra),
                    p=0.5,
                )
            )
            for v in range(outer.n)
        ]
        return self.kk.composition.compose(outer, factors)

    def build(self, workdir: Path) -> None:
        gen, fileformat = self.kk.gen, self.kk.fileformat
        outers = self._eligible_outers()
        self.inputs.clear()
        self.argv.clear()
        for i in range(self.pool_size):
            command, rung = shape(i)
            kind, t = self.rungs[rung]
            seed = gen.derive(self.seed, 0, i)
            if command[0] == "gen":
                self.argv[i] = [
                    "gen", "--seed", str(seed), "--kind", kind, "--t", str(t),
                    "--sizes", "{},{}".format(*FACTOR_SIZES),
                    "--constraints", "strong-outer", "--output", f"gen-{i}.cmp",
                ]
                continue
            if command[0] == "establish":
                outer = outers[(i // len(MIX)) % len(outers)]
                c = self._establish_input(i, outer, self.establish_flat_n[rung])
                extra = ["--output", f"ext-{i}.cmp"]
            else:
                c = gen.generate(self._spec(seed, kind, t))
                extra = list(command[1:])
            path = workdir / f"in-{i}.cmp"
            path.write_text(fileformat.format_composition(c), encoding="utf-8")
            self.inputs[i] = c
            self.argv[i] = [command[0], path.name, *extra]

    # timed ------------------------------------------------------------------

    def run_op(self, i: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        code: int | None
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is None:
                code = self._main(i)
            else:
                with self.tracer.span(f"cli.{self.argv[i][0]}") as span:
                    code = self._main(i)
        self.outputs[i] = (code, out.getvalue(), err.getvalue())
        if self.tracer is not None:
            self.latency_by_command.setdefault(self.argv[i][0], []).append(span["seconds"])
            self.residual_s.append(span["self_seconds"])

    def _main(self, i: int) -> int | None:
        try:
            return self.kk.cli.main(list(self.argv[i]))
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    # checks -----------------------------------------------------------------

    def check(self) -> list[tuple[int, str]]:
        """One message per failed request."""
        failures = []
        for i in sorted(self.outputs):
            code, out, err = self.outputs[i]
            try:
                if code != 0:
                    raise AssertionError(f"exit code {code}: {err.strip()[-200:]}")
                self._check_one(i, json.loads(out))
            except Exception as exc:
                failures.append((1, f"request {i} {self.argv[i]}: {type(exc).__name__}: {str(exc)[:300]}"))
        return failures

    def _check_one(self, i: int, payload: dict[str, Any]) -> None:
        command = self.argv[i][0]
        validator = self._validator(SCHEMA_KEY.get(command, command))
        if not validator.is_valid(payload):
            raise jsonschema.exceptions.best_match(validator.iter_errors(payload))
        getattr(self, "_check_" + command.replace("-", "_"))(i, payload)

    def _validator(self, key: str) -> Any:
        if key not in self.validators:
            schema = self.kk.schemas.BY_SUBCOMMAND[key]
            self.validators[key] = jsonschema.validators.validator_for(schema)(schema)
        return self.validators[key]

    def _certificate_ok(self, c: Any, cert: dict[str, Any]) -> bool:
        kernels = self.kk.kernels
        claimed = kernels.KernelCertificate(
            kind=kernels.CertificateKind[cert["kind"]],
            vertices=frozenset(cert["vertices"]),
            k=cert["k"],
            validated=False,
        )
        return cert["validated"] and kernels.validate_certificate(
            self.kk.composition.flatten(c), claimed
        )

    def _check_kings(self, i: int, payload: dict[str, Any]) -> None:
        c = self.inputs[i]
        eccs = reference.composition_eccentricities(c)
        expect(payload["ecc"] == [None if e == math.inf else e for e in eccs], "eccentricities")
        expect(payload["kings"] == [v for v, e in enumerate(eccs) if e <= 3], "kings")
        expect(payload["strict"] == [v for v, e in enumerate(eccs) if e == 3], "strict kings")
        decided = self.kk.kings.composition_has_k_king(c, 3).exists
        expect(bool(payload["kings"]) == decided, "composition-level 3-king decision")

    def _check_validate(self, i: int, payload: dict[str, Any]) -> None:
        c = self.inputs[i]
        expect(payload["t"] == c.t, "t")
        expect(payload["sizes"] == [h.n for h in c.factors], "sizes")
        expect(payload["flat_arc_count"] == reference.flat_arc_count(c), "flat arc count")
        expect(payload["arc_formula_ok"], "arc formula")
        expect(payload["strong_semicomplete_composition"], "strong semicomplete")

    def _check_quasikernel(self, i: int, payload: dict[str, Any]) -> None:
        expect(self._certificate_ok(self.inputs[i], payload), "quasi-kernel certificate")

    def _check_disjoint_qk(self, i: int, payload: dict[str, Any]) -> None:
        c = self.inputs[i]
        first, second = payload["first"], payload["second"]
        expect(self._certificate_ok(c, first), "first quasi-kernel")
        expect(self._certificate_ok(c, second), "second quasi-kernel")
        expect(not set(first["vertices"]) & set(second["vertices"]), "disjointness")

    def _check_kkernel(self, i: int, payload: dict[str, Any]) -> None:
        c = self.inputs[i]
        k = payload["k"]
        rows = reference.distance_rows(c.outer)
        absorbing = any(
            all(row[u] <= k - 1 for row in rows) for u in range(c.t)
        )
        expect(payload["exists"] == absorbing, "k-kernel existence")
        if absorbing:
            expect(self._certificate_ok(c, payload["certificate"]), "k-kernel certificate")

    def _check_classify(self, i: int, payload: dict[str, Any]) -> None:
        c = self.inputs[i]
        eccs = reference.composition_eccentricities(c)
        for f, block in enumerate(reference.factor_blocks(c)):
            inside = [eccs[x] <= 3 for x in block]
            flag = "ALL" if all(inside) else "NONE" if not any(inside) else "MIXED"
            expect(payload["factors"][str(f + 1)] == flag, f"factor {f + 1} flag")
        expect(payload["three_kings"] == [v for v, e in enumerate(eccs) if e <= 3], "3-kings")

    def _check_establish(self, i: int, payload: dict[str, Any]) -> None:
        c = self.inputs[i]
        fileformat = self.kk.fileformat
        expect(payload["can_establish"]["ok"], "eligibility")
        extended = fileformat.composition_from_json(payload["composition"])
        expect(extended.factors[: c.t] == c.factors, "original factors kept")
        kept = {(u, v) for u, v in extended.outer.arcs() if u < c.t and v < c.t}
        expect(kept == set(c.outer.arcs()), "original outer arcs kept")
        eccs = reference.composition_eccentricities(extended)
        expect(
            [v for v, e in enumerate(eccs) if e <= 3] == list(range(c.total_vertices)),
            "3-kings of the extension are exactly the original vertices",
        )
        written = Path(self.argv[i][-1]).read_text(encoding="utf-8")
        expect(fileformat.parse_any(written) == extended, "--output file")

    def _check_gen(self, i: int, payload: dict[str, Any]) -> None:
        _, rung = shape(i)
        kind, t = self.rungs[rung]
        expected = self.kk.gen.generate(self._spec(self.kk.gen.derive(self.seed, 0, i), kind, t))
        fileformat = self.kk.fileformat
        expect(fileformat.composition_from_json(payload["composition"]) == expected, "instance")
        written = Path(self.argv[i][-1]).read_text(encoding="utf-8")
        expect(fileformat.parse_any(written) == expected, "--output file")

    # per-layer --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {
            f"cli.{cmd}_ms": 1000 * statistics.median(lat) for cmd, lat in self.latency_by_command.items()
        }
        if self.residual_s:
            out["cli.residual_ms"] = 1000 * statistics.median(self.residual_s)
        return out
