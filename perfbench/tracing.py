"""Spans around the calls the benchmark makes into each kingkernel layer.

The program is not changed. While a ``Tracer`` is installed, each public
function named in ``LAYER_FUNCTIONS`` is replaced, in every loaded
``kingkernel`` module that binds it, by a wrapper that records a span; the
originals are put back by ``uninstall``. Calls made inside the library, such
as ``establish`` calling ``flatten``, are therefore traced too, as child
spans. The benchmark adds its own spans (one per CLI request, per experiment
runner, per probe) with ``Tracer.span``.

Spans stay in memory, aggregated per name, and the first ``MAX_SPANS`` are
also kept raw for ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


def _parse_bytes(args: tuple, result: Any) -> dict[str, int]:
    return {"fileformat.parse_bytes": len(args[0])}


def _flat_arcs(args: tuple, result: Any) -> dict[str, int]:
    return {"composition.flat_arcs": result.arc_count}


def _bfs_work(args: tuple, result: Any) -> dict[str, int]:
    d = args[0]
    return {"kings.bfs_work": d.n * (d.n + d.arc_count)}


MAX_SPANS = 200_000

# (module, public function, span name, counts derived from the call)
LAYER_FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("fileformat", "parse_any", "fileformat.parse", _parse_bytes),
    ("fileformat", "format_composition", "fileformat.write", None),
    ("fileformat", "format_digraph", "fileformat.write", None),
    ("gen", "generate", "gen.generate", None),
    ("composition", "flatten", "composition.flatten", _flat_arcs),
    ("kings", "k_kings", "kings.k_kings", _bfs_work),
    ("kings", "establish", "kings.establish", None),
    ("kings", "composition_has_k_king", "kings.composition_has_k_king", None),
    ("kings", "composition_all_k_kings", "kings.composition_all_k_kings", None),
    ("kings", "classify_three_kings", "kings.classify_three_kings", None),
    ("kings", "can_establish", "kings.can_establish", None),
    ("kernels", "quasi_kernel", "kernels.quasi_kernel", None),
    ("kernels", "disjoint_quasi_kernels", "kernels.disjoint_quasi_kernels", None),
    ("kernels", "composition_k_kernel", "kernels.composition_k_kernel", None),
)


class Tracer:
    def __init__(self) -> None:
        self.seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.raw: list[tuple[int, str, float, float, int | None, int]] = []
        self.dropped = 0
        self._next_id = 0
        # open spans: [span id, request id, time covered by children, parent id]
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self) -> None:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        request = parent[1] if parent else span_id
        self._stack.append([span_id, request, 0.0, parent[0] if parent else None])

    def _close(self, name: str, start: float, end: float) -> float:
        """Record a finished span; return the time its children covered."""
        span_id, request, children, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.seconds[name] += duration
        self.calls[name] += 1
        if len(self.raw) < MAX_SPANS:
            self.raw.append((span_id, name, start, end, parent, request))
        else:
            self.dropped += 1
        return children

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, float]]:
        """Time a block as a span. The yielded dict receives ``seconds`` and
        ``self_seconds`` (seconds not covered by child spans) on exit."""
        out: dict[str, float] = {}
        self._open()
        start = time.perf_counter()
        try:
            yield out
        finally:
            end = time.perf_counter()
            children = self._close(name, start, end)
            out["seconds"] = end - start
            out["self_seconds"] = end - start - children

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, time.perf_counter())
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a kingkernel module binds it.
        A function the library no longer has is skipped."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "kingkernel" or key.startswith("kingkernel."))
        ]
        for module_name, func_name, span_name, counter in LAYER_FUNCTIONS:
            home = sys.modules.get(f"kingkernel.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "request": r}
            for i, n, s, e, p, r in self.raw
        ]
        body = {**extra, "dropped_spans": self.dropped, "spans": spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body), encoding="utf-8")
