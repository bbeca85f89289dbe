"""Reading and writing digraphs and compositions.

Text formats ('#' starts a comment, blank lines are ignored):

    digraph <n>            composition <t>
    <u> <v>                outer
    ...                    <i> <j>          arcs of the outer digraph
                           ...
                           factor 1 <n_1>   factors in order, 1-based
                           <u> <v>          arcs of factor 1
                           ...
                           factor 2 <n_2>
                           ...

JSON equivalents mirror the same structure: {"n": ..., "arcs": [[u, v], ...]}
for digraphs, {"t": ..., "outer": {...}, "factors": [{...}, ...]} for
compositions. Parsers auto-detect JSON input by a leading '{'.

Every result the package reports (certificates, reports, generation specs,
experiment results) reaches JSON through one rule, `_to_json`: a digraph or
composition takes the encoding above, a dataclass maps its fields by name,
an enum member becomes its name, and a set becomes a sorted list.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Iterator

from .composition import Composition, compose, flatten
from .digraph import Digraph, build_digraph
from .errors import FormatError, PreconditionError


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_arc(line: str, lineno: int, n: int, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"expected '<u> <v>' arc in {what}, got {line!r}", lineno)
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-numeric arc endpoint in {line!r}", lineno) from None
    if not (0 <= u < n and 0 <= v < n):
        raise FormatError(f"arc ({u}, {v}) out of range for n={n}", lineno)
    if u == v:
        raise FormatError(f"loop arc ({u}, {v})", lineno)
    return u, v


def _parse_count(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"non-numeric {what} {token!r}", lineno) from None
    if value < 0:
        raise FormatError(f"negative {what} {value}", lineno)
    return value


def _read_header(text: str, form: str, what: str) -> tuple[list[tuple[int, str]], int]:
    """The significant lines of text and the count its `form` header (such
    as 'digraph <n>') declares."""
    lines = list(_significant_lines(text))
    if not lines:
        raise FormatError(f"empty input, expected a '{form}' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != form.split()[0]:
        raise FormatError(f"expected '{form}' header, got {header!r}", lineno)
    return lines, _parse_count(parts[1], lineno, what)


def parse_digraph(text: str) -> Digraph:
    lines, n = _read_header(text, "digraph <n>", "vertex count")
    arcs = [_parse_arc(line, ln, n, "digraph") for ln, line in lines[1:]]
    return build_digraph(n, arcs)


def parse_composition(text: str) -> Composition:
    lines, t = _read_header(text, "composition <t>", "factor count")
    if t < 2:
        raise FormatError(f"composition needs t >= 2, got {t}", lines[0][0])
    if len(lines) < 2 or lines[1][1] != "outer":
        where = lines[1][0] if len(lines) > 1 else lines[0][0]
        raise FormatError("expected 'outer' block after the header", where)
    # one block (vertex count, name, arcs) for the outer digraph, then one per
    # factor header; every other line is an arc of the last block
    blocks: list[tuple[int, str, list[tuple[int, int]]]] = [
        (t, "outer digraph", [])
    ]
    for ln, line in lines[2:]:
        if line.startswith("factor"):
            parts = line.split()
            if len(parts) != 3 or parts[0] != "factor":
                raise FormatError(f"expected 'factor <i> <n_i>', got {line!r}", ln)
            i = _parse_count(parts[1], ln, "factor index")
            if i != len(blocks):
                raise FormatError(
                    f"factor blocks must appear in order; expected factor "
                    f"{len(blocks)}, got {i}",
                    ln,
                )
            if i > t:
                raise FormatError(f"factor index {i} exceeds t={t}", ln)
            size = _parse_count(parts[2], ln, "factor size")
            if size < 1:
                raise FormatError(f"factor {i} must be nonempty", ln)
            blocks.append((size, f"factor {i}", []))
        else:
            n, what, arcs = blocks[-1]
            arcs.append(_parse_arc(line, ln, n, what))
    if len(blocks) != t + 1:
        raise FormatError(
            f"expected {t} factor blocks, found {len(blocks) - 1}", lines[-1][0]
        )
    outer, *factors = (build_digraph(n, arcs) for n, _, arcs in blocks)
    return compose(outer, factors)


def format_digraph(d: Digraph) -> str:
    out = [f"digraph {d.n}"]
    out.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(out) + "\n"


def format_composition(c: Composition) -> str:
    out = [f"composition {c.t}", "outer"]
    out.extend(f"{u} {v}" for u, v in c.outer.arcs())
    for i, h in enumerate(c.factors, start=1):
        out.append(f"factor {i} {h.n}")
        out.extend(f"{u} {v}" for u, v in h.arcs())
    return "\n".join(out) + "\n"


def digraph_to_json(d: Digraph) -> dict[str, Any]:
    return {"n": d.n, "arcs": [[u, v] for u, v in d.arcs()]}


def composition_to_json(c: Composition) -> dict[str, Any]:
    return {
        "t": c.t,
        "outer": digraph_to_json(c.outer),
        "factors": [digraph_to_json(h) for h in c.factors],
    }


def _to_json(value: Any) -> Any:
    """The JSON form of a value the package reports. Lists and dicts pass
    through unchanged: the ones results carry are already JSON."""
    if isinstance(value, Digraph):
        return digraph_to_json(value)
    if isinstance(value, Composition):
        return composition_to_json(value)
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, (set, frozenset)):
        # a set holds one type: vertex ids sort as they are, enum members by name
        if value and isinstance(next(iter(value)), Enum):
            return sorted(map(_to_json, value))
        return sorted(value)
    return value


def _is_int(x: Any) -> bool:
    """A JSON integer. bool is an int subclass, but true and false are not
    vertex counts or vertex ids."""
    return isinstance(x, int) and not isinstance(x, bool)


def _digraph_from_obj(obj: Any, what: str) -> Digraph:
    if not isinstance(obj, dict) or "n" not in obj or "arcs" not in obj:
        raise FormatError(f"{what} must be an object with 'n' and 'arcs'")
    n = obj["n"]
    if not _is_int(n):
        raise FormatError(f"{what}: 'n' must be an integer, got {n!r}")
    arcs = obj["arcs"]
    if not isinstance(arcs, list):
        raise FormatError(f"{what}: 'arcs' must be a list")
    pairs: list[tuple[int, int]] = []
    for arc in arcs:
        if (
            not isinstance(arc, list)
            or len(arc) != 2
            or not all(_is_int(x) for x in arc)
        ):
            raise FormatError(f"{what}: bad arc entry {arc!r}")
        pairs.append((arc[0], arc[1]))
    try:
        return build_digraph(n, pairs)
    except PreconditionError as exc:
        raise FormatError(f"{what}: {exc}") from None


def digraph_from_json(obj: Any) -> Digraph:
    return _digraph_from_obj(obj, "digraph")


def composition_from_json(obj: Any) -> Composition:
    if not isinstance(obj, dict) or "outer" not in obj or "factors" not in obj:
        raise FormatError("composition must be an object with 'outer' and 'factors'")
    outer = _digraph_from_obj(obj["outer"], "outer digraph")
    raw_factors = obj["factors"]
    if not isinstance(raw_factors, list):
        raise FormatError("'factors' must be a list")
    factors = tuple(
        _digraph_from_obj(f, f"factor {i + 1}") for i, f in enumerate(raw_factors)
    )
    t = obj.get("t", len(factors))
    if not _is_int(t):
        raise FormatError(f"'t' must be an integer, got {t!r}")
    if t != len(factors):
        raise FormatError(f"'t' is {t} but {len(factors)} factors given")
    try:
        return compose(outer, factors)
    except PreconditionError as exc:
        raise FormatError(str(exc)) from None


def parse_any(text: str) -> Digraph | Composition:
    """Parse either object in either encoding, detecting JSON by a leading
    '{' and the text format by its header keyword."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc.msg}", exc.lineno) from None
        if isinstance(obj, dict) and "factors" in obj:
            return composition_from_json(obj)
        return digraph_from_json(obj)
    for _, line in _significant_lines(text):
        if line.startswith("composition"):
            return parse_composition(text)
        break
    return parse_digraph(text)


def to_dot(obj: Digraph | Composition) -> str:
    """GraphViz text. Compositions are flattened, with one cluster per
    factor."""
    lines = ["digraph G {"]
    if isinstance(obj, Composition):
        offs = obj.offsets
        for i, h in enumerate(obj.factors):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="factor {i + 1}";')
            for v in range(h.n):
                lines.append(f"    {offs[i] + v};")
            lines.append("  }")
        graph = flatten(obj)
    else:
        graph = obj
        for v in range(graph.n):
            lines.append(f"  {v};")
    for u, v in graph.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
