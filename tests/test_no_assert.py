"""Library guarantees are enforced by raising, never by `assert`, which
`python -O` strips."""

from __future__ import annotations

import ast
from pathlib import Path

import kingkernel


def test_no_assert_statement_in_library_code():
    files = sorted(Path(kingkernel.__file__).parent.glob("*.py"))
    assert any(path.name == "kernels.py" for path in files)
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
