"""The package's export list names only what the package defines, so a
deletion that leaves a stale entry fails here."""

from __future__ import annotations

import kingkernel


def test_every_exported_name_resolves():
    missing = [name for name in kingkernel.__all__ if not hasattr(kingkernel, name)]
    assert missing == []


def test_star_import_binds_the_export_list():
    namespace: dict[str, object] = {}
    exec("from kingkernel import *", namespace)
    assert set(kingkernel.__all__) <= namespace.keys()
