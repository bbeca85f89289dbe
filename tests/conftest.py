from __future__ import annotations

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # type: ignore[no-untyped-def]
    try:
        from acceptance_report import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status} criterion {num:2d}: {desc}")


@pytest.fixture
def walks(monkeypatch):
    """A one-item list counting the BFS walks (`_levels` calls) started from
    `kingkernel.digraph`, where every walk of the library but the outer king
    walks of `kings.py` starts: work counted with no timing."""
    import kingkernel.digraph

    count = [0]
    levels = kingkernel.digraph._levels

    def counted(masks, frontier):
        count[0] += 1
        return levels(masks, frontier)

    monkeypatch.setattr(kingkernel.digraph, "_levels", counted)
    return count


@pytest.fixture
def three_cycle():
    from kingkernel import build_digraph

    return build_digraph(3, [(0, 1), (1, 2), (2, 0)])
