"""Shared pytest plumbing.

The acceptance tests append one verdict line each to ``ACCEPTANCE_LINES``;
replaying them in the terminal summary keeps the pass/fail overview visible
even though pytest captures per-test stdout.
"""

import pytest

import gridfreq.network
from gridfreq.analysis import mse_step

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def theory_log(monkeypatch):
    """Record what the network loop feeds its error recursion.

    Every online ``mse_step`` call appends ``(diagnostics, next_state)``, in
    tick order, to the returned list.
    """
    log = []

    def spy(state, diag):
        nxt = mse_step(state, diag)
        log.append((diag, nxt))
        return nxt

    monkeypatch.setattr(gridfreq.network, "mse_step", spy)
    return log
