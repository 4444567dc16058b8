"""Shared pytest plumbing.

The acceptance tests append one verdict line each to ``ACCEPTANCE_LINES``;
replaying them in the terminal summary keeps the pass/fail overview visible
even though pytest captures per-test stdout.
"""

from dataclasses import replace

import pytest

import gridfreq.analysis
import gridfreq.network
from gridfreq.analysis import mse_block

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def theory_log(monkeypatch):
    """Record what the network loop feeds its error recursion, one entry per tick.

    The loop steps the recursion over blocks of ticks, so two spies meet
    here: ``_tick`` yields each tick's diagnostics, and every ``mse_block``
    call the states of its ticks, one per V of its trajectory.  Each tick
    of a theory run appends ``(diagnostics, state)``, in tick order, to the
    returned list.
    """
    log, diags, states = [], [], []
    original_tick = gridfreq.network._tick

    def pair():
        n = min(len(diags), len(states))
        log.extend(zip(diags[:n], states[:n]))
        del diags[:n], states[:n]

    def tick(aux_plan, shared_plan, mixing, errors, *args):
        out = original_tick(aux_plan, shared_plan, mixing, errors, *args)
        if errors is not None:
            diags.append(out[1])
            pair()
        return out

    def block(state, *args):
        nxt, vs = mse_block(state, *args)
        states.extend(replace(nxt, V=v) for v in vs)
        pair()
        return nxt, vs

    monkeypatch.setattr(gridfreq.network, "_tick", tick)
    monkeypatch.setattr(gridfreq.analysis, "mse_block", block)
    return log
