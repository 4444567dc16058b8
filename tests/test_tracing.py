"""The traced benchmark run finds the package's layer entry points by name.

``benchmarks/tracing.py`` wraps module attributes such as
``gridfreq.network:_diffuse_all``; a refactor that renames or removes one
silently zeroes the metrics drawn from it.  These are the entry points that
resolve; an entry point may join the list, none may leave it.
"""

import importlib.util
from pathlib import Path

import gridfreq.network
from gridfreq.network import Topology, run_distributed
from gridfreq.signals import Scenario, ScenarioSegment

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

RESOLVED = (
    "gridfreq.cli:build_plan",
    "gridfreq.cli:run_plan",
    "gridfreq.cli:run_filter",
    "gridfreq.cli:run_distributed",
    "gridfreq.cli:error_spectrum",
    "gridfreq.cli:generate_arrays",
    "gridfreq.network:generate_arrays",
    "gridfreq.cli:clarke_arrays",
    "gridfreq.network:clarke_arrays",
    "gridfreq.network:_diffuse_all",
)


def test_resolved_entry_points_stay_resolved():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {t for group in tracing.ENTRY_POINTS.values() for t in group}
    assert set(RESOLVED) <= targets
    tracer = tracing.Tracer()
    original = gridfreq.network._diffuse_all
    try:
        tracer.install()
        assert not set(RESOLVED) & set(tracer.unmeasured)
        # the network tick calls the diffusion by this name, so the wrapper sees each round
        scn = Scenario([ScenarioSegment(0.0, 0.01, 50.0)], 1000.0, 0.01)
        run_distributed(Topology((1, 2), [(1, 2)]), scn, [0], snr_db=30.0)
        assert [s[0] for s in tracer.spans].count("network.diffuse") == scn.n_samples - 1
    finally:
        tracer.uninstall()
    assert gridfreq.network._diffuse_all is original
