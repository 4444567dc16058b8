"""The benchmark's workloads: which config runs, at which size, and how its
outputs are read back.

Every workload is one ``gridfreq run`` of a config.  The benchmark seed picks
the run's ``--seed`` from ``SEED_BANK``; the reference ``f_hat`` for every
bank seed is stored under ``reference/`` so each run can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: gridfreq seeds a run can use; benchmark seed n runs SEED_BANK[n % len]
SEED_BANK = (0, 1, 2, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled experiment name or path relative to BENCH_DIR
    seeds: int  # the ``--seeds`` count passed to ``gridfreq run``
    window_s: tuple  # evaluation window of err_rms_hz, the config's own
    why: str

    def config_arg(self) -> str:
        local = BENCH_DIR / self.config
        return str(local) if local.is_file() else self.config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single_mc",
            "experiment1_sag_step",
            seeds=100,
            window_s=(0.75, 1.3),  # the config's spectrum window
            why="Single-node nss at 100 seeds: run_filter_batch at large batch dominates;"
            " the network layer and theory replay are idle (bypass for network changes).",
        ),
        Workload(
            "network_theory",
            "experiment4_network7",
            seeds=1,
            window_s=(1.0, 2.0),  # the config's mse window
            why="7-node dfe at one seed with mse theory: batch-of-one steps, dict diffusion"
            " and the mse_step replay dominate; the large-batch kernel regime is bypassed.",
        ),
        Workload(
            "network_mc",
            "experiment4_network7_mixed",
            seeds=24,
            window_s=(1.0, 1.334),  # the config's mse window
            why="7-node dfe over 24 seeds with per-node scenarios: run_distributed_mc at"
            " moderate batch dominates; no theory replay or message logging runs.",
        ),
        Workload(
            "network_fullstate",
            "configs/network_fullstate.yaml",
            seeds=1,
            window_s=(1.0, 2.0),  # experiment4_network7's mse window
            why="Full-state conventional diffusion with every message logged to CSV:"
            " the only workload on _full_state_tick and the message log; no bridges, no theory.",
        ),
    )
}


def analytic_filter_ticks(plan, n_seeds: int) -> int:
    """Filter-ticks one ``gridfreq run`` performs, from the plan alone.

    The CLI always runs the one-seed pass; ``--seeds N`` with N > 1 adds an
    N-seed Monte-Carlo pass.  A ``dfe`` node runs two filters per tick.
    """
    ticks = plan.scenario.n_samples - 1
    passes = 1 + (n_seeds if n_seeds > 1 else 0)
    if plan.topology is None:
        return passes * ticks
    filters = 2 if plan.estimator == "dfe" else 1
    return filters * len(plan.topology.node_ids) * passes * ticks
