"""Time the ACEKF step and both drivers of two gridfreq checkouts, and compare their outputs.

    python tools/step_timing.py PARENT_CHECKOUT CHANGE_CHECKOUT [--rounds R]

Loads ``gridfreq.estimators`` and ``gridfreq.network`` from each checkout's
``src/`` side by side in one process (under two package names, without
running the package ``__init__``), builds the same inputs for both, and
times the step that both drivers run, ``estimators._StepPlan(model,
batch).step``, for the ``nss`` model and the shared-increment model (with
its observation row) at batch shapes (1, 7), (25, 7), (101,) and (2000,);
each side builds its plan once, outside the timing.  The state, the
covariance and the observation go in batch-last, the batch flattened into
a last axis of rows: the state as (n, rows), and the observation row's
values as (rows,).  Each side first steps once and is then timed stepping
on from that posterior, so each runs from the memory layout its own step
leaves.
The driver rows time whole runs through the public API: ``run_filter`` of
the ``nss`` model over 101 rows, and ``run_distributed`` in ``dfe`` mode on
the reference network with 1 and 24 seeds, each 0.25 s long; their times
are per filter-tick (a ``dfe`` node runs two filters a tick).  Each round
times both sides as ``SUB_BATCHES`` short sub-batches that alternate
parent and change, the side that goes first alternating too, so a swing of
the host's speed within a round reaches both sides alike.  For each cell it
prints the median and quartiles of the time per call (or per filter-tick)
on both sides, the median of the per-round change/parent ratios, marked
``~`` when the q1-q3 range of those ratios contains 1.000 (the ratio is
then within the spread of the rounds, not a measured change), and whether
the two sides' outputs are bit-identical,
the line's last field: for a step, its ``x``, ``m``, ``k``, ``p`` and ``innov``
fields (the posterior state and covariance, gain, prior covariance and
innovation) over two consecutive steps; for a driver, the estimates,
flags, kept posteriors and innovation power.  Exits 1 when any cell's
outputs differ, after printing the full table.  Needs numpy and the
standard library only; it writes nothing inside either checkout.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
import timeit
import types
from pathlib import Path

import numpy as np

SHAPES = ((1, 7), (25, 7), (101,), (2000,))
MODELS = ("nss", "shared")
#: driver rows: ``filter`` with its (rows,) batch, ``dfe`` with its seed count
DRIVERS = (("filter", 101), ("dfe", 1), ("dfe", 24))
#: length of a driver row's run
DRIVER_SECONDS = 0.25
#: seconds one side of a round should last; sets the calls per sub-batch
TARGET_S = 0.05
#: alternating parent/change sub-batches per round
SUB_BATCHES = 4
FS = 1000.0
SNR_DB = 30.0


def load(checkout: Path, name: str) -> types.SimpleNamespace:
    """The modules of a checkout that the cells use, as package ``name``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = types.ModuleType(name)
    pkg.__path__ = [str(checkout / "src" / "gridfreq")]
    sys.modules[name] = pkg
    return types.SimpleNamespace(
        est=importlib.import_module(f"{name}.estimators"),
        net=importlib.import_module(f"{name}.network"),
        sig=importlib.import_module(f"{name}.signals"),
    )


def inputs(kind: str, shape: tuple) -> dict:
    """Batch-first arrays for one cell: a state near 50 Hz, the top block row
    of a structured positive definite covariance, an observation and, for the
    shared model, its row."""
    rng = np.random.default_rng(sum(shape) * 31 + len(kind))

    def cn(*s):
        return rng.normal(size=shape + s) + 1j * rng.normal(size=shape + s)

    n = 3 if kind == "nss" else 1
    inc = np.exp(2j * np.pi * 50.0 / FS)
    x = np.full(shape + (n,), inc) + 1e-3 * cn(n)
    if kind == "nss":
        x[..., 1:] = 1.0 + 0.1 * cn(2)
    b11, b12 = 0.05 * cn(n, n), 0.05 * cn(n, n)
    top = np.concatenate([b11, b12], -1)
    b = np.concatenate([top, np.conj(np.concatenate([b12, b11], -1))], -2)
    full = b @ np.conj(np.swapaxes(b, -1, -2)) + 1e-3 * np.eye(2 * n)
    return dict(
        x=x, m=full[..., :n, :], y=1.0 + 0.1 * cn(1),
        h=(cn(), 0.1 * cn()) if kind == "shared" else None,
    )


class Cell:
    """One (model, shape) cell on one side: a plan and a posterior to step on from."""

    def __init__(self, side, kind: str, arrays: dict):
        est = side.est
        x, batch = arrays["x"], arrays["x"].shape[:-1]
        rows, n = math.prod(batch), x.shape[-1]
        x = x.reshape(rows, n).T
        if kind == "nss":
            model = est.nss_model(FS, snr_db=SNR_DB)
            self.h = None
        else:
            model = est.shared_increment_model(FS, snr_db=SNR_DB)
            self.h = ((0, arrays["h"][0].reshape(rows)), (1, arrays["h"][1].reshape(rows)))
        self.plan = est._StepPlan(model, batch)
        self.y = arrays["y"].reshape(1, rows)
        m = np.moveaxis(arrays["m"].reshape(rows, n, 2 * n), 0, -1)
        first = self.plan.step(x, m, self.y, self.h)
        second = self.plan.step(first.x, first.m, self.y, self.h)
        self.state = first.x, first.m
        self.outputs = [getattr(out, f) for out in (first, second)
                        for f in ("x", "m", "k", "p", "innov")]

    def call(self):
        return self.plan.step(*self.state, self.y, self.h)


class DriverCell:
    """One driver row on one side: a whole run, timed per filter-tick."""

    def __init__(self, side, kind: str, size: int):
        ticks = int(round(DRIVER_SECONDS * FS))
        if kind == "filter":
            rng = np.random.default_rng(size)
            phase = 2j * np.pi * 50.0 * np.arange(ticks) / FS
            noise = rng.normal(size=(size, ticks)) + 1j * rng.normal(size=(size, ticks))
            samples = np.exp(phase) + 0.3 * np.exp(-phase) + 0.03 * noise
            model = side.est.nss_model(FS, snr_db=SNR_DB)
            self.call = lambda: side.est.run_filter(model, samples, FS, detail=1)
            self.filter_ticks = size * (ticks - 1)
        else:
            topology, bridges = side.net.reference_network()
            segment = side.sig.ScenarioSegment(0.0, DRIVER_SECONDS, 50.0)
            scenario = side.sig.Scenario([segment], FS, DRIVER_SECONDS)
            self.call = lambda: side.net.run_distributed(
                topology, scenario, range(size), snr_db=SNR_DB, mode="dfe", assignment=bridges,
                detail=1,
            )
            self.filter_ticks = 2 * len(topology.node_ids) * size * (ticks - 1)
        run = self.call()
        self.outputs = [run.f_hat_hz, run.flags, run.states, run.innovation_power]


def quartiles(times: list) -> tuple:
    q1, med, q3 = np.percentile(np.array(times) * 1e6, [25, 50, 75])
    return med, q1, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--rounds", type=int, default=7, help="timed rounds per cell (default 7)")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    sides = [load(args.parent.resolve(), "gridfreq_parent"),
             load(args.change.resolve(), "gridfreq_change")]
    print(f"{'model':<7}{'batch':<10}{'parent us (q1-q3)':>24}{'change us (q1-q3)':>24}"
          f"{'ratio':>8}  identical   (ratio: median of the rounds' change/parent;"
          " ~: their q1-q3 holds 1.000; filter, dfe: whole runs, us per filter-tick)")
    cells = [(kind, shape, [Cell(side, kind, inputs(kind, shape)) for side in sides], 1)
             for kind in MODELS for shape in SHAPES]
    for kind, size in DRIVERS:
        pair = [DriverCell(side, kind, size) for side in sides]
        shape = (size,) if kind == "filter" else (size, 7)
        cells.append((kind, shape, pair, pair[0].filter_ticks))
    identical = True
    for kind, shape, pair, per_call in cells:
        same = all(
            a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            for a, b in zip(pair[0].outputs, pair[1].outputs)
        )
        identical = identical and same
        once = min(timeit.repeat(pair[0].call, number=1, repeat=3))
        number = max(1, int(TARGET_S / SUB_BATCHES / once))
        times, ratios = ([], []), []
        for r in range(args.rounds):
            spent = [0.0, 0.0]
            for b in range(SUB_BATCHES):
                for i in ((0, 1) if (r + b) % 2 == 0 else (1, 0)):
                    spent[i] += timeit.timeit(pair[i].call, number=number)
            for i in (0, 1):
                times[i].append(spent[i] / (SUB_BATCHES * number * per_call))
            ratios.append(spent[1] / spent[0])
        (pm, p1, p3), (cm, c1, c3) = quartiles(times[0]), quartiles(times[1])
        r1, ratio, r3 = np.percentile(ratios, [25, 50, 75])
        noise = "~" if r1 <= 1.0 <= r3 else " "
        print(f"{kind:<7}{str(shape):<10}{f'{pm:.1f} ({p1:.1f}-{p3:.1f})':>24}"
              f"{f'{cm:.1f} ({c1:.1f}-{c3:.1f})':>24}{ratio:>8.3f}{noise} {same}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
