"""Time the ACEKF step of two gridfreq checkouts, interleaved, and compare its outputs.

    python tools/step_timing.py PARENT_CHECKOUT CHANGE_CHECKOUT [--rounds R]

Loads ``gridfreq.estimators`` from each checkout's ``src/`` side by side in
one process (under two package names, without running the package
``__init__``), builds the same inputs for both, and times
``estimators._step`` for the ``nss`` model and the shared-increment model
(with its observation row) at batch shapes (1, 7), (25, 7), (101,) and
(2000,).  Each side first steps once and is then timed stepping on from
that posterior, so each runs from the memory layout its own step leaves.
Rounds alternate which side runs first.  For each cell it prints the
median and quartiles of the time per call on both sides, the ratio of the
medians, and whether the two sides' outputs (posterior state and
covariance, gain, prior covariance and innovation, over two consecutive
steps) are bit-identical.  Exits 1 when any cell's outputs differ, after
printing the full table.  Needs numpy and the standard library only; it
writes nothing inside either checkout.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import timeit
import types
from pathlib import Path

import numpy as np

SHAPES = ((1, 7), (25, 7), (101,), (2000,))
MODELS = ("nss", "shared")
#: seconds one timed measurement should last; sets the calls per measurement
TARGET_S = 0.05
FS = 1000.0
SNR_DB = 30.0


def load(checkout: Path, name: str) -> types.SimpleNamespace:
    """The ``estimators`` and ``augmented`` modules of a checkout, as package ``name``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = types.ModuleType(name)
    pkg.__path__ = [str(checkout / "src" / "gridfreq")]
    sys.modules[name] = pkg
    return types.SimpleNamespace(
        est=importlib.import_module(f"{name}.estimators"),
        aug=importlib.import_module(f"{name}.augmented"),
    )


def inputs(kind: str, shape: tuple) -> dict:
    """Plain arrays for one cell: a state near 50 Hz, a structured positive
    definite covariance, an observation and, for the shared model, its row."""
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
        x=x, m11=full[..., :n, :n], m12=full[..., :n, n:], y=1.0 + 0.1 * cn(1),
        h=(cn(), 0.1 * cn()) if kind == "shared" else None,
    )


class Cell:
    """One (model, shape) cell on one side: a posterior to step on from."""

    def __init__(self, side, kind: str, arrays: dict):
        est, aug = side.est, side.aug
        if kind == "nss":
            self.model = est.nss_model(FS, snr_db=SNR_DB)
            self.h = None
        else:
            self.model = est.shared_increment_model(FS, snr_db=SNR_DB)
            self.h = ((0, arrays["h"][0]), (1, arrays["h"][1]))
        self.step = est._step
        self.y = aug.AugmentedVector(arrays["y"])
        state = est.FilterState(
            aug.AugmentedVector(arrays["x"]), aug.AugmentedMatrix(arrays["m11"], arrays["m12"])
        )
        first, diag1 = self.step(self.model, state, self.y, self.h)
        second, diag2 = self.step(self.model, first, self.y, self.h)
        self.state = first
        self.outputs = [
            a
            for new, d in ((first, diag1), (second, diag2))
            for a in (new.x_hat.top, new.M.block11, new.M.block12, d.gain.block11,
                      d.gain.block12, d.M_prior.block11, d.M_prior.block12, d.innovation.top)
        ]

    def call(self):
        return self.step(self.model, self.state, self.y, self.h)


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
          f"{'ratio':>8}  identical")
    identical = True
    for kind in MODELS:
        for shape in SHAPES:
            arrays = inputs(kind, shape)
            cells = [Cell(side, kind, arrays) for side in sides]
            same = all(
                a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
                for a, b in zip(cells[0].outputs, cells[1].outputs)
            )
            identical = identical and same
            number = max(1, int(TARGET_S / min(timeit.repeat(cells[0].call, number=1, repeat=3))))
            times = ([], [])
            for r in range(args.rounds):
                for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                    times[i].append(timeit.timeit(cells[i].call, number=number) / number)
            (pm, p1, p3), (cm, c1, c3) = quartiles(times[0]), quartiles(times[1])
            print(f"{kind:<7}{str(shape):<10}{f'{pm:.1f} ({p1:.1f}-{p3:.1f})':>24}"
                  f"{f'{cm:.1f} ({c1:.1f}-{c3:.1f})':>24}{cm / pm:>8.3f}  {same}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
