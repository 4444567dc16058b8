"""Reading a run's output directory back: the correctness checks against the
recorded reference, and the accuracy figure ``err_rms_hz``.

A reference stores, per bank seed and per output file that carries a
frequency estimate, that estimate quantized to ``QUANTUM_HZ`` relative to
``BASE_HZ`` (int64, zlib-compressed in an ``.npz``), plus the sorted list of
output file names.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import BENCH_DIR

#: largest |f_hat - reference| a run may show (ROADMAP item 2's tolerance)
TOLERANCE_HZ = 1e-9
#: reference quantization step; its rounding error is 1/200 of the tolerance
QUANTUM_HZ = 1e-11
BASE_HZ = 50.0

#: columns holding a frequency estimate: per-tick traces, Monte-Carlo summaries
_F_HAT_COLUMNS = ("f_hat_hz", "f_hat_mean_hz")


def reference_path(workload: str) -> Path:
    return BENCH_DIR / "reference" / f"{workload}.npz"


def encode(f_hat: np.ndarray) -> np.ndarray:
    return np.round((f_hat - BASE_HZ) / QUANTUM_HZ).astype(np.int64)


def decode(q: np.ndarray) -> np.ndarray:
    return BASE_HZ + q * QUANTUM_HZ


def read_columns(path: Path, names) -> dict:
    """The named columns of a CSV with a header row, as float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [header.index(n) for n in names]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return {n: data[:, j] for j, n in enumerate(names)}


def f_hat_of(path: Path):
    """The frequency-estimate column of an output CSV, or None if it has none."""
    if path.suffix != ".csv":
        return None
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    for name in _F_HAT_COLUMNS:
        if name in header:
            return read_columns(path, [name])[name]
    return None


def check_outputs(out: Path, ref, seed: int) -> list[str]:
    """Every way the run's output directory differs from a correct run."""
    problems = []
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {f["name"]: f["sha256"] for f in manifest["files"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest unreadable: {exc!r}"]
    expected = [str(n) for n in ref["files"]]
    present = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    for name in sorted(set(expected) - set(present)):
        problems.append(f"{name}: missing")
    for name in sorted(set(present) - set(expected)):
        problems.append(f"{name}: not in the reference output list")
    for name in present:
        if name not in listed:
            problems.append(f"{name}: not listed in manifest")
        elif hashlib.sha256((out / name).read_bytes()).hexdigest() != listed[name]:
            problems.append(f"{name}: manifest hash mismatch")
    for name in sorted(set(listed) - set(present)):
        problems.append(f"{name}: in manifest but not written")
    for name in sorted(set(expected) & set(present)):
        key = f"s{seed}:{name}"
        if key not in ref.files:
            continue
        f_hat = f_hat_of(out / name)
        want = decode(ref[key])
        if f_hat is None or f_hat.shape != want.shape:
            problems.append(f"{name}: f_hat column missing or of the wrong length")
        elif not np.all(np.isfinite(f_hat)):
            problems.append(f"{name}: non-finite f_hat")
        else:
            worst = float(np.max(np.abs(f_hat - want)))
            if worst > TOLERANCE_HZ:
                problems.append(f"{name}: f_hat differs from the reference by {worst:.3e} Hz")
    return problems


def error_sums(out: Path, window_ticks: tuple) -> tuple[float, int]:
    """(sum of squared errors, count) of f_hat - f_true over the window.

    Monte-Carlo summaries are preferred when present: each of their rows
    carries the RMS over all seeds at one tick.
    """
    lo, hi = window_ticks
    mc = sorted(out.glob("mc_*.csv"))
    files = mc or sorted(out.glob("*trace.csv"))
    column = "err_rms_hz" if mc else "err_hz"
    sq, count = 0.0, 0
    for path in files:
        err = read_columns(path, [column])[column][lo:hi]
        sq += float(np.sum(err**2))
        count += err.size
    return sq, count
