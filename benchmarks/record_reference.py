"""Record the reference outputs the benchmark checks every run against.

    PYTHONPATH=src python3 benchmarks/record_reference.py [WORKLOAD ...]

For each workload (default: all) and each seed of ``SEED_BANK`` this runs
``gridfreq run`` once and stores in ``reference/<workload>.npz`` the sorted
output file names and every frequency-estimate column, quantized by
``checks.encode``.  Re-record only on purpose, when a change of results is
intended, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from gridfreq import cli

from checks import encode, f_hat_of, reference_path
from workloads import BENCH_DIR, SEED_BANK, WORKLOADS


def record(name: str) -> None:
    wl = WORKLOADS[name]
    arrays, files = {}, None
    scratch = BENCH_DIR.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in SEED_BANK:
            out = f"{tmp}/s{seed}"
            argv = ["run", wl.config_arg(), "--seed", str(seed), "--seeds", str(wl.seeds)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out-dir", out])
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: gridfreq run exited {rc}")
            written = [p for p in sorted(Path(out).iterdir()) if p.name != "manifest.json"]
            names = [p.name for p in written]
            if files is not None and names != files:
                raise SystemExit(f"{name} seed {seed}: output files differ between seeds")
            files = names
            for path in written:
                f_hat = f_hat_of(path)
                if f_hat is None:
                    continue
                if not np.all(np.isfinite(f_hat)):
                    raise SystemExit(f"{name} seed {seed}: non-finite f_hat in {path.name}")
                arrays[f"s{seed}:{path.name}"] = encode(f_hat)
            shutil.rmtree(out)
            print(f"{name} seed {seed}: {len(names)} files", flush=True)
    with contextlib.suppress(OSError):
        scratch.rmdir()
    np.savez_compressed(reference_path(name), files=np.array(files), **arrays)


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
