"""gridfreq benchmark: one measured run of one workload.

    python3 benchmarks/run.py --workload network_theory --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Prints every metric with its unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` the ``per_layer`` ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEED_BANK, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: timed fresh-interpreter set-ups before and again after the worker (after
#: one untimed warm-up that fills the bytecode cache, which users also only
#: pay once); two moments average over more of the host's speed swings
SETUP_REPEATS = 3
#: a run must end within 180 s; leave room for start-up and the report
DEADLINE_S = 170.0
#: one client, one thread: numpy's BLAS/OpenMP pools pinned to a single thread
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(argv, deadline: float) -> str:
    """Run a helper script to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _setup_samples(config: str, deadline: float, repeats: int) -> list[float]:
    probe = str(BENCH_DIR / "setup_probe.py")
    return [float(_run_child([probe, config], deadline)) for _ in range(repeats)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gridfreq" / "cli.py").is_file():
        print(f"error: no gridfreq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]

    tmp = ROOT / ".bench_tmp" / f"run{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        if not args.trace:
            setup = _setup_samples(wl.config_arg(), deadline, 1 + SETUP_REPEATS)[1:]
        worker = [
            str(BENCH_DIR / "worker.py"),
            "--workload", wl.name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--tmp", str(tmp),
        ]
        res = json.loads(_run_child(worker, deadline).strip().splitlines()[-1])
        if not args.trace:
            setup += _setup_samples(wl.config_arg(), deadline, SETUP_REPEATS)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = res["attempted"] + (0 if res["validated"] else 1)
    failed = res["failed"] + (0 if res["validated"] else 1)
    if args.trace:
        values = res["layers"]
    else:
        values = {
            # the host's slow speed drifts move set-up time too, so it is
            # scaled by the core speed the worker saw in the same run
            "setup_s": statistics.median(setup) * statistics.median(res["speeds"]),
            "wall_s": res["wall_s"],
            "filter_ticks_per_s": res["filter_ticks"] / res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "err_rms_hz": res["err_rms_hz"],
            "success_rate": (attempted - failed) / attempted,
        }
    unmeasured = [m["name"] for m in wanted if m["name"] not in values]
    unmeasured += res.get("unmeasured_metrics", [])
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }

    v = res["versions"]
    print(
        f"workload {wl.name}  bench seed {args.seed} -> gridfreq --seed {res['seed']}"
        f" (bank {SEED_BANK})  --seeds {wl.seeds}  filter-ticks/call {res['filter_ticks']}"
    )
    print(
        f"machine: nproc {os.cpu_count()}  python {v['python']}  numpy {v['numpy']}"
        f"  pyyaml {v['pyyaml']}  threads pinned: {' '.join(f'{k}=1' for k in THREAD_ENV)}"
    )
    walls = res["walls_s"]
    print(
        f"calls: {res['attempted']}, failed {res['failed']},"
        f" validate {'ok' if res['validated'] else 'FAILED'};"
        f" wall per call untraced {[round(w, 3) for w in walls['untraced']]}"
        f" traced {[round(w, 3) for w in walls['traced']]};"
        f" core speed {[round(v, 3) for v in res['speeds']]}"
    )
    if setup:
        print(f"setup: raw median {statistics.median(setup):.4f} s over {len(setup)} interpreters")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    for name in res.get("unmeasured", []):
        print(f"unmeasured entry point: {name}")
    for name in unmeasured:
        print(f"unmeasured metric (reported as 0): {name}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
