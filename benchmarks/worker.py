"""The measured process of one benchmark run (started by ``run.py``).

It validates the workload's config with ``gridfreq validate``, then calls
``gridfreq.cli.main(["run", ...])`` repeatedly, one call at a time, until the
time budget is spent, checking every call's outputs against the reference.
With ``--trace 1`` the calls alternate between untraced and traced, so the
traced figures come with the tracing overhead measured in the same process.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import yaml
from gridfreq import cli

from checks import check_outputs, error_sums, reference_path
from speed import SpeedProbe
from tracing import Tracer
from workloads import SEED_BANK, WORKLOADS, analytic_filter_ticks


def _quiet_main(argv) -> tuple[int | None, str]:
    """Run the CLI with its chatter captured; (exit code or None, error)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return cli.main(argv), err.getvalue().strip()
    except Exception as exc:  # a crash of the program under test is a failed run
        return None, repr(exc)


def _csv_totals(out: Path) -> tuple[int, int]:
    rows = size = 0
    for path in out.glob("*.csv"):
        data = path.read_bytes()
        rows += data.count(b"\n") - 1
        size += len(data)
    return rows, size


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tmp", required=True)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    seed = SEED_BANK[args.seed % len(SEED_BANK)]
    config = wl.config_arg()
    tmp = Path(args.tmp)
    problems = []

    rc, err = _quiet_main(["validate", config])
    validated = rc == 0
    if not validated:
        problems.append(f"gridfreq validate {config}: exit {rc} {err}")

    cfg, _ = cli.load_config(config)
    plan = cli.build_plan(cfg)
    filter_ticks = analytic_filter_ticks(plan, wl.seeds)
    fs = plan.sample_rate_hz
    window = (int(round(wl.window_s[0] * fs)), int(round(wl.window_s[1] * fs)))
    reference = np.load(reference_path(wl.name))
    run_argv = ["run", config, "--seed", str(seed), "--seeds", str(wl.seeds)]

    # the speed probe would inflate span times, so traced runs go without it
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe()
    walls = {False: [], True: []}
    speeds = []
    layers = []
    attempted = failed = 0
    err_sq, err_n = 0.0, 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        out = tmp / f"call{attempted}"
        if traced:
            tracer.reset()
            tracer.install()
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                rc, err = _quiet_main(run_argv + ["--out-dir", str(out)])
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall()
        attempted += 1
        walls[traced].append(t1 - t0)
        if probe is not None:
            speeds.append(probe.speed)

        call_problems = [] if rc == 0 else [f"exit {rc} {err}"]
        if out.is_dir():
            if rc == 0:
                call_problems += check_outputs(out, reference, seed)
                sq, n = error_sums(out, window)
                err_sq, err_n = err_sq + sq, err_n + n
            if traced:
                figures = tracer.layer_metrics()
                figures["cli.csv_rows"], figures["cli.csv_bytes"] = _csv_totals(out)
                figures["trace.wall_s"] = t1 - t0
                layers.append(figures)
                got = figures["estimators.filter_ticks"]
                if tracer.measured("estimators.step") and got != filter_ticks:
                    call_problems.append(
                        f"traced filter-ticks {got} != analytic count {filter_ticks}"
                    )
            shutil.rmtree(out)
        else:
            call_problems.append("no output directory")
        if call_problems:
            failed += 1
            problems += [f"call {attempted - 1}: {m}" for m in call_problems]

        elapsed = time.perf_counter() - start
        need_both = tracer is not None and not (walls[False] and walls[True])
        if not need_both and elapsed + (t1 - t0) > args.seconds:
            break

    result = {
        "validated": validated,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "filter_ticks": filter_ticks,
        # time at the reference core speed; raw walls with --trace 1
        "wall_s": statistics.median(
            [w * v for w, v in zip(walls[False], speeds)] if speeds else walls[False]
        ),
        "walls_s": {"untraced": walls[False], "traced": walls[True]},
        "speeds": speeds,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_rms_hz": (err_sq / err_n) ** 0.5 if err_n else 0.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
        },
    }
    if tracer is not None:
        # counts repeat exactly from call to call and stay whole numbers
        medians = {}
        for k in layers[0] if layers else ():
            values = [f[k] for f in layers]
            medians[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
        result["layers"] = medians
        medians["trace.overhead"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        result["unmeasured"] = tracer.unmeasured
        result["unmeasured_metrics"] = tracer.unmeasured_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
