"""Compare the outputs of two gridfreq checkouts on the standing-rule configs.

    python tools/compare_outputs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs ``gridfreq run`` from each checkout's ``src/`` on ten configs (the
four bundled experiments, ``experiment1_sag_step --seeds 100``,
``experiment4_network7 --seeds 24``, ``experiment4_network7_mixed --seeds
24``, ``benchmarks/configs/network_fullstate.yaml``,
``tools/configs/experiment4_network7_messages.yaml`` and
``tools/configs/experiment4_network7_ragged.yaml --seeds 3``) at seeds 0
and 3, into a temporary directory; ``experiment4_network7 --seeds 24`` is
one theory run whose error recursion reads seed row 0 of a Monte-Carlo
batch.  ``network_fullstate`` logs conventional ``to_neighbor`` messages,
and ``experiment4_network7_messages`` the bridge messages: ``to_bridge``
and the ``from_bridge`` aggregates.  ``experiment4_network7_ragged`` runs
257 ticks, so its last block of observations is not a full one.  The two
``tools/configs`` files are read from this tool's own checkout, so both
sides run the same file.
For each config it prints the largest |Δ f_hat| over every ``f_hat*``
column, whether every ``flags`` column is identical, the largest relative
change of ``theoretical_trace``, whether ``bound_ok`` is identical, and
which output files are byte-identical.  Exits 1 when any
output file differs or exists on one side only, after printing the full
report, and 0 when every file is byte-identical.  Needs numpy and the
standard library only; it writes nothing inside either checkout.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = (
    ("experiment1_sag_step", []),
    ("experiment2_ramp", []),
    ("experiment4_network7", []),
    ("experiment4_network7_mixed", []),
    ("experiment1_sag_step", ["--seeds", "100"]),
    ("experiment4_network7", ["--seeds", "24"]),
    ("experiment4_network7_mixed", ["--seeds", "24"]),
    ("benchmarks/configs/network_fullstate.yaml", []),
    (str(Path(__file__).resolve().parent / "configs" / "experiment4_network7_messages.yaml"), []),
    (str(Path(__file__).resolve().parent / "configs" / "experiment4_network7_ragged.yaml"),
     ["--seeds", "3"]),
)
SEEDS = (0, 3)


def run(checkout: Path, config: str, extra: list, seed: int, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "gridfreq", "run", config, "--seed", str(seed)]
    proc = subprocess.run(
        argv + extra + ["--out-dir", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[3:] + extra)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")


def columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def floats(cells) -> np.ndarray:
    return np.array([float(c) if c else np.nan for c in cells])


def compare(a: Path, b: Path, stats: dict) -> None:
    """Fold one pair of output directories into ``stats``."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            stats["missing"].add(name)
            continue
        same = pa.read_bytes() == pb.read_bytes()
        stats["files"].setdefault(name, True)
        stats["files"][name] &= same
        if same or pa.suffix != ".csv":
            continue
        ca, cb = columns(pa), columns(pb)
        for col in ca.keys() & cb.keys():
            if col.startswith("f_hat"):
                d = np.nanmax(np.abs(floats(ca[col]) - floats(cb[col])), initial=0.0)
                stats["df_hat"] = max(stats["df_hat"], float(d))
            elif col in ("flags", "bound_ok"):
                stats[col] &= ca[col] == cb[col]
            elif col == "theoretical_trace" and ca[col][0]:
                ta, tb = floats(ca[col]), floats(cb[col])
                stats["dtrace"] = max(stats["dtrace"], float(np.max(np.abs(ta - tb) / np.abs(ta))))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    identical = True
    with tempfile.TemporaryDirectory(prefix="gridfreq_compare_") as tmp:
        for config, extra in CONFIGS:
            stats = dict(df_hat=0.0, dtrace=0.0, flags=True, bound_ok=True)
            stats.update(files={}, missing=set())
            for seed in SEEDS:
                dirs = []
                for side, checkout in (("parent", parent), ("change", change)):
                    out = Path(tmp) / f"{len(os.listdir(tmp))}_{side}"
                    run(checkout, config, extra, seed, out)
                    dirs.append(out)
                compare(*dirs, stats)
            same = sorted(n for n, ok in stats["files"].items() if ok)
            differ = sorted(n for n, ok in stats["files"].items() if not ok)
            print(f"{Path(config).stem} {' '.join(extra)}".strip())
            print(f"  max |d f_hat| {stats['df_hat']:.3g} Hz, flags identical {stats['flags']},"
                  f" theoretical_trace max rel {stats['dtrace']:.3g},"
                  f" bound_ok identical {stats['bound_ok']}")
            print(f"  byte-identical ({len(same)}/{len(stats['files'])}): {', '.join(same)}")
            if differ:
                print(f"  differ: {', '.join(differ)}")
            if stats["missing"]:
                print(f"  only on one side: {', '.join(sorted(stats['missing']))}")
            identical = identical and not differ and not stats["missing"]
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
