"""Compare the outputs and config diagnostics of two gridfreq checkouts.

    python tools/compare_outputs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs ``gridfreq run`` from each checkout's ``src/`` on twelve configs (the
four bundled experiments, ``experiment1_sag_step --seeds 100``,
``experiment4_network7 --seeds 24``, ``experiment4_network7_mixed --seeds
24``, ``benchmarks/configs/network_fullstate.yaml``,
``tools/configs/experiment4_network7_messages.yaml``,
``tools/configs/experiment4_network7_ragged.yaml --seeds 3``,
``tools/configs/network7_fullstate_theory.yaml --seeds 3`` and
``tools/configs/network3_quoted_messages.yaml --seeds 3``) at seeds 0
and 3, into a temporary directory; ``experiment4_network7 --seeds 24`` is
one theory run whose error recursion reads seed row 0 of a Monte-Carlo
batch.  ``network_fullstate`` logs conventional ``to_neighbor`` messages,
and ``experiment4_network7_messages`` the bridge messages: ``to_bridge``
and the ``from_bridge`` aggregates.  ``experiment4_network7_ragged`` runs
257 ticks, so its last block of observations is not a full one.
``network7_fullstate_theory`` runs the theory of full-state conventional
diffusion, whose 42 x 42 maps step in blocks of 37 ticks, not 128.
``network3_quoted_messages`` logs bridge messages between node ids that
``csv.writer`` quotes (``a,b``, ``q"t``) or writes in two UTF-8 bytes
(``ä``).  The
``tools/configs`` files are read from this tool's own checkout, so both
sides run the same file.
First it prints one design line: the lines in ``src/gridfreq/*.py`` and the
names in ``gridfreq.__all__``, parent -> change.  It does not change the
exit status.
For each config it prints the largest |Δ f_hat| over every ``f_hat*``
column, whether every ``flags`` column is identical, the largest relative
change of ``theoretical_trace``, whether ``bound_ok`` is identical, and
which output files are byte-identical.  Exits 1 when any
output file differs or exists on one side only, after printing the full
report, and 0 when every file is byte-identical.

The diagnostics section runs ``validate_config`` from each checkout's
``src/`` over a corpus generated from the config files of this tool's own
checkout (the bundled experiments, ``tools/configs``, where
``network3_weights.yaml`` is there for the weights and node-scenario rules
only, and ``benchmarks/configs``): each config as
it is, every leaf replaced by each of ``ODD_VALUES`` and ``NEAR_VALUES``,
every mapping key deleted, an unknown key added to every mapping, and
``estimator`` set to each of the five estimators and one bogus name.  It
prints the configs whose verdict (accepted or rejected) changed, and the
diagnostic texts that are new or dropped, counted by class: a text with its
indices and values masked.  A verdict change or a new text makes the exit
status 1 as well.
Needs numpy, PyYAML and the standard library only; it writes nothing inside
either checkout.
"""

from __future__ import annotations

import argparse
import ast
import copy
import csv
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

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
    (str(Path(__file__).resolve().parent / "configs" / "network7_fullstate_theory.yaml"),
     ["--seeds", "3"]),
    (str(Path(__file__).resolve().parent / "configs" / "network3_quoted_messages.yaml"),
     ["--seeds", "3"]),
)
SEEDS = (0, 3)

ROOT = Path(__file__).resolve().parents[1]
#: the config files the diagnostics corpus is generated from
CORPUS_FILES = (
    *sorted((ROOT / "src" / "gridfreq" / "configs").glob("*.yaml")),
    *sorted((ROOT / "tools" / "configs").glob("*.yaml")),
    *sorted((ROOT / "benchmarks" / "configs").glob("*.yaml")),
)
#: the config fuzzers' odd leaf values: huge integers, non-finite floats, wrong types
ODD_VALUES = [
    int("1" + "0" * 400), -int("1" + "0" * 400), math.inf, -math.inf, math.nan,
    True, "text", None, [1, 2], {"a": 1},
]
#: small values that keep a mutated config close to valid
NEAR_VALUES = [0, -1, 1, 99, 0.5, 1.0e-9, ""]
ESTIMATORS = ("lss", "wlss", "nss", "dfe", "distributed-acekf", "bogus")

#: run in each checkout: validate every pickled config, pickle the diagnostics back
VALIDATE = """
import pickle, sys
from gridfreq.cli import validate_config
out = []
for cfg in pickle.load(sys.stdin.buffer):
    try:
        out.append(validate_config(cfg))
    except Exception as exc:
        out.append([f"raised {type(exc).__name__}: {exc}"])
sys.stdout.buffer.write(pickle.dumps(out))
"""


def design(checkout: Path) -> tuple[int, int]:
    """The lines in ``src/gridfreq/*.py`` (as ``wc -l`` counts them) and the names in
    ``gridfreq.__all__``, read from the package's ``__init__.py`` without importing it."""
    package = checkout / "src" / "gridfreq"
    lines = sum(p.read_bytes().count(b"\n") for p in package.glob("*.py"))
    init = ast.parse((package / "__init__.py").read_bytes())
    names = next(node.value for node in init.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return lines, len(ast.literal_eval(names))


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


def _sites(node, path=()):
    """The path to every mapping (``True``) and every leaf (``False``) in a config."""
    if isinstance(node, dict):
        yield path, True
        for key, sub in node.items():
            yield from _sites(sub, path + (key,))
    elif isinstance(node, list) and node:
        for i, sub in enumerate(node):
            yield from _sites(sub, path + (i,))
    else:
        yield path, False


def _mutant(cfg: dict, path: tuple, edit) -> dict:
    """A deep copy of ``cfg`` with ``edit(parent, key)`` applied at ``path``."""
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    edit(node, path[-1])
    return out


def corpus() -> list[dict]:
    """The configs the diagnostics section validates, in a fixed order."""
    configs = []
    for file in CORPUS_FILES:
        base = yaml.safe_load(file.read_bytes())
        configs.append(base)
        for path, mapping in _sites(base):
            if mapping:
                node = base
                for key in path:
                    node = node[key]
                configs += [_mutant(base, path + (k,), lambda n, k: n.pop(k)) for k in node]
                configs.append(_mutant(base, path + ("zz_unknown",),
                                       lambda n, k: n.__setitem__(k, 1)))
            elif path:
                configs += [_mutant(base, path, lambda n, k, v=v: n.__setitem__(k, v))
                            for v in ODD_VALUES + NEAR_VALUES]
        configs += [dict(base, estimator=e) for e in ESTIMATORS]
    return configs


def diagnostics(checkout: Path, configs: list) -> list[list[str]]:
    """``validate_config`` of every config, run from ``checkout``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", VALIDATE], input=pickle.dumps(configs),
                          cwd=checkout, env=env, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: validating the corpus exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return pickle.loads(proc.stdout)


def text_class(text: str) -> str:
    """A diagnostic with its indices, quoted texts and numbers masked."""
    path, sep, msg = text.partition(": ")
    msg = re.sub(r"'[^']*'|\"[^\"]*\"|-?\b\d[\d.]*(e[+-]?\d+)?\b|\b(nan|inf)\b", "#", msg)
    return re.sub(r"\[[^\]]*\]", "[]", path) + sep + msg


def compare_diagnostics(parent: Path, change: Path) -> bool:
    """Print the diagnostics section; True when no verdict changed and no text is new."""
    configs = corpus()
    before, after = diagnostics(parent, configs), diagnostics(change, configs)
    verdicts, new, dropped = Counter(), Counter(), Counter()
    for a, b in zip(before, after):
        if bool(a) != bool(b):
            verdicts["rejected -> accepted" if a else "accepted -> rejected"] += 1
        new.update(map(text_class, (Counter(b) - Counter(a)).elements()))
        dropped.update(map(text_class, (Counter(a) - Counter(b)).elements()))
    print(f"diagnostics of {len(configs)} configs: {sum(verdicts.values())} verdict changes,"
          f" {sum(new.values())} new texts, {sum(dropped.values())} dropped texts")
    for title, counts in (("verdict", verdicts), ("new", new), ("dropped", dropped)):
        for text, n in sorted(counts.items()):
            print(f"  {title} {n:6d}  {text}")
    return not verdicts and not new


def compare_outputs(parent: Path, change: Path) -> bool:
    """Print the outputs section; True when every output file is byte-identical."""
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
    return identical


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    (lines_a, names_a), (lines_b, names_b) = design(parent), design(change)
    print(f"design: src/gridfreq/*.py {lines_a} -> {lines_b} lines,"
          f" gridfreq.__all__ {names_a} -> {names_b} names")
    same = compare_outputs(parent, change)
    return 0 if compare_diagnostics(parent, change) and same else 1


if __name__ == "__main__":
    sys.exit(main())
