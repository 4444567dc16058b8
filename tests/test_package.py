"""The package's export lists name only what exists, and ``python -m gridfreq`` runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridfreq

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gridfreq.__path__))


def test_top_level_exports_resolve_once():
    assert len(set(gridfreq.__all__)) == len(gridfreq.__all__)
    assert [n for n in gridfreq.__all__ if not hasattr(gridfreq, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"gridfreq.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ)
    src = str(Path(gridfreq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "gridfreq", "list-experiments"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "experiment1_sag_step" in proc.stdout
