"""``tools/step_timing.py`` times two checkouts' steps and reports whether their outputs agree."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_timing.py"


@pytest.mark.parametrize(
    "edit, status", [(None, 0), (("_CU_INCREMENT = 1e-6", "_CU_INCREMENT = 2e-6"), 1)],
    ids=["identical", "differ"],
)
def test_reports_each_cell(tmp_path, monkeypatch, capsys, edit, status):
    spec = importlib.util.spec_from_file_location("step_timing", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    checkouts = []
    for side in ("parent", "change"):
        pkg = tmp_path / side / "src" / "gridfreq"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src" / "gridfreq", pkg, ignore=ignore)
        checkouts.append(str(tmp_path / side))
    if edit is not None:
        est = pkg / "estimators.py"
        text = est.read_text()
        assert edit[0] in text
        est.write_text(text.replace(edit[0], edit[1]))
    monkeypatch.setattr(tool, "SHAPES", ((1, 7), (3,)))
    monkeypatch.setattr(tool, "DRIVERS", (("filter", 3), ("dfe", 1)))
    monkeypatch.setattr(tool, "DRIVER_SECONDS", 0.02)
    monkeypatch.setattr(tool, "TARGET_S", 1e-4)
    monkeypatch.setattr("sys.dont_write_bytecode", False)

    assert tool.main([*checkouts, "--rounds", "2"]) == status
    cells = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in cells] == ["nss", "nss", "shared", "shared", "filter", "dfe"]
    # the edit changes the process noise of both models, and so every driver's outputs
    assert all(line.endswith(str(edit is None)) for line in cells)
    # the ratio of the medians, marked ~ when the two sides' q1-q3 ranges overlap
    assert all(re.fullmatch(r"\d+\.\d{3}~?", line.split()[-2]) for line in cells)
    assert not list(tmp_path.rglob("__pycache__"))
