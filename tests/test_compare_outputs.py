"""``tools/compare_outputs.py`` reports any output difference in its exit status."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
PARENT_FILES = {"a.csv": b"x\r\n1\r\n"}


@pytest.mark.parametrize(
    "change_files, status",
    [
        (PARENT_FILES, 0),
        ({"a.csv": b"x\r\n2\r\n"}, 1),
        ({**PARENT_FILES, "b.csv": b"y\r\n"}, 1),
    ],
    ids=["identical", "differ", "one-side"],
)
def test_exit_status(tmp_path, monkeypatch, capsys, change_files, status):
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def run(checkout, config, extra, seed, out):
        out.mkdir()
        for name, data in (PARENT_FILES if checkout.name == "parent" else change_files).items():
            (out / name).write_bytes(data)

    monkeypatch.setattr(tool, "run", run)
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == status
    report = capsys.readouterr().out
    assert report.count("byte-identical") == len(tool.CONFIGS)
