"""``tools/compare_outputs.py``: its config files validate, and its exit status reports
any output difference."""

import importlib.util
from pathlib import Path

import pytest

from gridfreq.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
PARENT_FILES = {"a.csv": b"x\r\n1\r\n"}


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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
    tool = load_tool()

    def run(checkout, config, extra, seed, out):
        out.mkdir()
        for name, data in (PARENT_FILES if checkout.name == "parent" else change_files).items():
            (out / name).write_bytes(data)

    monkeypatch.setattr(tool, "run", run)
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == status
    report = capsys.readouterr().out
    assert report.count("byte-identical") == len(tool.CONFIGS)


def test_every_config_file_validates(monkeypatch, capsys):
    # relative config paths are read from the checkout's root, as the tool runs them
    monkeypatch.chdir(TOOL.parents[1])
    files = [config for config, _ in load_tool().CONFIGS if config.endswith(".yaml")]
    assert len(files) == 3
    for config in files:
        assert main(["validate", config]) == 0, capsys.readouterr().out
