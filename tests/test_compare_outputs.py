"""``tools/compare_outputs.py``: its config files validate, its exit status reports
any output difference, and any verdict change or new text among the diagnostics, and
its design line counts each checkout's package lines and public names."""

import importlib.util
from pathlib import Path

import pytest
import test_cli
import yaml

from gridfreq.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
PARENT_FILES = {"a.csv": b"x\r\n1\r\n"}


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def checkouts(tmp_path) -> list[str]:
    """Two checkouts' packages for the design line: the change has one line and
    one public name more, in a second module."""
    sides = []
    for side, names in (("parent", ["a"]), ("change", ["a", "b"])):
        package = tmp_path / side / "src" / "gridfreq"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(f'"""Doc."""\n__all__ = {names!r}\n\n')
        if side == "change":
            (package / "extra.py").write_text("b = 1\n")
        sides.append(str(tmp_path / side))
    return sides


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
    monkeypatch.setattr(tool, "diagnostics", lambda checkout, configs: [[]] * len(configs))
    assert tool.main(checkouts(tmp_path)) == status
    report = capsys.readouterr().out
    assert report.count("byte-identical") == len(tool.CONFIGS)
    # the design line comes first and leaves the exit status to the outputs
    design = "design: src/gridfreq/*.py 3 -> 4 lines, gridfreq.__all__ 1 -> 2 names\n"
    assert report.startswith(design)


PARENT_DIAGNOSTICS = [[], ["a: unknown field"], ["b: required", "c: required"]]


@pytest.mark.parametrize(
    "change_diagnostics, status, line",
    [
        (PARENT_DIAGNOSTICS, 0, "0 verdict changes, 0 new texts, 0 dropped texts"),
        ([["a: unknown field"], *PARENT_DIAGNOSTICS[1:]], 1, "verdict      1  accepted -> rejected"),
        ([[], ["a: unknown field"], ["b: required", "c[3]: x 2"]], 1, "new      1  c[]: x #"),
        ([[], ["a: unknown field"], ["b: required"]], 0, "dropped      1  c: required"),
    ],
    ids=["identical", "verdict", "new-text", "dropped-text"],
)
def test_diagnostics_exit_status(monkeypatch, capsys, tmp_path, change_diagnostics, status, line):
    tool = load_tool()

    def run(checkout, config, extra, seed, out):
        out.mkdir()
        for name, data in PARENT_FILES.items():
            (out / name).write_bytes(data)

    def diagnostics(checkout, configs):
        return PARENT_DIAGNOSTICS if checkout.name == "parent" else change_diagnostics

    monkeypatch.setattr(tool, "run", run)
    monkeypatch.setattr(tool, "corpus", lambda: [{}] * len(PARENT_DIAGNOSTICS))
    monkeypatch.setattr(tool, "diagnostics", diagnostics)
    assert tool.main(checkouts(tmp_path)) == status
    assert line in capsys.readouterr().out


def test_corpus_mutates_every_config_file():
    # each file as it is, each leaf replaced by every odd and near value, each key
    # deleted, an unknown key added to each mapping, and each estimator swapped in
    tool = load_tool()
    configs = tool.corpus()
    files = [yaml.safe_load(f.read_bytes()) for f in tool.CORPUS_FILES]
    assert len(files) >= 8
    assert all(cfg in configs for cfg in files)
    assert sum(cfg.get("estimator") == "bogus" for cfg in configs) == len(files)
    assert sum("zz_unknown" in cfg for cfg in configs) == len(files)
    assert sum("name" not in cfg for cfg in configs) == len(files)
    odd = tool.ODD_VALUES + tool.NEAR_VALUES
    names = [cfg["name"] for cfg in configs if "name" in cfg]
    assert all(any(repr(n) == repr(v) for n in names) for v in odd)


def test_odd_values_are_the_fuzzers():
    assert repr(load_tool().ODD_VALUES) == repr(test_cli.ODD_VALUES)


def test_every_config_file_validates(monkeypatch, capsys):
    # relative config paths are read from the checkout's root, as the tool runs them
    monkeypatch.chdir(TOOL.parents[1])
    files = [config for config, _ in load_tool().CONFIGS if config.endswith(".yaml")]
    assert len(files) == 5
    for config in files:
        assert main(["validate", config]) == 0, capsys.readouterr().out
