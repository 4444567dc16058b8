"""The config key table: the README's config reference lists its keys, and the
rules it holds for names, positive numbers and which estimators read a key."""

import re
from pathlib import Path

import pytest
import yaml

import gridfreq.cli
from gridfreq.cli import _KEYS, load_config, main, validate_config

README = Path(__file__).resolve().parents[1] / "README.md"

QUICK_SINGLE = """
name: quick_single
estimator: lss
duration_s: 0.3
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.3, freq_hz: 50.0}
"""

QUICK_NETWORK = """
name: quick_net
estimator: dfe
duration_s: 0.25
topology:
  nodes: [1, 2, 3]
  edges: [[1, 2], [2, 3]]
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.25, freq_hz: 50.0}
"""

#: mappings whose keys are node ids, not config keys
NODE_ROWS = ("node_scenarios", "weights.beta", "weights.gamma")


def dotted_keys(node, path=""):
    """The dotted path of every key in a config, a list of mappings' items as ``[]``."""
    if isinstance(node, dict) and path not in NODE_ROWS:
        for key, sub in node.items():
            at = f"{path}.{key}" if path else key
            yield at
            yield from dotted_keys(sub, at)
    elif isinstance(node, list) and node and all(isinstance(x, dict) for x in node):
        yield path + "[]"
        for item in node:
            yield from dotted_keys(item, path + "[]")


def test_readme_config_reference_lists_the_table_keys():
    text = README.read_text()
    block = re.search(r"### Config format\n\n```yaml\n(.*?)```", text, re.S).group(1)
    assert set(dotted_keys(yaml.safe_load(block))) == set(_KEYS)


@pytest.mark.parametrize(
    "name",
    ["{out}/escaped", "a/b", "a\\0b", ".", "..", "", "\\ud800", "x" * 242],
    ids=["absolute", "slash", "nul", "dot", "dot-dot", "empty", "not-utf8", "too-long"],
)
def test_name_must_be_one_path_component(tmp_path, monkeypatch, capsys, name):
    # the output directory is $GRIDFREQ_OUT_DIR/<name>, or <name>_out without it
    name = name.format(out=tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(QUICK_SINGLE.replace("name: quick_single", f'name: "{name}"'))
    monkeypatch.setenv("GRIDFREQ_OUT_DIR", str(tmp_path / "o"))
    monkeypatch.chdir(tmp_path)
    assert main(["validate", str(cfg)]) == 1
    (diag,) = capsys.readouterr().out.splitlines()
    assert diag.startswith("name: ") and "cannot name the output directory" in diag
    assert main(["run", str(cfg)]) == 2
    assert f"config error: {diag}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


def test_longest_name_runs(tmp_path, monkeypatch):
    # the staging directory .<name>_out.XXXXXXXX is 255 bytes, the longest file name
    name = "x" * 241
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(QUICK_SINGLE.replace("quick_single", name))
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / f"{name}_out" / "trace.csv").exists()


@pytest.mark.parametrize("source", ["--out-dir", "output_dir"])
def test_out_dir_last_component_must_leave_room_to_stage(tmp_path, monkeypatch, capsys, source):
    # run_plan stages in .<last component>.XXXXXXXX, 10 bytes longer than the component
    out = f"probe/{'y' * 246}"
    cfg = tmp_path / "cfg.yaml"
    text = QUICK_SINGLE if source == "--out-dir" else QUICK_SINGLE + f"output_dir: {out}\n"
    cfg.write_text(text)
    monkeypatch.chdir(tmp_path)
    argv = ["run", str(cfg)] + (["--out-dir", out] if source == "--out-dir" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{out}' cannot name the output directory" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]
    if source == "output_dir":
        assert main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith(f"output_dir: '{out}' cannot name")
    # 245 bytes stage in a 255-byte name, the longest file name
    cfg.write_text(QUICK_SINGLE)
    assert main(["run", str(cfg), "--out-dir", f"probe/{'y' * 245}"]) == 0
    assert (tmp_path / "probe" / ("y" * 245) / "trace.csv").exists()


@pytest.mark.parametrize(
    "source", [["--out-dir", "F"], ["--out-dir", "F/sub"], ["GRIDFREQ_OUT_DIR", "F"]],
    ids=["out-dir", "below-out-dir", "env"],
)
def test_out_dir_through_a_file_fails_before_the_run(tmp_path, monkeypatch, capsys, source):
    # the output path runs through the regular file F: a config error before anything
    # runs, not a FileExistsError once every output is computed
    (tmp_path / "F").write_bytes(b"kept\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(QUICK_SINGLE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gridfreq.cli, "_run_single", lambda *args: pytest.fail("ran"))
    argv = ["run", str(cfg)]
    if source[0] == "GRIDFREQ_OUT_DIR":
        monkeypatch.setenv(*source)
    else:
        argv += source
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out_dir: ") and err.endswith(": 'F' is not a directory\n")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "cfg.yaml"]
    assert (tmp_path / "F").read_bytes() == b"kept\n"


@pytest.mark.parametrize("key", ["sample_rate_hz", "duration_s"])
@pytest.mark.parametrize("value", [-1, 0])
def test_non_positive_rate_or_duration_reported_once(key, value):
    # two node scenarios used to repeat it per scenario, with Nyquist and window cascades
    cfg, _ = load_config("experiment4_network7_mixed")
    cfg["node_scenarios"][2] = cfg["node_scenarios"][1]
    cfg[key] = value
    assert validate_config(cfg) == [f"{key}: must be positive, got {float(value)}"]


@pytest.mark.parametrize(
    "text, diagnostics",
    [
        (
            QUICK_NETWORK.replace("edges: [[1, 2], [2, 3]]", "edges: [[1, 2], [2, 3]]\n  zz: 1"),
            ["topology.zz: unknown field"],
        ),
        (
            QUICK_SINGLE + "diffusion: conventional\n",
            ["diffusion: only meaningful for network estimators ('dfe', 'distributed-acekf')"],
        ),
        (
            QUICK_NETWORK.replace("estimator: dfe", "estimator: 3"),
            ["estimator: expected str, got int"],
        ),
        (
            QUICK_NETWORK.replace("estimator: dfe", "estimator: dfee") + "filter: 3\n",
            [
                "estimator: unknown estimator 'dfee', expected one of"
                " ('lss', 'wlss', 'nss', 'dfe', 'distributed-acekf')",
                "filter: expected mapping with keys among"
                " ['increment_process_noise', 'voltage_process_noise']",
            ],
        ),
    ],
    ids=["topology-unknown-field", "diffusion-single-node", "estimator-int", "estimator-typo"],
)
def test_scope_gaps_closed(text, diagnostics):
    # applicability is checked only against a known estimator; under an unknown
    # one every key the config names is still checked
    assert validate_config(yaml.safe_load(text)) == diagnostics


@pytest.mark.parametrize(
    "key, value, diagnostics",
    [
        ("topology", 5, ["topology: expected a mapping with nodes and edges lists"]),
        ("topology", {}, ["topology.nodes: required", "topology.edges: required"]),
        ("topology", {"nodes": 5, "edges": []},
         ["topology.nodes: expected a list of node ids, got 5"]),
        ("topology", {"nodes": [1], "edges": 5},
         ["topology.edges: expected a list of node id pairs, got 5"]),
        ("weights", {"beta": {}}, ["weights.gamma: required"]),
        ("mse", {"theory": True}, ["mse.window_s: expected [start_s, stop_s] in finite numbers"]),
        ("mse", 5, ["mse: expected mapping with window_s and optional theory"]),
    ],
    ids=["topology-scalar", "topology-empty", "nodes-scalar", "edges-scalar", "weights-no-beta",
         "mse-no-window", "mse-scalar"],
)
def test_mapping_problems_named_by_key(key, value, diagnostics):
    cfg = yaml.safe_load(QUICK_NETWORK)
    cfg[key] = value
    assert validate_config(cfg) == diagnostics
