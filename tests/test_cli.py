"""End-to-end tests of the experiment runner CLI."""

import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfreq.cli
import gridfreq.estimators
from gridfreq.cli import MAX_SAMPLES, ConfigError, build_plan, load_config, main, validate_config
from gridfreq.estimators import FilterDegenerateError, _StepPlan

QUICK_SINGLE = """
name: quick_single
estimator: lss
duration_s: 0.3
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.3, freq_hz: 50.0}
"""

QUICK_NOISY = """
name: quick_noisy
estimator: nss
snr_db: 20
duration_s: 0.3
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.3, freq_hz: 50.0}
"""

#: a short network run with every weight row written out, for the run fuzzer
FUZZ_NETWORK = """
name: fuzz_net
estimator: dfe
snr_db: 30
sample_rate_hz: 1000.0
duration_s: 0.02
topology:
  nodes: [1, 2, 3]
  edges: [[1, 2], [2, 3]]
bridges: [2]
weights:
  beta: {2: {1: 0.25, 2: 0.5, 3: 0.25}}
  gamma: {1: {2: 1.0}, 3: {2: 1.0}}
node_scenarios:
  1: {segments: [{start_s: 0.0, end_s: 0.02, freq_hz: 50.0}]}
messages_csv: true
mse:
  window_s: [0.0, 0.02]
  theory: true
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.02, freq_hz: 50.0}
"""

QUICK_NETWORK = """
name: quick_net
estimator: dfe
snr_db: 30
duration_s: 0.25
topology:
  nodes: [1, 2, 3]
  edges: [[1, 2], [2, 3]]
bridges: [2]
messages_csv: true
mse:
  window_s: [0.1, 0.25]
  theory: true
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.25, freq_hz: 50.0}
"""


#: an integer too large for a double
HUGE = "1" + "0" * 400

BUNDLED = (
    "experiment1_sag_step",
    "experiment2_ramp",
    "experiment4_network7",
    "experiment4_network7_mixed",
)


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestValidation:
    def test_bundled_configs_validate(self, capsys):
        for name in (
            "experiment1_sag_step",
            "experiment2_ramp",
            "experiment4_network7",
            "experiment4_network7_mixed",
        ):
            assert main(["validate", name]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_unknown_fields_and_estimator(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            QUICK_SINGLE.replace("estimator: lss", "estimator: nzz") + "typo_field: 3\n",
        )
        assert main(["validate", cfg]) == 1
        out = capsys.readouterr().out
        assert "typo_field: unknown field" in out
        assert "unknown estimator 'nzz'" in out

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "definitely_not_bundled"]) == 2
        assert "no such config" in capsys.readouterr().err

    def test_run_rejects_invalid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK_SINGLE.replace("duration_s: 0.3", ""))
        assert main(["run", cfg]) == 2
        assert "duration_s: required" in capsys.readouterr().err

    def test_segment_needs_exactly_one_freq_form(self, tmp_path):
        cfg, _ = load_config(
            write_config(
                tmp_path,
                """
name: bad
estimator: lss
duration_s: 0.1
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.1, freq_hz: 50.0, rate_hz_per_s: 1.0}
""",
            )
        )
        problems = validate_config(cfg)
        assert any("not both" in p for p in problems)

    def test_gap_between_segments_reports_field_path(self, tmp_path):
        cfg, _ = load_config(
            write_config(
                tmp_path,
                """
name: gappy
estimator: lss
duration_s: 1.0
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.6, freq_hz: 50.0}
    - {start_s: 0.7, end_s: 1.0, freq_hz: 50.0}
""",
            )
        )
        problems = validate_config(cfg)
        assert any(p.startswith("scenario.segments[1].start_s: gap") for p in problems)

    def test_network_keys_rejected_for_single_estimator(self, tmp_path):
        cfg, _ = load_config(
            write_config(tmp_path, QUICK_SINGLE + "topology: {nodes: [1], edges: []}\n")
        )
        assert any("only meaningful for network estimators" in p for p in validate_config(cfg))

    def test_spectrum_rejected_for_network_estimator(self, tmp_path):
        cfg, _ = load_config(
            write_config(tmp_path, QUICK_NETWORK + "spectrum: {window_s: [0.0, 0.1]}\n")
        )
        assert any("only meaningful for single-node" in p for p in validate_config(cfg))

    def test_build_plan_resolves_defaults_and_units(self, tmp_path):
        cfg, _ = load_config(
            write_config(
                tmp_path,
                """
name: plan_check
estimator: wlss
duration_s: 0.2
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.2, freq_hz: 50.0, phase_deg: [0.0, 20.0, -20.0]}
""",
            )
        )
        plan = build_plan(cfg)
        assert plan.seed == 0
        assert plan.snr_db is None
        assert plan.sample_rate_hz == 1000.0
        assert plan.diffusion == "bridge"
        seg = plan.scenario.segments[0]
        assert seg.phase_offsets_rad[1] == pytest.approx(math.radians(20.0))

    def test_build_plan_raises_config_error(self):
        with pytest.raises(ConfigError) as err:
            build_plan({"name": "x"})
        assert any("estimator: required" in d for d in err.value.diagnostics)


class TestRunOutputs:
    def test_single_run_writes_trace_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK_SINGLE)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "trace.csv")
        assert float(rows[-1]["f_hat_hz"]) == pytest.approx(50.0, abs=1e-6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["name"] == "quick_single"
        assert manifest["seed"] == 0
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_NOISY)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out-dir", str(a)]) == 0
        assert main(["run", cfg, "--out-dir", str(b)]) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_seed_flag_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_NOISY)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", cfg, "--out-dir", str(a), "--seed", "1"])
        main(["run", cfg, "--out-dir", str(b), "--seed", "2"])
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        seeds = {json.loads((d / "manifest.json").read_text())["seed"] for d in (a, b)}
        assert seeds == {1, 2}

    def test_spectrum_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            """
name: quick_spectrum
estimator: lss
duration_s: 0.6
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.6, freq_hz: 50.0}
spectrum:
  window_s: [0.05, 0.57]
""",
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "spectrum.csv")
        assert set(rows[0]) == {"freq_hz", "power"}
        assert float(rows[0]["freq_hz"]) == 0.0

    def test_mc_summary_columns(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_NOISY)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--seeds", "3"]) == 0
        rows = read_rows(out / "mc_trace.csv")
        assert list(rows[0]) == [
            "k", "t_s", "f_true_hz", "f_hat_mean_hz", "err_mean_hz", "err_rms_hz",
        ]
        last = rows[-1]
        assert float(last["err_rms_hz"]) >= abs(float(last["err_mean_hz"])) - 1e-12

    def test_network_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_NETWORK)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        names = {f.name for f in out.iterdir()}
        assert names == {
            "node_1_trace.csv", "node_2_trace.csv", "node_3_trace.csv",
            "messages.csv", "mse_report.csv", "manifest.json",
        }
        report = read_rows(out / "mse_report.csv")
        assert [r["node"] for r in report] == ["1", "2", "3"]
        for row in report:
            assert float(row["empirical_mse_hz2"]) > 0
            assert float(row["theoretical_trace"]) > 0
            assert row["bound_ok"] == "True"
        with open(out / "messages.csv") as fh:
            header = fh.readline().strip()
        assert header == "k,phase,src,dst,payload_re,payload_im"

    @pytest.mark.parametrize("diffusion", ["conventional", "none"])
    def test_one_stage_theory_columns(self, tmp_path, diffusion):
        # every node is its own aggregator, so its trace is its own ceiling
        text = QUICK_NETWORK.replace("bridges: [2]", f"diffusion: {diffusion}")
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, text), "--out-dir", str(out)]) == 0
        for row in read_rows(out / "mse_report.csv"):
            assert float(row["theoretical_trace"]) > 0
            assert row["bound_ok"] == "True"

    def test_network_mc_summaries(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_NETWORK)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--seeds", "2"]) == 0
        rows = read_rows(out / "mc_node_2.csv")
        assert float(rows[-1]["f_true_hz"]) == 50.0

    @pytest.mark.parametrize(
        "text",
        [
            QUICK_SINGLE,
            QUICK_NOISY.replace("0.3", "0.6") + "spectrum: {window_s: [0.05, 0.57]}\n",
            QUICK_NETWORK,
        ],
        ids=["lss", "nss-spectrum", "dfe-theory"],
    )
    def test_monte_carlo_rows_leave_the_detailed_run_as_it_was(self, tmp_path, text):
        # the detailed outputs of --seeds 3 are byte for byte those of --seeds 1
        cfg = write_config(tmp_path, text)
        one, three = tmp_path / "one", tmp_path / "three"
        assert main(["run", cfg, "--seed", "4", "--out-dir", str(one)]) == 0
        assert main(["run", cfg, "--seed", "4", "--seeds", "3", "--out-dir", str(three)]) == 0
        detail = [
            f.name for f in one.iterdir()
            if f.name.endswith("trace.csv") or f.name in ("spectrum.csv", "messages.csv")
        ]
        assert len(detail) == 1 + ("spectrum" in text) + 3 * ("topology" in text)
        for name in detail:
            assert (one / name).read_bytes() == (three / name).read_bytes(), name
        if "mse" in text:
            cells = [
                [(r["theoretical_trace"], r["bound_ok"]) for r in read_rows(d / "mse_report.csv")]
                for d in (one, three)
            ]
            assert cells[0] == cells[1]

    @pytest.mark.parametrize(
        "text, filters", [(QUICK_NOISY, 1), (QUICK_NETWORK, 2)], ids=["nss", "dfe"]
    )
    def test_monte_carlo_run_is_one_driver_call(self, tmp_path, monkeypatch, text, filters):
        # --seeds 3 makes one filter batch of 1 + 3 rows: one step per filter and tick
        single = "topology" not in text
        driver = "run_filter" if single else "run_distributed"
        drivers, steps = [], []

        def logged(fn, log):
            def call(*args, **kwargs):
                log.append(args)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(gridfreq.cli, driver, logged(getattr(gridfreq.cli, driver), drivers))
        monkeypatch.setattr(_StepPlan, "step", logged(_StepPlan.step, steps))
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg, "--seeds", "3", "--out-dir", str(tmp_path / "out")]) == 0
        ticks = build_plan(yaml.safe_load(text)).scenario.n_samples
        assert len(drivers) == 1
        assert len(steps) == (ticks - 1) * filters
        batch = {(plan.batch, x.shape[1:]) for plan, x, *_ in steps}
        assert batch == {((4,), (4,)) if single else ((4, 3), (12,))}

    def test_filter_override_changes_gains(self, tmp_path):
        loose = write_config(
            tmp_path,
            QUICK_SINGLE + "filter: {increment_process_noise: 1.0e-4}\n",
            name="loose.yaml",
        )
        tight = write_config(tmp_path, QUICK_SINGLE, name="tight.yaml")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", loose, "--out-dir", str(a)])
        main(["run", tight, "--out-dir", str(b)])
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "estimator, diagonal",
        [("lss", [2e-6, 3e-4]), ("wlss", [2e-6, 2e-6, 3e-4]), ("nss", [2e-6, 3e-4, 3e-4])],
        ids=["lss", "wlss", "nss"],
    )
    def test_filter_overrides_land_on_the_model_diagonal(self, monkeypatch, estimator, diagonal):
        text = QUICK_SINGLE.replace("estimator: lss", f"estimator: {estimator}") + (
            "filter: {increment_process_noise: 2.0e-6, voltage_process_noise: 3.0e-4}\n"
        )
        plan = build_plan(yaml.safe_load(text))
        models = []

        def run_filter(model, *args, **kwargs):
            models.append(model)
            return gridfreq.estimators.run_filter(model, *args, **kwargs)

        monkeypatch.setattr(gridfreq.cli, "run_filter", run_filter)
        gridfreq.cli._run_single(plan, [plan.seed])
        (model,) = models
        n = len(diagonal)
        np.testing.assert_array_equal(model.Cu[:, :n], np.diag(diagonal))
        np.testing.assert_array_equal(model.Cu[:, n:], 0)

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIDFREQ_OUT_DIR", str(tmp_path / "envbase"))
        cfg = write_config(tmp_path, QUICK_SINGLE)
        assert main(["run", cfg]) == 0
        assert (tmp_path / "envbase" / "quick_single" / "trace.csv").exists()

    @pytest.mark.parametrize("key", ["out_dir", "output_dir"])
    def test_an_empty_output_path_is_a_config_error(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GRIDFREQ_OUT_DIR", raising=False)
        if key == "out_dir":
            argv = ["run", write_config(tmp_path, QUICK_SINGLE), "--out-dir", ""]
        else:
            argv = ["run", write_config(tmp_path, QUICK_SINGLE + 'output_dir: ""\n')]
            assert main(["validate", argv[1]]) == 1
            assert capsys.readouterr().out == "output_dir: the path is empty\n"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {key}: the path is empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_an_empty_out_dir_env_var_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GRIDFREQ_OUT_DIR", "")
        assert main(["run", write_config(tmp_path, QUICK_SINGLE)]) == 0
        assert (tmp_path / "quick_single_out" / "trace.csv").exists()

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in (
            "experiment1_sag_step",
            "experiment2_ramp",
            "experiment4_network7",
            "experiment4_network7_mixed",
        ):
            assert name in out

    def test_bundled_config_parses_exponent_as_float(self):
        cfg, _ = load_config("experiment2_ramp")
        assert isinstance(cfg["filter"]["increment_process_noise"], float)
        plan = build_plan(cfg)
        assert plan.filter_overrides["increment_process_noise"] == pytest.approx(2.0e-5)

    def test_weights_in_config(self, tmp_path):
        cfg_text = QUICK_NETWORK + (
            "weights:\n"
            "  beta: {2: {1: 0.25, 2: 0.5, 3: 0.25}}\n"
            "  gamma: {1: {2: 1.0}, 3: {2: 1.0}}\n"
        )
        cfg, _ = load_config(write_config(tmp_path, cfg_text))
        plan = build_plan(cfg)
        assert plan.weights.beta[2][2] == 0.5
        bad = yaml.safe_load(cfg_text)
        bad["weights"]["beta"][2][1] = -0.25
        assert any("negative" in p for p in validate_config(bad))


class TestInputsCheckedBeforeRun:
    def test_disconnected_topology_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            QUICK_NETWORK.replace("[1, 2, 3]", "[1, 2, 3, 4]")
            .replace("[[1, 2], [2, 3]]", "[[1, 2], [3, 4]]")
            .replace("bridges: [2]\n", ""),
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", cfg]) == 1
            assert "topology.edges: the graph is not connected" in capsys.readouterr().out
            assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert "config error: topology.edges" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_weight_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, QUICK_NETWORK + "weights: {beta: {2: {2: abc}}, gamma: {}}\n"
        )
        assert main(["validate", cfg]) == 1
        assert "weights.beta[2][2]: expected a number, got 'abc'" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert "config error: weights.beta[2][2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_must_be_positive(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, QUICK_SINGLE)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg, "--out-dir", str(out), "--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, path",
        [
            (QUICK_NOISY + "spectrum: {window_s: [0.05, 0.1]}\n", "spectrum.window_s"),
            (QUICK_NOISY + "spectrum: {window_s: [0.0, 0.6]}\n", "spectrum.window_s"),
            (QUICK_NETWORK.replace("[0.1, 0.25]", "[0.1, 0.5]"), "mse.window_s"),
        ],
        ids=["spectrum-too-short", "spectrum-past-end", "mse-past-end"],
    )
    def test_windows_must_fit_the_run(self, tmp_path, capsys, text, path):
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert f"{path}: samples" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_theory_must_be_a_bool(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK_NETWORK.replace("theory: true", 'theory: "no"'))
        assert main(["validate", cfg]) == 1
        assert "mse.theory: expected true or false, got 'no'" in capsys.readouterr().out

    def test_messages_csv_must_be_a_bool(self, tmp_path, capsys):
        assert build_plan(yaml.safe_load(QUICK_NETWORK)).messages_csv is True
        cfg = write_config(
            tmp_path, QUICK_NETWORK.replace("messages_csv: true", 'messages_csv: "no"')
        )
        assert main(["validate", cfg]) == 1
        assert "messages_csv: expected true or false, got 'no'" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "freq, path",
        [
            ("freq_hz: abc", "freq_hz"),
            ("freq_hz: true", "freq_hz"),
            ("freq_hz: .nan", "freq_hz"),
            ("freq_start_hz: 50.0, rate_hz_per_s: abc", "rate_hz_per_s"),
        ],
        ids=["text", "bool", "nan", "ramp-rate"],
    )
    def test_segment_frequency_must_be_a_number(self, tmp_path, capsys, freq, path):
        cfg = write_config(tmp_path, QUICK_SINGLE.replace("freq_hz: 50.0", freq))
        assert main(["validate", cfg]) == 1
        assert f"scenario.segments[0].{path}: required number" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, path",
        [
            (
                QUICK_SINGLE.replace("freq_hz: 50.0}", "freq_hz: 50.0, amplitudes: [.nan, 1.0, 1.0]}"),
                "scenario.segments[0].amplitudes",
            ),
            (
                QUICK_SINGLE.replace("freq_hz: 50.0}", "freq_hz: 50.0, phase_deg: [.inf, 0, 0]}"),
                "scenario.segments[0].phase_deg",
            ),
            (
                QUICK_SINGLE.replace("freq_hz: 50.0}", 'freq_hz: 50.0, amplitudes: [true, "1.0", 1]}'),
                "scenario.segments[0].amplitudes",
            ),
            (
                QUICK_NETWORK
                + "node_scenarios:\n  2:\n    segments:\n"
                + "      - {start_s: 0.0, end_s: 0.25, freq_hz: 50.0, amplitudes: [1.0, .nan, 1.0]}\n",
                "node_scenarios[2].segments[0].amplitudes",
            ),
        ],
        ids=["nan-amplitude", "inf-phase", "bool-and-string", "node-scenario"],
    )
    def test_amplitudes_and_phases_must_be_finite_numbers(self, tmp_path, capsys, text, path):
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert f"{path}: expected a list of 3 finite numbers" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_nan_weight_is_a_config_error(self, tmp_path, capsys):
        weights = "{beta: {2: {1: .nan, 2: 0.5, 3: 0.5}}, gamma: {1: {2: 1.0}, 3: {2: 1.0}}}"
        cfg = write_config(tmp_path, QUICK_NETWORK + f"weights: {weights}\n")
        assert main(["validate", cfg]) == 1
        assert "beta row for node 2 has non-finite weights" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, key",
        [
            (QUICK_SINGLE + "sample_rate_hz: .nan\n", "sample_rate_hz"),
            (QUICK_SINGLE.replace("duration_s: 0.3", "duration_s: .nan"), "duration_s"),
            (QUICK_SINGLE + "snr_db: .nan\n", "snr_db"),
            (QUICK_SINGLE + "snr_db: .inf\n", "snr_db"),
        ],
        ids=["sample-rate", "duration", "snr-nan", "snr-inf"],
    )
    def test_top_level_numbers_must_be_finite(self, tmp_path, capsys, text, key):
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert f"{key}: expected a finite number" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_seed_must_be_non_negative(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK_SINGLE + "seed: -1\n")
        assert main(["validate", cfg]) == 1
        assert "seed: expected a non-negative integer, got -1" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        ok = write_config(tmp_path, QUICK_SINGLE, "ok.yaml")
        with pytest.raises(SystemExit) as exc:
            main(["run", ok, "--out-dir", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_removes_only_the_directories_it_created(self, tmp_path, capsys):
        # the process noise overflows the covariance to inf at tick 2
        cfg = write_config(
            tmp_path, QUICK_SINGLE + "filter: {increment_process_noise: 1.0e+308}\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "new" / "out")]) == 3
            assert "filter degenerate: tick 2" in capsys.readouterr().err
            assert not (tmp_path / "new").exists()
            kept = tmp_path / "kept"
            kept.mkdir()
            assert main(["run", cfg, "--out-dir", str(kept)]) == 3
        assert kept.is_dir()

    def test_failed_run_leaves_an_existing_directory_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace.csv").write_bytes(b"from an older run\r\n")
        (out / "manifest.json").write_text("{}\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # the one filter batch fails, then the spectrum after the simulation
        for name in ("run_filter", "error_spectrum"):
            real = getattr(gridfreq.cli, name)

            def fails(*args, real=real, **kwargs):
                real(*args, **kwargs)
                exc = FilterDegenerateError("tick 1: row 0: forced")
                exc.tick, exc.row = 1, (0,)
                raise exc

            monkeypatch.setattr(gridfreq.cli, name, fails)
            argv = ["run", "experiment1_sag_step", "--seeds", "2", "--out-dir", str(out)]
            assert main(argv) == 3
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
            monkeypatch.setattr(gridfreq.cli, name, real)

    def test_failed_write_leaves_an_existing_directory_as_it_was(self, tmp_path, monkeypatch):
        # the writer raises after its first file: the old files stay byte for byte,
        # no new file appears, and no temporary directory is left beside it
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace.csv").write_bytes(b"from an older run\r\n")
        (out / "notes.txt").write_bytes(b"kept\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real, written = gridfreq.cli._write_csv, []

        def write_once(path, *args):
            if written:
                raise OSError(28, "No space left on device")
            real(path, *args)
            written.append(path)

        monkeypatch.setattr(gridfreq.cli, "_write_csv", write_once)
        argv = ["run", "experiment1_sag_step", "--seeds", "2", "--out-dir", str(out)]
        with pytest.raises(OSError, match="No space left"):
            main(argv)
        assert len(written) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_degenerate_monte_carlo_row_names_its_seed(self, tmp_path, capsys, monkeypatch):
        # batch row 2 is Monte-Carlo seed [7, 1]: the message names the seed, not the row
        real, calls = _StepPlan.step, []

        def step(plan, x, m, *args):
            calls.append(None)
            if len(calls) == 3:
                m = m.copy()
                m[:, : m.shape[0], 2] = np.nan  # block11 of batch row 2
            return real(plan, x, m, *args)

        monkeypatch.setattr(_StepPlan, "step", step)
        cfg = write_config(tmp_path, QUICK_NOISY)
        out = tmp_path / "out"
        with np.errstate(invalid="ignore"):
            assert main(["run", cfg, "--seed", "7", "--seeds", "3", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "filter degenerate: tick 3: Monte-Carlo seed [7, 1]: filter degenerate:"
        )
        assert not out.exists()
        monkeypatch.setattr(_StepPlan, "step", real)
        cfg = write_config(
            tmp_path, QUICK_SINGLE + "filter: {increment_process_noise: 1.0e+308}\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", cfg, "--seed", "7", "--seeds", "3", "--out-dir", str(out)]) == 3
        assert "filter degenerate: tick 2: seed 7: filter degenerate:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key, value, path",
        [
            ("experiment4_network7", "mse", {"window_s": [0.0, 1.0e308]}, "mse.window_s"),
            ("experiment1_sag_step", "spectrum", {"window_s": [0.0, 1.0e308]}, "spectrum.window_s"),
            ("experiment1_sag_step", "sample_rate_hz", 1.0e308, "duration_s"),
            ("experiment1_sag_step", "duration_s", 1.0e308, "duration_s"),
        ],
        ids=["mse-window", "spectrum-window", "sample-rate", "duration"],
    )
    def test_sample_counts_are_bounded(self, tmp_path, capsys, name, key, value, path):
        cfg, _ = load_config(name)
        cfg[key] = value
        cfg_path = write_config(tmp_path, yaml.safe_dump(cfg))
        assert main(["validate", cfg_path]) == 1
        diags = capsys.readouterr().out.splitlines()
        assert any(d.startswith(f"{path}: ") and f"{MAX_SAMPLES} samples" in d for d in diags)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, path",
        [
            (QUICK_SINGLE.replace("duration_s: 0.3", f"duration_s: {HUGE}"), "duration_s"),
            (QUICK_SINGLE + f"sample_rate_hz: {HUGE}\n", "sample_rate_hz"),
            (QUICK_SINGLE + f"snr_db: -{HUGE}\n", "snr_db"),
            (QUICK_SINGLE.replace("freq_hz: 50.0", f"freq_hz: {HUGE}"), "scenario.segments[0].freq_hz"),
            (
                QUICK_SINGLE.replace("freq_hz: 50.0}", f"freq_hz: 50.0, amplitudes: [{HUGE}, 1, 1]}}"),
                "scenario.segments[0].amplitudes",
            ),
            (QUICK_SINGLE + f"filter: {{voltage_process_noise: {HUGE}}}\n", "filter.voltage_process_noise"),
            (QUICK_NOISY + f"spectrum: {{window_s: [0.0, {HUGE}]}}\n", "spectrum.window_s"),
            (QUICK_NETWORK.replace("[0.1, 0.25]", f"[0.1, {HUGE}]"), "mse.window_s"),
            (
                QUICK_NETWORK
                + f"weights: {{beta: {{2: {{1: {HUGE}, 2: 0.5, 3: 0.5}}}}, gamma: {{}}}}\n",
                "weights.beta[2][1]",
            ),
        ],
        ids=[
            "duration", "sample-rate", "snr", "freq", "amplitudes", "filter",
            "spectrum-window", "mse-window", "weight",
        ],
    )
    def test_huge_integers_are_config_errors(self, tmp_path, capsys, text, path):
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert f"\n{path}: " in "\n" + capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            QUICK_SINGLE,
            QUICK_NETWORK.replace("mse:\n  window_s: [0.1, 0.25]\n  theory: true\n", ""),
        ],
        ids=["lss", "dfe"],
    )
    def test_run_needs_one_sample(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text.replace("duration_s: 0.", "duration_s: 1.0e-9 #"))
        assert main(["validate", cfg]) == 1
        assert "duration_s: 1e-09 s at 1000.0 Hz is less than 1 sample" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, diag",
        [
            (
                "weights: {beta: {2: {1: 0.5, 99: 0.5}}, gamma: {1: {2: 1.0}, 3: {2: 1.0}}}\n",
                "weights: aggregation row of node 2 names 99, which is not a topology node",
            ),
            (
                "weights: {beta: {2: {1: 0.5, 2: 0.5}}, gamma: {1: {2: 1.0}, 3: {3: 1.0}}}\n",
                "weights: redistribution row of node 3 names 3, which is not a bridge",
            ),
            (
                "weights: {beta: {2: {1: 0.5, 2: 0.5}}, gamma: {1: {2: 1.0}}}\n",
                "weights: redistribution weights incomplete: no row for node 3",
            ),
            # rows that no stage reads, which the run used to ignore
            (
                "weights:\n"
                "  beta: {2: {1: 0.25, 2: 0.5, 3: 0.25}, 1: {1: 0.9, 2: 0.1}}\n"
                "  gamma: {1: {2: 1.0}, 3: {2: 1.0}, 2: {2: 1.0}, 7: {2: 1.0}}\n",
                "weights: aggregation row for node 1, which is not a bridge",
            ),
            (
                "weights:\n"
                "  beta: {2: {1: 0.25, 2: 0.5, 3: 0.25}}\n"
                "  gamma: {1: {2: 1.0}, 3: {2: 1.0}, 2: {2: 1.0}}\n",
                "weights: redistribution row for node 2, which is not a non-bridge topology node",
            ),
            (
                "weights:\n"
                "  beta: {2: {1: 0.25, 2: 0.5, 3: 0.25}}\n"
                "  gamma: {1: {2: 1.0}, 3: {2: 1.0}, 7: {2: 1.0}}\n",
                "weights: redistribution row for node 7, which is not a non-bridge topology node",
            ),
            (
                "diffusion: conventional\n"
                "weights:\n"
                "  beta: {1: {1: 0.5, 2: 0.5}, 2: {1: 0.25, 2: 0.5, 3: 0.25}, 3: {2: 0.5, 3: 0.5}}\n"
                "  gamma: {1: {2: 1.0}}\n",
                "weights: redistribution row for node 1, which conventional diffusion does not read",
            ),
            (
                "diffusion: none\n"
                "weights: {beta: {2: {1: 0.25, 2: 0.5, 3: 0.25}}, gamma: {1: {2: 1.0}}}\n",
                "weights: aggregation row for node 2, which diffusion none does not read",
            ),
            (
                "diffusion: none\nweights: {beta: {}, gamma: {3: {2: 1.0}}}\n",
                "weights: redistribution row for node 3, which diffusion none does not read",
            ),
            # the one-stage modes read no bridges
            (
                "diffusion: conventional\nbridges: [2]\n",
                "bridges: diffusion conventional reads no bridges",
            ),
            ("diffusion: none\nbridges: [2]\n", "bridges: diffusion none reads no bridges"),
        ],
        ids=[
            "unknown-node", "not-a-bridge", "missing-row", "beta-of-non-bridge",
            "gamma-of-bridge", "gamma-of-unknown", "gamma-conventional", "beta-none",
            "gamma-none", "bridges-conventional", "bridges-none",
        ],
    )
    def test_weight_rows_checked_before_run(self, tmp_path, capsys, text, diag):
        # a case that sets the diffusion mode starts from the config without its bridges
        base = QUICK_NETWORK
        if text.startswith("diffusion:"):
            base = base.replace("bridges: [2]\n", "")
        cfg = write_config(tmp_path, base + text)
        assert main(["validate", cfg]) == 1
        assert capsys.readouterr().out.splitlines() == [diag]
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: {diag}" in capsys.readouterr().err
        assert not out.exists()

    def test_unorderable_node_ids_named(self, tmp_path, capsys):
        text = QUICK_NETWORK.replace("nodes: [1, 2, 3]", 'nodes: ["a", "c", 2]').replace(
            "edges: [[1, 2], [2, 3]]", 'edges: [["a", "c"], ["c", 2]]'
        ).replace("bridges: [2]", 'bridges: ["c"]')
        assert main(["validate", write_config(tmp_path, text)]) == 1
        assert "topology: node ids 'a' and 2 cannot be ordered" in capsys.readouterr().out

    def test_empty_topology_named(self, tmp_path, capsys):
        text = QUICK_NETWORK.replace("nodes: [1, 2, 3]", "nodes: []").replace(
            "edges: [[1, 2], [2, 3]]", "edges: []"
        ).replace("bridges: [2]\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert capsys.readouterr().out.splitlines() == ["topology: empty node list"]
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert "config error: topology: empty node list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edges, diag",
        [
            ("[[1, 2], [2, 3, 4]]", "topology.edges[1]: expected a pair of node ids, got [2, 3, 4]"),
            ("[[1, 2], 3]", "topology.edges[1]: expected a pair of node ids, got 3"),
            ("[[1, 2], [2]]", "topology.edges[1]: expected a pair of node ids, got [2]"),
        ],
        ids=["triple", "scalar", "single"],
    )
    def test_malformed_edges_named(self, tmp_path, capsys, edges, diag):
        text = QUICK_NETWORK.replace("edges: [[1, 2], [2, 3]]", f"edges: {edges}")
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert capsys.readouterr().out.splitlines() == [diag]
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: {diag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, diag",
        [
            ("nodes: [1, 2, 3]", "nodes: [[1], 2, 3]",
             "topology.nodes[0]: expected a scalar node id, got [1]"),
            ("edges: [[1, 2], [2, 3]]", "edges: [[1, 2], [[2], 3]]",
             "topology.edges[1]: expected a pair of node ids, got [[2], 3]"),
            ("bridges: [2]", "bridges: [[2]]", "bridges[0]: expected a scalar node id, got [2]"),
            ("bridges: [2]", "bridges: {2: 1}", "bridges: expected a list of node ids, got {2: 1}"),
        ],
        ids=["node", "edge", "bridge", "bridge-mapping"],
    )
    def test_non_scalar_node_ids_named(self, tmp_path, capsys, old, new, diag):
        cfg = write_config(tmp_path, QUICK_NETWORK.replace(old, new))
        assert main(["validate", cfg]) == 1
        assert capsys.readouterr().out.splitlines() == [diag]
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: {diag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "node",
        ['"a/b"', '"a\\0b"', '"' + "x" * 248 + '"', '"\\ud800"'],
        ids=["slash", "nul", "too-long", "not-utf8"],
    )
    def test_node_ids_must_name_files(self, tmp_path, capsys, node):
        # the node's output files are node_<id>_trace.csv and mc_node_<id>.csv
        text = QUICK_NETWORK.replace("nodes: [1, 2, 3]", f"nodes: [a, b, {node}]").replace(
            "edges: [[1, 2], [2, 3]]", f"edges: [[a, b], [b, {node}]]"
        ).replace("bridges: [2]", "bridges: [b]")
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("topology.nodes[2]: node id ")
        assert out[0].endswith(" cannot be part of a file name")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"config error: {out[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        ok = text.replace(node, '"x"' if node.startswith('"x') else '"ab"')
        assert main(["validate", write_config(tmp_path, ok, "ok.yaml")]) == 0

    @pytest.mark.parametrize("snr_db", ["-3080.5", "-3084", "-1.0e+300"])
    def test_snr_whose_noise_variance_overflows_is_a_config_error(self, tmp_path, capsys, snr_db):
        # the filters' noise variance 1.5 * 10^(-snr_db/10) passes the largest double
        # near -3080.8 dB, and 10^(-snr_db/10) itself raises OverflowError near -3082.5 dB
        cfg = write_config(tmp_path, QUICK_SINGLE + f"snr_db: {snr_db}\n")
        diag = f"snr_db: {float(snr_db)} dB is below -3080.0, where noise variances overflow"
        assert main(["validate", cfg]) == 1
        assert capsys.readouterr().out.splitlines() == [diag]
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: {diag}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["validate", write_config(tmp_path, QUICK_SINGLE + "snr_db: -3080\n")]) == 0

    def test_theory_needs_two_samples(self, tmp_path, capsys):
        # a one-sample run never steps the error recursion
        text = QUICK_NETWORK.replace("0.25", "0.001").replace("[0.1, 0.001]", "[0.0, 0.001]")
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert "mse.theory: needs a run of at least 2 samples, got 1" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert main(["validate", write_config(tmp_path, text.replace("theory: true", ""))]) == 0


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, sub in node.items():
            yield from _leaf_paths(sub, path + (key,))
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from _leaf_paths(sub, path + (i,))
    else:
        yield path


ODD_VALUES = [
    int(HUGE), -int(HUGE), math.inf, -math.inf, math.nan, True, "text", None, [1, 2], {"a": 1},
]


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_validate_never_raises(self, tmp_path_factory, data):
        # one leaf of a bundled config replaced by an odd value: a verdict, never a traceback
        cfg, _ = load_config(data.draw(st.sampled_from(BUNDLED)))
        path = data.draw(st.sampled_from(list(_leaf_paths(cfg))))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(ODD_VALUES))
        cfg_path = tmp_path_factory.mktemp("fuzz") / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["validate", str(cfg_path)]) in (0, 1)


def _key_paths(cfg):
    """The path to every key of a weight row, a weight entry and node_scenarios."""
    for stage in ("beta", "gamma"):
        for row, entries in cfg["weights"][stage].items():
            yield ("weights", stage, row)
            yield from (("weights", stage, row, m) for m in entries)
    yield from (("node_scenarios", n) for n in cfg["node_scenarios"])


#: node ids and small numbers, which keep a mutated config close to runnable
NEAR_VALUES = [0, 1, 2, 3, 99, "text", 0.5, 1.0e-9]


class TestRunFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_run_keeps_the_validate_verdict(self, tmp_path_factory, data):
        # one leaf or one weights/node_scenarios key changed: validate 0 means the run
        # completes or degenerates, validate 1 means it exits 2 and writes nothing
        cfg = yaml.safe_load(FUZZ_NETWORK)
        sites = [(False, p) for p in _leaf_paths(cfg)] + [(True, p) for p in _key_paths(cfg)]
        rename, path = data.draw(st.sampled_from(sites))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if rename:
            new = data.draw(st.sampled_from(NEAR_VALUES))
            items = [(new if k == path[-1] else k, v) for k, v in node.items()]
            node.clear()
            node.update(items)
        else:
            node[path[-1]] = data.draw(st.sampled_from(NEAR_VALUES + ODD_VALUES))
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        verdict = main(["validate", str(tmp / "cfg.yaml")])
        with np.errstate(all="ignore"):
            code = main(["run", str(tmp / "cfg.yaml"), "--out-dir", str(tmp / "out")])
        if verdict == 0:
            assert code in (0, 3)
        else:
            assert code == 2 and not (tmp / "out").exists()
