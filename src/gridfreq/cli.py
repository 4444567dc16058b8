"""Config-driven experiment runner.

``gridfreq run sag_step.yaml`` simulates one experiment described by a small
YAML file and writes CSV results plus a ``manifest.json`` to an output
directory.  Everything is seeded, nothing records timestamps, so two runs of
the same config with the same seed produce byte-identical output — handy for
regression-diffing experiments.

Subcommands:

* ``run CONFIG``              simulate and write outputs
* ``validate CONFIG``         check a config and print problems, write nothing
* ``list-experiments``        show the bundled example configs

``CONFIG`` is a path; when no such file exists the name is looked up among
the bundled configs (``experiment1_sag_step`` etc., the ``.yaml`` suffix is
optional).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .analysis import (
    SPECTRUM_MIN_TICKS,
    MseReport,
    _serving_row,
    empirical_mse,
    empirical_mse_mc,
    error_spectrum,
    initial_network_state,
    mse_step,
    write_mse_csv,
    write_spectrum_csv,
)
from .augmented import AugmentedMatrix
from .estimators import (
    _CU_INCREMENT,
    _CU_VOLTAGE,
    FilterDegenerateError,
    _fmt,
    lss_model,
    nss_model,
    run_filter,
    run_filter_batch,
    shared_increment_model,
    wlss_model,
    write_trace_csv,
)
from .network import (
    BridgeAssignment,
    DiffusionWeights,
    DistributedConfigError,
    Topology,
    run_distributed,
    run_distributed_mc,
    write_messages_csv,
)
from .signals import (
    ConstantFreq,
    RampFreq,
    Scenario,
    ScenarioError,
    ScenarioSegment,
    clarke_arrays,
    generate_arrays,
)

__all__ = ["ConfigError", "load_config", "validate_config", "build_plan", "run_plan", "main"]

_ESTIMATORS = ("lss", "wlss", "nss", "dfe", "distributed-acekf")
_NETWORK_ESTIMATORS = ("dfe", "distributed-acekf")
_DIFFUSIONS = ("bridge", "conventional", "none")

_KNOWN_KEYS = {
    "name",
    "description",
    "seed",
    "snr_db",
    "sample_rate_hz",
    "duration_s",
    "estimator",
    "scenario",
    "node_scenarios",
    "topology",
    "bridges",
    "weights",
    "diffusion",
    "filter",
    "mse",
    "spectrum",
    "output_dir",
    "messages_csv",
}


class ConfigError(ValueError):
    """Raised for an unusable config; carries one message per problem."""

    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# ---------------------------------------------------------------------------
# config loading and validation


def _bundled_dir():
    return resources.files("gridfreq") / "configs"


def load_config(spec: str) -> tuple[dict, bytes]:
    """Resolve a path or bundled name and parse it; returns (config, raw bytes)."""
    p = Path(spec)
    if p.is_file():
        raw = p.read_bytes()
    else:
        name = spec if spec.endswith(".yaml") else spec + ".yaml"
        res = _bundled_dir() / name
        if not res.is_file():
            raise ConfigError([f"no such config file or bundled experiment: {spec}"])
        raw = res.read_bytes()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not parseable as YAML: {exc}"]) from exc
    if not isinstance(cfg, Mapping):
        raise ConfigError(["top level must be a mapping of settings"])
    return dict(cfg), raw


def _want(cfg, key, kinds, diags, required=False, default=None):
    """Fetch cfg[key], appending a diagnostic when the type is off."""
    if key not in cfg:
        if required:
            diags.append(f"{key}: required")
        return default
    val = cfg[key]
    kinds_t = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(val, kinds_t) or (isinstance(val, bool) and bool not in kinds_t):
        wanted = " or ".join(k.__name__ for k in kinds_t)
        diags.append(f"{key}: expected {wanted}, got {type(val).__name__}")
        return default
    return val


def _num3(raw, path: str, diags: list) -> tuple | None:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        diags.append(f"{path}: expected a list of 3 numbers")
        return None
    try:
        return tuple(float(x) for x in raw)
    except (TypeError, ValueError):
        diags.append(f"{path}: expected a list of 3 numbers")
        return None


def _number(raw: Mapping, key: str, path: str, diags: list) -> float | None:
    val = raw.get(key)
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        diags.append(f"{path}.{key}: required number")
        return None
    return float(val)


def _build_segment(raw, path: str, diags: list) -> ScenarioSegment | None:
    if not isinstance(raw, Mapping):
        diags.append(f"{path}: expected a mapping")
        return None
    unknown = set(raw) - {
        "start_s", "end_s", "freq_hz", "freq_start_hz", "rate_hz_per_s", "amplitudes", "phase_deg",
    }
    for key in sorted(unknown):
        diags.append(f"{path}.{key}: unknown field")

    bounds = [_number(raw, key, path, diags) for key in ("start_s", "end_s")]

    has_const = "freq_hz" in raw
    has_ramp = "freq_start_hz" in raw or "rate_hz_per_s" in raw
    freq = None
    if has_const and has_ramp:
        diags.append(f"{path}: give either freq_hz or freq_start_hz + rate_hz_per_s, not both")
    elif has_const:
        f_hz = _number(raw, "freq_hz", path, diags)
        freq = None if f_hz is None else ConstantFreq(f_hz)
    elif "freq_start_hz" in raw and "rate_hz_per_s" in raw:
        f0, rate = (_number(raw, key, path, diags) for key in ("freq_start_hz", "rate_hz_per_s"))
        freq = None if f0 is None or rate is None else RampFreq(f0, rate)
    else:
        diags.append(f"{path}: needs freq_hz, or freq_start_hz together with rate_hz_per_s")
    ok = freq is not None and None not in bounds

    amps = (1.0, 1.0, 1.0)
    if "amplitudes" in raw:
        amps = _num3(raw["amplitudes"], f"{path}.amplitudes", diags)
        ok = ok and amps is not None
    offs = (0.0, 0.0, 0.0)
    if "phase_deg" in raw:
        deg = _num3(raw["phase_deg"], f"{path}.phase_deg", diags)
        if deg is None:
            ok = False
        else:
            offs = tuple(math.radians(d) for d in deg)
    if not ok:
        return None
    return ScenarioSegment(bounds[0], bounds[1], freq, amps, offs)


def _build_scenario(raw, path: str, fs: float, duration_s, diags: list) -> Scenario | None:
    if (
        not isinstance(raw, Mapping)
        or not isinstance(raw.get("segments"), list)
        or not raw["segments"]
    ):
        diags.append(f"{path}.segments: required non-empty list of segments")
        return None
    for key in sorted(set(raw) - {"segments"}):
        diags.append(f"{path}.{key}: unknown field")
    segments = []
    for i, seg_raw in enumerate(raw["segments"]):
        seg = _build_segment(seg_raw, f"{path}.segments[{i}]", diags)
        if seg is None:
            return None
        segments.append(seg)
    if duration_s is None or not segments:
        return None
    scenario = Scenario(segments, fs, float(duration_s))
    diags.extend(f"{path}.{p}" for p in scenario.validate())
    return scenario


def _build_weights(raw, path: str, diags: list) -> DiffusionWeights | None:
    if not isinstance(raw, Mapping) or set(raw) != {"beta", "gamma"}:
        diags.append(f"{path}: expected a mapping with exactly the keys beta and gamma")
        return None
    rows, bad = {}, []
    for key in ("beta", "gamma"):
        if not isinstance(raw[key], Mapping) or not all(
            isinstance(r, Mapping) for r in raw[key].values()
        ):
            diags.append(f"{path}.{key}: expected mapping node -> (node -> weight)")
            return None
        rows[key] = {n: dict(row) for n, row in raw[key].items()}
        for n, row in rows[key].items():
            for m, w in row.items():
                try:
                    row[m] = float(w)
                except (TypeError, ValueError):
                    bad.append(f"{path}.{key}[{n}][{m}]: expected a number, got {w!r}")
    if bad:
        diags.extend(bad)
        return None
    try:
        return DiffusionWeights(beta=rows["beta"], gamma=rows["gamma"])
    except ValueError as exc:
        diags.append(f"{path}: {exc}")
        return None


def _window(raw, path: str, fs: float, scenario, min_ticks: int, diags: list) -> tuple | None:
    """A [start_s, stop_s] window inside the scenario, at least ``min_ticks`` samples long."""
    if not isinstance(raw, list) or len(raw) != 2 or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    ):
        diags.append(f"{path}: expected [start_s, stop_s]")
        return None
    start, stop = float(raw[0]), float(raw[1])
    lo, hi = _ticks((start, stop), fs)
    if scenario is not None and not (0 <= lo and hi <= scenario.n_samples and hi - lo >= min_ticks):
        diags.append(
            f"{path}: samples [{lo}, {hi}) must lie inside the run's {scenario.n_samples}"
            f" and number at least {min_ticks}"
        )
        return None
    return start, stop


@dataclass
class RunPlan:
    """A fully resolved experiment, ready to simulate."""

    name: str
    estimator: str
    seed: int
    snr_db: float | None
    sample_rate_hz: float
    scenario: Scenario
    node_scenarios: dict = field(default_factory=dict)
    topology: Topology | None = None
    assignment: BridgeAssignment | None = None
    weights: DiffusionWeights | None = None
    diffusion: str = "bridge"
    filter_overrides: dict = field(default_factory=dict)
    mse_window_s: tuple | None = None
    mse_theory: bool = False
    spectrum_window_s: tuple | None = None
    output_dir: str | None = None
    messages_csv: bool = False
    description: str = ""


def validate_config(cfg: Mapping) -> list[str]:
    """Return one human-readable diagnostic per problem (empty when usable)."""
    try:
        build_plan(cfg)
    except ConfigError as exc:
        return exc.diagnostics
    return []


def build_plan(cfg: Mapping) -> RunPlan:
    """Turn a parsed config mapping into a RunPlan, or raise ConfigError."""
    diags: list[str] = []
    for key in sorted(set(cfg) - _KNOWN_KEYS):
        diags.append(f"{key}: unknown field")

    name = _want(cfg, "name", str, diags, required=True)
    description = _want(cfg, "description", str, diags, default="") or ""
    seed = _want(cfg, "seed", int, diags, default=0)
    snr_db = cfg.get("snr_db")
    if snr_db is not None and (isinstance(snr_db, bool) or not isinstance(snr_db, (int, float))):
        diags.append("snr_db: expected a number or null")
        snr_db = None
    fs = _want(cfg, "sample_rate_hz", (int, float), diags, default=1000.0)
    duration_s = _want(cfg, "duration_s", (int, float), diags, required=True)
    estimator = _want(cfg, "estimator", str, diags, required=True)
    if estimator is not None and estimator not in _ESTIMATORS:
        diags.append(f"estimator: unknown estimator {estimator!r}, expected one of {_ESTIMATORS}")
    networked = estimator in _NETWORK_ESTIMATORS

    scenario = None
    if "scenario" not in cfg:
        diags.append("scenario: required")
    else:
        scenario = _build_scenario(cfg["scenario"], "scenario", float(fs), duration_s, diags)

    for key in ("node_scenarios", "topology", "bridges", "weights", "mse", "messages_csv"):
        if key in cfg and not networked:
            diags.append(f"{key}: only meaningful for network estimators {_NETWORK_ESTIMATORS}")
    for key in ("filter", "spectrum"):
        if key in cfg and networked:
            diags.append(f"{key}: only meaningful for single-node estimators")

    topology = assignment = weights = None
    node_scenarios = {}
    mse_window = None
    mse_theory = False
    diffusion = _want(cfg, "diffusion", str, diags, default="bridge")
    if diffusion not in _DIFFUSIONS:
        diags.append(f"diffusion: unknown mode {diffusion!r}, expected one of {_DIFFUSIONS}")

    if networked:
        if "topology" not in cfg:
            diags.append("topology: required for network estimators")
        else:
            raw = cfg["topology"]
            if (
                not isinstance(raw, Mapping)
                or not isinstance(raw.get("nodes"), list)
                or not isinstance(raw.get("edges"), list)
            ):
                diags.append("topology: expected a mapping with nodes and edges lists")
            else:
                try:
                    topology = Topology(raw["nodes"], [tuple(e) for e in raw["edges"]])
                except (ValueError, TypeError) as exc:
                    diags.append(f"topology: {exc}")
        if topology is not None and "bridges" in cfg:
            try:
                assignment = BridgeAssignment(topology, cfg["bridges"])
            except ValueError as exc:
                diags.append(f"bridges: {exc}")
        if "weights" in cfg:
            weights = _build_weights(cfg["weights"], "weights", diags)
        if "node_scenarios" in cfg:
            raw = cfg["node_scenarios"]
            if not isinstance(raw, Mapping):
                diags.append("node_scenarios: expected mapping node -> scenario")
            else:
                for node, sub in raw.items():
                    sc = _build_scenario(sub, f"node_scenarios[{node}]", float(fs), duration_s, diags)
                    if sc is not None:
                        node_scenarios[node] = sc
                if topology is not None:
                    for node in sorted(set(node_scenarios) - set(topology.node_ids), key=str):
                        diags.append(f"node_scenarios[{node}]: node not in topology")
        if "mse" in cfg:
            raw = cfg["mse"]
            if not isinstance(raw, Mapping) or set(raw) - {"window_s", "theory"}:
                diags.append("mse: expected mapping with window_s and optional theory")
            else:
                mse_window = _window(raw.get("window_s"), "mse.window_s", fs, scenario, 1, diags)
                mse_theory = raw.get("theory", False)
                if not isinstance(mse_theory, bool):
                    diags.append(f"mse.theory: expected true or false, got {mse_theory!r}")

    filter_overrides = {}
    if "filter" in cfg and not networked:
        raw = cfg["filter"]
        allowed = {"increment_process_noise", "voltage_process_noise"}
        if not isinstance(raw, Mapping) or set(raw) - allowed:
            diags.append(f"filter: expected mapping with keys among {sorted(allowed)}")
        else:
            for key, val in raw.items():
                if isinstance(val, bool) or not isinstance(val, (int, float)) or val <= 0:
                    diags.append(f"filter.{key}: expected a positive number")
                else:
                    filter_overrides[key] = float(val)

    spectrum_window = None
    if "spectrum" in cfg and not networked:
        raw = cfg["spectrum"]
        if not isinstance(raw, Mapping) or set(raw) != {"window_s"}:
            diags.append("spectrum: expected mapping with window_s: [start_s, stop_s]")
        else:
            spectrum_window = _window(
                raw["window_s"], "spectrum.window_s", fs, scenario, SPECTRUM_MIN_TICKS, diags
            )

    output_dir = _want(cfg, "output_dir", str, diags)
    messages_csv = cfg.get("messages_csv", False)
    if not isinstance(messages_csv, bool):
        diags.append(f"messages_csv: expected true or false, got {messages_csv!r}")

    if diags:
        raise ConfigError(diags)
    return RunPlan(
        name=name,
        estimator=estimator,
        seed=int(seed),
        snr_db=None if snr_db is None else float(snr_db),
        sample_rate_hz=float(fs),
        scenario=scenario,
        node_scenarios=node_scenarios,
        topology=topology,
        assignment=assignment,
        weights=weights,
        diffusion=diffusion,
        filter_overrides=filter_overrides,
        mse_window_s=mse_window,
        mse_theory=mse_theory,
        spectrum_window_s=spectrum_window,
        output_dir=output_dir,
        messages_csv=messages_csv,
        description=description,
    )


# ---------------------------------------------------------------------------
# running


_SINGLE_FACTORIES = {
    # factory, process-noise layout of the state diagonal
    "lss": (lss_model, "iv"),
    "wlss": (wlss_model, "iiv"),
    "nss": (nss_model, "ivv"),
}


def _single_model(plan: RunPlan):
    factory, layout = _SINGLE_FACTORIES[plan.estimator]
    cu = None
    if plan.filter_overrides:
        qi = plan.filter_overrides.get("increment_process_noise", _CU_INCREMENT)
        qv = plan.filter_overrides.get("voltage_process_noise", _CU_VOLTAGE)
        cu = AugmentedMatrix.diagonal([qi if c == "i" else qv for c in layout])
    return factory(plan.sample_rate_hz, Cu=cu, snr_db=plan.snr_db)


def _ticks(window_s: tuple, fs: float) -> tuple[int, int]:
    return int(round(window_s[0] * fs)), int(round(window_s[1] * fs))


def _write_mc_summary(path, t_s, f_true, f_hat) -> None:
    """Summarize a (seeds, ticks) frequency-estimate array tick by tick."""
    err = f_hat - f_true[None, :]
    mean_f = f_hat.mean(axis=0)
    mean_e = err.mean(axis=0)
    rms_e = np.sqrt(np.mean(err**2, axis=0))
    with open(path, "w", newline="") as fh:
        fh.write("k,t_s,f_true_hz,f_hat_mean_hz,err_mean_hz,err_rms_hz\n")
        for k in range(t_s.size):
            row = (t_s[k], f_true[k], mean_f[k], mean_e[k], rms_e[k])
            fh.write(f"{k}," + ",".join(_fmt(x) for x in row) + "\n")


def _run_single(plan: RunPlan, out: Path, seed: int, n_seeds: int) -> list[Path]:
    model = _single_model(plan)
    f_true = plan.scenario.true_freq()
    vabc = generate_arrays(plan.scenario, seed=seed, snr_db=plan.snr_db)
    _, v = clarke_arrays(vabc)
    trace = run_filter(model, v, plan.sample_rate_hz, f_true=f_true)

    files = [out / "trace.csv"]
    write_trace_csv(files[0], trace)
    if plan.spectrum_window_s is not None:
        spectrum = error_spectrum(trace, _ticks(plan.spectrum_window_s, plan.sample_rate_hz))
        files.append(out / "spectrum.csv")
        write_spectrum_csv(files[-1], spectrum)
    if n_seeds > 1:
        rows = []
        for i in range(n_seeds):
            vabc_i = generate_arrays(plan.scenario, seed=[seed, i], snr_db=plan.snr_db)
            rows.append(clarke_arrays(vabc_i)[1])
        f_hat, _ = run_filter_batch(model, np.stack(rows))
        files.append(out / "mc_trace.csv")
        _write_mc_summary(files[-1], trace.t_s, f_true, f_hat)
    return files


def _theory_matrices(plan: RunPlan):
    if plan.estimator == "dfe":
        model = shared_increment_model(plan.sample_rate_hz, snr_db=plan.snr_db)
    else:
        model = nss_model(plan.sample_rate_hz, snr_db=plan.snr_db)
    d = model.n_states
    return 0.1 * np.eye(d, dtype=complex), model.Cu.materialize(), model.Cn.materialize()


def _theory_columns(run, report: MseReport, mats) -> None:
    """Fill the theoretical trace/bound columns from the matrix recursions."""
    node_ids = run.topology.node_ids
    n_steps = len(run.records[node_ids[0]])
    M0, Cu, Cn = mats
    state = initial_network_state(node_ids, run.weights, M0, Cu, Cn)
    V = sigma = None
    for i in range(n_steps):
        recs = {n: run.records[n][i] for n in node_ids}
        V, sigma, state = mse_step(state, run.weights, recs)
    report.theoretical_trace = {
        n: float(np.real(np.trace(sigma[n]))) for n in node_ids
    }
    report.bound_ok = {}
    for n in node_ids:
        own = report.theoretical_trace[n]
        ceiling = max(
            float(np.real(np.trace(V[(y, y)]))) for y in _serving_row(n, run.weights)
        )
        report.bound_ok[n] = bool(own <= ceiling + 1e-12)


def _run_network(plan: RunPlan, out: Path, seed: int, n_seeds: int) -> list[Path]:
    per_node = {
        n: plan.node_scenarios.get(n, plan.scenario) for n in plan.topology.node_ids
    }
    run = run_distributed(
        plan.topology,
        per_node,
        seed=seed,
        snr_db=plan.snr_db,
        mode=plan.estimator,
        diffusion=plan.diffusion,
        assignment=plan.assignment,
        weights=plan.weights,
        collect_messages=plan.messages_csv,
        record_matrices=plan.mse_theory,
    )

    files = []
    for n in plan.topology.node_ids:
        files.append(out / f"node_{n}_trace.csv")
        write_trace_csv(files[-1], run.traces[n])
    if plan.messages_csv:
        files.append(out / "messages.csv")
        write_messages_csv(files[-1], run.messages)

    mc = None
    if n_seeds > 1:
        mc = run_distributed_mc(
            plan.topology,
            per_node,
            seeds=[seed + i for i in range(n_seeds)],
            snr_db=plan.snr_db,
            mode=plan.estimator,
            diffusion=plan.diffusion,
            assignment=plan.assignment,
            weights=plan.weights,
        )
        for j, n in enumerate(mc.node_ids):
            files.append(out / f"mc_node_{n}.csv")
            _write_mc_summary(
                files[-1], run.traces[n].t_s, per_node[n].true_freq(), mc.f_hat_hz[:, j]
            )

    if plan.mse_window_s is not None:
        window = _ticks(plan.mse_window_s, plan.sample_rate_hz)
        if mc is not None:
            truth = np.stack([per_node[n].true_freq() for n in mc.node_ids])
            report = empirical_mse_mc(mc, window, truth)
        else:
            report = empirical_mse(run.traces, window)
        if plan.mse_theory:
            _theory_columns(run, report, _theory_matrices(plan))
        files.append(out / "mse_report.csv")
        write_mse_csv(files[-1], report)
    return files


def run_plan(plan: RunPlan, out_dir, seed=None, n_seeds: int = 1, raw: bytes = b"") -> list[Path]:
    """Simulate a plan and write all outputs plus the manifest into out_dir."""
    seed = plan.seed if seed is None else int(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if plan.estimator in _SINGLE_FACTORIES:
        files = _run_single(plan, out, seed, n_seeds)
    else:
        files = _run_network(plan, out, seed, n_seeds)

    manifest = {
        "name": plan.name,
        "estimator": plan.estimator,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "n_seeds": int(n_seeds),
        "versions": {
            "gridfreq": _package_version(),
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
        },
        "files": [
            {"name": f.name, "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
            for f in sorted(files)
        ],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return files + [manifest_path]


def _package_version() -> str:
    from gridfreq import __version__

    return __version__


# ---------------------------------------------------------------------------
# command line


def _resolve_out_dir(cli_out, plan: RunPlan) -> Path:
    if cli_out:
        return Path(cli_out)
    env = os.environ.get("GRIDFREQ_OUT_DIR")
    if env:
        return Path(env) / plan.name
    if plan.output_dir:
        return Path(plan.output_dir)
    return Path(f"{plan.name}_out")


def _cmd_run(args) -> int:
    cfg, raw = load_config(args.config)
    plan = build_plan(cfg)
    out = _resolve_out_dir(args.out_dir, plan)
    files = run_plan(plan, out, seed=args.seed, n_seeds=args.seeds, raw=raw)
    for f in files:
        print(f"wrote {f}")
    return 0


def _cmd_validate(args) -> int:
    cfg, _ = load_config(args.config)
    problems = validate_config(cfg)
    for p in problems:
        print(p)
    if problems:
        return 1
    print(f"ok: {cfg.get('name', args.config)}")
    return 0


def _cmd_list(args) -> int:
    for res in sorted(_bundled_dir().iterdir(), key=lambda r: r.name):
        if not res.name.endswith(".yaml"):
            continue
        cfg = yaml.safe_load(res.read_bytes())
        print(f"{res.name[:-5]}: {cfg.get('description', '')}")
    return 0


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridfreq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate an experiment config")
    run.add_argument("config", help="config path or bundled experiment name")
    run.add_argument("--seed", type=int, default=None, help="override the config's seed")
    run.add_argument(
        "--seeds", type=_positive_int, default=1, help="Monte-Carlo repetitions (default 1)"
    )
    run.add_argument("--out-dir", default=None, help="output directory")
    run.set_defaults(handler=_cmd_run)

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", help="config path or bundled experiment name")
    val.set_defaults(handler=_cmd_validate)

    lst = sub.add_parser("list-experiments", help="list the bundled example configs")
    lst.set_defaults(handler=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 2
    except (ScenarioError, DistributedConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FilterDegenerateError as exc:
        print(f"filter degenerate: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
