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
import csv
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .analysis import SPECTRUM_MIN_TICKS, NetworkErrorState, empirical_mse, error_spectrum
from .augmented import AugmentedMatrix
from .estimators import (
    _CU_INCREMENT,
    _CU_VOLTAGE,
    FilterDegenerateError,
    FreqTrace,
    lss_model,
    nss_model,
    run_filter,
    wlss_model,
)
from .network import (
    BridgeAssignment,
    DiffusionWeights,
    DistributedConfigError,
    Topology,
    run_distributed,
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

#: most samples a run, or a window of it, may span
MAX_SAMPLES = 10**7

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


def _finite(val) -> float | None:
    """``val`` as a float if it is a finite real number, else None.

    Booleans, NaN, infinities and integers too large for a double all give
    None, so no YAML value makes a numeric read raise.
    """
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        val = float(val)
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


def _want(cfg, key, kind, diags, required=False, default=None):
    """Fetch cfg[key], appending a diagnostic when its type is off.

    ``kind`` float asks for a finite number, returned as a float.
    """
    if key not in cfg:
        if required:
            diags.append(f"{key}: required")
        return default
    val = cfg[key]
    if kind is float:
        num = _finite(val)
        if num is None:
            diags.append(f"{key}: expected a finite number, got {val!r}")
        return default if num is None else num
    if not isinstance(val, kind) or isinstance(val, bool):
        diags.append(f"{key}: expected {kind.__name__}, got {type(val).__name__}")
        return default
    return val


def _num3(raw, path: str, diags: list) -> tuple | None:
    vals = [_finite(x) for x in raw] if isinstance(raw, list) and len(raw) == 3 else [None]
    if None in vals:
        diags.append(f"{path}: expected a list of 3 finite numbers")
        return None
    return tuple(vals)


def _number(raw: Mapping, key: str, path: str, diags: list) -> float | None:
    val = _finite(raw.get(key))
    if val is None:
        diags.append(f"{path}.{key}: required number")
    return val


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
                # NaN and inf go on as they are: DiffusionWeights names their row
                row[m] = w if isinstance(w, float) else _finite(w)
                if row[m] is None:
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
    vals = [_finite(x) for x in raw] if isinstance(raw, list) and len(raw) == 2 else [None]
    if None in vals:
        diags.append(f"{path}: expected [start_s, stop_s] in finite numbers")
        return None
    start, stop = vals
    if not all(abs(x * fs) <= MAX_SAMPLES for x in vals):
        diags.append(f"{path}: [{start}, {stop}] s at {fs} Hz reaches past {MAX_SAMPLES} samples")
        return None
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
    if seed < 0:
        diags.append(f"seed: expected a non-negative integer, got {seed}")
    snr_db = cfg.get("snr_db")
    if snr_db is not None and _finite(snr_db) is None:
        diags.append(f"snr_db: expected a finite number or null, got {snr_db!r}")
    snr_db = _finite(snr_db)
    fs = _want(cfg, "sample_rate_hz", float, diags, default=1000.0)
    duration_s = _want(cfg, "duration_s", float, diags, required=True)
    if duration_s is not None and not abs(duration_s * fs) <= MAX_SAMPLES:
        diags.append(f"duration_s: {duration_s} s at {fs} Hz is more than {MAX_SAMPLES} samples")
        duration_s = None
    estimator = _want(cfg, "estimator", str, diags, required=True)
    if estimator is not None and estimator not in _ESTIMATORS:
        diags.append(f"estimator: unknown estimator {estimator!r}, expected one of {_ESTIMATORS}")
    networked = estimator in _NETWORK_ESTIMATORS

    scenario = None
    if "scenario" not in cfg:
        diags.append("scenario: required")
    else:
        scenario = _build_scenario(cfg["scenario"], "scenario", fs, duration_s, diags)

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
            except (ValueError, TypeError) as exc:
                diags.append(f"bridges: {exc}")
        if "weights" in cfg:
            weights = _build_weights(cfg["weights"], "weights", diags)
        if "node_scenarios" in cfg:
            raw = cfg["node_scenarios"]
            if not isinstance(raw, Mapping):
                diags.append("node_scenarios: expected mapping node -> scenario")
            else:
                for node, sub in raw.items():
                    sc = _build_scenario(sub, f"node_scenarios[{node}]", fs, duration_s, diags)
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
                elif mse_theory and scenario is not None and scenario.n_samples < 2:
                    diags.append(
                        f"mse.theory: needs a run of at least 2 samples, got {scenario.n_samples}"
                    )

    filter_overrides = {}
    if "filter" in cfg and not networked:
        raw = cfg["filter"]
        allowed = {"increment_process_noise", "voltage_process_noise"}
        if not isinstance(raw, Mapping) or set(raw) - allowed:
            diags.append(f"filter: expected mapping with keys among {sorted(allowed)}")
        else:
            for key, val in raw.items():
                val = _finite(val)
                if val is None or val <= 0:
                    diags.append(f"filter.{key}: expected a positive number")
                else:
                    filter_overrides[key] = val

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
        snr_db=snr_db,
        sample_rate_hz=fs,
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


def _write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under a header row, every line ended with CRLF.

    A float array column is formatted ``%.15g``; the cells of any other
    column go to ``csv.writer`` as they are, so a node id that needs quotes
    gets them and None is left blank.  Rows are formatted as they are
    written, so no column is ever held as strings.
    """
    cells = [
        map("%.15g".__mod__, col) if isinstance(col, np.ndarray) and col.dtype.kind == "f"
        else col
        for col in columns
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells))


def _trace_table(name: str, trace: FreqTrace) -> tuple:
    err = trace.f_hat_hz - trace.f_true_hz
    return name, ["k", "t_s", "f_hat_hz", "f_true_hz", "err_hz", "innov_power", "flags"], [
        trace.k, trace.t_s, trace.f_hat_hz, trace.f_true_hz, err, trace.innovation_power,
        trace.flags,
    ]


def _mc_table(name: str, t_s, f_true, f_hat) -> tuple:
    """Summarize a (seeds, ticks) frequency-estimate array tick by tick."""
    err = f_hat - f_true
    return name, ["k", "t_s", "f_true_hz", "f_hat_mean_hz", "err_mean_hz", "err_rms_hz"], [
        np.arange(t_s.size), t_s, f_true, f_hat.mean(axis=0), err.mean(axis=0),
        np.sqrt(np.mean(err**2, axis=0)),
    ]


def _run_single(plan: RunPlan, seed: int, n_seeds: int) -> list[tuple]:
    model = _single_model(plan)
    f_true = plan.scenario.true_freq()
    vabc = generate_arrays(plan.scenario, seed=seed, snr_db=plan.snr_db)
    _, v = clarke_arrays(vabc)
    trace = run_filter(model, v, plan.sample_rate_hz, f_true=f_true, detail=True).trace()

    tables = [_trace_table("trace.csv", trace)]
    if plan.spectrum_window_s is not None:
        spectrum = error_spectrum(trace, _ticks(plan.spectrum_window_s, plan.sample_rate_hz))
        tables.append(("spectrum.csv", ["freq_hz", "power"], [spectrum.freq_hz, spectrum.power]))
    if n_seeds > 1:
        rows = []
        for i in range(n_seeds):
            vabc_i = generate_arrays(plan.scenario, seed=[seed, i], snr_db=plan.snr_db)
            rows.append(clarke_arrays(vabc_i)[1])
        mc = run_filter(model, np.stack(rows), plan.sample_rate_hz)
        tables.append(_mc_table("mc_trace.csv", trace.t_s, f_true, mc.f_hat_hz))
    return tables


def _theory_columns(errors: NetworkErrorState) -> tuple:
    """The theoretical trace and bound columns, from the run's final error state."""
    nodes = errors.node_ids
    theo = np.array([np.real(np.trace(errors.sigma(n))) for n in nodes])
    ceiling = [max(np.real(np.trace(errors.v(y, y))) for y in errors.serving(n)) for n in nodes]
    return theo, [bool(t <= c + 1e-12) for t, c in zip(theo, ceiling)]


def _run_network(plan: RunPlan, seed: int, n_seeds: int) -> list[tuple]:
    per_node = {
        n: plan.node_scenarios.get(n, plan.scenario) for n in plan.topology.node_ids
    }
    options = dict(
        snr_db=plan.snr_db,
        mode=plan.estimator,
        diffusion=plan.diffusion,
        assignment=plan.assignment,
        weights=plan.weights,
    )
    run = run_distributed(
        plan.topology, per_node, [seed], theory=plan.mse_theory, detail=True, **options
    )

    tables = [_trace_table(f"node_{n}_trace.csv", run.trace(n)) for n in run.node_ids]
    if plan.messages_csv:
        k, phase, src, dst, payload = run.message_log()
        tables.append((
            "messages.csv", ["k", "phase", "src", "dst", "payload_re", "payload_im"],
            [k, phase, src, dst, payload.real, payload.imag],
        ))

    mc = run
    if n_seeds > 1:
        mc = run_distributed(
            plan.topology, per_node, [seed + i for i in range(n_seeds)], **options
        )
        for j, n in enumerate(mc.node_ids):
            tables.append(
                _mc_table(f"mc_node_{n}.csv", mc.t_s, mc.f_true_hz[j], mc.f_hat_hz[:, j])
            )

    if plan.mse_window_s is not None:
        report = empirical_mse(mc, _ticks(plan.mse_window_s, plan.sample_rate_hz))
        theo = ok = [None] * len(report.nodes)
        if plan.mse_theory:
            theo, ok = _theory_columns(run.error_state)
        mse = np.array([report.empirical_mse_hz2[n] for n in report.nodes])
        tables.append((
            "mse_report.csv", ["node", "empirical_mse_hz2", "theoretical_trace", "bound_ok"],
            [list(report.nodes), mse, theo, ok],
        ))
    return tables


def run_plan(plan: RunPlan, out_dir, seed=None, n_seeds: int = 1, raw: bytes = b"") -> list[Path]:
    """Simulate a plan, then write all outputs plus the manifest into out_dir.

    Nothing is written before every output is computed.  If writing raises,
    the directories this call created are removed again.
    """
    seed = plan.seed if seed is None else int(seed)
    simulate = _run_single if plan.estimator in _SINGLE_FACTORIES else _run_network
    tables = simulate(plan, seed, n_seeds)
    out = Path(out_dir)
    created = next((p for p in [*reversed(out.parents), out] if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    files = [out / name for name, _, _ in tables]
    try:
        for path, (_, header, columns) in zip(files, tables):
            _write_csv(path, header, columns)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise

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


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return parse


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridfreq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate an experiment config")
    run.add_argument("config", help="config path or bundled experiment name")
    run.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="override the config's seed"
    )
    run.add_argument(
        "--seeds", type=_int_at_least(1), default=1, help="Monte-Carlo repetitions (default 1)"
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
