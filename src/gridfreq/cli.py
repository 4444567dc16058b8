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
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .analysis import SPECTRUM_MIN_TICKS, NetworkErrorState, empirical_mse, error_spectrum
from .estimators import (
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
    _mixing,
    run_distributed,
)
from .signals import (
    Scenario,
    ScenarioError,
    ScenarioSegment,
    add_noise,
    clarke_arrays,
    generate_arrays,
)

__all__ = ["ConfigError", "load_config", "validate_config", "build_plan", "run_plan", "main"]

_ESTIMATORS = ("lss", "wlss", "nss", "dfe", "distributed-acekf")
_NETWORK_ESTIMATORS = ("dfe", "distributed-acekf")
_DIFFUSIONS = ("bridge", "conventional", "none")

#: most samples a run, or a window of it, may span
MAX_SAMPLES = 10**7
#: lowest snr_db: the filters' noise variance 1.5 * 10^(-snr_db/10) is then 1.5e308
MIN_SNR_DB = -3080.0

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
    freq = rate = None
    if has_const and has_ramp:
        diags.append(f"{path}: give either freq_hz or freq_start_hz + rate_hz_per_s, not both")
    elif has_const:
        freq, rate = _number(raw, "freq_hz", path, diags), 0.0
    elif "freq_start_hz" in raw and "rate_hz_per_s" in raw:
        freq, rate = (_number(raw, key, path, diags) for key in ("freq_start_hz", "rate_hz_per_s"))
    else:
        diags.append(f"{path}: needs freq_hz, or freq_start_hz together with rate_hz_per_s")
    ok = None not in (freq, rate, *bounds)

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
    return ScenarioSegment(*bounds, freq, amps, offs, rate)


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


def _node_id_problems(ids: list, path: str) -> list[str]:
    """A diagnostic for each entry of ``ids`` that is a YAML collection, not a node id."""
    return [
        f"{path}[{i}]: expected a scalar node id, got {v!r}"
        for i, v in enumerate(ids) if isinstance(v, (list, Mapping, set))
    ]


def _file_name_problems(ids: list) -> list[str]:
    """A diagnostic for each node id whose text cannot be part of its output
    file names: with a '/' or NUL, not UTF-8, or too long for a file name."""
    bad = []
    for i, v in enumerate(ids):
        try:
            name = f"mc_node_{v}.csv".encode()  # the longest name made from an id
        except UnicodeEncodeError:
            name = b"/"  # rejected like a '/'
        if b"/" in name or b"\0" in name or len(name) > 255:
            bad.append(f"topology.nodes[{i}]: node id {v!r} cannot be part of a file name")
    return bad


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
    _want(cfg, "description", str, diags)
    seed = _want(cfg, "seed", int, diags, default=0)
    if seed < 0:
        diags.append(f"seed: expected a non-negative integer, got {seed}")
    snr_db = cfg.get("snr_db")
    if snr_db is not None and _finite(snr_db) is None:
        diags.append(f"snr_db: expected a finite number or null, got {snr_db!r}")
    snr_db = _finite(snr_db)
    if snr_db is not None and snr_db < MIN_SNR_DB:
        diags.append(f"snr_db: {snr_db} dB is below {MIN_SNR_DB}, where noise variances overflow")
    fs = _want(cfg, "sample_rate_hz", float, diags, default=1000.0)
    duration_s = _want(cfg, "duration_s", float, diags, required=True)
    if duration_s is not None and not abs(duration_s * fs) <= MAX_SAMPLES:
        diags.append(f"duration_s: {duration_s} s at {fs} Hz is more than {MAX_SAMPLES} samples")
        duration_s = None
    elif duration_s is not None and min(duration_s, fs) > 0 and round(duration_s * fs) < 1:
        diags.append(f"duration_s: {duration_s} s at {fs} Hz is less than 1 sample")
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
    clean = len(diags)
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
            elif bad := _node_id_problems(raw["nodes"], "topology.nodes") + [
                f"topology.edges[{i}]: expected a pair of node ids, got {e!r}"
                for i, e in enumerate(raw["edges"])
                if not (isinstance(e, list) and len(e) == 2 and not _node_id_problems(e, ""))
            ]:
                diags += bad
            else:
                diags += _file_name_problems(raw["nodes"])
                try:
                    topology = Topology(raw["nodes"], [tuple(e) for e in raw["edges"]])
                except (ValueError, TypeError) as exc:
                    diags.append(f"topology: {exc}")
        if topology is not None and not topology.is_connected:
            diags.append("topology.edges: the graph is not connected, so its parts never mix")
        if "bridges" in cfg and diffusion in ("conventional", "none"):
            diags.append(f"bridges: diffusion {diffusion} reads no bridges")
        elif topology is not None and "bridges" in cfg:
            if not isinstance(cfg["bridges"], list):
                diags.append(f"bridges: expected a list of node ids, got {cfg['bridges']!r}")
            elif bad := _node_id_problems(cfg["bridges"], "bridges"):
                diags += bad
            else:
                try:
                    assignment = BridgeAssignment(topology, cfg["bridges"])
                except (ValueError, TypeError) as exc:
                    diags.append(f"bridges: {exc}")
        if "weights" in cfg:
            weights = _build_weights(cfg["weights"], "weights", diags)
        if len(diags) == clean:  # diffusion, topology, bridges and weights all parsed
            try:
                _mixing(topology, assignment, weights, diffusion)
            except DistributedConfigError as exc:
                diags.append(f"weights: {exc}")
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
    )


# ---------------------------------------------------------------------------
# running


_SINGLE_FACTORIES = {"lss": lss_model, "wlss": wlss_model, "nss": nss_model}


def _ticks(window_s: tuple, fs: float) -> tuple[int, int]:
    return int(round(window_s[0] * fs)), int(round(window_s[1] * fs))


#: rows that ``_write_csv`` formats at a time
_CSV_BLOCK_ROWS = 1024

#: the ``%`` code of a float, integer or text array's cells, by dtype kind
_NUMBER_CODES = {"f": "%.15g", "i": "%d", "u": "%d", "U": "%s"}


def _cell_text(cell) -> str:
    """One cell as ``csv.writer`` writes it among others: quoted as needed, None blank."""
    buf = io.StringIO()
    csv.writer(buf).writerow((cell, None))
    return buf.getvalue()[:-3]  # the blank second cell's ",\r\n"


def _write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under a header row as UTF-8, every line ended with CRLF.

    A column is an array or a sequence of cells, or is coded as ``(labels,
    codes)``, whose row i is ``labels[codes[i]]``.  The bytes are those of
    ``csv.writer`` given a row at a time, with float array cells as ``%.15g``
    text: a node id that needs quotes gets them and None is left blank.  A
    str array holds cells already written as text, which go out as they
    are.  Rows are formatted in blocks of ``_CSV_BLOCK_ROWS``, each by one
    ``%`` of a line template, so at most one block is held as strings.  The
    other cells are formatted once each, a coded column's number labels
    once per block that reaches them and its other labels once per column,
    when first reached; columns that share one codes array share each
    block's ``np.unique`` of it.  A column of another length than the first
    raises ValueError naming it.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    columns = [col if isinstance(col, tuple) else (col, None) for col in columns]
    columns = [(x if isinstance(x, np.ndarray) else np.fromiter(x, object, len(x)), codes)
               for x, codes in columns]
    lengths = [len(labels if codes is None else codes) for labels, codes in columns]
    for name, length in zip(header, lengths):
        if length != lengths[0]:
            raise ValueError(f"column {name!r} has {length} rows, {header[0]!r} has {lengths[0]}")
    n_rows, width = (lengths or [0])[0], len(columns)
    texts = [{} for _ in columns]  # a coded column's label texts, by label
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n_rows)
            codes, flat, unique = ["%s"] * width, [None] * ((stop - start) * width), {}
            for j, (labels, idx) in enumerate(columns):
                number = _NUMBER_CODES.get(labels.dtype.kind)
                if idx is None and number:
                    codes[j], flat[j::width] = number, labels[start:stop].tolist()
                    continue
                if idx is None:
                    cells = list(map(_cell_text, labels[start:stop].tolist()))
                else:
                    if id(idx) not in unique:
                        unique[id(idx)] = [a.tolist() for a in np.unique(
                            idx[start:stop], return_inverse=True)]
                    used, at = unique[id(idx)]
                    known = {} if number else texts[j]
                    new = [u for u in used if u not in known]
                    cells = labels[new].tolist()
                    known.update(zip(new, [number % c for c in cells] if number
                                     else map(_cell_text, cells)))
                    cells = list(map([known[u] for u in used].__getitem__, at))
                # csv.writer quotes a row's one field when it is blank
                flat[j::width] = [t or '""' for t in cells] if width == 1 else cells
            fh.write(((",".join(codes) + "\r\n") * (stop - start)) % tuple(flat))


def _clock_columns(t_s: np.ndarray) -> list:
    """The ``k`` and ``t_s`` columns of a run's tables, formatted once as text."""
    return [np.array(["%d" % k for k in range(t_s.size)]),
            np.array(["%.15g" % t for t in t_s.tolist()])]


def _trace_table(name: str, trace: FreqTrace, clock: list) -> tuple:
    err = trace.f_hat_hz - trace.f_true_hz
    return name, ["k", "t_s", "f_hat_hz", "f_true_hz", "err_hz", "innov_power", "flags"], [
        *clock, trace.f_hat_hz, trace.f_true_hz, err, trace.innovation_power, trace.flags,
    ]


def _mc_table(name: str, clock: list, f_true, f_hat) -> tuple:
    """Summarize a (seeds, ticks) frequency-estimate array tick by tick."""
    err = f_hat - f_true
    err_mean = err.mean(axis=0)
    err_rms = np.sqrt(np.mean(np.square(err, out=err), axis=0))  # squared in place
    return name, ["k", "t_s", "f_true_hz", "f_hat_mean_hz", "err_mean_hz", "err_rms_hz"], [
        *clock, f_true, f_hat.mean(axis=0), err_mean, err_rms,
    ]


def _run_single(plan: RunPlan, seed: int, n_seeds: int) -> list[tuple]:
    """Row 0 of the one filter batch is the detailed run at ``seed``; with
    ``n_seeds`` > 1 the Monte-Carlo rows at ``[seed, i]`` follow it.  The
    clean waveform is synthesized once, and each row adds its own noise."""
    factory = _SINGLE_FACTORIES[plan.estimator]
    model = factory(plan.sample_rate_hz, snr_db=plan.snr_db, **plan.filter_overrides)
    f_true = plan.scenario.true_freq()
    mc_seeds = [[seed, i] for i in range(n_seeds)] if n_seeds > 1 else []
    clean = generate_arrays(plan.scenario)
    rows = np.empty((1 + len(mc_seeds), plan.scenario.n_samples), dtype=complex)
    for i, s in enumerate([seed, *mc_seeds]):
        rows[i] = clarke_arrays(add_noise(clean, s, plan.snr_db))[1]
    try:
        run = run_filter(model, rows, plan.sample_rate_hz, f_true=f_true, detail=1)
    except FilterDegenerateError as exc:
        r = exc.row[0]
        who = f"seed {seed}" if r == 0 else f"Monte-Carlo seed {mc_seeds[r - 1]}"
        raise FilterDegenerateError(f"tick {exc.tick}: {who}: {exc.__cause__}") from exc
    del rows  # the run holds its estimates, not its inputs
    trace = run.trace()

    clock = _clock_columns(trace.t_s)
    tables = [_trace_table("trace.csv", trace, clock)]
    if plan.spectrum_window_s is not None:
        spectrum = error_spectrum(trace, _ticks(plan.spectrum_window_s, plan.sample_rate_hz))
        tables.append(("spectrum.csv", ["freq_hz", "power"], [spectrum.freq_hz, spectrum.power]))
    if mc_seeds:
        tables.append(_mc_table("mc_trace.csv", clock, f_true, run.f_hat_hz[1:]))
    return tables


def _theory_columns(errors: NetworkErrorState) -> tuple:
    """The theoretical trace and bound columns, from the run's final error state."""
    nodes = errors.node_ids
    theo = np.array([np.real(np.trace(errors.sigma(n))) for n in nodes])
    ceiling = [max(np.real(np.trace(errors.v(y, y))) for y in errors.serving(n)) for n in nodes]
    return theo, [bool(t <= c + 1e-12) for t, c in zip(theo, ceiling)]


def _run_network(plan: RunPlan, seed: int, n_seeds: int) -> list[tuple]:
    """Row 0 of the one network batch is the detailed run at ``seed``, which
    the traces, messages and theory read; with ``n_seeds`` > 1 the
    Monte-Carlo rows at ``seed + i`` follow it, ``seed`` itself included."""
    per_node = {
        n: plan.node_scenarios.get(n, plan.scenario) for n in plan.topology.node_ids
    }
    mc_seeds = [seed + i for i in range(n_seeds)] if n_seeds > 1 else []
    run = run_distributed(
        plan.topology, per_node, [seed, *mc_seeds], snr_db=plan.snr_db, mode=plan.estimator,
        diffusion=plan.diffusion, assignment=plan.assignment, weights=plan.weights,
        theory=plan.mse_theory, detail=1,
    )

    clock = _clock_columns(run.t_s)
    tables = [_trace_table(f"node_{n}_trace.csv", run.trace(n), clock) for n in run.node_ids]
    if plan.messages_csv:
        routes, payloads = run.message_log()
        # a row per (tick, route, entry): phase, src and dst coded by route,
        # the payload by its sender's (tick, row, entry)
        sent = np.arange(payloads.size).reshape(payloads.shape).take([r[3] for r in routes], 1)
        k, route = np.repeat(np.indices(sent.shape[:2]).reshape(2, -1), sent.shape[2], axis=1)
        phase, src, dst = ([r[i] for r in routes] for i in range(3))
        sent = sent.ravel()  # one codes array, so both payload columns share its np.unique
        tables.append((
            "messages.csv", ["k", "phase", "src", "dst", "payload_re", "payload_im"],
            [k + 1, (phase, route), (src, route), (dst, route),
             (payloads.ravel().real, sent), (payloads.ravel().imag, sent)],
        ))

    mc = run.f_hat_hz
    if mc_seeds:
        mc = mc[1:]
        for j, n in enumerate(run.node_ids):
            tables.append(_mc_table(f"mc_node_{n}.csv", clock, run.f_true_hz[j], mc[:, j]))

    if plan.mse_window_s is not None:
        mse = empirical_mse(mc, run.f_true_hz, _ticks(plan.mse_window_s, plan.sample_rate_hz))
        theo = ok = [None] * len(run.node_ids)
        if plan.mse_theory:
            theo, ok = _theory_columns(run.error_state)
        tables.append((
            "mse_report.csv", ["node", "empirical_mse_hz2", "theoretical_trace", "bound_ok"],
            [list(run.node_ids), mse, theo, ok],
        ))
    return tables


def _sha256(path: Path) -> str:
    """The sha256 of a file, read in chunks of 1 MiB."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def run_plan(plan: RunPlan, out_dir, seed=None, n_seeds: int = 1, raw: bytes = b"") -> list[Path]:
    """Simulate a plan, then write all outputs plus the manifest into out_dir.

    Nothing is written before every output is computed.  The files are
    written into a sibling temporary directory and moved into out_dir only
    once all of them are written; if writing raises, the temporary directory
    and the directories this call created are removed again.
    """
    seed = plan.seed if seed is None else int(seed)
    simulate = _run_single if plan.estimator in _SINGLE_FACTORIES else _run_network
    tables = simulate(plan, seed, n_seeds)
    out = Path(out_dir)
    created = next((p for p in [*reversed(out.parents), out] if not p.exists()), None)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        files = [staging / name for name, _, _ in tables]
        for path, (_, header, columns) in zip(files, tables):
            _write_csv(path, header, columns)
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
            "files": [{"name": f.name, "sha256": _sha256(f)} for f in sorted(files)],
        }
        files.append(staging / "manifest.json")
        files[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        out.mkdir(exist_ok=True)
        for f in files:
            os.replace(f, out / f.name)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [out / f.name for f in files]


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
