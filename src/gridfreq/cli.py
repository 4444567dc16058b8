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

from . import __version__
from .analysis import SPECTRUM_MIN_TICKS, empirical_mse, error_spectrum
from .estimators import (
    FilterDegenerateError,
    FreqTrace,
    lss_model,
    nss_model,
    run_filter,
    wlss_model,
)
from .network import (
    _DIFFUSIONS,
    _MODES,
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

_SINGLE_FACTORIES = {"lss": lss_model, "wlss": wlss_model, "nss": nss_model}
_ESTIMATORS = (*_SINGLE_FACTORIES, *_MODES)

#: most samples a run, or a window of it, may span
MAX_SAMPLES = 10**7
#: lowest snr_db: the filters' noise variance 1.5 * 10^(-snr_db/10) is then 1.5e308
MIN_SNR_DB = -3080.0


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


def _file_name_ok(name: str) -> bool:
    """Whether ``name`` can be one path component: not empty, '.' or '..',
    without '/' or NUL, encodable as UTF-8 and at most 255 bytes long."""
    try:
        raw = name.encode()
    except UnicodeEncodeError:
        return False
    return name not in ("", ".", "..") and b"/" not in raw and b"\0" not in raw and len(raw) <= 255


def _bad(diags: list, path: str, text) -> None:
    diags.append(f"{path}: {text}")


def _built(diags: list, path: str, make, *args):
    """``make(*args)``, or None after a diagnostic with the ValueError or TypeError it raised."""
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        return _bad(diags, path, exc)


def _kind(*stages):
    """A kind of config value, read as (parse, text) stages.  Each parse takes
    what the stage before kept and returns the value read, True to keep it as
    it is, or None or False to reject it with its text, formatted with the
    value ``v`` and its type name ``t``.  A kind is called as ``kind(value,
    dotted path, diags)`` and returns the value read, or None after a
    diagnostic."""
    def read(v, path, diags):
        for parse, text in zip(stages[::2], stages[1::2]):
            if (out := parse(v)) is None or out is False:
                return _bad(diags, path, text.format(v=v, t=type(v).__name__))
            v = v if out is True else out
        return v
    return read


def _finites(n: int):
    return lambda v: (isinstance(v, list) and len(v) == n
                      and None not in (t := tuple(map(_finite, v))) and t)


_IS_STR = (lambda v: isinstance(v, str), "expected str, got {t}")
_str = _kind(*_IS_STR)
_bool = _kind(lambda v: isinstance(v, bool), "expected true or false, got {v!r}")
_number = _kind(_finite, "required number")
_noise = _kind(_finite, "expected a positive number", lambda v: v > 0, "expected a positive number")
_positive = _kind(_finite, "expected a finite number, got {v!r}",
                  lambda v: v > 0, "must be positive, got {v}")
_snr = _kind(lambda v: v is None or _finite(v), "expected a finite number or null, got {v!r}",
             lambda v: v is None or v >= MIN_SNR_DB,
             f"{{v}} dB is below {MIN_SNR_DB}, where noise variances overflow")
_seed = _kind(lambda v: isinstance(v, int) and not isinstance(v, bool), "expected int, got {t}",
              lambda v: v >= 0, "expected a non-negative integer, got {v}")
# the output directory is <name>_out or $GRIDFREQ_OUT_DIR/<name>, written
# through a sibling .<name>_out.XXXXXXXX (run_plan's staging directory)
_name = _kind(*_IS_STR, lambda v: _file_name_ok(v) and _file_name_ok(f".{v}_out.XXXXXXXX"),
              "{v!r} cannot name the output directory: it must be one path component"
              " of at most 241 UTF-8 bytes, not '.' or '..'")
# an output_dir or --out-dir path is written through a sibling .<last component>.XXXXXXXX
_out_dir = _kind(*_IS_STR, bool, "the path is empty",
                 lambda v: _file_name_ok(f".{Path(v).name}.XXXXXXXX"),
                 "{v!r} cannot name the output directory: its last path component"
                 " must be at most 245 UTF-8 bytes, without NUL")
_estimator = _kind(*_IS_STR, lambda v: v in _ESTIMATORS,
                   f"unknown estimator {{v!r}}, expected one of {_ESTIMATORS}")
_diffusion = _kind(*_IS_STR, lambda v: v in _DIFFUSIONS,
                   f"unknown mode {{v!r}}, expected one of {_DIFFUSIONS}")
_WINDOW, _TRIPLE = "expected [start_s, stop_s] in finite numbers", "expected a list of 3 finite numbers"
_window, _triple = _kind(_finites(2), _WINDOW), _kind(_finites(3), _TRIPLE)


def _nodes(v, path, diags):
    if not isinstance(v, list):
        return _bad(diags, path, f"expected a list of node ids, got {v!r}")
    bad = [f"{path}[{i}]: expected a scalar node id, got {x!r}" for i, x in enumerate(v)
           if isinstance(x, (list, Mapping, set))]
    diags += bad
    return None if bad else v


def _edges(v, path, diags):
    if not isinstance(v, list):
        return _bad(diags, path, f"expected a list of node id pairs, got {v!r}")
    bad = [f"{path}[{i}]: expected a pair of node ids, got {e!r}" for i, e in enumerate(v)
           if not (isinstance(e, list) and len(e) == 2 and _nodes(e, "", []) is not None)]  # scalars
    diags += bad
    return None if bad else [tuple(e) for e in v]


def _weight_rows(v, path, diags):
    if not isinstance(v, Mapping) or not all(isinstance(r, Mapping) for r in v.values()):
        return _bad(diags, path, "expected mapping node -> (node -> weight)")
    # NaN and inf go on as they are: DiffusionWeights names their row
    rows = {n: {m: w if isinstance(w, float) else _finite(w) for m, w in r.items()}
            for n, r in v.items()}
    bad = [f"{path}[{n}][{m}]: expected a number, got {v[n][m]!r}"
           for n, r in rows.items() for m, w in r.items() if w is None]
    diags += bad
    return None if bad else rows


def _segments(v, path, diags):
    if not isinstance(v, list) or not v:
        return _bad(diags, path, "required non-empty list of segments")
    return [_read(s, f"{path}[{i}]", "scenario.segments[]", diags) for i, s in enumerate(v)]


def _node_scenarios(v, path, diags):
    if not isinstance(v, Mapping):
        return _bad(diags, path, "expected mapping node -> scenario")
    return {n: _read(s, f"{path}[{n}]", "scenario", diags) for n, s in v.items()}


class _Required(str):
    """A row's default when its key must be given: the text reported when it is absent."""


_REQ = _Required("required")
_ANY, _NET, _ONE = _ESTIMATORS, _MODES, tuple(_SINGLE_FACTORIES)

#: Every config key: dotted path -> (kind, default or _Required, the
#: estimators that read it).  A mapping's kind is the text reported when its
#: value is not a mapping ("": it reads as an empty one).  ``[]`` is an item
#: of a list; a node_scenarios value is read with the rows under
#: ``scenario``.  A key with a None default is left out of the values when it
#: is absent.  The README's config reference lists these keys.
_KEYS = {
    "name": (_name, _REQ, _ANY),
    "description": (_str, None, _ANY),
    "seed": (_seed, 0, _ANY),
    "snr_db": (_snr, None, _ANY),
    "sample_rate_hz": (_positive, 1000.0, _ANY),
    "duration_s": (_positive, _REQ, _ANY),
    "estimator": (_estimator, _REQ, _ANY),
    "scenario": ("", _REQ, _ANY),
    "scenario.segments": (_segments, _Required("required non-empty list of segments"), _ANY),
    "scenario.segments[]": ("expected a mapping", _REQ, _ANY),
    "scenario.segments[].start_s": (_number, _Required("required number"), _ANY),
    "scenario.segments[].end_s": (_number, _Required("required number"), _ANY),
    "scenario.segments[].freq_hz": (_number, None, _ANY),
    "scenario.segments[].freq_start_hz": (_number, None, _ANY),
    "scenario.segments[].rate_hz_per_s": (_number, None, _ANY),
    "scenario.segments[].amplitudes": (_triple, (1.0, 1.0, 1.0), _ANY),
    "scenario.segments[].phase_deg": (_triple, (0.0, 0.0, 0.0), _ANY),
    "filter": ("expected mapping with keys among"
               " ['increment_process_noise', 'voltage_process_noise']", {}, _ONE),
    "filter.increment_process_noise": (_noise, None, _ONE),
    "filter.voltage_process_noise": (_noise, None, _ONE),
    "spectrum": ("expected mapping with window_s: [start_s, stop_s]", None, _ONE),
    "spectrum.window_s": (_window, _Required(_WINDOW), _ONE),
    "topology": ("expected a mapping with nodes and edges lists",
                 _Required("required for network estimators"), _NET),
    "topology.nodes": (_nodes, _REQ, _NET),
    "topology.edges": (_edges, _REQ, _NET),
    "bridges": (_nodes, None, _NET),
    "weights": ("expected a mapping with exactly the keys beta and gamma", None, _NET),
    "weights.beta": (_weight_rows, _REQ, _NET),
    "weights.gamma": (_weight_rows, _REQ, _NET),
    "diffusion": (_diffusion, "bridge", _NET),
    "node_scenarios": (_node_scenarios, {}, _NET),
    "mse": ("expected mapping with window_s and optional theory", None, _NET),
    "mse.window_s": (_window, _Required(_WINDOW), _NET),
    "mse.theory": (_bool, False, _NET),
    "messages_csv": (_bool, False, _NET),
    "output_dir": (_out_dir, None, _ANY),
}


def _read(raw, path: str, row: str, diags: list, estimator=None) -> dict | None:
    """The values of the mapping ``raw`` at config ``path``, read by the rows
    under the table row ``row`` ("" for the top level).

    Diagnoses a key that is not in the table, a required key that is absent,
    a value of the wrong kind and, for a known ``estimator``, a key that
    estimator does not read; such a key's value is None or left out.
    """
    if not isinstance(raw, Mapping):
        if text := (_KEYS[row][0] if row else ""):
            return _bad(diags, path, text)
        raw = {}
    rows = {name: spec for key, spec in _KEYS.items()
            for parent, _, name in [key.rpartition(".")]
            if parent == row and not name.endswith("[]")}
    at = f"{path}." if path else ""
    diags += [f"{at}{key}: unknown field" for key in raw if key not in rows]
    values = {}
    for key, (kind, default, scope) in rows.items():
        if key in raw and estimator in _ESTIMATORS and estimator not in scope:
            _bad(diags, at + key, "only meaningful for " + (
                f"network estimators {_NET}" if scope is _NET else "single-node estimators"))
        elif key in raw and isinstance(kind, str):
            values[key] = _read(raw[key], at + key, f"{row}.{key}" if row else key, diags, estimator)
        elif key in raw:
            values[key] = kind(raw[key], at + key, diags)
        elif isinstance(default, _Required) and (scope is _ANY or estimator in scope):
            _bad(diags, at + key, default)
        elif default is not None and not isinstance(default, _Required):
            values[key] = default
    return values


def _segment(seg: dict, path: str, diags: list) -> ScenarioSegment | None:
    """A segment from its values: the freq form or the ramp form, not both."""
    freq = rate = None
    if "freq_hz" in seg and ("freq_start_hz" in seg or "rate_hz_per_s" in seg):
        _bad(diags, path, "give either freq_hz or freq_start_hz + rate_hz_per_s, not both")
    elif "freq_hz" in seg:
        freq, rate = seg["freq_hz"], 0.0
    elif "freq_start_hz" in seg and "rate_hz_per_s" in seg:
        freq, rate = seg["freq_start_hz"], seg["rate_hz_per_s"]
    else:
        _bad(diags, path, "needs freq_hz, or freq_start_hz together with rate_hz_per_s")
    bounds, amps, deg = (seg.get("start_s"), seg.get("end_s")), seg["amplitudes"], seg["phase_deg"]
    if None in (freq, rate, *bounds, amps, deg):
        return None
    return ScenarioSegment(*bounds, freq, amps, tuple(map(math.radians, deg)), rate)


def _scenario(sc, path: str, fs, duration_s, diags: list) -> Scenario | None:
    """A scenario from its values, checked against the run; None when a
    segment is bad or the run's sample rate or duration is."""
    segments = [s if s is None else _segment(s, f"{path}.segments[{i}]", diags)
                for i, s in enumerate((sc or {}).get("segments") or [])]
    if not segments or None in segments or not (fs and duration_s):
        return None
    scenario = Scenario(segments, fs, duration_s)
    diags.extend(f"{path}.{p}" for p in scenario.validate())
    return scenario


def _check_window(window, path: str, fs, scenario, min_ticks: int, diags: list) -> None:
    """Diagnose a [start_s, stop_s] window that is not inside the run or spans
    fewer than ``min_ticks`` samples."""
    if window is None or fs is None:
        return
    start, stop = window
    if not all(abs(x * fs) <= MAX_SAMPLES for x in window):
        return _bad(diags, path, f"[{start}, {stop}] s at {fs} Hz reaches past {MAX_SAMPLES} samples")
    lo, hi = _ticks(window, fs)
    if scenario is not None and not (0 <= lo and hi <= scenario.n_samples and hi - lo >= min_ticks):
        _bad(diags, path, f"samples [{lo}, {hi}) must lie inside the run's {scenario.n_samples}"
             f" and number at least {min_ticks}")


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


def validate_config(cfg: Mapping) -> list[str]:
    """Return one human-readable diagnostic per problem (empty when usable)."""
    try:
        build_plan(cfg)
    except ConfigError as exc:
        return exc.diagnostics
    return []


def build_plan(cfg: Mapping) -> RunPlan:
    """Turn a parsed config mapping into a RunPlan, or raise ConfigError.

    ``_read`` checks every key by its row of ``_KEYS``; the rules between
    keys follow, each written once.
    """
    diags: list[str] = []
    v = _read(cfg, "", "", diags, cfg.get("estimator"))
    fs, duration_s = v.get("sample_rate_hz"), v.get("duration_s")
    if fs and duration_s and not duration_s * fs <= MAX_SAMPLES:
        _bad(diags, "duration_s", f"{duration_s} s at {fs} Hz is more than {MAX_SAMPLES} samples")
        duration_s = None
    elif fs and duration_s and round(duration_s * fs) < 1:
        _bad(diags, "duration_s", f"{duration_s} s at {fs} Hz is less than 1 sample")
    scenario = _scenario(v.get("scenario"), "scenario", fs, duration_s, diags)
    node_scenarios = {n: _scenario(sc, f"node_scenarios[{n}]", fs, duration_s, diags)
                      for n, sc in (v.get("node_scenarios") or {}).items()}

    topology = assignment = weights = None
    top, w, diffusion = v.get("topology") or {}, v.get("weights") or {}, v.get("diffusion")
    if top.get("nodes") is not None and top.get("edges") is not None:
        diags += [f"topology.nodes[{i}]: node id {n!r} cannot be part of a file name"
                  for i, n in enumerate(top["nodes"]) if not _file_name_ok(f"mc_node_{n}.csv")]
        topology = _built(diags, "topology", Topology, top["nodes"], top["edges"])
    if topology is not None and not topology.is_connected:
        _bad(diags, "topology.edges", "the graph is not connected, so its parts never mix")
    if topology is not None:  # a node scenario that was built names a topology node
        built = {n for n, sc in node_scenarios.items() if sc is not None}
        for node in sorted(built - set(topology.node_ids), key=str):
            _bad(diags, f"node_scenarios[{node}]", "node not in topology")
    if "bridges" in v and diffusion in ("conventional", "none"):
        _bad(diags, "bridges", f"diffusion {diffusion} reads no bridges")
    elif topology is not None and v.get("bridges") is not None:
        assignment = _built(diags, "bridges", BridgeAssignment, topology, v["bridges"])
    if w.get("beta") is not None and w.get("gamma") is not None:
        weights = _built(diags, "weights", DiffusionWeights, w["beta"], w["gamma"])
    if (topology is not None and topology.is_connected and diffusion is not None
            and (assignment or "bridges" not in v) and (weights or "weights" not in v)):
        _built(diags, "weights", _mixing, topology, assignment, weights, diffusion)

    mse, spectrum = v.get("mse") or {}, v.get("spectrum") or {}
    _check_window(mse.get("window_s"), "mse.window_s", fs, scenario, 1, diags)
    _check_window(spectrum.get("window_s"), "spectrum.window_s", fs, scenario,
                  SPECTRUM_MIN_TICKS, diags)
    if mse.get("theory") and scenario is not None and scenario.n_samples < 2:
        _bad(diags, "mse.theory", f"needs a run of at least 2 samples, got {scenario.n_samples}")
    if diags:
        raise ConfigError(diags)
    return RunPlan(
        name=v["name"], estimator=v["estimator"], seed=v["seed"], snr_db=v.get("snr_db"),
        sample_rate_hz=fs, scenario=scenario, node_scenarios=node_scenarios,
        topology=topology, assignment=assignment, weights=weights, diffusion=diffusion,
        filter_overrides=v["filter"], mse_window_s=mse.get("window_s"),
        mse_theory=mse.get("theory", False), spectrum_window_s=spectrum.get("window_s"),
        output_dir=v.get("output_dir"), messages_csv=v["messages_csv"],
    )


# ---------------------------------------------------------------------------
# running


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
    ``%`` of a line template, so at most one block is held as strings.  A
    coded column's labels are formatted once, up front, as a plain column of
    them would be, and each block gathers its texts by its codes.  A column
    of another length than the first raises ValueError naming it.
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
    for j, (labels, codes) in enumerate(columns):
        if codes is not None:  # its labels' texts, as a plain column of them writes them
            number = _NUMBER_CODES.get(labels.dtype.kind)
            texts = [number % c if number else _cell_text(c) for c in labels.tolist()]
            columns[j] = np.array(texts, object), codes
    n_rows, width = (lengths or [0])[0], len(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n_rows)
            codes, flat = ["%s"] * width, [None] * ((stop - start) * width)
            for j, (labels, idx) in enumerate(columns):
                number = _NUMBER_CODES.get(labels.dtype.kind)
                if idx is None and number:
                    codes[j], flat[j::width] = number, labels[start:stop].tolist()
                    continue
                cells = (list(map(_cell_text, labels[start:stop].tolist())) if idx is None
                         else labels[idx[start:stop]].tolist())
                # csv.writer quotes a row's one field when it is blank
                flat[j::width] = [t or '""' for t in cells] if width == 1 else cells
            fh.write(((",".join(codes) + "\r\n") * (stop - start)) % tuple(flat))


def _clock_columns(t_s: np.ndarray) -> list:
    """The ``k`` and ``t_s`` columns of a run's tables, formatted once as text."""
    return [np.array(["%d" % k for k in range(t_s.size)]), _float_text(t_s)]


def _float_text(values: np.ndarray) -> np.ndarray:
    """A float column as the text cells ``_write_csv`` writes for it."""
    return np.array(["%.15g" % v for v in values.tolist()])


def _trace_table(name: str, trace: FreqTrace, clock: list, truth: np.ndarray) -> tuple:
    err = trace.f_hat_hz - trace.f_true_hz
    return name, ["k", "t_s", "f_hat_hz", "f_true_hz", "err_hz", "innov_power", "flags"], [
        *clock, trace.f_hat_hz, truth, err, trace.innovation_power, trace.flags,
    ]


def _mc_table(name: str, clock: list, f_true, truth: np.ndarray, f_hat) -> tuple:
    """Summarize a (seeds, ticks) estimate array tick by tick; ``truth`` is ``f_true`` as text."""
    err = f_hat - f_true
    err_mean = err.mean(axis=0)
    err_rms = np.sqrt(np.mean(np.square(err, out=err), axis=0))  # squared in place
    return name, ["k", "t_s", "f_true_hz", "f_hat_mean_hz", "err_mean_hz", "err_rms_hz"], [
        *clock, truth, f_hat.mean(axis=0), err_mean, err_rms,
    ]


def _run_single(plan: RunPlan, seeds: list) -> tuple:
    """The run over the seed rows ``seeds`` (``seed``, then the Monte-Carlo
    ``[seed, i]``) as one filter batch, and its one node as :func:`_tables`
    reads it.  The clean waveform is synthesized once, and each row adds
    its own noise."""
    factory = _SINGLE_FACTORIES[plan.estimator]
    model = factory(plan.sample_rate_hz, snr_db=plan.snr_db, **plan.filter_overrides)
    clean = generate_arrays(plan.scenario)
    rows = np.empty((len(seeds), plan.scenario.n_samples), dtype=complex)
    for i, s in enumerate(seeds):
        rows[i] = clarke_arrays(add_noise(clean, s, plan.snr_db))[1]
    try:
        run = run_filter(model, rows, plan.sample_rate_hz, plan.scenario.true_freq(), detail=1)
    except FilterDegenerateError as exc:
        r = exc.row[0]
        who = f"seed {seeds[0]}" if r == 0 else f"Monte-Carlo seed {seeds[r]}"
        raise FilterDegenerateError(f"tick {exc.tick}: {who}: {exc.__cause__}") from exc
    return run, [("trace.csv", "mc_trace.csv", run.trace(), run.f_hat_hz)]


def _run_network(plan: RunPlan, seeds: list) -> tuple:
    """The run over the seed rows ``seeds`` (``seed``, then the Monte-Carlo
    ``seed + i``, ``seed`` itself included) as one network batch, and its
    nodes as :func:`_tables` reads them."""
    per_node = {n: plan.node_scenarios.get(n, plan.scenario) for n in plan.topology.node_ids}
    run = run_distributed(
        plan.topology, per_node, seeds, snr_db=plan.snr_db, mode=plan.estimator,
        diffusion=plan.diffusion, assignment=plan.assignment, weights=plan.weights,
        theory=plan.mse_theory, detail=1,
    )
    return run, [(f"node_{n}_trace.csv", f"mc_node_{n}.csv", run.trace(n), run.f_hat_hz[:, j])
                 for j, n in enumerate(run.node_ids)]


def _tables(plan: RunPlan, run, nodes: list) -> list[tuple]:
    """The output tables of a run, as ``(file name, header, columns)``.

    ``nodes`` holds, per node, the names of its trace and Monte-Carlo
    tables, its seed row 0 trace and its (seeds, ticks) estimates.  Seed
    row 0 is the detailed run, which the traces, spectrum, messages and
    theory read; any later rows are the Monte-Carlo rows.  The spectrum,
    messages and MSE report are asked for by plan fields that ``_KEYS``
    scopes to the run kind that writes them.
    """
    clock = _clock_columns(run.t_s)
    keys = [trace.f_true_hz.tobytes() for _, _, trace, _ in nodes]
    texts = {key: _float_text(np.frombuffer(key)) for key in set(keys)}  # once per distinct truth
    tables = [_trace_table(name, trace, clock, texts[key])
              for (name, _, trace, _), key in zip(nodes, keys)]
    if plan.spectrum_window_s is not None:
        spectrum = error_spectrum(nodes[0][2], _ticks(plan.spectrum_window_s, plan.sample_rate_hz))
        tables.append(("spectrum.csv", ["freq_hz", "power"], [spectrum.freq_hz, spectrum.power]))
    if plan.messages_csv:
        routes, payloads = run.message_log()
        # a row per (tick, route, entry): phase, src and dst coded by route, the
        # payload read from the route's payload row
        rows, (ticks, _, entries) = [r[3] for r in routes], payloads.shape
        k, route = np.repeat(np.indices((ticks, len(rows))).reshape(2, -1), entries, axis=1)
        phase, src, dst = ([r[i] for r in routes] for i in range(3))
        tables.append((
            "messages.csv", ["k", "phase", "src", "dst", "payload_re", "payload_im"],
            [k + 1, (phase, route), (src, route), (dst, route),
             payloads.real.take(rows, 1).ravel(), payloads.imag.take(rows, 1).ravel()],
        ))
    mc = slice(int(len(run.f_hat_hz) > 1), None)  # the Monte-Carlo rows, or row 0 alone
    if mc.start:
        tables += [_mc_table(name, clock, trace.f_true_hz, texts[key], f_hat[mc])
                   for (_, name, trace, f_hat), key in zip(nodes, keys)]
    if plan.mse_window_s is not None:
        ids, errors = run.node_ids, run.error_state
        mse = empirical_mse(run.f_hat_hz[mc], run.f_true_hz,
                            _ticks(plan.mse_window_s, plan.sample_rate_hz))
        theo = ok = [None] * len(ids)
        if plan.mse_theory:  # each node's trace, and whether its aggregators' ceiling holds it
            theo = np.array([np.real(np.trace(errors.sigma(n))) for n in ids])
            ceiling = [max(np.real(np.trace(errors.v(y, y))) for y in errors.serving(n)) for n in ids]
            ok = [bool(t <= c + 1e-12) for t, c in zip(theo, ceiling)]
        tables.append((
            "mse_report.csv", ["node", "empirical_mse_hz2", "theoretical_trace", "bound_ok"],
            [list(ids), mse, theo, ok],
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
    and the directories this call created are removed again.  An empty
    out_dir, one whose last component leaves no room for the temporary
    directory's name, or one that runs through an existing file raises
    :class:`ConfigError` before anything runs.
    """
    if _out_dir(str(out_dir), "out_dir", diags := []) is None:
        raise ConfigError(diags)
    out = Path(out_dir)
    path = [*reversed(out.parents), out]
    if blocked := [str(p) for p in path if os.path.lexists(p) and not p.is_dir()]:
        raise ConfigError([f"out_dir: {str(out)!r} cannot name the output directory:"
                           f" {blocked[0]!r} is not a directory"])
    seed = plan.seed if seed is None else int(seed)
    mc = range(n_seeds) if n_seeds > 1 else ()
    if plan.topology is None:
        tables = _tables(plan, *_run_single(plan, [seed, *([seed, i] for i in mc)]))
    else:
        tables = _tables(plan, *_run_network(plan, [seed, *(seed + i for i in mc)]))
    created = next((p for p in path if not p.exists()), None)
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
                "gridfreq": __version__,
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


# ---------------------------------------------------------------------------
# command line


def _resolve_out_dir(cli_out, plan: RunPlan):
    """An empty --out-dir is kept, for run_plan to reject; an empty $GRIDFREQ_OUT_DIR is unset."""
    if cli_out is not None:
        return cli_out
    env = os.environ.get("GRIDFREQ_OUT_DIR")
    if env:
        return Path(env) / plan.name
    return Path(plan.output_dir or f"{plan.name}_out")


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
