"""Error metrics for recorded runs: empirical MSE, the theoretical mean-error
and error-covariance recursions of the two-stage diffusion protocol, and
spectral diagnostics.

The theoretical recursions consume matrices recorded from an actual run (the
observation matrix of the shared filter is data-dependent), conditioning on
the realized gain sequence.  Notation used throughout: for node m at tick k,
``F_m = M_post @ inv(M_prior)`` is the correction map, ``A_m`` the state
Jacobian, ``K_m`` the Kalman gain.  Aggregator y forms the beta-weighted
average of its closed neighborhood, and every node recombines its serving
aggregators with its gamma row, so the stacked error obeys

    e_agg[y]  = sum_m beta[m,y] (F_m A_m e[m] + F_m u_m - K_m n_m)
    e_node[i] = sum_y gamma[y,i] e_agg[y]

whose second moments are the V / Sigma recursions below.  The one-stage
baseline (every node its own aggregator, empty gamma) runs through the same
code path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .augmented import AugmentedVector
from .estimators import DEFAULT_COND_LIMIT, FreqTrace, _fmt
from .network import DiffusionWeights, TickRecord

__all__ = [
    "AnalysisError",
    "NetworkErrorState",
    "MseReport",
    "SpectrumResult",
    "empirical_mse",
    "empirical_mse_mc",
    "initial_network_state",
    "mean_error_step",
    "mse_step",
    "error_spectrum",
    "write_mse_csv",
    "write_spectrum_csv",
]

class AnalysisError(ValueError):
    pass


#: shortest error window, in samples, that :func:`error_spectrum` accepts
SPECTRUM_MIN_TICKS = 512


# ---------------------------------------------------------------------------
# empirical metrics


@dataclass
class MseReport:
    """Per-node error summary; theory columns stay None until filled in."""

    nodes: tuple
    empirical_mse_hz2: dict
    theoretical_trace: dict | None = None
    bound_ok: dict | None = None


def _check_window(window, n_ticks: int) -> tuple[int, int]:
    start, stop = int(window[0]), int(window[1])
    if start < 0 or stop > n_ticks:
        raise AnalysisError(f"window [{start}, {stop}) outside trace of {n_ticks} ticks")
    if stop <= start:
        raise AnalysisError(f"window [{start}, {stop}) is empty")
    return start, stop


def _true_series(trace: FreqTrace, f_true) -> np.ndarray:
    if f_true is None:
        f_true = trace.f_true_hz
    if f_true is None:
        raise AnalysisError("no true frequency available; pass f_true")
    return np.broadcast_to(np.asarray(f_true, dtype=float), trace.f_hat_hz.shape)


def empirical_mse(traces: Mapping, window, f_true=None) -> MseReport:
    """Mean squared frequency error per node over a half-open tick window."""
    out = {}
    for node, trace in traces.items():
        start, stop = _check_window(window, trace.f_hat_hz.shape[-1])
        err = trace.f_hat_hz[start:stop] - _true_series(trace, f_true)[start:stop]
        out[node] = float(np.mean(err**2))
    return MseReport(nodes=tuple(traces), empirical_mse_hz2=out)


def empirical_mse_mc(mc, window, f_true) -> MseReport:
    """Monte-Carlo variant: averages squared error over seeds and the window.

    ``mc`` is a batched run with ``f_hat_hz`` of shape (seeds, nodes, ticks);
    ``f_true`` broadcasts to (nodes, ticks), so it may be one value, one
    series for every node, or one series per node.
    """
    f_hat = mc.f_hat_hz
    start, stop = _check_window(window, f_hat.shape[-1])
    truth = np.broadcast_to(np.asarray(f_true, dtype=float), f_hat.shape[1:])
    mse = {}
    for j, n in enumerate(mc.node_ids):
        err = f_hat[:, j, start:stop] - truth[j, start:stop]
        mse[n] = float(np.mean(err**2))
    return MseReport(nodes=tuple(mc.node_ids), empirical_mse_hz2=mse)


# ---------------------------------------------------------------------------
# theoretical recursions


@dataclass(frozen=True)
class NetworkErrorState:
    """Stacked second-order error state of the diffused network.

    ``E`` is the post-diffusion error cross-covariance of all nodes (block
    i,j = E[e_i e_j^H]), ``U`` and ``G`` the stacked process- and
    observation-noise covariances (block-diagonal for independent noises).
    ``Gamma``, ``R``, ``Q`` hold the block maps built on the most recent step.
    """

    node_ids: tuple
    aggregator_ids: tuple
    E: np.ndarray
    U: np.ndarray
    G: np.ndarray
    Gamma: np.ndarray | None = None
    R: np.ndarray | None = None
    Q: np.ndarray | None = None
    k: int = 0

    @property
    def block_dim(self) -> int:
        return self.E.shape[0] // len(self.node_ids)

    def sigma(self, node) -> np.ndarray:
        """Error covariance block of one node (its MSE matrix)."""
        i = self.node_ids.index(node)
        d = self.block_dim
        return self.E[i * d : (i + 1) * d, i * d : (i + 1) * d]


def _per_node(spec, node_ids, what: str) -> dict:
    if isinstance(spec, Mapping):
        missing = [n for n in node_ids if n not in spec]
        if missing:
            raise AnalysisError(f"{what} missing for nodes {missing!r}")
        return {n: np.asarray(spec[n], dtype=complex) for n in node_ids}
    arr = np.asarray(spec, dtype=complex)
    return {n: arr for n in node_ids}


def _blockdiag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def initial_network_state(
    node_ids: Sequence,
    weights: DiffusionWeights,
    M0,
    Cu,
    Cn,
) -> NetworkErrorState:
    """Build the tick-0 error state from per-node (or shared) covariances.

    ``M0``, ``Cu``, ``Cn`` may each be a single matrix applied to every node
    or a map node→matrix.  Aggregators are the nodes owning a beta row.
    """
    ids = tuple(node_ids)
    aggregators = tuple(sorted(weights.beta, key=str))
    if not aggregators:
        raise AnalysisError("weights define no aggregation rows")
    unknown = [a for a in aggregators if a not in ids]
    if unknown:
        raise AnalysisError(f"aggregation rows for unknown nodes {unknown!r}")
    for i in ids:
        if i not in weights.beta and i not in weights.gamma:
            raise AnalysisError(f"node {i!r} has neither aggregation nor redistribution row")
    m0 = _per_node(M0, ids, "M0")
    cu = _per_node(Cu, ids, "Cu")
    cn = _per_node(Cn, ids, "Cn")
    d = m0[ids[0]].shape[0]
    for n in ids:
        if m0[n].shape != (d, d) or cu[n].shape != (d, d):
            raise AnalysisError(f"covariance blocks for node {n!r} disagree on dimension")
    return NetworkErrorState(
        node_ids=ids,
        aggregator_ids=aggregators,
        E=_blockdiag([m0[n] for n in ids]),
        U=_blockdiag([cu[n] for n in ids]),
        G=_blockdiag([cn[n] for n in ids]),
    )


def _correction_map(rec: TickRecord, node) -> np.ndarray:
    """F = M_post @ inv(M_prior), the posterior-over-prior correction."""
    if np.linalg.cond(rec.M_prior) > DEFAULT_COND_LIMIT:
        raise AnalysisError(f"singular prior covariance at node {node!r}, tick {rec.k}")
    return rec.M_post @ np.linalg.inv(rec.M_prior)


def _serving_row(i, weights: DiffusionWeights) -> Mapping:
    """gamma row of node i; aggregators redistribute only to themselves."""
    if i in weights.beta and i not in weights.gamma:
        return {i: 1.0}
    return weights.gamma[i]


def mean_error_step(
    prev_means: Mapping,
    weights: DiffusionWeights,
    records: Mapping,
) -> dict:
    """Propagate per-node mean errors through one filter-plus-diffusion round.

    ``prev_means`` maps node→AugmentedVector of the post-diffusion mean error
    at the previous tick; ``records`` maps node→TickRecord for the current
    tick.  Noises are zero-mean, so only the homogeneous term survives:
    the aggregator means are the beta-weighted sums of F_m A_m e_m, and each
    node's new mean is the gamma-weighted sum over its serving aggregators.
    """
    node_ids = tuple(prev_means)
    gain_map = {}
    for m in node_ids:
        rec = records[m]
        gain_map[m] = _correction_map(rec, m) @ rec.A

    agg = {}
    for y in sorted(weights.beta, key=str):
        acc = None
        for m, b in weights.beta[y].items():
            term = b * (gain_map[m] @ prev_means[m].materialize())
            acc = term if acc is None else acc + term
        agg[y] = acc

    out = {}
    for i in node_ids:
        acc = None
        for y, g in _serving_row(i, weights).items():
            term = g * agg[y]
            acc = term if acc is None else acc + term
        n = acc.shape[0] // 2
        out[i] = AugmentedVector(acc[:n])
    return out


def mse_step(
    state: NetworkErrorState,
    weights: DiffusionWeights,
    records: Mapping,
) -> tuple[dict, dict, NetworkErrorState]:
    """One step of the stacked error-covariance recursion.

    Returns ``(V, sigma, next_state)`` where ``V[(y, z)]`` is the
    cross-covariance between aggregator outputs (its diagonal blocks are the
    one-stage baseline MSE of each aggregator) and ``sigma[i]`` is node i's
    post-diffusion error covariance, the gamma-weighted double sum over its
    serving aggregators.
    """
    ids = state.node_ids
    aggs = state.aggregator_ids
    d = state.block_dim
    n_nodes = len(ids)
    pos = {n: j for j, n in enumerate(ids)}

    d_obs = state.G.shape[0] // n_nodes
    Gamma = np.zeros((len(aggs) * d, n_nodes * d), dtype=complex)
    R = np.zeros_like(Gamma)
    Q = np.zeros((len(aggs) * d, n_nodes * d_obs), dtype=complex)
    for a, y in enumerate(aggs):
        for m, b in weights.beta[y].items():
            rec = records[m]
            if rec.M_post.shape != (d, d):
                raise AnalysisError(
                    f"recorded covariance for node {m!r} is {rec.M_post.shape}, expected {(d, d)}"
                )
            F = _correction_map(rec, m)
            j = pos[m]
            Gamma[a * d : (a + 1) * d, j * d : (j + 1) * d] = b * (F @ rec.A)
            R[a * d : (a + 1) * d, j * d : (j + 1) * d] = b * F
            Q[a * d : (a + 1) * d, j * d_obs : (j + 1) * d_obs] = b * rec.gain

    V_full = Gamma @ state.E @ Gamma.conj().T + R @ state.U @ R.conj().T + Q @ state.G @ Q.conj().T
    V_full = 0.5 * (V_full + V_full.conj().T)

    W = np.zeros((n_nodes * d, len(aggs) * d), dtype=complex)
    apos = {y: a for a, y in enumerate(aggs)}
    for i in ids:
        for y, g in _serving_row(i, weights).items():
            a = apos[y]
            W[pos[i] * d : (pos[i] + 1) * d, a * d : (a + 1) * d] = g * np.eye(d)
    E_next = W @ V_full @ W.conj().T
    E_next = 0.5 * (E_next + E_next.conj().T)

    V = {
        (y, z): V_full[ay * d : (ay + 1) * d, az * d : (az + 1) * d]
        for ay, y in enumerate(aggs)
        for az, z in enumerate(aggs)
    }
    next_state = NetworkErrorState(
        node_ids=ids, aggregator_ids=aggs, E=E_next, U=state.U, G=state.G,
        Gamma=Gamma, R=R, Q=Q, k=state.k + 1,
    )
    sigma = {i: next_state.sigma(i) for i in ids}
    return V, sigma, next_state


# ---------------------------------------------------------------------------
# spectral diagnostics


@dataclass
class SpectrumResult:
    """DFT magnitude of the detrended frequency error over a window."""

    freq_hz: np.ndarray
    power: np.ndarray
    peak_freq_hz: float
    peak_power: float


def error_spectrum(trace: FreqTrace, window, f_true=None) -> SpectrumResult:
    """Locate the dominant oscillation in a trace's steady-state error.

    The windowed error is linearly detrended (removing residual lag drift) and
    transformed with a plain rectangular DFT; the largest non-DC magnitude bin
    is reported.  The window must cover at least 512 samples for a usable
    frequency resolution.
    """
    start, stop = _check_window(window, trace.f_hat_hz.shape[-1])
    if stop - start < SPECTRUM_MIN_TICKS:
        raise AnalysisError(f"window [{start}, {stop}) shorter than {SPECTRUM_MIN_TICKS} samples")
    err = trace.f_hat_hz[start:stop] - _true_series(trace, f_true)[start:stop]
    t = np.arange(err.size, dtype=float)
    slope, intercept = np.polyfit(t, err, 1)
    detrended = err - (slope * t + intercept)

    fs = 1.0 / float(trace.t_s[1] - trace.t_s[0])
    power = np.abs(np.fft.rfft(detrended))
    freq = np.fft.rfftfreq(err.size, d=1.0 / fs)
    peak = 1 + int(np.argmax(power[1:]))
    return SpectrumResult(
        freq_hz=freq,
        power=power,
        peak_freq_hz=float(freq[peak]),
        peak_power=float(power[peak]),
    )


# ---------------------------------------------------------------------------
# CSV export


def write_mse_csv(path, report: MseReport) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "empirical_mse_hz2", "theoretical_trace", "bound_ok"])
        for n in report.nodes:
            theo = report.theoretical_trace.get(n) if report.theoretical_trace else None
            ok = report.bound_ok.get(n) if report.bound_ok else None
            w.writerow(
                [
                    n,
                    _fmt(report.empirical_mse_hz2[n]),
                    "" if theo is None else _fmt(theo),
                    "" if ok is None else ok,
                ]
            )


def write_spectrum_csv(path, spectrum: SpectrumResult) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["freq_hz", "power"])
        for f, p in zip(spectrum.freq_hz, spectrum.power):
            w.writerow([_fmt(f), _fmt(p)])
