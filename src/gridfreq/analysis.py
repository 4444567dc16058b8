"""Error metrics for recorded runs: empirical MSE, the theoretical mean-error
and error-covariance recursions of the two-stage diffusion protocol, and
spectral diagnostics.

The theoretical recursions condition on the realized gain sequence (the
observation matrix of the shared filter is data-dependent), so the network
loop steps them online from each tick's filter diagnostics.  Notation used
throughout, all in augmented form: for node m at tick k, ``A_m`` is the
state Jacobian, ``K_m`` the Kalman gain, ``H_m`` the observation matrix and
``F_m = I - K_m H_m`` the correction map.  Aggregator y forms the
beta-weighted average of its closed neighborhood, and every node recombines
its serving aggregators with its gamma row, so the stacked error obeys

    e_agg[y]  = sum_m beta[y,m] (F_m A_m e[m] + F_m u_m - K_m n_m)
    e_node[i] = sum_y gamma[i,y] e_agg[y]

With independent, block-diagonal noises the second moments are

    V[y,z]  = sum_{m,m'} beta[y,m] beta[z,m'] F_m A_m E[m,m'] (F_m' A_m')^H
              + sum_m beta[y,m] beta[z,m] (F_m Cu_m F_m^H + K_m Cn_m K_m^H)_m
    E'[i,j] = sum_{y,z} gamma[i,y] gamma[j,z] V[y,z]

For a single node this is the Joseph form (I - K H) M_prior (I - K H)^H +
K Cn K^H of the covariance update, which equals the filter's own M_post for
the optimal gain.  The one-stage baseline (every node its own aggregator,
gamma the identity) runs through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .augmented import AugmentedVector
from .estimators import FreqTrace, StepDiagnostics

__all__ = [
    "AnalysisError",
    "NetworkErrorState",
    "MseReport",
    "SpectrumResult",
    "empirical_mse",
    "initial_network_state",
    "mean_error_step",
    "mse_step",
    "error_spectrum",
]

class AnalysisError(ValueError):
    pass


#: shortest error window, in samples, that :func:`error_spectrum` accepts
SPECTRUM_MIN_TICKS = 512


# ---------------------------------------------------------------------------
# empirical metrics


@dataclass
class MseReport:
    """Per-node empirical mean squared frequency error."""

    nodes: tuple
    empirical_mse_hz2: dict


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


def empirical_mse(run, window, f_true=None) -> MseReport:
    """Mean squared frequency error per node, over the seeds and a half-open tick window.

    ``run`` is a :func:`~gridfreq.network.run_distributed` result, with
    ``f_hat_hz`` shaped (seeds, nodes, ticks).  ``f_true`` defaults to the
    run's ``f_true_hz`` and broadcasts to (nodes, ticks), so it may be one
    value, one series for every node, or one series per node.
    """
    f_hat = run.f_hat_hz
    start, stop = _check_window(window, f_hat.shape[-1])
    if f_true is None:
        f_true = run.f_true_hz
    truth = np.broadcast_to(np.asarray(f_true, dtype=float), f_hat.shape[1:])
    mse = {}
    for j, n in enumerate(run.node_ids):
        err = f_hat[:, j, start:stop] - truth[j, start:stop]
        mse[n] = float(np.mean(err**2))
    return MseReport(nodes=tuple(run.node_ids), empirical_mse_hz2=mse)


# ---------------------------------------------------------------------------
# theoretical recursions


@dataclass(frozen=True)
class NetworkErrorState:
    """Stacked second-order error state of the diffused network.

    ``E`` is the post-diffusion error cross-covariance of all nodes (block
    i,j = E[e_i e_j^H]).  ``beta`` (aggregators x nodes) and ``gamma``
    (nodes x aggregators) hold the weights of the two diffusion stages, and
    ``W`` is gamma acting on stacked blocks.  ``Cu`` and ``Cn`` stack each
    node's process- and observation-noise covariance.  ``V`` is the
    aggregator cross-covariance of the most recent step (None before the
    first).
    """

    node_ids: tuple
    aggregator_ids: tuple
    beta: np.ndarray
    gamma: np.ndarray
    W: np.ndarray
    E: np.ndarray
    Cu: np.ndarray
    Cn: np.ndarray
    V: np.ndarray | None = None

    @property
    def block_dim(self) -> int:
        return self.E.shape[0] // len(self.node_ids)

    def sigma(self, node) -> np.ndarray:
        """Error covariance block of one node (its MSE matrix)."""
        i = self.node_ids.index(node)
        d = self.block_dim
        return self.E[i * d : (i + 1) * d, i * d : (i + 1) * d]

    def v(self, y, z) -> np.ndarray:
        """Cross-covariance block of aggregators y and z; V[y, y] is y's one-stage MSE."""
        a, b = self.aggregator_ids.index(y), self.aggregator_ids.index(z)
        d = self.block_dim
        return self.V[a * d : (a + 1) * d, b * d : (b + 1) * d]

    def serving(self, node) -> tuple:
        """Aggregators whose output reaches ``node`` with nonzero weight."""
        row = self.gamma[self.node_ids.index(node)]
        return tuple(y for y, g in zip(self.aggregator_ids, row) if g != 0)


def _node_blocks(a, n_nodes: int | None = None) -> np.ndarray:
    """A matrix, or one seed's per-node matrices, stacked as (nodes, r, c)."""
    a = np.asarray(a, dtype=complex)
    a = a.reshape((-1,) + a.shape[-2:])
    return a if n_nodes is None else np.broadcast_to(a, (n_nodes,) + a.shape[-2:])


def initial_network_state(
    node_ids: Sequence,
    aggregator_ids: Sequence,
    beta,
    gamma,
    M0,
    Cu,
    Cn,
) -> NetworkErrorState:
    """Tick-0 state: independent node errors with covariances ``M0``.

    ``beta`` (aggregators x nodes) and ``gamma`` (nodes x aggregators) are
    the diffusion stages, as the network loop builds them from its weights.
    ``M0``, ``Cu`` and ``Cn`` are each one matrix for every node or a
    (nodes, d, d) stack.
    """
    ids, aggs = tuple(node_ids), tuple(aggregator_ids)
    beta, gamma = np.real(beta).astype(float), np.real(gamma).astype(float)
    if beta.shape != (len(aggs), len(ids)) or gamma.shape != (len(ids), len(aggs)):
        raise AnalysisError(
            f"stage shapes {beta.shape} and {gamma.shape} do not match"
            f" {len(aggs)} aggregators and {len(ids)} nodes"
        )
    unknown = [a for a in aggs if a not in ids]
    if unknown:
        raise AnalysisError(f"aggregation rows for unknown nodes {unknown!r}")
    for i, row in zip(ids, gamma):
        if not row.any():
            raise AnalysisError(f"node {i!r} has neither aggregation nor redistribution row")
    m0, cu = _node_blocks(M0, len(ids)), _node_blocks(Cu, len(ids))
    d = m0.shape[-1]
    if m0.shape[-2] != d or cu.shape[-2:] != (d, d):
        raise AnalysisError("covariance blocks disagree on dimension")
    E = np.zeros((len(ids), d, len(ids), d), dtype=complex)
    E[np.arange(len(ids)), :, np.arange(len(ids)), :] = m0
    return NetworkErrorState(
        node_ids=ids, aggregator_ids=aggs, beta=beta, gamma=gamma,
        W=np.kron(gamma, np.eye(d)), E=E.reshape(len(ids) * d, -1),
        Cu=cu, Cn=_node_blocks(Cn, len(ids)),
    )


def _hconj(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conj()


def _aggregation_map(state: NetworkErrorState, diag: StepDiagnostics):
    """One tick's aggregation map beta·F A over the stacked node errors.

    Returns the (aggregators·d, nodes·d) map plus the per-node correction
    maps F = I - K H and gains K, materialized and stacked over nodes.
    """
    n_nodes, d = len(state.node_ids), state.block_dim
    k, h, a = (_node_blocks(m.materialize()) for m in (diag.gain, diag.H, diag.A))
    if a.shape[-1] != d:
        raise AnalysisError(f"diagnostics carry {a.shape[-1]}-dim states, expected {d}")
    f = np.eye(d) - k @ h
    phi = np.broadcast_to(f @ a, (n_nodes, d, d))
    # row (y, i), column (m, j): beta[y, m] (F A)_m[i, j]
    g = state.beta[:, None, :, None] * phi.swapaxes(0, 1)[None]
    return g.reshape(len(state.aggregator_ids) * d, n_nodes * d), f, k


def mean_error_step(
    prev_means: Mapping,
    state: NetworkErrorState,
    diag: StepDiagnostics,
) -> dict:
    """Propagate per-node mean errors through one filter-plus-diffusion round.

    ``prev_means`` maps node→AugmentedVector of the post-diffusion mean error
    at the previous tick; ``diag`` is the current tick's filter diagnostics
    for one seed, stacked over the nodes of ``state``.  Noises are zero-mean,
    so only the homogeneous term of the :func:`mse_step` map survives.
    """
    g, _, _ = _aggregation_map(state, diag)
    e = np.concatenate([prev_means[n].materialize() for n in state.node_ids])
    out = (state.W @ (g @ e)).reshape(len(state.node_ids), -1)
    half = out.shape[1] // 2
    return {n: AugmentedVector(row[:half]) for n, row in zip(state.node_ids, out)}


def mse_step(state: NetworkErrorState, diag: StepDiagnostics) -> NetworkErrorState:
    """One step of the stacked error-covariance recursion.

    ``diag`` is the current tick's filter diagnostics for one seed, stacked
    over the nodes of ``state``.  Returns the next state; its ``V`` holds the
    aggregator cross-covariances of this step and its ``E`` the
    post-diffusion node errors.
    """
    g, f, k = _aggregation_map(state, diag)
    n_nodes, n_aggs, d = len(state.node_ids), len(state.aggregator_ids), state.block_dim
    noise = np.broadcast_to(f @ state.Cu @ _hconj(f) + k @ state.Cn @ _hconj(k), (n_nodes, d, d))
    pairs = (state.beta[:, None, :] * state.beta[None, :, :]).reshape(n_aggs * n_aggs, n_nodes)
    noise = (pairs @ noise.reshape(n_nodes, d * d)).reshape(n_aggs, n_aggs, d, d)
    V = g @ state.E @ _hconj(g) + noise.swapaxes(1, 2).reshape(n_aggs * d, n_aggs * d)
    V = 0.5 * (V + _hconj(V))
    E = state.W @ V @ state.W.T
    E = 0.5 * (E + _hconj(E))
    return replace(state, E=E, V=V)


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
