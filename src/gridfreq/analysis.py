"""Error metrics for recorded runs: empirical MSE, the theoretical
error-covariance recursion of the two-stage diffusion protocol, and spectral
diagnostics.

The theoretical recursion conditions on the realized gain sequence (the
observation matrix of the shared filter is data-dependent), so the network
loop steps it online from each tick's filter diagnostics.  Notation used
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
from typing import Sequence

import numpy as np

from .estimators import FreqTrace, StepDiagnostics

__all__ = [
    "AnalysisError",
    "NetworkErrorState",
    "SpectrumResult",
    "empirical_mse",
    "error_spectrum",
]

class AnalysisError(ValueError):
    pass


#: shortest error window, in samples, that :func:`error_spectrum` accepts
SPECTRUM_MIN_TICKS = 512


# ---------------------------------------------------------------------------
# empirical metrics


def _check_window(window, n_ticks: int) -> tuple[int, int]:
    start, stop = int(window[0]), int(window[1])
    if start < 0 or stop > n_ticks:
        raise AnalysisError(f"window [{start}, {stop}) outside trace of {n_ticks} ticks")
    if stop <= start:
        raise AnalysisError(f"window [{start}, {stop}) is empty")
    return start, stop


def empirical_mse(f_hat: np.ndarray, f_true: np.ndarray, window) -> np.ndarray:
    """Mean squared frequency error per node, over the seeds and a half-open tick window.

    ``f_hat`` is shaped (seeds, nodes, ticks) and ``f_true`` (nodes, ticks),
    as in a :func:`~gridfreq.network.run_distributed` result.  Each node
    takes its own mean, so its value does not depend on the other nodes.
    """
    start, stop = _check_window(window, f_hat.shape[-1])
    return np.array([
        np.mean((f_hat[:, j, start:stop] - f_true[j, start:stop]) ** 2)
        for j in range(f_hat.shape[1])
    ])


# ---------------------------------------------------------------------------
# theoretical recursions


@dataclass(frozen=True)
class NetworkErrorState:
    """Stacked second-order error state of the diffused network.

    ``E`` is the post-diffusion error cross-covariance of all nodes (block
    i,j = E[e_i e_j^H]).  ``beta`` (aggregators x nodes) and ``gamma``
    (nodes x aggregators) hold the weights of the two diffusion stages, and
    ``W`` is gamma acting on stacked blocks.  ``Cu`` and ``Cn`` are the
    process- and observation-noise covariances that every node shares.
    ``V`` is the aggregator cross-covariance of the most recent step (None
    before the first).
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


def initial_network_state(
    node_ids: Sequence,
    aggregator_ids: Sequence,
    beta,
    gamma,
    M0,
    Cu,
    Cn,
) -> NetworkErrorState:
    """Tick-0 state: independent node errors, each with covariance ``M0``.

    ``beta`` (aggregators x nodes) and ``gamma`` (nodes x aggregators) are
    the diffusion stages as ``network._mixing`` resolves them.  ``M0``,
    ``Cu`` and ``Cn`` are one matrix each, shared by every node.
    """
    ids = tuple(node_ids)
    gamma = np.asarray(gamma, dtype=float)
    d = len(M0)
    return NetworkErrorState(
        node_ids=ids, aggregator_ids=tuple(aggregator_ids),
        beta=np.asarray(beta, dtype=float), gamma=gamma, W=np.kron(gamma, np.eye(d)),
        E=np.kron(np.eye(len(ids)), np.asarray(M0, dtype=complex)),
        Cu=np.asarray(Cu, dtype=complex), Cn=np.asarray(Cn, dtype=complex),
    )


def _hconj(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conj()


def _seed_row0(a, n_nodes: int):
    """Seed row 0 of a batch value shaped (seeds, nodes): its first ``n_nodes``
    entries in C order.  A scalar stays a scalar."""
    return a.reshape(-1)[:n_nodes] if isinstance(a, np.ndarray) else a


def _aggregation_map(state: NetworkErrorState, diag: StepDiagnostics):
    """One tick's aggregation map beta·F A over the stacked node errors.

    Returns the (aggregators·d, nodes·d) map plus the per-node correction
    maps F = I - K H and gains K, stacked over nodes.  Only seed row 0 of
    the diagnostics is read.  K is built from its block pair and H from its
    terms; F A sums F's columns over A's terms (for the identity, F A = F).
    """
    n_nodes, d = len(state.node_ids), state.block_dim
    n = diag.gain.block11.shape[-2]
    k11, k12 = (b.reshape(-1, n)[:n_nodes] for b in (diag.gain.block11, diag.gain.block12))
    if 2 * n != d:
        raise AnalysisError(f"diagnostics carry {2 * n}-dim states, expected {d}")
    # K = [[k11, k12], [conj(k12), conj(k11)]]; H's second row is conj(h) with its halves swapped
    k = np.empty((n_nodes, d, 2), dtype=complex)
    k[:, :n, 0], k[:, n:, 0], k[:, :n, 1], k[:, n:, 1] = k11, np.conj(k12), k12, np.conj(k11)
    h = np.zeros((n_nodes, 2, d), dtype=complex)
    for c, v in diag.H:
        v = _seed_row0(v, n_nodes)
        h[:, 0, c] += v
        h[:, 1, (c + n) % d] += np.conj(v)
    f = np.eye(d) - k @ h
    # F A_full: A_full[r, c] = v and A_full[n + r, c -/+ n] = conj(v) for each term (r, c, v)
    phi = np.zeros_like(f)
    for r, c, v in diag.A:
        v = np.reshape(_seed_row0(v, n_nodes), (-1, 1))
        phi[..., c] += f[..., r] * v
        phi[..., (c + n) % d] += f[..., n + r] * np.conj(v)
    # row (y, i), column (m, j): beta[y, m] (F A)_m[i, j]
    g = state.beta[:, None, :, None] * phi.swapaxes(0, 1)[None]
    return g.reshape(len(state.aggregator_ids) * d, n_nodes * d), f, k


def mse_step(state: NetworkErrorState, diag: StepDiagnostics) -> NetworkErrorState:
    """One step of the stacked error-covariance recursion.

    ``diag`` is the current tick's filter diagnostics, stacked over the
    nodes of ``state`` (of a seed batch, row 0 is read).  Returns the next
    state; its ``V`` holds the aggregator cross-covariances of this step and
    its ``E`` the post-diffusion node errors.
    """
    g, f, k = _aggregation_map(state, diag)
    n_nodes, n_aggs, d = len(state.node_ids), len(state.aggregator_ids), state.block_dim
    noise = f @ state.Cu @ _hconj(f) + k @ state.Cn @ _hconj(k)
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


def error_spectrum(trace: FreqTrace, window) -> SpectrumResult:
    """Locate the dominant oscillation in a trace's steady-state error.

    The windowed error against the trace's ``f_true_hz`` is linearly
    detrended (removing residual lag drift) and transformed with a plain
    rectangular DFT; the largest non-DC magnitude bin is reported.  The
    window must cover at least 512 samples for a usable frequency
    resolution.
    """
    start, stop = _check_window(window, trace.f_hat_hz.shape[-1])
    if stop - start < SPECTRUM_MIN_TICKS:
        raise AnalysisError(f"window [{start}, {stop}) shorter than {SPECTRUM_MIN_TICKS} samples")
    if trace.f_true_hz is None:
        raise AnalysisError("trace has no true frequency; pass f_true to run_filter")
    err = trace.f_hat_hz[start:stop] - trace.f_true_hz[start:stop]
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
