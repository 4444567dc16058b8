"""Error metrics for recorded runs: empirical MSE, the theoretical
error-covariance recursion of the two-stage diffusion protocol, and spectral
diagnostics.

The theoretical recursion conditions on the realized gain sequence (the
observation matrix of the shared filter is data-dependent), so the network
loop hands each tick's filter step to ``_TheoryBlock``, which steps it over
blocks of ticks.  Notation used throughout, all in augmented form: for node
m at tick k, ``A_m`` is the state Jacobian, ``K_m`` the Kalman gain, ``H_m``
the observation matrix and ``F_m = I - K_m H_m`` the correction map.
Aggregator y forms the beta-weighted average of its closed neighborhood,
and every node recombines its serving aggregators with its gamma row, so
the stacked error obeys

    e_agg[y]  = sum_m beta[y,m] (F_m A_m e[m] + F_m u_m - K_m n_m)
    e_node[i] = sum_y gamma[i,y] e_agg[y]

With independent, block-diagonal noises the second moments are

    V[y,z]  = sum_{m,m'} beta[y,m] beta[z,m'] F_m A_m E[m,m'] (F_m' A_m')^H
              + sum_m beta[y,m] beta[z,m] (F_m Cu_m F_m^H + K_m Cn_m K_m^H)_m
    E'[i,j] = sum_{y,z} gamma[i,y] gamma[j,z] V[y,z]

Since E' = W V W^T with W = gamma acting on stacked blocks, the recursion
closes over V alone after its first tick: V' = G V G^H + N with G = beta F
A W, a (Y d)-square map for Y aggregators and d-dim blocks.

For a single node this is the Joseph form (I - K H) M_prior (I - K H)^H +
K Cn K^H of the covariance update, which equals the filter's own M_post for
the optimal gain.  The one-stage baseline (every node its own aggregator,
gamma the identity) runs through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .estimators import FreqTrace, _Stepped

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

    ``beta`` (aggregators x nodes) and ``gamma`` (nodes x aggregators) hold
    the weights of the two diffusion stages.  ``Cu`` and ``Cn`` are the full
    augmented process- and observation-noise covariances that every node
    shares.
    ``V`` is the aggregator cross-covariance after the most recent tick
    (None before the first), the one matrix :func:`mse_block` steps.  ``E``
    is the post-diffusion error cross-covariance of all nodes (block i,j =
    E[e_i e_j^H]): ``E0`` before the first tick, and after it ``W V W^T``
    with ``W`` gamma acting on stacked blocks, symmetrised and formed when
    first read.
    """

    node_ids: tuple
    aggregator_ids: tuple
    beta: np.ndarray
    gamma: np.ndarray
    E0: np.ndarray
    Cu: np.ndarray
    Cn: np.ndarray
    V: np.ndarray | None = None

    @property
    def block_dim(self) -> int:
        return len(self.Cu)

    @cached_property
    def E(self) -> np.ndarray:
        if self.V is None:
            return self.E0
        W = np.kron(self.gamma, np.eye(self.block_dim))
        E = W @ self.V @ W.T
        return 0.5 * (E + _hconj(E))

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
    ``Cu`` and ``Cn`` are each one top block row ``[B11 B12]``, as the
    filter holds them, shared by every node; the state holds their full
    augmented matrices.
    """
    ids = tuple(node_ids)
    return NetworkErrorState(
        node_ids=ids, aggregator_ids=tuple(aggregator_ids),
        beta=np.asarray(beta, dtype=float), gamma=np.asarray(gamma, dtype=float),
        E0=np.kron(np.eye(len(ids)), _full(M0)), Cu=_full(Cu), Cn=_full(Cn),
    )


def _full(top) -> np.ndarray:
    """The augmented matrix ``[[B11, B12], [conj(B12), conj(B11)]]`` of its top block row."""
    top = np.asarray(top, dtype=complex)
    c = top.shape[-1] // 2
    return np.concatenate([top, np.conj(np.concatenate([top[..., c:], top[..., :c]], -1))], -2)


def _hconj(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conj()


def _stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over a stack of small matrices ``a``.

    numpy's matmul pays a call per matrix of a stack.  Against one matrix
    ``b`` this is one product of ``a``'s rows; against a stack, a sum of
    broadcast products over the inner index.
    """
    if b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    out = a[..., :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., j : j + 1] * b[..., j : j + 1, :]
    return out


def mse_block(
    state: NetworkErrorState, gain: np.ndarray, H: tuple, A: tuple
) -> tuple[NetworkErrorState, np.ndarray]:
    """Step the stacked error-covariance recursion over a block of ticks.

    ``gain`` holds each tick's node gains as their top block rows ``[k11
    k12]``, (ticks, nodes, n, 2).  ``H`` and ``A`` are the observation and
    Jacobian terms, ``(column, value)`` and ``(row, column, value)``, each
    value a (ticks, nodes) array or a scalar that holds throughout.  With
    ticks as a batch axis, the block's maps are built at once: K, F = I - K
    H, Phi = F A and each node's noise F Cu F^H + K Cn K^H.  Only the
    aggregator covariance is then stepped, tick by tick,

        V_t = G_t V_{t-1} G_t^H + N_t,   G_t = g_t W,

    where g_t is the aggregation map beta Phi and N_t the aggregated noise
    (E_{t-1} = W V_{t-1} W^T, so g_t E_{t-1} g_t^H is G_t V_{t-1} G_t^H).
    The first tick of a run, with no V yet, maps the node errors instead:
    g_1 E0 g_1^H.  Each V is symmetrised.  Returns the state after the
    block's last tick and the block's V trajectory, (ticks, Y d, Y d) for Y
    aggregators.
    """
    n_nodes, n_aggs, d = len(state.node_ids), len(state.aggregator_ids), state.block_dim
    ticks, _, n, _ = gain.shape
    if 2 * n != d:
        raise AnalysisError(f"diagnostics carry {2 * n}-dim states, expected {d}")
    # K = [[k11, k12], [conj(k12), conj(k11)]]; H's second row is conj(h) with its halves swapped
    k = np.empty((ticks, n_nodes, d, 2), dtype=complex)
    k[..., :n, :], k[..., n:, :] = gain, np.conj(gain[..., ::-1])
    h = np.zeros((ticks, n_nodes, 2, d), dtype=complex)
    for c, v in H:
        h[..., 0, c] += v
        h[..., 1, (c + n) % d] += np.conj(v)
    f = np.eye(d) - _stack_matmul(k, h)
    # F A_full: A_full[r, c] = v and A_full[n + r, c -/+ n] = conj(v) for each term (r, c, v)
    phi = np.zeros_like(f)
    for r, c, v in A:
        v = np.reshape(v, np.shape(v) + (1,))
        phi[..., c] += f[..., r] * v
        phi[..., (c + n) % d] += f[..., n + r] * np.conj(v)

    def blocks(weights, per_node):
        # sum over nodes m of weights[y, z, m] per_node[m], as the (Y d, Y d) block matrix
        out = weights.reshape(n_aggs * n_aggs, n_nodes) @ per_node.reshape(ticks, n_nodes, d * d)
        out = out.reshape(ticks, n_aggs, n_aggs, d, d).swapaxes(2, 3)
        return out.reshape(ticks, n_aggs * d, n_aggs * d)

    beta = state.beta
    G = blocks(beta[:, None, :] * state.gamma.T[None], phi)
    noise = _stack_matmul(_stack_matmul(f, state.Cu), _hconj(f))
    noise += _stack_matmul(_stack_matmul(k, state.Cn), _hconj(k))
    noise = blocks(beta[:, None, :] * beta[None], noise)
    Vs = np.empty_like(G)
    V = state.V
    for G_t, Gh_t, N_t, V_t in zip(G, _hconj(G), noise, Vs):
        if V is None:
            # row (y, i), column (m, j) of g_1: beta[y, m] Phi_m[i, j]
            g = beta[:, None, :, None] * phi[0].swapaxes(0, 1)[None]
            g = g.reshape(n_aggs * d, n_nodes * d)
            V = g @ state.E0 @ _hconj(g)
        else:
            V = G_t @ V @ Gh_t
        V += N_t
        np.add(V, _hconj(V), out=V_t)
        V_t *= 0.5
        V = V_t
    return replace(state, V=V.copy()), Vs


#: ticks of seed row 0's diagnostics that the error recursion buffers per block step
_THEORY_BLOCK_TICKS = 128
#: bytes that a block's (ticks, Y d, Y d) aggregator maps may take; wider maps get shorter blocks
_THEORY_BLOCK_BYTES = 1 << 20


class _TheoryBlock:
    """The error recursion of a network run, fed seed row 0's step one tick at a time.

    :meth:`record` writes seed row 0's values, its first ``len(state.node_ids)`` rows, into row
    ``t`` of block arrays laid out on the first step: the gain top block rows (ticks, nodes, n,
    2) and a (ticks, nodes) array per array-valued term; a scalar term is kept as it is.  Once
    ``ticks`` rows are filled, and in :meth:`finish`, one :func:`mse_block` call steps ``state``.
    """

    def __init__(self, state: NetworkErrorState):
        self.state, self.t, self.gain = state, 0, None
        width = len(state.aggregator_ids) * state.block_dim
        self.ticks = max(1, min(_THEORY_BLOCK_TICKS, _THEORY_BLOCK_BYTES // (16 * width**2)))

    def record(self, out: _Stepped) -> None:
        """Write seed row 0's part of a tick's step into the block arrays."""
        n, t, terms = len(self.state.node_ids), self.t, out.H + out.A
        if self.gain is None:
            self.gain = np.empty((self.ticks, n) + out.k.shape[:2], out.k.dtype)
            self.n_h, self.terms = len(out.H), [(*u[:-1], np.empty((self.ticks, n), u[-1].dtype))
                                                if np.ndim(u[-1]) else u for u in terms]
            self.slots = [(j, u[-1]) for j, u in enumerate(self.terms) if np.ndim(u[-1])]
        self.gain[t] = out.k[..., :n].transpose(2, 0, 1)
        for j, buf in self.slots:
            buf[t] = terms[j][-1][:n]
        self.t = t + 1
        if self.t == self.ticks:
            self.finish()

    def finish(self) -> NetworkErrorState:
        """The state after every recorded tick: one :func:`mse_block` call on the filled rows."""
        if t := self.t:
            cut = [(*u[:-1], u[-1][:t]) if np.ndim(u[-1]) else u for u in self.terms]
            self.state, _ = mse_block(self.state, self.gain[:t], cut[:self.n_h], cut[self.n_h:])
            self.t = 0
        return self.state


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
