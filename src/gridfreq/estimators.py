"""Frequency trackers built on an augmented complex extended Kalman filter.

Three single-node state-space models share one filter engine:

* ``lss_model`` - strictly linear model of the Clarke voltage; optimal for
  balanced (circular) signals but biased under voltage sags.
* ``wlss_model`` - widely linear autoregression ``v_k = h v_{k-1} +
  g conj(v_{k-1})``; handles unbalanced signals, frequency read through an
  arcsin of the filter weights.
* ``nss_model`` - states for the phase increment and both rotating sequence
  voltages; frequency read directly off the increment state.

All models run through one engine step, ``_step``, which performs one
predict/correct cycle on the augmented state [x; conj(x)].  The state is held
as its top half x, and every covariance, Jacobian and gain as the block pair
of an :class:`AugmentedMatrix`, so the conjugate block structure holds by
construction.  States, covariances and observations may carry leading batch
dimensions, which is how :func:`run_filter` steps every seed at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .augmented import AugmentedMatrix, AugmentedVector

#: frequency read from a zero phase-increment state (undefined angle)
FLAG_ZERO_INCREMENT = 1
#: widely-linear radicand Im(h)^2 - |g|^2 was negative and clamped to zero
FLAG_SEQUENCE_DOMINANCE = 2
#: Im(h) < 0: the arcsin branch cannot represent a negative frequency
FLAG_NEGATIVE_IM_H = 4
#: arcsin argument left [-1, 1] and was clipped (transient divergence)
FLAG_ARCSIN_CLIPPED = 8

FLAG_NAMES = {
    FLAG_ZERO_INCREMENT: "zero_increment",
    FLAG_SEQUENCE_DOMINANCE: "sequence_dominance",
    FLAG_NEGATIVE_IM_H: "negative_im_h",
    FLAG_ARCSIN_CLIPPED: "arcsin_clipped",
}

DEFAULT_COND_LIMIT = 1e12

#: observation-noise variance used when no SNR is configured (numerical floor)
_NOISELESS_CN = 1.5e-10

#: process-noise variances: phase-increment-like states and voltage states
_CU_INCREMENT = 1e-6
_CU_VOLTAGE = 1e-4


class FilterDegenerateError(RuntimeError):
    """Innovation covariance became numerically singular."""


@dataclass(frozen=True)
class FilterState:
    """Posterior state estimate and covariance after tick ``k``."""

    x_hat: AugmentedVector
    M: AugmentedMatrix
    k: int = 0


@dataclass(frozen=True)
class StateSpaceModel:
    """Bundle of model functions consumed by the engine step ``_step``.

    The functions take top halves x of shape (..., n).  ``f_a`` returns the
    predicted top half.  ``jacobian_A`` returns the Wirtinger derivatives of
    ``f_a`` as the block pair (df/dx, df/dconj(x)).  ``observe_H`` maps a
    state to its one complex observation as 1 x n blocks (None until
    :func:`with_sequence_observation` binds one).  ``extract_freq`` reads the
    frequency and flags off a top half.
    """

    name: str
    f_a: Callable[[np.ndarray], np.ndarray]
    jacobian_A: Callable[[np.ndarray], AugmentedMatrix]
    observe_H: AugmentedMatrix | None
    extract_freq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    Cu: AugmentedMatrix
    Cn: AugmentedMatrix
    initial_state: Callable[..., FilterState]


@dataclass
class StepDiagnostics:
    """Per-step internals recorded for diffusion analysis."""

    innovation: AugmentedVector
    H: AugmentedMatrix
    gain: AugmentedMatrix
    M_prior: AugmentedMatrix
    M_post: AugmentedMatrix
    A: AugmentedMatrix


def _step(
    model: StateSpaceModel,
    state: FilterState,
    y: AugmentedVector,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> tuple[FilterState, StepDiagnostics]:
    """One predict/correct cycle; returns the new state plus diagnostics."""
    h = model.observe_H
    if h is None:
        raise RuntimeError(
            f"model {model.name!r} needs an observation matrix; wrap it with"
            " with_sequence_observation(model, v_plus, v_minus) first"
        )
    x_pred = AugmentedVector(model.f_a(state.x_hat.top))
    a = model.jacobian_A(state.x_hat.top)
    m_prior = a @ state.M @ a.H + model.Cu

    hm = h @ m_prior
    s = hm @ h.H + model.Cn
    # S = [[s11, s12], [conj(s12), s11]] has eigenvalues s11 -/+ |s12|
    s11, s12 = s.block11.real, s.block12
    lo, hi = s11 - np.abs(s12), s11 + np.abs(s12)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lo > 0, hi / np.where(lo > 0, lo, 1.0), np.inf)
    if np.any(~np.isfinite(cond)) or np.any(cond > cond_limit):
        worst = float(np.max(np.where(np.isfinite(cond), cond, np.inf)))
        raise FilterDegenerateError(
            f"filter degenerate: innovation covariance condition number {worst:.3e}"
            f" exceeds {cond_limit:.1e}"
        )

    # S^-1 = [[s11, -s12], [-conj(s12), s11]] / (lo hi); two divisions keep
    # lo hi from overflowing at huge covariances
    gain = hm.H @ AugmentedMatrix(s11 / hi / lo, -s12 / hi / lo)
    innov = AugmentedVector(y.top - (h @ x_pred).top)
    x_post = AugmentedVector(x_pred.top + (gain @ innov).top)
    m_post = m_prior - gain @ hm
    m_post = m_post + m_post.H
    m_post = AugmentedMatrix(m_post.block11 / 2.0, m_post.block12 / 2.0)

    new_state = FilterState(x_post, m_post, state.k + 1)
    diag = StepDiagnostics(
        innovation=innov, H=h, gain=gain, M_prior=m_prior, M_post=m_post, A=a
    )
    return new_state, diag


# ---------------------------------------------------------------------------
# model factories


def _noise_matrices(
    cu_diag: Sequence[float],
    Cu: AugmentedMatrix | None,
    Cn: AugmentedMatrix | None,
    snr_db: float | None,
    n_obs: int = 1,
) -> tuple[AugmentedMatrix, AugmentedMatrix]:
    if Cu is None:
        Cu = AugmentedMatrix.diagonal(cu_diag)
    if Cn is None:
        sigma2 = 1.5 * 10.0 ** (-snr_db / 10.0) if snr_db is not None else _NOISELESS_CN
        Cn = AugmentedMatrix.diagonal([sigma2] * n_obs)
    return Cu, Cn


def _angle_freq(sample_rate_hz: float) -> Callable:
    two_pi_dt = 2.0 * math.pi / sample_rate_hz

    def extract(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inc = x[..., 0]
        zero = inc == 0
        flags = np.where(zero, FLAG_ZERO_INCREMENT, 0)
        with np.errstate(invalid="ignore"):
            f = np.where(zero, np.nan, np.angle(inc) / two_pi_dt)
        return f, flags

    return extract


def _selector_H(n: int, cols: Sequence[int]) -> AugmentedMatrix:
    """Observation of the sum of the top-half entries ``cols``."""
    h = np.zeros((1, n))
    h[0, list(cols)] = 1.0
    return AugmentedMatrix(h, np.zeros_like(h))


def _jacobian_blocks(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed (df/dx, df/dconj(x)) blocks for a batch of top halves."""
    a11 = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    return a11, np.zeros_like(a11)


def lss_model(
    sample_rate_hz: float,
    Cu: AugmentedMatrix | None = None,
    Cn: AugmentedMatrix | None = None,
    snr_db: float | None = None,
) -> StateSpaceModel:
    """Strictly linear model: state (x, v) with v_k = x v_{k-1}.

    The model involves no conjugate terms, so with block-diagonal noise the
    augmented filter reduces exactly to a conventional complex Kalman filter;
    it is run in augmented form to share the single engine.
    """
    cu, cn = _noise_matrices([_CU_INCREMENT, _CU_VOLTAGE], Cu, Cn, snr_db)

    def f_a(x: np.ndarray) -> np.ndarray:
        return np.stack([x[..., 0], x[..., 0] * x[..., 1]], axis=-1)

    def jacobian(x: np.ndarray) -> AugmentedMatrix:
        a11, a12 = _jacobian_blocks(x, 2)
        a11[..., 0, 0] = 1.0
        a11[..., 1, 0] = x[..., 1]
        a11[..., 1, 1] = x[..., 0]
        return AugmentedMatrix(a11, a12)

    extract = _angle_freq(sample_rate_hz)

    def initial_state(first_obs, f_init_hz: float = 50.0) -> FilterState:
        v0 = np.asarray(first_obs, dtype=complex)
        x0 = np.full_like(v0, np.exp(2j * math.pi * f_init_hz / sample_rate_hz))
        return FilterState(
            AugmentedVector(np.stack([x0, v0], axis=-1)), AugmentedMatrix.eye(2, 0.1), 0
        )

    return StateSpaceModel(
        name="lss", f_a=f_a, jacobian_A=jacobian,
        observe_H=_selector_H(2, [1]), extract_freq=extract,
        Cu=cu, Cn=cn, initial_state=initial_state,
    )


def wlss_model(
    sample_rate_hz: float,
    Cu: AugmentedMatrix | None = None,
    Cn: AugmentedMatrix | None = None,
    snr_db: float | None = None,
) -> StateSpaceModel:
    """Widely linear model: state (h, g, v) with v_k = h v_{k-1} + g conj(v_{k-1}).

    The frequency estimate inverts the steady-state relation between the
    weights and the rotation: f = arcsin(sqrt(Im(h)^2 - |g|^2)) / (2 pi dT).
    A negative radicand (negative-sequence energy exceeding what the weight
    pair can represent) is clamped to zero and flagged; ticks with Im(h) < 0
    are flagged because this branch folds negative frequencies to positive.
    """
    cu, cn = _noise_matrices([_CU_INCREMENT, _CU_INCREMENT, _CU_VOLTAGE], Cu, Cn, snr_db)
    two_pi_dt = 2.0 * math.pi / sample_rate_hz

    def f_a(x: np.ndarray) -> np.ndarray:
        v = x[..., 2]
        return np.stack([x[..., 0], x[..., 1], x[..., 0] * v + x[..., 1] * np.conj(v)], axis=-1)

    def jacobian(x: np.ndarray) -> AugmentedMatrix:
        a11, a12 = _jacobian_blocks(x, 3)
        a11[..., 0, 0] = a11[..., 1, 1] = 1.0
        a11[..., 2, 0] = x[..., 2]
        a11[..., 2, 1] = np.conj(x[..., 2])
        a11[..., 2, 2] = x[..., 0]
        a12[..., 2, 2] = x[..., 1]
        return AugmentedMatrix(a11, a12)

    def extract(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h_im = x[..., 0].imag
        radicand = h_im**2 - np.abs(x[..., 1]) ** 2
        flags = np.where(radicand < 0, FLAG_SEQUENCE_DOMINANCE, 0)
        flags = flags | np.where(h_im < 0, FLAG_NEGATIVE_IM_H, 0)
        arg = np.sqrt(np.maximum(radicand, 0.0))
        flags = flags | np.where(arg > 1.0, FLAG_ARCSIN_CLIPPED, 0)
        f = np.arcsin(np.minimum(arg, 1.0)) / two_pi_dt
        return f, flags

    def initial_state(first_obs, f_init_hz: float = 50.0) -> FilterState:
        v0 = np.asarray(first_obs, dtype=complex)
        h0 = np.full_like(v0, np.exp(2j * math.pi * f_init_hz / sample_rate_hz))
        g0 = np.zeros_like(v0)
        return FilterState(
            AugmentedVector(np.stack([h0, g0, v0], axis=-1)), AugmentedMatrix.eye(3, 0.1), 0
        )

    return StateSpaceModel(
        name="wlss", f_a=f_a, jacobian_A=jacobian,
        observe_H=_selector_H(3, [2]), extract_freq=extract,
        Cu=cu, Cn=cn, initial_state=initial_state,
    )


def nss_model(
    sample_rate_hz: float,
    Cu: AugmentedMatrix | None = None,
    Cn: AugmentedMatrix | None = None,
    snr_db: float | None = None,
) -> StateSpaceModel:
    """Sequence-split model: state (x, v+, v-).

    The positive-sequence voltage advances by the increment x, the
    negative-sequence voltage by conj(x), and the observed Clarke voltage is
    their sum.  Frequency reads directly off x, so no guard is ever needed in
    the extraction, balanced or not.
    """
    cu, cn = _noise_matrices([_CU_INCREMENT, _CU_VOLTAGE, _CU_VOLTAGE], Cu, Cn, snr_db)

    def f_a(x: np.ndarray) -> np.ndarray:
        inc = x[..., 0]
        return np.stack([inc, inc * x[..., 1], np.conj(inc) * x[..., 2]], axis=-1)

    def jacobian(x: np.ndarray) -> AugmentedMatrix:
        a11, a12 = _jacobian_blocks(x, 3)
        a11[..., 0, 0] = 1.0
        a11[..., 1, 0] = x[..., 1]
        a11[..., 1, 1] = x[..., 0]
        a11[..., 2, 2] = np.conj(x[..., 0])
        a12[..., 2, 0] = x[..., 2]
        return AugmentedMatrix(a11, a12)

    extract = _angle_freq(sample_rate_hz)

    def initial_state(first_obs, f_init_hz: float = 50.0) -> FilterState:
        v0 = np.asarray(first_obs, dtype=complex)
        x0 = np.full_like(v0, np.exp(2j * math.pi * f_init_hz / sample_rate_hz))
        return FilterState(
            AugmentedVector(np.stack([x0, v0, np.zeros_like(v0)], axis=-1)),
            AugmentedMatrix.eye(3, 0.1),
            0,
        )

    return StateSpaceModel(
        name="nss", f_a=f_a, jacobian_A=jacobian,
        observe_H=_selector_H(3, [1, 2]), extract_freq=extract,
        Cu=cu, Cn=cn, initial_state=initial_state,
    )


def shared_increment_model(
    sample_rate_hz: float,
    Cu: AugmentedMatrix | None = None,
    Cn: AugmentedMatrix | None = None,
    snr_db: float | None = None,
) -> StateSpaceModel:
    """Two-dimensional model of the phase increment alone.

    The observation matrix is rebuilt every tick from externally supplied
    sequence-voltage estimates (see :func:`with_sequence_observation`); the
    state evolution is the identity.  This is the model whose estimates the
    diffusion protocol exchanges.
    """
    cu, cn = _noise_matrices([_CU_INCREMENT], Cu, Cn, snr_db)
    identity = AugmentedMatrix.eye(1)

    def f_a(x: np.ndarray) -> np.ndarray:
        return x

    def jacobian(x: np.ndarray) -> AugmentedMatrix:
        return identity

    extract = _angle_freq(sample_rate_hz)

    def initial_state(first_obs=None, f_init_hz: float = 50.0) -> FilterState:
        shape = () if first_obs is None or np.isscalar(first_obs) else np.shape(first_obs)
        x0 = np.full(shape + (1,), np.exp(2j * math.pi * f_init_hz / sample_rate_hz))
        return FilterState(AugmentedVector(x0), AugmentedMatrix.eye(1, 0.1), 0)

    return StateSpaceModel(
        name="shared_increment", f_a=f_a, jacobian_A=jacobian,
        observe_H=None, extract_freq=extract,
        Cu=cu, Cn=cn, initial_state=initial_state,
    )


def with_sequence_observation(model: StateSpaceModel, v_plus, v_minus) -> StateSpaceModel:
    """Bind per-tick sequence-voltage estimates into the shared model.

    The bound observation maps the increment x to v+ x + v- conj(x), the
    widely linear voltage relation v_k = v+_{k-1} x + v-_{k-1} conj(x); the
    supplied estimates must therefore be the sequence voltages from the tick
    *before* the observation being processed.
    """
    vp = np.asarray(v_plus, dtype=complex)[..., None, None]
    vm = np.asarray(v_minus, dtype=complex)[..., None, None]
    return replace(model, observe_H=AugmentedMatrix(vp, vm))


# ---------------------------------------------------------------------------
# filter runners


@dataclass
class FreqTrace:
    """The per-tick outputs of one filter row; index 0 reflects the initial state.

    ``innovation_power`` and ``states`` are None unless the run kept detail.
    """

    k: np.ndarray
    t_s: np.ndarray
    f_hat_hz: np.ndarray
    innovation_power: np.ndarray | None
    states: np.ndarray | None  # (n_ticks, n) posterior top halves
    flags: np.ndarray
    f_true_hz: np.ndarray | None = None


@dataclass
class FilterRun:
    """What :func:`run_filter` produced: arrays shaped (seeds, ticks).

    ``innovation_power`` and the posterior top halves ``states`` (one more
    axis, of the state entries) are kept only with ``detail``, else None.
    """

    t_s: np.ndarray
    f_hat_hz: np.ndarray
    flags: np.ndarray
    f_true_hz: np.ndarray | None = None
    innovation_power: np.ndarray | None = None
    states: np.ndarray | None = None

    def _view(self, index: tuple, f_true) -> FreqTrace:
        detail = self.states is not None
        return FreqTrace(
            k=np.arange(self.t_s.size),
            t_s=self.t_s,
            f_hat_hz=self.f_hat_hz[index],
            innovation_power=self.innovation_power[index] if detail else None,
            states=self.states[index] if detail else None,
            flags=self.flags[index],
            f_true_hz=f_true,
        )

    def trace(self, row: int = 0) -> FreqTrace:
        """The view of one seed row."""
        return self._view((row,), self.f_true_hz)


def run_filter(
    model: StateSpaceModel,
    samples: np.ndarray,
    sample_rate_hz: float,
    init: FilterState | None = None,
    f_true: np.ndarray | None = None,
    detail: bool = False,
) -> FilterRun:
    """Run a model over Clarke voltage series, every seed row in one batch.

    ``samples`` is one series (ticks,) or a batch (seeds, ticks); each row
    evolves exactly as it would alone, and the result is shaped (seeds,
    ticks) either way.  Non-finite samples are rejected before any step.
    ``init`` is one state for every row or one per row; by default each row
    starts from its first sample.
    """
    v = np.atleast_2d(np.asarray(samples, dtype=complex))
    if v.size == 0:
        raise ValueError("empty sample series")
    bad = np.argwhere(~np.isfinite(v))
    if bad.size:
        row, k = bad[0]
        raise ValueError(f"row {row}, tick {k}: non-finite sample {v[row, k]}")
    n_seeds, n_ticks = v.shape
    state = model.initial_state(v[:, 0]) if init is None else init
    f_hat = np.empty((n_seeds, n_ticks))
    flags = np.zeros((n_seeds, n_ticks), dtype=int)
    states = np.empty((n_seeds, n_ticks, state.x_hat.n), dtype=complex) if detail else None
    innov = np.zeros((n_seeds, n_ticks)) if detail else None

    f_hat[:, 0], flags[:, 0] = model.extract_freq(state.x_hat.top)
    if detail:
        states[:, 0] = state.x_hat.top
    for k in range(1, n_ticks):
        try:
            state, diag = _step(model, state, AugmentedVector(v[:, k : k + 1]))
        except FilterDegenerateError as exc:
            raise FilterDegenerateError(f"tick {k}: {exc}") from exc
        f_hat[:, k], flags[:, k] = model.extract_freq(state.x_hat.top)
        if detail:
            states[:, k] = state.x_hat.top
            innov[:, k] = np.abs(diag.innovation.top[..., 0]) ** 2
    return FilterRun(
        t_s=np.arange(n_ticks) / sample_rate_hz,
        f_hat_hz=f_hat,
        flags=flags,
        f_true_hz=None if f_true is None else np.asarray(f_true, dtype=float),
        innovation_power=innov,
        states=states,
    )
