"""Frequency trackers built on an augmented complex extended Kalman filter.

Three single-node state-space models share one filter engine:

* ``lss_model`` - strictly linear model of the Clarke voltage; optimal for
  balanced (circular) signals but biased under voltage sags.
* ``wlss_model`` - widely linear autoregression ``v_k = h v_{k-1} +
  g conj(v_{k-1})``; handles unbalanced signals, frequency read through an
  arcsin of the filter weights.
* ``nss_model`` - states for the phase increment and both rotating sequence
  voltages; frequency read directly off the increment state.

All models run through :func:`acekf_step`, which performs one predict/correct
cycle on the augmented state [x; conj(x)] and re-enforces the conjugate block
structure after every update.  States, covariances and observations may carry
leading batch dimensions, which is how the Monte-Carlo helpers vectorize over
seeds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .augmented import AugmentedMatrix, AugmentedVector, augment, enforce_structure

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
    """Bundle of model functions consumed by :func:`acekf_step`.

    ``f_a``, ``jacobian_A`` and ``observe_H`` operate on materialized
    augmented states of shape (..., n_states) where the first half holds the
    states and the second half their conjugates; the functions never take
    conjugates internally so that every entry is treated as an independent
    variable (widely-linear calculus).
    """

    name: str
    n_states: int  # augmented dimension 2n
    f_a: Callable[[np.ndarray], np.ndarray]
    jacobian_A: Callable[[np.ndarray], np.ndarray]
    observe_H: Callable[[np.ndarray], np.ndarray]
    extract_freq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    Cu: AugmentedMatrix
    Cn: AugmentedMatrix
    initial_state: Callable[..., FilterState]


@dataclass
class StepDiagnostics:
    """Per-step internals recorded for diffusion analysis."""

    innovation: np.ndarray
    H: np.ndarray
    gain: np.ndarray
    M_prior: np.ndarray
    M_post: np.ndarray
    A: np.ndarray


def _hconj(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _herm2x2_cond(s: np.ndarray) -> np.ndarray:
    """Condition number of (batched) 2x2 Hermitian matrices, closed form."""
    a = s[..., 0, 0].real
    d = s[..., 1, 1].real
    half_gap = np.sqrt(((a - d) / 2.0) ** 2 + np.abs(s[..., 0, 1]) ** 2)
    mid = (a + d) / 2.0
    lo, hi = mid - half_gap, mid + half_gap
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lo > 0, hi / np.where(lo > 0, lo, 1.0), np.inf)
    return cond


def _inv2x2(s: np.ndarray) -> np.ndarray:
    det = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
    out = np.empty_like(s)
    out[..., 0, 0] = s[..., 1, 1]
    out[..., 1, 1] = s[..., 0, 0]
    out[..., 0, 1] = -s[..., 0, 1]
    out[..., 1, 0] = -s[..., 1, 0]
    return out / det[..., None, None]


def _step(
    model: StateSpaceModel,
    state: FilterState,
    y: AugmentedVector,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> tuple[FilterState, StepDiagnostics]:
    """One predict/correct cycle; returns the new state plus diagnostics."""
    x = state.x_hat.materialize()
    m = state.M.materialize()
    two_n = model.n_states
    n = two_n // 2

    x_pred = model.f_a(x)
    a = model.jacobian_A(x)
    m_prior = a @ m @ _hconj(a) + model.Cu.materialize()

    h = model.observe_H(x_pred)
    h = np.broadcast_to(h, x_pred.shape[:-1] + h.shape[-2:]) if h.ndim == 2 and x_pred.ndim > 1 else h
    s = h @ m_prior @ _hconj(h) + model.Cn.materialize()

    cond = _herm2x2_cond(s) if s.shape[-1] == 2 else np.linalg.cond(s)
    if np.any(~np.isfinite(cond)) or np.any(cond > cond_limit):
        worst = float(np.max(np.where(np.isfinite(cond), cond, np.inf)))
        raise FilterDegenerateError(
            f"filter degenerate: innovation covariance condition number {worst:.3e}"
            f" exceeds {cond_limit:.1e}"
        )

    s_inv = _inv2x2(s) if s.shape[-1] == 2 else np.linalg.inv(s)
    gain = m_prior @ _hconj(h) @ s_inv
    innov = y.materialize() - (h @ x_pred[..., None])[..., 0]
    x_post = x_pred + (gain @ innov[..., None])[..., 0]
    m_post = (np.eye(two_n) - gain @ h) @ m_prior
    m_post = (m_post + _hconj(m_post)) / 2.0

    m_struct = enforce_structure(m_post)
    top = (x_post[..., :n] + np.conj(x_post[..., n:])) / 2.0
    new_state = FilterState(AugmentedVector(top), m_struct, state.k + 1)
    diag = StepDiagnostics(
        innovation=innov, H=h, gain=gain, M_prior=m_prior,
        M_post=m_struct.materialize(), A=a,
    )
    return new_state, diag


def acekf_step(
    model: StateSpaceModel,
    state: FilterState,
    y: AugmentedVector | np.ndarray | complex,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> FilterState:
    """Advance the filter by one observation.

    ``y`` is the observation in augmented form (an AugmentedVector, or a bare
    complex value/array that is augmented automatically).
    """
    if not isinstance(y, AugmentedVector):
        y = augment(np.atleast_1d(np.asarray(y, dtype=complex)))
    new_state, _ = _step(model, state, y, cond_limit)
    return new_state


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


def _selector_H(two_n: int, rows: Sequence[int]) -> Callable:
    h = np.zeros((2, two_n), dtype=complex)
    for r, cols in enumerate(rows):
        for c in np.atleast_1d(cols):
            h[r, c] = 1.0
    def observe(x_pred: np.ndarray) -> np.ndarray:
        return h
    return observe


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

    def f_a(s: np.ndarray) -> np.ndarray:
        return np.stack([s[..., 0], s[..., 0] * s[..., 1], s[..., 2], s[..., 2] * s[..., 3]], axis=-1)

    def jacobian(s: np.ndarray) -> np.ndarray:
        j = np.zeros(s.shape[:-1] + (4, 4), dtype=complex)
        j[..., 0, 0] = 1.0
        j[..., 1, 0] = s[..., 1]
        j[..., 1, 1] = s[..., 0]
        j[..., 2, 2] = 1.0
        j[..., 3, 2] = s[..., 3]
        j[..., 3, 3] = s[..., 2]
        return j

    extract = _angle_freq(sample_rate_hz)

    def initial_state(first_obs, f_init_hz: float = 50.0) -> FilterState:
        v0 = np.asarray(first_obs, dtype=complex)
        x0 = np.full_like(v0, np.exp(2j * math.pi * f_init_hz / sample_rate_hz))
        return FilterState(
            AugmentedVector(np.stack([x0, v0], axis=-1)), AugmentedMatrix.eye(2, 0.1), 0
        )

    return StateSpaceModel(
        name="lss", n_states=4, f_a=f_a, jacobian_A=jacobian,
        observe_H=_selector_H(4, [1, 3]), extract_freq=extract,
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

    def f_a(s: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                s[..., 0],
                s[..., 1],
                s[..., 0] * s[..., 2] + s[..., 1] * s[..., 5],
                s[..., 3],
                s[..., 4],
                s[..., 3] * s[..., 5] + s[..., 4] * s[..., 2],
            ],
            axis=-1,
        )

    def jacobian(s: np.ndarray) -> np.ndarray:
        j = np.zeros(s.shape[:-1] + (6, 6), dtype=complex)
        for i in (0, 1, 3, 4):
            j[..., i, i] = 1.0
        j[..., 2, 0] = s[..., 2]
        j[..., 2, 1] = s[..., 5]
        j[..., 2, 2] = s[..., 0]
        j[..., 2, 5] = s[..., 1]
        j[..., 5, 2] = s[..., 4]
        j[..., 5, 3] = s[..., 5]
        j[..., 5, 4] = s[..., 2]
        j[..., 5, 5] = s[..., 3]
        return j

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
        name="wlss", n_states=6, f_a=f_a, jacobian_A=jacobian,
        observe_H=_selector_H(6, [2, 5]), extract_freq=extract,
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

    def f_a(s: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                s[..., 0],
                s[..., 0] * s[..., 1],
                s[..., 3] * s[..., 2],
                s[..., 3],
                s[..., 3] * s[..., 4],
                s[..., 0] * s[..., 5],
            ],
            axis=-1,
        )

    def jacobian(s: np.ndarray) -> np.ndarray:
        j = np.zeros(s.shape[:-1] + (6, 6), dtype=complex)
        j[..., 0, 0] = 1.0
        j[..., 1, 0] = s[..., 1]
        j[..., 1, 1] = s[..., 0]
        j[..., 2, 2] = s[..., 3]
        j[..., 2, 3] = s[..., 2]
        j[..., 3, 3] = 1.0
        j[..., 4, 3] = s[..., 4]
        j[..., 4, 4] = s[..., 3]
        j[..., 5, 0] = s[..., 5]
        j[..., 5, 5] = s[..., 0]
        return j

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
        name="nss", n_states=6, f_a=f_a, jacobian_A=jacobian,
        observe_H=_selector_H(6, [(1, 2), (4, 5)]), extract_freq=extract,
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

    def f_a(s: np.ndarray) -> np.ndarray:
        return s

    def jacobian(s: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(2, dtype=complex), s.shape[:-1] + (2, 2))

    def observe_placeholder(x_pred: np.ndarray) -> np.ndarray:
        raise RuntimeError(
            "shared increment model needs an observation matrix; wrap it with"
            " with_sequence_observation(model, v_plus, v_minus) first"
        )

    extract = _angle_freq(sample_rate_hz)

    def initial_state(first_obs=None, f_init_hz: float = 50.0) -> FilterState:
        shape = () if first_obs is None or np.isscalar(first_obs) else np.shape(first_obs)
        x0 = np.full(shape + (1,), np.exp(2j * math.pi * f_init_hz / sample_rate_hz))
        return FilterState(AugmentedVector(x0), AugmentedMatrix.eye(1, 0.1), 0)

    return StateSpaceModel(
        name="shared_increment", n_states=2, f_a=f_a, jacobian_A=jacobian,
        observe_H=observe_placeholder, extract_freq=extract,
        Cu=cu, Cn=cn, initial_state=initial_state,
    )


def sequence_observation(v_plus, v_minus) -> np.ndarray:
    """Observation matrix mapping [x; conj(x)] to [v; conj(v)].

    Uses the widely linear voltage relation v_k = v+_{k-1} x + v-_{k-1}
    conj(x); the supplied estimates must therefore be the sequence voltages
    from the tick *before* the observation being processed.
    """
    vp = np.asarray(v_plus, dtype=complex)
    vm = np.asarray(v_minus, dtype=complex)
    h = np.zeros(vp.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = vp
    h[..., 0, 1] = vm
    h[..., 1, 0] = np.conj(vm)
    h[..., 1, 1] = np.conj(vp)
    return h


def with_sequence_observation(model: StateSpaceModel, v_plus, v_minus) -> StateSpaceModel:
    """Bind per-tick sequence-voltage estimates into the shared model."""
    h = sequence_observation(v_plus, v_minus)
    return replace(model, observe_H=lambda x_pred: h)


# ---------------------------------------------------------------------------
# filter runners


@dataclass
class FreqTrace:
    """Per-tick filter outputs; index 0 reflects the initial state."""

    k: np.ndarray
    t_s: np.ndarray
    f_hat_hz: np.ndarray
    innovation_power: np.ndarray
    states: np.ndarray  # (n_ticks, n) posterior top halves
    flags: np.ndarray
    f_true_hz: np.ndarray | None = None


def _run(
    model: StateSpaceModel,
    v_obs: np.ndarray,
    init: FilterState | None,
    detail: bool,
):
    """The loop both runners share: one batch row per seed.

    Returns (f_hat, flags, states, innovation power), shaped (seeds, ticks);
    ``states`` adds the axis of the posterior top-half entries.  The last two
    are kept only with ``detail``.
    """
    n_seeds, n_ticks = v_obs.shape
    state = model.initial_state(v_obs[:, 0]) if init is None else init
    f_hat = np.empty((n_seeds, n_ticks))
    flags = np.zeros((n_seeds, n_ticks), dtype=int)
    states = np.empty((n_seeds, n_ticks, state.x_hat.n), dtype=complex) if detail else None
    innov = np.zeros((n_seeds, n_ticks)) if detail else None

    f_hat[:, 0], flags[:, 0] = model.extract_freq(state.x_hat.materialize())
    if detail:
        states[:, 0] = state.x_hat.top
    for k in range(1, n_ticks):
        try:
            state, diag = _step(model, state, augment(v_obs[:, k : k + 1]))
        except FilterDegenerateError as exc:
            raise FilterDegenerateError(f"tick {k}: {exc}") from exc
        f_hat[:, k], flags[:, k] = model.extract_freq(state.x_hat.materialize())
        if detail:
            states[:, k] = state.x_hat.top
            innov[:, k] = np.abs(diag.innovation[..., 0]) ** 2
    return f_hat, flags, states, innov


def run_filter(
    model: StateSpaceModel,
    samples: np.ndarray,
    sample_rate_hz: float,
    init: FilterState | None = None,
    f_true: np.ndarray | None = None,
) -> FreqTrace:
    """Run a model over a Clarke voltage series and collect the trace.

    This is the batched loop at one row; an ``init`` state is unbatched.
    """
    v = np.asarray(samples, dtype=complex)
    if v.size == 0:
        raise ValueError("empty sample series")
    if init is not None:
        init = FilterState(AugmentedVector(init.x_hat.top[None]), init.M, init.k)
    f_hat, flags, states, innov = _run(model, v[None], init, detail=True)

    k_idx = np.arange(v.size)
    return FreqTrace(
        k=k_idx,
        t_s=k_idx / sample_rate_hz,
        f_hat_hz=f_hat[0],
        innovation_power=innov[0],
        states=states[0],
        flags=flags[0],
        f_true_hz=None if f_true is None else np.asarray(f_true, dtype=float),
    )


def run_filter_batch(
    model: StateSpaceModel,
    v_obs: np.ndarray,
    init: FilterState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Monte-Carlo run over a (n_seeds, n_ticks) observation array.

    Returns (f_hat, flags), both shaped like ``v_obs``.  Each row evolves
    exactly as a :func:`run_filter` call on that row alone.
    """
    f_hat, flags, _, _ = _run(model, np.asarray(v_obs, dtype=complex), init, detail=False)
    return f_hat, flags


def write_trace_csv(path, trace: FreqTrace) -> None:
    """Write a filter trace to CSV (error column blank-less: nan if no truth)."""
    f_true = trace.f_true_hz
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "t_s", "f_hat_hz", "f_true_hz", "err_hz", "innov_power", "flags"])
        for i in range(trace.k.size):
            ft = float(f_true[i]) if f_true is not None else math.nan
            w.writerow(
                [
                    int(trace.k[i]),
                    _fmt(trace.t_s[i]),
                    _fmt(trace.f_hat_hz[i]),
                    _fmt(ft),
                    _fmt(trace.f_hat_hz[i] - ft),
                    _fmt(trace.innovation_power[i]),
                    int(trace.flags[i]),
                ]
            )


def _fmt(x: float) -> str:
    """Format a float for CSV output with full double precision."""
    return format(float(x), ".15g")
