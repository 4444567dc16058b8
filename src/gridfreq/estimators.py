"""Frequency trackers built on an augmented complex extended Kalman filter.

Three single-node state-space models share one filter engine:

* ``lss_model`` - strictly linear model of the Clarke voltage; optimal for
  balanced (circular) signals but biased under voltage sags.
* ``wlss_model`` - widely linear autoregression ``v_k = h v_{k-1} +
  g conj(v_{k-1})``; handles unbalanced signals, frequency read through an
  arcsin of the filter weights.
* ``nss_model`` - states for the phase increment and both rotating sequence
  voltages; frequency read directly off the increment state.

Each factory sets the observation noise from ``snr_db`` and puts
``increment_process_noise`` on the diagonal of ``Cu`` for the
increment-like states and ``voltage_process_noise`` for the voltages.

All models run through one engine step, which performs one predict/correct
cycle on the augmented state [x; conj(x)].  The state is held as its top
half x and every covariance and gain as its top block row, so the conjugate
block structure holds by construction.  A model declares its Jacobian
``[A11 A12]`` and its one observation row as their nonzero *terms*, ``(row,
augmented column, value)`` and ``(augmented column, value)``, where a value
is a Python scalar or a batch array.

States, covariances, gains and observations are plain arrays in one layout,
entries first and the batch flattened into one last axis of ``rows``: the
state is (n, rows), a covariance's top block row (n, 2n, rows).  Every
product is a sum over terms of elementwise operations, each one pass over
the batch: numpy's stacked complex ``@`` pays a fixed cost per small matrix.
The ``nss`` Jacobian has 5 nonzeros out of 18 and the shared-increment
model's is the identity, so the prior ``A M A^H`` is a handful of row
combinations, and ``H P``, ``S``, the gain, the innovation and ``K H P``
are sums and outer products along the observation row.  Both drivers build
one :class:`_StepPlan` per model for a run and carry each filter between
ticks as the arrays its step left.
A step's cost is a count of array operations, each about 1 us of numpy
call overhead at a batch of one row per node, (1, 7), whatever its size:
about 70 ufunc, copy and allocation calls and as many views for ``nss``,
about 60 calls for the shared model; larger batches add their arithmetic.
A row steps to the same bits in any batch and from any memory layout (see
:meth:`_StepPlan.step` for the numpy rounding rule this needs).  The step
is not a real 2n x 2n filter on [Re x; Im x]: that form loses the exact
zeros of the structure (the ``lss`` pseudo-covariance drifts to ~1e-20
instead of staying 0, and an exactly conditioned ``S`` comes out one ulp
off).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: frequency read from a zero phase-increment state (undefined angle)
FLAG_ZERO_INCREMENT = 1
#: widely-linear radicand Im(h)^2 - |g|^2 was negative and clamped to zero
FLAG_SEQUENCE_DOMINANCE = 2
#: Im(h) < 0: the arcsin branch cannot represent a negative frequency
FLAG_NEGATIVE_IM_H = 4
#: arcsin argument left [-1, 1] and was clipped (transient divergence)
FLAG_ARCSIN_CLIPPED = 8

#: largest condition number of the innovation covariance that the step accepts
COND_LIMIT = 1e12

#: observation-noise variance used when no SNR is configured (numerical floor)
_NOISELESS_CN = 1.5e-10

#: default process-noise variances: phase-increment-like states and voltage states
_CU_INCREMENT = 1e-6
_CU_VOLTAGE = 1e-4


class FilterDegenerateError(RuntimeError):
    """Innovation covariance became numerically singular.

    Raised by the step with ``row``, the first degenerate batch index in C
    order.  The tick loop under both drivers raises it again with ``tick``
    and ``row`` set and the step's error as its cause.
    """


@dataclass(frozen=True)
class StateSpaceModel:
    """Bundle of model functions consumed by the engine step.

    The functions take top halves x (n, rows) and read entry i as ``x[i]``.
    ``f_a`` returns the predicted top half.  ``jacobian_A`` returns the
    nonzero entries of the Wirtinger derivatives ``[df/dx  df/dconj(x)]``,
    an n x 2n row of blocks, as ``(row, augmented column, value)`` terms.  ``observe_H`` is the one
    complex observation as ``(augmented column, value)`` terms, or None for
    a model whose row is passed to the step every tick.  A value is a
    Python scalar or an array (rows,); an augmented column c < n reads
    x[c], and c >= n reads conj(x[c - n]).  ``extract_freq`` reads the
    frequency and flags off a top half.  ``Cu`` and ``Cn`` are the top
    block rows ``[B11 B12]`` of the process- and observation-noise
    covariances, (n, 2n) and (1, 2).  ``initial_state`` maps the first
    observations (rows,) to the start ``(x0, m0)`` at 50 Hz: the state
    (n, rows) and the covariance's top block row (n, 2n) of every row.  A
    model's term layout is fixed across calls: which ``(row, column)`` terms
    ``jacobian_A`` returns, which values are arrays and the scalar values.
    """

    name: str
    f_a: Callable[[np.ndarray], np.ndarray]
    jacobian_A: Callable[[np.ndarray], tuple]
    observe_H: tuple | None
    extract_freq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    Cu: np.ndarray
    Cn: np.ndarray
    initial_state: Callable[[np.ndarray], tuple]


#: what one step leaves, batch-last: the posterior ``x`` (n, rows), the
#: innovation ``innov`` and the top block rows of the posterior ``m``, the
#: gain ``k`` and the prior ``p``; and the step's ``H`` and ``A`` terms
_Stepped = namedtuple("_Stepped", "x m innov k p H A")


def _factors(h: tuple) -> list:
    """Observation terms as (column, factor, factor against an entry): None for
    a unit, a scalar as it is, an array value (rows,) as (1, rows) and (rows,)."""
    return [(c, v[None], v) if isinstance(v, np.ndarray) else (c,) + (None if v == 1 else v,) * 2
            for c, v in h]


def _conj_swapped(a: np.ndarray) -> np.ndarray:
    """conj(a) with the two halves of its first axis swapped: [u, w] -> [conj(w), conj(u)]."""
    return np.conj(a.reshape(2, -1)[::-1]).reshape(a.shape)


class _StepPlan:
    """A model's step at one batch shape, with what stays fixed between ticks
    resolved once: its noise blocks over the batch-last rows, its own
    observation row and, on the first step, its Jacobian's term program."""

    def __init__(self, model: StateSpaceModel, batch: tuple):
        self.model, self.batch, self.rows = model, batch, math.prod(batch)
        self.cu = np.broadcast_to(model.Cu[..., None], model.Cu.shape + (self.rows,)).copy()
        self.cn = np.broadcast_to(model.Cn[0, :, None], (2, self.rows)).copy()  # 1 x 1 blocks
        self.h = None if model.observe_H is None else _factors(model.observe_H)
        self.terms = None

    def _program(self, a: tuple, n: int) -> None:
        """Resolve the layout of the Jacobian terms ``a``, the same at every call:
        ``terms`` holds ``(row, column, first, factor)``, ``first`` where no
        earlier term writes the row.  A factor is None for a unit, a scalar
        as it is, and for an array value (a numpy scalar counts as one) a
        slot of ``w``, (arrays, 2n, rows), filled every call: same-shape
        operands cost numpy less than one that broadcasts."""
        self.arrays = [i for i, (*_, v) in enumerate(a) if isinstance(v, (np.ndarray, np.generic))]
        self.w = np.empty((len(self.arrays), 2 * n, self.rows), complex)
        slots, rows = dict(zip(self.arrays, self.w)), [r for r, *_ in a]
        self.terms = [(r, c, r not in rows[:i], slots[i] if i in slots else None if v == 1 else v)
                      for i, (r, c, v) in enumerate(a)]
        # a row without terms is 0
        self.alloc = np.empty if set(rows) == set(range(n)) else np.zeros

    def _term_sums(self, src: np.ndarray, n: int) -> np.ndarray:
        """The (n, 2n, rows) sums, in term order, of w times row c of
        ``[src; conj_swapped(src)]`` into row r over the terms (r, c, w)."""
        out = self.alloc((n, 2 * n, self.rows), complex)
        for r, c, first, w in self.terms:
            row = src[c] if c < len(src) else _conj_swapped(src[c - len(src)])
            if not first:
                acc = out[r]
                acc += row if w is None else row * w
            elif w is None:
                out[r] = row
            else:
                np.multiply(row, w, out=out[r])
        return out

    def step(self, x: np.ndarray, m: np.ndarray, y: np.ndarray, h: tuple | None = None):
        """One predict/correct cycle of every row; returns a :class:`_Stepped`.

        ``x`` (n, rows), ``[M11 M12]`` ``m`` (n, 2n, rows) and ``y`` (1, rows)
        are read through views, in any memory layout; a last axis of 1
        broadcasts to the plan's rows.  ``h`` is the observation row as
        ``(augmented column, value)`` terms, by default the model's own.

        The prior's top block row ``[P11 P12] = [A11 A12] M_full A_full^H``
        is two passes of the term program, with no product of full
        matrices: row r of ``B = [A11 A12] M_full`` sums v times row c of
        ``M_full`` over the terms ``(r, c, v)``, and row r of ``[P11 P12]``
        sums v times row c of ``[conj(B)^T  B_swapped^T]`` (``P11`` is
        Hermitian and ``P12`` symmetric, so their rows are ``A``'s
        combinations of ``B``'s columns).  ``H P``, ``S``, the gain ``K``
        and the innovation are sums over the observation terms, and ``K H
        P`` is two outer products.  ``S`` is the 2 x 2 ``[[s11, s12],
        [conj(s12), s11]]``, inverted in closed form; a condition number
        above ``COND_LIMIT`` (read at each call) raises
        :class:`FilterDegenerateError`.  ``M_post`` is symmetrised from a
        copy of its transposed blocks, so at n = 1 block11 comes out real.

        Both operands of every complex product are arrays with the same
        number of axes, or one is a scalar: numpy rounds a complex product of
        two one-element arrays of different ndim, or of two numpy scalars,
        differently from the same product in a longer array.  So a row's
        result does not depend on the batch it is stepped in or on the
        memory layout of its inputs.
        """
        model, batch, rows, n = self.model, self.batch, self.rows, m.shape[0]
        x_pred = model.f_a(x)
        a = model.jacobian_A(x)
        if self.terms is None:
            self._program(a, n)
        for slot, i in zip(self.w, self.arrays):
            slot[...] = a[i][2]
        h_rows = self.h if h is None else _factors(h)

        b = self._term_sums(m, n)  # M_full is [m; conj_swapped(m)]
        # row c of [conj(B)^T  B_swapped^T]: column c of conj(B), then column c -/+ n of B
        b_cols = np.empty((2 * n, 2 * n, rows), dtype=complex)
        b_t = b.swapaxes(0, 1)
        np.conj(b_t, out=b_cols[:, :n])
        b_cols[:n, n:], b_cols[n:, n:] = b_t[n:], b_t[:n]
        p = self._term_sums(b_cols, n)
        p += self.cu

        # H P and H x: row c >= n of P_full is row c - n of [P11 P12], conjugated and swapped.
        # S = H P_full H^H + Cn: H's second row is conj(h) with its halves swapped.
        hp = hx = None
        for c, w, we in h_rows:
            row, xc = p[c % n], x_pred[c % n]
            row, xc = (row, xc) if c < n else (_conj_swapped(row), np.conj(xc))
            row, xc = (row, xc) if w is None else (row * w, xc * we)
            hp, hx = (row, xc) if hp is None else (hp + row, hx + xc)
        s11, s12 = self.cn
        for c, _, we in h_rows:
            t11, t12 = hp[c], hp[c + n if c < n else c - n]
            if we is not None:
                t11, t12 = t11 * np.conj(we), t12 * we
            s11, s12 = s11 + t11, s12 + t12
        s11 = s11.real
        # S has eigenvalues lo, hi = s11 -/+ |s12|; one pass fails on lo <= 0 and on any NaN
        abs12 = np.abs(s12)
        lo, hi = s11 - abs12, s11 + abs12
        if not (lo.min() > 0 and (hi / lo).max() <= COND_LIMIT):
            cond = hi / np.where(lo > 0, lo, np.nan)
            worst = float(np.max(np.where(np.isfinite(cond), cond, np.inf)))
            exc = FilterDegenerateError(f"filter degenerate: innovation covariance condition"
                                        f" number {worst:.3e} exceeds {COND_LIMIT:.1e}")
            exc.row = tuple(int(i) for i in np.argwhere(~(cond <= COND_LIMIT).reshape(batch))[0])
            raise exc

        # S^-1 = [[s11, -s12], [-conj(s12), s11]] / (lo hi), two divisions that keep lo hi
        # from overflowing.  K = (H P)^H S^-1 as its top block row [k11 k12], (n, 2, rows):
        # both columns at once, with inv = [[i11, i12], [conj(i12), i11]].
        inv = np.empty((2, 2, rows), dtype=complex)
        inv[0, 0] = inv[1, 1] = s11 / hi / lo
        np.conj(np.divide(-s12 / hi, lo, out=inv[0, 1]), out=inv[1, 0])
        hp_row2 = _conj_swapped(hp)  # (H P_full)'s second row
        gain = hp_row2[n:, None] * inv[None, 0]
        gain += hp[n:, None] * inv[None, 1]
        innov = np.subtract(y, hx, out=np.empty((1, rows), complex))
        x_post = x_pred + gain[:, 0] * innov
        x_post += gain[:, 1] * np.conj(innov)
        post = p - gain[:, :1] * hp[None]
        post -= gain[:, 1:] * hp_row2[None]
        # [m11 m12] + [m11^H m12^T]: t[i, j] is m11[j, i] conjugated, t[i, n + j] is m12[j, i]
        t = post.reshape(n, 2, n, rows).transpose(2, 1, 0, 3).copy().reshape(n, 2 * n, rows)
        np.conj(t[:, :n], out=t[:, :n])
        post += t
        post *= 0.5
        h = model.observe_H if h is None else h
        return _Stepped(x_post, post, innov, gain, p, h, a)


# ---------------------------------------------------------------------------
# model factories


def _diagonal(values: Sequence[float]) -> np.ndarray:
    """The top block row ``[B11 B12]`` of a covariance with real diagonal B11 and zero B12."""
    d = np.asarray(values, dtype=np.float64)
    top = np.zeros((d.size, 2 * d.size), np.complex128)
    top[:, : d.size] = np.diag(d)
    return top


def _noise_matrices(cu_diag: Sequence[float], snr_db: float | None) -> tuple:
    """``Cu`` with the diagonal ``cu_diag``, and ``Cn`` of the one observation at ``snr_db``."""
    sigma2 = 1.5 * 10.0 ** (-snr_db / 10.0) if snr_db is not None else _NOISELESS_CN
    return _diagonal(cu_diag), _diagonal([sigma2])


def _nominal_increment(sample_rate_hz: float) -> complex:
    """The phase increment of one tick at the 50 Hz every filter starts from."""
    return np.exp(2j * math.pi * 50.0 / sample_rate_hz)


def _start(sample_rate_hz: float, entries: str) -> Callable:
    """The ``initial_state`` of a model whose state entries are ``entries``, in
    order: ``x`` the nominal increment, ``v`` the first observation, ``0``
    zero.  The covariance starts at 0.1 I."""

    def initial_state(first_obs) -> tuple:
        v0 = np.asarray(first_obs, dtype=complex)
        known = {"x": np.full_like(v0, _nominal_increment(sample_rate_hz)), "v": v0,
                 "0": np.zeros_like(v0)}
        x0 = np.stack([known[e] for e in entries])
        return x0, _diagonal(np.full(len(entries), 0.1))

    return initial_state


def _angle_freq(sample_rate_hz: float) -> Callable:
    two_pi_dt = 2.0 * math.pi / sample_rate_hz

    def extract(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inc = x[0]
        zero = inc == 0
        return np.where(zero, np.nan, np.angle(inc) / two_pi_dt), zero * FLAG_ZERO_INCREMENT

    return extract


def lss_model(
    sample_rate_hz: float,
    snr_db: float | None = None,
    increment_process_noise: float = _CU_INCREMENT,
    voltage_process_noise: float = _CU_VOLTAGE,
) -> StateSpaceModel:
    """Strictly linear model: state (x, v) with v_k = x v_{k-1}.

    The model involves no conjugate terms, so with block-diagonal noise the
    augmented filter reduces exactly to a conventional complex Kalman filter;
    it is run in augmented form to share the single engine.
    """
    cu, cn = _noise_matrices([increment_process_noise, voltage_process_noise], snr_db)

    def f_a(x: np.ndarray) -> np.ndarray:
        return np.stack([x[0], x[0] * x[1]])

    def jacobian(x: np.ndarray) -> tuple:
        return (0, 0, 1.0), (1, 0, x[1]), (1, 1, x[0])

    return StateSpaceModel(
        name="lss", f_a=f_a, jacobian_A=jacobian,
        observe_H=((1, 1.0),), extract_freq=_angle_freq(sample_rate_hz),
        Cu=cu, Cn=cn, initial_state=_start(sample_rate_hz, "xv"),
    )


def wlss_model(
    sample_rate_hz: float,
    snr_db: float | None = None,
    increment_process_noise: float = _CU_INCREMENT,
    voltage_process_noise: float = _CU_VOLTAGE,
) -> StateSpaceModel:
    """Widely linear model: state (h, g, v) with v_k = h v_{k-1} + g conj(v_{k-1}).

    The frequency estimate inverts the steady-state relation between the
    weights and the rotation: f = arcsin(sqrt(Im(h)^2 - |g|^2)) / (2 pi dT).
    A negative radicand (negative-sequence energy exceeding what the weight
    pair can represent) is clamped to zero and flagged; ticks with Im(h) < 0
    are flagged because this branch folds negative frequencies to positive.
    """
    qi, qv = increment_process_noise, voltage_process_noise
    cu, cn = _noise_matrices([qi, qi, qv], snr_db)
    two_pi_dt = 2.0 * math.pi / sample_rate_hz

    def f_a(x: np.ndarray) -> np.ndarray:
        v = x[2]
        return np.stack([x[0], x[1], x[0] * v + x[1] * np.conj(v)])

    def jacobian(x: np.ndarray) -> tuple:
        v = x[2]
        return (0, 0, 1.0), (1, 1, 1.0), (2, 0, v), (2, 1, np.conj(v)), (2, 2, x[0]), (2, 5, x[1])

    def extract(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h_im = x[0].imag
        radicand = h_im**2 - np.abs(x[1]) ** 2
        flags = np.where(radicand < 0, FLAG_SEQUENCE_DOMINANCE, 0)
        flags = flags | np.where(h_im < 0, FLAG_NEGATIVE_IM_H, 0)
        arg = np.sqrt(np.maximum(radicand, 0.0))
        flags = flags | np.where(arg > 1.0, FLAG_ARCSIN_CLIPPED, 0)
        f = np.arcsin(np.minimum(arg, 1.0)) / two_pi_dt
        return f, flags

    return StateSpaceModel(
        name="wlss", f_a=f_a, jacobian_A=jacobian,
        observe_H=((2, 1.0),), extract_freq=extract,
        Cu=cu, Cn=cn, initial_state=_start(sample_rate_hz, "x0v"),
    )


def nss_model(
    sample_rate_hz: float,
    snr_db: float | None = None,
    increment_process_noise: float = _CU_INCREMENT,
    voltage_process_noise: float = _CU_VOLTAGE,
) -> StateSpaceModel:
    """Sequence-split model: state (x, v+, v-).

    The positive-sequence voltage advances by the increment x, the
    negative-sequence voltage by conj(x), and the observed Clarke voltage is
    their sum.  Frequency reads directly off x, so no guard is ever needed in
    the extraction, balanced or not.
    """
    qi, qv = increment_process_noise, voltage_process_noise
    cu, cn = _noise_matrices([qi, qv, qv], snr_db)

    def f_a(x: np.ndarray) -> np.ndarray:
        out, inc = np.empty_like(x), x[0]
        out[0] = inc
        np.multiply(inc, x[1], out=out[1])
        np.multiply(np.conj(inc), x[2], out=out[2])
        return out

    def jacobian(x: np.ndarray) -> tuple:
        inc = x[0]
        return (0, 0, 1.0), (1, 0, x[1]), (1, 1, inc), (2, 2, np.conj(inc)), (2, 3, x[2])

    return StateSpaceModel(
        name="nss", f_a=f_a, jacobian_A=jacobian,
        observe_H=((1, 1.0), (2, 1.0)), extract_freq=_angle_freq(sample_rate_hz),
        Cu=cu, Cn=cn, initial_state=_start(sample_rate_hz, "xv0"),
    )


def shared_increment_model(
    sample_rate_hz: float, snr_db: float | None = None
) -> StateSpaceModel:
    """Two-dimensional model of the phase increment alone.

    The state evolution is the identity.  The model has no observation row
    of its own: every tick's step gets ``((0, v+), (1, v-))``, built
    from externally supplied sequence-voltage estimates, which maps the
    increment x to v+ x + v- conj(x), the widely linear voltage relation
    v_k = v+_{k-1} x + v-_{k-1} conj(x).  The estimates must therefore be
    the sequence voltages from the tick *before* the observation being
    processed.  This is the model whose estimates the diffusion protocol
    exchanges.
    """
    cu, cn = _noise_matrices([_CU_INCREMENT], snr_db)

    def f_a(x: np.ndarray) -> np.ndarray:
        return x

    def jacobian(x: np.ndarray) -> tuple:
        return ((0, 0, 1.0),)

    return StateSpaceModel(
        name="shared_increment", f_a=f_a, jacobian_A=jacobian,
        observe_H=None, extract_freq=_angle_freq(sample_rate_hz),
        Cu=cu, Cn=cn, initial_state=_start(sample_rate_hz, "x"),
    )


# ---------------------------------------------------------------------------
# filter runners


@dataclass
class FreqTrace:
    """The per-tick outputs of one filter row; index 0 reflects the initial state.

    ``innovation_power`` and ``states`` are None unless the run kept detail
    for the row.
    """

    t_s: np.ndarray
    f_hat_hz: np.ndarray
    innovation_power: np.ndarray | None
    states: np.ndarray | None  # (n_ticks, n) posterior top halves
    flags: np.ndarray
    f_true_hz: np.ndarray | None = None


@dataclass
class FilterRun:
    """What :func:`run_filter` produced: arrays shaped (seeds, ticks), ``flags`` as ``uint8``.

    ``innovation_power`` and the posterior top halves ``states`` (one more
    axis, of the state entries) hold only the leading ``detail`` seed rows,
    and are None without detail.
    """

    t_s: np.ndarray
    f_hat_hz: np.ndarray
    flags: np.ndarray
    f_true_hz: np.ndarray | None = None
    innovation_power: np.ndarray | None = None
    states: np.ndarray | None = None

    def _view(self, index: tuple, f_true) -> FreqTrace:
        row = range(self.f_hat_hz.shape[0])[index[0]]
        detail = self.states is not None and row < self.states.shape[0]
        return FreqTrace(
            t_s=self.t_s,
            f_hat_hz=self.f_hat_hz[index],
            innovation_power=self.innovation_power[index] if detail else None,
            states=self.states[index] if detail else None,
            flags=self.flags[index],
            f_true_hz=f_true,
        )

    def trace(self, row: int = 0) -> FreqTrace:
        """The view of one seed row; a row without detail has no states."""
        return self._view((row,), self.f_true_hz)


#: ticks whose frequencies the tick loop reads in one call: a call costs about as
#: much for 16 ticks as for one, and longer blocks only raise the peak memory
_EXTRACT_BLOCK_TICKS = 16
#: ticks of observations that a driver hands the tick loop at a time
_OBS_BLOCK_TICKS = 128


def _run_ticks(step, state, xs: tuple, blocks, shape: tuple, extract: Callable, detail, row_name):
    """The tick loop under both drivers: per-tick bookkeeping and the degenerate-tick error.

    ``blocks`` yields the observations of the ``shape = batch + (ticks,)``
    run in order, b ticks at a time as a batch-last (b, rows) array; a
    block's tick t steps on the view ``block[t:t+1]``.  ``step(state, y)``
    advances every batch row one tick on y (1, rows) and returns ``(state,
    out, xs)``: its next state, the :class:`_Stepped` whose innovation is
    kept and a tuple of posterior top halves (n, rows), the frequency read
    off the first; ``state`` and ``xs`` come in at tick 0.  Each tick only
    buffers, as (n, ticks, *batch); frequencies, kept posteriors and
    innovation power are written once per block of ticks.  Returns the
    estimates and ``uint8`` flags (*batch, ticks), the leading ``kept =
    min(detail, batch[0])`` rows of each posterior (kept, *batch[1:], ticks,
    n) and of the innovation power (kept, *batch[1:], ticks), None without
    kept rows.  A negative ``detail`` raises
    ValueError.  A degenerate step is raised again as "tick k:
    <row_name(row)>: ..." with ``tick`` and ``row`` set.
    """
    batch, n_ticks = shape[:-1], shape[-1]
    kept = min(int(detail), shape[0])
    if kept < 0:
        raise ValueError(f"detail must be at least 0, got {detail}")
    f_hat = np.empty(shape)
    flags = np.zeros(shape, dtype=np.uint8)
    posts = [np.empty((kept,) + shape[1:] + x.shape[:1], complex) if kept else None for x in xs]
    innov = np.zeros((kept,) + shape[1:]) if kept else None
    ticks = min(_EXTRACT_BLOCK_TICKS, n_ticks)
    held = [np.empty((len(x), ticks) + batch, complex) for x in (xs if kept else xs[:1])]
    innovs = np.zeros((ticks,) + batch, complex) if kept else None  # tick 0 has none

    for k, y in enumerate(block[i : i + 1] for block in blocks for i in range(len(block))):
        t = k % ticks
        if k:
            try:
                state, out, xs = step(state, y)
            except FilterDegenerateError as exc:
                err = FilterDegenerateError(f"tick {k}: {row_name(exc.row)}: {exc}")
                err.tick, err.row = k, exc.row
                raise err from exc
            if kept:
                innovs[t] = out.innov[0].reshape(batch)
        for buf, x in zip(held, xs):
            buf[:, t] = x.reshape((len(x),) + batch)
        if t == ticks - 1 or k == n_ticks - 1:
            done = slice(k - t, k + 1)
            f, flag = (np.moveaxis(a, 0, -1) for a in extract(held[0][:, : t + 1]))
            f_hat[..., done], flags[..., done] = f, flag
            if kept:
                for post, buf in zip(posts, held):
                    post[..., done, :] = np.moveaxis(buf[:, : t + 1, :kept], (0, 1), (-1, -2))
                innov[..., done] = np.moveaxis(np.abs(innovs[: t + 1, :kept]) ** 2, 0, -1)
    return f_hat, flags, posts, innov


def run_filter(
    model: StateSpaceModel,
    samples: np.ndarray,
    sample_rate_hz: float,
    f_true: np.ndarray | None = None,
    detail: int = 0,
) -> FilterRun:
    """Run a model over Clarke voltage series, every seed row in one batch.

    ``samples`` is one series (ticks,) or a batch (seeds, ticks); each row
    starts from its first sample and evolves exactly as it would alone, and
    the result is shaped (seeds, ticks) either way; the tick loop reads a
    complex ``samples`` through views.  Non-finite samples are rejected
    before any step.  ``detail`` is the number of leading rows whose states
    and innovation power are kept (``True`` is 1).  A degenerate step
    raises :class:`FilterDegenerateError` naming the tick and the row.
    """
    v = np.atleast_2d(np.asarray(samples, dtype=complex))
    if v.size == 0:
        raise ValueError("empty sample series")
    bad = np.argwhere(~np.isfinite(v))
    if bad.size:
        row, k = bad[0]
        raise ValueError(f"row {row}, tick {k}: non-finite sample {v[row, k]}")

    plan = _StepPlan(model, v.shape[:1])
    x0, m0 = model.initial_state(v[:, 0])

    def step(state, y):
        out = plan.step(*state, y)
        return out[:2], out, (out.x,)

    f_hat, flags, (states,), innov = _run_ticks(
        step, (x0, m0[..., None]), (x0,),
        (v[:, k0 : k0 + _OBS_BLOCK_TICKS].T for k0 in range(0, v.shape[1], _OBS_BLOCK_TICKS)),
        v.shape, model.extract_freq, detail, lambda row: f"row {row[0]}",
    )
    return FilterRun(
        t_s=np.arange(v.shape[1]) / sample_rate_hz,
        f_hat_hz=f_hat,
        flags=flags,
        f_true_hz=None if f_true is None else np.asarray(f_true, dtype=float),
        innovation_power=innov,
        states=states,
    )
