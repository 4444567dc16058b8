"""Three-phase voltage synthesis and the Clarke (alpha-beta) transform.

Scenarios are piecewise segment descriptions (amplitudes, phase offsets and a
frequency profile per segment).  Sampling accumulates phase across segment
boundaries so frequency steps and ramps never introduce phase jumps.  Phases
b and c lag a by 120 and 240 degrees respectively, which makes the complex
Clarke voltage of a balanced system rotate at +f:

    v_k = sqrt(3/2) * V * exp(j(2 pi f dT k + phi))

Unbalanced amplitudes add a counter-rotating component, turning the circular
trajectory into an ellipse; ``sequence_components`` and
``pos_neg_decompose`` quantify the two rotating parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT23 = math.sqrt(2.0 / 3.0)

#: Clarke transform: rows map (va, vb, vc) to (v0, valpha, vbeta).
CLARKE = _SQRT23 * np.array(
    [
        [math.sqrt(2) / 2, math.sqrt(2) / 2, math.sqrt(2) / 2],
        [1.0, -0.5, -0.5],
        [0.0, math.sqrt(3) / 2, -math.sqrt(3) / 2],
    ]
)

# The matrix is orthogonal, so the inverse is its transpose.
CLARKE_INV = CLARKE.T.copy()

_PHASE_LAGS = np.array([0.0, -2.0 * np.pi / 3.0, -4.0 * np.pi / 3.0])


class ScenarioError(ValueError):
    """Raised when a scenario description is inconsistent."""


@dataclass(frozen=True)
class ConstantFreq:
    f_hz: float

    def at(self, dt_s: float) -> float:
        return self.f_hz

    def bounds(self, span_s: float) -> tuple[float, float]:
        return self.f_hz, self.f_hz


@dataclass(frozen=True)
class RampFreq:
    f0_hz: float
    rate_hz_per_s: float

    def at(self, dt_s: float) -> float:
        return self.f0_hz + self.rate_hz_per_s * dt_s

    def bounds(self, span_s: float) -> tuple[float, float]:
        end = self.f0_hz + self.rate_hz_per_s * span_s
        return min(self.f0_hz, end), max(self.f0_hz, end)


FreqProfile = ConstantFreq | RampFreq


@dataclass(frozen=True)
class ScenarioSegment:
    """One homogeneous stretch of the scenario timeline.

    ``phase_offsets_rad`` are per-phase offsets added on top of the built-in
    0/-120/-240 degree lags.
    """

    start_s: float
    end_s: float
    freq: FreqProfile
    amplitudes: tuple[float, float, float] = (1.0, 1.0, 1.0)
    phase_offsets_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    segments: tuple[ScenarioSegment, ...]
    sample_rate_hz: float
    duration_s: float

    def __init__(self, segments: Sequence[ScenarioSegment], sample_rate_hz: float, duration_s: float):
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "sample_rate_hz", float(sample_rate_hz))
        object.__setattr__(self, "duration_s", float(duration_s))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    def validate(self) -> list[str]:
        """Return a list of human-readable problems (empty when valid)."""
        problems: list[str] = []
        if self.sample_rate_hz <= 0:
            problems.append(f"sample_rate_hz: must be positive, got {self.sample_rate_hz}")
        if self.duration_s <= 0:
            problems.append(f"duration_s: must be positive, got {self.duration_s}")
        if not self.segments:
            problems.append("segments: scenario needs at least one segment")
            return problems
        if abs(self.segments[0].start_s) > 1e-9:
            problems.append(
                f"segments[0].start_s: timeline must start at 0, got {self.segments[0].start_s}"
            )
        for i, seg in enumerate(self.segments):
            if seg.end_s <= seg.start_s:
                problems.append(f"segments[{i}]: end_s {seg.end_s} not after start_s {seg.start_s}")
            if i and abs(seg.start_s - self.segments[i - 1].end_s) > 1e-9:
                problems.append(
                    f"segments[{i}].start_s: gap or overlap against segments[{i - 1}].end_s"
                    f" ({self.segments[i - 1].end_s} -> {seg.start_s})"
                )
            if any(a < 0 for a in seg.amplitudes):
                problems.append(f"segments[{i}].amplitudes: negative amplitude {seg.amplitudes}")
            lo, hi = seg.freq.bounds(seg.end_s - seg.start_s)
            if max(abs(lo), abs(hi)) >= self.sample_rate_hz / 2:
                problems.append(
                    f"segments[{i}].freq: |f| in [{lo}, {hi}] reaches the Nyquist limit"
                    f" {self.sample_rate_hz / 2}"
                )
        if self.segments[-1].end_s < self.duration_s - 1e-9:
            problems.append(
                f"segments[-1].end_s: coverage stops at {self.segments[-1].end_s} before"
                f" duration_s {self.duration_s}"
            )
        return problems

    def segment_index(self, k: np.ndarray) -> np.ndarray:
        """Active segment index for each tick (samples live in [start, end))."""
        starts = np.array([s.start_s for s in self.segments])
        t = np.asarray(k, dtype=float) / self.sample_rate_hz
        return np.clip(np.searchsorted(starts, t + 1e-12, side="right") - 1, 0, len(starts) - 1)

    def true_freq(self, n: int | None = None) -> np.ndarray:
        """Instantaneous frequency at each tick (the phase-increment rate)."""
        n = self.n_samples if n is None else n
        k = np.arange(n)
        idx = self.segment_index(k)
        t = k / self.sample_rate_hz
        f = np.empty(n)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if mask.any():
                f[mask] = seg.freq.at(t[mask] - seg.start_s) if isinstance(seg.freq, RampFreq) else seg.freq.f_hz
        return f


def generate_arrays(
    scenario: Scenario, seed: int | Sequence[int] | None = None, snr_db: float | None = None
) -> np.ndarray:
    """Sample a scenario, returning an (n, 3) array of phase voltages.

    Phase is accumulated across ticks so segment changes in frequency keep the
    waveform continuous.  When ``snr_db`` is given, independent zero-mean
    Gaussian noise with variance 0.5 * 10^(-snr_db/10) (per-unit amplitude
    reference) is added to each phase.
    """
    problems = scenario.validate()
    if problems:
        raise ScenarioError("; ".join(problems))
    n = scenario.n_samples
    dt = 1.0 / scenario.sample_rate_hz
    k = np.arange(n)
    idx = scenario.segment_index(k)

    f = scenario.true_freq(n)
    theta = np.empty(n)
    theta[0] = 0.0
    np.cumsum(2.0 * np.pi * dt * f[:-1], out=theta[1:])

    amps = np.array([s.amplitudes for s in scenario.segments])[idx]  # (n, 3)
    offs = np.array([s.phase_offsets_rad for s in scenario.segments])[idx]
    phases = theta[:, None] + offs + _PHASE_LAGS
    v = amps * np.cos(phases)

    if snr_db is not None:
        sigma = math.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))
        rng = np.random.default_rng(seed)
        v = v + rng.normal(0.0, sigma, size=(n, 3))
    return v


def clarke_arrays(vabc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clarke-transform an (n, 3) phase array into (v0, complex v) arrays."""
    comps = vabc @ CLARKE.T
    return comps[..., 0], comps[..., 1] + 1j * comps[..., 2]


def sequence_components(va_amp: float, vb_amp: float, vc_amp: float) -> tuple[float, complex]:
    """Rotating-component amplitudes for unequal phase amplitudes.

    For a system with amplitudes (Va, Vb, Vc) and a common phase offset phi on
    all three phases, the Clarke voltage splits into
    A * exp(j(theta+phi)) + B * exp(-j(theta+phi)) with the returned (A, B).
    Balanced input gives B = 0 (circular trajectory).
    """
    a = math.sqrt(6.0) * (va_amp + vb_amp + vc_amp) / 6.0
    b = complex(
        math.sqrt(6.0) * (2.0 * va_amp - vb_amp - vc_amp) / 12.0,
        -math.sqrt(2.0) * (vb_amp - vc_amp) / 4.0,
    )
    return a, b


def sequence_amplitudes(
    amplitudes: Sequence[float], phase_offsets_rad: Sequence[float] = (0.0, 0.0, 0.0)
) -> tuple[complex, complex]:
    """General rotating-component amplitudes with per-phase offsets.

    Splitting each phase cosine into counter-rotating exponentials and pushing
    them through the Clarke transform gives v_k = A e^{j theta} + B e^{-j theta}
    with

        A = sqrt(6)/6 * (Va e^{j phi_a} + Vb e^{j phi_b} + Vc e^{j phi_c})
        B = sqrt(6)/6 * (Va e^{-j phi_a} + Vb e^{-j(phi_b + 2pi/3)}
                         + Vc e^{-j(phi_c - 2pi/3)})

    With equal offsets this reduces to ``sequence_components`` times
    e^{+/- j phi}.
    """
    va, vb, vc = amplitudes
    pa, pb, pc = phase_offsets_rad
    scale = math.sqrt(6.0) / 6.0
    a = scale * (va * np.exp(1j * pa) + vb * np.exp(1j * pb) + vc * np.exp(1j * pc))
    b = scale * (
        va * np.exp(-1j * pa)
        + vb * np.exp(-1j * (pb + 2.0 * np.pi / 3.0))
        + vc * np.exp(-1j * (pc - 2.0 * np.pi / 3.0))
    )
    return complex(a), complex(b)


def pos_neg_decompose(
    samples: np.ndarray,
    f_hz: float,
    sample_rate_hz: float,
    window: int | None = None,
) -> list[tuple[complex, complex]]:
    """Split a Clarke voltage series into counter-rotating parts.

    Fits c+ e^{j theta_k} + c- e^{-j theta_k} by least squares over a sliding
    window (default: one period of ``f_hz``) and evaluates both terms at each
    tick.  On noiseless constant-parameter input the reconstruction
    v+ + v- = v is exact and each part advances by e^{+/- j 2 pi f dT}.
    """
    v = np.asarray(samples, dtype=complex)
    n = v.size
    if n < 2:
        raise ValueError("need at least two samples to separate two rotating parts")
    if window is None:
        window = max(2, int(round(sample_rate_hz / abs(f_hz)))) if f_hz else n
    window = min(max(2, window), n)
    theta = 2.0 * np.pi * f_hz * np.arange(n) / sample_rate_hz
    basis = np.stack([np.exp(1j * theta), np.exp(-1j * theta)], axis=1)

    out: list[tuple[complex, complex]] = []
    coeffs = None
    last_anchor = -1
    for k in range(n):
        anchor = min(max(k, window - 1), n - 1)
        if anchor != last_anchor:
            lo = anchor - window + 1
            coeffs = np.linalg.lstsq(basis[lo : anchor + 1], v[lo : anchor + 1], rcond=None)[0]
            last_anchor = anchor
        out.append((complex(coeffs[0] * basis[k, 0]), complex(coeffs[1] * basis[k, 1])))
    return out
