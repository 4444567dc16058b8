"""Tests for scenario sampling, the Clarke transform and sequence splitting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfreq.signals import (
    CLARKE,
    Scenario,
    ScenarioError,
    ScenarioSegment,
    add_noise,
    clarke_arrays,
    generate_arrays,
    pos_neg_decompose,
    sequence_amplitudes,
)


def balanced(f_hz=50.0, fs=1000.0, duration=1.0):
    return Scenario(
        [ScenarioSegment(0.0, duration, f_hz)],
        sample_rate_hz=fs,
        duration_s=duration,
    )


class TestClarke:
    def test_equal_phases_all_zero_sequence(self):
        v0, v = clarke_arrays(np.array([1.0, 1.0, 1.0]))
        assert v0 == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert abs(v) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_snapshot(self):
        # Balanced system frozen at theta = 0: (1, -1/2, -1/2).
        v0, v = clarke_arrays(np.array([1.0, -0.5, -0.5]))
        assert v0 == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_matrix_is_orthogonal(self):
        np.testing.assert_allclose(CLARKE @ CLARKE.T, np.eye(3), atol=1e-15)

    def test_round_trip(self):
        # the matrix is orthogonal, so its inverse is its transpose
        orig = np.random.default_rng(2).normal(size=(20, 3))
        v0, v = clarke_arrays(orig)
        back = (CLARKE.T @ np.stack([v0, v.real, v.imag])).T
        np.testing.assert_allclose(back, orig, atol=1e-12)


class TestGenerate:
    def test_quarter_period_snapshot(self):
        # 50 Hz at 1 kHz: five ticks accumulate theta = pi/2, where phase a
        # crosses zero and b/c sit at +/- sqrt(3)/2.
        va, vb, vc = generate_arrays(balanced())[5]
        assert va == pytest.approx(0.0, abs=1e-12)
        assert vb == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert vc == pytest.approx(-math.sqrt(3) / 2, abs=1e-12)

    def test_balanced_clarke_rotates_positively(self):
        scn = balanced(f_hz=50.0, fs=1000.0, duration=0.2)
        _, v = clarke_arrays(generate_arrays(scn))
        k = np.arange(scn.n_samples)
        expected = math.sqrt(1.5) * np.exp(1j * 2 * np.pi * 50.0 * k / 1000.0)
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_phase_continuous_across_frequency_step(self):
        scn = Scenario(
            [
                ScenarioSegment(0.0, 0.1, 50.0),
                ScenarioSegment(0.1, 0.2, 52.0),
                ScenarioSegment(0.2, 0.3, 52.0, rate_hz_per_s=10.0),
            ],
            sample_rate_hz=1000.0,
            duration_s=0.3,
        )
        _, v = clarke_arrays(generate_arrays(scn))
        dphi = np.angle(v[1:] / v[:-1])  # per-tick rotation
        f_max = 53.0
        assert np.all(np.abs(dphi) <= 2 * np.pi * f_max / 1000.0 + 1e-9)
        # and the rotation matches the declared instantaneous frequency
        np.testing.assert_allclose(dphi, 2 * np.pi * scn.true_freq()[:-1] / 1000.0, atol=1e-9)

    def test_true_freq_profiles(self):
        scn = Scenario(
            [
                ScenarioSegment(0.0, 0.5, 50.0),
                ScenarioSegment(0.5, 1.5, 50.0, rate_hz_per_s=10.0),
            ],
            sample_rate_hz=1000.0,
            duration_s=1.5,
        )
        f = scn.true_freq()
        assert f[0] == 50.0
        assert f[499] == 50.0
        assert f[500] == pytest.approx(50.0)
        assert f[1000] == pytest.approx(55.0)  # 0.5 s into the ramp
        assert f[1499] == pytest.approx(59.99)

    def test_noise_calibration(self):
        # Measured per-phase SNR over 10 s should sit within half a dB of the target.
        scn = balanced(duration=10.0)
        clean = generate_arrays(scn)
        noisy = add_noise(clean, 123, 30.0)
        noise = noisy - clean
        p_sig = np.mean(clean**2, axis=0)
        p_noise = np.mean(noise**2, axis=0)
        snr = 10 * np.log10(p_sig / p_noise)
        np.testing.assert_allclose(snr, 30.0, atol=0.5)

    def test_seeded_noise_is_deterministic(self):
        scn = balanced(duration=0.5)
        a = add_noise(generate_arrays(scn), 42, 20.0)
        b = add_noise(generate_arrays(scn), 42, 20.0)
        np.testing.assert_array_equal(a, b)
        c = add_noise(generate_arrays(scn), 43, 20.0)
        assert np.any(a != c)

    def test_invalid_scenario_raises(self):
        gapped = Scenario(
            [
                ScenarioSegment(0.0, 0.4, 50.0),
                ScenarioSegment(0.5, 1.0, 50.0),
            ],
            sample_rate_hz=1000.0,
            duration_s=1.0,
        )
        with pytest.raises(ScenarioError, match="gap"):
            generate_arrays(gapped)

    def test_true_freq_of_invalid_scenario_raises(self):
        with pytest.raises(ScenarioError, match="needs at least one segment"):
            Scenario([], 1000.0, 0.01).true_freq()

    def test_validate_reports_nyquist_and_amplitude(self):
        scn = Scenario(
            [ScenarioSegment(0.0, 1.0, 600.0, amplitudes=(-1.0, 1.0, 1.0))],
            sample_rate_hz=1000.0,
            duration_s=1.0,
        )
        problems = "\n".join(scn.validate())
        assert "Nyquist" in problems
        assert "amplitude" in problems

    @pytest.mark.parametrize(
        "segment, problem",
        [
            (
                ScenarioSegment(0.5, 1.0, 400.0, rate_hz_per_s=300.0),
                "segments[1].freq_start_hz + rate_hz_per_s: |f| in [400.0, 550.0]"
                " reaches the Nyquist limit 500.0",
            ),
            (
                ScenarioSegment(0.5, 1.0, -100.0, rate_hz_per_s=-1000.0),
                "segments[1].freq_start_hz + rate_hz_per_s: |f| in [-600.0, -100.0]"
                " reaches the Nyquist limit 500.0",
            ),
            (
                ScenarioSegment(0.5, 1.0, -500.0),
                "segments[1].freq_hz: |f| in [-500.0, -500.0] reaches the Nyquist limit 500.0",
            ),
        ],
        ids=["rising-ramp", "falling-ramp", "constant"],
    )
    def test_nyquist_problem_names_the_frequency_range(self, segment, problem):
        scn = Scenario([ScenarioSegment(0.0, 0.5, 50.0), segment], 1000.0, 1.0)
        assert scn.validate() == [problem]


def _old_rule_true_freq(scn: Scenario, ramps: set) -> np.ndarray:
    """Per-segment reference: the level itself for a constant segment, and
    ``f0 + rate * (t - start)`` for each segment index in ``ramps``."""
    k = np.arange(scn.n_samples)
    idx = scn.segment_index(k)
    t = k / scn.sample_rate_hz
    f = np.empty(k.size)
    for i, seg in enumerate(scn.segments):
        mask = idx == i
        if i in ramps:
            f[mask] = seg.freq_hz + seg.rate_hz_per_s * (t[mask] - seg.start_s)
        else:
            f[mask] = seg.freq_hz
    return f


_LEVELS = st.sampled_from([-0.0, 0.0, 50.0]) | st.floats(-400.0, 400.0)
#: a ramp's rate; +0.0 is left out, since a segment of rate +0.0 is a constant
_RATES = st.just(-0.0) | st.floats(-1e3, 1e3).filter(lambda r: r != 0)


@st.composite
def _timelines(draw):
    """A scenario of constant and ramp segments whose boundaries fall on ticks,
    plus the indices of its ramp segments."""
    fs = draw(st.sampled_from([500.0, 1000.0, 4096.0]))
    n = draw(st.integers(1, 400))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5))) if n > 1 else []
    edges = [0, *cuts, n]
    segments, ramps = [], set()
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        rate = 0.0
        if draw(st.booleans()):
            rate = draw(_RATES)
            ramps.add(i)
        segments.append(ScenarioSegment(a / fs, b / fs, draw(_LEVELS), rate_hz_per_s=rate))
    return Scenario(segments, fs, n / fs), ramps


class TestTrueFreq:
    @settings(max_examples=200, deadline=None)
    @given(timeline=_timelines())
    @example(
        timeline=(
            Scenario(
                [
                    ScenarioSegment(0.0, 0.01, -0.0),
                    ScenarioSegment(0.01, 0.02, -0.0, rate_hz_per_s=-0.0),
                    ScenarioSegment(0.02, 0.03, 50.0, rate_hz_per_s=10.0),
                ],
                1000.0,
                0.03,
            ),
            {1, 2},
        )
    )
    def test_matches_the_per_segment_rule_bit_for_bit(self, timeline):
        scn, ramps = timeline
        got = scn.true_freq()
        assert got.tobytes() == _old_rule_true_freq(scn, ramps).tobytes()


class TestSequenceComponents:
    def test_balanced_has_no_negative_sequence(self):
        a, b = sequence_amplitudes((1.0, 1.0, 1.0))
        assert a == pytest.approx(math.sqrt(6) / 2, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_type_a_sag(self):
        # 80 % drop on phase a.
        a, b = sequence_amplitudes((0.2, 1.0, 1.0))
        assert a == pytest.approx(0.898146, abs=1e-6)
        assert b.real == pytest.approx(-0.326599, abs=1e-6)
        assert b.imag == pytest.approx(0.0, abs=1e-12)

    def test_general_form_against_least_squares_oracle(self):
        # Independent check of the closed-form amplitudes: fit the two
        # rotating exponentials to a noiseless unbalanced waveform directly.
        amps = (0.3, 1.1, 0.8)
        offs = (0.1, -0.2, 0.35)
        f, fs = 50.0, 1000.0
        scn = Scenario(
            [ScenarioSegment(0.0, 0.2, f, amplitudes=amps, phase_offsets_rad=offs)],
            sample_rate_hz=fs,
            duration_s=0.2,
        )
        _, v = clarke_arrays(generate_arrays(scn))
        theta = 2 * np.pi * f * np.arange(v.size) / fs
        basis = np.stack([np.exp(1j * theta), np.exp(-1j * theta)], axis=1)
        c_pos, c_neg = np.linalg.lstsq(basis, v, rcond=None)[0]
        a, b = sequence_amplitudes(amps, offs)
        assert a == pytest.approx(c_pos, abs=1e-9)
        assert b == pytest.approx(c_neg, abs=1e-9)


class TestPosNegDecompose:
    def test_reconstruction_and_autoregression(self):
        amps = (0.2, 1.0, 1.0)
        f, fs = 50.0, 1000.0
        scn = Scenario(
            [ScenarioSegment(0.0, 0.1, f, amplitudes=amps)],
            sample_rate_hz=fs,
            duration_s=0.1,
        )
        _, v = clarke_arrays(generate_arrays(scn))
        parts = pos_neg_decompose(v, f, fs)
        rot = np.exp(1j * 2 * np.pi * f / fs)
        for k, (vp, vm) in enumerate(parts):
            assert vp + vm == pytest.approx(v[k], abs=1e-9)
            if k:
                prev_p, prev_m = parts[k - 1]
                assert vp == pytest.approx(prev_p * rot, abs=1e-9)
                assert vm == pytest.approx(prev_m / rot, abs=1e-9)

    def test_sag_window_amplitudes(self):
        # One 50 Hz period of the type-A sag recovers the sequence amplitudes.
        f, fs = 50.0, 1000.0
        scn = Scenario(
            [ScenarioSegment(0.0, 0.06, f, amplitudes=(0.2, 1.0, 1.0))],
            sample_rate_hz=fs,
            duration_s=0.06,
        )
        _, v = clarke_arrays(generate_arrays(scn))
        parts = pos_neg_decompose(v, f, fs, window=20)
        assert abs(parts[10][0]) == pytest.approx(0.898146, abs=1e-6)
        assert abs(parts[10][1]) == pytest.approx(0.326599, abs=1e-6)

    def test_accepts_clarke_samples(self):
        # a plain list of complex Clarke samples works like the array
        _, v = clarke_arrays(generate_arrays(balanced(duration=0.05)))
        parts = pos_neg_decompose(list(v), 50.0, 1000.0)
        assert abs(parts[3][1]) == pytest.approx(0.0, abs=1e-9)
        assert parts == pos_neg_decompose(v, 50.0, 1000.0)

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            pos_neg_decompose(np.array([1.0 + 0j]), 50.0, 1000.0)

