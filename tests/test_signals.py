"""Tests for scenario sampling, the Clarke transform and sequence splitting."""

import math

import numpy as np
import pytest

from gridfreq.signals import (
    CLARKE,
    CLARKE_INV,
    ConstantFreq,
    RampFreq,
    Scenario,
    ScenarioError,
    ScenarioSegment,
    clarke_arrays,
    generate_arrays,
    pos_neg_decompose,
    sequence_amplitudes,
    sequence_components,
)


def balanced(f_hz=50.0, fs=1000.0, duration=1.0):
    return Scenario(
        [ScenarioSegment(0.0, duration, ConstantFreq(f_hz))],
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
        orig = np.random.default_rng(2).normal(size=(20, 3))
        v0, v = clarke_arrays(orig)
        back = np.stack([v0, v.real, v.imag], axis=-1) @ CLARKE_INV.T
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
                ScenarioSegment(0.0, 0.1, ConstantFreq(50.0)),
                ScenarioSegment(0.1, 0.2, ConstantFreq(52.0)),
                ScenarioSegment(0.2, 0.3, RampFreq(52.0, 10.0)),
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
                ScenarioSegment(0.0, 0.5, ConstantFreq(50.0)),
                ScenarioSegment(0.5, 1.5, RampFreq(50.0, 10.0)),
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
        noisy = generate_arrays(scn, seed=123, snr_db=30.0)
        noise = noisy - clean
        p_sig = np.mean(clean**2, axis=0)
        p_noise = np.mean(noise**2, axis=0)
        snr = 10 * np.log10(p_sig / p_noise)
        np.testing.assert_allclose(snr, 30.0, atol=0.5)

    def test_seeded_noise_is_deterministic(self):
        scn = balanced(duration=0.5)
        a = generate_arrays(scn, seed=42, snr_db=20.0)
        b = generate_arrays(scn, seed=42, snr_db=20.0)
        np.testing.assert_array_equal(a, b)
        c = generate_arrays(scn, seed=43, snr_db=20.0)
        assert np.any(a != c)

    def test_invalid_scenario_raises(self):
        gapped = Scenario(
            [
                ScenarioSegment(0.0, 0.4, ConstantFreq(50.0)),
                ScenarioSegment(0.5, 1.0, ConstantFreq(50.0)),
            ],
            sample_rate_hz=1000.0,
            duration_s=1.0,
        )
        with pytest.raises(ScenarioError, match="gap"):
            generate_arrays(gapped)

    def test_validate_reports_nyquist_and_amplitude(self):
        scn = Scenario(
            [ScenarioSegment(0.0, 1.0, ConstantFreq(600.0), amplitudes=(-1.0, 1.0, 1.0))],
            sample_rate_hz=1000.0,
            duration_s=1.0,
        )
        problems = "\n".join(scn.validate())
        assert "Nyquist" in problems
        assert "amplitude" in problems


class TestSequenceComponents:
    def test_balanced_has_no_negative_sequence(self):
        a, b = sequence_components(1.0, 1.0, 1.0)
        assert a == pytest.approx(math.sqrt(6) / 2, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_type_a_sag(self):
        # 80 % drop on phase a.
        a, b = sequence_components(0.2, 1.0, 1.0)
        assert a == pytest.approx(0.898146, abs=1e-6)
        assert b.real == pytest.approx(-0.326599, abs=1e-6)
        assert b.imag == pytest.approx(0.0, abs=1e-12)

    def test_matches_general_form_at_zero_offsets(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            amps = rng.uniform(0.1, 1.5, size=3)
            a_ref, b_ref = sequence_components(*amps)
            a_gen, b_gen = sequence_amplitudes(amps)
            assert a_gen == pytest.approx(a_ref, abs=1e-12)
            assert b_gen == pytest.approx(b_ref, abs=1e-12)

    def test_general_form_against_least_squares_oracle(self):
        # Independent check of the closed-form amplitudes: fit the two
        # rotating exponentials to a noiseless unbalanced waveform directly.
        amps = (0.3, 1.1, 0.8)
        offs = (0.1, -0.2, 0.35)
        f, fs = 50.0, 1000.0
        scn = Scenario(
            [ScenarioSegment(0.0, 0.2, ConstantFreq(f), amplitudes=amps, phase_offsets_rad=offs)],
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
            [ScenarioSegment(0.0, 0.1, ConstantFreq(f), amplitudes=amps)],
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
            [ScenarioSegment(0.0, 0.06, ConstantFreq(f), amplitudes=(0.2, 1.0, 1.0))],
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

