"""Tests for the augmented Kalman engine and the three frequency trackers."""

import math

import numpy as np
import pytest

from gridfreq.augmented import AugmentedMatrix, AugmentedVector, augment
from gridfreq.estimators import (
    FLAG_NEGATIVE_IM_H,
    FLAG_SEQUENCE_DOMINANCE,
    FilterDegenerateError,
    FilterState,
    StateSpaceModel,
    acekf_step,
    lss_model,
    nss_model,
    run_filter,
    run_filter_batch,
    sequence_observation,
    shared_increment_model,
    with_sequence_observation,
    wlss_model,
    write_trace_csv,
)
from gridfreq.signals import (
    ConstantFreq,
    Scenario,
    ScenarioSegment,
    clarke_arrays,
    generate_arrays,
)

FS = 1000.0


def make_scenario(amps=(1.0, 1.0, 1.0), f_hz=50.0, duration=1.0, offs=(0.0, 0.0, 0.0)):
    return Scenario(
        [ScenarioSegment(0.0, duration, ConstantFreq(f_hz), amplitudes=amps, phase_offsets_rad=offs)],
        sample_rate_hz=FS,
        duration_s=duration,
    )


def clarke_series(scn, seed=None, snr_db=None):
    return clarke_arrays(generate_arrays(scn, seed=seed, snr_db=snr_db))[1]


def numeric_jacobian(f, s, eps=1e-7):
    """Central differences treating every augmented entry as independent."""
    n = s.size
    jac = np.zeros((n, n), dtype=complex)
    for j in range(n):
        up, down = s.copy(), s.copy()
        up[j] += eps
        down[j] -= eps
        jac[:, j] = (f(up) - f(down)) / (2 * eps)
    return jac


class TestJacobians:
    @pytest.mark.parametrize("factory", [lss_model, wlss_model, nss_model, shared_increment_model])
    def test_matches_finite_differences(self, factory):
        model = factory(FS)
        rng = np.random.default_rng(17)
        for _ in range(5):
            s = rng.normal(size=model.n_states) + 1j * rng.normal(size=model.n_states)
            analytic = model.jacobian_A(s)
            numeric = numeric_jacobian(model.f_a, s)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("factory", [lss_model, wlss_model, nss_model])
    def test_jacobian_is_structured_at_conjugate_states(self, factory):
        # At a conjugate-consistent state, the Jacobian carries the augmented
        # block structure, so prediction preserves it.
        model = factory(FS)
        rng = np.random.default_rng(3)
        n = model.n_states // 2
        top = rng.normal(size=n) + 1j * rng.normal(size=n)
        j = model.jacobian_A(augment(top).materialize())
        np.testing.assert_allclose(j[n:, n:], np.conj(j[:n, :n]), atol=1e-15)
        np.testing.assert_allclose(j[n:, :n], np.conj(j[:n, n:]), atol=1e-15)


class TestEngine:
    def test_scalar_gain_matches_hand_kalman(self):
        # Identity model, identity observation, Cu = 0, Cn = I: one update
        # from covariance m*I must use gain m/(m+1).
        model = StateSpaceModel(
            name="unit",
            n_states=2,
            f_a=lambda s: s,
            jacobian_A=lambda s: np.broadcast_to(np.eye(2, dtype=complex), s.shape[:-1] + (2, 2)),
            observe_H=lambda x: np.eye(2, dtype=complex),
            extract_freq=lambda x: (np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1], int)),
            Cu=AugmentedMatrix.diagonal([0.0]),
            Cn=AugmentedMatrix.eye(1, 1.0),
            initial_state=None,
        )
        m0 = 0.5
        st = FilterState(augment([0.0 + 0j]), AugmentedMatrix.eye(1, m0), 0)
        y = 1.0 + 0j
        new = acekf_step(model, st, y)
        gain = m0 / (m0 + 1.0)
        assert new.x_hat.top[0] == pytest.approx(gain * y, abs=1e-12)
        assert new.M.block11[0, 0] == pytest.approx((1 - gain) * m0, abs=1e-12)
        assert new.k == 1

    def test_step_preserves_structure_and_psd(self):
        scn = make_scenario(amps=(0.2, 1.0, 1.0))
        v = clarke_series(scn, seed=1, snr_db=30.0)
        model = nss_model(FS, snr_db=30.0)
        st = model.initial_state(v[0])
        for k in range(1, 300):
            st = acekf_step(model, st, v[k])
        # covariance block must stay Hermitian PSD, pseudo block symmetric
        eigs = np.linalg.eigvalsh(st.M.block11)
        assert eigs.min() >= -1e-10
        np.testing.assert_allclose(st.M.block12, st.M.block12.T, atol=1e-12)
        assert st.k == 299

    def test_lss_fixed_point_on_truth(self):
        # Starting exactly at the true state of a balanced noiseless signal,
        # the innovation vanishes and one step returns the true next state.
        scn = make_scenario()
        v = clarke_series(scn)
        x_true = np.exp(2j * np.pi * 50.0 / FS)
        model = lss_model(FS)
        st = FilterState(augment([x_true, v[0]]), AugmentedMatrix.eye(2, 0.1), 0)
        new = acekf_step(model, st, v[1])
        assert abs(new.x_hat.top[0] - x_true) < 1e-10
        assert abs(new.x_hat.top[1] - v[1]) < 1e-10

    def test_degenerate_innovation_covariance_raises(self):
        model = StateSpaceModel(
            name="degenerate",
            n_states=2,
            f_a=lambda s: s,
            jacobian_A=lambda s: np.eye(2, dtype=complex),
            observe_H=lambda x: np.zeros((2, 2), dtype=complex),  # S = Cn = 0
            extract_freq=lambda x: (np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1], int)),
            Cu=AugmentedMatrix.diagonal([0.0]),
            Cn=AugmentedMatrix.diagonal([0.0]),
            initial_state=None,
        )
        st = FilterState(augment([1.0 + 0j]), AugmentedMatrix.eye(1, 0.1), 0)
        with pytest.raises(FilterDegenerateError, match="filter degenerate"):
            acekf_step(model, st, 1.0 + 0j)


class TestFrequencyExtraction:
    def test_lss_reads_angle(self):
        model = lss_model(FS)
        x = augment([np.exp(2j * np.pi * 50.0 / FS), 1.0]).materialize()
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(50.0, abs=1e-9)
        assert int(flags) == 0

    def test_lss_zero_increment_flagged(self):
        model = lss_model(FS)
        f, flags = model.extract_freq(augment([0.0, 1.0]).materialize())
        assert math.isnan(float(f))
        assert int(flags) == 1

    def test_wlss_balanced_weights(self):
        # h = e^{j pi/6}, g = 0 inverts to arcsin(1/2)/(2 pi dT) = 1000/12 Hz.
        model = wlss_model(FS)
        x = augment([np.exp(1j * np.pi / 6), 0.0, 1.0]).materialize()
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(1000.0 / 12.0, abs=1e-9)
        assert int(flags) == 0

    def test_wlss_boundary_gives_zero(self):
        # |g| equal to Im(h): radicand is exactly zero, frequency reads zero.
        model = wlss_model(FS)
        h = 0.8 + 0.3j
        x = augment([h, 0.3j, 1.0]).materialize()
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(0.0, abs=1e-12)
        assert int(flags) == 0

    def test_wlss_guard_flags(self):
        model = wlss_model(FS)
        f, flags = model.extract_freq(augment([0.9 + 0.1j, 0.5, 1.0]).materialize())
        assert int(flags) & FLAG_SEQUENCE_DOMINANCE
        assert float(f) == pytest.approx(0.0, abs=1e-12)  # clamped radicand
        _, flags = model.extract_freq(augment([0.9 - 0.2j, 0.0, 1.0]).materialize())
        assert int(flags) & FLAG_NEGATIVE_IM_H

    def test_nss_reads_angle_without_guards(self):
        model = nss_model(FS)
        x = augment([np.exp(2j * np.pi * 52.0 / FS), 0.9, 0.3j]).materialize()
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(52.0, abs=1e-9)
        assert int(flags) == 0

    def test_principal_branch_range(self):
        model = nss_model(FS)
        for f_true in (-499.0, -100.0, 499.0, 500.0):
            x = augment([np.exp(2j * np.pi * f_true / FS), 1.0, 0.0]).materialize()
            f, _ = model.extract_freq(x)
            assert -FS / 2 < float(f) <= FS / 2
            expected = f_true if f_true <= FS / 2 else f_true - FS
            assert float(f) == pytest.approx(expected, abs=1e-9)


class TestRunFilter:
    def test_trace_shape_and_time(self):
        scn = make_scenario(duration=0.3)
        v = clarke_series(scn, seed=2, snr_db=30.0)
        trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq())
        assert trace.k.size == scn.n_samples
        assert np.all(np.diff(trace.k) == 1)
        assert trace.t_s[10] == pytest.approx(0.010)
        assert trace.f_true_hz is not None

    def test_lss_converges_on_balanced_noiseless(self):
        scn = make_scenario(duration=1.0)
        trace = run_filter(lss_model(FS), clarke_series(scn), FS)
        tail = trace.f_hat_hz[-200:]
        assert np.max(np.abs(tail - 50.0)) < 1e-6

    def test_wlss_and_nss_converge_on_unbalanced_noiseless(self):
        scn = make_scenario(amps=(0.2, 1.0, 1.0), f_hz=52.0, duration=1.5)
        v = clarke_series(scn)
        for factory in (wlss_model, nss_model):
            trace = run_filter(factory(FS), v, FS)
            tail = trace.f_hat_hz[-200:]
            assert np.max(np.abs(tail - 52.0)) < 1e-3, factory.__name__

    def test_nss_recovers_sequence_ratio_under_sag(self):
        # Steady-state sequence-voltage magnitudes should reproduce the
        # analytic amplitude ratio |B|/|A| = 0.326599/0.898146.
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=1.5)
        trace = run_filter(nss_model(FS), clarke_series(scn), FS)
        ratio = np.abs(trace.states[-1, 2]) / np.abs(trace.states[-1, 1])
        assert ratio == pytest.approx(0.326599 / 0.898146, abs=1e-3)

    def test_nss_steps_from_detuned_init(self):
        # Initialized 1 Hz off, the tracker reaches the true frequency within
        # 0.2 s on clean data.
        scn = make_scenario(duration=0.5)
        v = clarke_series(scn)
        model = nss_model(FS)
        trace = run_filter(model, v, FS, init=model.initial_state(v[0], f_init_hz=49.0))
        settled = trace.f_hat_hz[200:]
        assert np.max(np.abs(settled - 50.0)) < 1e-3

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, v: run_filter(model, v, FS),
            lambda model, v: run_filter_batch(model, np.stack([v, v])),
        ],
        ids=["run_filter", "run_filter_batch"],
    )
    def test_degenerate_error_carries_tick(self, run):
        model = lss_model(FS)
        bad = StateSpaceModel(
            name="bad", n_states=4, f_a=model.f_a, jacobian_A=model.jacobian_A,
            observe_H=lambda x: np.zeros((2, 4), dtype=complex),
            extract_freq=model.extract_freq,
            Cu=AugmentedMatrix.diagonal([0.0, 0.0]),
            Cn=AugmentedMatrix.diagonal([0.0]),
            initial_state=model.initial_state,
        )
        v = clarke_series(make_scenario(duration=0.05))
        with pytest.raises(FilterDegenerateError, match="tick 1"):
            run(bad, v)


class TestBatchRunner:
    def test_matches_sequential_runs(self):
        scn = make_scenario(duration=0.25)
        seeds = [11, 12, 13]
        series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in seeds])
        model = nss_model(FS, snr_db=30.0)
        f_batch, flags_batch = run_filter_batch(model, series)
        for i, s in enumerate(seeds):
            trace = run_filter(model, series[i], FS)
            np.testing.assert_array_equal(f_batch[i], trace.f_hat_hz)
            np.testing.assert_array_equal(flags_batch[i], trace.flags)


class TestSharedIncrementModel:
    def test_two_stage_tracks_frequency(self):
        # Feed the shared model observation matrices from the sequence
        # tracker, mirroring how a node combines the two filters.
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=1.0)
        v = clarke_series(scn)
        aux_model = nss_model(FS)
        shared = shared_increment_model(FS)
        aux = aux_model.initial_state(v[0])
        st = shared.initial_state(v[0])
        for k in range(1, v.size):
            vp, vm = aux.x_hat.top[1], aux.x_hat.top[2]
            aux = acekf_step(aux_model, aux, v[k])
            st = acekf_step(with_sequence_observation(shared, vp, vm), st, v[k])
        f, _ = shared.extract_freq(st.x_hat.materialize())
        assert float(f) == pytest.approx(50.0, abs=1e-3)

    def test_placeholder_observation_raises(self):
        shared = shared_increment_model(FS)
        st = shared.initial_state(1.0 + 0j)
        with pytest.raises(RuntimeError, match="with_sequence_observation"):
            acekf_step(shared, st, 1.0 + 0j)

    def test_sequence_observation_structure(self):
        h = sequence_observation(0.3 + 1j, -0.2j)
        np.testing.assert_array_equal(h[0], [0.3 + 1j, -0.2j])
        np.testing.assert_array_equal(h[1], np.conj([-0.2j, 0.3 + 1j]))


def test_trace_csv_format(tmp_path):
    scn = make_scenario(duration=0.05)
    v = clarke_series(scn, seed=3, snr_db=30.0)
    trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq())
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,t_s,f_hat_hz,f_true_hz,err_hz,innov_power,flags"
    assert len(lines) == 1 + scn.n_samples
    cells = lines[2].split(",")
    assert int(cells[0]) == 1
    assert float(cells[3]) == 50.0
    assert float(cells[4]) == pytest.approx(float(cells[2]) - 50.0, rel=1e-10)
