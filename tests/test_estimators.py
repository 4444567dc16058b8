"""Tests for the augmented Kalman engine and the three frequency trackers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfreq.estimators
from gridfreq.augmented import AugmentedMatrix, AugmentedVector
from gridfreq.cli import _trace_table, _write_csv
from gridfreq.estimators import (
    FLAG_NEGATIVE_IM_H,
    FLAG_SEQUENCE_DOMINANCE,
    FilterDegenerateError,
    FilterState,
    StateSpaceModel,
    _step,
    lss_model,
    nss_model,
    run_filter,
    shared_increment_model,
    with_sequence_observation,
    wlss_model,
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


def step(model, state, y):
    """One engine step on a bare complex observation."""
    return _step(model, state, AugmentedVector(np.atleast_1d(y)))[0]


def wirtinger_jacobian(f, x, eps=1e-7):
    """Central differences for the Wirtinger pair (df/dx, df/dconj(x)).

    With x_j = a + ib, df/dx_j = (df/da - i df/db) / 2 and
    df/dconj(x_j) = (df/da + i df/db) / 2.
    """
    n = x.size
    d_re = np.zeros((n, n), dtype=complex)
    d_im = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        d_re[:, j] = (f(x + e) - f(x - e)) / (2 * eps)
        d_im[:, j] = (f(x + 1j * e) - f(x - 1j * e)) / (2 * eps)
    return (d_re - 1j * d_im) / 2, (d_re + 1j * d_im) / 2


class TestJacobians:
    @pytest.mark.parametrize("factory", [lss_model, wlss_model, nss_model, shared_increment_model])
    def test_matches_finite_differences(self, factory):
        model = factory(FS)
        rng = np.random.default_rng(17)
        n = model.Cu.block11.shape[-1]
        for _ in range(5):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            analytic = model.jacobian_A(x)
            d_x, d_conj = wirtinger_jacobian(model.f_a, x)
            np.testing.assert_allclose(analytic.block11, d_x, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(analytic.block12, d_conj, rtol=1e-6, atol=1e-8)


def _hconj(a):
    return np.conj(np.swapaxes(a, -1, -2))


def dense_step(model, state, y):
    """Reference step on materialized 2n x 2n matrices.

    This is the engine's algorithm written densely: no block products, a
    generic matrix inverse, and both halves of the state updated.  Returns
    (x_post, M_post), the largest magnitude among the operands each was last
    computed from (the scale rounding errors are relative to) and the largest
    condition number of S (the factor by which the gain amplifies them).
    """
    n = state.x_hat.n
    x_pred = AugmentedVector(model.f_a(state.x_hat.top)).materialize()
    a = model.jacobian_A(state.x_hat.top).materialize()
    h = model.observe_H.materialize()
    m_prior = a @ state.M.materialize() @ _hconj(a) + model.Cu.materialize()
    s = h @ m_prior @ _hconj(h) + model.Cn.materialize()
    gain = m_prior @ _hconj(h) @ np.linalg.inv(s)
    innov = y.materialize() - (h @ x_pred[..., None])[..., 0]
    correction = (gain @ innov[..., None])[..., 0]
    m_post = (np.eye(2 * n) - gain @ h) @ m_prior
    scales = (max(np.max(np.abs(x_pred)), np.max(np.abs(correction))), np.max(np.abs(m_prior)))
    cond = np.max(np.linalg.cond(s))
    return x_pred + correction, (m_post + _hconj(m_post)) / 2, scales, cond


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _assert_close(got, want, scale, cond):
    # 1e-12 relative; an ill-conditioned S allows 10 ulp-sized errors per unit of cond(S)
    assert np.max(np.abs(got - want)) <= max(1e-12, 1e-15 * cond) * scale


class TestBlockStepMatchesDense:
    """The block-form step equals the dense step on random structured inputs."""

    @pytest.mark.parametrize("name", ["lss", "wlss", "nss", "shared_increment"])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    )
    def test_random_structured_states(self, name, seed, batch):
        rng = np.random.default_rng(seed)
        if name == "shared_increment":
            model = with_sequence_observation(
                shared_increment_model(FS, snr_db=30.0),
                _complex_normal(rng, batch),
                _complex_normal(rng, batch),
            )
        else:
            factory = {"lss": lss_model, "wlss": wlss_model, "nss": nss_model}[name]
            model = factory(FS, snr_db=30.0)
        n = model.Cu.block11.shape[-1]
        # a Hermitian positive definite covariance with augmented structure
        b = AugmentedMatrix(
            _complex_normal(rng, batch + (n, n)), _complex_normal(rng, batch + (n, n))
        )
        m = b @ b.H + AugmentedMatrix.eye(n, 0.1)
        state = FilterState(AugmentedVector(_complex_normal(rng, batch + (n,))), m, 0)
        y = AugmentedVector(_complex_normal(rng, batch + (1,)))

        new, _ = _step(model, state, y)
        x_post, m_post, (x_scale, m_scale), cond = dense_step(model, state, y)
        _assert_close(new.x_hat.materialize(), x_post, x_scale, cond)
        _assert_close(new.M.materialize(), m_post, m_scale, cond)


class TestEngine:
    def test_scalar_gain_matches_hand_kalman(self):
        # Identity model, identity observation, Cu = 0, Cn = I: one update
        # from covariance m*I must use gain m/(m+1).
        model = StateSpaceModel(
            name="unit",
            f_a=lambda x: x,
            jacobian_A=lambda x: AugmentedMatrix.eye(1),
            observe_H=AugmentedMatrix.eye(1),
            extract_freq=lambda x: (np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1], int)),
            Cu=AugmentedMatrix.diagonal([0.0]),
            Cn=AugmentedMatrix.eye(1, 1.0),
            initial_state=None,
        )
        m0 = 0.5
        st = FilterState(AugmentedVector([0.0 + 0j]), AugmentedMatrix.eye(1, m0), 0)
        y = 1.0 + 0j
        new = step(model, st, y)
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
            st = step(model, st, v[k])
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
        st = FilterState(AugmentedVector([x_true, v[0]]), AugmentedMatrix.eye(2, 0.1), 0)
        new = step(model, st, v[1])
        assert abs(new.x_hat.top[0] - x_true) < 1e-10
        assert abs(new.x_hat.top[1] - v[1]) < 1e-10

    def test_degenerate_innovation_covariance_raises(self):
        model = StateSpaceModel(
            name="degenerate",
            f_a=lambda x: x,
            jacobian_A=lambda x: AugmentedMatrix.eye(1),
            observe_H=AugmentedMatrix.eye(1, 0.0),  # S = Cn = 0
            extract_freq=lambda x: (np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1], int)),
            Cu=AugmentedMatrix.diagonal([0.0]),
            Cn=AugmentedMatrix.diagonal([0.0]),
            initial_state=None,
        )
        st = FilterState(AugmentedVector([1.0 + 0j]), AugmentedMatrix.eye(1, 0.1), 0)
        with pytest.raises(FilterDegenerateError, match="filter degenerate"):
            step(model, st, 1.0 + 0j)


class TestFrequencyExtraction:
    def test_lss_reads_angle(self):
        model = lss_model(FS)
        x = AugmentedVector([np.exp(2j * np.pi * 50.0 / FS), 1.0]).top
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(50.0, abs=1e-9)
        assert int(flags) == 0

    def test_lss_zero_increment_flagged(self):
        model = lss_model(FS)
        f, flags = model.extract_freq(AugmentedVector([0.0, 1.0]).top)
        assert math.isnan(float(f))
        assert int(flags) == 1

    def test_wlss_balanced_weights(self):
        # h = e^{j pi/6}, g = 0 inverts to arcsin(1/2)/(2 pi dT) = 1000/12 Hz.
        model = wlss_model(FS)
        x = AugmentedVector([np.exp(1j * np.pi / 6), 0.0, 1.0]).top
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(1000.0 / 12.0, abs=1e-9)
        assert int(flags) == 0

    def test_wlss_boundary_gives_zero(self):
        # |g| equal to Im(h): radicand is exactly zero, frequency reads zero.
        model = wlss_model(FS)
        h = 0.8 + 0.3j
        x = AugmentedVector([h, 0.3j, 1.0]).top
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(0.0, abs=1e-12)
        assert int(flags) == 0

    def test_wlss_guard_flags(self):
        model = wlss_model(FS)
        f, flags = model.extract_freq(AugmentedVector([0.9 + 0.1j, 0.5, 1.0]).top)
        assert int(flags) & FLAG_SEQUENCE_DOMINANCE
        assert float(f) == pytest.approx(0.0, abs=1e-12)  # clamped radicand
        _, flags = model.extract_freq(AugmentedVector([0.9 - 0.2j, 0.0, 1.0]).top)
        assert int(flags) & FLAG_NEGATIVE_IM_H

    def test_nss_reads_angle_without_guards(self):
        model = nss_model(FS)
        x = AugmentedVector([np.exp(2j * np.pi * 52.0 / FS), 0.9, 0.3j]).top
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(52.0, abs=1e-9)
        assert int(flags) == 0

    def test_principal_branch_range(self):
        model = nss_model(FS)
        for f_true in (-499.0, -100.0, 499.0, 500.0):
            x = AugmentedVector([np.exp(2j * np.pi * f_true / FS), 1.0, 0.0]).top
            f, _ = model.extract_freq(x)
            assert -FS / 2 < float(f) <= FS / 2
            expected = f_true if f_true <= FS / 2 else f_true - FS
            assert float(f) == pytest.approx(expected, abs=1e-9)


class TestRunFilter:
    def test_trace_shape_and_time(self):
        scn = make_scenario(duration=0.3)
        v = clarke_series(scn, seed=2, snr_db=30.0)
        trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq()).trace()
        assert trace.k.size == scn.n_samples
        assert np.all(np.diff(trace.k) == 1)
        assert trace.t_s[10] == pytest.approx(0.010)
        assert trace.f_true_hz is not None

    def test_lss_converges_on_balanced_noiseless(self):
        scn = make_scenario(duration=1.0)
        trace = run_filter(lss_model(FS), clarke_series(scn), FS).trace()
        tail = trace.f_hat_hz[-200:]
        assert np.max(np.abs(tail - 50.0)) < 1e-6

    def test_wlss_and_nss_converge_on_unbalanced_noiseless(self):
        scn = make_scenario(amps=(0.2, 1.0, 1.0), f_hz=52.0, duration=1.5)
        v = clarke_series(scn)
        for factory in (wlss_model, nss_model):
            trace = run_filter(factory(FS), v, FS).trace()
            tail = trace.f_hat_hz[-200:]
            assert np.max(np.abs(tail - 52.0)) < 1e-3, factory.__name__

    def test_nss_recovers_sequence_ratio_under_sag(self):
        # Steady-state sequence-voltage magnitudes should reproduce the
        # analytic amplitude ratio |B|/|A| = 0.326599/0.898146.
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=1.5)
        trace = run_filter(nss_model(FS), clarke_series(scn), FS, detail=True).trace()
        ratio = np.abs(trace.states[-1, 2]) / np.abs(trace.states[-1, 1])
        assert ratio == pytest.approx(0.326599 / 0.898146, abs=1e-3)

    def test_nss_steps_from_detuned_init(self):
        # Initialized 1 Hz off, the tracker reaches the true frequency within
        # 0.2 s on clean data.
        scn = make_scenario(duration=0.5)
        v = clarke_series(scn)
        model = nss_model(FS)
        trace = run_filter(model, v, FS, init=model.initial_state(v[0], f_init_hz=49.0)).trace()
        settled = trace.f_hat_hz[200:]
        assert np.max(np.abs(settled - 50.0)) < 1e-3

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, v: run_filter(model, v, FS),
            lambda model, v: run_filter(model, np.stack([v, v]), FS),
        ],
        ids=["1-d", "batch"],
    )
    def test_degenerate_error_carries_tick(self, run):
        model = lss_model(FS)
        bad = StateSpaceModel(
            name="bad", f_a=model.f_a, jacobian_A=model.jacobian_A,
            observe_H=AugmentedMatrix(np.zeros((1, 2)), np.zeros((1, 2))),
            extract_freq=model.extract_freq,
            Cu=AugmentedMatrix.diagonal([0.0, 0.0]),
            Cn=AugmentedMatrix.diagonal([0.0]),
            initial_state=model.initial_state,
        )
        v = clarke_series(make_scenario(duration=0.05))
        with pytest.raises(FilterDegenerateError, match="tick 1"):
            run(bad, v)

    @pytest.mark.parametrize("rows, at", [(1, (0, 5)), (3, (2, 7))], ids=["1-d", "batch"])
    def test_non_finite_sample_rejected_before_any_step(self, monkeypatch, rows, at):
        v = np.stack([clarke_series(make_scenario(duration=0.05))] * rows)
        v[at] = np.nan if rows == 1 else complex(1.0, np.inf)
        steps = []
        monkeypatch.setattr(gridfreq.estimators, "_step", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match=f"row {at[0]}, tick {at[1]}: non-finite"):
            run_filter(lss_model(FS), v[0] if rows == 1 else v, FS)
        assert not steps


class TestBatchRunner:
    @settings(max_examples=20, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        factory=st.sampled_from([lss_model, wlss_model, nss_model]),
    )
    def test_matches_sequential_runs(self, seeds, factory):
        # every batch row, detail included, is exactly the run of that row alone
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.1)
        series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in seeds])
        model = factory(FS, snr_db=30.0)
        batch = run_filter(model, series, FS, detail=True)
        for i in range(len(seeds)):
            alone = run_filter(model, series[i], FS, detail=True)
            for field in ("f_hat_hz", "flags", "states", "innovation_power"):
                np.testing.assert_array_equal(getattr(batch, field)[i], getattr(alone, field)[0])


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
            aux = step(aux_model, aux, v[k])
            st = step(with_sequence_observation(shared, vp, vm), st, v[k])
        f, _ = shared.extract_freq(st.x_hat.top)
        assert float(f) == pytest.approx(50.0, abs=1e-3)

    def test_placeholder_observation_raises(self):
        shared = shared_increment_model(FS)
        st = shared.initial_state(1.0 + 0j)
        with pytest.raises(RuntimeError, match="with_sequence_observation"):
            step(shared, st, 1.0 + 0j)

    def test_sequence_observation_structure(self):
        # the bound observation maps x to v+ x + v- conj(x)
        vp, vm = 0.3 + 1j, -0.2j
        h = with_sequence_observation(shared_increment_model(FS), vp, vm).observe_H
        x = np.array([[0.8 - 0.6j], [1j], [-2.0]])
        got = (h @ AugmentedVector(x)).top
        np.testing.assert_allclose(got, vp * x + vm * np.conj(x), rtol=1e-15)


def test_trace_csv_format(tmp_path):
    scn = make_scenario(duration=0.05)
    v = clarke_series(scn, seed=3, snr_db=30.0)
    trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq(), detail=True)
    path = tmp_path / "trace.csv"
    _, header, columns = _trace_table("trace.csv", trace.trace())
    _write_csv(path, header, columns)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "k,t_s,f_hat_hz,f_true_hz,err_hz,innov_power,flags"
    assert lines[-1] == "" and len(lines) == 2 + scn.n_samples
    cells = lines[2].split(",")
    assert int(cells[0]) == 1
    assert float(cells[3]) == 50.0
    assert float(cells[4]) == pytest.approx(float(cells[2]) - 50.0, rel=1e-10)
    # a NaN truth gives NaN cells, not blanks
    blind = dataclasses.replace(trace.trace(), f_true_hz=np.full(scn.n_samples, np.nan))
    _write_csv(path, *_trace_table("trace.csv", blind)[1:])
    assert path.read_text().splitlines()[2].split(",")[3:5] == ["nan", "nan"]
