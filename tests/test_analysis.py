"""Tests for error metrics, the network error recursions, and spectra."""

import math
import types

import numpy as np
import pytest

from gridfreq.analysis import (
    AnalysisError,
    empirical_mse,
    error_spectrum,
    initial_network_state,
    mean_error_step,
    mse_step,
)
from gridfreq.augmented import AugmentedMatrix, AugmentedVector
from gridfreq.cli import _write_csv
from gridfreq.estimators import (
    FreqTrace,
    StepDiagnostics,
    lss_model,
    nss_model,
    run_filter,
    shared_increment_model,
)
from gridfreq.network import (
    BridgeAssignment,
    Topology,
    conventional_weights,
    reference_network,
    run_distributed,
    uniform_weights,
)
from gridfreq.signals import ConstantFreq, Scenario, ScenarioSegment, clarke_arrays, generate_arrays

FS = 1000.0


def make_scenario(duration, amps=(1.0, 1.0, 1.0), offs=(0.0, 0.0, 0.0)):
    return Scenario(
        [ScenarioSegment(0.0, duration, ConstantFreq(50.0), amplitudes=amps, phase_offsets_rad=offs)],
        sample_rate_hz=FS,
        duration_s=duration,
    )


def make_trace(err, f0=50.0):
    err = np.asarray(err, dtype=float)
    k = np.arange(err.size)
    return FreqTrace(
        k=k,
        t_s=k / FS,
        f_hat_hz=f0 + err,
        innovation_power=np.zeros(err.size),
        states=np.zeros((err.size, 1), dtype=complex),
        flags=np.zeros(err.size, dtype=int),
        f_true_hz=f0,
    )


def make_run(err, f0=50.0):
    """A one-node, one-seed batch result whose error series is ``err``."""
    err = np.asarray(err, dtype=float)
    return types.SimpleNamespace(
        node_ids=(1,), f_hat_hz=(f0 + err)[None, None], f_true_hz=np.full((1, err.size), f0)
    )


class TestEmpiricalMse:
    def test_exact_trace_scores_zero(self):
        report = empirical_mse(make_run(np.zeros(100)), window=(0, 100))
        assert report.empirical_mse_hz2[1] == 0.0

    def test_constant_offset_squares(self):
        report = empirical_mse(make_run(np.full(100, 0.1)), window=(50, 100))
        assert report.empirical_mse_hz2[1] == pytest.approx(0.01)

    def test_mc_variant_averages_symmetric_errors(self):
        e = 0.35
        f_hat = np.stack([np.full((1, 40), 50.0 + e), np.full((1, 40), 50.0 - e)])
        mc = types.SimpleNamespace(node_ids=(7,), f_hat_hz=f_hat)
        report = empirical_mse(mc, window=(0, 40), f_true=50.0)
        assert report.empirical_mse_hz2[7] == pytest.approx(e**2)

    def test_empty_window_rejected(self):
        with pytest.raises(AnalysisError, match="empty"):
            empirical_mse(make_run(np.zeros(10)), window=(5, 5))

    def test_window_outside_trace_rejected(self):
        with pytest.raises(AnalysisError, match="outside"):
            empirical_mse(make_run(np.zeros(10)), window=(0, 11))


def half_step_diag(n=1):
    """One node's tick diagnostics with A = I and, for n = 1, K H = I/2.

    The correction map F = I - K H is then exactly 1/2, and so is
    M_post / M_prior.
    """
    ones, zeros = np.ones((1, n)), np.zeros((1, n))
    return StepDiagnostics(
        innovation=AugmentedVector(np.zeros(1)),
        H=AugmentedMatrix(ones, zeros),
        gain=AugmentedMatrix(0.5 * ones.T, zeros.T),
        M_prior=AugmentedMatrix.eye(n),
        M_post=AugmentedMatrix.eye(n, 0.5),
        A=AugmentedMatrix.eye(n),
    )


def single_node_state(M0=np.eye(2)):
    zero = np.zeros((2, 2))
    return initial_network_state((0,), (0,), [[1.0]], [[1.0]], M0=M0, Cu=zero, Cn=zero)


class TestMeanErrorStep:
    def test_zero_means_stay_zero(self):
        out = mean_error_step(
            {0: AugmentedVector(np.zeros(1, dtype=complex))}, single_node_state(), half_step_diag()
        )
        assert out[0].top[0] == 0.0

    def test_halving_correction_halves_the_mean(self):
        # A = I and K H = I/2 make the correction map exactly 1/2
        state = single_node_state()
        means = {0: AugmentedVector(np.array([0.8 - 0.4j]))}
        for expect in (0.4 - 0.2j, 0.2 - 0.1j, 0.1 - 0.05j):
            means = mean_error_step(means, state, half_step_diag())
            assert means[0].top[0] == pytest.approx(expect)

    def test_monte_carlo_mean_stays_on_zero_fixed_point(self):
        # unbiased start: the recursion predicts zero mean error throughout,
        # and the shared-increment network should agree to Monte-Carlo noise
        scn = make_scenario(0.06)
        t3 = Topology((1, 2, 3), [(1, 2), (2, 3)])
        b3 = BridgeAssignment(t3, {2})
        mc = run_distributed(t3, scn, range(500), snr_db=50.0, assignment=b3, detail=True)
        err = mc.states[..., 0] - np.exp(2j * np.pi * 50.0 / FS)
        for k in range(1, 51):
            for j in range(3):
                emp = err[:, j, k]
                se = np.sqrt((np.var(emp.real) + np.var(emp.imag)) / err.shape[0])
                assert abs(np.mean(emp)) <= 3 * se, f"node {j + 1}, tick {k}"

    def test_monte_carlo_tracks_biased_transient(self, theory_log):
        # full-state mode: a 1 Hz initialization bias decays through the
        # correction maps of a reference run; 500-seed empirical means must follow
        scn = make_scenario(0.06)
        t3 = Topology((1, 2, 3), [(1, 2), (2, 3)])
        b3 = BridgeAssignment(t3, {2})
        ref = run_distributed(
            t3, scn, [0], snr_db=None, mode="distributed-acekf", assignment=b3,
            f_init_hz=49.0, theory=True,
        )
        x_true = np.exp(2j * np.pi * 50.0 / FS)
        e0 = np.array([np.exp(2j * np.pi * 49.0 / FS) - x_true, 0.0, 0.0], dtype=complex)
        means = {n: AugmentedVector(e0) for n in t3.node_ids}
        theory = [dict(means)]
        for diag, _ in theory_log[:50]:
            means = mean_error_step(means, ref.error_state, diag)
            theory.append(means)

        mc = run_distributed(
            t3, scn, range(500), snr_db=50.0, mode="distributed-acekf",
            assignment=b3, f_init_hz=49.0, detail=True,
        )
        err = mc.states[..., 0] - x_true
        for k in range(1, 51):
            for j, n in enumerate(t3.node_ids):
                emp = err[:, j, k]
                se = np.sqrt((np.var(emp.real) + np.var(emp.imag)) / err.shape[0])
                z = abs(np.mean(emp) - theory[k][n].top[0]) / se
                assert z <= 3, f"node {n}, tick {k}: {z:.2f}"
        # the transient itself is visible at the first corrected tick
        assert abs(theory[1][1].top[0]) > 1e-3


class TestMseStep:
    def test_zero_noise_zero_init_stays_zero(self):
        state = single_node_state(M0=np.zeros((2, 2)))
        for _ in range(5):
            state = mse_step(state, half_step_diag())
        assert np.all(state.sigma(0) == 0)
        assert np.all(state.v(0, 0) == 0)

    def test_single_node_matches_filter_covariance(self, theory_log):
        # with one node the recursion is the Joseph-form covariance update,
        # so it must reproduce the filter's own M sequence
        scn = make_scenario(0.2)
        t1 = Topology((0,), [])
        run_distributed(t1, scn, [0], snr_db=30.0, theory=True)
        assert len(theory_log) == scn.n_samples - 1
        for diag, state in theory_log:
            assert np.max(np.abs(state.sigma(0) - diag.M_post.materialize()[0, 0])) < 1e-9

    def test_nonbridge_trace_bounded_by_worst_serving_bridge(self, theory_log):
        # a path with two serving bridges per interior non-bridge makes the
        # convexity bound strict rather than degenerate
        scn = make_scenario(0.2)
        t5 = Topology((1, 2, 3, 4, 5), [(1, 2), (2, 3), (3, 4), (4, 5)])
        b5 = BridgeAssignment(t5, {1, 3, 5})
        run_distributed(t5, scn, [0], snr_db=30.0, assignment=b5, theory=True)
        saw_strict = False
        for k, (_, state) in enumerate(theory_log):
            for i in (2, 4):
                tr = np.trace(state.sigma(i)).real
                bound = max(np.trace(state.v(y, y)).real for y in b5.bridges_of(i))
                assert tr <= bound * (1 + 1e-9), f"node {i}, tick {k}"
                saw_strict = saw_strict or tr < bound * 0.999
        assert saw_strict

    def test_preserves_hermitian_psd(self):
        scn = make_scenario(0.1)
        t, b = reference_network()
        run = run_distributed(t, scn, [1], snr_db=30.0, assignment=b, theory=True)
        state = run.error_state
        np.testing.assert_array_equal(state.E, state.E.conj().T)
        assert np.min(np.linalg.eigvalsh(state.E)) > -1e-12

    def test_sigma_iterates_converge(self, theory_log):
        scn = make_scenario(1.0)
        t, b = reference_network()
        run_distributed(t, scn, [0], snr_db=30.0, assignment=b, theory=True)
        prev = None
        delta = np.inf
        for _, state in theory_log:
            sigma = {i: state.sigma(i) for i in t.node_ids}
            if prev is not None:
                delta = max(np.linalg.norm(sigma[i] - prev[i]) for i in t.node_ids)
            prev = sigma
        assert delta < 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="expected"):
            mse_step(single_node_state(), half_step_diag(n=2))

    def test_state_requires_every_node_covered(self):
        # node 2 has no aggregation row and nothing redistributes to it
        with pytest.raises(AnalysisError, match="neither"):
            initial_network_state(
                (1, 2), (1,), [[1.0, 0.0]], [[1.0], [0.0]],
                np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
            )

    def test_unknown_aggregator_rejected(self):
        with pytest.raises(AnalysisError, match="unknown"):
            initial_network_state(
                (1,), (9,), [[1.0]], [[1.0]], np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))
            )

    def test_stage_shapes_must_match_the_nodes(self):
        with pytest.raises(AnalysisError, match="do not match"):
            initial_network_state(
                (1, 2), (1,), [[1.0]], [[1.0], [1.0]],
                np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
            )


def dense_reference_step(E, node_ids, weights, recs, U, G):
    """The error recursion as a dense dict loop, the semantics the stacked step keeps.

    ``recs`` maps node -> materialized filter matrices of one tick.  Each
    node's correction map is F = M_post M_prior^-1, and the aggregation
    (beta F A), process-noise (beta F) and observation-noise (beta K) maps
    are filled block by block from the weight rows; ``U`` and ``G`` are the
    block-diagonal noise covariances.  Returns (V, next E).
    """
    aggs = sorted(weights.beta, key=str)
    pos = {n: j for j, n in enumerate(node_ids)}
    d, d_obs = recs[node_ids[0]]["gain"].shape
    rows, cols = len(aggs) * d, len(node_ids) * d
    Gamma = np.zeros((rows, cols), dtype=complex)
    R = np.zeros_like(Gamma)
    Q = np.zeros((rows, len(node_ids) * d_obs), dtype=complex)
    for a, y in enumerate(aggs):
        for m, b in weights.beta[y].items():
            rec, j = recs[m], pos[m]
            F = rec["M_post"] @ np.linalg.inv(rec["M_prior"])
            Gamma[a * d : (a + 1) * d, j * d : (j + 1) * d] = b * (F @ rec["A"])
            R[a * d : (a + 1) * d, j * d : (j + 1) * d] = b * F
            Q[a * d : (a + 1) * d, j * d_obs : (j + 1) * d_obs] = b * rec["gain"]
    V = Gamma @ E @ Gamma.conj().T + R @ U @ R.conj().T + Q @ G @ Q.conj().T
    V = 0.5 * (V + V.conj().T)
    W = np.zeros((cols, rows))
    for i in node_ids:
        serving = {i: 1.0} if i in weights.beta and i not in weights.gamma else weights.gamma[i]
        for y, g in serving.items():
            a = aggs.index(y)
            W[pos[i] * d : (pos[i] + 1) * d, a * d : (a + 1) * d] = g * np.eye(d)
    E = W @ V @ W.T
    return V, 0.5 * (E + E.conj().T)


def blockdiag(block, n):
    return np.kron(np.eye(n), block)


class TestStackedRecursionMatchesDenseReference:
    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    @pytest.mark.parametrize("diffusion", ["bridge", "conventional"])
    def test_every_tick(self, theory_log, mode, diffusion):
        t, b = reference_network()
        w = conventional_weights(t) if diffusion == "conventional" else uniform_weights(t, b)
        model = (shared_increment_model if mode == "dfe" else nss_model)(FS, snr_db=30.0)
        cu, cn = model.Cu.materialize(), model.Cn.materialize()
        n = len(t.node_ids)
        scn = make_scenario(
            0.15, amps=(0.2, 1.0, 1.0), offs=(0.0, math.radians(20.0), math.radians(-20.0))
        )
        for seed in (0, 7):
            theory_log.clear()
            run_distributed(
                t, scn, [seed], snr_db=30.0, mode=mode, diffusion=diffusion,
                assignment=b, theory=True,
            )
            assert len(theory_log) == scn.n_samples - 1
            E = blockdiag(0.1 * np.eye(len(cu)), n)
            U, G = blockdiag(cu, n), blockdiag(cn, n)
            for k, (diag, state) in enumerate(theory_log, start=1):
                fields = ("M_prior", "M_post", "A", "gain")
                full = {f: getattr(diag, f).materialize() for f in fields}
                recs = {
                    node: {f: m[0, j] if m.ndim > 2 else m for f, m in full.items()}
                    for j, node in enumerate(t.node_ids)
                }
                V, E = dense_reference_step(E, t.node_ids, w, recs, U, G)
                assert state.aggregator_ids == tuple(sorted(w.beta, key=str))
                for got, want, what in ((state.V, V, "V"), (state.E, E, "Sigma")):
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert err <= 1e-12, f"seed {seed}, tick {k}: {what} off by {err:.2e}"


class TestErrorSpectrum:
    def test_pure_tone_peaks_at_its_frequency(self):
        n = 1024
        tone = 0.2 * np.sin(2 * np.pi * 100.0 * np.arange(n) / FS)
        spec = error_spectrum(make_trace(tone), window=(0, n))
        assert spec.peak_freq_hz == pytest.approx(100.0, abs=FS / n)
        assert spec.peak_power > 10 * np.median(spec.power)

    def test_white_noise_has_no_dominant_peak(self):
        rng = np.random.default_rng(2024)
        spec = error_spectrum(make_trace(rng.normal(size=2048)), window=(0, 2048))
        assert spec.peak_power < 5 * np.median(spec.power[1:])

    def test_short_window_rejected(self):
        with pytest.raises(AnalysisError, match="512"):
            error_spectrum(make_trace(np.zeros(600)), window=(0, 400))

    def test_window_beyond_trace_rejected(self):
        with pytest.raises(AnalysisError, match="outside"):
            error_spectrum(make_trace(np.zeros(600)), window=(0, 700))

    def test_strictly_linear_filter_oscillates_at_twice_mains(self):
        # an unbalanced sag makes the proper-signal model's error spin at 2f
        scn = make_scenario(
            1.5, amps=(0.2, 1.0, 1.0), offs=(0.0, math.radians(20.0), math.radians(-20.0))
        )
        v = clarke_arrays(generate_arrays(scn, seed=5, snr_db=30.0))[1]
        trace = run_filter(lss_model(FS, snr_db=30.0), v, FS).trace()
        err_trace = FreqTrace(
            k=trace.k, t_s=trace.t_s, f_hat_hz=trace.f_hat_hz,
            innovation_power=trace.innovation_power, states=trace.states,
            flags=trace.flags, f_true_hz=50.0,
        )
        spec = error_spectrum(err_trace, window=(500, 1500))
        assert abs(spec.peak_freq_hz - 100.0) < 2.0


class TestCsvExports:
    def test_mse_report_with_theory_columns(self, tmp_path):
        header = ["node", "empirical_mse_hz2", "theoretical_trace", "bound_ok"]
        mse = np.array([0.5, 0.25])
        path = tmp_path / "mse.csv"
        _write_csv(path, header, [[1, 2], mse, np.array([0.125, 0.1 + 0.2]), [True, False]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node,empirical_mse_hz2,theoretical_trace,bound_ok"
        assert lines[1] == "1,0.5,0.125,True"
        assert lines[2] == "2,0.25,0.3,False"
        # without theory both columns stay blank
        _write_csv(path, header, [[1, 2], mse, [None, None], [None, None]])
        assert path.read_bytes() == (
            b"node,empirical_mse_hz2,theoretical_trace,bound_ok\r\n1,0.5,,\r\n2,0.25,,\r\n"
        )

    def test_spectrum_csv(self, tmp_path):
        n = 1024
        tone = np.sin(2 * np.pi * 50.0 * np.arange(n) / FS)
        spec = error_spectrum(make_trace(tone), window=(0, n))
        path = tmp_path / "spec.csv"
        _write_csv(path, ["freq_hz", "power"], [spec.freq_hz, spec.power])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,power"
        assert len(lines) == 1 + spec.freq_hz.size
