"""Tests for error metrics, the network error recursions, and spectra."""

import dataclasses
import math
import numpy as np
import pytest
from dense_reference import complex_normal, full, jacobian

import gridfreq.analysis
from gridfreq.analysis import (
    AnalysisError,
    _full,
    empirical_mse,
    error_spectrum,
    initial_network_state,
    mse_block,
)
from gridfreq.cli import _write_csv
from gridfreq.estimators import (
    FreqTrace,
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
from gridfreq.signals import (
    Scenario,
    ScenarioSegment,
    add_noise,
    clarke_arrays,
    generate_arrays,
)

FS = 1000.0


def make_scenario(duration, amps=(1.0, 1.0, 1.0), offs=(0.0, 0.0, 0.0)):
    return Scenario(
        [ScenarioSegment(0.0, duration, 50.0, amplitudes=amps, phase_offsets_rad=offs)],
        sample_rate_hz=FS,
        duration_s=duration,
    )


def make_trace(err, f0=50.0):
    err = np.asarray(err, dtype=float)
    return FreqTrace(
        t_s=np.arange(err.size) / FS,
        f_hat_hz=f0 + err,
        innovation_power=np.zeros(err.size),
        states=np.zeros((err.size, 1), dtype=complex),
        flags=np.zeros(err.size, dtype=int),
        f_true_hz=np.full(err.size, f0),
    )


def one_node(err, f0=50.0):
    """The (f_hat, f_true) arrays of one node at one seed whose error series is ``err``."""
    err = np.asarray(err, dtype=float)
    return (f0 + err)[None, None], np.full((1, err.size), f0)


class TestEmpiricalMse:
    def test_exact_trace_scores_zero(self):
        assert empirical_mse(*one_node(np.zeros(100)), window=(0, 100))[0] == 0.0

    def test_constant_offset_squares(self):
        mse = empirical_mse(*one_node(np.full(100, 0.1)), window=(50, 100))
        assert mse[0] == pytest.approx(0.01)

    def test_mc_variant_averages_symmetric_errors(self):
        e = 0.35
        f_hat = np.stack([np.full((1, 40), 50.0 + e), np.full((1, 40), 50.0 - e)])
        mse = empirical_mse(f_hat, np.full((1, 40), 50.0), window=(0, 40))
        assert mse[0] == pytest.approx(e**2)

    def test_each_node_keeps_its_own_mean(self):
        # mse_report.csv prints every bit: one mean per node, not one reduction over the batch
        rng = np.random.default_rng(11)
        f_true = 50.0 + rng.normal(0.0, 0.5, size=(7, 300))
        f_hat = f_true + rng.normal(0.0, 0.05, size=(24, 7, 300))
        lo, hi = 40, 290
        want = [np.mean((f_hat[:, j, lo:hi] - f_true[j, lo:hi]) ** 2) for j in range(7)]
        np.testing.assert_array_equal(empirical_mse(f_hat, f_true, (lo, hi)), want)

    def test_empty_window_rejected(self):
        with pytest.raises(AnalysisError, match="empty"):
            empirical_mse(*one_node(np.zeros(10)), window=(5, 5))

    def test_window_outside_trace_rejected(self):
        with pytest.raises(AnalysisError, match="outside"):
            empirical_mse(*one_node(np.zeros(10)), window=(0, 11))


def half_step_tick(n=1):
    """One node's one-tick block for ``mse_block``, with A = I and, for n = 1,
    K H = I/2: the gain's top block row ``[k11 k12]``, and the H and A terms.

    The correction map F = I - K H is then exactly 1/2.
    """
    gain = np.concatenate([np.full((n, 1), 0.5), np.zeros((n, 1))], axis=-1)
    return gain[None, None], tuple((i, 1.0) for i in range(n)), tuple((i, i, 1.0) for i in range(n))


def single_node_state(M0=np.eye(2)[:1]):
    zero = np.zeros((1, 2))
    return initial_network_state((0,), (0,), [[1.0]], [[1.0]], M0=M0, Cu=zero, Cn=zero)


class TestFull:
    def test_materialize_blocks(self):
        got = _full(np.array([[1 + 1j, 2 - 3j]]))
        expected = np.array([[1 + 1j, 2 - 3j], [2 + 3j, 1 - 1j]])
        np.testing.assert_array_equal(got, expected)
        # a stack of rectangular top block rows (a gain's is n x 2), one matrix each
        top = complex_normal(np.random.default_rng(3), (4, 3, 2))
        assert _full(top).shape == (4, 6, 2)
        for got, one in zip(_full(top), top):
            np.testing.assert_array_equal(got, full(one))


class TestMeanErrorStep:
    def test_monte_carlo_mean_stays_on_zero_fixed_point(self):
        # unbiased start: the shared-increment network's mean error stays at
        # zero, to Monte-Carlo noise, at every node and tick
        scn = make_scenario(0.06)
        t3 = Topology((1, 2, 3), [(1, 2), (2, 3)])
        b3 = BridgeAssignment(t3, {2})
        mc = run_distributed(t3, scn, range(500), snr_db=50.0, assignment=b3, detail=500)
        err = mc.states[..., 0] - np.exp(2j * np.pi * 50.0 / FS)
        for k in range(1, 51):
            for j in range(3):
                emp = err[:, j, k]
                se = np.sqrt((np.var(emp.real) + np.var(emp.imag)) / err.shape[0])
                assert abs(np.mean(emp)) <= 3 * se, f"node {j + 1}, tick {k}"


class TestMseStep:
    def test_zero_noise_zero_init_stays_zero(self):
        state = single_node_state(M0=np.zeros((1, 2)))
        for _ in range(5):
            state, _ = mse_block(state, *half_step_tick())
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
            m_post = full(diag.m[..., 0])
            assert np.max(np.abs(state.sigma(0) - m_post)) < 1e-9

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
            mse_block(single_node_state(), *half_step_tick(n=2))


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


def dense_reference_run(log, t, w, model):
    """(V, E) of :func:`dense_reference_step` after each tick of a theory log,
    started from the run's initial covariance 0.1 I at every node."""
    cu, cn = full(model.Cu), full(model.Cn)
    n = len(t.node_ids)
    E = blockdiag(0.1 * np.eye(len(cu)), n)
    U, G = blockdiag(cu, n), blockdiag(cn, n)
    for diag, _ in log:
        fields = {"M_prior": diag.p, "M_post": diag.m, "gain": diag.k}
        mats = {f: full(a) for f, a in fields.items()}
        mats["A"] = jacobian(diag.A, len(diag.x))
        recs = {  # one seed: row j is node j
            node: {f: m[..., j] if m.ndim > 2 else m for f, m in mats.items()}
            for j, node in enumerate(t.node_ids)
        }
        V, E = dense_reference_step(E, t.node_ids, w, recs, U, G)
        yield V, E


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestStackedRecursionMatchesDenseReference:
    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    @pytest.mark.parametrize("diffusion", ["bridge", "conventional"])
    def test_every_tick(self, theory_log, mode, diffusion):
        t, b = reference_network()
        w = conventional_weights(t) if diffusion == "conventional" else uniform_weights(t, b)
        model = (shared_increment_model if mode == "dfe" else nss_model)(FS, snr_db=30.0)
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
            dense = dense_reference_run(theory_log, t, w, model)
            for k, ((_, state), (V, E)) in enumerate(zip(theory_log, dense), start=1):
                assert state.aggregator_ids == tuple(sorted(w.beta, key=str))
                for got, want, what in ((state.V, V, "V"), (state.E, E, "Sigma")):
                    err = relative_error(got, want)
                    assert err <= 1e-12, f"seed {seed}, tick {k}: {what} off by {err:.2e}"


B = gridfreq.analysis._THEORY_BLOCK_TICKS


class TestBlockBoundaries:
    """The recursion steps over blocks of B ticks: runs that end just before, on
    and just after a block boundary end on the dense reference's state."""

    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    @pytest.mark.parametrize("ticks", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_final_state_matches_dense_reference(self, theory_log, monkeypatch, mode, ticks):
        t, b = reference_network()
        w = uniform_weights(t, b)
        model = (shared_increment_model if mode == "dfe" else nss_model)(FS, snr_db=30.0)
        offs = (0.0, math.radians(20.0), math.radians(-20.0))
        scn = make_scenario((ticks + 1) / FS, amps=(0.2, 1.0, 1.0), offs=offs)
        calls, block = [], gridfreq.analysis.mse_block

        def counted(state, gain, H, A):
            calls.append(len(gain))
            return block(state, gain, H, A)

        monkeypatch.setattr(gridfreq.analysis, "mse_block", counted)
        kw = dict(snr_db=30.0, mode=mode, assignment=b, theory=True)
        alone = run_distributed(t, scn, [5], **kw).error_state
        assert calls == [B] * (ticks // B) + [ticks % B] * (ticks % B > 0)
        assert len(theory_log) == ticks
        *_, (V, E) = dense_reference_run(theory_log, t, w, model)
        for got, want, what in ((alone.V, V, "V"), (alone.E, E, "Sigma")):
            err = relative_error(got, want)
            assert err <= 1e-12, f"{what} off by {err:.2e}"
        batch = run_distributed(t, scn, [5, 6], **kw).error_state
        np.testing.assert_array_equal(batch.E, alone.E)
        np.testing.assert_array_equal(batch.V, alone.V)


@pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
def test_recorder_keeps_copies_of_seed_row_0(monkeypatch, mode):
    # views into the step's (n, 2, seeds * nodes) arrays would pin each kept tick's
    # whole batch until its block is stepped
    kept, finish = [], gridfreq.analysis._TheoryBlock.finish

    def spy(self):
        kept.extend(self.kept)
        return finish(self)

    monkeypatch.setattr(gridfreq.analysis._TheoryBlock, "finish", spy)
    t, b = reference_network()
    scn = make_scenario(0.05, amps=(0.2, 1.0, 1.0))
    run_distributed(t, scn, range(40), snr_db=30.0, mode=mode, assignment=b, theory=True)
    assert len(kept) == scn.n_samples - 1
    n = 1 if mode == "dfe" else 3
    for gain, H, A in kept:
        assert gain.shape == (7, n, 2) and gain.base is None
        arrays = [v for *_, v in H + A if isinstance(v, np.ndarray)]
        assert arrays and all(v.shape == (7,) and v.base is None for v in arrays)


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

    def test_trace_without_truth_rejected(self):
        trace = dataclasses.replace(make_trace(np.zeros(600)), f_true_hz=None)
        with pytest.raises(AnalysisError, match="no true frequency"):
            error_spectrum(trace, window=(0, 600))

    def test_strictly_linear_filter_oscillates_at_twice_mains(self):
        # an unbalanced sag makes the proper-signal model's error spin at 2f
        scn = make_scenario(
            1.5, amps=(0.2, 1.0, 1.0), offs=(0.0, math.radians(20.0), math.radians(-20.0))
        )
        v = clarke_arrays(add_noise(generate_arrays(scn), 5, 30.0))[1]
        trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq()).trace()
        spec = error_spectrum(trace, window=(500, 1500))
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
