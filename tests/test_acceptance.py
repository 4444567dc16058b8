"""Acceptance suite: twelve numbered end-to-end checks, one verdict line each.

Each test prints ``criterion N: PASS/FAIL — detail`` (replayed in the terminal
summary by conftest) and asserts the same condition, so the suite doubles as a
human-readable report.

Criterion 6 is expected to FAIL and is kept failing on purpose rather than
loosened: at the default filter tuning, bridge-organized diffusion does not
beat one-stage every-node diffusion at every node of the reference network.
Its docstring and the failure message carry the measured numbers; the bound
that *does* hold exactly — each node against its own serving hubs within the
bridge protocol — is criterion 7.
"""

import math

import numpy as np

import conftest
from dense_reference import full
from gridfreq.analysis import error_spectrum
from gridfreq.cli import main as cli_main
from gridfreq.estimators import lss_model, nss_model, run_filter, wlss_model
from gridfreq.network import (
    BridgeAssignment,
    Topology,
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
    pos_neg_decompose,
)

FS = 1000.0
SAG_AMPS = (0.2, 1.0, 1.0)
SAG_OFFS = (0.0, math.radians(20.0), math.radians(-20.0))


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def sag_step_scenario() -> Scenario:
    """50 Hz, then a 2 Hz step up with a phase-a sag for the middle third."""
    return Scenario(
        [
            ScenarioSegment(0.0, 0.667, 50.0),
            ScenarioSegment(0.667, 1.334, 52.0, SAG_AMPS, SAG_OFFS),
            ScenarioSegment(1.334, 2.0, 50.0),
        ],
        FS,
        2.0,
    )


def balanced_scenario(duration_s: float) -> Scenario:
    return Scenario([ScenarioSegment(0.0, duration_s, 50.0)], FS, duration_s)


def test_01_sequence_amplitude_oracle():
    """LS split of the sagged Clarke voltage recovers both rotating amplitudes."""
    scn = Scenario([ScenarioSegment(0.0, 0.02, 50.0, SAG_AMPS)], FS, 0.02)
    v = clarke_arrays(generate_arrays(scn))[1]  # one 50 Hz period, noiseless
    v_pos, v_neg = pos_neg_decompose(v, 50.0, FS)[-1]
    err_pos = abs(abs(v_pos) - 0.898146)
    err_neg = abs(abs(v_neg) - 0.326599)
    _verdict(
        1,
        err_pos <= 1e-6 and err_neg <= 1e-6,
        f"LS sag amplitudes off by {err_pos:.2e} / {err_neg:.2e} (limit 1e-6)",
    )


def test_02_strictly_linear_error_oscillates_at_twice_mains():
    """Under a sag the proper-signal model's error peaks at double frequency."""
    scn = Scenario(
        [ScenarioSegment(0.0, 2.0, 50.0, SAG_AMPS, SAG_OFFS)], FS, 2.0
    )
    v = clarke_arrays(add_noise(generate_arrays(scn), 0, 30.0))[1]
    trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq()).trace()
    spec = error_spectrum(trace, window=(500, 1500))
    _verdict(
        2,
        abs(spec.peak_freq_hz - 100.0) <= 2.0,
        f"largest non-DC error peak at {spec.peak_freq_hz:.1f} Hz (want 100 ± 2)",
    )


def test_03_step_tracking():
    """The 6-state filter settles on the post-step frequency within 0.2 s."""
    scn = sag_step_scenario()
    settled = slice(867, 1334)  # 0.2 s after the step until the step back

    clean = generate_arrays(scn)
    v = clarke_arrays(clean)[1]
    noiseless = run_filter(nss_model(FS), v, FS).trace()
    err_clean = float(np.max(np.abs(noiseless.f_hat_hz[settled] - 52.0)))

    rows = [clarke_arrays(add_noise(clean, s, 30.0))[1] for s in range(20)]
    f_hat = run_filter(nss_model(FS, snr_db=30.0), np.stack(rows), FS).f_hat_hz
    ens_err = f_hat.mean(axis=0) - scn.true_freq()
    err_noisy = float(np.max(np.abs(ens_err[settled])))

    _verdict(
        3,
        err_clean <= 0.05 and err_noisy <= 0.1,
        f"post-step error {err_clean:.2e} noiseless (limit 0.05), "
        f"{err_noisy:.4f} Hz over 20 seeds at 30 dB (limit 0.1)",
    )


def test_04_ramp_tracking():
    """Ensemble-mean tracking error stays under 0.1 Hz through a 10 Hz/s ramp."""
    scn = Scenario(
        [
            ScenarioSegment(0.0, 0.5, 50.0, SAG_AMPS, SAG_OFFS),
            ScenarioSegment(0.5, 1.5, 50.0, SAG_AMPS, SAG_OFFS, rate_hz_per_s=10.0),
            ScenarioSegment(1.5, 2.0, 60.0, SAG_AMPS, SAG_OFFS),
        ],
        FS,
        2.0,
    )
    model = nss_model(FS, snr_db=30.0, increment_process_noise=2.0e-5)
    clean = generate_arrays(scn)
    rows = np.stack([clarke_arrays(add_noise(clean, s, 30.0))[1] for s in range(2000)])
    f_hat = run_filter(model, rows, FS).f_hat_hz
    ens_err = f_hat.mean(axis=0) - scn.true_freq()
    worst = float(np.max(np.abs(ens_err[500:1500])))
    _verdict(
        4,
        worst < 0.1,
        f"max ensemble-mean error {worst:.4f} Hz across the ramp (limit 0.1, 2000 seeds)",
    )


def test_05_distributed_estimate_is_unbiased():
    """Per-node mean error at the end of a 1 s run is within 3 SE of zero."""
    topo, assign = reference_network()
    mc = run_distributed(
        topo, balanced_scenario(1.0), range(500), snr_db=30.0, assignment=assign
    )
    final_err = mc.f_hat_hz[:, :, -1] - 50.0
    mean = final_err.mean(axis=0)
    se = final_err.std(axis=0, ddof=1) / np.sqrt(final_err.shape[0])
    worst = float(np.max(np.abs(mean) / (3.0 * se)))
    _verdict(
        5,
        worst <= 1.0,
        f"max per-node |mean|/3SE = {worst:.2f} over 7 nodes, 500 seeds (limit 1)",
    )


def test_06_bridge_vs_every_node_diffusion():
    """EXPECTED FAIL: bridge diffusion is not uniformly at least as good.

    Claim under test: with matched noise (same seeds), each node's
    steady-state MSE under bridge-organized diffusion is at most its MSE
    under one-stage every-node diffusion plus 3 combined standard errors,
    with the two agreeing (within noise) at hub nodes 4 and 6.

    Measured at the default tuning (increment process noise 1e-6, 30 dB,
    200 seeds): the opposite holds at 5 of 7 nodes.  Hub groups never
    exchange information across the 1-2, 3-5, 2-7 links, while every-node
    diffusion keeps mixing estimates network-wide; with the filter's long
    memory (~40 ticks) that extra mixing wins (bridge MSE runs ~10-20%
    higher, 9-26 combined SEs).  Only nodes 1 and 3, whose own neighborhoods
    are smaller than their hub's, come out ahead.  The gap shrinks as process
    noise grows (shorter memory): at 1e-4..1e-2 the per-node bound does hold,
    but hub-node equality then fails in the other direction.  The within-
    protocol bound that motivates this comparison holds exactly — that is
    criterion 7.
    """
    topo, assign = reference_network()
    scn = balanced_scenario(1.0)
    seeds = range(200)
    bridge = run_distributed(topo, scn, seeds, snr_db=30.0, assignment=assign)
    conv = run_distributed(topo, scn, seeds, snr_db=30.0, diffusion="conventional")

    tail = slice(500, None)
    mse_b = np.mean((bridge.f_hat_hz[:, :, tail] - 50.0) ** 2, axis=2)  # (seed, node)
    mse_c = np.mean((conv.f_hat_hz[:, :, tail] - 50.0) ** 2, axis=2)
    n = mse_b.shape[0]
    se_b = mse_b.std(axis=0, ddof=1) / np.sqrt(n)
    se_c = mse_c.std(axis=0, ddof=1) / np.sqrt(n)
    combined = np.sqrt(se_b**2 + se_c**2)
    excess = mse_b.mean(axis=0) - mse_c.mean(axis=0)  # want <= 3*combined everywhere

    diff = mse_b - mse_c
    se_d = diff.std(axis=0, ddof=1) / np.sqrt(n)
    z_paired = diff.mean(axis=0) / se_d

    bound_ok = bool(np.all(excess <= 3.0 * combined))
    hubs = [j for j, node in enumerate(bridge.node_ids) if node in (4, 6)]
    equal_ok = bool(np.all(np.abs(z_paired[hubs]) <= 3.0))
    worst_j = int(np.argmax(excess / combined))
    _verdict(
        6,
        bound_ok and equal_ok,
        f"bridge-vs-every-node MSE: worst node {bridge.node_ids[worst_j]} exceeds by "
        f"{excess[worst_j] / combined[worst_j]:+.1f} combined SE (limit +3); "
        f"hub z = {z_paired[hubs[0]]:+.1f}/{z_paired[hubs[1]]:+.1f} (limit ±3); "
        "known limitation at default tuning, see test docstring",
    )


def _bound_margins(topo, assign, seed, theory_log):
    """Worst (ceiling - own trace) over ticks of a 200-tick run: over every
    node, and over the nodes served by more than one aggregator (inf if none)."""
    scn = balanced_scenario(0.2)
    theory_log.clear()
    run = run_distributed(topo, scn, [seed], snr_db=30.0, assignment=assign, theory=True)
    assert len(theory_log) == scn.n_samples - 1
    w = uniform_weights(topo, assign)
    worst = worst_multi = np.inf
    for _, state in theory_log:
        for node in topo.node_ids:
            if node in w.beta and node not in w.gamma:
                serving = (node,)
            else:
                serving = tuple(w.gamma[node])
            ceiling = max(float(np.real(np.trace(state.v(y, y)))) for y in serving)
            margin = ceiling - float(np.real(np.trace(state.sigma(node))))
            worst = min(worst, margin)
            if len(serving) > 1:
                worst_multi = min(worst_multi, margin)
    return worst, worst_multi


def test_07_theoretical_trace_bound(theory_log):
    """trace(Σ_i) never exceeds the worst serving hub's one-stage trace.

    A bridge, or a node served by one bridge, has Σ_i equal to its hub's V
    exactly, so the all-node margin is 0 by construction; the verdict line
    also prints the margin over nodes served by several bridges (on the
    5-path, nodes 2 and 4), where the bound has slack to lose.
    """
    topo_ref, assign_ref = reference_network()
    margin_ref, multi_ref = _bound_margins(topo_ref, assign_ref, seed=3, theory_log=theory_log)
    path = Topology([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5)])
    margin_path, multi_path = _bound_margins(
        path, BridgeAssignment(path, [1, 3, 5]), seed=3, theory_log=theory_log
    )
    multi_ref_text = "none" if multi_ref == np.inf else f"{multi_ref:.2e}"
    _verdict(
        7,
        margin_ref >= -1e-12 and margin_path >= -1e-12,
        f"worst bound margin {margin_ref:.2e} (reference net), "
        f"{margin_path:.2e} (5-path); over multi-served nodes {multi_ref_text} "
        f"(reference net), {multi_path:.2e} (5-path) over 200 ticks (limit -1e-12)",
    )


def test_08_single_node_recursion_matches_filter(theory_log):
    """With one node the error recursion reproduces the filter's own M."""
    solo = Topology([1], [])
    scn = balanced_scenario(0.2)
    run_distributed(
        solo, scn, [7], snr_db=30.0,
        assignment=BridgeAssignment(solo, [1]), theory=True,
    )
    assert len(theory_log) == scn.n_samples - 1
    worst = 0.0
    for diag, state in theory_log:
        m_post = full(diag.m[..., 0])
        worst = max(worst, float(np.max(np.abs(state.sigma(1) - m_post))))
    _verdict(
        8,
        worst <= 1e-9,
        f"max |recursion - filter covariance| = {worst:.2e} over 200 ticks (limit 1e-9)",
    )


def test_09_one_clean_node_among_sagged():
    """A mixed sag/balanced network stays within 2x the all-balanced MSE."""
    topo, assign = reference_network()
    bal = balanced_scenario(2.0)
    sag = Scenario(
        [
            ScenarioSegment(0.0, 0.667, 50.0),
            ScenarioSegment(0.667, 1.334, 50.0, SAG_AMPS, SAG_OFFS),
            ScenarioSegment(1.334, 2.0, 50.0),
        ],
        FS,
        2.0,
    )
    seeds = range(100)
    mixed_scen = {n: (bal if n == 1 else sag) for n in topo.node_ids}
    mixed = run_distributed(topo, mixed_scen, seeds, snr_db=30.0, assignment=assign)
    base = run_distributed(topo, bal, seeds, snr_db=30.0, assignment=assign)
    w = slice(1000, 1334)  # settled part of the sag
    mse_mixed = np.mean((mixed.f_hat_hz[:, :, w] - 50.0) ** 2, axis=(0, 2))
    mse_base = np.mean((base.f_hat_hz[:, :, w] - 50.0) ** 2, axis=(0, 2))
    worst = float(np.max(mse_mixed / mse_base))
    _verdict(
        9,
        worst <= 2.0,
        f"max per-node MSE ratio mixed/balanced = {worst:.3f} over 100 seeds (limit 2)",
    )


def test_10_bundled_experiments_are_deterministic(tmp_path):
    """Running every bundled config twice produces byte-identical outputs."""
    names = (
        "experiment1_sag_step",
        "experiment2_ramp",
        "experiment4_network7",
        "experiment4_network7_mixed",
    )
    identical = True
    compared = 0
    for name in names:
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(["run", name, "--out-dir", str(a)]) == 0
        assert cli_main(["run", name, "--out-dir", str(b)]) == 0
        for f in sorted(a.iterdir()):
            compared += 1
            if f.read_bytes() != (b / f.name).read_bytes():
                identical = False
    _verdict(
        10,
        identical,
        f"{len(names)} bundled configs, {compared} files byte-compared across reruns",
    )


def test_11_distributed_beats_single_node_linear_filters():
    """Under an unbalanced sag the dfe network has a lower MSE than lss and wlss at every node.

    The abstract's performance claim: the distributed estimator outperforms
    the strictly linear and the widely linear single-node estimators.  Each
    single-node filter at node j sees the noise stream [s, j] that the
    network draws for node j at seed s, so every comparison is paired per
    seed and node: at each node, the mean over seeds of the per-seed MSE
    difference (dfe minus the single-node filter) must lie more than 3
    standard errors below 0.  The single-node nss filter is reported, not
    gated.  Reference network, bridges {4, 6}, 0.2 pu sag with +-20 degree
    offsets at 50 Hz, 30 dB, 50 seeds, MSE over ticks 500-999 of a 1 s run.
    """
    topo, assign = reference_network()
    scn = Scenario([ScenarioSegment(0.0, 1.0, 50.0, SAG_AMPS, SAG_OFFS)], FS, 1.0)
    seeds, snr_db, window = range(50), 30.0, slice(500, 1000)
    net = run_distributed(topo, scn, seeds, snr_db=snr_db, mode="dfe", assignment=assign)
    clean = generate_arrays(scn)
    rows = np.stack([
        clarke_arrays(add_noise(clean, np.random.default_rng([s, j]), snr_db))[1]
        for s in seeds for j in range(len(topo.node_ids))
    ])

    def mse(f_hat):  # per (seed, node)
        return np.mean((f_hat.reshape(net.f_hat_hz.shape)[..., window] - 50.0) ** 2, axis=2)

    mse_dfe = mse(net.f_hat_hz)
    ok, ratio, z = True, {}, {}
    for name, factory in (("lss", lss_model), ("wlss", wlss_model), ("nss", nss_model)):
        single = mse(run_filter(factory(FS, snr_db=snr_db), rows, FS).f_hat_hz)
        diff = mse_dfe - single
        z[name] = diff.mean(axis=0) / (diff.std(axis=0, ddof=1) / np.sqrt(len(seeds)))
        ratio[name] = mse_dfe.mean(axis=0) / single.mean(axis=0)
        ok = ok and (name == "nss" or bool(np.all(z[name] < -3.0)))
    _verdict(
        11,
        ok,
        f"dfe/single-node MSE at the worst node: lss {ratio['lss'].max():.2e} "
        f"(paired z <= {z['lss'].max():+.1f}), wlss {ratio['wlss'].max():.3f} "
        f"(z <= {z['wlss'].max():+.1f}) (limit z < -3 at every node, 50 seeds, sag); "
        f"nss {ratio['nss'].min():.2f}-{ratio['nss'].max():.2f} (reported, not gated)",
    )


def test_12_per_bus_phase_angles():
    """Under per-bus angles spread 0-10 degrees, dfe stays unbiased and keeps its MSE.

    Nodes of a feeder share one frequency but not one voltage phasor.  Node
    j of the reference network sees the balanced 50 Hz waveform shifted by
    10 j / 6 degrees on all three phases.  ``dfe`` diffuses the phase
    increment alone, so under bridge and under conventional diffusion it
    must pass criterion 5's test (|mean| / 3 SE <= 1 at every node, final
    tick of a 1 s run), and its worst per-node MSE over ticks 500-999 must
    stay within 10% of the run in which every node shares one phasor.
    Measured over 100 seeds at 30 dB: |mean| / 3 SE 0.79 (bridge) and 0.89
    (conventional), worst MSE 5.51e-3 and 4.74e-3 Hz², unchanged.  The
    full-state ``distributed-acekf`` under conventional diffusion averages
    the neighbours' v+ and v- and is biased (|mean| / 3 SE 25.3); it is
    reported, not gated.
    """
    topo, assign = reference_network()
    ids = topo.node_ids

    def scenario(deg):
        offsets = (math.radians(deg),) * 3
        return Scenario([ScenarioSegment(0.0, 1.0, 50.0, phase_offsets_rad=offsets)], FS, 1.0)

    spread = {n: scenario(10.0 * j / (len(ids) - 1)) for j, n in enumerate(ids)}
    seeds = range(100)

    def run(scenarios, mode, diffusion):
        kw = dict(assignment=assign) if diffusion == "bridge" else {}
        return run_distributed(topo, scenarios, seeds, snr_db=30.0, mode=mode,
                               diffusion=diffusion, **kw).f_hat_hz

    def bias(f_hat):  # worst |mean| / 3 SE over the nodes, at the final tick
        err = f_hat[:, :, -1] - 50.0
        se = err.std(axis=0, ddof=1) / np.sqrt(err.shape[0])
        return float(np.max(np.abs(err.mean(axis=0)) / (3.0 * se)))

    def worst_mse(f_hat):
        return float(np.max(np.mean((f_hat[:, :, 500:] - 50.0) ** 2, axis=(0, 2))))

    ok, parts = True, []
    for diffusion in ("bridge", "conventional"):
        f_hat = run(spread, "dfe", diffusion)
        b, mse, base = bias(f_hat), worst_mse(f_hat), worst_mse(run(scenario(0.0), "dfe", diffusion))
        ok = ok and b <= 1.0 and mse <= 1.1 * base
        parts.append(f"{diffusion} |mean|/3SE {b:.2f}, worst MSE {mse:.2e} vs {base:.2e}")
    acekf = bias(run(spread, "distributed-acekf", "conventional"))
    _verdict(
        12,
        ok,
        f"dfe under 0-10 degree bus angles: {'; '.join(parts)} (limits 1 and 1.1x, 100 seeds); "
        f"distributed-acekf conventional |mean|/3SE {acekf:.1f} (reported, not gated)",
    )
