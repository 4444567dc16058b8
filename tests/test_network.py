"""Tests for the graph model, diffusion combiners, and multi-node simulation."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq.augmented import AugmentedVector
from gridfreq.cli import _write_csv
from gridfreq.estimators import (
    FilterDegenerateError,
    FilterState,
    _step,
    nss_model,
    shared_increment_model,
    with_sequence_observation,
)
from gridfreq.network import (
    BridgeAssignment,
    BridgeAssignmentError,
    DiffusionError,
    DiffusionWeights,
    DistributedConfigError,
    Topology,
    TopologyError,
    WeightsError,
    bridge_diffuse,
    conventional_weights,
    nonbridge_diffuse,
    reference_network,
    run_distributed,
    select_bridges,
    _mixing,
    uniform_weights,
)
from gridfreq.signals import (
    ConstantFreq,
    Scenario,
    ScenarioSegment,
    clarke_arrays,
    generate_arrays,
)

FS = 1000.0


def make_scenario(amps=(1.0, 1.0, 1.0), offs=(0.0, 0.0, 0.0), duration=1.0, f_hz=50.0):
    return Scenario(
        [ScenarioSegment(0.0, duration, ConstantFreq(f_hz), amplitudes=amps, phase_offsets_rad=offs)],
        sample_rate_hz=FS,
        duration_s=duration,
    )


def sag_scenario(duration=1.0):
    """Unbalanced condition: 80% drop on phase a plus 20-degree shifts on b/c."""
    return make_scenario(
        amps=(0.2, 1.0, 1.0),
        offs=(0.0, math.radians(20.0), math.radians(-20.0)),
        duration=duration,
    )


class TestTopology:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology((1, 1, 2), [(1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Topology((1, 2), [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError, match="unknown node"):
            Topology((1, 2), [(1, 3)])

    def test_neighbors_sorted_and_degree(self):
        t, _ = reference_network()
        assert t.neighbors(4) == (1, 2, 3)
        assert t.neighbors(2) == (1, 4, 7)
        assert t.degree(4) == 3
        assert t.closed_neighborhood(6) == (5, 6, 7)

    def test_disconnected_graph_warns_but_constructs(self):
        with pytest.warns(UserWarning, match="not connected"):
            t = Topology((1, 2, 3), [(1, 2)])
        assert not t.is_connected

    def test_reference_is_connected(self):
        t, _ = reference_network()
        assert t.is_connected
        assert len(t.edges) == 8


class TestBridgeAssignment:
    def test_reference_assignment_valid(self):
        t, b = reference_network()
        assert b.bridges == {4, 6}
        # every non-bridge is served by exactly one bridge here
        assert b.bridges_of(1) == (4,)
        assert b.bridges_of(5) == (6,)
        assert b.bridges_of(4) == (4,)

    def test_adjacent_bridges_rejected(self):
        t, _ = reference_network()
        with pytest.raises(BridgeAssignmentError, match="adjacent"):
            BridgeAssignment(t, {1, 4})

    def test_undominated_node_rejected(self):
        t, _ = reference_network()
        # {6} leaves nodes 1..3 without a bridge neighbor
        with pytest.raises(BridgeAssignmentError, match="no bridge neighbor"):
            BridgeAssignment(t, {6})

    def test_unknown_bridge_rejected(self):
        t, _ = reference_network()
        with pytest.raises(BridgeAssignmentError, match="unknown"):
            BridgeAssignment(t, {99})


class TestSelectBridges:
    def test_star_graph_picks_center(self):
        t = Topology(("c", "l1", "l2", "l3"), [("c", "l1"), ("c", "l2"), ("c", "l3")])
        assert select_bridges(t).bridges == {"c"}

    def test_single_edge_picks_exactly_one(self):
        t = Topology(("a", "b"), [("a", "b")])
        assert len(select_bridges(t).bridges) == 1

    def test_path_graph_picks_middle(self):
        t = Topology((1, 2, 3), [(1, 2), (2, 3)])
        assert select_bridges(t).bridges == {2}

    def test_reference_topology_yields_valid_assignment(self):
        t, _ = reference_network()
        b = select_bridges(t, seed=0)
        # constructor re-checks independence and domination
        BridgeAssignment(t, b.bridges)

    def test_deterministic_given_seed(self):
        t, _ = reference_network()
        assert select_bridges(t, seed=7).bridges == select_bridges(t, seed=7).bridges

    def test_random_graphs_always_valid(self):
        # the greedy builds a maximal independent set, which dominates any graph
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(2, 31))
            ids = tuple(range(n))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.2
            ]
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sparse draws may be disconnected
                t = Topology(ids, edges)
            b = select_bridges(t, seed=trial)
            BridgeAssignment(t, b.bridges)


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random extra edges, with shuffled node ids."""
    n = draw(st.integers(1, 20))
    ids = draw(st.permutations(range(n)))
    edges = {frozenset((ids[i], ids[draw(st.integers(0, i - 1))])) for i in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        edges |= {frozenset(p) for p in draw(st.lists(st.sampled_from(pairs), max_size=2 * n))}
    return Topology(ids, [tuple(e) for e in edges])


class TestSelectBridgesProperties:
    @settings(max_examples=100, deadline=None)
    @given(t=connected_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_independent_and_dominating(self, t, seed):
        bridges = select_bridges(t, seed=seed).bridges
        assert bridges
        for e in t.edges:
            assert not e <= bridges, f"adjacent bridges {sorted(e)}"
        for n in t.node_ids:
            assert n in bridges or bridges.intersection(t.neighbors(n)), f"node {n} uncovered"


class TestWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(WeightsError, match="negative"):
            DiffusionWeights(beta={1: {1: 1.5, 2: -0.5}}, gamma={})

    def test_row_must_sum_to_one(self):
        with pytest.raises(WeightsError, match="sums to"):
            DiffusionWeights(beta={1: {1: 0.6, 2: 0.6}}, gamma={})

    def test_nan_weight_rejected(self):
        with pytest.raises(WeightsError, match="non-finite"):
            DiffusionWeights(beta={1: {1: math.nan, 2: 0.5}}, gamma={})

    def test_empty_row_rejected(self):
        with pytest.raises(WeightsError, match="empty"):
            DiffusionWeights(beta={1: {}}, gamma={})

    def test_zero_weight_allowed(self):
        w = DiffusionWeights(beta={1: {1: 1.0, 2: 0.0}}, gamma={})
        assert w.beta[1][2] == 0.0

    def test_uniform_weights_on_reference(self):
        t, b = reference_network()
        w = uniform_weights(t, b)
        assert set(w.beta) == {4, 6}
        assert w.beta[4] == {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}
        assert w.beta[6] == {5: pytest.approx(1 / 3), 6: pytest.approx(1 / 3), 7: pytest.approx(1 / 3)}
        assert set(w.gamma) == {1, 2, 3, 5, 7}
        assert w.gamma[1] == {4: 1.0}
        assert w.gamma[5] == {6: 1.0}

    def test_conventional_weights_cover_every_node(self):
        t, _ = reference_network()
        w = conventional_weights(t)
        assert set(w.beta) == set(t.node_ids)
        assert w.beta[1] == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}
        assert w.gamma == {}


def step(model, state, y):
    return _step(model, state, y)[0]


def _vec(z):
    return AugmentedVector(np.array([z], dtype=complex))


class TestCombiners:
    def setup_method(self):
        self.t = Topology(("a", "b"), [("a", "b")])
        self.b = BridgeAssignment(self.t, {"a"})

    def test_consensus_fixed_point(self):
        w = uniform_weights(self.t, self.b)
        z = np.exp(0.25j)
        out = bridge_diffuse("a", {"a": _vec(z), "b": _vec(z)}, w)
        assert out.top[0] == pytest.approx(z)

    def test_arithmetic_mean(self):
        w = uniform_weights(self.t, self.b)
        out = bridge_diffuse("a", {"a": _vec(np.exp(0.1j)), "b": _vec(np.exp(0.3j))}, w)
        assert out.top[0] == pytest.approx((np.exp(0.1j) + np.exp(0.3j)) / 2)

    def test_passthrough_weights(self):
        w = DiffusionWeights(beta={"a": {"a": 1.0, "b": 0.0}}, gamma={})
        out = bridge_diffuse("a", {"a": _vec(2.0 + 1.0j), "b": _vec(-5.0j)}, w)
        assert out.top[0] == 2.0 + 1.0j

    def test_missing_estimate_raises(self):
        w = uniform_weights(self.t, self.b)
        with pytest.raises(DiffusionError, match="'b'"):
            bridge_diffuse("a", {"a": _vec(1.0)}, w)

    def test_nonbridge_mirrors_bridge_cases(self):
        w = uniform_weights(self.t, self.b)
        psi = {"a": _vec(np.exp(0.2j))}
        out = nonbridge_diffuse("b", psi, w)
        assert out.top[0] == pytest.approx(np.exp(0.2j))
        with pytest.raises(DiffusionError, match="redistribution"):
            nonbridge_diffuse("b", {}, w)

    def test_output_keeps_conjugate_structure(self):
        w = uniform_weights(self.t, self.b)
        out = bridge_diffuse("a", {"a": _vec(1.0 + 2.0j), "b": _vec(0.5 - 1.0j)}, w)
        full = out.materialize()
        assert full[1] == np.conj(full[0])

    def test_two_stage_round_is_idempotent_on_consensus(self):
        t, b = reference_network()
        w = uniform_weights(t, b)
        z = _vec(np.exp(0.7j))
        psi = {i: bridge_diffuse(i, {n: z for n in t.node_ids}, w) for i in b.bridges}
        for m in t.node_ids:
            out = psi[m] if m in b.bridges else nonbridge_diffuse(m, psi, w)
            assert out.top[0] == pytest.approx(z.top[0])


class TestDistributedRuns:
    def test_single_node_network_equals_manual_loop(self):
        scn = make_scenario(duration=0.3)
        t = Topology((0,), [])
        run = run_distributed(t, scn, [0], snr_db=None, mode="dfe")

        v = clarke_arrays(generate_arrays(scn))[1]
        aux_model = nss_model(FS)
        shared_model = shared_increment_model(FS)
        aux = aux_model.initial_state(v[0])
        shared = shared_model.initial_state(v[0])
        manual = [shared_model.extract_freq(shared.x_hat.top)[0]]
        for k in range(1, scn.n_samples):
            vp, vm = aux.x_hat.top[1], aux.x_hat.top[2]
            y = AugmentedVector(v[k : k + 1])
            aux = step(aux_model, aux, y)
            shared = step(with_sequence_observation(shared_model, vp, vm), shared, y)
            manual.append(shared_model.extract_freq(shared.x_hat.top)[0])
        np.testing.assert_array_equal(run.trace(0).f_hat_hz, np.array(manual))

    def test_noiseless_balanced_network_reaches_consensus(self):
        # symmetric fixed point: every node settles on the true increment
        t, b = reference_network()
        run = run_distributed(
            t, make_scenario(duration=1.0), [0], snr_db=None, assignment=b, detail=True
        )
        xs = np.array([run.trace(n).states[-1, 0] for n in t.node_ids])
        assert np.max(np.abs(xs - xs[0])) < 1e-9
        for n in t.node_ids:
            assert abs(run.trace(n).f_hat_hz[-1] - 50.0) < 1e-9

    def test_heterogeneous_nodes_stay_unbiased(self):
        # one healthy node among six sagged ones; trailing mean error per node
        t, b = reference_network()
        scens = {n: sag_scenario(duration=1.5) for n in t.node_ids}
        scens[1] = make_scenario(duration=1.5)
        run = run_distributed(t, scens, [0], snr_db=30.0, assignment=b)
        for n in t.node_ids:
            tail = run.trace(n).f_hat_hz[-500:] - 50.0
            assert abs(np.mean(tail)) < 0.01, f"node {n}"

    def test_batched_mc_matches_single_runs(self):
        t, b = reference_network()
        scn = make_scenario(duration=0.3)
        mc = run_distributed(t, scn, [3, 11], snr_db=30.0, assignment=b)
        for row, seed in enumerate([3, 11]):
            single = run_distributed(t, scn, [seed], snr_db=30.0, assignment=b)
            for col, n in enumerate(t.node_ids):
                np.testing.assert_array_equal(mc.f_hat_hz[row, col], single.trace(n).f_hat_hz)

    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    @pytest.mark.parametrize("diffusion", ["bridge", "conventional", "none"])
    @settings(max_examples=4, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3, unique=True))
    def test_every_mc_row_is_the_single_run(self, mode, diffusion, seeds):
        t, b = reference_network()
        scn = sag_scenario(duration=0.05)
        kw = dict(snr_db=30.0, mode=mode, diffusion=diffusion, assignment=b)
        mc = run_distributed(t, scn, seeds, detail=True, **kw)
        for row, seed in enumerate(seeds):
            single = run_distributed(t, scn, [seed], detail=True, **kw)
            for col, n in enumerate(t.node_ids):
                tr = single.trace(n)
                np.testing.assert_array_equal(mc.f_hat_hz[row, col], tr.f_hat_hz)
                np.testing.assert_array_equal(mc.flags[row, col], tr.flags)
                np.testing.assert_array_equal(mc.states[row, col], tr.states)
                np.testing.assert_array_equal(
                    mc.innovation_power[row, col], tr.innovation_power
                )

    def test_no_diffusion_equals_isolated_node(self):
        # node in position 0 draws the same noise stream either way
        t, b = reference_network()
        scn = make_scenario(duration=0.3)
        joint = run_distributed(t, scn, [5], snr_db=30.0, diffusion="none", assignment=b)
        alone = run_distributed(Topology((1,), []), scn, [5], snr_db=30.0)
        np.testing.assert_array_equal(joint.trace(1).f_hat_hz, alone.trace(1).f_hat_hz)

    def test_full_state_mode_agrees_with_dfe_at_steady_state(self):
        t, b = reference_network()
        scn = make_scenario(duration=1.0)
        kw = dict(snr_db=None, assignment=b, detail=True)
        r_dfe = run_distributed(t, scn, [0], mode="dfe", **kw)
        r_full = run_distributed(t, scn, [0], mode="distributed-acekf", **kw)
        for n in t.node_ids:
            x_dfe = r_dfe.trace(n).states[-1, 0]
            x_full = r_full.trace(n).states[-1, 0]
            assert abs(x_dfe - x_full) < 1e-9

    def test_message_log_respects_topology(self):
        t, b = reference_network()
        scn = make_scenario(duration=0.1)
        run = run_distributed(t, scn, [1], snr_db=30.0, assignment=b, detail=True)
        _, phases, srcs, dsts, _ = run.message_log()
        assert phases, "expected a populated message log"
        for phase, src, dst in zip(phases, srcs, dsts):
            assert frozenset((src, dst)) in t.edges
            if phase == "to_bridge":
                assert dst in b.bridges
            else:
                assert phase == "from_bridge"
                assert src in b.bridges
        # 5 uploads + 5 downloads per tick on this graph
        n_ticks = scn.n_samples - 1
        assert len(phases) == 10 * n_ticks

    def test_conventional_messages_flow_both_ways(self):
        t, b = reference_network()
        scn = make_scenario(duration=0.05)
        run = run_distributed(t, scn, [1], snr_db=30.0, diffusion="conventional", detail=True)
        _, phases, _, _, _ = run.message_log()
        per_tick = 2 * len(t.edges)
        assert len(phases) == per_tick * (scn.n_samples - 1)
        assert set(phases) == {"to_neighbor"}

    def test_messages_csv_roundtrip(self, tmp_path):
        payload = np.array([0.5 - 0.25j, 1 / 3 + 0j])
        columns = [np.array([1, 1]), ["to_bridge", "from_bridge"], [2, "a,b"], ["a,b", 2]]
        header = ["k", "phase", "src", "dst", "payload_re", "payload_im"]
        path = tmp_path / "msgs.csv"
        _write_csv(path, header, columns + [payload.real, payload.imag])
        assert path.read_bytes() == (
            b"k,phase,src,dst,payload_re,payload_im\r\n"
            b'1,to_bridge,2,"a,b",0.5,-0.25\r\n'
            b'1,from_bridge,"a,b",2,0.333333333333333,0\r\n'
        )
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2:4] == ["2", "a,b"] and rows[2][2:4] == ["a,b", "2"]

    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    @pytest.mark.parametrize("diffusion", ["bridge", "conventional", "none"])
    def test_detail_keeps_the_posteriors_before_diffusion(self, mode, diffusion):
        t, b = reference_network()
        run = run_distributed(
            t, sag_scenario(duration=0.05), [3, 4], snr_db=30.0, mode=mode,
            diffusion=diffusion, assignment=b, detail=True,
        )
        assert run.local_states.shape == run.states.shape
        matrix = _mixing(t, run.assignment, run.weights, diffusion).matrix
        if matrix is None:
            np.testing.assert_array_equal(run.local_states, run.states)
            return
        for k in range(1, run.t_s.size):
            mixed = matrix @ run.local_states[:, :, k]
            np.testing.assert_allclose(mixed, run.states[:, :, k], rtol=0, atol=1e-14)

    def test_innovation_power_positive_under_noise(self):
        t, b = reference_network()
        run = run_distributed(
            t, make_scenario(duration=0.1), [2], snr_db=30.0, assignment=b, detail=True
        )
        assert np.all(run.trace(3).innovation_power[1:] > 0)

    def test_trace_metadata(self):
        t, b = reference_network()
        scn = make_scenario(duration=0.1)
        run = run_distributed(t, scn, [0], snr_db=None, assignment=b)
        tr = run.trace(7)
        assert tr.t_s[1] - tr.t_s[0] == pytest.approx(1.0 / FS)
        np.testing.assert_allclose(tr.f_true_hz, 50.0)


def dict_reference_run(t, b, scn, seed, mode, diffusion):
    """Node-by-node run over the dict combiners, the semantics the stacked tick keeps.

    Returns (node -> f_hat list, message tuples (k, phase, src, dst, payload)).
    """
    w = conventional_weights(t) if diffusion == "conventional" else uniform_weights(t, b)
    aux_model = nss_model(FS, snr_db=30.0)
    shared_model = shared_increment_model(FS, snr_db=30.0)
    v = {
        n: clarke_arrays(generate_arrays(scn, seed=[seed, j], snr_db=30.0))[1]
        for j, n in enumerate(t.node_ids)
    }
    aux = {n: aux_model.initial_state(v[n][0]) for n in t.node_ids}
    shared = {n: shared_model.initial_state(v[n][0]) for n in t.node_ids}
    out, out_model = (shared, shared_model) if mode == "dfe" else (aux, aux_model)
    f_hat = {n: [out_model.extract_freq(out[n].x_hat.top)[0]] for n in t.node_ids}
    messages = []

    def log(k, phase, src, dst, vec):
        messages.extend((k, phase, src, dst, complex(z)) for z in vec.top)

    for k in range(1, scn.n_samples):
        for n in t.node_ids:
            y = AugmentedVector(v[n][k : k + 1])
            vp, vm = aux[n].x_hat.top[1], aux[n].x_hat.top[2]
            aux[n] = step(aux_model, aux[n], y)
            if mode == "dfe":
                shared[n] = step(with_sequence_observation(shared_model, vp, vm), shared[n], y)
        est = {n: out[n].x_hat for n in t.node_ids}
        combined = est
        if diffusion == "conventional":
            for i in t.node_ids:
                for nb in t.neighbors(i):
                    log(k, "to_neighbor", nb, i, est[nb])
            combined = {i: bridge_diffuse(i, est, w) for i in t.node_ids}
        elif diffusion == "bridge":
            psi = {}
            for l in sorted(b.bridges, key=str):
                for nb in t.neighbors(l):
                    log(k, "to_bridge", nb, l, est[nb])
                psi[l] = bridge_diffuse(l, est, w)
                for nb in t.neighbors(l):
                    log(k, "from_bridge", l, nb, psi[l])
            combined = {
                i: psi[i] if i in b.bridges else nonbridge_diffuse(i, psi, w) for i in t.node_ids
            }
        for n in t.node_ids:
            out[n] = FilterState(combined[n], out[n].M, out[n].k)
            f_hat[n].append(out_model.extract_freq(out[n].x_hat.top)[0])
    return f_hat, messages


class TestStackedTickMatchesDictCombiners:
    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    @pytest.mark.parametrize("diffusion", ["bridge", "conventional", "none"])
    def test_traces_and_message_log(self, mode, diffusion):
        t, b = reference_network()
        scn = sag_scenario(duration=0.15)
        for seed in (0, 7):
            run = run_distributed(
                t, scn, [seed], snr_db=30.0, mode=mode, diffusion=diffusion,
                assignment=b, detail=True,
            )
            f_ref, msg_ref = dict_reference_run(t, b, scn, seed, mode, diffusion)
            for n in t.node_ids:
                np.testing.assert_allclose(run.trace(n).f_hat_hz, f_ref[n], rtol=0, atol=1e-12)
            k, phase, src, dst, payload = run.message_log()
            assert list(zip(k.tolist(), phase, src, dst)) == [m[:4] for m in msg_ref]
            want = np.array([m[4] for m in msg_ref], dtype=complex)
            np.testing.assert_allclose(payload, want, rtol=0, atol=1e-12)


class TestConfigErrors:
    def test_missing_scenario_rejected(self):
        t, b = reference_network()
        with pytest.raises(DistributedConfigError, match="no scenario"):
            run_distributed(t, {1: make_scenario()}, [0], assignment=b)

    def test_mismatched_sampling_rejected(self):
        t, b = reference_network()
        scens = {n: make_scenario() for n in t.node_ids}
        scens[3] = make_scenario(duration=0.5)
        with pytest.raises(DistributedConfigError, match="disagrees"):
            run_distributed(t, scens, [0], assignment=b)

    def test_unknown_mode_rejected(self):
        t, b = reference_network()
        with pytest.raises(DistributedConfigError, match="mode"):
            run_distributed(t, make_scenario(), [0], mode="centralized", assignment=b)

    def test_unknown_diffusion_rejected(self):
        t, b = reference_network()
        with pytest.raises(DistributedConfigError, match="diffusion"):
            run_distributed(t, make_scenario(), [0], diffusion="gossip", assignment=b)

    def test_empty_seed_list_rejected(self):
        t, b = reference_network()
        with pytest.raises(DistributedConfigError, match="empty"):
            run_distributed(t, make_scenario(), [], assignment=b)

    def test_theory_needs_one_seed(self):
        t, b = reference_network()
        with pytest.raises(DistributedConfigError, match="theory needs exactly one seed, got 2"):
            run_distributed(t, make_scenario(), [0, 1], assignment=b, theory=True)

    def test_degenerate_filter_names_tick_node_and_seed(self):
        t, _ = reference_network()
        scn = make_scenario(duration=0.1)
        with pytest.raises(FilterDegenerateError, match="tick 2: node 1:"):
            run_distributed(t, scn, [0], snr_db=30.0, cond_limit=1.0)
        with pytest.raises(FilterDegenerateError, match="tick 2: node 1: seed 5:"):
            run_distributed(t, scn, [5, 6], snr_db=30.0, cond_limit=1.0)

    def test_incomplete_weights_rejected(self):
        t, b = reference_network()
        w = DiffusionWeights(beta={4: {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}}, gamma={})
        with pytest.raises(DistributedConfigError, match="incomplete"):
            run_distributed(t, make_scenario(), [0], assignment=b, weights=w)
