"""Tests for the graph model, diffusion weights, and multi-node simulation."""

import collections
import csv
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfreq.estimators
import gridfreq.network
from gridfreq.cli import _write_csv, build_plan, main
from gridfreq.estimators import (
    FilterDegenerateError,
    _StepPlan,
    nss_model,
    run_filter,
    shared_increment_model,
)
from gridfreq.network import (
    BridgeAssignment,
    DiffusionWeights,
    DistributedConfigError,
    Topology,
    conventional_weights,
    reference_network,
    run_distributed,
    select_bridges,
    _mixing,
    _observations,
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


def make_scenario(amps=(1.0, 1.0, 1.0), offs=(0.0, 0.0, 0.0), duration=1.0, f_hz=50.0):
    return Scenario(
        [ScenarioSegment(0.0, duration, f_hz, amplitudes=amps, phase_offsets_rad=offs)],
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
        with pytest.raises(DistributedConfigError, match="duplicate"):
            Topology((1, 1, 2), [(1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(DistributedConfigError, match="self-loop"):
            Topology((1, 2), [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(DistributedConfigError, match="unknown node"):
            Topology((1, 2), [(1, 3)])

    def test_empty_node_list_rejected(self):
        with pytest.raises(DistributedConfigError, match="empty node list"):
            Topology((), [])

    def test_unorderable_ids_named(self):
        with pytest.raises(DistributedConfigError, match="node ids 'a' and 2 cannot be ordered"):
            Topology(("a", "c", 2), [("a", "c"), ("c", 2)])

    def test_neighbors_sorted_and_degree(self):
        t, _ = reference_network()
        assert t.neighbors(4) == (1, 2, 3)
        assert t.neighbors(2) == (1, 4, 7)
        assert t.degree(4) == 3
        assert t.closed_neighborhood(6) == (5, 6, 7)

    def test_disconnected_graph_constructs_without_warning(self):
        # build_plan owns the connectivity rule; the graph itself only reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        with pytest.raises(DistributedConfigError, match="adjacent"):
            BridgeAssignment(t, {1, 4})

    def test_undominated_node_rejected(self):
        t, _ = reference_network()
        # {6} leaves nodes 1..3 without a bridge neighbor
        with pytest.raises(DistributedConfigError, match="no bridge neighbor"):
            BridgeAssignment(t, {6})

    def test_unknown_bridge_rejected(self):
        t, _ = reference_network()
        with pytest.raises(DistributedConfigError, match="unknown"):
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
            t = Topology(ids, edges)  # sparse draws may be disconnected
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


def support_components(t: Topology, matrix: np.ndarray) -> set:
    """The node sets of the connected components of ``matrix``'s support, its
    nonzero entries taken as undirected links between nodes."""
    link = (matrix != 0) | (matrix.T != 0) | np.eye(len(matrix), dtype=bool)
    for _ in range(len(matrix)):  # transitive closure
        link = link.astype(int) @ link.astype(int) > 0
    return {frozenset(t.node_ids[j] for j in np.flatnonzero(row)) for row in link}


class TestMixingConnectivity:
    """Whether the composed matrix Γ Β of the reference network mixes every
    node with every other: the known cause of criterion 6's failure."""

    def test_reference_bridges_leave_two_groups(self):
        t, b = reference_network()
        matrix = _mixing(t, b, None, "bridge").matrix
        assert support_components(t, matrix) == {frozenset({1, 2, 3, 4}), frozenset({5, 6, 7})}
        assert np.sum(np.isclose(np.linalg.eigvals(matrix), 1.0)) == 2

    @pytest.mark.parametrize("diffusion, bridges, lambda_2", [
        ("bridge", {2, 3, 6}, 0.583), ("conventional", None, 0.765),
    ])
    def test_greedy_bridges_and_conventional_diffusion_mix(self, diffusion, bridges, lambda_2):
        t, _ = reference_network()
        mixing = _mixing(t, None, None, diffusion)
        assert set(mixing.aggregators) == (bridges or set(t.node_ids))
        assert support_components(t, mixing.matrix) == {frozenset(t.node_ids)}
        moduli = np.sort(np.abs(np.linalg.eigvals(mixing.matrix)))[::-1]
        assert moduli[0] == pytest.approx(1.0) and moduli[1] == pytest.approx(lambda_2, abs=5e-4)


def phase_counts(routes) -> dict:
    return dict(collections.Counter(phase for phase, *_ in routes))


class TestMessageTraffic:
    """Routes per phase and tick: 2|E| under conventional diffusion, and under
    bridge diffusion the sum of the bridges' degrees each way."""

    def test_reference_graph(self):
        t, b = reference_network()
        assert phase_counts(_mixing(t, None, None, "conventional").routes) == {"to_neighbor": 16}
        assert phase_counts(_mixing(t, b, None, "bridge").routes) == {
            "to_bridge": 5, "from_bridge": 5,
        }
        assert _mixing(t, b, None, "none").routes == ()

    @settings(max_examples=100, deadline=None)
    @given(t=connected_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_random_connected_graphs(self, t, seed):
        conventional = phase_counts(_mixing(t, None, None, "conventional").routes)
        assert conventional == ({"to_neighbor": 2 * len(t.edges)} if t.edges else {})
        b = select_bridges(t, seed=seed)
        degrees = sum(t.degree(n) for n in b.bridges)
        bridge = phase_counts(_mixing(t, b, None, "bridge").routes)
        assert bridge == ({"to_bridge": degrees, "from_bridge": degrees} if degrees else {})

    def test_network_fullstate_logs_every_route_entry_and_tick(self, tmp_path):
        # full-state diffusion sends 3 entries over each of 2|E| = 16 routes per tick
        config = Path(__file__).resolve().parents[1] / "benchmarks/configs/network_fullstate.yaml"
        plan = build_plan(yaml.safe_load(config.read_text()))
        routes = _mixing(plan.topology, None, None, plan.diffusion).routes
        assert main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "messages.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        assert rows == len(routes) * 3 * (plan.scenario.n_samples - 1) == 95_952


class TestWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(DistributedConfigError, match="negative"):
            DiffusionWeights(beta={1: {1: 1.5, 2: -0.5}}, gamma={})

    def test_row_must_sum_to_one(self):
        with pytest.raises(DistributedConfigError, match="sums to"):
            DiffusionWeights(beta={1: {1: 0.6, 2: 0.6}}, gamma={})

    def test_nan_weight_rejected(self):
        with pytest.raises(DistributedConfigError, match="non-finite"):
            DiffusionWeights(beta={1: {1: math.nan, 2: 0.5}}, gamma={})

    def test_empty_row_rejected(self):
        with pytest.raises(DistributedConfigError, match="empty"):
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


def step(model, state, y, h=None):
    """One step of one row, ``state = (x, [M11 M12])`` (n,) and (n, 2n) with no
    batch axis, on the observation ``y`` (1,)."""
    x, m = state
    out = _StepPlan(model, ()).step(x[:, None], m[..., None], y[:, None], h)
    return out.x[:, 0], out.m[..., 0]


class TestCombiners:
    """The Β/Γ stage matrices that ``_mixing`` resolves from the weight rows."""

    def setup_method(self):
        self.t = Topology(("a", "b"), [("a", "b")])
        self.b = BridgeAssignment(self.t, {"a"})

    def mix(self, weights=None, diffusion="bridge"):
        return _mixing(self.t, self.b, weights, diffusion)

    @pytest.mark.parametrize("diffusion", ["bridge", "conventional", "none"])
    def test_rows_sum_to_one(self, diffusion):
        t, b = reference_network()
        odd = DiffusionWeights(
            beta={4: {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}, 6: {5: 0.5, 6: 0.25, 7: 0.25}},
            gamma={n: {4: 0.5, 6: 0.5} for n in (1, 2, 3, 5, 7)},
        )
        for w in [None, odd] if diffusion == "bridge" else [None]:
            m = _mixing(t, b, w, diffusion)
            for stage in (x for x in (m.beta, m.gamma, m.matrix) if x is not None):
                np.testing.assert_allclose(stage.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_consensus_fixed_point(self):
        z = np.full((2, 1), np.exp(0.25j))
        np.testing.assert_allclose(self.mix().matrix @ z, z, rtol=0, atol=1e-15)

    def test_arithmetic_mean(self):
        x = np.array([[np.exp(0.1j)], [np.exp(0.3j)]])
        out = self.mix().beta @ x
        assert out[0, 0] == pytest.approx((np.exp(0.1j) + np.exp(0.3j)) / 2)

    def test_passthrough_weights(self):
        w = DiffusionWeights(beta={"a": {"a": 1.0, "b": 0.0}}, gamma={"b": {"a": 1.0}})
        out = self.mix(w).matrix @ np.array([[2.0 + 1.0j], [-5.0j]])
        assert out[0, 0] == 2.0 + 1.0j and out[1, 0] == 2.0 + 1.0j

    def test_missing_estimate_raises(self):
        w = DiffusionWeights(beta={"a": {"a": 0.5, "z": 0.5}}, gamma={"b": {"a": 1.0}})
        with pytest.raises(DistributedConfigError, match="aggregation row of node 'a' names 'z'"):
            self.mix(w)
        w = DiffusionWeights(beta={"a": {"a": 1.0}, "b": {"z": 1.0}}, gamma={})
        with pytest.raises(DistributedConfigError, match="aggregation row of node 'b' names 'z'"):
            self.mix(w, "conventional")

    def test_nonbridge_mirrors_bridge_cases(self):
        out = self.mix().gamma @ np.array([[np.exp(0.2j)]])
        np.testing.assert_array_equal(out, np.exp(0.2j))
        beta = {"a": {"a": 0.5, "b": 0.5}}
        with pytest.raises(DistributedConfigError, match="no row for node 'b'"):
            self.mix(DiffusionWeights(beta=beta, gamma={}))
        with pytest.raises(DistributedConfigError, match="names 'b', which is not a bridge"):
            self.mix(DiffusionWeights(beta=beta, gamma={"b": {"b": 1.0}}))
        with pytest.raises(DistributedConfigError, match="no row for node 'a'"):
            self.mix(DiffusionWeights(beta={}, gamma={"b": {"a": 1.0}}))

    @pytest.mark.parametrize(
        "diffusion, beta, gamma, message",
        [
            (
                "bridge",
                {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}},
                {"b": {"a": 1.0}},
                "aggregation row for node 'b', which is not a bridge",
            ),
            (
                "bridge",
                {"a": {"a": 0.5, "b": 0.5}},
                {"a": {"a": 1.0}, "b": {"a": 1.0}},
                "redistribution row for node 'a', which is not a non-bridge topology node",
            ),
            (
                "bridge",
                {"a": {"a": 0.5, "b": 0.5}},
                {"b": {"a": 1.0}, "z": {"a": 1.0}},
                "redistribution row for node 'z', which is not a non-bridge topology node",
            ),
            (
                "conventional",
                {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}, "z": {"a": 1.0}},
                {},
                "aggregation row for node 'z', which is not a topology node",
            ),
            (
                "conventional",
                {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}},
                {"b": {"a": 1.0}},
                "redistribution row for node 'b', which conventional diffusion does not read",
            ),
            (
                "none",
                {"a": {"a": 0.5, "b": 0.5}},
                {"b": {"a": 1.0}},
                "aggregation row for node 'a', which diffusion none does not read",
            ),
            (
                "none",
                {},
                {"b": {"a": 1.0}},
                "redistribution row for node 'b', which diffusion none does not read",
            ),
        ],
        ids=["beta-of-non-bridge", "gamma-of-bridge", "gamma-of-unknown", "beta-of-unknown",
             "gamma-under-conventional", "beta-under-none", "gamma-under-none"],
    )
    def test_rows_no_stage_reads_are_rejected(self, diffusion, beta, gamma, message):
        w = DiffusionWeights(beta=beta, gamma=gamma)
        with pytest.raises(DistributedConfigError, match=re.escape(message)):
            self.mix(w, diffusion)

    def test_output_keeps_conjugate_structure(self):
        # real weights commute with conjugation, so mixing top halves is exact
        m = self.mix().matrix
        assert m.dtype.kind == "f"
        x = np.array([[1.0 + 2.0j], [0.5 - 1.0j]])
        np.testing.assert_array_equal(np.conj(m @ x), m @ np.conj(x))

    def test_two_stage_round_is_idempotent_on_consensus(self):
        t, b = reference_network()
        z = np.full((len(t.node_ids), 1), np.exp(0.7j))
        np.testing.assert_allclose(_mixing(t, b, None, "bridge").matrix @ z, z, rtol=0, atol=1e-15)


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
        manual = [shared_model.extract_freq(shared[0])[0]]
        for k in range(1, scn.n_samples):
            vp, vm = aux[0][1], aux[0][2]
            y = v[k : k + 1]
            aux = step(aux_model, aux, y)
            shared = step(shared_model, shared, y, ((0, vp), (1, vm)))
            manual.append(shared_model.extract_freq(shared[0])[0])
        np.testing.assert_array_equal(run.trace(0).f_hat_hz, np.array(manual))

    @pytest.mark.parametrize(
        "mode, models",
        [(None, ["nss"]), ("dfe", ["nss", "shared_increment"]), ("distributed-acekf", ["nss"])],
        ids=["filter", "dfe", "distributed-acekf"],
    )
    def test_one_step_plan_per_model_per_run(self, monkeypatch, mode, models):
        made, real = [], _StepPlan.__init__

        def init(plan, model, batch):
            made.append((model.name, batch))
            real(plan, model, batch)

        monkeypatch.setattr(_StepPlan, "__init__", init)
        scn = make_scenario(duration=0.05)
        if mode is None:
            series = np.stack([clarke_arrays(generate_arrays(scn))[1]] * 3)
            run_filter(nss_model(FS), series, FS, detail=1)
        else:
            t, b = reference_network()
            run_distributed(
                t, scn, [0, 1, 2], snr_db=30.0, mode=mode, assignment=b, theory=True, detail=1
            )
        assert made == [(name, (3,) if mode is None else (3, 7)) for name in models]

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
        mc = run_distributed(t, scn, seeds, detail=len(seeds), **kw)
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
        routes, payloads = run.message_log()
        assert routes, "expected a populated message log"
        for phase, src, dst, row in routes:
            assert frozenset((src, dst)) in t.edges
            if phase == "to_bridge":
                assert dst in b.bridges
                assert row == t.node_ids.index(src)
            else:
                assert phase == "from_bridge"
                assert src in b.bridges
                assert row >= len(t.node_ids)
        # 5 uploads + 5 downloads per tick on this graph, each of one entry
        n_ticks = scn.n_samples - 1
        assert len(routes) == 10
        assert payloads.shape == (n_ticks, len(t.node_ids) + len(b.bridges), 1)

    def test_conventional_messages_flow_both_ways(self):
        t, b = reference_network()
        scn = make_scenario(duration=0.05)
        run = run_distributed(t, scn, [1], snr_db=30.0, diffusion="conventional", detail=True)
        routes, payloads = run.message_log()
        assert len(routes) == 2 * len(t.edges)
        assert {phase for phase, *_ in routes} == {"to_neighbor"}
        pairs = {(src, dst) for _, src, dst, _ in routes}
        assert len(pairs) == len(routes) and {frozenset(p) for p in pairs} == t.edges
        assert payloads.shape[:1] + payloads.shape[2:] == (scn.n_samples - 1, 1)

    def test_messages_csv_roundtrip(self, tmp_path):
        # laid out as the CLI lays them out: phase, src and dst coded by route,
        # the payloads plain float columns
        payload = np.array([0.5 - 0.25j, 1 / 3 + 0j])
        route = np.array([0, 1])
        columns = [
            np.array([1, 1]), (["to_bridge", "from_bridge"], route), ([2, "a,b"], route),
            (["a,b", 2], route), payload.real, payload.imag,
        ]
        header = ["k", "phase", "src", "dst", "payload_re", "payload_im"]
        path = tmp_path / "msgs.csv"
        _write_csv(path, header, columns)
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
            diffusion=diffusion, assignment=b, detail=2,
        )
        assert run.local_states.shape == run.states.shape
        matrix = run.mixing.matrix
        if matrix is None:
            np.testing.assert_array_equal(run.local_states, run.states)
            return
        for k in range(1, run.t_s.size):
            mixed = matrix @ run.local_states[:, :, k]
            np.testing.assert_allclose(mixed, run.states[:, :, k], rtol=0, atol=1e-14)

    def test_detail_keeps_the_leading_rows(self):
        # detail=1 keeps seed row 0; the other rows' traces carry f_hat and flags only
        t, b = reference_network()
        scn = sag_scenario(duration=0.05)
        run = run_distributed(t, scn, [3, 4, 5], snr_db=30.0, assignment=b, detail=1)
        full = run_distributed(t, scn, [3, 4, 5], snr_db=30.0, assignment=b, detail=3)
        for name in ("states", "local_states", "innovation_power"):
            assert getattr(run, name).shape[0] == 1
            np.testing.assert_array_equal(getattr(run, name)[0], getattr(full, name)[0])
        for n in t.node_ids:
            np.testing.assert_array_equal(run.trace(n).states, full.trace(n).states)
            for row in (1, 2):
                tr = run.trace(n, row)
                assert tr.states is None and tr.innovation_power is None
                np.testing.assert_array_equal(tr.f_hat_hz, full.trace(n, row).f_hat_hz)
                np.testing.assert_array_equal(tr.flags, full.trace(n, row).flags)
        (routes, payloads), (full_routes, full_payloads) = run.message_log(), full.message_log()
        assert routes == full_routes
        np.testing.assert_array_equal(payloads, full_payloads)

    def test_message_log_sends_over_the_mixing_the_run_resolved(self, monkeypatch):
        real, calls = gridfreq.network._mixing, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gridfreq.network, "_mixing", counted)
        t, b = reference_network()
        run = run_distributed(t, make_scenario(duration=0.05), [0], snr_db=30.0, assignment=b,
                              detail=1)
        routes, _ = run.message_log()
        assert len(calls) == 1
        assert routes == run.mixing.routes and run.mixing.aggregators == (4, 6)

    def test_theory_reads_seed_row_0(self):
        # the error recursion of a seed batch is the one of its first seed alone
        t, b = reference_network()
        scn = sag_scenario(duration=0.05)
        kw = dict(snr_db=30.0, assignment=b, theory=True)
        alone = run_distributed(t, scn, [9], **kw).error_state
        batch = run_distributed(t, scn, [9, 10, 11], **kw).error_state
        np.testing.assert_array_equal(batch.E, alone.E)
        np.testing.assert_array_equal(batch.V, alone.V)

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


def test_dfe_gap_lies_in_its_shared_filter():
    """Why ``dfe`` trails ``distributed-acekf``, pinned at one node with no
    diffusion, where ``distributed-acekf`` is exactly ``dfe``'s ``nss``
    tracker on the same rows.

    The shared filter that ``dfe`` reads its estimate off is both noisier
    and slower than the tracker whose v± it takes as its observation row,
    so the gap is local, not in the diffusion: at 30 dB over 400 seeds the
    MSE over ticks 250-499 reads 1.675e-2 Hz² against 9.68e-3 (1.73×), and
    after a 50 -> 51 Hz step the seed mean settles within 0.05 Hz after
    70 ms against 27 ms.  Only the direction is asserted.
    """
    scn = Scenario([ScenarioSegment(0.0, 0.5, 50.0), ScenarioSegment(0.5, 0.7, 51.0)], FS, 0.7)
    mse, settle = {}, {}
    for mode in ("dfe", "distributed-acekf"):
        f_hat = run_distributed(
            Topology((1,), []), scn, range(400), snr_db=30.0, mode=mode, diffusion="none"
        ).f_hat_hz[:, 0]
        mse[mode] = float(np.mean((f_hat[:, 250:500] - 50.0) ** 2))
        # the last tick after the step at which the seed mean is more than 0.05 Hz off
        settle[mode] = int(np.flatnonzero(np.abs(f_hat[:, 500:].mean(axis=0) - 51.0) > 0.05)[-1])
    print(f"dfe shared filter vs its nss tracker: MSE {mse['dfe']:.3e} vs "
          f"{mse['distributed-acekf']:.3e} Hz² (ratio {mse['dfe'] / mse['distributed-acekf']:.2f}),"
          f" settled after {settle['dfe']} vs {settle['distributed-acekf']} ms")
    assert mse["dfe"] > mse["distributed-acekf"]
    assert settle["dfe"] > settle["distributed-acekf"]


def weighted(row, estimates):
    """One node's combiner: the weighted sum of ``estimates`` over its weight row."""
    return sum(w * estimates[m] for m, w in row.items())


def dict_reference_run(t, b, scn, seed, mode, diffusion):
    """Node-by-node run over per-node weighted sums, the semantics the stacked tick keeps.

    Returns (node -> f_hat list, message tuples (k, phase, src, dst, payload)).
    """
    w = conventional_weights(t) if diffusion == "conventional" else uniform_weights(t, b)
    aux_model = nss_model(FS, snr_db=30.0)
    shared_model = shared_increment_model(FS, snr_db=30.0)
    v = {
        n: clarke_arrays(add_noise(generate_arrays(scn), [seed, j], 30.0))[1]
        for j, n in enumerate(t.node_ids)
    }
    aux = {n: aux_model.initial_state(v[n][0]) for n in t.node_ids}
    shared = {n: shared_model.initial_state(v[n][0]) for n in t.node_ids}
    out, out_model = (shared, shared_model) if mode == "dfe" else (aux, aux_model)
    f_hat = {n: [out_model.extract_freq(out[n][0])[0]] for n in t.node_ids}
    messages = []

    def log(k, phase, src, dst, vec):
        messages.extend((k, phase, src, dst, complex(z)) for z in vec)

    for k in range(1, scn.n_samples):
        for n in t.node_ids:
            y = v[n][k : k + 1]
            vp, vm = aux[n][0][1], aux[n][0][2]
            aux[n] = step(aux_model, aux[n], y)
            if mode == "dfe":
                shared[n] = step(shared_model, shared[n], y, ((0, vp), (1, vm)))
        est = {n: out[n][0] for n in t.node_ids}
        combined = est
        if diffusion == "conventional":
            for i in t.node_ids:
                for nb in t.neighbors(i):
                    log(k, "to_neighbor", nb, i, est[nb])
            combined = {i: weighted(w.beta[i], est) for i in t.node_ids}
        elif diffusion == "bridge":
            psi = {}
            for l in sorted(b.bridges, key=str):
                for nb in t.neighbors(l):
                    log(k, "to_bridge", nb, l, est[nb])
                psi[l] = weighted(w.beta[l], est)
                for nb in t.neighbors(l):
                    log(k, "from_bridge", l, nb, psi[l])
            combined = {
                i: psi[i] if i in b.bridges else weighted(w.gamma[i], psi) for i in t.node_ids
            }
        for n in t.node_ids:
            out[n] = combined[n], out[n][1]
            f_hat[n].append(out_model.extract_freq(out[n][0])[0])
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
            routes, payloads = run.message_log()
            ticks, _, entries = payloads.shape
            log = [
                (k + 1, phase, src, dst, payloads[k, row, e])
                for k in range(ticks) for phase, src, dst, row in routes for e in range(entries)
            ]
            assert [m[:4] for m in log] == [m[:4] for m in msg_ref]
            got = np.array([m[4] for m in log], dtype=complex)
            want = np.array([m[4] for m in msg_ref], dtype=complex)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestStreamedObservations:
    """A run reads each (seed, node) row's observations a block of ticks at a time."""

    @pytest.mark.parametrize("snr_db", [30.0, None])
    @pytest.mark.parametrize("seeds, nodes", [(1, 1), (1, 7), (3, 7)])
    @pytest.mark.parametrize("ticks", [1, 2, 127, 128, 129, 257])
    def test_blocks_equal_the_whole_run_of_each_row(self, ticks, seeds, nodes, snr_db):
        # row (s, j) draws and transforms bit for bit what one call over its whole run gives,
        # a 1-tick remainder included; at one tick these phases round differently in a
        # several-row Clarke product than in a 1-row one
        clean = [
            generate_arrays(make_scenario(
                amps=(0.2 + 0.1 * j, 1.0, 1.0),
                offs=(0.1 * j, math.radians(20.0), math.radians(-20.0)),
                duration=ticks / FS,
            ))
            for j in range(nodes)
        ]
        seed_list = tuple(range(5, 5 + seeds))
        blocks = list(_observations(clean, seed_list, snr_db, ticks))
        assert [len(b) for b in blocks] == {257: [128, 129]}.get(ticks, [ticks])
        want = np.stack([
            clarke_arrays(add_noise(clean[j], [s, j], snr_db))[1]
            for s in seed_list for j in range(nodes)
        ], axis=1)
        np.testing.assert_array_equal(np.concatenate(blocks), want)

    def test_run_holds_its_estimates_not_its_inputs(self):
        # 40 seeds x 7 nodes x 1,000 ticks: the estimates take 2.24 MB and uint8 flags 0.28 MB;
        # with every observation held (4.48 MB) and int64 flags (2.24 MB) the peak was 10.1 MB,
        # with a block of observations at a time it is 6.1 MB
        t, b = reference_network()
        scn = make_scenario(duration=1.0)
        run_distributed(t, scn, [0], snr_db=30.0, assignment=b)
        tracemalloc.start()
        try:
            run = run_distributed(t, scn, range(40), snr_db=30.0, assignment=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.flags.dtype == np.uint8
        assert peak < 8.0e6, f"traced peak {peak / 1e6:.2f} MB"


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

    def test_negative_detail_rejected(self):
        t, b = reference_network()
        with pytest.raises(ValueError, match="detail must be at least 0, got -1"):
            run_distributed(t, make_scenario(duration=0.05), [0], assignment=b, detail=-1)

    def test_degenerate_filter_names_tick_node_and_seed(self, monkeypatch):
        t, _ = reference_network()
        scn = make_scenario(duration=0.1)
        monkeypatch.setattr(gridfreq.estimators, "COND_LIMIT", 1.0)
        with pytest.raises(FilterDegenerateError, match="tick 2: node 1:") as exc:
            run_distributed(t, scn, [0], snr_db=30.0)
        assert exc.value.tick == 2
        assert exc.value.row == (0, 0)
        with pytest.raises(FilterDegenerateError, match="tick 2: node 1: seed 5:"):
            run_distributed(t, scn, [5, 6], snr_db=30.0)

    def test_incomplete_weights_rejected(self):
        t, b = reference_network()
        w = DiffusionWeights(beta={4: {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}}, gamma={})
        with pytest.raises(DistributedConfigError, match="incomplete"):
            run_distributed(t, make_scenario(), [0], assignment=b, weights=w)
