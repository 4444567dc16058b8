"""Node topology, bridge selection, diffusion combiners, and the synchronous
multi-node simulation loop.

The distributed estimator exchanges phase-increment estimates through a
two-stage protocol: designated *bridge* nodes (an independent dominating set)
average the posterior estimates of their closed neighborhood, then every
remaining node averages the results of its neighboring bridges.  The module
also hosts a conventional one-stage variant (every node averages over its own
closed neighborhood) used as the comparison baseline, and a mode that diffuses
full state vectors instead of the shared increment alone.

The simulation runs every node of every seed as one filter batch: a tick is
one filter step per filter kind, and a diffusion round is one product with a
nodes×nodes weight matrix built once per run from the dict combiners.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analysis import NetworkErrorState, initial_network_state, mse_step
from .augmented import AugmentedMatrix, AugmentedVector
from .estimators import (
    DEFAULT_COND_LIMIT,
    FilterDegenerateError,
    FilterRun,
    FilterState,
    FreqTrace,
    StateSpaceModel,
    StepDiagnostics,
    _step,
    nss_model,
    shared_increment_model,
    with_sequence_observation,
)
from .signals import Scenario, clarke_arrays, generate_arrays

__all__ = [
    "TopologyError",
    "BridgeAssignmentError",
    "WeightsError",
    "DiffusionError",
    "DistributedConfigError",
    "Topology",
    "BridgeAssignment",
    "DiffusionWeights",
    "DistributedRun",
    "select_bridges",
    "uniform_weights",
    "conventional_weights",
    "bridge_diffuse",
    "nonbridge_diffuse",
    "run_distributed",
    "reference_network",
]


class TopologyError(ValueError):
    pass


class BridgeAssignmentError(ValueError):
    pass


class WeightsError(ValueError):
    pass


class DiffusionError(RuntimeError):
    """A combiner was asked to run without the estimates it needs."""


class DistributedConfigError(ValueError):
    """Pre-run validation of a distributed setup failed."""


# ---------------------------------------------------------------------------
# graph model


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph.

    ``node_ids`` fixes the stacking order used everywhere downstream (per-node
    random streams, Monte-Carlo arrays, block matrices in the error analysis).
    """

    node_ids: tuple
    edges: frozenset

    def __init__(self, node_ids: Sequence, edges):
        ids = tuple(node_ids)
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate node ids")
        known = set(ids)
        normalized = set()
        for e in edges:
            a, b = tuple(e)
            if a == b:
                raise TopologyError(f"self-loop on node {a!r}")
            if a not in known or b not in known:
                raise TopologyError(f"edge ({a!r}, {b!r}) references unknown node")
            normalized.add(frozenset((a, b)))
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "edges", frozenset(normalized))
        if ids and not self.is_connected:
            warnings.warn("topology is not connected", stacklevel=2)

    def neighbors(self, i) -> tuple:
        return tuple(sorted((set(e) - {i}).pop() for e in self.edges if i in e))

    def closed_neighborhood(self, i) -> tuple:
        return tuple(sorted(self.neighbors(i) + (i,)))

    def degree(self, i) -> int:
        return len(self.neighbors(i))

    @property
    def is_connected(self) -> bool:
        if not self.node_ids:
            return True
        seen = {self.node_ids[0]}
        frontier = [self.node_ids[0]]
        while frontier:
            nxt = frontier.pop()
            for nb in self.neighbors(nxt):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return len(seen) == len(self.node_ids)


@dataclass(frozen=True)
class BridgeAssignment:
    """A subset of nodes acting as diffusion aggregators.

    Valid assignments are independent (no two bridges adjacent) and dominating
    (every other node can reach at least one bridge in a single hop).
    """

    topology: Topology
    bridges: frozenset

    def __init__(self, topology: Topology, bridges):
        bset = frozenset(bridges)
        unknown = bset - set(topology.node_ids)
        if unknown:
            raise BridgeAssignmentError(f"unknown bridge nodes {sorted(unknown)!r}")
        for e in topology.edges:
            if e <= bset:
                a, b = sorted(e)
                raise BridgeAssignmentError(
                    f"bridges {a!r} and {b!r} are adjacent (independence violated)"
                )
        for n in topology.node_ids:
            if n not in bset and not bset.intersection(topology.neighbors(n)):
                raise BridgeAssignmentError(f"node {n!r} has no bridge neighbor")
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "bridges", bset)

    def bridges_of(self, i) -> tuple:
        """Bridges serving node ``i`` (itself, if ``i`` is a bridge)."""
        if i in self.bridges:
            return (i,)
        return tuple(sorted(self.bridges.intersection(self.topology.neighbors(i))))


def select_bridges(t: Topology, seed: int = 0) -> BridgeAssignment:
    """Pick a bridge set greedily: highest degree first, seeded tie-break.

    A maximal independent set is automatically dominating, so the greedy sweep
    always yields a valid assignment on a well-formed topology; the trailing
    check is defensive and names the uncovered node if it ever trips.
    """
    order = {n: r for n, r in zip(t.node_ids, np.random.default_rng(seed).permutation(len(t.node_ids)))}
    chosen: set = set()
    for n in sorted(t.node_ids, key=lambda n: (-t.degree(n), order[n])):
        if not chosen.intersection(t.neighbors(n)):
            chosen.add(n)
    for n in t.node_ids:
        if n not in chosen and not chosen.intersection(t.neighbors(n)):
            raise BridgeAssignmentError(f"greedy selection left node {n!r} uncovered")
    return BridgeAssignment(t, chosen)


@dataclass(frozen=True)
class DiffusionWeights:
    """Convex combination weights for the two diffusion stages.

    ``beta[i]`` maps each member of node i's closed neighborhood to its weight
    in i's aggregation stage; ``gamma[m]`` maps each bridge serving node m to
    its weight in m's redistribution stage.  Every row must be finite,
    non-negative and sum to one (zeros are allowed so a row can ignore a
    contributor).
    """

    beta: Mapping
    gamma: Mapping

    def __post_init__(self):
        for label, rows in (("beta", self.beta), ("gamma", self.gamma)):
            for node, row in rows.items():
                if not row:
                    raise WeightsError(f"{label} row for node {node!r} is empty")
                vals = np.array(list(row.values()), dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise WeightsError(f"{label} row for node {node!r} has non-finite weights")
                if np.any(vals < 0):
                    raise WeightsError(f"{label} row for node {node!r} has negative weights")
                if abs(vals.sum() - 1.0) > 1e-9:
                    raise WeightsError(
                        f"{label} row for node {node!r} sums to {vals.sum():.12f}, expected 1"
                    )


def uniform_weights(t: Topology, b: BridgeAssignment) -> DiffusionWeights:
    """Equal weights over each bridge's closed neighborhood and each node's bridges."""
    beta = {}
    for i in sorted(b.bridges, key=str):
        members = t.closed_neighborhood(i)
        beta[i] = {m: 1.0 / len(members) for m in members}
    gamma = {}
    for n in t.node_ids:
        if n in b.bridges:
            continue
        serving = b.bridges_of(n)
        gamma[n] = {l: 1.0 / len(serving) for l in serving}
    return DiffusionWeights(beta=beta, gamma=gamma)


def conventional_weights(t: Topology) -> DiffusionWeights:
    """One-stage baseline: every node averages over its own closed neighborhood."""
    beta = {}
    for n in t.node_ids:
        members = t.closed_neighborhood(n)
        beta[n] = {m: 1.0 / len(members) for m in members}
    return DiffusionWeights(beta=beta, gamma={})


def reference_network() -> tuple[Topology, BridgeAssignment]:
    """The seven-node benchmark graph with bridges at nodes 4 and 6."""
    t = Topology(
        node_ids=(1, 2, 3, 4, 5, 6, 7),
        edges=[(1, 4), (2, 4), (3, 4), (5, 6), (7, 6), (1, 2), (3, 5), (2, 7)],
    )
    return t, BridgeAssignment(t, {4, 6})


# ---------------------------------------------------------------------------
# diffusion combiners


def _combine(row: Mapping, estimates: Mapping, who: str) -> AugmentedVector:
    missing = sorted(set(row) - set(estimates), key=str)
    if missing:
        raise DiffusionError(f"{who}: missing estimates from nodes {missing!r}")
    total = sum(row.values())
    out = None
    for m, w in row.items():
        term = (w / total) * estimates[m].top
        out = term if out is None else out + term
    return AugmentedVector(out)


def bridge_diffuse(i, estimates: Mapping, w: DiffusionWeights) -> AugmentedVector:
    """Aggregation stage: weighted average of closed-neighborhood posteriors.

    A missing estimate raises.
    """
    if i not in w.beta:
        raise DiffusionError(f"node {i!r} has no aggregation weight row")
    return _combine(w.beta[i], estimates, f"aggregation at node {i!r}")


def nonbridge_diffuse(m, bridge_estimates: Mapping, w: DiffusionWeights) -> AugmentedVector:
    """Redistribution stage: weighted average of the serving bridges' outputs."""
    if m not in w.gamma:
        raise DiffusionError(f"node {m!r} has no redistribution weight row")
    return _combine(w.gamma[m], bridge_estimates, f"redistribution at node {m!r}")


# ---------------------------------------------------------------------------
# diffusion as weight matrices, and the synchronous tick


@dataclass(frozen=True)
class _Mixing:
    """One run's diffusion over the node axis, built once before the loop.

    ``matrix`` maps the nodes' posteriors to their combined estimates (None:
    no diffusion).  It is ``gamma @ beta``: ``beta`` holds the aggregation
    rows of the ``aggregators`` (the bridges, or every node in the one-stage
    modes), and ``gamma`` each node's redistribution row over them.  A route
    ``(phase, src, dst, row)`` is one logged transfer per tick; ``row``
    indexes the node posteriors followed by the aggregates, whose outputs
    the ``from_bridge`` messages carry.
    """

    matrix: np.ndarray | None
    aggregators: tuple
    beta: np.ndarray
    gamma: np.ndarray
    routes: tuple


def _mixing(
    topology: Topology,
    assignment: BridgeAssignment | None,
    weights: DiffusionWeights,
    diffusion: str,
) -> _Mixing:
    """Weight matrices of a resolved diffusion setup.

    Each row is its node's combiner applied to unit vectors, so the dict
    combiners stay the one definition of the weights, their normalization
    and their missing-estimate errors.  Bridge diffusion composes the two
    stages into Γ @ Β (a bridge serves itself with weight 1); the one-stage
    modes have Γ = I, and no diffusion also Β = I.
    """
    ids = topology.node_ids
    identity = np.eye(len(ids))
    if diffusion == "none":
        return _Mixing(None, ids, identity, identity, ())
    pos = {n: j for j, n in enumerate(ids)}
    units = {n: AugmentedVector(e) for n, e in zip(ids, identity)}
    if diffusion == "conventional":
        matrix = np.array([bridge_diffuse(i, units, weights).top for i in ids])
        routes = [("to_neighbor", nb, i, pos[nb]) for i in ids for nb in topology.neighbors(i)]
        return _Mixing(matrix, ids, matrix, identity, tuple(routes))
    bridges = sorted(assignment.bridges, key=str)
    beta = np.array([bridge_diffuse(b, units, weights).top for b in bridges])
    bridge_units = {b: AugmentedVector(e) for b, e in zip(bridges, np.eye(len(bridges)))}
    gamma = np.array(
        [
            bridge_units[i].top if i in assignment.bridges
            else nonbridge_diffuse(i, bridge_units, weights).top
            for i in ids
        ]
    )
    routes = []
    for r, b in enumerate(bridges):
        routes += [("to_bridge", nb, b, pos[nb]) for nb in topology.neighbors(b)]
        routes += [("from_bridge", b, nb, len(ids) + r) for nb in topology.neighbors(b)]
    return _Mixing(gamma @ beta, tuple(bridges), beta, gamma, tuple(routes))


def _diffuse_all(estimates: np.ndarray, mixing: _Mixing) -> np.ndarray:
    """Run one diffusion round over (seeds, nodes, entries) posteriors."""
    return estimates if mixing.matrix is None else mixing.matrix @ estimates


def _batch_step(model_of, state: FilterState, y: AugmentedVector, cond_limit: float):
    """``_step`` for every (seed, node) batch row at once.

    ``model_of(rows)`` gives the model of the batch rows ``rows`` (``...``
    for all of them).  A degenerate step raises the error of the first row,
    node by node, that also degenerates when stepped alone; the error carries
    that row's (seed, node) index as ``row`` (None if no row fails alone).
    """
    try:
        return _step(model_of(...), state, y, cond_limit)
    except FilterDegenerateError as exc:
        exc.row = None
        raise _failing_row(model_of, state, y, cond_limit) or exc


def _failing_row(model_of, state: FilterState, y: AugmentedVector, cond_limit: float):
    n_seeds, n_nodes = y.top.shape[:2]
    for j in range(n_nodes):
        for s in range(n_seeds):
            rows = (slice(s, s + 1), slice(j, j + 1))
            blocks = [b[rows] if b.ndim > 2 else b for b in (state.M.block11, state.M.block12)]
            alone = FilterState(
                AugmentedVector(state.x_hat.top[rows]), AugmentedMatrix(*blocks), state.k
            )
            try:
                _step(model_of(rows), alone, AugmentedVector(y.top[rows]), cond_limit)
            except FilterDegenerateError as exc:
                exc.row = (s, j)
                return exc
    return None


def _tick(
    aux_model: StateSpaceModel,
    shared_model: StateSpaceModel | None,
    aux: FilterState,
    shared: FilterState | None,
    y: AugmentedVector,
    mixing: _Mixing,
    cond_limit: float,
) -> tuple[FilterState, FilterState | None, StepDiagnostics, np.ndarray]:
    """One synchronous round of the network, for every (seed, node) batch row.

    The auxiliary ``nss`` trackers advance on the new observations ``y``.  In
    ``dfe`` mode the 2-dim shared filters (``shared``) are then corrected
    using observation matrices built from the sequence-voltage estimates
    standing *before* this tick.  Those are the values consistent with the
    observation pairing v_k = v+_{k-1} x + v-_{k-1} conj(x); using the
    refreshed posteriors instead would make the observation explain itself
    and collapse the increment estimate toward 1.  The output filter's
    posteriors (the shared filters', or the trackers' own in full-state mode,
    where ``shared`` is None) then run through the diffusion, and that filter
    restarts from its combined value.  Returns the new (aux, shared) states,
    the output step's diagnostics and its posterior top halves before the
    diffusion.

    In ``dfe`` mode the auxiliary tracker stays fully local: overwriting its
    increment entry with the diffused value couples the two filters into a
    feedback loop that is unstable at noiseless gain levels (a slowly
    growing oscillation near 75 Hz).
    """
    v_plus, v_minus = aux.x_hat.top[..., 1], aux.x_hat.top[..., 2]
    aux, diag = _batch_step(lambda rows: aux_model, aux, y, cond_limit)
    out = aux
    if shared is not None:
        out, diag = _batch_step(
            lambda rows: with_sequence_observation(shared_model, v_plus[rows], v_minus[rows]),
            shared, y, cond_limit,
        )
    local = out.x_hat.top
    out = FilterState(AugmentedVector(_diffuse_all(local, mixing)), out.M, out.k)
    return (out, None, diag, local) if shared is None else (aux, out, diag, local)


# ---------------------------------------------------------------------------
# the simulation driver


@dataclass(kw_only=True)
class DistributedRun(FilterRun):
    """What :func:`run_distributed` produced: arrays shaped (seeds, nodes, ticks).

    ``f_true_hz`` is (nodes, ticks).  With ``detail``, ``local_states`` holds
    the output filter's posterior top halves before diffusion, shaped like
    ``states``.  The final error state reads seed row 0.
    """

    topology: Topology
    assignment: BridgeAssignment | None
    weights: DiffusionWeights
    mode: str
    diffusion: str
    seeds: tuple
    error_state: NetworkErrorState | None = None  # after the last tick
    local_states: np.ndarray | None = None

    @property
    def node_ids(self) -> tuple:
        return self.topology.node_ids

    def trace(self, node, row: int = 0) -> FreqTrace:
        """The view of one node at one seed row."""
        j = self.node_ids.index(node)
        return self._view((row, j), self.f_true_hz[j])

    def message_log(self) -> tuple:
        """Seed row 0's protocol traffic as columns (k, phase, src, dst, payload).

        One row per complex entry sent over a route at a tick k >= 1, ordered
        by tick, route and entry; a ``from_bridge`` payload is the bridge's
        aggregate.  The run must keep ``detail``.
        """
        if self.local_states is None:
            raise ValueError("the message log needs a run kept with detail")
        mixing = _mixing(self.topology, self.assignment, self.weights, self.diffusion)
        x = self.local_states[0, :, 1:].transpose(1, 0, 2)  # (ticks - 1, nodes, entries)
        # one product per tick, stacked: bit for bit the aggregates the bridges formed
        payloads = np.concatenate([x, mixing.beta @ x], axis=1)
        per_tick = [route for route in mixing.routes for _ in range(x.shape[2])]
        k = np.repeat(np.arange(1, x.shape[0] + 1), len(per_tick))
        phase, src, dst = ([route[i] for route in per_tick] * x.shape[0] for i in range(3))
        return k, phase, src, dst, payloads[:, [row for *_, row in mixing.routes]].reshape(-1)


def _resolve_scenarios(topology: Topology, scenarios) -> dict:
    if isinstance(scenarios, Scenario):
        per_node = {n: scenarios for n in topology.node_ids}
    else:
        per_node = dict(scenarios)
        missing = [n for n in topology.node_ids if n not in per_node]
        if missing:
            raise DistributedConfigError(f"no scenario for nodes {missing!r}")
    ref = per_node[topology.node_ids[0]]
    for n, scn in per_node.items():
        if scn.sample_rate_hz != ref.sample_rate_hz or scn.n_samples != ref.n_samples:
            raise DistributedConfigError(
                f"scenario for node {n!r} disagrees on sample rate or duration"
            )
    return per_node


def _resolve_weights(
    topology: Topology,
    assignment: BridgeAssignment | None,
    weights: DiffusionWeights | None,
    diffusion: str,
):
    if diffusion == "none":
        return assignment, weights
    if diffusion == "conventional":
        if weights is None:
            weights = conventional_weights(topology)
        missing = [n for n in topology.node_ids if n not in weights.beta]
        if missing:
            raise DistributedConfigError(
                f"conventional diffusion needs an aggregation row per node; missing {missing!r}"
            )
        return assignment, weights
    if diffusion != "bridge":
        raise DistributedConfigError(f"unknown diffusion mode {diffusion!r}")
    if assignment is None:
        assignment = select_bridges(topology)
    if weights is None:
        weights = uniform_weights(topology, assignment)
    missing_b = [b for b in assignment.bridges if b not in weights.beta]
    missing_g = [
        n for n in topology.node_ids if n not in assignment.bridges and n not in weights.gamma
    ]
    if missing_b or missing_g:
        raise DistributedConfigError(
            f"weights incomplete: aggregation rows missing {missing_b!r},"
            f" redistribution rows missing {missing_g!r}"
        )
    return assignment, weights


def _node_voltage(scenario: Scenario, seed, node_index: int, snr_db) -> np.ndarray:
    rng_seed = None if snr_db is None else [int(seed), int(node_index)]
    vabc = generate_arrays(scenario, seed=rng_seed, snr_db=snr_db)
    _, v = clarke_arrays(vabc)
    return v


def run_distributed(
    topology: Topology,
    scenarios,
    seeds: Sequence[int],
    snr_db: float | None = None,
    mode: str = "dfe",
    diffusion: str = "bridge",
    assignment: BridgeAssignment | None = None,
    weights: DiffusionWeights | None = None,
    f_init_hz: float = 50.0,
    theory: bool = False,
    detail: bool = False,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> DistributedRun:
    """Simulate the network over a batch of seeds, every node of every seed in one batch.

    ``scenarios`` is either a single Scenario shared by every node or a map
    node→Scenario (same sampling grid everywhere).  Per-node observation noise
    comes from independent streams derived from (seed, node position), so a
    node's stream does not depend on which other nodes exist, and each seed
    row is exactly the run at that seed alone: paired comparisons across
    modes can rely on common random numbers.  With ``detail`` the run keeps
    the output filter's posterior top halves, before (``local_states``, from
    which :meth:`DistributedRun.message_log` is expanded) and after the
    diffusion (``states``), and its innovation power.  With ``theory`` (one seed only) the error
    recursions of :mod:`gridfreq.analysis` start from the output filter's
    initial covariance, step every tick on that filter's diagnostics, and
    the run returns their final state.
    """
    per_node = _resolve_scenarios(topology, scenarios)
    assignment, weights = _resolve_weights(topology, assignment, weights, diffusion)
    if mode not in ("dfe", "distributed-acekf"):
        raise DistributedConfigError(f"unknown estimator mode {mode!r}")
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise DistributedConfigError("empty seed list")
    if theory and len(seeds) > 1:
        raise DistributedConfigError(f"theory needs exactly one seed, got {len(seeds)}")
    mixing = _mixing(topology, assignment, weights, diffusion)
    ids = topology.node_ids
    fs = per_node[ids[0]].sample_rate_hz
    n_ticks = per_node[ids[0]].n_samples
    volts = np.empty((n_ticks, len(seeds), len(ids)), dtype=complex)
    for s, seed in enumerate(seeds):
        for j, n in enumerate(ids):
            volts[:, s, j] = _node_voltage(per_node[n], seed, j, snr_db)

    aux_model = out_model = nss_model(fs, snr_db=snr_db)
    aux = out = aux_model.initial_state(volts[0], f_init_hz=f_init_hz)
    shared_model = shared = None
    if mode == "dfe":
        shared_model = out_model = shared_increment_model(fs, snr_db=snr_db)
        shared = out = shared_model.initial_state(volts[0], f_init_hz=f_init_hz)

    shape = (len(seeds), len(ids), n_ticks)
    f_hat = np.empty(shape)
    flags = np.zeros(shape, dtype=int)
    states = np.empty(shape + (out.x_hat.n,), dtype=complex) if detail else None
    local_states = np.empty_like(states) if detail else None
    innov = np.zeros(shape) if detail else None

    errors = None
    if theory:
        errors = initial_network_state(
            ids, mixing.aggregators, mixing.beta, mixing.gamma,
            out.M.materialize(), out_model.Cu.materialize(), out_model.Cn.materialize(),
        )

    f_hat[..., 0], flags[..., 0] = out_model.extract_freq(out.x_hat.top)
    if detail:
        states[:, :, 0] = local_states[:, :, 0] = out.x_hat.top
    for k in range(1, n_ticks):
        y = AugmentedVector(volts[k][..., None])
        try:
            aux, shared, diag, local = _tick(
                aux_model, shared_model, aux, shared, y, mixing, cond_limit
            )
        except FilterDegenerateError as exc:
            where = "" if exc.row is None else (
                f"node {ids[exc.row[1]]!r}: seed {seeds[exc.row[0]]}: "
            )
            raise FilterDegenerateError(f"tick {k}: {where}{exc}") from exc
        out = aux if shared is None else shared
        f_hat[..., k], flags[..., k] = out_model.extract_freq(out.x_hat.top)
        if detail:
            states[:, :, k] = out.x_hat.top
            local_states[:, :, k] = local
            innov[..., k] = np.abs(diag.innovation.top[..., 0]) ** 2
        if errors is not None:
            errors = mse_step(errors, diag)

    return DistributedRun(
        t_s=np.arange(n_ticks) / fs,
        f_hat_hz=f_hat,
        flags=flags,
        f_true_hz=np.stack([per_node[n].true_freq() for n in ids]),
        innovation_power=innov,
        states=states,
        topology=topology,
        assignment=assignment,
        weights=weights,
        mode=mode,
        diffusion=diffusion,
        seeds=seeds,
        error_state=errors,
        local_states=local_states,
    )
