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

import csv
import warnings
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .augmented import AugmentedMatrix, AugmentedVector, augment
from .estimators import (
    DEFAULT_COND_LIMIT,
    FilterDegenerateError,
    FilterState,
    FreqTrace,
    StateSpaceModel,
    StepDiagnostics,
    _fmt,
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
    "TickRecord",
    "Message",
    "DistributedRun",
    "DistributedMcRun",
    "select_bridges",
    "uniform_weights",
    "conventional_weights",
    "bridge_diffuse",
    "nonbridge_diffuse",
    "dfe_tick",
    "run_distributed",
    "run_distributed_mc",
    "reference_network",
    "write_messages_csv",
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
class TickRecord:
    """Shared-filter internals captured for the error recursions."""

    k: int
    M_prior: np.ndarray
    M_post: np.ndarray
    A: np.ndarray
    gain: np.ndarray
    H: np.ndarray


@dataclass(frozen=True)
class Message:
    k: int
    phase: str  # "to_bridge" | "from_bridge" | "to_neighbor"
    src: Hashable
    dst: Hashable
    payload: complex


@dataclass(frozen=True)
class _Mixing:
    """One run's diffusion over the node axis, built once before the loop.

    ``matrix`` maps the nodes' posteriors to their combined estimates (None:
    no diffusion).  ``beta`` holds the bridges' aggregation rows, whose
    outputs the ``from_bridge`` messages carry.  A route ``(phase, src, dst,
    row)`` is one logged transfer per tick; ``row`` indexes the node
    posteriors followed by the bridge aggregates.
    """

    matrix: np.ndarray | None
    beta: np.ndarray | None
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
    stages into Γ @ Β (a bridge serves itself with weight 1).
    """
    if diffusion == "none":
        return _Mixing(None, None, ())
    ids = topology.node_ids
    pos = {n: j for j, n in enumerate(ids)}
    units = {n: AugmentedVector(e) for n, e in zip(ids, np.eye(len(ids)))}
    if diffusion == "conventional":
        matrix = np.array([bridge_diffuse(i, units, weights).top for i in ids])
        routes = [("to_neighbor", nb, i, pos[nb]) for i in ids for nb in topology.neighbors(i)]
        return _Mixing(matrix, None, tuple(routes))
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
    return _Mixing(gamma @ beta, beta, tuple(routes))


def _diffuse_all(
    estimates: np.ndarray, k: int, mixing: _Mixing, messages: list | None
) -> np.ndarray:
    """Run one diffusion round over (seeds, nodes, entries) posteriors.

    Returns the combined estimates.  The message log reads seed row 0; only
    single runs keep one.
    """
    if messages is not None and mixing.routes:
        payloads = estimates[0]
        if mixing.beta is not None:
            payloads = np.concatenate([payloads, mixing.beta @ payloads])
        for phase, src, dst, row in mixing.routes:
            messages.extend(Message(k, phase, src, dst, complex(z)) for z in payloads[row])
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


def dfe_tick(
    aux_model: StateSpaceModel,
    shared_model: StateSpaceModel,
    aux: FilterState,
    shared: FilterState,
    y: AugmentedVector,
    k: int,
    mixing: _Mixing,
    messages: list | None = None,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> tuple[FilterState, FilterState, StepDiagnostics]:
    """One synchronous round of the distributed frequency estimator.

    States and the observation ``y`` carry a (seeds, nodes) batch.  The
    sequence-voltage estimates standing *before* this tick are captured, the
    auxiliary trackers advance on the new observations, and the 2-dim shared
    filters are corrected using observation matrices built from the captured
    values.  The captured (previous-tick) values are the ones consistent with
    the observation pairing v_k = v+_{k-1} x + v-_{k-1} conj(x); using the
    refreshed posteriors instead would make the observation explain itself
    and collapse the increment estimate toward 1.  Afterwards the posteriors
    run through the diffusion and every shared filter restarts from its
    combined value.  Returns the new (aux, shared) states and the shared
    step's diagnostics.

    The auxiliary tracker stays fully local: overwriting its increment entry
    with the diffused value couples the two filters into a feedback loop that
    is unstable at noiseless gain levels (a slowly growing oscillation near
    75 Hz).
    """
    v_plus, v_minus = aux.x_hat.top[..., 1], aux.x_hat.top[..., 2]
    aux, _ = _batch_step(lambda rows: aux_model, aux, y, cond_limit)
    shared, diag = _batch_step(
        lambda rows: with_sequence_observation(shared_model, v_plus[rows], v_minus[rows]),
        shared, y, cond_limit,
    )
    x = _diffuse_all(shared.x_hat.top, k, mixing, messages)
    return aux, FilterState(AugmentedVector(x), shared.M, shared.k), diag


def _full_state_tick(
    aux_model: StateSpaceModel,
    aux: FilterState,
    y: AugmentedVector,
    k: int,
    mixing: _Mixing,
    messages: list | None,
    cond_limit: float,
) -> tuple[FilterState, StepDiagnostics]:
    """One round of the full-state variant: local filters, then whole-vector diffusion."""
    aux, diag = _batch_step(lambda rows: aux_model, aux, y, cond_limit)
    x = _diffuse_all(aux.x_hat.top, k, mixing, messages)
    return FilterState(AugmentedVector(x), aux.M, aux.k), diag


# ---------------------------------------------------------------------------
# simulation drivers


@dataclass
class DistributedRun:
    """Everything a single seeded multi-node run produced."""

    topology: Topology
    assignment: BridgeAssignment | None
    weights: DiffusionWeights
    mode: str
    diffusion: str
    seed: int
    traces: Mapping  # node -> FreqTrace of the diffused estimate
    records: Mapping | None = None  # node -> list[TickRecord]
    messages: list | None = None


@dataclass
class DistributedMcRun:
    """Batched Monte-Carlo outputs, first axis = seed."""

    node_ids: tuple
    seeds: np.ndarray
    f_hat_hz: np.ndarray  # (n_seeds, n_nodes, n_ticks)
    flags: np.ndarray
    x_hat: np.ndarray | None = None  # diffused increments, same shape, complex


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


def _simulate(
    topology: Topology,
    per_node: Mapping,
    seeds: Sequence[int],
    snr_db: float | None,
    mode: str,
    mixing: _Mixing,
    f_init_hz: float,
    cond_limit: float,
    messages: list | None = None,
    records: Mapping | None = None,
    detail: bool = False,
):
    """The loop both drivers share: every node of every seed is one batch row.

    Returns (f_hat, flags, states, innovation power), shaped (seeds, nodes,
    ticks); ``states`` adds the axis of the output filter's top-half entries.
    The last two are kept only with ``detail``.
    """
    if mode not in ("dfe", "distributed-acekf"):
        raise DistributedConfigError(f"unknown estimator mode {mode!r}")
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
    innov = np.zeros(shape) if detail else None

    f_hat[..., 0], flags[..., 0] = out_model.extract_freq(out.x_hat.materialize())
    if detail:
        states[:, :, 0] = out.x_hat.top
    for k in range(1, n_ticks):
        y = augment(volts[k][..., None])
        try:
            if shared is None:
                aux, diag = _full_state_tick(aux_model, aux, y, k, mixing, messages, cond_limit)
                out = aux
            else:
                aux, shared, diag = dfe_tick(
                    aux_model, shared_model, aux, shared, y, k, mixing, messages, cond_limit
                )
                out = shared
        except FilterDegenerateError as exc:
            where = "" if exc.row is None else (
                f"node {ids[exc.row[1]]!r}: seed {int(seeds[exc.row[0]])}: "
            )
            raise FilterDegenerateError(f"tick {k}: {where}{exc}") from exc
        f_hat[..., k], flags[..., k] = out_model.extract_freq(out.x_hat.materialize())
        if detail:
            states[:, :, k] = out.x_hat.top
            innov[..., k] = np.abs(diag.innovation[..., 0]) ** 2
        if records is not None:
            for j, n in enumerate(ids):
                records[n].append(
                    TickRecord(
                        k=k, M_prior=diag.M_prior[0, j], M_post=diag.M_post[0, j],
                        A=diag.A[0, j], gain=diag.gain[0, j], H=diag.H[0, j],
                    )
                )
    return f_hat, flags, states, innov


def run_distributed(
    topology: Topology,
    scenarios,
    seed: int = 0,
    snr_db: float | None = None,
    mode: str = "dfe",
    diffusion: str = "bridge",
    assignment: BridgeAssignment | None = None,
    weights: DiffusionWeights | None = None,
    f_init_hz: float = 50.0,
    collect_messages: bool = False,
    record_matrices: bool = False,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> DistributedRun:
    """Simulate the network once and collect per-node traces.

    ``scenarios`` is either a single Scenario shared by every node or a map
    node→Scenario (same sampling grid everywhere).  Per-node observation noise
    comes from independent streams derived from (seed, node position), so a
    node's stream does not depend on which other nodes exist.  This is the
    Monte-Carlo loop at one seed, plus traces, records and messages.
    """
    per_node = _resolve_scenarios(topology, scenarios)
    assignment, weights = _resolve_weights(topology, assignment, weights, diffusion)
    messages = [] if collect_messages else None
    records = {n: [] for n in topology.node_ids} if record_matrices else None
    f_hat, flags, states, innov = _simulate(
        topology, per_node, [seed], snr_db, mode,
        _mixing(topology, assignment, weights, diffusion), f_init_hz, cond_limit,
        messages, records, detail=True,
    )

    k_idx = np.arange(f_hat.shape[-1])
    fs = per_node[topology.node_ids[0]].sample_rate_hz
    traces = {
        n: FreqTrace(
            k=k_idx,
            t_s=k_idx / fs,
            f_hat_hz=f_hat[0, j],
            innovation_power=innov[0, j],
            states=states[0, j],
            flags=flags[0, j],
            f_true_hz=per_node[n].true_freq(),
        )
        for j, n in enumerate(topology.node_ids)
    }
    return DistributedRun(
        topology=topology, assignment=assignment, weights=weights, mode=mode,
        diffusion=diffusion, seed=seed, traces=traces, records=records, messages=messages,
    )


def run_distributed_mc(
    topology: Topology,
    scenarios,
    seeds: Sequence[int],
    snr_db: float | None = None,
    mode: str = "dfe",
    diffusion: str = "bridge",
    assignment: BridgeAssignment | None = None,
    weights: DiffusionWeights | None = None,
    f_init_hz: float = 50.0,
    record_x: bool = False,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> DistributedMcRun:
    """Monte-Carlo sweep over seeds, every node of every seed in one batch.

    Each seed reproduces exactly what :func:`run_distributed` would produce
    for it (same per-node noise streams), so paired comparisons across modes
    can rely on common random numbers.
    """
    per_node = _resolve_scenarios(topology, scenarios)
    assignment, weights = _resolve_weights(topology, assignment, weights, diffusion)
    seeds = np.asarray(list(seeds), dtype=int)
    if seeds.size == 0:
        raise DistributedConfigError("empty seed list")
    f_hat, flags, states, _ = _simulate(
        topology, per_node, seeds, snr_db, mode,
        _mixing(topology, assignment, weights, diffusion), f_init_hz, cond_limit,
        detail=record_x,
    )
    return DistributedMcRun(
        node_ids=topology.node_ids, seeds=seeds, f_hat_hz=f_hat, flags=flags,
        x_hat=None if states is None else states[..., 0],
    )


def write_messages_csv(path, messages: Sequence[Message]) -> None:
    """Dump a message log; one row per shared complex entry."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "phase", "src", "dst", "payload_re", "payload_im"])
        for m in messages:
            w.writerow(
                [m.k, m.phase, m.src, m.dst, _fmt(m.payload.real), _fmt(m.payload.imag)]
            )
