"""Node topology, bridge selection, diffusion weights, and the synchronous
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
nodes×nodes weight matrix that ``_mixing`` resolves once per run from the
weight rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import analysis
from .estimators import (
    FilterRun,
    FreqTrace,
    _OBS_BLOCK_TICKS,
    _run_ticks,
    _Stepped,
    _StepPlan,
    nss_model,
    shared_increment_model,
)
from .signals import Scenario, add_noise, clarke_arrays, generate_arrays

__all__ = [
    "DistributedConfigError",
    "Topology",
    "BridgeAssignment",
    "DiffusionWeights",
    "DistributedRun",
    "select_bridges",
    "uniform_weights",
    "conventional_weights",
    "run_distributed",
    "reference_network",
]


class DistributedConfigError(ValueError):
    """A distributed setup is invalid: its topology, bridges, weights,
    diffusion mode, estimator mode, scenarios or seeds."""


#: the estimator modes of :func:`run_distributed` and the diffusion modes of :func:`_mixing`
_MODES, _DIFFUSIONS = ("dfe", "distributed-acekf"), ("bridge", "conventional", "none")


# ---------------------------------------------------------------------------
# graph model


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph.

    ``node_ids`` fixes the stacking order used everywhere downstream (per-node
    random streams, Monte-Carlo arrays, block matrices in the error analysis).
    The ids must be hashable and comparable, since neighbor lists are sorted.
    """

    node_ids: tuple
    edges: frozenset

    def __init__(self, node_ids: Sequence, edges):
        ids = tuple(node_ids)
        if not ids:
            raise DistributedConfigError("empty node list")
        if len(set(ids)) != len(ids):
            raise DistributedConfigError("duplicate node ids")
        for a, b in itertools.combinations(ids, 2):
            try:
                a < b
            except TypeError:
                raise DistributedConfigError(
                    f"node ids {a!r} and {b!r} cannot be ordered"
                ) from None
        known = set(ids)
        normalized = set()
        for e in edges:
            a, b = tuple(e)
            if a == b:
                raise DistributedConfigError(f"self-loop on node {a!r}")
            if a not in known or b not in known:
                raise DistributedConfigError(f"edge ({a!r}, {b!r}) references unknown node")
            normalized.add(frozenset((a, b)))
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "edges", frozenset(normalized))

    def neighbors(self, i) -> tuple:
        return tuple(sorted((set(e) - {i}).pop() for e in self.edges if i in e))

    def closed_neighborhood(self, i) -> tuple:
        return tuple(sorted(self.neighbors(i) + (i,)))

    def degree(self, i) -> int:
        return len(self.neighbors(i))

    @property
    def is_connected(self) -> bool:
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
            raise DistributedConfigError(f"unknown bridge nodes {sorted(unknown)!r}")
        for e in topology.edges:
            if e <= bset:
                a, b = sorted(e)
                raise DistributedConfigError(
                    f"bridges {a!r} and {b!r} are adjacent (independence violated)"
                )
        for n in topology.node_ids:
            if n not in bset and not bset.intersection(topology.neighbors(n)):
                raise DistributedConfigError(f"node {n!r} has no bridge neighbor")
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
    always yields a valid assignment on a well-formed topology.
    """
    order = {n: r for n, r in zip(t.node_ids, np.random.default_rng(seed).permutation(len(t.node_ids)))}
    chosen: set = set()
    for n in sorted(t.node_ids, key=lambda n: (-t.degree(n), order[n])):
        if not chosen.intersection(t.neighbors(n)):
            chosen.add(n)
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
                where = f"{label} row for node {node!r}"
                if not row:
                    raise DistributedConfigError(f"{where} is empty")
                vals = np.array(list(row.values()), dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise DistributedConfigError(f"{where} has non-finite weights")
                if np.any(vals < 0):
                    raise DistributedConfigError(f"{where} has negative weights")
                if abs(vals.sum() - 1.0) > 1e-9:
                    raise DistributedConfigError(f"{where} sums to {vals.sum():.12f}, expected 1")


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
# diffusion as weight matrices, and the synchronous tick


@dataclass(frozen=True)
class _Mixing:
    """One run's diffusion over the node axis, resolved once before the loop.

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


def _stage(
    rows: Mapping, owners: Sequence, members: Sequence, stage: str, kind: str, owner_kind: str
):
    """The weight rows of ``owners`` over ``members``, each scaled to sum to one.

    A row for a node that is not an owner would never be read, so it is an
    error too.
    """
    owned = set(owners)
    unread = [i for i in rows if i not in owned]
    if unread:
        raise DistributedConfigError(
            f"{stage} row for node {unread[0]!r}, which is not {owner_kind}"
        )
    pos = {m: j for j, m in enumerate(members)}
    out = np.zeros((len(owners), len(members)))
    for r, i in enumerate(owners):
        if i not in rows:
            raise DistributedConfigError(f"{stage} weights incomplete: no row for node {i!r}")
        total = sum(rows[i].values())
        for m, w in rows[i].items():
            if m not in pos:
                raise DistributedConfigError(
                    f"{stage} row of node {i!r} names {m!r}, which is not {kind}"
                )
            out[r, pos[m]] = w / total
    return out


def _unread(rows: Mapping, stage: str, diffusion: str) -> None:
    """Reject the rows of a stage that ``diffusion`` never reads, naming the first."""
    if rows:
        raise DistributedConfigError(
            f"{stage} row for node {next(iter(rows))!r}, which {diffusion} does not read"
        )


def _mixing(
    topology: Topology,
    assignment: BridgeAssignment | None,
    weights: DiffusionWeights | None,
    diffusion: str,
) -> _Mixing:
    """Resolve a diffusion setup and write its weight matrices.

    Bridge diffusion picks greedy bridges and uniform weights where none are
    given, conventional diffusion the closed-neighborhood average.  A row
    that is missing, that names a node outside its stage (not in the
    topology for Β, not a bridge for Γ), or that no stage reads (a Β row of
    a node that is not a bridge, a Γ row of a bridge or of a node outside
    the topology, any Γ row under conventional diffusion, any row under no
    diffusion) raises :class:`DistributedConfigError` naming the node.
    Bridge diffusion composes the two stages into Γ @ Β (a bridge serves
    itself with weight 1); the one-stage modes have Γ = I, and no diffusion
    also Β = I.
    """
    if diffusion not in _DIFFUSIONS:
        raise DistributedConfigError(f"unknown diffusion mode {diffusion!r}")
    ids = topology.node_ids
    identity = np.eye(len(ids))
    if diffusion == "none":
        if weights is not None:
            _unread(weights.beta, "aggregation", "diffusion none")
            _unread(weights.gamma, "redistribution", "diffusion none")
        return _Mixing(None, ids, identity, identity, ())
    pos = {n: j for j, n in enumerate(ids)}
    if diffusion == "conventional":
        weights = weights or conventional_weights(topology)
        _unread(weights.gamma, "redistribution", "conventional diffusion")
        matrix = _stage(weights.beta, ids, ids, "aggregation", "a topology node", "a topology node")
        routes = [("to_neighbor", nb, i, pos[nb]) for i in ids for nb in topology.neighbors(i)]
        return _Mixing(matrix, ids, matrix, identity, tuple(routes))
    assignment = assignment or select_bridges(topology)
    weights = weights or uniform_weights(topology, assignment)
    bridges = sorted(assignment.bridges, key=str)
    beta = _stage(weights.beta, bridges, ids, "aggregation", "a topology node", "a bridge")
    served = [n for n in ids if n not in assignment.bridges]
    gamma = np.zeros((len(ids), len(bridges)))
    gamma[[pos[b] for b in bridges], range(len(bridges))] = 1.0  # a bridge serves itself
    gamma[[pos[n] for n in served]] = _stage(
        weights.gamma, served, bridges, "redistribution", "a bridge", "a non-bridge topology node"
    )
    routes = []
    for r, b in enumerate(bridges):
        routes += [("to_bridge", nb, b, pos[nb]) for nb in topology.neighbors(b)]
        routes += [("from_bridge", b, nb, len(ids) + r) for nb in topology.neighbors(b)]
    return _Mixing(gamma @ beta, tuple(bridges), beta, gamma, tuple(routes))


def _diffuse_all(x: np.ndarray, mixing: _Mixing) -> np.ndarray:
    """Run one diffusion round over (n, rows) posteriors, as a product with
    their (seeds, nodes, n) view: the rows are (seeds, nodes) in C order."""
    if mixing.matrix is None:
        return x
    n = len(x)
    return (mixing.matrix @ x.T.reshape(-1, len(mixing.matrix), n)).reshape(-1, n).T


def _tick(
    aux_plan: _StepPlan,
    shared_plan: _StepPlan | None,
    mixing: _Mixing,
    errors: analysis._TheoryBlock | None,
    state: tuple,
    y: np.ndarray,
) -> tuple[tuple, _Stepped, tuple]:
    """One synchronous round of the network, for every (seed, node) batch row.

    The auxiliary ``nss`` trackers of ``state = (aux, shared)``, each
    filter an ``(x, [M11 M12])`` pair, (n, rows) and (n, 2n, rows), advance
    on the observations ``y``.  In ``dfe`` mode the 2-dim shared
    filters are then corrected with the observation row ``((0, v+), (1,
    v-))`` of the sequence-voltage estimates standing *before* this tick.
    Those are the values consistent with the observation pairing v_k =
    v+_{k-1} x + v-_{k-1} conj(x); using the refreshed posteriors instead
    would make the observation explain itself and collapse the increment
    estimate toward 1.  The output
    filter's posteriors (the shared filters', or the trackers' own in
    full-state mode, where ``shared`` is None) then run through the run's
    ``mixing``, and that filter restarts from its combined value.  The
    theory recorder ``errors`` (None without theory) records that filter's
    step.  As a step of :func:`_run_ticks`, returns the new state, that
    step and the output posterior top halves after and before the diffusion.

    In ``dfe`` mode the auxiliary tracker stays fully local: overwriting its
    increment entry with the diffused value couples the two filters into a
    feedback loop that is unstable at noiseless gain levels (a slowly
    growing oscillation near 75 Hz).
    """
    aux, shared = state
    v_plus, v_minus = aux[0][1], aux[0][2]
    out = aux = aux_plan.step(*aux, y)
    if shared is not None:
        out = shared_plan.step(*shared, y, ((0, v_plus), (1, v_minus)))
    combined = (_diffuse_all(out.x, mixing), out.m)
    if errors is not None:
        errors.record(out)
    state = (combined, None) if shared is None else (aux[:2], combined)
    return state, out, (combined[0], out.x)


# ---------------------------------------------------------------------------
# the simulation driver


@dataclass(kw_only=True)
class DistributedRun(FilterRun):
    """What :func:`run_distributed` produced: arrays shaped (seeds, nodes, ticks).

    ``f_true_hz`` is (nodes, ticks).  ``mixing`` is the diffusion the run
    resolved and ran: its aggregators, its matrices and the routes
    that :meth:`message_log` sends.  With ``detail``, ``local_states``
    holds the output filter's posterior top halves before diffusion, shaped
    like ``states``: both keep the leading ``detail`` seed rows only.  The
    final error state reads seed row 0.
    """

    topology: Topology
    mixing: _Mixing
    error_state: analysis.NetworkErrorState | None = None  # after the last tick
    local_states: np.ndarray | None = None

    @property
    def node_ids(self) -> tuple:
        return self.topology.node_ids

    def trace(self, node, row: int = 0) -> FreqTrace:
        """The view of one node at one seed row; a row without detail has no states."""
        j = self.node_ids.index(node)
        return self._view((row, j), self.f_true_hz[j])

    def message_log(self) -> tuple[tuple, np.ndarray]:
        """Seed row 0's protocol traffic as ``(routes, payloads)``: each route
        ``(phase, src, dst, row)`` sends ``payloads[k - 1, row]`` at every tick
        k >= 1.  The payload rows, (ticks - 1, nodes + aggregators, entries),
        are the node posteriors before diffusion and then the aggregates that
        ``from_bridge`` routes carry.  The run must keep ``detail``."""
        if self.local_states is None:
            raise ValueError("the message log needs a run kept with detail")
        x = self.local_states[0, :, 1:].transpose(1, 0, 2)  # (ticks - 1, nodes, entries)
        # one product per tick, stacked: bit for bit the aggregates the bridges formed
        return self.mixing.routes, np.concatenate([x, self.mixing.beta @ x], axis=1)


def _observations(clean: list, seeds: tuple, snr_db: float | None, n_ticks: int):
    """Yield every (seed, node) row's observations, batch-last, a block of ticks at a time.

    Row (s, j) adds to ``clean[j]`` the noise of one generator seeded ``[seeds[s], j]``.
    A block is one 2-D Clarke product, rounding each row as a product over its run alone
    does; a 1-tick run, whose lone rows BLAS rounds apart, transforms each row alone."""
    rngs = [np.random.default_rng([seed, j]) for seed in seeds for j in range(len(clean))]
    ends = list(range(_OBS_BLOCK_TICKS, n_ticks - 1, _OBS_BLOCK_TICKS)) + [n_ticks]
    for k0, k1 in zip([0] + ends[:-1], ends):  # a 1-tick remainder joins the last block
        vabc = np.empty((k1 - k0, len(rngs), 3))
        for r, g in enumerate(rngs):
            vabc[:, r] = add_noise(clean[r % len(clean)][k0:k1], g, snr_db)
        if k1 - k0 == 1:
            yield np.concatenate([clarke_arrays(row)[1] for row in vabc[0, :, None]])[None]
        else:
            yield clarke_arrays(vabc.reshape(-1, 3))[1].reshape(k1 - k0, -1)


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


def run_distributed(
    topology: Topology,
    scenarios,
    seeds: Sequence[int],
    snr_db: float | None = None,
    mode: str = "dfe",
    diffusion: str = "bridge",
    assignment: BridgeAssignment | None = None,
    weights: DiffusionWeights | None = None,
    theory: bool = False,
    detail: int = 0,
) -> DistributedRun:
    """Simulate the network over a batch of seeds, every node of every seed in one batch.

    ``scenarios`` is either a single Scenario shared by every node or a map
    node→Scenario (same sampling grid everywhere).  Per-node observation noise
    comes from independent streams derived from (seed, node position), so a
    node's stream does not depend on which other nodes exist, and each seed
    row is exactly the run at that seed alone: paired comparisons across
    modes can rely on common random numbers.  The filters step entries
    first over the (seeds, nodes) rows in C order; the results are laid out
    (seeds, nodes, ...).  ``detail`` is the number of
    leading seed rows (``True`` is 1) for which the run keeps the output
    filter's posterior top halves, before (``local_states``, whose seed row 0
    :meth:`DistributedRun.message_log` sends) and after the diffusion
    (``states``), and its innovation power.  With ``theory`` the
    error-covariance recursion of :mod:`gridfreq.analysis` starts from the
    output filter's initial covariance and covers every tick of that
    filter's step for seed row 0, which the loop hands to the recorder
    ``analysis._TheoryBlock``.  The run returns the final state as
    ``error_state``.
    """
    per_node = _resolve_scenarios(topology, scenarios)
    mixing = _mixing(topology, assignment, weights, diffusion)
    if mode not in _MODES:
        raise DistributedConfigError(f"unknown estimator mode {mode!r}")
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise DistributedConfigError("empty seed list")
    ids = topology.node_ids
    fs = per_node[ids[0]].sample_rate_hz
    n_ticks = per_node[ids[0]].n_samples
    # one clean waveform per scenario; node j at seed s adds the noise of [s, j]
    clean = {id(per_node[n]): per_node[n] for n in ids}
    clean = {key: generate_arrays(scn) for key, scn in clean.items()}
    blocks = _observations([clean[id(per_node[n])] for n in ids], seeds, snr_db, n_ticks)
    first = next(blocks)
    batch = (len(seeds), len(ids))

    out_model = nss_model(fs, snr_db=snr_db)
    plans, filters = [_StepPlan(out_model, batch)], [None, None]
    if mode == "dfe":
        out_model = shared_increment_model(fs, snr_db=snr_db)
        plans.append(_StepPlan(out_model, batch))
    for i, plan in enumerate(plans):
        x0, m0 = plan.model.initial_state(first[0])
        filters[i] = x0, m0[..., None]
    # through iter(), the first block is freed once the loop has passed it
    blocks, first = itertools.chain(iter([first]), blocks), None

    errors = analysis._TheoryBlock(analysis.initial_network_state(
        ids, mixing.aggregators, mixing.beta, mixing.gamma, m0, out_model.Cu, out_model.Cn,
    )) if theory else None

    f_hat, flags, (states, local_states), innov = _run_ticks(
        # without a shared filter, its plan and its state are None
        lambda state, y: _tick(*(plans + [None])[:2], mixing, errors, state, y),
        tuple(filters), (x0,) * 2, blocks, batch + (n_ticks,),
        out_model.extract_freq, detail, lambda row: f"node {ids[row[1]]!r}: seed {seeds[row[0]]}",
    )
    return DistributedRun(
        t_s=np.arange(n_ticks) / fs,
        f_hat_hz=f_hat,
        flags=flags,
        f_true_hz=np.stack([per_node[n].true_freq() for n in ids]),
        innovation_power=innov,
        states=states,
        topology=topology,
        mixing=mixing,
        error_state=None if errors is None else errors.finish(),
        local_states=local_states,
    )
