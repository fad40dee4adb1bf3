"""The LP-rounding embedder: solve the aggregate relaxation, then round it.

:func:`solve_relaxation` aggregates requests by (origin, application)
and solves the continuous relaxation once; :func:`round_relaxation`
turns each request into an integral embedding by a weighted random walk
over its aggregate's fractional variables, consuming residual fractional
mass as it goes.  Rounding never touches substrate capacities directly —
consumed fractions of a feasible fractional solution are themselves
feasible, so every accepted embedding is feasible by construction.

Each (origin, application) aggregate owns a disjoint variable slice and
its own random stream, so aggregates round independently of each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import rng as _rng
from .formulation import (
    AggregatedRequest,
    FractionalSolution,
    VariableKey,
    aggregate_requests,
    build_relaxed_aggregate_lp,
    fractional_solution,
)
from .lp import Solution, SolverError, solve_lp
from .model import (
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateNetwork,
)

# Residual comparisons ``d <= y`` carry this much slack (in normalized
# units, i.e. fractions of the aggregate demand) so float accumulation
# noise cannot cause spurious rejections.
_SLACK = 1e-9
# Mass below this is solver dust, treated as zero.
_DUST = 1e-12
# Per-request step budget = factor·|nodes|·max |alternative|.
_STEP_FACTOR = 4


class Relaxation(NamedTuple):
    """A solved aggregate relaxation: the solver's answer, its unpacked
    values (None unless optimal) and the wall seconds of the pipeline."""

    solution: Solution
    fractional: Optional[FractionalSolution]
    runtime_s: float


def solve_relaxation(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
) -> Relaxation:
    """Aggregate the requests, build the continuous relaxation, solve it
    and unpack the optimum.  A status other than optimal is returned,
    not raised."""
    t0 = time.perf_counter()
    aggregates = aggregate_requests(requests)
    lp = build_relaxed_aggregate_lp(net, apps, efficiency, aggregates, psi)
    sol = solve_lp(lp)
    frac = None
    if sol.optimal:
        frac = fractional_solution(lp, sol.x, sol.objective, aggregates, apps)
    return Relaxation(sol, frac, time.perf_counter() - t0)


def weighted_random_select(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Draw an index with probability proportional to its weight.

    Zero weights are never selected; negative or all-zero weights raise
    ``ValueError`` (the caller decides what an empty distribution means).
    """
    total = 0.0
    for w in weights:
        if w < 0:
            raise ValueError(f"negative weight {w!r}")
        total += w
    if total <= 0:
        raise ValueError("weights sum to zero")
    r = rng.random() * total
    acc = 0.0
    last_positive = 0
    for k, w in enumerate(weights):
        if w > 0:
            last_positive = k
            acc += w
            if r < acc:
                return k
    return last_positive  # float-boundary fallback


@dataclass
class RoundingState:
    """Mutable per-aggregate rounding context: the residual fractional
    solution (normalized to the aggregate demand), the zeroed-variable
    set, and rejection/step counters used for bound assertions.

    Invariants: every residual value stays within [0, its initial
    value]; once a variable is zeroed by a rejection it stays zero.
    """

    owner: str
    demand: float  # total aggregate demand the y values are normalized to
    y: dict[VariableKey, float]
    net: SubstrateNetwork
    per_link_cap: int
    request_budget: int
    zeroed: set[VariableKey] = field(default_factory=set)
    initial_nonzero: int = 0
    accepted: int = 0
    rounding_rejections: int = 0
    stranded_rejections: int = 0
    lp_exhausted_rejections: int = 0
    overflow_rejections: int = 0
    total_steps: int = 0
    max_request_steps: int = 0

    @staticmethod
    def for_aggregate(
        net: SubstrateNetwork,
        agg: AggregatedRequest,
        values: Mapping[VariableKey, float],
        alternatives: Sequence[AlternativeTopology],
    ) -> "RoundingState":
        y = {k: v for k, v in values.items() if k.owner == agg.owner and v > _DUST}
        n_nodes = len(net.nodes)
        n_arcs = len(net.arcs)
        biggest = max((len(a.nodes) + len(a.links) for a in alternatives), default=1)
        return RoundingState(
            owner=agg.owner,
            demand=agg.demand,
            y=y,
            initial_nonzero=len(y),
            net=net,
            per_link_cap=max(1, n_nodes * n_arcs),
            request_budget=max(1, _STEP_FACTOR * n_nodes * biggest),
        )


def embed_request(
    r: Request,
    alt_set: Sequence[AlternativeTopology],
    Y_residual: RoundingState,
    rng: np.random.Generator,
) -> IntegralEmbedding:
    """Round one request against its aggregate's residual fractional
    solution.  ``alt_set`` lists the application's alternatives in index
    order.

    The walk: pick an alternative by weighted random selection over the
    root variables, embed the root at the origin, then route each
    virtual link in preorder — at each substrate node either place the
    link's child there (probability = placement mass / total local mass)
    or hop along an arc drawn by weighted random selection.  Every
    consumption subtracts the request's normalized demand from one
    variable; any insufficient residual zeroes that variable, restores
    all of this request's consumptions, and rejects the request.
    """
    state = Y_residual
    d = r.demand / state.demand
    consumed: list[tuple] = []
    steps = 0

    def finish_steps():
        state.total_steps += steps
        if steps > state.max_request_steps:
            state.max_request_steps = steps

    def reject(kind: str, zero_key: Optional[tuple] = None) -> IntegralEmbedding:
        if zero_key is not None:
            state.y[zero_key] = 0.0
            state.zeroed.add(zero_key)
        # undo this request's consumptions; a zeroed variable stays zero
        for k in consumed:
            if k not in state.zeroed:
                state.y[k] = state.y.get(k, 0.0) + d
        setattr(state, kind, getattr(state, kind) + 1)
        finish_steps()
        return IntegralEmbedding.reject(r)

    def consume(key: tuple) -> bool:
        have = state.y.get(key, 0.0)
        if d <= have + _SLACK:
            state.y[key] = max(0.0, have - d)
            consumed.append(key)
            return True
        return False

    # keys are plain tuples: equal to the stored VariableKeys, cheaper to build
    root_keys = [(state.owner, a.index, ("n", a.root, r.origin)) for a in alt_set]
    root_weights = [state.y.get(k, 0.0) for k in root_keys]
    steps += 1
    if sum(root_weights) <= _DUST:
        return reject("lp_exhausted_rejections")
    pick = weighted_random_select(root_weights, rng)
    alt = alt_set[pick]
    if not consume(root_keys[pick]):
        return reject("rounding_rejections", zero_key=root_keys[pick])
    placement: dict[str, str] = {alt.root: r.origin}
    link_map: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}

    for link in alt.preorder:
        v = placement[link.parent]
        path: list[tuple[str, str]] = []
        link_steps = 0
        while link.child not in placement:
            steps += 1
            link_steps += 1
            place_key = (state.owner, alt.index, ("n", link.child, v))
            if link_steps > state.per_link_cap or steps > state.request_budget:
                return reject("overflow_rejections", zero_key=place_key)
            options: list[tuple[float, tuple, Optional[str]]] = [
                (state.y.get(place_key, 0.0), place_key, None)
            ]
            for arc in state.net.out_arcs.get(v, ()):
                ak = (state.owner, alt.index, ("l", link.parent, link.child, arc.src, arc.dst))
                mass = state.y.get(ak, 0.0)
                if mass > 0.0:
                    options.append((mass, ak, arc.dst))
            if sum(w for w, _, _ in options) <= _DUST:
                return reject("stranded_rejections")
            chosen = options[weighted_random_select([w for w, _, _ in options], rng)]
            _, key, hop_to = chosen
            if not consume(key):
                return reject("rounding_rejections", zero_key=key)
            if hop_to is None:
                placement[link.child] = v
            else:
                path.append((v, hop_to))
                v = hop_to
        link_map[(link.parent, link.child)] = tuple(path)

    state.accepted += 1
    finish_steps()
    return IntegralEmbedding(r, alt.index, placement, link_map)


@dataclass
class TantoReport:
    """Run statistics, including the fields needed to assert the
    theoretical guarantees (rejection-count bound, rejection-penalty
    gap, per-request step bound)."""

    lp_objective: float = 0.0
    lp_rejected_demand: float = 0.0
    lp_iterations: int = 0
    aggregates: int = 0
    initial_nonzero_y: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_demand: float = 0.0
    rounding_rejections: int = 0
    stranded_rejections: int = 0
    lp_exhausted_rejections: int = 0
    overflow_rejections: int = 0
    max_request_steps: int = 0
    total_steps: int = 0
    request_step_budget: int = 0
    per_link_step_cap: int = 0
    psi: float = 0.0
    psi_lp: float = 0.0
    psi_tanto: float = 0.0
    psi_gap_bound: float = 0.0
    rejection_bound_ok: bool = True
    psi_gap_ok: bool = True
    steps_ok: bool = True
    lp_runtime_s: float = 0.0
    rounding_runtime_s: float = 0.0
    runtime_s: float = 0.0


def tanto(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
    seed: int = 0,
) -> tuple[list[IntegralEmbedding], TantoReport]:
    """Embed all requests: solve the aggregate relaxation, then round it."""
    relaxation = solve_relaxation(net, apps, efficiency, requests, psi)
    return round_relaxation(net, apps, requests, relaxation, psi, seed)


def round_relaxation(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    requests: Sequence[Request],
    relaxation: Relaxation,
    psi: float,
    seed: int = 0,
) -> tuple[list[IntegralEmbedding], TantoReport]:
    """Round a solved relaxation of ``requests``; the relaxation is only
    read, so callers may share it.

    Returns embeddings in the input request order plus a report carrying
    the LP objective and the counters for the guarantee assertions; its
    ``runtime_s`` counts the relaxation's seconds and the rounding's.
    Raises :class:`~vneap.lp.SolverError`, carrying the solver status,
    if the relaxation did not solve to optimality (with the rejection
    slack in the model this indicates a broken instance, not load).
    """
    sol, frac, lp_runtime_s = relaxation
    if frac is None:
        raise SolverError(sol.status, f"aggregate relaxation did not solve: {sol.status}")
    t0 = time.perf_counter()
    report = TantoReport(
        lp_objective=frac.objective,
        lp_rejected_demand=frac.total_rejected_demand,
        # an empty program is settled without calling HiGHS
        lp_iterations=sol.stats.get("iterations", 0),
        aggregates=len(frac.aggregates),
        psi=psi,
        lp_runtime_s=lp_runtime_s,
    )
    results: list[Optional[IntegralEmbedding]] = [None] * len(requests)
    # each aggregate rounds its members in a seeded shuffle, on its own
    # random stream and variable slice, so aggregates never interact
    for agg in frac.aggregates:
        stream = _rng.stream(seed, "round", agg.origin, agg.app)
        alternatives = sorted(apps[agg.app].alternatives, key=lambda a: a.index)
        state = RoundingState.for_aggregate(net, agg, frac.values, alternatives)
        for pos in stream.permutation(len(agg.members)):
            member = agg.members[pos]
            results[member] = embed_request(requests[member], alternatives, state, stream)
        report.initial_nonzero_y += state.initial_nonzero
        report.accepted += state.accepted
        report.rounding_rejections += state.rounding_rejections
        report.stranded_rejections += state.stranded_rejections
        report.lp_exhausted_rejections += state.lp_exhausted_rejections
        report.overflow_rejections += state.overflow_rejections
        report.total_steps += state.total_steps
        report.max_request_steps = max(report.max_request_steps, state.max_request_steps)
        report.request_step_budget = max(report.request_step_budget, state.request_budget)
        report.per_link_step_cap = max(report.per_link_step_cap, state.per_link_cap)
    report.rounding_runtime_s = time.perf_counter() - t0
    embeddings = [e for e in results if e is not None]
    report.rejected = sum(1 for e in embeddings if e.rejected)
    report.rejected_demand = sum(e.request.demand for e in embeddings if e.rejected)

    report.psi_lp = psi * frac.total_rejected_demand
    report.psi_tanto = psi * report.rejected_demand
    d_max = max((r.demand for r in requests), default=0.0)
    used_apps = {g.app for g in frac.aggregates}
    catalog_size = sum(
        len(a.nodes) + len(a.links) for app in used_apps for a in apps[app].alternatives
    )
    report.psi_gap_bound = psi * d_max * len(net.nodes) * len(net.arcs) * catalog_size
    report.rejection_bound_ok = report.rounding_rejections <= report.initial_nonzero_y
    report.psi_gap_ok = (
        report.psi_tanto - report.psi_lp <= report.psi_gap_bound + 1e-6 * (1 + report.psi_gap_bound)
    )
    report.steps_ok = report.max_request_steps <= report.request_step_budget
    report.runtime_s = lp_runtime_s + time.perf_counter() - t0
    return embeddings, report
