"""Experiment harness: topology ingestion, tier classification, cost and
capacity assignment, request generation, target-utilization calibration,
and scenario execution with deterministic result rows.

Scenario flow per repetition: generate a calibration request set, scale
substrate capacities to the configured target utilizations, generate the
run request set, execute each configured algorithm, and collect metrics
through the validator.  The full catalog's aggregate relaxation is
solved at most once per repetition: the ``lp`` row reports it and
``tanto`` rounds it.  All randomness is derived from the scenario seed
via labeled streams, so rows are byte-stable across runs and across
worker counts; wall-clock timings are kept out of the rows and reported
in a separate timings table.
"""

from __future__ import annotations

import bisect
import collections
import csv
import functools
import io as _stdio
import itertools
import json
import logging
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import networkx as nx
import numpy as np
from scipy import stats as _stats

from . import rng as _rng
from .formulation import (
    AggregatedRequest,
    build_milp,
    compute_rejection_penalty,
    fractional_solution,
    request_owner,
    restrict_to_alternative,
)
from .greedy import greedy_embed_all
from .io import FormatError
from .lp import solve_milp_exact
from .model import (
    CORE,
    EDGE,
    TRANSPORT,
    Application,
    EfficiencyMap,
    Request,
    SubstrateArc,
    SubstrateNode,
    SubstrateNetwork,
    sum_in_order,
)
from .tanto import Relaxation, round_relaxation, solve_relaxation
from .validator import (
    InfeasibleEmbeddingSet,
    alternative_shares,
    fractional_alternative_shares,
    fractional_cost,
    rejection_rate,
    total_cost,
)

log = logging.getLogger("vneap.harness")

_TIER_RANK = {EDGE: 0, TRANSPORT: 1, CORE: 2}
_SIZE_FLOOR = 0.1  # smallest request size; smaller normal draws are clipped up to it


# -- topology ingestion -------------------------------------------------------


def ingest_graphml(path: Union[str, Path]) -> nx.Graph:
    """Read an undirected topology from GraphML, keeping node attributes
    (geo coordinates etc.).  Parallel edges are collapsed and self-loops
    dropped; an empty graph is an error."""
    try:
        raw = nx.read_graphml(str(path))
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file")
    except Exception as exc:  # parse errors from the XML layer
        raise FormatError(f"{path}: {exc}")
    g = nx.Graph(raw)  # collapse direction/multi-edges
    loops = list(nx.selfloop_edges(g))
    if loops:
        log.warning("%s: dropping %d self-loop(s)", path, len(loops))
        g.remove_edges_from(loops)
    if g.number_of_nodes() == 0:
        raise FormatError(f"{path}: graph has no nodes")
    return nx.relabel_nodes(g, {n: str(n) for n in g.nodes})


def _natural_breaks(values: Sequence[int], counts: Sequence[int], k: int) -> tuple[int, ...]:
    """Cut indices splitting sorted unique integer ``values`` (weighted by
    ``counts``) into ``k`` contiguous classes of least within-class squared
    deviation, the lexicographically first of equal splits.  All splits are
    tried (k <= 3); costs are exact rationals, so equal splits tie exactly."""
    wx = [w * x for w, x in zip(counts, values)]
    wxx = [v * x for v, x in zip(wx, values)]
    cw, cwx, cwxx = (list(itertools.accumulate(a, initial=0)) for a in (counts, wx, wxx))

    def deviation(cuts: tuple[int, ...]) -> Fraction:
        bounds = (0, *cuts, len(values))
        # a class covers values[i:j]: sum w*x^2 - (sum w*x)^2 / sum w
        return sum(
            (cwxx[j] - cwxx[i]) - Fraction((cwx[j] - cwx[i]) ** 2, cw[j] - cw[i])
            for i, j in zip(bounds, bounds[1:])
        )

    return min(itertools.combinations(range(1, len(values)), k - 1), key=deviation)


def classify_tiers(graph: nx.Graph) -> tuple[dict[str, str], dict[tuple[str, str], str]]:
    """Three-tier split of a topology by node degree (natural breaks: the
    contiguous degree ranges with the least within-class squared deviation
    over all nodes): lowest-degree class is edge, then transport, then
    core.  A link's tier is the lowest tier of its endpoints.

    With fewer than three distinct degree values the split degrades to
    two tiers (edge/core) or one (all edge), with a warning.
    """
    degrees = dict(graph.degree())
    counts = collections.Counter(degrees.values())
    unique = sorted(counts)
    k = min(3, len(unique))
    if k < 3:
        log.warning(
            "only %d distinct degree value(s); degrading to %d tier(s)", len(unique), k
        )
    tier_names = {1: [EDGE], 2: [EDGE, CORE], 3: [EDGE, TRANSPORT, CORE]}[k]
    cuts = _natural_breaks(unique, [counts[u] for u in unique], k)
    tier_of_degree = {u: tier_names[bisect.bisect_right(cuts, i)] for i, u in enumerate(unique)}
    node_tiers = {str(n): tier_of_degree[degrees[n]] for n in graph.nodes}
    link_tiers = {}
    for u, v in graph.edges:
        low = min(node_tiers[str(u)], node_tiers[str(v)], key=_TIER_RANK.get)
        link_tiers[(str(u), str(v))] = low
    return node_tiers, link_tiers


# Cost/capacity anchors of the edge tier.  Costs fall and capacities grow
# by the tier ratio from edge toward core (the default ratio 3 gives the
# 9:3:1 cost and 1:3:9 capacity ladder); link costs are given per tier,
# since only the edge-vs-core relation (about 2x) is pinned down.
TIER_RATIO = 3.0
EDGE_NODE_COST = 0.09
EDGE_NODE_CAPACITY = 1.0
EDGE_LINK_CAPACITY = 1.0
LINK_COSTS = (0.02, 0.01, 0.01)  # edge, transport, core


def assign_costs_capacities(
    graph: nx.Graph,
    tiers: tuple[dict[str, str], dict[tuple[str, str], str]],
    tier_ratio: float = TIER_RATIO,
) -> SubstrateNetwork:
    """Turn a classified topology into a substrate network.  Capacities
    are relative at this point; calibration fixes the absolute scale.
    Every undirected link becomes two directed arcs.  A tier ratio that
    is not a finite positive number is a ValueError."""
    if not (math.isfinite(tier_ratio) and tier_ratio > 0):
        raise ValueError(f"tier ratio must be a finite positive number, not {tier_ratio!r}")
    node_tiers, link_tiers = tiers
    nodes = [
        SubstrateNode(
            id=n,
            cost=EDGE_NODE_COST / tier_ratio ** _TIER_RANK[node_tiers[n]],
            capacity=EDGE_NODE_CAPACITY * tier_ratio ** _TIER_RANK[node_tiers[n]],
            tier=node_tiers[n],
        )
        for n in sorted(graph.nodes, key=str)
    ]
    arcs = []
    for u, v in sorted((tuple(map(str, e)) for e in graph.edges), key=lambda e: e):
        rank = _TIER_RANK[link_tiers.get((u, v), link_tiers.get((v, u)))]
        cost = LINK_COSTS[rank]
        cap = EDGE_LINK_CAPACITY * tier_ratio ** rank
        arcs.append(SubstrateArc(u, v, cost, cap))
        arcs.append(SubstrateArc(v, u, cost, cap))
    return SubstrateNetwork(tuple(nodes), tuple(arcs))


# -- request generation and calibration ---------------------------------------


SPATIAL = ("uniform", "lognormal")


@dataclass(frozen=True)
class GenParams:
    """Request-population parameters: how many, how big, where from."""

    count: int
    app: str
    size_mean: float = 10.0
    size_sigma: float = 2.0
    spatial: str = "uniform"  # one of SPATIAL
    lognormal_mu: float = 0.0
    lognormal_sigma: float = 1.0
    enforce_origin_cap: bool = True

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, not {self.count}")
        if not (math.isfinite(self.size_mean) and 0 < self.size_sigma < math.inf):
            raise ValueError("size mean and sigma must be finite and sigma positive")


def _main_footprint(app: Application) -> tuple[float, float, float]:
    """(node units, link units, first-link units) consumed per unit of
    demand under the app's main alternative — used for the per-origin
    generation cap and for calibration."""
    main = app.main
    node_fp = sum_in_order(n.size for n in main.nodes)
    link_fp = sum_in_order(vl.size for vl in main.links)
    first = main.children.get(main.root, ())
    first_link = first[0].size if first else 0.0
    return node_fp, link_fp, first_link


def _origin_weights(net: SubstrateNetwork, profile) -> tuple[list[SubstrateNode], np.ndarray]:
    """The edge-tier nodes, sorted by id, and their origin probabilities
    under ``profile``'s (a GenParams' or ScenarioConfig's) ``spatial``,
    ``lognormal_mu`` and ``lognormal_sigma``.  Raises ValueError when no
    node is edge-tier or the weights are not finite and non-negative with
    a positive finite sum."""
    edges = sorted((n for n in net.nodes if n.tier == EDGE), key=lambda n: n.id)
    if not edges:
        raise ValueError("substrate has no edge-tier nodes to originate requests")
    if profile.spatial == "uniform":
        weights = np.ones(len(edges))
    elif profile.spatial == "lognormal":
        xs = 3.0 * (np.arange(len(edges)) + 0.5) / len(edges)
        with np.errstate(all="ignore"):  # bad weights are refused by name below
            weights = _stats.lognorm.pdf(xs, s=profile.lognormal_sigma, scale=math.exp(profile.lognormal_mu))
    else:
        raise ValueError(f"unknown spatial distribution {profile.spatial!r}")
    total = weights.sum()
    if not (np.isfinite(weights).all() and (weights >= 0).all() and 0 < total < math.inf):
        raise ValueError(
            f"spatial profile {profile.spatial!r} (lognormal_mu={profile.lognormal_mu!r}, "
            f"lognormal_sigma={profile.lognormal_sigma!r}) gives no valid origin weights"
        )
    return edges, weights / total


def generate_requests(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    params: GenParams,
    seed: int,
) -> list[Request]:
    """Draw requests originating at edge-tier nodes.

    Sizes are normal(mean, sigma) clipped below at the floor; origins
    are uniform over edge nodes or weighted by a log-normal profile over
    the ranked edge nodes (hotspots).  When the origin cap is enforced,
    an origin stops receiving requests once its accumulated demand would
    overload its own capacity or its outgoing arcs under the main
    alternative's footprint; generation then redraws, and gives up with
    a warning if the count is unreachable.
    """
    edges, probabilities = _origin_weights(net, params)
    app = apps[params.app]
    node_fp, _, first_link = _main_footprint(app)
    stream = _rng.stream(seed, "generate")
    # Generator.choice(len(edges), p=probabilities) builds this CDF on
    # every call and maps one random() to its searchsorted(side="right")
    # index; doing both here draws the same origins from the same stream.
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    ids = [n.id for n in edges]

    caps = {}
    if params.enforce_origin_cap:
        for n in edges:
            out_cap = sum_in_order(a.capacity for a in net.out_arcs.get(n.id, ()))
            bounds = []
            if node_fp > 0:
                bounds.append(n.capacity / node_fp)
            if first_link > 0:
                bounds.append(out_cap / first_link)
            caps[n.id] = min(bounds) if bounds else math.inf
    used = {n.id: 0.0 for n in edges}

    out: list[Request] = []
    attempts = 0
    limit = max(10 * params.count, 1000)
    while len(out) < params.count and attempts < limit:
        attempts += 1
        origin = ids[bisect.bisect_right(cdf, stream.random())]
        size = max(_SIZE_FLOOR, float(stream.normal(params.size_mean, params.size_sigma)))
        if params.enforce_origin_cap and used[origin] + size > caps[origin]:
            continue
        used[origin] += size
        out.append(Request(origin=origin, app=params.app, demand=size))
    if len(out) < params.count:
        log.warning(
            "origin caps exhausted: generated %d of %d requests", len(out), params.count
        )
    return out


def _main_demand(
    apps: Mapping[str, Application], requests: Sequence[Request]
) -> tuple[float, float]:
    """(node units, link units) a request set consumes under each
    application's main alternative."""
    footprints = {name: _main_footprint(apps[name]) for name in {r.app for r in requests}}
    node_demand = 0.0
    link_demand = 0.0
    for r in requests:
        node_fp, link_fp, _ = footprints[r.app]
        node_demand += r.demand * node_fp
        link_demand += r.demand * link_fp
    return node_demand, link_demand


def _capacity_totals(net: SubstrateNetwork) -> tuple[float, float]:
    """(total node capacity, total arc capacity); a ValueError unless
    both are positive, for no calibration can scale them then."""
    total_node_cap = sum_in_order(n.capacity for n in net.nodes)
    total_arc_cap = sum_in_order(a.capacity for a in net.arcs)
    if not (total_node_cap > 0 and total_arc_cap > 0):
        raise ValueError("substrate has no node or no arc capacity to scale")
    return total_node_cap, total_arc_cap


def _capacity_scales(
    net: SubstrateNetwork, node_demand: float, link_demand: float, node_tu: float, link_tu: float
) -> tuple[float, float]:
    """The factors that size the node and arc capacity totals for the
    given demand at the target utilizations; a ValueError unless both
    are finite and positive."""
    total_node_cap, total_arc_cap = _capacity_totals(net)
    scales = ((node_demand / node_tu) / total_node_cap, (link_demand / link_tu) / total_arc_cap)
    for what, scale in zip(("node", "arc"), scales):
        if not 0 < scale < math.inf:
            raise ValueError(f"{what} capacity scale {scale!r} is not a finite positive factor")
    return scales


def calibrate_target_utilization(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    calib_requests: Sequence[Request],
    node_tu: float,
    link_tu: float,
    population: Optional[int] = None,
) -> SubstrateNetwork:
    """Uniformly rescale node and arc capacities so the calibration
    population's main-alternative footprint equals the requested target
    utilizations (total demand / total capacity).  Tier ratios are
    preserved by construction (uniform scaling); costs are untouched.

    When ``population`` is given, the calibration set is treated as a
    sample estimating per-request demand, and capacities are sized for a
    run of ``population`` requests instead of for the sample itself."""
    for key, tu in (("node_tu", node_tu), ("link_tu", link_tu)):
        if not 0 < tu < math.inf:
            raise ValueError(f"{key} must be positive and finite, not {tu!r}")
    node_demand, link_demand = _main_demand(apps, calib_requests)
    if node_demand <= 0 or link_demand <= 0:
        raise ValueError("calibration set carries no demand")
    if population is not None:
        if population <= 0:
            raise ValueError("population must be positive")
        factor = population / len(calib_requests)
        node_demand *= factor
        link_demand *= factor
    node_scale, arc_scale = _capacity_scales(net, node_demand, link_demand, node_tu, link_tu)
    nodes = tuple(replace(n, capacity=n.capacity * node_scale) for n in net.nodes)
    arcs = tuple(replace(a, capacity=a.capacity * arc_scale) for a in net.arcs)
    return SubstrateNetwork(nodes, arcs)


def measured_utilization(
    net: SubstrateNetwork, apps: Mapping[str, Application], requests: Sequence[Request]
) -> tuple[float, float]:
    """(node TU, link TU) implied by a request set — calibration's
    inverse, used to verify the calibration identity."""
    node_demand, link_demand = _main_demand(apps, requests)
    total_node_cap, total_arc_cap = _capacity_totals(net)
    return node_demand / total_node_cap, link_demand / total_arc_cap


# -- scenario execution --------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's inputs and settings; its defaults are the ones a
    scenario file's absent keys take."""

    name: str
    substrate: SubstrateNetwork
    apps: Mapping[str, Application]
    requests: int
    node_tu: float = 1.0
    link_tu: float = 1.0
    app: str = ""
    size_mean: float = GenParams.size_mean
    size_sigma: float = GenParams.size_sigma
    spatial: str = GenParams.spatial
    lognormal_mu: float = GenParams.lognormal_mu
    lognormal_sigma: float = GenParams.lognormal_sigma
    calibration_requests: int = 60_000
    algorithms: tuple[str, ...] = ("lp", "greedy", "tanto")
    repetitions: int = 30
    seed: int = 0
    psi: Optional[float] = None
    efficiency: EfficiencyMap = field(default_factory=EfficiencyMap)
    jobs: int = 1

    def __post_init__(self):
        for key in ("requests", "calibration_requests", "repetitions", "jobs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, not {getattr(self, key)}")
        for key in ("node_tu", "link_tu", "size_sigma"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, not {getattr(self, key)}")
        if self.spatial not in SPATIAL:
            raise ValueError(f"spatial must be one of {', '.join(SPATIAL)}, not {self.spatial!r}")
        _origin_weights(self.substrate, self)
        if not self.algorithms:
            raise ValueError("algorithms must name at least one algorithm")
        if not self.apps:
            raise ValueError("applications: the catalog holds no application")
        for algo in self.algorithms:
            try:
                algorithm_catalog(algo, self.apps)
            except ValueError as exc:
                raise ValueError(f"algorithms: {exc}") from None
        if not self.app:
            object.__setattr__(self, "app", sorted(self.apps)[0])
        elif self.app not in self.apps:
            raise ValueError(f"app {self.app!r} is not in the catalog")
        # each repetition calibrates to a sample of about this demand
        node_fp, link_fp, _ = _main_footprint(self.apps[self.app])
        demand = self.requests * max(_SIZE_FLOOR, self.size_mean)
        try:
            _capacity_scales(
                self.substrate, demand * node_fp, demand * link_fp, self.node_tu, self.link_tu
            )
        except ValueError as exc:
            raise ValueError(
                f"calibration cannot size the substrate for {self.requests} requests "
                f"of size {self.size_mean!r} at node_tu {self.node_tu!r} and link_tu "
                f"{self.link_tu!r}: {exc}"
            ) from None


@dataclass
class ScenarioResult:
    config_name: str
    rows: list[dict] = field(default_factory=list)
    timings: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


_BASE_COLUMNS = [
    "scenario",
    "algorithm",
    "repetition",
    "seed",
    "status",
    "request_count",
    "served_demand",
    "rejected_demand",
    "rejection_rate",
    "compute_cost",
    "bandwidth_cost",
    "rejection_cost",
    "total_cost",
    "objective",
    "objective_delta",
]

_BOUND_COLUMNS = [
    "initial_nonzero_y",
    "rounding_rejections",
    "stranded_rejections",
    "lp_exhausted_rejections",
    "overflow_rejections",
    "max_request_steps",
    "request_step_budget",
    "rejection_bound_ok",
    "psi_gap_ok",
    "steps_ok",
]


def result_columns(alt_indices: Sequence[int]) -> list[str]:
    return _BASE_COLUMNS + [f"share_{t}" for t in alt_indices] + _BOUND_COLUMNS


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def algorithm_catalog(algo: str, apps: Mapping[str, Application]) -> Mapping[str, Application]:
    """The catalog ``algo`` runs on: ``apps`` for lp, milp, greedy and
    tanto, and for ``vnep:T`` every application's alternative T alone.
    Any other name, or a T that some application lacks, is a ValueError
    naming the algorithm."""
    if algo in ("lp", "milp", "greedy", "tanto"):
        return apps
    prefix, _, index = algo.partition(":")
    if prefix != "vnep" or not index.isdecimal():
        raise ValueError(f"unknown algorithm {algo!r}")
    try:
        return restrict_to_alternative(apps, int(index))
    except ValueError as exc:
        raise ValueError(f"algorithm {algo!r}: {exc}") from None


def _run_algorithm(
    algo: str,
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
    seed: int,
    relaxation: Optional[Callable[[], Relaxation]] = None,
) -> tuple[dict, dict, Optional[list]]:
    """One algorithm on one prepared repetition; returns (row, timing,
    embeddings) — embeddings is None for fractional algorithms.
    ``relaxation`` returns the full catalog's solved relaxation, which
    ``lp`` reports and ``tanto`` rounds; by default each call solves it."""
    total_demand = sum_in_order(r.demand for r in requests)
    row = {
        "algorithm": algo,
        "seed": seed,
        "status": "ok",
        "request_count": len(requests),
    }
    timing = {"algorithm": algo}
    catalog = algorithm_catalog(algo, apps)
    if relaxation is None or catalog is not apps:  # a shared relaxation is the full catalog's
        relaxation = functools.partial(solve_relaxation, net, catalog, efficiency, requests, psi)

    embeddings = None
    if algo in ("lp", "milp") or algo.startswith("vnep:"):
        if algo == "milp":
            t0 = time.perf_counter()
            lp = build_milp(net, catalog, efficiency, requests, psi)
            sol = solve_milp_exact(lp)
            timing["runtime_s"] = time.perf_counter() - t0
        else:
            sol, frac, timing["runtime_s"], stages = relaxation()
            timing.update(stages, lp_iterations=sol.stats.get("iterations", 0))
        if not sol.optimal:
            row["status"] = sol.status
            return row, timing, None
        if algo == "milp":
            # the exact model's variables are owned per request and are
            # integral, so per-request aggregates account for them exactly
            singletons = [
                AggregatedRequest(request_owner(k), r.origin, r.app, r.demand, (k,))
                for k, r in enumerate(requests)
            ]
            frac = fractional_solution(lp, sol.x, sol.objective, singletons, catalog)
        cost = fractional_cost(catalog, net, efficiency, frac, psi)
        rejected = frac.total_rejected_demand
        row.update(
            served_demand=total_demand - rejected,
            rejected_demand=rejected,
            rejection_rate=rejected / total_demand if total_demand else 0.0,
            objective=sol.objective,
            objective_delta=abs(sol.objective - cost.total),
        )
        shares = fractional_alternative_shares(frac, catalog)
    else:
        if algo == "greedy":
            embeddings, rep = greedy_embed_all(net, catalog, efficiency, requests, psi, seed)
            timing.update(chain_searches=rep.chain_searches, chain_reuses=rep.chain_reuses)
        else:
            solved = relaxation()
            embeddings, rep = round_relaxation(net, catalog, requests, solved, psi, seed)
            timing.update(solved.stages)
            timing["lp_runtime_s"] = rep.lp_runtime_s
            timing["rounding_runtime_s"] = rep.rounding_runtime_s
            timing["lp_iterations"] = rep.lp_iterations
        timing["runtime_s"] = rep.runtime_s
        try:
            cost = total_cost(net, catalog, efficiency, embeddings, psi)
        except InfeasibleEmbeddingSet as exc:
            raise RuntimeError(
                f"{algo} produced an infeasible embedding set: {exc.violations[0]}"
            ) from exc
        row.update(
            served_demand=total_demand - rep.rejected_demand,
            rejected_demand=rep.rejected_demand,
            rejection_rate=rejection_rate(embeddings),
        )
        if algo == "greedy":
            row.update(objective=rep.objective, objective_delta=abs(rep.objective - cost.total))
        else:
            row.update(objective=cost.total, objective_delta=0.0)
            row.update({c: getattr(rep, c) for c in _BOUND_COLUMNS})
        shares = alternative_shares(embeddings)

    row.update(
        compute_cost=cost.compute,
        bandwidth_cost=cost.bandwidth,
        rejection_cost=cost.rejection,
        total_cost=cost.total,
    )
    for t in catalog_alternative_indices(apps):
        row[f"share_{t}"] = shares.get(t, 0.0)
    return row, timing, embeddings


def _error_entry(rep: int, algo: str, exc: Exception) -> dict:
    return {"repetition": rep, "algorithm": algo, "type": type(exc).__name__, "error": str(exc)}


def _repetition(config: ScenarioConfig, psi: float, rep: int) -> tuple[list, list, list]:
    """Repetition ``rep`` of a scenario: its (rows, timings, errors).  A
    module-level function of its arguments alone, so a worker process
    can run it; its timings are that process's own."""
    rows, timings, errors = [], [], []
    gen = GenParams(
        count=config.requests,
        app=config.app,
        size_mean=config.size_mean,
        size_sigma=config.size_sigma,
        spatial=config.spatial,
        lognormal_mu=config.lognormal_mu,
        lognormal_sigma=config.lognormal_sigma,
    )
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        calib = generate_requests(
            config.substrate,
            config.apps,
            replace(gen, count=config.calibration_requests, enforce_origin_cap=False),
            _rng.substream_seed(config.seed, "calibration", rep),
        )
        net = calibrate_target_utilization(
            config.substrate, config.apps, calib, config.node_tu, config.link_tu,
            population=config.requests,
        )
        requests = generate_requests(
            net, config.apps, gen, _rng.substream_seed(config.seed, "requests", rep)
        )
    except Exception as exc:
        return rows, timings, [_error_entry(rep, "", exc)]
    setup_runtime_s = time.perf_counter() - t0
    setup_cpu_s = time.process_time() - c0
    # solved on first use, then shared by this repetition's lp and tanto
    relaxation = functools.cache(
        functools.partial(solve_relaxation, net, config.apps, config.efficiency, requests, psi)
    )
    for algo in config.algorithms:
        algo_seed = _rng.substream_seed(config.seed, "algo", algo, rep)
        started = time.process_time()
        try:
            row, timing, _ = _run_algorithm(
                algo, net, config.apps, config.efficiency, requests, psi, algo_seed, relaxation
            )
        except Exception as exc:
            errors.append(_error_entry(rep, algo, exc))
            continue
        row["scenario"] = config.name
        row["repetition"] = rep
        timing.update(
            scenario=config.name,
            repetition=rep,
            cpu_s=time.process_time() - started,
            setup_runtime_s=setup_runtime_s,
            setup_cpu_s=setup_cpu_s,
        )
        rows.append(row)
        timings.append(timing)
    return rows, timings, errors


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute all repetitions of a scenario.

    Each repetition derives its own seeds from the scenario seed, so the
    result rows are identical however many worker processes run them.
    A failing repetition/algorithm is recorded in ``errors`` and
    skipped; the rest of the run proceeds.
    """
    result = ScenarioResult(config_name=config.name)
    psi = (
        config.psi
        if config.psi is not None
        else compute_rejection_penalty(config.substrate, config.apps, config.efficiency)
    )
    one_rep = functools.partial(_repetition, config, psi)
    reps = range(config.repetitions)
    if config.jobs > 1 and config.repetitions > 1:
        # a forked worker starts without importing numpy and scipy again
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        with ProcessPoolExecutor(min(config.jobs, config.repetitions), mp_context=context) as pool:
            pieces = list(pool.map(one_rep, reps))
    else:
        pieces = [one_rep(rep) for rep in reps]
    for rows, timings, errors in pieces:  # deterministic merge: repetition order
        result.rows.extend(rows)
        result.timings.extend(timings)
        result.errors.extend(errors)
    result.aggregates = summarize(result.rows)
    return result


def summarize(rows: Sequence[dict]) -> dict:
    """Per-algorithm mean and population variance of the main metrics."""
    out: dict = {}
    metrics = ["rejection_rate", "total_cost", "compute_cost", "bandwidth_cost", "rejection_cost"]
    by_algo: dict[str, list[dict]] = {}
    for row in rows:
        by_algo.setdefault(row["algorithm"], []).append(row)
    for algo, group in sorted(by_algo.items()):
        stats = {}
        for metric in metrics:
            values = [row[metric] for row in group if metric in row]
            if not values:
                continue
            mean = sum_in_order(values) / len(values)
            var = sum_in_order((v - mean) ** 2 for v in values) / len(values)
            stats[metric] = {"mean": mean, "variance": var, "n": len(values)}
        out[algo] = stats
    return out


def catalog_alternative_indices(apps: Mapping[str, Application]) -> list[int]:
    seen: set[int] = set()
    for app in apps.values():
        for alt in app.alternatives:
            seen.add(alt.index)
    return sorted(seen)


def _csv(header: Sequence[str], records) -> str:
    """CSV text of a header line and one line per record, every value
    written by :func:`_fmt`."""
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in record] for record in records)
    return buf.getvalue()


def rows_to_csv(rows: Sequence[dict], alt_indices: Sequence[int]) -> str:
    """Render rows with a fixed column set and repr-exact floats, so the
    bytes are stable for a given row content."""
    columns = result_columns(alt_indices)
    return _csv(columns, ([row.get(c) for c in columns] for row in rows))


def long_rows(rows: Sequence[dict], alt_indices: Sequence[int]) -> list[tuple]:
    """(scenario, repetition, seed, algorithm, metric, value) triples for
    plot-ready long-format export."""
    out = []
    skip = {"scenario", "algorithm", "repetition", "seed", "status"}
    columns = [c for c in result_columns(alt_indices) if c not in skip]
    for row in rows:
        for metric in columns:
            if metric in row:
                out.append(
                    (
                        row["scenario"],
                        row["repetition"],
                        row["seed"],
                        row["algorithm"],
                        metric,
                        row[metric],
                    )
                )
    return out


def long_rows_to_csv(rows: Sequence[dict], alt_indices: Sequence[int]) -> str:
    header = ["scenario", "repetition", "seed", "algorithm", "metric", "value"]
    return _csv(header, long_rows(rows, alt_indices))


def timings_to_csv(timings: Sequence[dict]) -> str:
    columns = [
        "scenario", "repetition", "algorithm", "runtime_s", "lp_runtime_s", "aggregate_s",
        "build_s", "solve_s", "unpack_s", "rounding_runtime_s", "lp_iterations", "setup_runtime_s",
        "chain_searches", "chain_reuses", "cpu_s", "setup_cpu_s",
    ]
    return _csv(columns, ([t.get(c) for c in columns] for t in timings))


def write_result(result: ScenarioResult, out_dir: Union[str, Path], apps: Mapping[str, Application]) -> dict[str, Path]:
    """Persist a scenario result: wide CSV, long CSV, JSON summary, and
    the timings sidecar (kept separate so the data files are
    byte-reproducible)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    alt_indices = catalog_alternative_indices(apps)
    paths = {
        "rows": out / f"{result.config_name}_rows.csv",
        "long": out / f"{result.config_name}_long.csv",
        "summary": out / f"{result.config_name}_summary.json",
        "timings": out / f"{result.config_name}_timings.csv",
    }
    paths["rows"].write_text(rows_to_csv(result.rows, alt_indices))
    paths["long"].write_text(long_rows_to_csv(result.rows, alt_indices))
    paths["summary"].write_text(
        json.dumps(
            {
                "schema_version": 1,
                "scenario": result.config_name,
                "aggregates": result.aggregates,
                "errors": result.errors,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    paths["timings"].write_text(timings_to_csv(result.timings))
    return paths
