"""Experiment harness: topology ingestion, tier classification, cost and
capacity assignment, request generation, target-utilization calibration,
and scenario execution with deterministic result rows.

Scenario flow: scale substrate capacities once to the target utilizations
of the expected demand (the request count times the mean clipped size);
per repetition, generate the run request set, execute each configured
algorithm, and collect metrics through the validator.  The full
catalog's aggregate relaxation is solved at most once per repetition:
the ``lp`` row reports it and ``tanto`` rounds it.  All randomness is
derived from the scenario seed via labeled streams, so rows are
byte-stable across runs and across worker counts; wall-clock timings
are kept out of the rows and reported in a separate timings table.
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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import networkx as nx
import numpy as np
from scipy.special import ndtr

from . import rng as _rng
from .formulation import (
    AggregatedRequest,
    Relaxation,
    build_milp,
    compute_rejection_penalty,
    fractional_solution,
    request_owner,
    restrict_to_alternative,
    solve_relaxation,
)
from .greedy import greedy_embed_all
from .io import FormatError, make_dir, write_text
from .lp import _highs, solve_milp_exact
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
    check_instance,
    sum_in_order,
)
from .tanto import round_relaxation
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
        # a float or bool count would compare as a number and draw a
        # count nobody asked for (NaN none, 2.5 three, True one)
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise ValueError(f"count must be an integer, not {self.count!r}")
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


def _lognormal_pdf(xs: np.ndarray, s: float, scale: float) -> np.ndarray:
    """The log-normal density of shape ``s`` and scale ``scale`` at
    ``xs``, to the bit as ``scipy.stats.lognorm.pdf(xs, s, scale=scale)``
    computes it: NaN everywhere unless ``s`` and ``scale`` are positive,
    0 where ``x = xs/scale`` is not in (0, inf), else
    ``exp(-log(x)²/(2s²) - log(s·x·√(2π)))/scale``."""
    x = xs / scale
    if not (s > 0 and scale > 0):
        return np.full_like(x, np.nan)
    out = np.zeros_like(x)
    inside = (0 < x) & (x < np.inf)
    if inside.any():
        s, x = np.asarray(s, dtype=float), x[inside]  # numpy's powers and logs, not Python's
        out[inside] = np.exp(-np.log(x) ** 2 / (2 * s**2) - np.log(s * x * np.sqrt(2 * np.pi))) / scale
    return out


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
            weights = _lognormal_pdf(xs, profile.lognormal_sigma, math.exp(profile.lognormal_mu))
    else:
        raise ValueError(f"spatial must be one of {', '.join(SPATIAL)}, not {profile.spatial!r}")
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

    A size is drawn as ``mean + sigma * standard_normal()``: numpy's
    ``Generator.normal(mean, sigma)`` computes exactly that from the same
    one standard normal draw, so the sizes and the stream's state are
    the same to the bit, without parsing two arguments on every call.
    """
    edges, probabilities = _origin_weights(net, params)
    node_fp, _, first_link = _main_footprint(apps[params.app])
    stream = _rng.stream(seed, "generate")
    # Generator.choice(len(edges), p=probabilities) builds this CDF on
    # every call and maps one random() to its searchsorted(side="right")
    # index; doing both here draws the same origins from the same stream.
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    ids = [n.id for n in edges]

    capped = params.enforce_origin_cap
    if capped:
        caps = {}
        for n in edges:
            out_cap = sum_in_order(a.capacity for a in net.out_arcs.get(n.id, ()))
            bounds = []
            if node_fp > 0:
                bounds.append(n.capacity / node_fp)
            if first_link > 0:
                bounds.append(out_cap / first_link)
            caps[n.id] = min(bounds) if bounds else math.inf
        used = dict.fromkeys(ids, 0.0)

    count, app, mean, sigma = params.count, params.app, params.size_mean, params.size_sigma
    uniform, standard_normal, pick = stream.random, stream.standard_normal, bisect.bisect_right
    out: list[Request] = []
    append = out.append
    for _ in range(max(10 * count, 1000)):  # the attempt limit
        origin = ids[pick(cdf, uniform())]
        size = mean + sigma * standard_normal()
        if size < _SIZE_FLOOR:
            size = _SIZE_FLOOR
        if capped:
            load = used[origin] + size
            if load > caps[origin]:
                continue
            used[origin] = load
        append(Request(origin, app, size))
        if len(out) == count:
            break
    else:
        log.warning("origin caps exhausted: generated %d of %d requests", len(out), count)
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


def _rescaled(
    net: SubstrateNetwork, node_demand: float, link_demand: float, node_tu: float, link_tu: float
) -> SubstrateNetwork:
    """``net`` with node and arc capacities uniformly rescaled so the given
    main-alternative demand meets the target utilizations (total demand /
    total capacity); a ValueError unless both scales are finite and positive."""
    total_node_cap, total_arc_cap = _capacity_totals(net)
    node_scale, arc_scale = (node_demand / node_tu) / total_node_cap, (link_demand / link_tu) / total_arc_cap
    for what, scale in (("node", node_scale), ("arc", arc_scale)):
        if not 0 < scale < math.inf:
            raise ValueError(f"{what} capacity scale {scale!r} is not a finite positive factor")
    nodes = tuple(replace(n, capacity=n.capacity * node_scale) for n in net.nodes)
    arcs = tuple(replace(a, capacity=a.capacity * arc_scale) for a in net.arcs)
    return SubstrateNetwork(nodes, arcs)


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
    return _rescaled(net, node_demand, link_demand, node_tu, link_tu)


def _clipped_mean(mean: float, sigma: float) -> float:
    """E[max(f, N(mean, sigma))] for the size floor f, the mean size that
    generate_requests draws: ``f·Φ(a) + μ·(1 − Φ(a)) + σ·φ(a)`` with
    ``a = (f − μ)/σ``; NaN or infinite unless both are finite.  Φ, 1 − Φ
    and φ are computed as ``scipy.stats.norm`` computes them, on a 0-d
    array, so the result is its to the bit."""
    a = (_SIZE_FLOOR - mean) / sigma
    if math.isnan(a):
        return math.nan  # scipy's Φ, 1 − Φ and φ are its NaN, sign bit clear
    a = np.asarray(a)
    phi = np.exp(-a**2 / 2.0) / np.sqrt(2 * np.pi)
    return _SIZE_FLOOR * float(ndtr(a)) + mean * float(ndtr(-a)) + sigma * float(phi)


def calibrated_substrate(config: ScenarioConfig) -> SubstrateNetwork:
    """The substrate every repetition runs on: capacities rescaled so the
    expected demand (``requests`` times the clipped mean size, under the
    app's main alternative) meets ``node_tu`` and ``link_tu``."""
    node_fp, link_fp, _ = _main_footprint(config.apps[config.app])
    demand = config.requests * _clipped_mean(config.size_mean, config.size_sigma)
    return _rescaled(config.substrate, demand * node_fp, demand * link_fp, config.node_tu, config.link_tu)


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
    """A scenario's inputs and settings, checked on construction as solve's
    inputs are; its defaults are the ones a scenario file's absent keys
    take, and an empty ``app`` and an absent ``psi`` are resolved then."""

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
    algorithms: tuple[str, ...] = ("lp", "greedy", "tanto")
    repetitions: int = 30
    seed: int = 0
    psi: Optional[float] = None
    efficiency: EfficiencyMap = field(default_factory=EfficiencyMap)
    jobs: int = 1

    def __post_init__(self):
        # the name prefixes each file write_result writes inside --out
        if self.name in ("", ".", "..") or "/" in self.name or os.sep in self.name:
            raise ValueError(f"name must be a plain file-name prefix, not {self.name!r}")
        check_instance(self.substrate, self.apps, self.efficiency, psi=self.psi)
        for key in ("requests", "repetitions", "jobs", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, not {value!r}")
        for key in ("requests", "repetitions", "jobs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, not {getattr(self, key)}")
        for key in ("node_tu", "link_tu", "size_sigma"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, not {getattr(self, key)}")
        _origin_weights(self.substrate, self)
        if not self.algorithms:
            raise ValueError("algorithms must name at least one algorithm")
        if not self.apps:
            raise ValueError("applications: the catalog holds no application")
        for k, algo in enumerate(self.algorithms):
            if algo in self.algorithms[:k]:
                raise ValueError(f"algorithms: {algo!r} is listed more than once")
            try:
                algorithm_catalog(algo, self.apps)
            except ValueError as exc:
                raise ValueError(f"algorithms: {exc}") from None
        if not self.app:
            object.__setattr__(self, "app", sorted(self.apps)[0])
        elif self.app not in self.apps:
            raise ValueError(f"app {self.app!r} is not in the catalog")
        if self.psi is None:
            object.__setattr__(self, "psi", compute_rejection_penalty(self.substrate, self.apps, self.efficiency))
        try:
            calibrated_substrate(self)
        except ValueError as exc:
            raise ValueError(
                f"calibration cannot size the substrate for {self.requests} requests of size mean "
                f"{self.size_mean!r}, sigma {self.size_sigma!r} at node_tu {self.node_tu!r} and "
                f"link_tu {self.link_tu!r}: {exc}"
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


def _validate(timing: dict, check: Callable, *args):
    """``check(*args)``, its wall and CPU seconds recorded in ``timing``
    as ``validate_s`` and ``validate_cpu_s``."""
    t0, c0 = time.perf_counter(), time.process_time()
    out = check(*args)
    timing.update(validate_s=time.perf_counter() - t0, validate_cpu_s=time.process_time() - c0)
    return out


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
            solved = relaxation()
            sol, frac = solved.solution, solved.fractional
            timing.update(solved.timings, runtime_s=solved.runtime_s)
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
        cost = _validate(timing, fractional_cost, catalog, net, efficiency, frac, psi)
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
            timing.update(solved.timings)
            timing["lp_runtime_s"] = rep.lp_runtime_s
            timing["rounding_runtime_s"] = rep.rounding_runtime_s
            timing["rounding_cpu_s"] = rep.rounding_cpu_s
            timing["replayed_walks"] = rep.replayed_walks
        timing["runtime_s"] = rep.runtime_s
        try:
            cost = _validate(timing, total_cost, net, catalog, efficiency, embeddings, psi)
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


def _repetition(config: ScenarioConfig, net: SubstrateNetwork, rep: int) -> tuple[list, list, list]:
    """Repetition ``rep`` of a scenario on its calibrated substrate ``net``:
    its (rows, timings, errors).  A module-level function of its arguments
    alone, so a worker process can run it; its timings are that process's own."""
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
        requests = generate_requests(net, config.apps, gen, _rng.substream_seed(config.seed, "requests", rep))
    except Exception as exc:
        return rows, timings, [_error_entry(rep, "", exc)]
    setup_runtime_s = time.perf_counter() - t0
    setup_cpu_s = time.process_time() - c0
    # solved on first use, then shared by this repetition's lp and tanto
    relaxation = functools.cache(
        functools.partial(solve_relaxation, net, config.apps, config.efficiency, requests, config.psi)
    )
    for algo in config.algorithms:
        algo_seed = _rng.substream_seed(config.seed, "algo", algo, rep)
        started = time.process_time()
        try:
            row, timing, _ = _run_algorithm(
                algo, net, config.apps, config.efficiency, requests, config.psi, algo_seed, relaxation
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
    """Execute all repetitions of a scenario on its calibrated substrate.

    Each repetition derives its own seeds from the scenario seed, so the
    result rows are identical however many worker processes run them.
    A failing repetition/algorithm is recorded in ``errors`` and
    skipped; the rest of the run proceeds.
    """
    result = ScenarioResult(config_name=config.name)
    one_rep = functools.partial(_repetition, config, calibrated_substrate(config))
    reps = range(config.repetitions)
    if config.jobs > 1 and config.repetitions > 1:
        # a forked worker starts without importing numpy and scipy again,
        # HiGHS's bindings among them, which vneap.lp imports on first use
        _highs()
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


# The metrics summarize averages, per algorithm.
SUMMARY_METRICS = ("rejection_rate", "total_cost", "compute_cost", "bandwidth_cost", "rejection_cost")


def summarize(rows: Sequence[dict]) -> dict:
    """Per-algorithm mean and population variance of the main metrics."""
    out: dict = {}
    by_algo: dict[str, list[dict]] = {}
    for row in rows:
        by_algo.setdefault(row["algorithm"], []).append(row)
    for algo, group in sorted(by_algo.items()):
        stats = {}
        for metric in SUMMARY_METRICS:
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
        "build_s", "solve_s", "unpack_s", "rounding_runtime_s", "rounding_cpu_s", "lp_iterations",
        "lp_columns", "lp_pricing_rounds", "setup_runtime_s", "chain_searches", "chain_reuses",
        "cpu_s", "setup_cpu_s", "aggregate_cpu_s", "build_cpu_s", "solve_cpu_s", "unpack_cpu_s",
        "validate_s", "validate_cpu_s", "lp_rows", "lp_nnz", "lp_total_iterations",
        "replayed_walks",
    ]
    return _csv(columns, ([t.get(c) for c in columns] for t in timings))


def write_result(result: ScenarioResult, out_dir: Union[str, Path], apps: Mapping[str, Application]) -> dict[str, Path]:
    """Persist a scenario result: wide CSV, long CSV, JSON summary, and
    the timings sidecar (kept separate so the data files are
    byte-reproducible).  A path that cannot be written is a FormatError."""
    out = make_dir(out_dir)
    alt_indices = catalog_alternative_indices(apps)
    paths = {
        "rows": out / f"{result.config_name}_rows.csv",
        "long": out / f"{result.config_name}_long.csv",
        "summary": out / f"{result.config_name}_summary.json",
        "timings": out / f"{result.config_name}_timings.csv",
    }
    write_text(paths["rows"], rows_to_csv(result.rows, alt_indices))
    write_text(paths["long"], long_rows_to_csv(result.rows, alt_indices))
    write_text(
        paths["summary"],
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
        + "\n",
    )
    write_text(paths["timings"], timings_to_csv(result.timings))
    return paths
