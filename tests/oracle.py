"""Brute-force oracles for tiny instances, and plain reference versions of
the package's fast searches.

Everything here recomputes loads and costs from first principles (walking the
raw maps), sharing no code with the package's formulation or validator, so it
can act as an independent referee.  Two exceptions are plain reference
versions of fast code: `dijkstra_chain` runs on a greedy search's own tables
so that it can be compared with `embed_chain` call by call, and
`dict_round_relaxation` is tanto's rounding walk on a residual keyed by
`VariableKey`, each draw a call of `weighted_random_select`, to be compared
with `round_relaxation` run by run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from vneap import rng as _rng
from vneap.formulation import AggregatedRequest, Relaxation, VariableKey
from vneap.model import (
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateNetwork,
)
from vneap.tanto import _DUST, _SLACK, _STEP_FACTOR


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


def simple_paths(net: SubstrateNetwork, src: str, dst: str) -> list[tuple[tuple[str, str], ...]]:
    """All simple directed arc paths from src to dst; [()] when collocated.

    Optimal integral embeddings never need walks that revisit a node: any
    such walk contains a simple subpath that is no more expensive and no
    more loaded.
    """
    if src == dst:
        return [()]
    out = []

    def dfs(here: str, path: list[tuple[str, str]], seen: set[str]) -> None:
        for arc in net.out_arcs[here]:
            if arc.dst in seen:
                continue
            step = path + [(arc.src, arc.dst)]
            if arc.dst == dst:
                out.append(tuple(step))
            else:
                dfs(arc.dst, step, seen | {arc.dst})

    dfs(src, [], {src})
    return out


def _option_loads_cost(
    net: SubstrateNetwork,
    alt: AlternativeTopology,
    efficiency: EfficiencyMap,
    demand: float,
    node_map: Mapping[str, str],
    link_paths: Mapping[tuple[str, str], tuple[tuple[str, str], ...]],
):
    """(node loads, arc loads, cost) for one fully specified embedding."""
    node_loads: dict[str, float] = {}
    arc_loads: dict[tuple[str, str], float] = {}
    cost = 0.0
    sizes = {vn.id: vn.size for vn in alt.nodes}
    for vid, sid in node_map.items():
        coeff = efficiency.node(vid, sid)
        if coeff is None:
            return None
        load = demand * sizes[vid] * coeff
        node_loads[sid] = node_loads.get(sid, 0.0) + load
        cost += load * net.node_by_id[sid].cost
    for vl in alt.links:
        path = link_paths[(vl.parent, vl.child)]
        for src, dst in path:
            coeff = efficiency.link((vl.parent, vl.child), (src, dst))
            if coeff is None:
                return None
            load = demand * vl.size * coeff
            arc_loads[(src, dst)] = arc_loads.get((src, dst), 0.0) + load
            cost += load * net.arc_by_pair[(src, dst)].cost
    return node_loads, arc_loads, cost


def request_options(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    request: Request,
):
    """Every structurally valid integral service option for one request.

    Yields (embedding, node_loads, arc_loads, cost) triples over all
    alternatives, all placements of the non-root functions, and all simple
    paths per virtual link.  Rejection is not included.
    """
    substrate_ids = [n.id for n in net.nodes]
    for alt in apps[request.app].alternatives:
        if efficiency.node(alt.root, request.origin) is None:
            continue
        others = [vn.id for vn in alt.nodes if vn.id != alt.root]
        for placement in itertools.product(substrate_ids, repeat=len(others)):
            node_map = {alt.root: request.origin, **dict(zip(others, placement))}
            if any(efficiency.node(vid, sid) is None for vid, sid in node_map.items()):
                continue
            per_link = []
            for vl in alt.links:
                paths = simple_paths(net, node_map[vl.parent], node_map[vl.child])
                if not paths:
                    per_link = None
                    break
                per_link.append([(vl, p) for p in paths])
            if per_link is None:
                continue
            for combo in itertools.product(*per_link):
                link_paths = {(vl.parent, vl.child): path for vl, path in combo}
                scored = _option_loads_cost(
                    net, alt, efficiency, request.demand, node_map, link_paths
                )
                if scored is None:
                    continue
                node_loads, arc_loads, cost = scored
                emb = IntegralEmbedding(request, alt.index, node_map, link_paths)
                yield emb, node_loads, arc_loads, cost


def enumerate_optimal(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
) -> tuple[float, list[IntegralEmbedding]]:
    """Globally optimal objective by exhaustive joint enumeration.

    Each request independently picks rejection or one of its service
    options; a combination is kept if summed loads respect every capacity.
    Only viable for a handful of nodes and requests.
    """
    per_request = []
    for r in requests:
        options = [(IntegralEmbedding.reject(r), {}, {}, psi * r.demand)]
        options.extend(request_options(net, apps, efficiency, r))
        per_request.append(options)

    node_caps = {n.id: n.capacity for n in net.nodes}
    arc_caps = {(a.src, a.dst): a.capacity for a in net.arcs}
    best_cost: Optional[float] = None
    best: list[IntegralEmbedding] = []
    for combo in itertools.product(*per_request):
        cost = sum(c[3] for c in combo)
        if best_cost is not None and cost >= best_cost:
            continue
        node_total: dict[str, float] = {}
        arc_total: dict[tuple[str, str], float] = {}
        for _, nl, al, _ in combo:
            for sid, load in nl.items():
                node_total[sid] = node_total.get(sid, 0.0) + load
            for arc, load in al.items():
                arc_total[arc] = arc_total.get(arc, 0.0) + load
        if any(load > node_caps[sid] + 1e-9 for sid, load in node_total.items()):
            continue
        if any(load > arc_caps[arc] + 1e-9 for arc, load in arc_total.items()):
            continue
        best_cost = cost
        best = [c[0] for c in combo]
    assert best_cost is not None, "rejection of everything is always feasible"
    return best_cost, best


def enumerate_vertices(
    objective: Sequence[float],
    rows: Sequence[tuple[Sequence[float], float]],
    lower: Sequence[float],
    upper: Sequence[float],
) -> float:
    """Minimum objective over all vertices of {l <= x <= u, Ax <= b}.

    A vertex has n active constraints: every subset of rows may be active,
    the remaining degrees of freedom pinned at a bound.  Exponential — keep
    n and the row count tiny.
    """
    import numpy as np

    n = len(objective)
    m = len(rows)
    c = np.asarray(objective, dtype=float)
    A = np.array([r[0] for r in rows], dtype=float).reshape(m, n)
    b = np.array([r[1] for r in rows], dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)

    best = None
    for k in range(0, min(m, n) + 1):
        for active in itertools.combinations(range(m), k):
            for free in itertools.combinations(range(n), k):
                fixed = [j for j in range(n) if j not in free]
                for bounds_pick in itertools.product((0, 1), repeat=len(fixed)):
                    x = np.empty(n)
                    for j, side in zip(fixed, bounds_pick):
                        x[j] = lo[j] if side == 0 else hi[j]
                    if k:
                        sub = A[np.ix_(active, free)]
                        rhs = b[list(active)] - A[np.ix_(active, fixed)] @ x[fixed]
                        try:
                            x[list(free)] = np.linalg.solve(sub, rhs)
                        except np.linalg.LinAlgError:
                            continue
                    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
                        continue
                    if np.any(A @ x > b + 1e-9):
                        continue
                    val = float(c @ x)
                    if best is None or val < best:
                        best = val
    assert best is not None, "box-bounded system should have at least one vertex"
    return best


def chain_finish_costs(
    net: SubstrateNetwork,
    alt: AlternativeTopology,
    efficiency: EfficiencyMap,
    chain: Sequence,
) -> dict[tuple[int, str], float]:
    """Cheapest cost per unit demand to finish a chain of virtual links,
    ignoring capacity, from every state (functions placed, substrate node),
    by Bellman–Ford over the layered graph.

    A state (m, v) either places the chain's next function on v, moving to
    (m + 1, v) at size * coeff * node cost, or carries link m one arc
    further at size * coeff * arc cost; forbidden pairings are no moves.
    States (len(chain), v) cost nothing; +inf means no move sequence
    finishes the chain.
    """
    k = len(chain)
    ids = [n.id for n in net.nodes]
    sizes = {vn.id: vn.size for vn in alt.nodes}
    moves = []  # (from state, to state, unit cost)
    for m, vl in enumerate(chain):
        for v in ids:
            coeff = efficiency.node(vl.child, v)
            if coeff is not None:
                moves.append(((m, v), (m + 1, v), sizes[vl.child] * coeff * net.node_by_id[v].cost))
        for arc in net.arcs:
            coeff = efficiency.link((vl.parent, vl.child), (arc.src, arc.dst))
            if coeff is not None:
                moves.append(((m, arc.src), (m, arc.dst), vl.size * coeff * arc.cost))
    cost = {(m, v): (0.0 if m == k else math.inf) for m in range(k + 1) for v in ids}
    for _ in range(len(cost)):
        changed = False
        for src, dst, c in moves:
            if c + cost[dst] < cost[src]:
                cost[src] = c + cost[dst]
                changed = True
        if not changed:
            break
    return cost


def dijkstra_chain(search, steps: Sequence[tuple], start: int, demand: float):
    """Reference for ``_ChainSearch.embed_chain``: the same chain search as
    plain Dijkstra (no bound), on ``search``'s tables and residual
    capacities.  Returns (placements, paths, cost) or None."""
    eps = 1e-9
    n = len(search.ids)
    k = len(steps)
    node_cap, arc_cap, node_cost, out = search.node_cap, search.arc_cap, search.node_cost, search.out
    moves = [(demand * fs, frow, demand * link.size, lrow) for link, fs, frow, lrow in steps]
    dist = [math.inf] * ((k + 1) * n)
    prev = [-1] * ((k + 1) * n)
    dist[start] = 0.0
    heap = [(0.0, 0, start)]
    final = -1
    while heap:
        d, m, v = heapq.heappop(heap)
        s = m * n + v
        if d > dist[s] + eps:
            continue
        if m == k:
            final = s
            break
        node_demand, node_row, link_demand, link_row = moves[m]
        coeff = node_row[v]
        if coeff is not None:
            load = node_demand * coeff
            if load <= node_cap[v]:
                nd = d + load * node_cost[v]
                t = s + n
                if nd < dist[t] - eps:
                    dist[t] = nd
                    prev[t] = s
                    heapq.heappush(heap, (nd, m + 1, v))
        base = s - v
        for w, a, arc_cost in out[v]:
            lcoeff = link_row[a]
            if lcoeff is None:
                continue
            load = link_demand * lcoeff
            if load > arc_cap[a]:
                continue
            nd = d + load * arc_cost
            t = base + w
            if nd < dist[t] - eps:
                dist[t] = nd
                prev[t] = s
                heapq.heappush(heap, (nd, m, w))
    if final < 0:
        return None
    placements: dict[str, str] = {}
    paths: dict[tuple[str, str], list[tuple[str, str]]] = {
        (step[0].parent, step[0].child): [] for step in steps
    }
    s = final
    while prev[s] >= 0:
        p = prev[s]
        pm, pv = divmod(p, n)
        link = steps[pm][0]
        if s - p == n:
            placements[link.child] = search.ids[pv]
        else:
            paths[(link.parent, link.child)].insert(0, (search.ids[pv], search.ids[s - pm * n]))
        s = p
    return placements, {pair: tuple(p) for pair, p in paths.items()}, dist[final]


@dataclass
class DictRoundingState:
    """Reference for ``tanto.RoundingState``: the residual fractional
    solution as a dict keyed by :class:`VariableKey` (normalized to the
    aggregate demand), the zeroed-variable set, and the counters."""

    owner: str
    demand: float
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
    ) -> "DictRoundingState":
        y = {k: v for k, v in values.items() if k.owner == agg.owner and v > _DUST}
        n_nodes = len(net.nodes)
        n_arcs = len(net.arcs)
        biggest = max((len(a.nodes) + len(a.links) for a in alternatives), default=1)
        return DictRoundingState(
            owner=agg.owner,
            demand=agg.demand,
            y=y,
            initial_nonzero=len(y),
            net=net,
            per_link_cap=max(1, n_nodes * n_arcs),
            request_budget=max(1, _STEP_FACTOR * n_nodes * biggest),
        )


def dict_embed_request(
    r: Request,
    alt_set: Sequence[AlternativeTopology],
    Y_residual: DictRoundingState,
    rng: np.random.Generator,
) -> IntegralEmbedding:
    """Reference for ``tanto.embed_request``: the same walk, every key built
    as a tuple and looked up in the residual dict.  A step cut by the
    per-link cap or the request budget is not counted, as in the package."""
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
            place_key = (state.owner, alt.index, ("n", link.child, v))
            if link_steps >= state.per_link_cap or steps >= state.request_budget:
                return reject("overflow_rejections", zero_key=place_key)
            steps += 1
            link_steps += 1
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


#: The counters ``dict_round_relaxation`` sums over aggregates, named as
#: the ``TantoReport`` fields they stand for.
ROUNDING_COUNTERS = (
    "initial_nonzero_y",
    "accepted",
    "rounding_rejections",
    "stranded_rejections",
    "lp_exhausted_rejections",
    "overflow_rejections",
    "total_steps",
)


def dict_round_relaxation(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    requests: Sequence[Request],
    relaxation: Relaxation,
    seed: int = 0,
):
    """Reference for ``tanto.round_relaxation``: each aggregate's members
    in the same seeded shuffle on the same stream, rounded by
    :func:`dict_embed_request` with one ``stream.random()`` per draw.

    Returns (embeddings in request order, counters, residuals): the
    counters are :data:`ROUNDING_COUNTERS` summed over aggregates plus the
    maxima ``max_request_steps``, ``request_step_budget`` and
    ``per_link_step_cap``; ``residuals`` maps each aggregate's owner to its
    final state."""
    frac = relaxation.fractional
    results: list[Optional[IntegralEmbedding]] = [None] * len(requests)
    counters = dict.fromkeys(ROUNDING_COUNTERS, 0)
    counters.update(max_request_steps=0, request_step_budget=0, per_link_step_cap=0)
    residuals: dict[str, DictRoundingState] = {}
    for agg in frac.aggregates:
        stream = _rng.stream(seed, "round", agg.origin, agg.app)
        alternatives = sorted(apps[agg.app].alternatives, key=lambda a: a.index)
        state = DictRoundingState.for_aggregate(net, agg, frac.values, alternatives)
        for pos in stream.permutation(len(agg.members)):
            member = agg.members[pos]
            results[member] = dict_embed_request(requests[member], alternatives, state, stream)
        counters["initial_nonzero_y"] += state.initial_nonzero
        for name in ROUNDING_COUNTERS[1:]:
            counters[name] += getattr(state, name)
        counters["max_request_steps"] = max(counters["max_request_steps"], state.max_request_steps)
        counters["request_step_budget"] = max(counters["request_step_budget"], state.request_budget)
        counters["per_link_step_cap"] = max(counters["per_link_step_cap"], state.per_link_cap)
        residuals[agg.owner] = state
    return results, counters, residuals
