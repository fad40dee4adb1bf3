"""Brute-force oracles for tiny instances, and plain reference versions of
the package's fast searches.

Everything here recomputes loads and costs from first principles (walking the
raw maps), sharing no code with the package's formulation or validator, so it
can act as an independent referee.  The one exception is `dijkstra_chain`,
which runs on a greedy search's own tables so that it can be compared with
`embed_chain` call by call.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Mapping, Optional, Sequence

from vneap.model import (
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateNetwork,
)


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
