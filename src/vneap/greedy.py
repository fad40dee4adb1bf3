"""Sequential greedy embedding: each request gets the cheapest feasible
alternative against residual capacity, or is rejected.

The per-alternative search (`minv_embed`) decomposes the service tree
into maximal downward chains and embeds each chain with an A* run over
(substrate node, chain progress) states, so hops pay bandwidth and
placements pay compute.  Subtrees hanging off a placed branch node are
embedded recursively with the same rule.

A*'s bound is exact for the uncapacitated problem: per chain, the
cheapest cost per unit demand to finish the chain from every state,
computed once by reverse shortest-path passes over the layered graph.
Coefficients and costs are fixed for a run and capacity only removes
moves, so demand times that cost never exceeds the true remaining cost
at any residual (admissible), and it obeys the triangle inequality along
every move (consistent).  A* therefore pops the first goal state at the
cheapest cost, as Dijkstra would, after expanding fewer states.

The search runs on integer-indexed tables built once per run
(`_ChainSearch`): substrate nodes and arcs are numbered, efficiency
coefficients are read into per-element rows on first use, each
alternative's chains are planned once, and the search keeps its
distances in flat lists indexed by ``m * n + v``.  Every load and cost
is computed with the same float operations in the same order as a
search over id-keyed dicts would, so results are identical to the bit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from . import rng as _rng
from .model import (
    FORBIDDEN,
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateNetwork,
    VirtualLink,
)

_EPS = 1e-9
# Scale of the A* bound table: float sums taken in another order may come
# out a few ulps above the search's own, and a bound must never do that.
_BOUND_SHRINK = 1.0 - 1e-9


@dataclass
class ResidualState:
    """Remaining node and arc capacity, consumed as requests are accepted."""

    node: dict[str, float]
    arc: dict[tuple[str, str], float]

    @staticmethod
    def from_network(net: SubstrateNetwork) -> "ResidualState":
        return ResidualState(
            {n.id: n.capacity for n in net.nodes},
            {(a.src, a.dst): a.capacity for a in net.arcs},
        )

    def consume(self, node_loads: Mapping[str, float], arc_loads: Mapping) -> None:
        for v, amount in node_loads.items():
            self.node[v] = max(0.0, self.node[v] - amount)
        for vw, amount in arc_loads.items():
            self.arc[vw] = max(0.0, self.arc[vw] - amount)


@dataclass(frozen=True)
class CandidateEmbedding:
    node_map: dict[str, str]
    link_map: dict[tuple[str, str], tuple[tuple[str, str], ...]]
    cost: float
    node_loads: dict[str, float]
    arc_loads: dict[tuple[str, str], float]


def _chains(alt: AlternativeTopology) -> list[tuple[str, list[VirtualLink]]]:
    """Split the tree into maximal downward chains, in preorder.  Each
    chain starts at a node that is already placed by the time the chain
    is processed (the root, or an earlier chain's interior/branch node).
    """
    out: list[tuple[str, list[VirtualLink]]] = []

    def descend(start: str) -> None:
        for first in alt.children.get(start, ()):
            chain = [first]
            cur = first.child
            while len(alt.children.get(cur, ())) == 1:
                nxt = alt.children[cur][0]
                chain.append(nxt)
                cur = nxt.child
            out.append((start, chain))
            descend(cur)

    descend(alt.root)
    return out


class _ChainSearch:
    """Integer-indexed tables of one (network, efficiency) pair, plus the
    residual capacities the chain search tests moves against.

    Substrate nodes are numbered in network order and arcs by endpoint
    pair; coefficient rows (one value per substrate node or arc, keyed by
    virtual node id or virtual link pair, as :class:`EfficiencyMap` is)
    and per-alternative chain plans are filled on first use and shared
    by every later search.  Capacities are kept with ``_EPS`` already
    added, mirrored from ``residual`` on every :meth:`consume`.
    """

    def __init__(
        self, net: SubstrateNetwork, efficiency: EfficiencyMap, residual: ResidualState
    ):
        self.ids = [n.id for n in net.nodes]
        self.node_index = {v: i for i, v in enumerate(self.ids)}
        self.node_cost = [n.cost for n in net.nodes]
        self.pairs = list(net.arc_by_pair)
        self.arc_index = {pair: k for k, pair in enumerate(self.pairs)}
        # out-arcs as (destination index, arc index, cost)
        self.out = [
            [
                (self.node_index[a.dst], self.arc_index[(a.src, a.dst)], a.cost)
                for a in net.out_arcs[v]
            ]
            for v in self.ids
        ]
        # in-arcs as (source index, arc index, cost), for the bound passes
        self.into: list[list[tuple[int, int, float]]] = [[] for _ in self.ids]
        for u, arcs in enumerate(self.out):
            for w, a, arc_cost in arcs:
                self.into[w].append((u, a, arc_cost))
        self.efficiency = efficiency
        self.residual = residual
        self.node_cap = [residual.node[v] + _EPS for v in self.ids]
        self.arc_cap = [residual.arc[pair] + _EPS for pair in self.pairs]
        self._node_rows: dict[str, list[Optional[float]]] = {}
        self._link_rows: dict[tuple[str, str], list[Optional[float]]] = {}
        self._plans: dict[AlternativeTopology, tuple] = {}

    def node_row(self, func: str) -> list[Optional[float]]:
        row = self._node_rows.get(func)
        if row is None:
            row = self._node_rows[func] = [self.efficiency.node(func, v) for v in self.ids]
        return row

    def link_row(self, pair: tuple[str, str]) -> list[Optional[float]]:
        row = self._link_rows.get(pair)
        if row is None:
            row = self._link_rows[pair] = [self.efficiency.link(pair, arc) for arc in self.pairs]
        return row

    def plan(self, alt: AlternativeTopology) -> tuple:
        """(root row, chains, node terms, link terms) of ``alt``.  A chain
        is (start function, steps, bound), a step (link, child size, child
        row, link row) and the bound :meth:`remaining_cost`'s table shrunk
        by ``_BOUND_SHRINK``; the terms give the size and row of every
        function and link for the cumulative recheck."""
        plan = self._plans.get(alt)
        if plan is None:
            chains = []
            for start, chain in _chains(alt):
                steps = [
                    (
                        link,
                        alt.node_by_id[link.child].size,
                        self.node_row(link.child),
                        self.link_row((link.parent, link.child)),
                    )
                    for link in chain
                ]
                bound = [h * _BOUND_SHRINK for h in self.remaining_cost(steps)]
                chains.append((start, steps, bound))
            node_terms = {n.id: (n.size, self.node_row(n.id)) for n in alt.nodes}
            link_terms = [
                ((vl.parent, vl.child), vl.size, self.link_row((vl.parent, vl.child)))
                for vl in alt.links
            ]
            plan = self._plans[alt] = (self.node_row(alt.root), chains, node_terms, link_terms)
        return plan

    def remaining_cost(self, steps: Sequence[tuple]) -> list[float]:
        """Cheapest cost per unit demand to finish the chain ``steps`` from
        every state ``m * n + v``, ignoring capacity (+inf where no sequence
        of allowed moves finishes it).

        One pass per layer, from the last down to the first: layer m is
        seeded with 'place here, then finish from layer m + 1' and closed
        by Dijkstra over the reversed out-arcs, each costed at
        ``link.size * coeff * arc cost``.  Forbidden pairings are no moves.
        """
        n = len(self.ids)
        k = len(steps)
        inf = float("inf")
        h = [inf] * ((k + 1) * n)
        h[k * n :] = [0.0] * n
        node_cost, into = self.node_cost, self.into
        pop, push = heapq.heappop, heapq.heappush
        for m in range(k - 1, -1, -1):
            link, size, node_row, link_row = steps[m]
            base = m * n
            heap = []
            for v in range(n):
                coeff, after = node_row[v], h[base + n + v]
                if coeff is not FORBIDDEN and after < inf:
                    h[base + v] = size * coeff * node_cost[v] + after
                    heap.append((h[base + v], v))
            heapq.heapify(heap)
            while heap:
                c, w = pop(heap)
                if c > h[base + w]:
                    continue
                for u, a, arc_cost in into[w]:
                    lcoeff = link_row[a]
                    if lcoeff is FORBIDDEN:
                        continue
                    nc = link.size * lcoeff * arc_cost + c
                    if nc < h[base + u]:
                        h[base + u] = nc
                        push(heap, (nc, u))
        return h

    def consume(self, node_loads: Mapping[str, float], arc_loads: Mapping) -> None:
        self.residual.consume(node_loads, arc_loads)
        for v in node_loads:
            self.node_cap[self.node_index[v]] = self.residual.node[v] + _EPS
        for vw in arc_loads:
            self.arc_cap[self.arc_index[vw]] = self.residual.arc[vw] + _EPS

    def embed_chain(
        self, steps: Sequence[tuple], bound: Sequence[float], start: int, demand: float
    ):
        """Cheapest placement of one chain of functions, starting from the
        fixed substrate position (node index) of the chain's first, already
        placed function.  Returns (placements, paths, cost) or None.

        States are (substrate node, number of chain functions placed),
        stored at ``m * n + v``; A* explores 'place here' and 'hop one arc'
        moves, keyed on the cost so far plus ``demand * bound[state]``,
        the chain's uncapacitated finishing cost from :meth:`plan`.  That
        bound is admissible and consistent at any residual (capacity only
        removes moves), so the first goal popped is a cheapest one; a
        state with an infinite bound cannot finish and is never pushed.
        Capacity is checked per individual move against the residual
        snapshot — the caller rechecks the assembled embedding
        cumulatively.
        """
        n = len(self.ids)
        k = len(steps)
        node_cap, arc_cap, node_cost, out = self.node_cap, self.arc_cap, self.node_cost, self.out
        # demand * size first, as in the load formula demand * size * coeff
        moves = [(demand * fs, frow, demand * link.size, lrow) for link, fs, frow, lrow in steps]
        inf = float("inf")
        dist = [inf] * ((k + 1) * n)
        prev = [-1] * ((k + 1) * n)
        dist[start] = 0.0
        # entries (key, m, v, cost so far): a state is expanded with the
        # cost it was pushed with, and skipped if that has since improved
        heap = [(demand * bound[start], 0, start, 0.0)]
        pop, push = heapq.heappop, heapq.heappush
        final = -1
        while heap:
            _, m, v, d = pop(heap)
            s = m * n + v
            if d > dist[s] + _EPS:
                continue
            if m == k:
                final = s
                break
            node_demand, node_row, link_demand, link_row = moves[m]
            # place the next function on the current node
            coeff = node_row[v]
            if coeff is not FORBIDDEN:
                load = node_demand * coeff
                t = s + n
                rest = bound[t]
                if load <= node_cap[v] and rest != inf:
                    nd = d + load * node_cost[v]
                    if nd < dist[t] - _EPS:
                        dist[t] = nd
                        prev[t] = s
                        push(heap, (nd + demand * rest, m + 1, v, nd))
            # or carry the pending virtual link one arc further
            base = s - v
            for w, a, arc_cost in out[v]:
                lcoeff = link_row[a]
                if lcoeff is FORBIDDEN:
                    continue
                load = link_demand * lcoeff
                if load > arc_cap[a]:
                    continue
                t = base + w
                rest = bound[t]
                if rest == inf:
                    continue
                nd = d + load * arc_cost
                if nd < dist[t] - _EPS:
                    dist[t] = nd
                    prev[t] = s
                    push(heap, (nd + demand * rest, m, w, nd))
        if final < 0:
            return None
        # walk predecessors back to the start state to recover placements/paths
        ids = self.ids
        placements: dict[str, str] = {}
        paths: dict[tuple[str, str], list[tuple[str, str]]] = {
            (step[0].parent, step[0].child): [] for step in steps
        }
        s = final
        while prev[s] >= 0:
            p = prev[s]
            pm, pv = divmod(p, n)
            link = steps[pm][0]
            if s - p == n:  # same node, one more function placed
                placements[link.child] = ids[pv]
            else:
                paths[(link.parent, link.child)].insert(0, (ids[pv], ids[s - pm * n]))
            s = p
        return placements, {pair: tuple(p) for pair, p in paths.items()}, dist[final]

    def embed(
        self, alt: AlternativeTopology, origin: str, demand: float
    ) -> Optional[CandidateEmbedding]:
        """:func:`minv_embed` against this search's residual capacities."""
        o = self.node_index.get(origin)
        if o is None:
            return None
        root_row, chains, node_terms, link_terms = self.plan(alt)
        if root_row[o] is FORBIDDEN:
            return None
        node_index = self.node_index
        node_map: dict[str, str] = {alt.root: origin}
        link_map: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
        cost = 0.0
        for start_func, steps, bound in chains:
            got = self.embed_chain(steps, bound, node_index[node_map[start_func]], demand)
            if got is None:
                return None
            placements, paths, chain_cost = got
            node_map.update(placements)
            link_map.update(paths)
            cost += chain_cost
        # cumulative recheck: per-move checks were against the untouched
        # residual, so co-located functions / shared arcs need a joint pass
        node_loads: dict[str, float] = {}
        arc_loads: dict[tuple[str, str], float] = {}
        for i, v in node_map.items():
            size, row = node_terms[i]
            load = demand * size * row[node_index[v]]
            if load:
                node_loads[v] = node_loads.get(v, 0.0) + load
        arc_index = self.arc_index
        for pair, size, row in link_terms:
            for arc in link_map[pair]:
                load = demand * size * row[arc_index[arc]]
                if load:
                    arc_loads[arc] = arc_loads.get(arc, 0.0) + load
        for v, load in node_loads.items():
            if load > self.node_cap[node_index[v]]:
                return None
        for vw, load in arc_loads.items():
            if load > self.arc_cap[arc_index[vw]]:
                return None
        return CandidateEmbedding(node_map, link_map, cost, node_loads, arc_loads)


def minv_embed(
    net: SubstrateNetwork,
    alt: AlternativeTopology,
    origin: str,
    demand: float,
    efficiency: EfficiencyMap,
    residual: ResidualState,
) -> Optional[CandidateEmbedding]:
    """Minimal-cost embedding of one alternative rooted at ``origin``
    against the given residual capacities, or None if the search finds
    no feasible placement.

    Chains are embedded greedily in preorder; the assembled candidate is
    then rechecked cumulatively (several functions sharing one node must
    fit together), so a returned candidate is always safe to accept.
    """
    return _ChainSearch(net, efficiency, residual).embed(alt, origin, demand)


@dataclass
class GreedyReport:
    accepted: int = 0
    rejected: int = 0
    embed_cost: float = 0.0
    rejected_demand: float = 0.0
    rejection_penalty: float = 0.0
    objective: float = 0.0
    runtime_s: float = 0.0
    order: tuple[int, ...] = field(default=())


def greedy_embed_all(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
    order_seed: int,
) -> tuple[list[IntegralEmbedding], GreedyReport]:
    """Embed requests one by one, cheapest feasible alternative first.

    Requests are visited in a seeded uniform shuffle (the input order is
    an artifact of generation, not of the modeled system), but the
    returned list matches the input order.  A request is rejected only
    when no alternative fits the current residual capacity; ties between
    equal-cost alternatives go to the lower alternative index.
    """
    t0 = time.perf_counter()
    search = _ChainSearch(net, efficiency, ResidualState.from_network(net))
    ranked = {a: sorted(app.alternatives, key=lambda alt: alt.index) for a, app in apps.items()}
    order = _rng.stream(order_seed, "greedy-order").permutation(len(requests))
    results: list[Optional[IntegralEmbedding]] = [None] * len(requests)
    report = GreedyReport(order=tuple(int(i) for i in order))
    for pos in order:
        req = requests[pos]
        best: Optional[CandidateEmbedding] = None
        best_alt: Optional[int] = None
        for alt in ranked[req.app]:
            cand = search.embed(alt, req.origin, req.demand)
            if cand is not None and (best is None or cand.cost < best.cost):
                best, best_alt = cand, alt.index
        if best is None:
            results[pos] = IntegralEmbedding.reject(req)
            report.rejected += 1
            report.rejected_demand += req.demand
        else:
            search.consume(best.node_loads, best.arc_loads)
            results[pos] = IntegralEmbedding(req, best_alt, best.node_map, best.link_map)
            report.accepted += 1
            report.embed_cost += best.cost
    report.rejection_penalty = psi * report.rejected_demand
    report.objective = report.embed_cost + report.rejection_penalty
    report.runtime_s = time.perf_counter() - t0
    return [e for e in results if e is not None], report
