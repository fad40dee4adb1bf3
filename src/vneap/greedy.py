"""Sequential greedy embedding: each request gets the cheapest feasible
alternative against residual capacity, or is rejected.

The per-alternative search (`_ChainSearch.embed`) decomposes the
service tree into maximal downward chains and embeds each chain with an
A* run over (substrate node, chain progress) states, so hops pay
bandwidth and placements pay compute.  Subtrees hanging off a placed
branch node are embedded recursively with the same rule.

A*'s bound is exact for the uncapacitated problem: per chain, the
cheapest cost per unit demand to finish the chain from every state,
computed once by one scipy Dijkstra run from a sink over the reversed
layered graph.  Coefficients and costs are fixed for a run and capacity
only removes moves, so demand times that cost never exceeds the true
remaining cost at any residual (admissible), and it obeys the triangle
inequality along every move (consistent).  A* therefore pops the first
goal state at the cheapest cost, as Dijkstra would, after expanding
fewer states.

The search runs on integer-indexed tables built once per run
(`_ChainSearch`): substrate nodes and arcs are numbered, efficiency
coefficients are read into per-element rows on first use, each
alternative's chains are planned once, and the search keeps its
distances in flat lists indexed by ``m * n + v``.  The same object
holds the run's residual capacity, per node and arc index, and takes
each accepted embedding's loads off it.  Every load and cost is
computed with the same float operations in the same order as a search
over id-keyed dicts would, so results are identical to the bit.

Most searches repeat the last answer for their (chain, start node), so
`_ChainSearch` keeps that answer, with the demand d0 it was found at,
its moves and the moves the search refused for capacity alone.  A later
call at demand d returns it, its cost replayed move by move in the
search's own float order, when (i) every move of the answer still fits
at d and (ii) every refused move is still refused at d.  That answer is
then still a cheapest one: every move's cost and load is linear in
demand, so scaling demand keeps the cost order of whole paths; by (ii)
no move refused at d0 has opened up, and any move the earlier search
never examined lay beyond its goal's key, so no other path can now
undercut the answer.  When d >= d0, (ii) holds by itself: float products
are monotone and the residual only shrinks.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from scipy import sparse
from scipy.sparse.csgraph import dijkstra

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


@dataclass(frozen=True)
class CandidateEmbedding:
    node_map: dict[str, str]
    link_map: dict[tuple[str, str], tuple[tuple[str, str], ...]]
    cost: float
    node_loads: dict[int, float]  # keyed by substrate node index
    arc_loads: dict[int, float]  # keyed by substrate arc index


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
    and per-alternative chain plans, each with its chains' A* bounds
    (one scipy Dijkstra run from a sink per chain), are filled on first
    use and shared by every later search.  The residual capacity starts
    at the network's and shrinks on every :meth:`consume`: ``node_left``
    and ``arc_left`` hold it, ``node_cap`` and ``arc_cap`` the same
    values with ``_EPS`` already added, as the search tests them.

    Beside the residual, ``_answers`` keeps the last answer of every
    (chain, start node index), keyed by the chain's slot (its position
    among the planned chains, times the node count) plus the start
    index.  An entry is (d0, moves, answer, refused): the demand the
    A* search ran at, the answer's moves in order as (caps, index, size
    factor, coefficient, unit cost), the answer (None when no chain
    embedding fit) and the moves refused for capacity alone, as (caps,
    index, size factor, coefficient).  :meth:`embed_chain` returns the
    answer again at demand d when every move's load ``(d * factor) *
    coeff`` still fits its ``node_cap``/``arc_cap`` entry and, if d < d0,
    every refused move's load still does not; the module docstring says
    why that answer is still a cheapest one.  ``chain_searches`` counts
    the A* runs and ``chain_reuses`` the answers returned again.
    """

    def __init__(self, net: SubstrateNetwork, efficiency: EfficiencyMap):
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
        self.efficiency = efficiency
        self.node_left = [n.capacity for n in net.nodes]
        self.arc_left = [net.arc_by_pair[pair].capacity for pair in self.pairs]
        self.node_cap = [c + _EPS for c in self.node_left]
        self.arc_cap = [c + _EPS for c in self.arc_left]
        self._node_rows: dict[str, list[Optional[float]]] = {}
        self._link_rows: dict[tuple[str, str], list[Optional[float]]] = {}
        self._plans: dict[AlternativeTopology, tuple] = {}
        self._slots = 0  # node count times the number of chains planned
        self._answers: dict[int, tuple] = {}
        self.chain_searches = 0
        self.chain_reuses = 0

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
        is (start function, slot, steps, bound): the slot keys its
        answers in ``_answers``, a step is (link, child size, child row,
        link row) and the bound :meth:`remaining_cost`'s table shrunk by
        ``_BOUND_SHRINK``; the terms give the size and row of every
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
                chains.append((start, self._slots, steps, bound))
                self._slots += len(self.ids)
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

        One Dijkstra run from a sink over the reversed layered graph: the
        sink reaches every state of layer k at 0.0, (m + 1, v) reaches
        (m, v) at ``size * coeff * node cost`` and (m, w) reaches (m, u) at
        ``link.size * coeff * arc cost`` for every arc u -> w.  Forbidden
        pairings are no moves.  The sparse matrix would sum a move given
        twice; none is, as each pairs a state with one node or arc and
        ``validate_substrate`` rejects repeated arcs (``DuplicateArc``).
        """
        n, k = len(self.ids), len(steps)
        sink = (k + 1) * n
        moves = [(sink, k * n + v, 0.0) for v in range(n)]  # (from, to, cost)
        for m, (link, size, node_row, link_row) in enumerate(steps):
            base = m * n
            for v, coeff in enumerate(node_row):
                if coeff is not FORBIDDEN:
                    moves.append((base + n + v, base + v, size * coeff * self.node_cost[v]))
            for u, arcs in enumerate(self.out):
                for w, a, arc_cost in arcs:
                    if link_row[a] is not FORBIDDEN:
                        moves.append((base + w, base + u, link.size * link_row[a] * arc_cost))
        heads, tails, costs = zip(*moves)
        graph = sparse.csr_matrix((costs, (heads, tails)), shape=(sink + 1, sink + 1))
        return dijkstra(graph, directed=True, indices=sink)[:sink].tolist()

    def consume(self, node_loads: Mapping[int, float], arc_loads: Mapping[int, float]) -> None:
        """Take an accepted embedding's loads, keyed by node and arc
        index, off the residual capacity (never below 0)."""
        for v, amount in node_loads.items():
            left = self.node_left[v] = max(0.0, self.node_left[v] - amount)
            self.node_cap[v] = left + _EPS
        for a, amount in arc_loads.items():
            left = self.arc_left[a] = max(0.0, self.arc_left[a] - amount)
            self.arc_cap[a] = left + _EPS

    def embed_chain(
        self, slot: int, steps: Sequence[tuple], bound: Sequence[float], start: int, demand: float
    ):
        """Cheapest placement of one chain of functions, starting from the
        fixed substrate position (node index) of the chain's first, already
        placed function.  Returns (placements, paths, cost) or None.

        The last answer for (``slot``, ``start``) is returned again, with
        its cost replayed in the search's float order, when the class
        docstring's reuse rule holds at ``demand``; otherwise
        :meth:`_search` runs and its answer replaces the entry.
        """
        key = slot + start
        entry = self._answers.get(key)
        if entry is not None:
            d0, moves, answer, refused = entry
            # (ii): a move refused at d0 is refused at every d >= d0
            if demand >= d0 or all(demand * f * c > caps[i] for caps, i, f, c in refused):
                if answer is None:
                    self.chain_reuses += 1
                    return None
                # (i), summing the cost as the search's dist[] does
                cost = 0.0
                for caps, i, factor, coeff, unit in moves:
                    load = demand * factor * coeff
                    if load > caps[i]:
                        break
                    cost = cost + load * unit
                else:
                    self.chain_reuses += 1
                    return answer[0], answer[1], cost
        self.chain_searches += 1
        answer, moves, refused = self._search(steps, bound, start, demand)
        self._answers[key] = (demand, moves, answer, refused)
        return answer

    def _search(
        self, steps: Sequence[tuple], bound: Sequence[float], start: int, demand: float
    ):
        """The A* chain search of :meth:`embed_chain`: returns the answer
        ((placements, paths, cost) or None), its moves in order and the
        moves refused for capacity alone, as ``_answers`` keeps them.

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
        refused: list[tuple] = []
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
                t = s + n
                rest = bound[t]
                if rest != inf:
                    load = node_demand * coeff
                    if load > node_cap[v]:
                        refused.append((node_cap, v, steps[m][1], coeff))
                    else:
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
                t = base + w
                rest = bound[t]
                if rest == inf:
                    continue
                if load > arc_cap[a]:
                    refused.append((arc_cap, a, steps[m][0].size, lcoeff))
                    continue
                nd = d + load * arc_cost
                if nd < dist[t] - _EPS:
                    dist[t] = nd
                    prev[t] = s
                    push(heap, (nd + demand * rest, m, w, nd))
        if final < 0:
            return None, (), refused
        # walk predecessors back to the start state to recover placements,
        # paths and the moves, as (caps, index, size, coefficient, unit cost)
        ids = self.ids
        placements: dict[str, str] = {}
        paths: dict[tuple[str, str], list[tuple[str, str]]] = {
            (step[0].parent, step[0].child): [] for step in steps
        }
        path: list[tuple] = []
        s = final
        while prev[s] >= 0:
            p = prev[s]
            pm, pv = divmod(p, n)
            link, fs, frow, lrow = steps[pm]
            if s - p == n:  # same node, one more function placed
                placements[link.child] = ids[pv]
                path.append((node_cap, pv, fs, frow[pv], node_cost[pv]))
            else:
                w = s - pm * n
                paths[(link.parent, link.child)].insert(0, (ids[pv], ids[w]))
                a, arc_cost = next((a, c) for x, a, c in out[pv] if x == w)
                path.append((arc_cap, a, link.size, lrow[a], arc_cost))
            s = p
        path.reverse()
        answer = placements, {pair: tuple(p) for pair, p in paths.items()}, dist[final]
        return answer, path, refused

    def embed(
        self, alt: AlternativeTopology, origin: str, demand: float
    ) -> Optional[CandidateEmbedding]:
        """Minimal-cost embedding of one alternative rooted at ``origin``
        against this search's residual capacities, or None if the search
        finds no feasible placement.

        Chains are embedded greedily in preorder; the assembled candidate
        is then rechecked cumulatively (several functions sharing one node
        must fit together), so a returned candidate is always safe to
        accept.
        """
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
        for start_func, slot, steps, bound in chains:
            got = self.embed_chain(slot, steps, bound, node_index[node_map[start_func]], demand)
            if got is None:
                return None
            placements, paths, chain_cost = got
            node_map.update(placements)
            link_map.update(paths)
            cost += chain_cost
        # cumulative recheck: per-move checks were against the untouched
        # residual, so co-located functions / shared arcs need a joint pass
        node_loads: dict[int, float] = {}
        arc_loads: dict[int, float] = {}
        for i, sid in node_map.items():
            size, row = node_terms[i]
            v = node_index[sid]
            load = demand * size * row[v]
            if load:
                node_loads[v] = node_loads.get(v, 0.0) + load
        arc_index = self.arc_index
        for pair, size, row in link_terms:
            for arc in link_map[pair]:
                a = arc_index[arc]
                load = demand * size * row[a]
                if load:
                    arc_loads[a] = arc_loads.get(a, 0.0) + load
        for v, load in node_loads.items():
            if load > self.node_cap[v]:
                return None
        for a, load in arc_loads.items():
            if load > self.arc_cap[a]:
                return None
        return CandidateEmbedding(node_map, link_map, cost, node_loads, arc_loads)


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
    # chain searches run, and chain answers reused without one
    chain_searches: int = 0
    chain_reuses: int = 0


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
    search = _ChainSearch(net, efficiency)
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
    report.chain_searches = search.chain_searches
    report.chain_reuses = search.chain_reuses
    report.runtime_s = time.perf_counter() - t0
    return [e for e in results if e is not None], report
