"""Sequential greedy embedding: each request gets the cheapest feasible
alternative against residual capacity, or is rejected.

The per-alternative search (`_ChainSearch.embed`) splits the service
tree into maximal downward chains and embeds each chain with an A* run
over (substrate node, chain progress) states, so hops pay bandwidth and
placements pay compute.  A chain starts at the root or at the branch
node an earlier chain ended on.

A*'s bound is exact for the uncapacitated problem: per chain, the
cheapest cost per unit demand to finish the chain from every state,
computed once by column generation's pricing DP at zero duals over
the chain's links (`formulation._Pricing.distances`).  Coefficients
and costs are fixed for a run and capacity only removes moves, so
demand times that cost never exceeds the true remaining cost at any
residual (admissible), and it obeys the triangle inequality along every
move (consistent).  A*
therefore pops the first goal state at the cheapest cost, as Dijkstra
would, after expanding fewer states.

The search runs on integer-indexed tables built once per run
(`_ChainSearch`): substrate nodes and arcs are numbered, efficiency
coefficients are read from the pricing's per-element rows, each
alternative's chains are planned once, and the search keeps its
distances in flat lists indexed by ``m * n + v``.  The same object
holds the run's residual capacity, per node and arc index, and takes
each accepted embedding's loads off it.  Every move's load and cost
is computed with the same float operations as a search over id-keyed
dicts would, so results are identical to the bit.

A chain's answer is its list of moves (placements and hops) on node and
arc indices.  A candidate's cost is summed from those moves.  The
cheapest candidate (the lowest alternative index among equal costs) is
tried first; only when the cumulative recheck refuses it are the others
sorted and tried in turn.  What the recheck needs is built once per
(alternative, origin, chain answers), keyed by the answers' identity, and
shared by every request embedded with the same answers: an accept plan
of each loaded node and arc with its (size factor, coefficient) terms,
and the id-keyed node and link maps, read-only, of the
:class:`IntegralEmbedding` an accepted request gets.  Accepting a
request sums each element's terms at its demand, checks every sum
against the residual and only then takes them off it.

Most searches repeat the last answer for their (chain, start node), so
`_ChainSearch` keeps that answer's moves, with the demand d0 it was
found at and the moves the search refused for capacity alone.  A later
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
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import rng as _rng
from .formulation import _Pricing
from .model import (
    FORBIDDEN,
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateNetwork,
)

_EPS = 1e-9
# Scale of the A* bound table: float sums taken in another order may come
# out a few ulps above the search's own, and a bound must never do that.
_BOUND_SHRINK = 1.0 - 1e-9


class _ChainSearch:
    """Integer-indexed tables of one (network, efficiency) pair, plus the
    residual capacities the chain search tests moves against.

    Substrate nodes and arcs are numbered as :class:`_Pricing` numbers
    them, and the search reads that pricing's coefficient rows (one
    value per substrate node or arc, keyed by virtual node id or virtual
    link pair, as :class:`EfficiencyMap` is).  Per-alternative chain
    plans, each with its chains' A* bounds (the pricing's DP at zero
    duals over the chain's links), are filled on first use and shared
    by every later search.  The residual capacity starts at the
    network's and shrinks on every :meth:`take`: ``node_left`` and
    ``arc_left`` hold it, ``node_cap`` and ``arc_cap`` the same values
    with ``_EPS`` already added, as the search tests them.

    A chain's answer is its moves in order, each (caps, index, size
    factor, coefficient, unit cost, link): a placement of ``link``'s
    child on node ``index`` when ``caps`` is ``node_cap``, a hop of
    ``link`` over arc ``index`` when it is ``arc_cap``, loading that
    element with ``(demand * factor) * coeff`` at ``unit`` cost each.

    Beside the residual, ``_answers`` keeps the last answer of every
    (chain, start node index), keyed by the chain's slot (its position
    among the planned chains, times the node count) plus the start
    index.  An entry is (d0, moves, refused): the demand the A* search
    ran at, the answer's moves (None when no chain embedding fit) and
    the moves refused for capacity alone, as (caps, index, size factor,
    coefficient).  :meth:`embed_chain` returns the answer again at
    demand d when every move's load still fits its ``node_cap``/
    ``arc_cap`` entry and, if d < d0, every refused move's load still
    does not; the module docstring says why that answer is still a
    cheapest one.  ``chain_searches`` counts the A* runs and
    ``chain_reuses`` the answers returned again.

    ``_accepts`` keeps, per candidate :meth:`take` has seen, keyed by
    (alternative, origin index, *ids of its chain answers*), the entry
    (answers, node map, link map, accept plan).  The entry holds the
    answers, so no id in a live key is reused.  The maps are id-keyed
    and read-only, as :class:`IntegralEmbedding` keeps them.  The plan
    has one (left, caps, index, terms) per loaded node and arc: its
    residual lists and its (size factor, coefficient) terms, the root's
    first and then each move's in order, with zero terms left out.
    """

    def __init__(self, net: SubstrateNetwork, efficiency: EfficiencyMap):
        self.pricing = pricing = _Pricing(net, efficiency)
        self.ids, self.node_index, self.pairs = pricing.ids, pricing.index, pricing.pairs
        self.node_cost = [n.cost for n in net.nodes]
        self.arc_index = {pair: k for k, pair in enumerate(self.pairs)}
        # out-arcs as (destination index, arc index, cost)
        self.out = [
            [
                (self.node_index[a.dst], self.arc_index[(a.src, a.dst)], a.cost)
                for a in net.out_arcs[v]
            ]
            for v in self.ids
        ]
        self.node_left = [n.capacity for n in net.nodes]
        self.arc_left = [a.capacity for a in net.arcs]
        self.node_cap = [c + _EPS for c in self.node_left]
        self.arc_cap = [c + _EPS for c in self.arc_left]
        self._plans: dict[AlternativeTopology, tuple] = {}
        self._slots = 0  # node count times the number of chains planned
        self._answers: dict[int, tuple] = {}
        self._accepts: dict[tuple, tuple] = {}
        self.chain_searches = 0
        self.chain_reuses = 0

    def plan(self, alt: AlternativeTopology) -> tuple:
        """(root row, root size, chains) of ``alt``.  The chains split
        ``alt.preorder`` into maximal downward chains: a link extends the
        last chain when its parent is that chain's end and has exactly
        one child.  A chain is (start, slot, steps, bound): ``start`` is 0
        when it starts at the root and j when at the end of the j-th
        chain, the slot keys its answers in ``_answers``, a step is (link,
        child size, child row, link row) and the bound the chain's
        uncapacitated finishing cost per unit of demand from every state
        ``m * n + v`` (+inf where no sequence of allowed moves finishes
        it), shrunk by ``_BOUND_SHRINK``: the pricing's distances at zero
        duals of links m = 0 .. k - 1 from node v, then zeros for the
        last layer."""
        plan = self._plans.get(alt)
        if plan is None:
            pricing, n = self.pricing, len(self.ids)
            split: list[list[tuple]] = []  # the pricing plan's links, per chain
            for entry in pricing.plan(alt)[1]:
                link = entry[0]
                extends = split and split[-1][-1][0].child == link.parent
                if extends and len(alt.children[link.parent]) == 1:
                    split[-1].append(entry)
                else:
                    split.append([entry])
            ends = {chain[-1][0].child: j for j, chain in enumerate(split, 1)}
            chains = []
            for chain in split:
                steps = [
                    (
                        link,
                        alt.node_by_id[link.child].size,
                        pricing.node_row(link.child),
                        pricing.link_row((link.parent, link.child)),
                    )
                    for link, *_ in chain
                ]
                _, runs = pricing.distances(alt, chain, pricing.node_cost, pricing.arc_cost)
                table = np.concatenate([*(dist for dist, _ in runs), np.zeros(n)])
                bound = (table * _BOUND_SHRINK).tolist()
                chains.append((ends.get(chain[0][0].parent, 0), self._slots, steps, bound))
                self._slots += n
            root = (pricing.node_row(alt.root), alt.node_by_id[alt.root].size)
            plan = self._plans[alt] = (*root, chains)
        return plan

    def embed_chain(
        self, slot: int, steps: Sequence[tuple], bound: Sequence[float], start: int, demand: float
    ):
        """Cheapest placement of one chain of functions, starting from the
        fixed substrate position (node index) of the chain's first, already
        placed function.  Returns (moves, cost) or None.

        The last answer for (``slot``, ``start``) is returned again when
        the class docstring's reuse rule holds at ``demand``; otherwise
        :meth:`_search` runs and its answer replaces the entry.  Either
        way the answer's cost is replayed move by move in the search's
        float order, which gives a fresh answer's ``dist[]`` to the bit.
        """
        key = slot + start
        entry = self._answers.get(key)
        # (ii): a move refused at d0 is refused at every d >= d0
        reused = entry is not None and (
            demand >= entry[0] or all(demand * f * c > caps[i] for caps, i, f, c in entry[2])
        )
        while True:
            if not reused:
                self.chain_searches += 1
                entry = self._answers[key] = (demand, *self._search(steps, bound, start, demand))
            moves, cost = entry[1], 0.0
            for caps, i, factor, coeff, unit, _ in moves or ():  # (i), cost summed as dist[] is
                load = demand * factor * coeff
                if reused and load > caps[i]:  # a fresh answer fits by construction
                    reused = False
                    break
                cost = cost + load * unit
            else:
                self.chain_reuses += reused
                return None if moves is None else (moves, cost)

    def _search(
        self, steps: Sequence[tuple], bound: Sequence[float], start: int, demand: float
    ):
        """The A* chain search of :meth:`embed_chain`: returns the answer's
        moves in order (None when nothing fits) and the moves refused for
        capacity alone, as ``_answers`` keeps them.

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
            return None, refused
        # walk predecessors back to the start state to recover the moves
        path: list[tuple] = []
        s = final
        while prev[s] >= 0:
            p = prev[s]
            pm, pv = divmod(p, n)
            link, fs, frow, lrow = steps[pm]
            if s - p == n:  # same node, one more function placed
                path.append((node_cap, pv, fs, frow[pv], node_cost[pv], link))
            else:
                w = s - pm * n
                a, arc_cost = next((a, c) for x, a, c in out[pv] if x == w)
                path.append((arc_cap, a, link.size, lrow[a], arc_cost, link))
            s = p
        path.reverse()
        return path, refused

    def embed(self, alt: AlternativeTopology, origin: int, demand: float):
        """Minimal-cost embedding of one alternative rooted at node index
        ``origin`` against this search's residual capacities: (cost, its
        chains' answers in turn, each a list of moves), or None if the
        search finds no feasible placement.

        Chains are embedded greedily in preorder, each move checked
        against the residual alone; :meth:`take` rechecks the candidate
        cumulatively before it is accepted.
        """
        root_row, _, chains = self.plan(alt)
        if root_row[origin] is FORBIDDEN:
            return None
        answers: list[list[tuple]] = []
        placed = [origin]  # the root's node, then each chain's last function's
        cost = 0.0
        for start, slot, steps, bound in chains:
            got = self.embed_chain(slot, steps, bound, placed[start], demand)
            if got is None:
                return None
            moves, chain_cost = got
            answers.append(moves)
            placed.append(moves[-1][1])
            cost += chain_cost
        return cost, answers

    def take(self, alt: AlternativeTopology, origin: int, demand: float, answers: Sequence[list]):
        """Accept :meth:`embed`'s candidate of ``alt`` rooted at node index
        ``origin`` if it fits: sum each loaded element's terms from the
        candidate's accept plan at ``demand``, check every sum against the
        residual (per-move checks were against the untouched residual, so
        co-located functions and shared arcs need a joint pass) and, only
        if every one fits, take them off it (never below 0).  Returns the
        candidate's (node map, link map), or None when it does not fit."""
        key = (alt, origin, *map(id, answers))
        entry = self._accepts.get(key)
        if entry is None:
            entry = self._accepts[key] = self._accept_plan(alt, origin, answers)
        plan = entry[3]
        loads = []
        for _, caps, i, terms in plan:
            load = 0.0
            for factor, coeff in terms:
                load = load + demand * factor * coeff
            if load > caps[i]:
                return None
            loads.append(load)
        for (left, caps, i, _), load in zip(plan, loads):
            rest = left[i] - load
            if not rest > 0.0:  # max(0.0, rest) without the call
                rest = 0.0
            left[i] = rest
            caps[i] = rest + _EPS
        return entry[1], entry[2]

    def _accept_plan(self, alt: AlternativeTopology, origin: int, answers: Sequence[list]):
        """The ``_accepts`` entry of a candidate :meth:`take` has not seen."""
        root_row, root_size, _ = self.plan(alt)
        ids, pairs, node_cap = self.ids, self.pairs, self.node_cap
        node_map = {alt.root: ids[origin]}
        paths = {(link.parent, link.child): [] for link in alt.preorder}
        node_terms: dict[int, list] = {}
        arc_terms: dict[int, list] = {}
        if root_size and root_row[origin]:
            node_terms[origin] = [(root_size, root_row[origin])]
        for moves in answers:
            for caps, i, factor, coeff, _, link in moves:
                if caps is node_cap:
                    node_map[link.child] = ids[i]
                    terms = node_terms
                else:
                    paths[(link.parent, link.child)].append(pairs[i])
                    terms = arc_terms
                if factor and coeff:
                    terms.setdefault(i, []).append((factor, coeff))
        plan = [(self.node_left, node_cap, i, tuple(t)) for i, t in node_terms.items()]
        plan += [(self.arc_left, self.arc_cap, i, tuple(t)) for i, t in arc_terms.items()]
        link_map = {pair: tuple(path) for pair, path in paths.items()}
        return answers, MappingProxyType(node_map), MappingProxyType(link_map), tuple(plan)


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
    report = GreedyReport(order=tuple(order.tolist()))
    embed, take = search.embed, search.take
    for pos in report.order:
        req = requests[pos]
        demand = req.demand
        origin = search.node_index.get(req.origin)
        candidates = []
        best = maps = None
        for alt in ranked[req.app] if origin is not None else ():
            got = embed(alt, origin, demand)
            if got is not None:
                candidates.append((got[0], alt, got[1]))
                if best is None or got[0] < best[0]:  # equal costs keep the lower index
                    best = candidates[-1]
        if best is not None:
            maps = take(best[1], origin, demand, best[2])
            if maps is None:
                # the rest cheapest first; a stable sort puts best first
                for cand in sorted(candidates, key=lambda cand: cand[0])[1:]:
                    maps = take(cand[1], origin, demand, cand[2])
                    if maps is not None:
                        best = cand
                        break
        if maps is not None:
            results[pos] = IntegralEmbedding(req, best[1].index, *maps)
            report.accepted += 1
            report.embed_cost += best[0]
        else:
            results[pos] = IntegralEmbedding.reject(req)
            report.rejected += 1
            report.rejected_demand += req.demand
    report.rejection_penalty = psi * report.rejected_demand
    report.objective = report.embed_cost + report.rejection_penalty
    report.chain_searches = search.chain_searches
    report.chain_reuses = search.chain_reuses
    report.runtime_s = time.perf_counter() - t0
    return [e for e in results if e is not None], report
