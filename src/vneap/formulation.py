"""Builds the embedding-with-alternatives MILP, solves and times its LP
relaxation over aggregated requests (:func:`solve_relaxation`), and
holds the transforms between aggregate and per-request fractional
solutions.

Model recap
-----------
For each demand owner (a request, or an aggregate of all requests that
share origin and application) and each alternative topology ``t`` there
are binary/fractional placement variables:

* ``x[t, i, v]``  -- virtual node ``i`` sits on substrate node ``v``;
* ``x[t, ij, vw]`` -- virtual link ``(i, j)`` crosses substrate arc
  ``(v, w)``.

The root anchor may only sit at the owner's origin, so a single root
variable per alternative is created there (placement anywhere else is
eliminated instead of constrained to zero).  Pairings marked forbidden
in the efficiency map are likewise never instantiated.

Constraints per owner:

* at most one alternative is selected
  (``sum_t x[t, root, origin] <= 1``; slack means rejection);
* flow conservation per virtual link and substrate node: the child's
  placement equals the parent's placement plus net arc inflow, which
  forces every chosen link onto a contiguous arc path;
* substrate node and arc loads stay within capacity, where the load of
  a placement is ``demand * element_size * efficiency``.

The objective charges every unit of induced load its element's cost and
adds a rejection penalty ``psi`` per unit of unserved demand.

This arc-flow program is the exact model (:func:`build_milp`).  The
aggregate relaxation (:func:`build_relaxed_aggregate_lp`) is its
Dantzig-Wolfe master instead: one column per whole embedding of an
aggregate, generated by pricing cheapest embeddings under the capacity
duals, and projected back onto the arc-flow variables
(:func:`fractional_solution`).  Its solver prices unserved demand a
hair above ``psi`` (:data:`REJECTION_MARGIN`), so it serves whatever
serving costs no more than rejecting; every reported cost is priced at
``psi``.  The pricing routine (:class:`_Pricing`) is the package's one
computation of uncapacitated cheapest embeddings: at zero duals over
one downward chain of a topology it also gives greedy's A* bound.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .lp import _TOL, LinearProgram, Solution, row_matrix, solve_lp
from .model import (
    FORBIDDEN,
    AlternativeTopology,
    Application,
    EfficiencyMap,
    Request,
    SubstrateNetwork,
    EDGE,
    sum_in_order,
)

log = logging.getLogger("vneap.formulation")

# The aggregate relaxation's solver prices a unit of rejected demand at
# psi * (1 + REJECTION_MARGIN).  psi is exactly the priciest
# collocation's cost, so at psi itself whole faces of optima trade served
# for rejected demand at equal cost, and the rejected demand reported
# would be whichever vertex HiGHS returns.  The margin moves the
# answer's psi-priced cost by at most REJECTION_MARGIN * psi times the
# rejected demand it saves.  It has to lift a tie's reduced costs, about
# REJECTION_MARGIN * psi * an aggregate's demand, clear of HiGHS's
# absolute 1e-7 dual tolerance: at 1e-9, with psi 9.45, dual and primal
# simplex with presolve on or off returned optima rejecting 712.7 to
# 755.5 units of a saturated arnes_si/cctv_two instance; from 1e-8 up
# all four agreed.
REJECTION_MARGIN = 1e-7
# A generated column enters the aggregate relaxation's master when its
# reduced cost is below -_PRICING_TOL * demand * psi: a thousandth of
# HiGHS's tolerance, relative to the column's own scale.  That is far
# below the REJECTION_MARGIN * demand * psi by which the margin lifts
# serving at psi over rejecting, and far above the float noise of a
# column's priced cost.
_PRICING_TOL = 1e-3 * _TOL


class VariableKey(NamedTuple):
    """Identifies one placement variable.

    ``kind`` is ``("n", virtual_node, substrate_node)`` for node
    placements, ``("l", parent, child, arc_src, arc_dst)`` for link
    placements and ``("e", *kinds)`` for a whole embedding, the
    placements it makes.  A plain tuple, so rounding's many lookups hash and
    compare keys in C.
    """

    owner: str
    alt: int
    kind: tuple


@dataclass(frozen=True)
class AggregatedRequest:
    """All requests sharing (origin, application), merged.  ``members``
    are indices into the original request list; ``demand`` is the sum of
    member demands."""

    owner: str
    origin: str
    app: str
    demand: float
    members: tuple[int, ...]


@dataclass
class FractionalSolution:
    """A solved fractional embedding over aggregates: variable values,
    the solver objective, and per-aggregate rejected demand mass."""

    values: dict[VariableKey, float]
    objective: float
    rejection_mass: dict[str, float]  # owner -> unserved demand (demand units)
    aggregates: tuple[AggregatedRequest, ...] = field(default_factory=tuple)

    @property
    def total_rejected_demand(self) -> float:
        return sum_in_order(self.rejection_mass.values())


def request_owner(index: int) -> str:
    return f"r{index}"


def _owner_rows(
    net: SubstrateNetwork,
    catalog: Mapping[str, Application],
    eff: EfficiencyMap,
    owners: Sequence[tuple[str, str, str, float]],
    psi: float,
    margin: float = 0.0,
) -> LinearProgram:
    """The arc-flow program over ``owners``, which holds ``(owner_id,
    origin, app_id, demand)`` tuples: the per-request MILP's continuous
    core, with each request's demand, and, over aggregates with their
    total demand and ``margin`` set to :data:`REJECTION_MARGIN`, the
    aggregate relaxation whose optimum column generation reproduces.  A
    nonzero ``margin`` sets a solver objective that prices rejected
    demand at ``psi * (1 + margin)``."""
    if psi < 0:
        raise ValueError(f"rejection penalty must be nonnegative, got {psi}")
    keys: list[VariableKey] = []
    objective: list[float] = []
    roots: list[int] = []  # every owner's root columns
    obj_const = 0.0

    def new_var(key: VariableKey, cost: float) -> int:
        idx = len(keys)
        keys.append(key)
        objective.append(cost)
        return idx

    ub, eq = [], []  # the <= rows' and the == rows' entries; every == row is = 0
    # capacity accumulators, filled while variables are created
    node_cap_coeffs: dict[str, list[tuple[int, float]]] = {n.id: [] for n in net.nodes}
    arc_cap_coeffs: dict[tuple[str, str], list[tuple[int, float]]] = {
        (a.src, a.dst): [] for a in net.arcs
    }

    for owner, origin, app_id, demand in owners:
        if app_id not in catalog:
            raise KeyError(f"unknown application {app_id!r} for owner {owner}")
        if origin not in net.node_by_id:
            raise KeyError(f"unknown origin node {origin!r} for owner {owner}")
        app = catalog[app_id]
        obj_const += demand * psi  # full penalty, bought back per served unit
        root_vars: list[int] = []
        for alt in app.alternatives:
            if eff.node(alt.root, origin) is FORBIDDEN:
                continue  # this alternative can never anchor here
            # flow conservation per virtual link and substrate node: the
            # child's placement equals the parent's placement plus net arc
            # inflow.  Filled as columns are created, so each row's entries
            # arrive in ascending column order.
            flow = {vl: {sn.id: [] for sn in net.nodes} for vl in alt.links}
            # root: only at the origin (placement elsewhere is eliminated)
            root_key = VariableKey(owner, alt.index, ("n", alt.root, origin))
            root_idx = new_var(root_key, -demand * psi)
            root_vars.append(root_idx)
            for vl in alt.children.get(alt.root, ()):
                flow[vl][origin].append((root_idx, -1.0))
            # non-root virtual nodes: one variable per allowed substrate node
            for vn in alt.nodes:
                if vn.id == alt.root:
                    continue
                as_child = [flow[vl] for vl in alt.links if vl.child == vn.id]
                as_parent = [flow[vl] for vl in alt.children.get(vn.id, ())]
                for sn in net.nodes:
                    coeff = eff.node(vn.id, sn.id)
                    if coeff is FORBIDDEN:
                        continue
                    load = demand * vn.size * coeff
                    idx = new_var(
                        VariableKey(owner, alt.index, ("n", vn.id, sn.id)),
                        load * sn.cost,
                    )
                    for rows_of in as_child:
                        rows_of[sn.id].append((idx, 1.0))
                    for rows_of in as_parent:
                        rows_of[sn.id].append((idx, -1.0))
                    if load:
                        node_cap_coeffs[sn.id].append((idx, load))
            # link variables: one per allowed substrate arc
            for vl in alt.links:
                rows_of = flow[vl]
                for arc in net.arcs:
                    coeff = eff.link((vl.parent, vl.child), (arc.src, arc.dst))
                    if coeff is FORBIDDEN:
                        continue
                    load = demand * vl.size * coeff
                    idx = new_var(
                        VariableKey(
                            owner, alt.index, ("l", vl.parent, vl.child, arc.src, arc.dst)
                        ),
                        load * arc.cost,
                    )
                    if arc.src != arc.dst:  # a loop leaves its node's balance as it is
                        rows_of[arc.src].append((idx, 1.0))
                        rows_of[arc.dst].append((idx, -1.0))
                    if load:
                        arc_cap_coeffs[(arc.src, arc.dst)].append((idx, load))
            for by_node in flow.values():
                eq += [coeffs for coeffs in by_node.values() if coeffs]
        roots += root_vars
        if root_vars:
            ub.append([(i, 1.0) for i in root_vars])
    # capacity rows last, kept even when no variable touches them
    rhs = [1.0] * len(ub) + [e.capacity for e in (*net.nodes, *net.arcs)]
    ub += [node_cap_coeffs[sn.id] for sn in net.nodes]
    ub += [arc_cap_coeffs[(a.src, a.dst)] for a in net.arcs]
    n = len(keys)
    costs = np.asarray(objective, dtype=float)
    solver_costs = None
    if margin:
        # a root column's cost -demand * psi buys back its penalty
        solver_costs = costs.copy()
        solver_costs[roots] *= 1.0 + margin
    return LinearProgram(
        tuple(keys),
        np.zeros(n),
        np.ones(n),
        costs,
        obj_const,
        row_matrix(ub, n),
        np.asarray(rhs, dtype=float),
        row_matrix(eq, n),
        np.zeros(len(eq)),
        frozenset(),
        solver_costs,
    )


def build_milp(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
) -> LinearProgram:
    """Exact binary program over individual requests."""
    owners = [
        (request_owner(k), r.origin, r.app, r.demand) for k, r in enumerate(requests)
    ]
    lp = _owner_rows(net, apps, efficiency, owners, psi)
    return replace(lp, binary=frozenset(range(lp.n_vars)))


def aggregate_requests(requests: Sequence[Request]) -> list[AggregatedRequest]:
    """Merge requests by (origin, application).  Aggregates are ordered
    by (origin, application) so the result is independent of request
    order."""
    groups: dict[tuple[str, str], list[int]] = {}
    for k, r in enumerate(requests):
        groups.setdefault((r.origin, r.app), []).append(k)
    out = []
    for i, (origin, app) in enumerate(sorted(groups)):
        members = groups[(origin, app)]
        out.append(
            AggregatedRequest(
                owner=f"g{i}",
                origin=origin,
                app=app,
                demand=sum_in_order(requests[k].demand for k in members),
                members=tuple(members),
            )
        )
    return out


class _Pricing:
    """Cheapest embeddings on one network, every element priced at its
    cost plus a capacity dual per unit of load, ignoring capacity: the
    one routine that computes them, for column generation's pricing
    (:meth:`distances` over the whole preorder under the duals) and for
    greedy's A* bound (over one downward chain at zero duals).

    Substrate nodes are numbered as in ``net.nodes`` and arcs as in
    ``net.arcs``; element ``e`` is node ``e`` below ``n`` and arc
    ``e - n`` above.  A virtual node's or virtual link's coefficient row
    (one efficiency per substrate node or arc, FORBIDDEN kept) is read
    on first use (:meth:`node_row`, :meth:`link_row`).  An alternative's
    plan is built on first use: per virtual node its load per unit of
    demand on each substrate node (``size * coeff``) and which nodes it
    may use and, per virtual link in preorder, its load per unit of
    demand on each arc, the arcs it may cross and the edges of its
    graph.  That graph has the substrate nodes plus a source, state
    ``n``: the source reaches node ``w`` at the price of the link's
    child subtree with the child on ``w``, and arc (u, w) is the edge
    w -> u at the hop's price.  One Dijkstra run from the source gives,
    at every node, the cheapest way to carry the link from there and
    embed the subtree below it.
    """

    def __init__(self, net: SubstrateNetwork, efficiency: EfficiencyMap):
        self.efficiency = efficiency
        self.ids = [sn.id for sn in net.nodes]
        self.index = index = {v: i for i, v in enumerate(self.ids)}
        self.pairs = [(a.src, a.dst) for a in net.arcs]
        self.arc_src = np.array([index[u] for u, _ in self.pairs], dtype=np.int64)
        self.arc_dst = np.array([index[w] for _, w in self.pairs], dtype=np.int64)
        self.arc_at = {(index[u], index[w]): i for i, (u, w) in enumerate(self.pairs)}
        self.node_cost = np.array([sn.cost for sn in net.nodes], dtype=float)
        self.arc_cost = np.array([a.cost for a in net.arcs], dtype=float)
        self._node_rows: dict[str, list] = {}
        self._link_rows: dict[tuple[str, str], list] = {}
        self._plans: dict[AlternativeTopology, tuple] = {}

    def node_row(self, func: str) -> list:
        row = self._node_rows.get(func)
        if row is None:
            row = self._node_rows[func] = [self.efficiency.node(func, v) for v in self.ids]
        return row

    def link_row(self, pair: tuple[str, str]) -> list:
        row = self._link_rows.get(pair)
        if row is None:
            row = self._link_rows[pair] = [self.efficiency.link(pair, arc) for arc in self.pairs]
        return row

    def plan(self, alt: AlternativeTopology) -> tuple:
        plan = self._plans.get(alt)
        if plan is None:
            n = len(self.ids)
            nodes = {}
            for vn in alt.nodes:
                coeffs = self.node_row(vn.id)
                allowed = np.array([c is not FORBIDDEN for c in coeffs])
                nodes[vn.id] = (allowed, vn.size * np.array([c or 0.0 for c in coeffs]))
            links = []
            for vl in alt.preorder:
                coeffs = self.link_row((vl.parent, vl.child))
                arcs = np.flatnonzero([c is not FORBIDDEN for c in coeffs])
                unit = vl.size * np.array([c or 0.0 for c in coeffs], dtype=float)
                heads = np.concatenate([np.full(n, n), self.arc_dst[arcs]])
                tails = np.concatenate([np.arange(n), self.arc_src[arcs]])
                # stored by row, then column, scipy's canonical layout:
                # Dijkstra breaks ties by it, and the generated columns
                # follow the ties.  Entry i holds edge ``edge[i]``, so a
                # pass only writes the prices into ``data``
                edge = np.lexsort((tails, heads))
                indptr = np.zeros(n + 2, dtype=np.int32)
                np.cumsum(np.bincount(heads, minlength=n + 1), out=indptr[1:])
                csr = (np.zeros(len(edge)), tails[edge].astype(np.int32), indptr)
                graph = sparse.csr_matrix(csr, shape=(n + 1, n + 1))
                links.append((vl, arcs, unit, graph, edge))
            plan = self._plans[alt] = (nodes, links)
        return plan

    def distances(
        self,
        alt: AlternativeTopology,
        links: Sequence[tuple],
        node_price: np.ndarray,
        arc_price: np.ndarray,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The tree DP over ``links``, a run of ``alt``'s plan links in
        preorder (one downward chain, or all of them), children before
        parents: per link, the price per unit of demand, from each
        substrate node, of carrying the link from there and embedding its
        child and every link of the run below it (+inf where nothing
        does), with the Dijkstra predecessors that embedding follows.
        Also returns, per substrate node, the price with the root there
        of the run's links that hang from the root and all below them,
        the root's own placement free (zeros when no link of the run
        hangs from it).  ``node_price`` and ``arc_price`` are each
        element's price per unit of load; one shortest-path run per
        link."""
        nodes = self.plan(alt)[0]
        n = len(self.ids)
        below = {f: np.where(ok, unit * node_price, math.inf) for f, (ok, unit) in nodes.items()}
        below[alt.root] = np.zeros(n)
        out = []
        for vl, arcs, unit, graph, edge in reversed(links):
            # an explicit 0.0 stays an edge of a CSR matrix, so zero-priced
            # moves (a zero-size function or link, a free arc) are kept
            graph.data = np.concatenate([below[vl.child], unit[arcs] * arc_price[arcs]])[edge]
            dist, pred = dijkstra(graph, indices=n, return_predecessors=True)
            below[vl.parent] = below[vl.parent] + dist[:n]
            out.append((dist[:n], pred))
        return below[alt.root], out[::-1]

    def embedding(
        self, alt: AlternativeTopology, runs: list[tuple], origin: int
    ) -> tuple[tuple, list[tuple[int, float]]]:
        """The embedding that ``runs``, :meth:`distances` over ``alt``'s
        whole preorder, priced with the root on node index ``origin``:
        its arc-flow kinds (the root's placement, then per virtual link
        in preorder its hops in path order and its child's placement),
        and per kind after the root its (element, load per unit of
        demand)."""
        nodes, links = self.plan(alt)
        ids, n = self.ids, len(self.ids)
        at = {alt.root: origin}
        kinds: list[tuple] = [("n", alt.root, ids[origin])]
        loads = []
        for (vl, _, unit, _, _), (_, pred) in zip(links, runs):
            v = at[vl.parent]
            w = int(pred[v])
            while w != n:  # the source: the child sits on v
                arc = self.arc_at[(v, w)]
                kinds.append(("l", vl.parent, vl.child, ids[v], ids[w]))
                loads.append((n + arc, float(unit[arc])))
                v, w = w, int(pred[w])
            at[vl.child] = v
            kinds.append(("n", vl.child, ids[v]))
            loads.append((v, float(nodes[vl.child][1][v])))
        return tuple(kinds), loads


def build_relaxed_aggregate_lp(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    aggregates: Sequence[AggregatedRequest],
    psi: float,
) -> LinearProgram:
    """Continuous relaxation over aggregated demand, built by column
    generation over whole embeddings; its size depends on the number of
    distinct (origin, application) pairs, not on the number of
    requests.

    The master has one column per generated embedding of an (aggregate,
    alternative): lambda in [0, 1], the share of the aggregate's demand
    that embedding serves, keyed ``VariableKey(owner, alt, ("e",
    *kinds))`` with the arc-flow kinds of its elements.  It costs
    ``demand * unit_cost - demand * psi``; its solver objective prices
    rejected demand at ``psi * (1 + REJECTION_MARGIN)``.  The rows are
    one ``sum lambda <= 1`` per aggregate, in aggregate order, then the
    substrate node and arc capacities, loaded ``demand * size * coeff``
    per element.

    Each pass prices every (aggregate, alternative) by its cheapest
    embedding with every element costed at its cost plus its capacity
    row's dual (:class:`_Pricing`), and adds that embedding when its
    reduced cost is below ``-_PRICING_TOL * demand * psi`` and it is not
    in the master yet.  The first pass, at zero duals, seeds every pair
    whose cheapest embedding costs at most ``psi * (1 +
    REJECTION_MARGIN)`` per unit of demand, less that tolerance.  The
    master is solved after every pass that adds a column, and the loop
    stops at the first pass that adds none.  The arc-flow program of a
    tree request decomposes into whole embeddings, so the master's
    optimum is that of the arc-flow program :func:`_owner_rows` builds."""
    return _column_generation(net, apps, efficiency, aggregates, psi)[0]


def _column_generation(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    aggregates: Sequence[AggregatedRequest],
    psi: float,
) -> tuple[LinearProgram, Solution, tuple[float, float], int, int]:
    """:func:`build_relaxed_aggregate_lp`'s loop: the final master, its
    solution, the ``time.perf_counter`` and ``time.process_time``
    readings taken as that solve began, the number of master solves and
    the HiGHS iterations summed over them.  The last round's solution is
    the final master's, so a caller that needs it need not solve the
    master again."""
    if psi < 0:
        raise ValueError(f"rejection penalty must be nonnegative, got {psi}")
    by_app: dict[str, list[tuple[int, AggregatedRequest]]] = {}
    for i, g in enumerate(aggregates):
        if g.app not in apps:
            raise KeyError(f"unknown application {g.app!r} for owner {g.owner}")
        if g.origin not in net.node_by_id:
            raise KeyError(f"unknown origin node {g.origin!r} for owner {g.owner}")
        by_app.setdefault(g.app, []).append((i, g))
    pricing = _Pricing(net, efficiency)
    node_cost, arc_cost = pricing.node_cost, pricing.arc_cost
    element_cost = [*node_cost.tolist(), *arc_cost.tolist()]
    # the master's rows: one per aggregate, then one per element
    first = len(aggregates)
    columns: dict[VariableKey, int] = {}  # in column order
    # the master's matrix in CSC form; tocsr() sorts each column's rows
    indptr, indices, data = [0], [], []
    objective: list[float] = []
    solver_objective: list[float] = []

    def price(duals: np.ndarray) -> int:
        """One pass: add every column priced below the tolerance that the
        master lacks, and return how many were added."""
        # a dual of the wrong sign is HiGHS's tolerance at work: read as 0
        shadow = np.maximum(-duals, 0.0)
        node_price = node_cost + shadow[first : first + len(node_cost)]
        arc_price = arc_cost + shadow[first + len(node_cost) :]
        added = 0
        for app_id, group in by_app.items():
            for alt in apps[app_id].alternatives:
                owners = [
                    (i, g) for i, g in group if efficiency.node(alt.root, g.origin) is not FORBIDDEN
                ]
                if not owners:
                    continue
                unit, runs = pricing.distances(alt, pricing.plan(alt)[1], node_price, arc_price)
                for i, g in owners:
                    origin = pricing.index[g.origin]
                    # the aggregate's own row's dual is the last term
                    reduced = g.demand * (unit[origin] - psi * (1.0 + REJECTION_MARGIN)) + shadow[i]
                    if not reduced < -_PRICING_TOL * g.demand * psi:
                        continue
                    kinds, loads = pricing.embedding(alt, runs, origin)
                    key = VariableKey(g.owner, alt.index, ("e", *kinds))
                    if key in columns:
                        continue
                    columns[key] = len(columns)
                    on_rows = {i: 1.0}
                    costs = []
                    for element, per_unit in loads:
                        load = g.demand * per_unit
                        costs.append(load * element_cost[element])
                        if load:
                            on_rows[first + element] = on_rows.get(first + element, 0.0) + load
                    served = sum_in_order(costs)
                    objective.append(served - g.demand * psi)
                    solver_objective.append(served - g.demand * psi * (1.0 + REJECTION_MARGIN))
                    indices.extend(on_rows)
                    data.extend(on_rows.values())
                    indptr.append(len(indices))
                    added += 1
        return added

    rhs = np.array([1.0] * first + [e.capacity for e in (*net.nodes, *net.arcs)])
    constant = sum_in_order(g.demand * psi for g in aggregates)
    price(np.zeros(len(rhs)))
    rounds = iterations = 0
    while True:
        n = len(columns)
        lp = LinearProgram(
            tuple(columns),
            np.zeros(n),
            np.ones(n),
            np.asarray(objective, dtype=float),
            constant,
            sparse.csc_matrix((data, indices, indptr), shape=(len(rhs), n)).tocsr(),
            rhs,
            row_matrix([], n),
            np.zeros(0),
            frozenset(),
            np.asarray(solver_objective, dtype=float),
        )
        started = time.perf_counter(), time.process_time()
        sol = solve_lp(lp)
        rounds += 1
        iterations += sol.stats.get("iterations", 0)
        if not sol.optimal or not price(sol.duals):
            return lp, sol, started, rounds, iterations


class Relaxation(NamedTuple):
    """A solved aggregate relaxation: the solver's answer, its unpacked
    values (None unless optimal), the wall seconds of the pipeline, and
    the run report's entries for it (:func:`solve_relaxation`)."""

    solution: Solution
    fractional: Optional[FractionalSolution]
    runtime_s: float
    timings: dict


def solve_relaxation(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
) -> Relaxation:
    """Aggregate the requests, build the continuous relaxation by column
    generation, solve it and unpack the optimum.  A status other than
    optimal is returned, not raised.

    ``timings`` holds the wall seconds of the four stages, keyed
    ``aggregate_s``, ``build_s``, ``solve_s`` and ``unpack_s``, which
    sum to ``runtime_s`` (``build_s`` holds the pricing rounds up to the
    final master's solve, the earlier masters' solves included, and
    ``solve_s`` that solve and the pricing pass that adds nothing); the
    same stages' CPU seconds (``time.process_time``), keyed
    ``aggregate_cpu_s`` and so on; the HiGHS iterations of the final
    master's solve (``lp_iterations``, 0 for an empty master, which is
    settled without HiGHS); the master's columns and its solves
    (``lp_columns``, ``lp_pricing_rounds``); its rows and nonzeros
    (``lp_rows``, ``lp_nnz``); and the HiGHS iterations of every master
    solve, summed (``lp_total_iterations``)."""
    t0, c0 = time.perf_counter(), time.process_time()
    aggregates = aggregate_requests(requests)
    t1, c1 = time.perf_counter(), time.process_time()
    # (t2, c2) is when the final master's solve began
    lp, sol, (t2, c2), rounds, iterations = _column_generation(
        net, apps, efficiency, aggregates, psi
    )
    t3, c3 = time.perf_counter(), time.process_time()
    frac = None
    if sol.optimal:
        frac = fractional_solution(lp, sol.x, sol.objective, aggregates, apps)
    t4, c4 = time.perf_counter(), time.process_time()
    # differences of one clock's readings are exact floats, so the stages
    # add up to the total exactly
    timings = {
        "aggregate_s": t1 - t0, "build_s": t2 - t1, "solve_s": t3 - t2, "unpack_s": t4 - t3,
        "aggregate_cpu_s": c1 - c0, "build_cpu_s": c2 - c1, "solve_cpu_s": c3 - c2,
        "unpack_cpu_s": c4 - c3,
        "lp_iterations": sol.stats.get("iterations", 0),
        "lp_columns": lp.n_vars,
        "lp_pricing_rounds": rounds,
        "lp_rows": lp.A_ub.shape[0],
        "lp_nnz": lp.A_ub.nnz,
        "lp_total_iterations": iterations,
    }
    return Relaxation(sol, frac, t4 - t0, timings)


def fractional_solution(
    lp: LinearProgram,
    x: np.ndarray,
    objective: float,
    aggregates: Sequence[AggregatedRequest],
    apps: Mapping[str, Application],
) -> FractionalSolution:
    """Package solver output: the nonzero values by arc-flow key plus
    per-aggregate rejected demand (the demand-weighted slack of the
    one-alternative rows).  A whole-embedding column ``("e", *kinds)``
    adds its value to each of its kinds' arc-flow keys, summed in
    column order; an arc-flow column is its own key."""
    values: dict[VariableKey, float] = {}
    for key, v in zip(lp.keys, x.tolist()):
        if abs(v) > 0.0:
            owner, alt, kind = key
            for part in kind[1:] if kind[0] == "e" else (kind,):
                at = VariableKey(owner, alt, part)
                values[at] = values.get(at, 0.0) + v
    rejection = {}
    for g in aggregates:
        served = 0.0
        for alt in apps[g.app].alternatives:
            served += values.get(
                VariableKey(g.owner, alt.index, ("n", alt.root, g.origin)), 0.0
            )
        rejection[g.owner] = (1.0 - min(served, 1.0)) * g.demand
    return FractionalSolution(values, objective, rejection, tuple(aggregates))


def restrict_to_alternative(
    apps: Mapping[str, Application], t: int
) -> dict[str, Application]:
    """Catalog in which every application keeps only alternative ``t``
    (single-alternative baseline); every application must have it."""
    missing = sorted(app.id for app in apps.values() if t not in (a.index for a in app.alternatives))
    if missing:
        raise ValueError(f"no alternative with index {t} in {', '.join(missing)}")
    return {app.id: Application(app.id, (app.alternative(t),)) for app in apps.values()}


def compute_rejection_penalty(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
) -> float:
    """Penalty per unit of rejected demand: the cost of the most
    expensive sensible embedding, taken as collocating every function of
    an application's main alternative on one edge-tier node (the
    priciest realistic placement), maximized over edge nodes and
    applications.  Falls back to all nodes when no edge tier exists."""
    candidates = [n for n in net.nodes if n.tier == EDGE]
    if not candidates:
        log.warning(
            "no edge-tier nodes; computing rejection penalty over all %d nodes",
            len(net.nodes),
        )
        candidates = list(net.nodes)
    best = -math.inf
    for app in apps.values():
        main = app.main
        for n in candidates:
            total = 0.0
            feasible = True
            for vn in main.nodes:
                coeff = efficiency.node(vn.id, n.id)
                if coeff is FORBIDDEN:
                    feasible = False
                    break
                if vn.id != main.root:
                    total += vn.size * coeff * n.cost
            if feasible:
                best = max(best, total)
    if best == -math.inf:
        raise ValueError(
            "cannot compute rejection penalty: no node admits a full collocation "
            "of any application's main alternative"
        )
    return best
