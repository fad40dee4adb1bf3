"""Builds the embedding-with-alternatives MILP, its LP relaxation over
aggregated requests, and the transforms between aggregate and
per-request fractional solutions.

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
adds a rejection penalty ``psi`` per unit of unserved demand.  The
aggregate relaxation's solver prices unserved demand a hair above
``psi`` (:data:`REJECTION_MARGIN`), so it serves whatever serving costs
no more than rejecting; every reported cost is priced at ``psi``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    FORBIDDEN,
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


class VariableKey(NamedTuple):
    """Identifies one placement variable.

    ``kind`` is ``("n", virtual_node, substrate_node)`` for node
    placements and ``("l", parent, child, arc_src, arc_dst)`` for link
    placements.  A plain tuple, so rounding's many lookups hash and
    compare keys in C.
    """

    owner: str
    alt: int
    kind: tuple


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # "<=" or "=="
    rhs: float


@dataclass
class LinearProgram:
    """A sparse linear program over :class:`VariableKey` variables.

    ``binary`` lists the variable indices that must be integral; an
    empty set makes the program a plain LP over the ``[lower, upper]``
    box.  ``solver_objective``, when set, is what the solver minimizes
    in place of ``objective``; a solution's reported objective still
    prices it by ``objective``.
    """

    keys: tuple[VariableKey, ...]
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    objective_constant: float
    rows: tuple[Row, ...]
    binary: frozenset[int]
    solver_objective: Optional[np.ndarray] = None

    @property
    def n_vars(self) -> int:
        return len(self.keys)

    def relax(self) -> "LinearProgram":
        """The same program without integrality marks."""
        return replace(self, binary=frozenset())


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
    """Shared builder core: the continuous program over ``owners``,
    which holds ``(owner_id, origin, app_id, demand)`` tuples; demand is
    the request's demand for the per-request MILP and the aggregate
    total for the aggregate LP.  A nonzero ``margin`` sets a solver
    objective that prices rejected demand at ``psi * (1 + margin)``."""
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

    rows: list[Row] = []
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
                for coeffs in by_node.values():
                    if coeffs:
                        rows.append(Row(tuple(coeffs), "==", 0.0))
        roots += root_vars
        if root_vars:
            rows.append(Row(tuple((i, 1.0) for i in root_vars), "<=", 1.0))
    # capacity rows last, kept even when no variable touches them
    for n in net.nodes:
        rows.append(Row(tuple(node_cap_coeffs[n.id]), "<=", n.capacity))
    for a in net.arcs:
        rows.append(Row(tuple(arc_cap_coeffs[(a.src, a.dst)]), "<=", a.capacity))
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
        tuple(rows),
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


def build_relaxed_aggregate_lp(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    aggregates: Sequence[AggregatedRequest],
    psi: float,
) -> LinearProgram:
    """Continuous relaxation over aggregated demand.  Variable count
    depends on the number of distinct (origin, application) pairs, not
    on the number of requests.  Its solver objective prices rejected
    demand at ``psi * (1 + REJECTION_MARGIN)``; ``objective`` prices it
    at ``psi``."""
    owners = [(g.owner, g.origin, g.app, g.demand) for g in aggregates]
    return _owner_rows(net, apps, efficiency, owners, psi, REJECTION_MARGIN)


def fractional_solution(
    lp: LinearProgram,
    x: np.ndarray,
    objective: float,
    aggregates: Sequence[AggregatedRequest],
    apps: Mapping[str, Application],
) -> FractionalSolution:
    """Package solver output: the nonzero values by key plus
    per-aggregate rejected demand (the demand-weighted slack of the
    one-alternative rows)."""
    values = {k: v for k, v in zip(lp.keys, x.tolist()) if abs(v) > 0.0}
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
