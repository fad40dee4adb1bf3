"""Independent feasibility checking and cost accounting.

Everything here recomputes loads and costs directly from embeddings and
raw instance data, deliberately sharing no constraint-building code with
the optimization model: the two implementations cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .formulation import FractionalSolution
from .model import (
    FORBIDDEN,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    SubstrateNetwork,
    Violation,
    sum_in_order,
)

_REL_TOL = 1e-9


@dataclass(frozen=True)
class CostBreakdown:
    """Objective split into its three components."""

    compute: float
    bandwidth: float
    rejection: float

    @property
    def total(self) -> float:
        return self.compute + self.bandwidth + self.rejection


class InfeasibleEmbeddingSet(ValueError):
    """Raised by :func:`total_cost` when validation finds violations;
    ``violations`` lists all of them."""

    def __init__(self, violations: list[Violation]):
        listing = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"infeasible embedding set: {listing}{more}")
        self.violations = violations


@dataclass
class LoadVector:
    """Induced load per substrate node and per directed arc."""

    node: dict[str, float] = field(default_factory=dict)
    arc: dict[tuple[str, str], float] = field(default_factory=dict)

    def add_node(self, v: str, amount: float) -> None:
        if amount:
            self.node[v] = self.node.get(v, 0.0) + amount

    def add_arc(self, vw: tuple[str, str], amount: float) -> None:
        if amount:
            self.arc[vw] = self.arc.get(vw, 0.0) + amount


def _within(load: float, capacity: float) -> bool:
    return load <= capacity + _REL_TOL * max(1.0, abs(capacity))


def _embedding_violations(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    emb: IntegralEmbedding,
    loads: LoadVector,
) -> list[Violation]:
    """Structural checks for one embedding; accumulates its induced
    loads into ``loads`` as a side effect (capacity is checked globally
    by the caller)."""
    out: list[Violation] = []
    req = emb.request
    who = f"request(origin={req.origin}, app={req.app})"
    app = apps.get(req.app)
    if app is None:
        return [Violation("UnknownApplication", who, "no such application in catalog")]
    try:
        alt = app.alternative(emb.alternative)
    except KeyError:
        return [Violation("UnknownAlternative", who, f"alternative {emb.alternative}")]

    virt_ids = set(alt.node_by_id)
    placed = set(emb.node_map)
    for i in sorted(virt_ids - placed):
        out.append(Violation("NodeUnplaced", who, f"virtual node {i} has no placement"))
    for i in sorted(placed - virt_ids):
        out.append(Violation("ExtraneousPlacement", who, f"{i} is not in alternative {alt.index}"))
    for i, v in sorted(emb.node_map.items()):
        if v not in net.node_by_id:
            out.append(Violation("UnknownSubstrateNode", who, f"{i} placed on missing node {v}"))
    if out:
        return out

    root_at = emb.node_map.get(alt.root)
    if root_at != req.origin:
        out.append(
            Violation("RootMisplaced", who, f"root {alt.root} at {root_at}, origin is {req.origin}")
        )

    for i, v in sorted(emb.node_map.items()):
        coeff = efficiency.node(i, v)
        if coeff is FORBIDDEN:
            out.append(Violation("ForbiddenPairing", who, f"node {i} on {v}"))
            continue
        loads.add_node(v, req.demand * alt.node_by_id[i].size * coeff)

    wanted = {(vl.parent, vl.child) for vl in alt.links}
    routed = set(emb.link_map)
    for pair in sorted(wanted - routed):
        out.append(Violation("LinkUnrouted", who, f"virtual link {pair[0]}->{pair[1]} has no path"))
    for pair in sorted(routed - wanted):
        out.append(
            Violation("ExtraneousPath", who, f"{pair[0]}->{pair[1]} is not in alternative {alt.index}")
        )

    sizes = {(vl.parent, vl.child): vl.size for vl in alt.links}
    for pair in sorted(wanted & routed):
        path = emb.link_map[pair]
        src = emb.node_map[pair[0]]
        dst = emb.node_map[pair[1]]
        if not path:
            if src != dst:
                out.append(
                    Violation(
                        "PathEndpointMismatch",
                        who,
                        f"link {pair[0]}->{pair[1]}: empty path but endpoints {src} != {dst}",
                    )
                )
            continue
        ok = True
        for arc in path:
            if arc not in net.arc_by_pair:
                out.append(Violation("UnknownArc", who, f"no substrate arc {arc[0]}->{arc[1]}"))
                ok = False
        if not ok:
            continue
        if path[0][0] != src or path[-1][1] != dst:
            out.append(
                Violation(
                    "PathEndpointMismatch",
                    who,
                    f"link {pair[0]}->{pair[1]}: path runs {path[0][0]}..{path[-1][1]}, "
                    f"placements are {src}..{dst}",
                )
            )
            ok = False
        for a, b in zip(path, path[1:]):
            if a[1] != b[0]:
                out.append(
                    Violation(
                        "PathDiscontiguous", who, f"link {pair[0]}->{pair[1]}: {a} then {b}"
                    )
                )
                ok = False
        if not ok:
            continue
        for arc in path:  # a walk may traverse an arc twice; each pass loads it
            coeff = efficiency.link(pair, arc)
            if coeff is FORBIDDEN:
                out.append(
                    Violation("ForbiddenPairing", who, f"link {pair[0]}->{pair[1]} on arc {arc}")
                )
            else:
                loads.add_arc(arc, req.demand * sizes[pair] * coeff)
    return out


def _walk(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    embeddings: Iterable[IntegralEmbedding],
) -> tuple[list[Violation], LoadVector]:
    """One pass over an embedding set: every violation (see
    :func:`check_feasibility`) and the loads it induces."""
    out: list[Violation] = []
    loads = LoadVector()
    seen_requests: set[int] = set()
    for emb in embeddings:
        if id(emb.request) in seen_requests:
            out.append(
                Violation(
                    "DuplicateRequest",
                    f"request(origin={emb.request.origin}, app={emb.request.app})",
                    "more than one embedding for the same request",
                )
            )
        seen_requests.add(id(emb.request))
        if emb.rejected:
            continue
        out.extend(_embedding_violations(net, apps, efficiency, emb, loads))
    for v in sorted(loads.node):
        cap = net.node_by_id[v].capacity
        if not _within(loads.node[v], cap):
            out.append(
                Violation("CapacityViolation", f"node {v}", f"load {loads.node[v]!r} > {cap!r}")
            )
    for vw in sorted(loads.arc):
        cap = net.arc_by_pair[vw].capacity
        if not _within(loads.arc[vw], cap):
            out.append(
                Violation(
                    "CapacityViolation", f"arc {vw[0]}->{vw[1]}", f"load {loads.arc[vw]!r} > {cap!r}"
                )
            )
    return out, loads


def load_vector(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    embeddings: Iterable[IntegralEmbedding],
) -> LoadVector:
    """Loads induced by a set of embeddings (rejections contribute 0)."""
    return _walk(net, apps, efficiency, embeddings)[1]


def check_feasibility(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    embeddings: Iterable[IntegralEmbedding],
) -> list[Violation]:
    """Every reason the embedding set is invalid; empty means feasible.

    Checks, per embedding: known application and alternative, complete
    node placement, root pinned at the request origin, every virtual
    link routed over a contiguous arc path whose ends match the
    placements (an empty path is allowed only for collocated endpoints;
    a closed walk with matching endpoints is legitimate and pays for
    every arc it traverses), and no forbidden node/arc pairings.
    Globally: one embedding per request, and node and arc loads within
    capacity.
    """
    return _walk(net, apps, efficiency, embeddings)[0]


def total_cost(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    embeddings: Iterable[IntegralEmbedding],
    psi: float,
    validate: bool = True,
) -> CostBreakdown:
    """Exact objective recomputation from raw embeddings: compute cost
    from node loads, bandwidth cost from arc loads, and the rejection
    penalty ``psi`` per unit of rejected demand.

    Raises :class:`InfeasibleEmbeddingSet` (a ``ValueError``) when
    ``validate`` is set and the embedding set is infeasible.
    """
    embeddings = list(embeddings)
    violations, loads = _walk(net, apps, efficiency, embeddings)
    if validate and violations:
        raise InfeasibleEmbeddingSet(violations)
    compute = sum_in_order(loads.node[v] * net.node_by_id[v].cost for v in loads.node)
    bandwidth = sum_in_order(loads.arc[vw] * net.arc_by_pair[vw].cost for vw in loads.arc)
    rejected = sum_in_order(e.request.demand for e in embeddings if e.rejected)
    return CostBreakdown(compute, bandwidth, rejected * psi)


def rejection_rate(embeddings: Iterable[IntegralEmbedding]) -> float:
    """Demand-weighted fraction of rejected requests (0 for an empty set)."""
    total = 0.0
    rejected = 0.0
    for emb in embeddings:
        total += emb.request.demand
        if emb.rejected:
            rejected += emb.request.demand
    return rejected / total if total > 0 else 0.0


def alternative_shares(embeddings: Iterable[IntegralEmbedding]) -> dict[int, float]:
    """Served demand per alternative index, as fractions of all served
    demand.  Empty when nothing was served; otherwise sums to 1."""
    served: dict[int, float] = {}
    for emb in embeddings:
        if not emb.rejected:
            served[emb.alternative] = served.get(emb.alternative, 0.0) + emb.request.demand
    grand = sum_in_order(served.values())
    if grand <= 0:
        return {}
    return {t: d / grand for t, d in sorted(served.items())}


def fractional_cost(
    apps: Mapping[str, Application],
    net: SubstrateNetwork,
    efficiency: EfficiencyMap,
    fractional: FractionalSolution,
    psi: float,
) -> CostBreakdown:
    """Objective recomputation for a fractional (relaxed) solution,
    walking its nonzero variables rather than trusting any solver
    objective value."""
    demand_of = {agg.owner: agg.demand for agg in fractional.aggregates}
    app_of = {agg.owner: agg.app for agg in fractional.aggregates}
    compute = 0.0
    bandwidth = 0.0
    served: dict[str, float] = {owner: 0.0 for owner in demand_of}
    for key, value in fractional.values.items():
        if key.owner not in demand_of:
            raise KeyError(f"solution variable for unknown request group {key.owner!r}")
        demand = demand_of[key.owner]
        alt = apps[app_of[key.owner]].alternative(key.alt)
        if key.kind[0] == "n":
            _, i, v = key.kind
            coeff = efficiency.node(i, v)
            if coeff is FORBIDDEN:
                raise ValueError(f"solution places {i} on forbidden node {v}")
            compute += value * demand * alt.node_by_id[i].size * coeff * net.node_by_id[v].cost
            if i == alt.root:
                served[key.owner] += value
        else:
            _, i, j, v, w = key.kind
            size = next(vl.size for vl in alt.links if (vl.parent, vl.child) == (i, j))
            coeff = efficiency.link((i, j), (v, w))
            if coeff is FORBIDDEN:
                raise ValueError(f"solution routes {i}->{j} on forbidden arc {v}->{w}")
            bandwidth += value * demand * size * coeff * net.arc_by_pair[(v, w)].cost
    rejection = sum_in_order(
        (1.0 - min(served[owner], 1.0)) * demand_of[owner] * psi for owner in demand_of
    )
    return CostBreakdown(compute, bandwidth, rejection)


def fractional_alternative_shares(
    fractional: FractionalSolution, apps: Mapping[str, Application]
) -> dict[int, float]:
    """Served demand per alternative index for a fractional solution
    (mass on each alternative's root variables), as fractions of all
    served demand.  Counterpart of :func:`alternative_shares`."""
    served: dict[int, float] = {}
    root_of = {}
    demand_of = {}
    for agg in fractional.aggregates:
        demand_of[agg.owner] = agg.demand
        for alt in apps[agg.app].alternatives:
            root_of[(agg.owner, alt.index)] = alt.root
    for key, value in fractional.values.items():
        if key.kind[0] == "n" and root_of.get((key.owner, key.alt)) == key.kind[1]:
            served[key.alt] = served.get(key.alt, 0.0) + value * demand_of[key.owner]
    grand = sum_in_order(served.values())
    if grand <= 0:
        return {}
    return {t: d / grand for t, d in sorted(served.items())}


def objective_consistency(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    psi: float,
    objective: Optional[float],
    result: Union[FractionalSolution, Iterable[IntegralEmbedding]],
) -> float:
    """|solver objective - independent recomputation|.

    Guards against drift between the model builder and the validator;
    callers assert the delta is below ``1e-6 * (1 + |objective|)``.
    """
    if isinstance(result, FractionalSolution):
        recomputed = fractional_cost(apps, net, efficiency, result, psi).total
    else:
        recomputed = total_cost(net, apps, efficiency, result, psi, validate=False).total
    if objective is None:
        return abs(recomputed)
    return abs(objective - recomputed)
