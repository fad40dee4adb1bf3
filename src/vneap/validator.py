"""Independent feasibility checking and cost accounting.

Everything here recomputes loads and costs directly from embeddings and
raw instance data, deliberately sharing no constraint-building code with
the optimization model: the two implementations cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

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


def _within(load: float, capacity: float) -> bool:
    return load <= capacity + _REL_TOL * max(1.0, abs(capacity))


class _Shape(NamedTuple):
    """What validating one embedding needs of its application, alternative
    and maps alone: the structural faults found before the root check
    (any of them ends the embedding's checks) and after it, each as
    (kind, detail); where the maps put the root (None before the root
    check); and the loads per unit of demand, as (node, size, coeff)
    and (arc, size, coeff) in the order they are added."""

    early: Sequence[tuple[str, str]]
    root: Optional[str] = None
    root_at: Optional[str] = None
    late: Sequence[tuple[str, str]] = ()
    node_loads: Sequence[tuple[str, float, float]] = ()
    arc_loads: Sequence[tuple[tuple[str, str], float, float]] = ()


def _shape(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    app_id: str,
    alternative: int,
    node_map: Mapping[str, str],
    link_map: Mapping[tuple[str, str], tuple[tuple[str, str], ...]],
) -> _Shape:
    """Structural checks of one embedding shape: placement, unknown
    elements, path contiguity and forbidden pairings, and the loads it
    induces per unit of demand (capacity is checked globally)."""
    app = apps.get(app_id)
    if app is None:
        return _Shape([("UnknownApplication", "no such application in catalog")])
    try:
        alt = app.alternative(alternative)
    except KeyError:
        return _Shape([("UnknownAlternative", f"alternative {alternative}")])

    early: list[tuple[str, str]] = []
    virt_ids = set(alt.node_by_id)
    placed = set(node_map)
    for i in sorted(virt_ids - placed):
        early.append(("NodeUnplaced", f"virtual node {i} has no placement"))
    for i in sorted(placed - virt_ids):
        early.append(("ExtraneousPlacement", f"{i} is not in alternative {alt.index}"))
    for i, v in sorted(node_map.items()):
        if v not in net.node_by_id:
            early.append(("UnknownSubstrateNode", f"{i} placed on missing node {v}"))
    if early:
        return _Shape(early)

    late: list[tuple[str, str]] = []
    node_loads = []
    for i, v in sorted(node_map.items()):
        coeff = efficiency.node(i, v)
        if coeff is FORBIDDEN:
            late.append(("ForbiddenPairing", f"node {i} on {v}"))
            continue
        node_loads.append((v, alt.node_by_id[i].size, coeff))

    wanted = {(vl.parent, vl.child) for vl in alt.links}
    routed = set(link_map)
    for pair in sorted(wanted - routed):
        late.append(("LinkUnrouted", f"virtual link {pair[0]}->{pair[1]} has no path"))
    for pair in sorted(routed - wanted):
        late.append(("ExtraneousPath", f"{pair[0]}->{pair[1]} is not in alternative {alt.index}"))

    sizes = {(vl.parent, vl.child): vl.size for vl in alt.links}
    arc_loads = []
    for pair in sorted(wanted & routed):
        path = link_map[pair]
        src = node_map[pair[0]]
        dst = node_map[pair[1]]
        if not path:
            if src != dst:
                late.append(
                    (
                        "PathEndpointMismatch",
                        f"link {pair[0]}->{pair[1]}: empty path but endpoints {src} != {dst}",
                    )
                )
            continue
        ok = True
        for arc in path:
            if arc not in net.arc_by_pair:
                late.append(("UnknownArc", f"no substrate arc {arc[0]}->{arc[1]}"))
                ok = False
        if not ok:
            continue
        if path[0][0] != src or path[-1][1] != dst:
            late.append(
                (
                    "PathEndpointMismatch",
                    f"link {pair[0]}->{pair[1]}: path runs {path[0][0]}..{path[-1][1]}, "
                    f"placements are {src}..{dst}",
                )
            )
            ok = False
        for a, b in zip(path, path[1:]):
            if a[1] != b[0]:
                late.append(("PathDiscontiguous", f"link {pair[0]}->{pair[1]}: {a} then {b}"))
                ok = False
        if not ok:
            continue
        for arc in path:  # a walk may traverse an arc twice; each pass loads it
            coeff = efficiency.link(pair, arc)
            if coeff is FORBIDDEN:
                late.append(("ForbiddenPairing", f"link {pair[0]}->{pair[1]} on arc {arc}"))
            else:
                arc_loads.append((arc, sizes[pair], coeff))
    return _Shape(early, alt.root, node_map.get(alt.root), late, node_loads, arc_loads)


def _walk(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    embeddings: Iterable[IntegralEmbedding],
) -> tuple[list[Violation], LoadVector]:
    """One pass over an embedding set: every violation (see
    :func:`check_feasibility`) and the loads it induces.

    Embeddings often share their map objects, so each distinct shape
    (application, alternative, node map and link map objects) is checked
    once (:func:`_shape`); per embedding only the duplicate-request rule
    and the root's placement at the origin are checked, and the shape's
    loads are added at the request's demand, ``demand * size * coeff``
    in the shape's order.  The shapes keep their map objects, so no
    object id is reused while its shape is in use; the maps must not
    change during the pass."""
    out: list[Violation] = []
    loads = LoadVector()
    node_load, arc_load = loads.node, loads.arc
    seen_requests: set[int] = set()
    shapes: dict[tuple, tuple[Mapping, Mapping, _Shape]] = {}
    for emb in embeddings:
        req = emb.request
        if id(req) in seen_requests:
            out.append(
                Violation(
                    "DuplicateRequest",
                    f"request(origin={req.origin}, app={req.app})",
                    "more than one embedding for the same request",
                )
            )
        seen_requests.add(id(req))
        if emb.rejected:
            continue
        node_map, link_map = emb.node_map, emb.link_map
        key = (req.app, emb.alternative, id(node_map), id(link_map))
        entry = shapes.get(key)
        if entry is None:
            shape = _shape(net, apps, efficiency, req.app, emb.alternative, node_map, link_map)
            entry = shapes[key] = (node_map, link_map, shape)
        shape = entry[2]
        if shape.early or shape.late or shape.root_at != req.origin:
            who = f"request(origin={req.origin}, app={req.app})"
            out.extend(Violation(kind, who, detail) for kind, detail in shape.early)
            if shape.early:
                continue
            if shape.root_at != req.origin:
                detail = f"root {shape.root} at {shape.root_at}, origin is {req.origin}"
                out.append(Violation("RootMisplaced", who, detail))
            out.extend(Violation(kind, who, detail) for kind, detail in shape.late)
        demand = req.demand
        for v, size, coeff in shape.node_loads:
            amount = demand * size * coeff
            if amount:
                node_load[v] = node_load.get(v, 0.0) + amount
        for arc, size, coeff in shape.arc_loads:
            amount = demand * size * coeff
            if amount:
                arc_load[arc] = arc_load.get(arc, 0.0) + amount
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
