"""Domain entities: substrate network, applications with alternative
topologies, efficiency coefficients, requests, and integral embeddings.

All types are immutable after construction and may be shared freely
across forked worker processes; an :class:`IntegralEmbedding`'s
read-only maps do not pickle, so embeddings stay in the process that
made them.  Validation is data, not exceptions: the ``validate_*``
functions return lists of :class:`Violation` so callers can collect
and report every problem at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

#: Marker for a (virtual element, substrate element) pairing that must
#: never be used.  Stored in :class:`EfficiencyMap` instead of an
#: artificially huge coefficient so the optimizer can simply drop the
#: corresponding variables.
FORBIDDEN = None

EDGE = "edge"
TRANSPORT = "transport"
CORE = "core"
TIERS = (EDGE, TRANSPORT, CORE)

#: The empty read-only map every rejection shares.
_NO_MAP: Mapping = MappingProxyType({})


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, starting from 0:
    the bits builtin ``sum`` gives on Python 3.11.  From 3.12 builtin
    ``sum`` compensates float rounding, so its last bit can differ; every
    float total that reaches a result row, the LP or a walk decision is
    taken here instead."""
    return reduce(operator.add, values, 0)


@dataclass(frozen=True)
class Violation:
    """A single broken invariant: which rule, on which entity."""

    rule: str
    entity: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.rule}: {self.entity}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass(frozen=True)
class SubstrateNode:
    id: str
    cost: float
    capacity: float
    tier: Optional[str] = None


@dataclass(frozen=True)
class SubstrateArc:
    """Directed substrate link.  Undirected input links are expanded to
    two opposing arcs, each carrying the full stated capacity (full
    duplex)."""

    src: str
    dst: str
    cost: float
    capacity: float


class SubstrateNetwork:
    """Directed substrate graph with constant-time lookups.

    ``nodes`` and ``arcs`` keep their construction order; all derived
    indices (by id, by endpoint pair, adjacency) are built once.
    """

    def __init__(self, nodes: Iterable[SubstrateNode], arcs: Iterable[SubstrateArc]):
        self.nodes: tuple[SubstrateNode, ...] = tuple(nodes)
        self.arcs: tuple[SubstrateArc, ...] = tuple(arcs)
        self.node_by_id: dict[str, SubstrateNode] = {n.id: n for n in self.nodes}
        self.arc_by_pair: dict[tuple[str, str], SubstrateArc] = {
            (a.src, a.dst): a for a in self.arcs
        }
        out: dict[str, list[SubstrateArc]] = {n.id: [] for n in self.nodes}
        for a in self.arcs:
            if a.src in out:
                out[a.src].append(a)
        self.out_arcs: dict[str, tuple[SubstrateArc, ...]] = {
            k: tuple(v) for k, v in out.items()
        }

    def __repr__(self) -> str:
        return f"SubstrateNetwork({len(self.nodes)} nodes, {len(self.arcs)} arcs)"


@dataclass(frozen=True)
class VirtualNode:
    id: str
    size: float  # compute units per unit of demand


@dataclass(frozen=True)
class VirtualLink:
    parent: str
    child: str
    size: float  # bandwidth units per unit of demand


class AlternativeTopology:
    """One alternative virtual topology of an application: a tree (or
    chain) rooted at a zero-size anchor node that stands for the
    request's origin."""

    def __init__(
        self,
        app_id: str,
        index: int,
        nodes: Iterable[VirtualNode],
        links: Iterable[VirtualLink],
        root: str,
    ):
        self.app_id = app_id
        self.index = index
        self.nodes: tuple[VirtualNode, ...] = tuple(nodes)
        self.links: tuple[VirtualLink, ...] = tuple(links)
        self.root = root
        self.node_by_id: dict[str, VirtualNode] = {n.id: n for n in self.nodes}
        kids: dict[str, list[VirtualLink]] = {n.id: [] for n in self.nodes}
        for l in self.links:
            kids.setdefault(l.parent, []).append(l)
        self.children: dict[str, tuple[VirtualLink, ...]] = {
            k: tuple(v) for k, v in kids.items()
        }

    @cached_property
    def preorder(self) -> tuple[VirtualLink, ...]:
        """:func:`link_preorder` of this alternative, validated and
        computed on first use only."""
        return tuple(link_preorder(self))

    def __repr__(self) -> str:
        return (
            f"AlternativeTopology({self.app_id!r}, t={self.index}, "
            f"{len(self.nodes)} nodes, {len(self.links)} links)"
        )


@dataclass(frozen=True)
class Application:
    """An ordered, nonempty set of alternative topologies; the first one
    is the main alternative."""

    id: str
    alternatives: tuple[AlternativeTopology, ...]

    @property
    def main(self) -> AlternativeTopology:
        return self.alternatives[0]

    def alternative(self, index: int) -> AlternativeTopology:
        for alt in self.alternatives:
            if alt.index == index:
                return alt
        raise KeyError(f"application {self.id!r} has no alternative {index}")


class EfficiencyMap:
    """(In)efficiency coefficients for serving a virtual element on a
    substrate element.

    ``node(i, v)`` / ``link((i, j), (v, w))`` return a positive float, or
    :data:`FORBIDDEN` (``None``) when the pairing is excluded entirely.
    Unspecified pairs default to ``default`` (1.0).
    """

    def __init__(
        self,
        node_coeffs: Optional[Mapping[tuple[str, str], Optional[float]]] = None,
        link_coeffs: Optional[
            Mapping[tuple[tuple[str, str], tuple[str, str]], Optional[float]]
        ] = None,
        default: float = 1.0,
    ):
        self.default = float(default)
        self.node_coeffs = dict(node_coeffs or {})
        self.link_coeffs = dict(link_coeffs or {})

    def node(self, virtual_node: str, substrate_node: str) -> Optional[float]:
        return self.node_coeffs.get((virtual_node, substrate_node), self.default)

    def link(
        self, virtual_link: tuple[str, str], arc: tuple[str, str]
    ) -> Optional[float]:
        return self.link_coeffs.get((virtual_link, arc), self.default)

    def violations(self) -> list[Violation]:
        out = []
        for kind, coeffs in (("node", self.node_coeffs), ("link", self.link_coeffs)):
            for key, c in coeffs.items():
                if c is not FORBIDDEN and not (c > 0):
                    out.append(Violation("NonPositiveCoefficient", f"{kind} {key}", f"value {c}"))
        if not (self.default > 0):
            out.append(Violation("NonPositiveCoefficient", "default", f"value {self.default}"))
        return out


@dataclass(frozen=True)
class Request:
    origin: str  # substrate node at which the anchor must be placed
    app: str
    demand: float


@dataclass(frozen=True)
class IntegralEmbedding:
    """Outcome for one request: either the chosen alternative with full
    node and link mappings, or a rejection, whose maps are one empty
    read-only map that every rejection shares.

    ``link_map`` values are ordered arc paths ``((src, dst), ...)``; an
    empty path means the link's endpoints are collocated.  The embedders
    hand out read-only maps (``types.MappingProxyType``) and give requests
    that embed alike the same map objects, so a map must not be changed
    through one embedding.
    """

    request: Request
    alternative: Optional[int]  # None when the request was rejected
    node_map: Mapping[str, str] = field(default_factory=lambda: _NO_MAP)
    link_map: Mapping[tuple[str, str], tuple[tuple[str, str], ...]] = field(
        default_factory=lambda: _NO_MAP
    )

    @property
    def rejected(self) -> bool:
        return self.alternative is None

    @staticmethod
    def reject(request: Request) -> "IntegralEmbedding":
        return IntegralEmbedding(request, None, _NO_MAP, _NO_MAP)


def validate_substrate(net: SubstrateNetwork) -> list[Violation]:
    """Check substrate invariants.  Empty result means the network is
    well formed."""
    out: list[Violation] = []
    seen_nodes: set[str] = set()
    for n in net.nodes:
        if n.id in seen_nodes:
            out.append(Violation("DuplicateNode", n.id))
        seen_nodes.add(n.id)
        if n.cost < 0:
            out.append(Violation("NegativeCost", f"node {n.id}", f"cost {n.cost}"))
        if n.capacity < 0:
            out.append(Violation("NegativeCapacity", f"node {n.id}", f"capacity {n.capacity}"))
        if n.tier is not None and n.tier not in TIERS:
            out.append(Violation("UnknownTier", f"node {n.id}", f"tier {n.tier!r}"))
    seen_arcs: set[tuple[str, str]] = set()
    for a in net.arcs:
        pair = (a.src, a.dst)
        if a.src not in seen_nodes or a.dst not in seen_nodes:
            out.append(Violation("DanglingArc", f"{a.src}->{a.dst}"))
        if a.src == a.dst:
            out.append(Violation("SelfLoopArc", a.src))
        if pair in seen_arcs:
            out.append(Violation("DuplicateArc", f"{a.src}->{a.dst}"))
        seen_arcs.add(pair)
        if a.cost < 0:
            out.append(Violation("NegativeCost", f"arc {a.src}->{a.dst}", f"cost {a.cost}"))
        if a.capacity < 0:
            out.append(
                Violation("NegativeCapacity", f"arc {a.src}->{a.dst}", f"capacity {a.capacity}")
            )
    return out


def _tree_violations(alt: AlternativeTopology) -> list[Violation]:
    ident = f"{alt.app_id}/t{alt.index}"
    out: list[Violation] = []
    ids = [n.id for n in alt.nodes]
    if len(set(ids)) != len(ids):
        out.append(Violation("DuplicateNode", ident))
    if alt.root not in alt.node_by_id:
        out.append(Violation("UnknownRoot", ident, f"root {alt.root!r} not a node"))
        return out
    root_size = alt.node_by_id[alt.root].size
    if root_size != 0:
        out.append(Violation("RootSizeNonzero", ident, f"size {root_size}"))
    parents: dict[str, str] = {}
    for l in alt.links:
        if l.parent not in alt.node_by_id or l.child not in alt.node_by_id:
            out.append(Violation("DanglingLink", f"{ident} {l.parent}->{l.child}"))
            continue
        if l.child in parents or l.child == alt.root:
            out.append(Violation("NotATree", ident, f"{l.child} has more than one parent"))
        parents[l.child] = l.parent
        if l.size < 0:
            out.append(Violation("NegativeSize", f"{ident} link {l.parent}->{l.child}"))
    for n in alt.nodes:
        if n.size < 0:
            out.append(Violation("NegativeSize", f"{ident} node {n.id}"))
    if out:
        return out
    # Every non-root node must be reachable from the root, and following
    # parents must never loop.
    reached = {alt.root}
    frontier = [alt.root]
    while frontier:
        cur = frontier.pop()
        for l in alt.children.get(cur, ()):
            if l.child in reached:
                out.append(Violation("NotATree", ident, f"cycle through {l.child}"))
                return out
            reached.add(l.child)
            frontier.append(l.child)
    if reached != set(alt.node_by_id):
        missing = sorted(set(alt.node_by_id) - reached)
        out.append(Violation("NotATree", ident, f"unreachable nodes {missing}"))
    return out


def validate_application(app: Application) -> list[Violation]:
    """Check that every alternative is a rooted tree with a zero-size
    root and nonnegative sizes, and that alternative indices are
    unique."""
    out: list[Violation] = []
    if not app.alternatives:
        out.append(Violation("NoAlternatives", app.id))
        return out
    indices = [a.index for a in app.alternatives]
    if len(set(indices)) != len(indices):
        out.append(Violation("DuplicateAlternative", app.id, f"indices {indices}"))
    for alt in app.alternatives:
        out.extend(_tree_violations(alt))
    return out


def link_preorder(alt: AlternativeTopology) -> list[VirtualLink]:
    """Links of ``alt`` in root-first (pre-)order: each link appears
    after the link that introduced its parent node.  Raises
    ``ValueError`` if ``alt`` is not a valid rooted tree."""
    bad = _tree_violations(alt)
    if bad:
        raise ValueError(f"not a valid rooted tree: {bad[0]}")
    order: list[VirtualLink] = []

    def visit(node: str) -> None:
        for l in alt.children.get(node, ()):
            order.append(l)
            visit(l.child)

    visit(alt.root)
    return order


def validate_requests(
    requests: Sequence[Request],
    net: SubstrateNetwork,
    catalog: Mapping[str, Application],
) -> list[Violation]:
    out = []
    for k, r in enumerate(requests):
        if r.demand <= 0:
            out.append(Violation("NonPositiveDemand", f"request {k}", f"demand {r.demand}"))
        if r.origin not in net.node_by_id:
            out.append(Violation("UnknownOrigin", f"request {k}", r.origin))
        if r.app not in catalog:
            out.append(Violation("UnknownApplication", f"request {k}", r.app))
    return out


def check_instance(net, catalog, efficiency, requests=None, psi=None) -> None:
    """The one check of an instance, run by the CLI on solve's inputs and by
    every ScenarioConfig: raise a ValueError naming the first broken
    invariants (the ``validate_*`` rules above) of the substrate,
    applications, efficiency map, requests and ψ (if given), or the first
    load or cost product of them that overflows."""
    if psi is not None and not 0 <= psi < math.inf:
        raise ValueError(f"psi must be a finite number >= 0, not {psi!r}")
    problems = validate_substrate(net)
    for app in catalog.values():
        problems += validate_application(app)
    problems += efficiency.violations()
    if requests is not None:
        problems += validate_requests(requests, net, catalog)
    if problems:
        raise ValueError("; ".join(str(v) for v in problems[:5]))
    overflow = _overflow(net, catalog, efficiency, requests, psi)
    if overflow:
        raise ValueError(overflow)


def _overflow(net, catalog, eff, reqs=None, psi=None) -> Optional[str]:
    """Why a load or cost formed from these finite inputs can overflow a
    float, naming the keys and values at fault, or None.

    Per unit demand a function costs at most its size times its
    coefficient times the cost of the costliest node it may use, and a
    virtual link the same on the costliest arc, once per hop of a path
    of up to n - 1 hops; an alternative costs at most the sum.  Loads are
    bounded alike without the costs (a path crosses an arc once).  Every
    load, cost and objective the algorithms form is at most the total
    demand times the largest load bound, or times twice the largest of
    the cost bounds and ψ (served plus rejected cost)."""
    hops = max(len(net.nodes) - 1, 1)
    worst_cost, worst_load = psi or 0.0, 0.0
    blame = f"psi {psi!r}"
    for app in catalog.values():
        for alt in app.alternatives:
            where = f"app {app.id!r} alternative {alt.index}"
            elements = [
                (f"function {vn.id!r}", vn.size, 1, [
                    (f"node {n.id}", eff.node(vn.id, n.id), n.cost) for n in net.nodes
                ])
                for vn in alt.nodes
            ] + [
                (f"link {vl.parent}->{vl.child}", vl.size, hops, [
                    (f"arc {a.src}->{a.dst}", eff.link((vl.parent, vl.child), (a.src, a.dst)), a.cost)
                    for a in net.arcs
                ])
                for vl in alt.links
            ]
            cost = load = top = 0.0
            for name, size, times, options in elements:
                most = most_load = 0.0
                for on, coeff, unit in options:
                    if coeff is FORBIDDEN:
                        continue
                    value = size * coeff * unit
                    if not math.isfinite(value) or value > top:
                        term = f"{name}: size {size!r} * coefficient {coeff!r} * cost {unit!r} of {on}"
                        if not math.isfinite(value):
                            return f"{where} {term} overflows"
                        top, largest = value, term
                    most = max(most, value)
                    most_load = max(most_load, size * coeff)
                cost += times * most
                load += most_load
            if not math.isfinite(cost):
                return f"{where}: its costliest embedding per unit demand overflows (largest term {largest})"
            if cost > worst_cost:
                worst_cost = cost
                blame = f"{cost!r}, the costliest embedding of {where} per unit demand (largest term {largest})"
            worst_load = max(worst_load, load)
    if reqs:
        total = sum(r.demand for r in reqs)
        k = max(range(len(reqs)), key=lambda i: reqs[i].demand)
        demand = f"requests: total demand {total!r} (request {k} has demand {reqs[k].demand!r})"
        if not math.isfinite(2.0 * total * worst_cost):
            return f"{demand} times {blame} overflows"
        if not math.isfinite(total * worst_load):
            return f"{demand} times {worst_load!r}, the largest load per unit demand, overflows"
    return None
