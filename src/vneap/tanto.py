"""The LP-rounding embedder: round the aggregate relaxation that
:func:`~vneap.formulation.solve_relaxation` solves.

:func:`round_relaxation` turns each request into an integral embedding
by a weighted random walk over its aggregate's fractional variables,
consuming residual fractional mass as it goes.  Rounding never touches
substrate capacities directly — consumed fractions of a feasible
fractional solution are themselves feasible, so every accepted
embedding is feasible by construction.

Each (origin, application) aggregate owns a disjoint variable slice and
its own random stream, so aggregates round independently of each other.
The slice is numbered once into integer slots (:class:`RoundingState`):
the residual is a float list, and the walk reads each site's placement
and outgoing-arc slots from tables, building no key per step.  The
walk's uniforms are drawn from the aggregate's stream 64 at a time,
which gives the same doubles as one draw per call.  A walk records only
the slots it consumes; requests of an aggregate that consume the same
slots get the same read-only node and link maps.

A walk in which every site it visited offered exactly one option with
mass (``y > 0``) was fixed once its alternative was picked: each draw
could only take that option.  The first such walk of an alternative
that is accepted leaves its consumed slots and its outcome as the
alternative's route.  A later request that picks the alternative (its
root drawn and consumed as in a walk) replays the route instead of
walking: from the route's second slot on, a slot at or below
:data:`_DUST` is a stranded rejection, a slot holding less than the
demand (with :data:`_SLACK`) is a rounding rejection that zeroes it,
and otherwise the demand is consumed, clipped at 0.  The draws the walk
would have taken are skipped, so the stream ends where the walk leaves
it: with ``steps`` the request's step count, ``steps - 1`` draws after
the root's on an accept or a rounding rejection and ``steps - 2`` on a
stranded one, whose last step draws nothing.

The replay is the walk, and a route never needs to be dropped:

* a slot without mass never regains it.  Only a rejection gives mass
  back, and only to the slots its own walk consumed, each of which held
  mass when the walk chose it (a walk chooses only an option with
  mass); a slot at 0 cannot be chosen, so it is never given any;
* so the options a route passed over, which held none when its walk
  was taken, hold none for the rest of the aggregate.  At every route
  site the walk's total is then the route slot's own residual, to the
  bit (the others add nothing), and a draw over it takes the route
  slot whatever the uniform: the walk visits the route's sites in the
  route's order;
* a route slot that has since run dry or short is met at the same step
  at which the walk meets it: the replay's checks are the walk's
  stranded check on that total and its rounding check on that slot;
* the replay's step count at each slot is the walk's, so the per-link
  cap and the request budget, which the route's own walk never reached,
  are not reached either, and the counters and the rejection's restore
  are the walk's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from operator import length_hint
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import rng as _rng
from .formulation import AggregatedRequest, Relaxation, VariableKey, solve_relaxation
from .lp import SolverError
from .model import (
    AlternativeTopology,
    Application,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateNetwork,
    sum_in_order,
)

# Residual comparisons ``d <= y`` carry this much slack (in normalized
# units, i.e. fractions of the aggregate demand) so float accumulation
# noise cannot cause spurious rejections.
_SLACK = 1e-9
# Mass below this is solver dust, treated as zero.
_DUST = 1e-12
# Per-request step budget = factor·|nodes|·max |alternative|.
_STEP_FACTOR = 4
# Uniforms drawn from an aggregate's stream at a time.
_BLOCK = 64


@dataclass
class RoundingState:
    """Mutable per-aggregate rounding context: the residual fractional
    solution (normalized to the aggregate demand) on integer slot tables
    built once, the zeroed-slot marks, and rejection/step counters used
    for bound assertions.

    The aggregate's variables above :data:`_DUST` are numbered into
    slots: ``keys[s]`` is slot ``s``'s variable, ``y[s]`` its residual
    and ``zeroed[s]`` is 1 once a rejection zeroed it.  A missing slot
    is -1.  Substrate nodes are numbered as in ``net.nodes``.  Per
    alternative ``t``, in the order the state was built for:

    * ``roots[t]`` is the slot of its root at the origin;
    * ``sites[t][k][v]`` is, for the ``k``-th link of its preorder at
      node ``v``, the walk's options there: the placement option
      (slot of the link's child at ``v``, ``v``), then the (arc slot,
      destination) options of ``v``'s outgoing arcs that have a slot,
      in ``net.out_arcs`` order;
    * ``links[t][k]`` is (where the link's parent sits: 0 for the root,
      ``j + 1`` for the child of link ``j``; the child; the link's
      (parent, child) pair).

    ``outcomes`` maps each accepted walk's consumed slots, in walk
    order, to (alternative index, node map, link map): the slots fix the
    alternative, every placement and every path, so every request that
    walks them gets the same read-only pair of maps.  ``routes[t]`` is
    None, or alternative ``t``'s route (the module docstring): the
    consumed slots and the outcome of its first accepted walk that met
    one option with mass at every site; its step count is the number of
    slots.  ``replayed_walks`` counts the requests rounded by a replay.

    Invariants: every residual value stays within [0, its initial
    value]; once a slot is zeroed by a rejection it stays zero.
    """

    owner: str
    demand: float  # total aggregate demand the y values are normalized to
    keys: list[VariableKey]
    y: list[float]
    zeroed: bytearray
    origin: int
    roots: list[int]
    sites: list[list[list[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]]]
    links: list[tuple[tuple[int, str, tuple[str, str]], ...]]
    per_link_cap: int
    request_budget: int
    initial_nonzero: int = 0
    accepted: int = 0
    rounding_rejections: int = 0
    stranded_rejections: int = 0
    lp_exhausted_rejections: int = 0
    overflow_rejections: int = 0
    total_steps: int = 0
    max_request_steps: int = 0
    replayed_walks: int = 0
    outcomes: dict[tuple[int, ...], tuple[int, Mapping, Mapping]] = field(default_factory=dict)
    routes: list[Optional[tuple[tuple[int, ...], tuple[int, Mapping, Mapping]]]] = field(
        default_factory=list
    )

    @staticmethod
    def for_aggregate(
        net: SubstrateNetwork,
        agg: AggregatedRequest,
        values: Mapping[VariableKey, float],
        alternatives: Sequence[AlternativeTopology],
    ) -> "RoundingState":
        """Number ``agg``'s variables in ``values``, which holds only
        ``agg``'s, above :data:`_DUST` into slots and index them by site,
        per alternative in the order of ``alternatives``."""
        kept = [(k, v) for k, v in values.items() if v > _DUST]
        keys = [k for k, _ in kept]
        node_index = {n.id: i for i, n in enumerate(net.nodes)}
        n_nodes = len(net.nodes)
        position = {a.index: t for t, a in enumerate(alternatives)}
        # per alternative: a link's preorder position by its child (a tree
        # node has one parent link)
        child_at = [{l.child: k for k, l in enumerate(a.preorder)} for a in alternatives]
        roots = [-1] * len(alternatives)
        place: dict[tuple[int, int, int], int] = {}
        hops: dict[tuple[int, int, int], dict[str, int]] = {}
        for s, key in enumerate(keys):
            t = position[key.alt]
            kind = key.kind
            if kind[0] == "n":
                if kind[1] == alternatives[t].root:
                    if kind[2] == agg.origin:
                        roots[t] = s
                else:
                    place[(t, child_at[t][kind[1]], node_index[kind[2]])] = s
            else:
                site = (t, child_at[t][kind[2]], node_index[kind[3]])
                hops.setdefault(site, {})[kind[4]] = s
        blank = [((-1, v), ()) for v in range(n_nodes)]
        sites = [[list(blank) for _ in a.preorder] for a in alternatives]
        for t, k, v in place.keys() | hops.keys():
            by_dst = hops.get((t, k, v), {})
            arcs = tuple(
                (by_dst[arc.dst], node_index[arc.dst])
                for arc in net.out_arcs[net.nodes[v].id]
                if arc.dst in by_dst
            )
            sites[t][k][v] = ((place.get((t, k, v), -1), v), arcs)
        links = [
            tuple(
                (0 if l.parent == a.root else child_at[t][l.parent] + 1, l.child, (l.parent, l.child))
                for l in a.preorder
            )
            for t, a in enumerate(alternatives)
        ]
        biggest = max((len(a.nodes) + len(a.links) for a in alternatives), default=1)
        return RoundingState(
            owner=agg.owner,
            demand=agg.demand,
            keys=keys,
            y=[v for _, v in kept],
            zeroed=bytearray(len(keys)),
            origin=node_index[agg.origin],
            roots=roots,
            sites=sites,
            links=links,
            routes=[None] * len(alternatives),
            initial_nonzero=len(keys),
            per_link_cap=max(1, n_nodes * len(net.arcs)),
            request_budget=max(1, _STEP_FACTOR * n_nodes * biggest),
        )

    def outcome(self, t: int, slots: tuple[int, ...]) -> tuple[int, Mapping, Mapping]:
        """(alternative index, node map, link map) of an accepted walk of
        alternative ``t`` that consumed ``slots``: the root's slot, then
        per link in preorder its arc slots and its child's placement
        slot.  Both maps are read-only and keep the walk's key order,
        the root first and then each link's child or pair in preorder."""
        keys = self.keys
        root = keys[slots[0]]
        node_map = {root.kind[1]: root.kind[2]}
        link_map = {}
        links = iter(self.links[t])
        path = []
        for s in slots[1:]:
            kind = keys[s].kind
            if kind[0] == "l":
                path.append(kind[3:])
            else:
                _, child, pair = next(links)
                node_map[child] = kind[2]
                link_map[pair] = tuple(path)
                path = []
        return root.alt, MappingProxyType(node_map), MappingProxyType(link_map)


def embed_request(
    r: Request, Y_residual: RoundingState, rng: np.random.Generator
) -> IntegralEmbedding:
    """Round one request against its aggregate's residual fractional
    solution; the walk reads the alternatives from the state's tables.
    ``rng`` serves uniforms in [0, 1) as :class:`_BlockUniforms` does:
    ``random()``, and ``skip(n)`` to drop the next ``n``.

    The walk: pick an alternative by weighted random selection over the
    root variables, embed the root at the origin, then route each
    virtual link in preorder — at each substrate node either place the
    link's child there (probability = placement mass / total local mass)
    or hop along an arc drawn by weighted random selection.  Every
    consumption subtracts the request's normalized demand from one
    variable; any insufficient residual zeroes that variable, restores
    all of this request's consumptions, and rejects the request.  A walk
    that reaches the per-link cap or the request budget is rejected
    before it takes another step, so no step count exceeds either.

    Each draw takes one ``rng.random()``, scales it by the options'
    weights summed in listed order, and takes the first positive weight
    whose running sum exceeds it, or the last positive one when float
    rounding leaves the draw at the total.  The walk records only the
    slots it consumes; an accepted request gets its outcome's shared
    maps (:meth:`RoundingState.outcome`).  An alternative with a route
    is replayed instead of walked, with ``rng.skip(n)`` dropping the
    draws the walk would have taken (the module docstring).
    """
    state = Y_residual
    y = state.y
    d = r.demand / state.demand
    consumed: list[int] = []
    steps = 1
    roots = state.roots
    total = 0.0
    for s in roots:
        if s >= 0:
            total += y[s]
    if total <= _DUST:
        return _reject(state, r, consumed, d, steps, "lp_exhausted_rejections")
    x = rng.random() * total
    acc = 0.0
    for t, s in enumerate(roots):
        if s >= 0 and y[s] > 0:
            pick = t
            acc += y[s]
            if x < acc:
                break
    slot = roots[pick]
    have = y[slot]
    if not d <= have + _SLACK:
        return _reject(state, r, consumed, d, steps, "rounding_rejections", slot)
    left = have - d
    y[slot] = left if left > 0.0 else 0.0  # max(0.0, left), without the call
    route = state.routes[pick]
    if route is not None:
        # the walk's own checks on the kept route, slot by slot; slot i is
        # the walk's step i + 1, and the draws the walk would have taken
        # are skipped
        slots, outcome = route
        state.replayed_walks += 1
        for i in range(1, len(slots)):
            slot = slots[i]
            have = y[slot]
            if have <= _DUST:
                rng.skip(i - 1)
                return _reject(state, r, slots[:i], d, i + 1, "stranded_rejections")
            if not d <= have + _SLACK:
                rng.skip(i)
                return _reject(state, r, slots[:i], d, i + 1, "rounding_rejections", slot)
            left = have - d
            y[slot] = left if left > 0.0 else 0.0
        steps = len(slots)
        rng.skip(steps - 1)
        state.accepted += 1
        state.total_steps += steps
        if steps > state.max_request_steps:
            state.max_request_steps = steps
        return IntegralEmbedding(r, *outcome)
    consumed.append(slot)
    per_link_cap = state.per_link_cap
    budget = state.request_budget
    at = [state.origin]  # substrate node of the root, then of each link's child
    fixed = True  # every site so far had one option with mass

    for link, sites in zip(state.links[pick], state.sites[pick]):
        v = at[link[0]]
        # a link's walk stops at its per-link cap or at the request budget
        stop = steps + per_link_cap
        if stop > budget:
            stop = budget
        while True:
            stay, arcs = sites[v]
            place = stay[0]
            if steps >= stop:
                return _reject(state, r, consumed, d, steps, "overflow_rejections", place)
            steps += 1
            # the placement option comes first, even at zero mass
            acc = total = y[place] if place >= 0 else 0.0
            options = 1 if total > 0.0 else 0
            for option in arcs:
                mass = y[option[0]]
                if mass > 0.0:
                    total += mass
                    options += 1
            if options != 1:
                fixed = False
            if total <= _DUST:
                return _reject(state, r, consumed, d, steps, "stranded_rejections")
            x = rng.random() * total
            slot, w = stay
            if not x < acc:
                for option in arcs:
                    mass = y[option[0]]
                    if mass > 0.0:
                        slot, w = option
                        acc += mass
                        if x < acc:
                            break
            have = y[slot]
            if not d <= have + _SLACK:
                return _reject(state, r, consumed, d, steps, "rounding_rejections", slot)
            left = have - d
            y[slot] = left if left > 0.0 else 0.0
            consumed.append(slot)
            if slot == place:
                break
            v = w
        at.append(v)

    state.accepted += 1
    state.total_steps += steps
    if steps > state.max_request_steps:
        state.max_request_steps = steps
    key = tuple(consumed)
    outcome = state.outcomes.get(key)
    if outcome is None:
        outcome = state.outcomes[key] = state.outcome(pick, key)
    if fixed:
        state.routes[pick] = (key, outcome)
    return IntegralEmbedding(r, *outcome)


def _reject(
    state: RoundingState,
    r: Request,
    consumed: list[int],
    d: float,
    steps: int,
    kind: str,
    zero_slot: int = -1,
) -> IntegralEmbedding:
    """End ``r``'s walk after ``steps`` steps as a rejection counted under
    ``kind``: zero ``zero_slot`` if there is one, and give every other
    consumed slot its ``d`` back (a zeroed slot stays zero)."""
    y, zeroed = state.y, state.zeroed
    if zero_slot >= 0:
        y[zero_slot] = 0.0
        zeroed[zero_slot] = 1
    for s in consumed:
        if not zeroed[s]:
            y[s] += d
    setattr(state, kind, getattr(state, kind) + 1)
    state.total_steps += steps
    if steps > state.max_request_steps:
        state.max_request_steps = steps
    return IntegralEmbedding.reject(r)

class _BlockUniforms:
    """A stream's ``random()`` served from blocks of :data:`_BLOCK` draws.

    For PCG64, ``random(n)`` returns the same doubles as ``n`` successive
    ``random()`` calls, so the draws are the stream's own.  The unused
    tail of the last block is dropped: nothing reads the stream after its
    aggregate.
    """

    __slots__ = ("_stream", "_block", "_next")

    def __init__(self, stream: np.random.Generator):
        self._stream = stream
        self._refill(())

    def _refill(self, draws) -> None:
        self._block = iter(draws)
        self._next = self._block.__next__

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            self._refill(self._stream.random(_BLOCK).tolist())
            return self._next()

    def skip(self, n: int) -> None:
        """Drop the next ``n`` draws, as ``n`` calls of :meth:`random`
        would, drawing new blocks as those calls would."""
        left = length_hint(self._block)
        while n > left:
            n -= left
            self._refill(self._stream.random(_BLOCK).tolist())
            left = _BLOCK
        next(islice(self._block, n, n), None)


@dataclass
class TantoReport:
    """Run statistics, including the fields needed to assert the
    theoretical guarantees (rejection-count bound, rejection-penalty
    gap, per-request step bound)."""

    lp_objective: float = 0.0
    lp_rejected_demand: float = 0.0
    aggregates: int = 0
    initial_nonzero_y: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_demand: float = 0.0
    rounding_rejections: int = 0
    stranded_rejections: int = 0
    lp_exhausted_rejections: int = 0
    overflow_rejections: int = 0
    max_request_steps: int = 0
    total_steps: int = 0
    # walks rounded by replaying a kept route (see the module docstring)
    replayed_walks: int = 0
    request_step_budget: int = 0
    per_link_step_cap: int = 0
    psi: float = 0.0
    psi_lp: float = 0.0
    psi_tanto: float = 0.0
    psi_gap_bound: float = 0.0
    rejection_bound_ok: bool = True
    psi_gap_ok: bool = True
    steps_ok: bool = True
    lp_runtime_s: float = 0.0
    rounding_runtime_s: float = 0.0
    # the process's CPU seconds over the span rounding_runtime_s times
    rounding_cpu_s: float = 0.0
    runtime_s: float = 0.0


def tanto(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    efficiency: EfficiencyMap,
    requests: Sequence[Request],
    psi: float,
    seed: int = 0,
) -> tuple[list[IntegralEmbedding], TantoReport]:
    """Embed all requests: solve the aggregate relaxation, then round it."""
    relaxation = solve_relaxation(net, apps, efficiency, requests, psi)
    return round_relaxation(net, apps, requests, relaxation, psi, seed)


def round_relaxation(
    net: SubstrateNetwork,
    apps: Mapping[str, Application],
    requests: Sequence[Request],
    relaxation: Relaxation,
    psi: float,
    seed: int = 0,
) -> tuple[list[IntegralEmbedding], TantoReport]:
    """Round a solved relaxation of ``requests``; the relaxation is only
    read, so callers may share it.

    Returns embeddings in the input request order plus a report carrying
    the LP objective and the counters for the guarantee assertions; its
    ``runtime_s`` counts the relaxation's seconds and the rounding's.
    Raises :class:`~vneap.lp.SolverError`, carrying the solver status,
    if the relaxation did not solve to optimality (with the rejection
    slack in the model this indicates a broken instance, not load).
    """
    sol, frac, lp_runtime_s = relaxation[:3]
    if frac is None:
        raise SolverError(sol.status, f"aggregate relaxation did not solve: {sol.status}")
    t0, c0 = time.perf_counter(), time.process_time()
    report = TantoReport(
        lp_objective=frac.objective,
        lp_rejected_demand=frac.total_rejected_demand,
        aggregates=len(frac.aggregates),
        psi=psi,
        lp_runtime_s=lp_runtime_s,
    )
    results: list[Optional[IntegralEmbedding]] = [None] * len(requests)
    by_owner: dict[str, dict[VariableKey, float]] = {}
    for key, value in frac.values.items():
        by_owner.setdefault(key.owner, {})[key] = value
    # each aggregate rounds its members in a seeded shuffle, on its own
    # random stream and variable slice, so aggregates never interact
    for agg in frac.aggregates:
        stream = _rng.stream(seed, "round", agg.origin, agg.app)
        alternatives = sorted(apps[agg.app].alternatives, key=lambda a: a.index)
        state = RoundingState.for_aggregate(
            net, agg, by_owner.get(agg.owner, {}), alternatives
        )
        uniforms = _BlockUniforms(stream)  # draws its first block after the shuffle
        for pos in stream.permutation(len(agg.members)).tolist():
            member = agg.members[pos]
            results[member] = embed_request(requests[member], state, uniforms)
        report.initial_nonzero_y += state.initial_nonzero
        report.accepted += state.accepted
        report.rounding_rejections += state.rounding_rejections
        report.stranded_rejections += state.stranded_rejections
        report.lp_exhausted_rejections += state.lp_exhausted_rejections
        report.overflow_rejections += state.overflow_rejections
        report.total_steps += state.total_steps
        report.replayed_walks += state.replayed_walks
        report.max_request_steps = max(report.max_request_steps, state.max_request_steps)
        report.request_step_budget = max(report.request_step_budget, state.request_budget)
        report.per_link_step_cap = max(report.per_link_step_cap, state.per_link_cap)
    report.rounding_runtime_s = time.perf_counter() - t0
    report.rounding_cpu_s = time.process_time() - c0
    embeddings = [e for e in results if e is not None]
    rejected = [e.request.demand for e in embeddings if e.rejected]
    report.rejected = len(rejected)
    report.rejected_demand = sum_in_order(rejected)

    report.psi_lp = psi * frac.total_rejected_demand
    report.psi_tanto = psi * report.rejected_demand
    d_max = max((r.demand for r in requests), default=0.0)
    used_apps = {g.app for g in frac.aggregates}
    catalog_size = sum(
        len(a.nodes) + len(a.links) for app in used_apps for a in apps[app].alternatives
    )
    report.psi_gap_bound = psi * d_max * len(net.nodes) * len(net.arcs) * catalog_size
    report.rejection_bound_ok = report.rounding_rejections <= report.initial_nonzero_y
    report.psi_gap_ok = (
        report.psi_tanto - report.psi_lp <= report.psi_gap_bound + 1e-6 * (1 + report.psi_gap_bound)
    )
    report.steps_ok = report.max_request_steps <= report.request_step_budget
    report.runtime_s = lp_runtime_s + time.perf_counter() - t0
    return embeddings, report
