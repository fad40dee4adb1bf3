"""Sequential cheapest-alternative embedding against residual capacity."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from vneap import greedy
from vneap.greedy import _BOUND_SHRINK, _EPS, _ChainSearch, greedy_embed_all
from vneap.model import (
    FORBIDDEN,
    AlternativeTopology,
    Application,
    EfficiencyMap,
    Request,
    SubstrateArc,
    SubstrateNetwork,
    SubstrateNode,
    VirtualLink,
    VirtualNode,
)
from vneap.validator import check_feasibility, load_vector, total_cost

from conftest import (
    BUNDLED,
    arnes_overloaded_instance,
    assert_maps_are_read_only,
    bench_instance,
    bundled_instance,
    pinned_runs,
    random_instance,
    recorded_embeddings,
    toy_apps,
    toy_net,
    unit_requests,
)
from oracle import chain_finish_costs, dijkstra_chain

PSI_TOY = 1050.0
RECORDED = Path(__file__).parent / "data" / "greedy_recorded.jsonl"
DIGESTS = Path(__file__).parent / "data" / "greedy_digests.json"


def theta_chain(size: float) -> AlternativeTopology:
    return AlternativeTopology(
        "probe",
        0,
        [VirtualNode("theta", 0.0), VirtualNode("f", size)],
        [VirtualLink("theta", "f", 100.0)],
        "theta",
    )


# -- whole-run behaviour -----------------------------------------------------


def test_abundant_capacity_picks_the_cheapest_option(toy):
    net, apps, eff = toy
    embeddings, report = greedy_embed_all(net, apps, eff, unit_requests(1), PSI_TOY, 0)
    (emb,) = embeddings
    assert emb.alternative == 0
    assert emb.node_map == {"theta": "E", "A": "C", "B": "C"}
    assert report.accepted == 1 and report.rejected == 0
    assert report.objective == pytest.approx(205.0)


def test_exhausted_core_forces_the_expensive_collocation():
    net = SubstrateNetwork(
        [SubstrateNode("E", 10.0, 1e12, "edge"), SubstrateNode("C", 1.0, 0.0, "core")],
        [SubstrateArc("E", "C", 1.0, 1e12), SubstrateArc("C", "E", 1.0, 1e12)],
    )
    embeddings, report = greedy_embed_all(
        net, toy_apps(), EfficiencyMap(), unit_requests(1), PSI_TOY, 0
    )
    (emb,) = embeddings
    assert emb.alternative == 0
    assert emb.node_map == {"theta": "E", "A": "E", "B": "E"}
    assert report.objective == pytest.approx(1050.0)


def test_link_bottleneck_splits_the_run_and_doubles_the_bill():
    """5000 units of uplink admit 50 cheap embeddings; the rest fall back
    to the expensive collocation, more than doubling the all-accelerated
    alternative's bill."""
    net, apps, eff = toy_net(link_cap=5000.0), toy_apps(), EfficiencyMap()
    requests = unit_requests(100)
    embeddings, report = greedy_embed_all(net, apps, eff, requests, PSI_TOY, 7)
    assert report.rejected == 0
    cheap = sum(1 for e in embeddings if e.node_map.get("B") == "C")
    expensive = sum(1 for e in embeddings if e.node_map.get("B") == "E")
    assert (cheap, expensive) == (50, 50)
    assert report.embed_cost == pytest.approx(50 * 205.0 + 50 * 1050.0)  # 62750
    all_accelerated = 100 * 280.0
    assert report.embed_cost > 2 * all_accelerated
    assert check_feasibility(net, apps, eff, embeddings) == []


def test_rejection_only_on_infeasibility():
    # f is too big for any node: every placement is forbidden by capacity
    net = toy_net(node_cap=50.0)
    apps = {"probe": Application("probe", (theta_chain(60.0),))}
    embeddings, report = greedy_embed_all(
        net, apps, EfficiencyMap(), [Request("E", "probe", 1.0)], 500.0, 0
    )
    assert embeddings[0].rejected
    assert report.rejected == 1
    assert report.rejected_demand == 1.0
    assert report.rejection_penalty == pytest.approx(500.0)
    assert report.objective == pytest.approx(500.0)


def test_equal_cost_alternatives_go_to_the_lower_index():
    """Two alternatives of one shape cost the same to the bit; listed in
    either order, greedy takes the one with the lower index."""

    def alt(index: int) -> AlternativeTopology:
        chain = theta_chain(5.0)
        return AlternativeTopology("probe", index, chain.nodes, chain.links, chain.root)

    for listed in ((0, 1), (1, 0)):
        apps = {"probe": Application("probe", tuple(alt(i) for i in listed))}
        requests = [Request("E", "probe", 1.0)]
        embeddings, report = greedy_embed_all(toy_net(), apps, EfficiencyMap(), requests, PSI_TOY, 0)
        assert embeddings[0].alternative == 0
        assert report.accepted == 1


# -- single-alternative search ------------------------------------------------


@dataclass
class Candidate:
    """One alternative as :meth:`_ChainSearch.price` embeds it, its chain
    moves turned into node and link maps; loads keyed by index."""

    node_map: dict
    link_map: dict
    cost: float
    node_loads: dict
    arc_loads: dict
    record: list


def residual_lists(search: _ChainSearch) -> tuple[list, ...]:
    """``search``'s residual: left and cap of the nodes, then of the arcs."""
    return search.node_left, search.node_cap, search.arc_left, search.arc_cap


def residual(search: _ChainSearch) -> tuple[list, ...]:
    """A snapshot of :func:`residual_lists`."""
    return tuple(map(list, residual_lists(search)))


def restore(search: _ChainSearch, snapshot: tuple[list, ...]) -> None:
    """Put a :func:`residual` snapshot back, in the same list objects
    (the accept plans hold them).  Only a residual the chain answers were
    found at may be put back: their watermarks assume it never grows."""
    for now, then in zip(residual_lists(search), snapshot):
        now[:] = then


def record_answers(record) -> list:
    """The chain answers (lists of moves) of a :meth:`_ChainSearch.price`
    record, in order."""
    return [entry[1] for entry in record[0]]


def checked_accept(search: _ChainSearch, alt, origin: int, demand: float, record):
    """:meth:`_ChainSearch.accept` of a priced record, checked against
    loads summed here from its chain answers: per node and arc index, the
    root's load and then each move's, ``demand * factor * coeff``, in
    order, zero loads left out.  The candidate must be refused, leaving
    the residual as it was, exactly when one of those loads exceeds its
    cap; otherwise the residual must have moved by exactly those loads
    (clipped at 0, the caps ``_EPS`` above) and nowhere else.  Returns
    None when refused, else (node map, link map, node loads, arc loads)."""
    root_row, root_size, *_ = search.plan(alt)
    loads: tuple[dict, dict] = ({}, {})  # per node index, per arc index
    load = demand * root_size * root_row[origin]
    if load:
        loads[0][origin] = load
    for moves in record_answers(record):
        for caps, i, factor, coeff, _, _ in moves:
            load = demand * factor * coeff
            if load:
                element = loads[caps is not search.node_cap]
                element[i] = element.get(i, 0.0) + load
    before = residual(search)
    fits = all(
        load <= before[2 * arc + 1][i] for arc in (0, 1) for i, load in loads[arc].items()
    )
    maps = _ChainSearch.accept(search, alt, origin, demand, record)
    assert (maps is not None) == fits
    if maps is None:
        assert residual(search) == before
        return None
    want = [list(r) for r in before]
    for arc in (0, 1):
        for i, load in loads[arc].items():
            rest = want[2 * arc][i] = max(0.0, before[2 * arc][i] - load)
            want[2 * arc + 1][i] = rest + _EPS
    assert residual(search) == tuple(want)
    return (*maps, *loads)


def embed_ids(search: _ChainSearch, alt, origin: str, demand: float):
    """``search.price`` of ``alt`` rooted at substrate node ``origin``, as
    a :class:`Candidate`, or None when it finds none or the candidate
    fails ``search.accept``'s cumulative recheck.  The residual is left
    as it was: the loads ``accept`` would take off it are kept instead."""
    o = search.node_index[origin]
    got = search.price(alt, o, demand)
    if got is None:
        return None
    cost, record = got
    before = residual(search)
    taken = checked_accept(search, alt, o, demand, record)
    restore(search, before)
    if taken is None:
        return None
    node_map, link_map, node_loads, arc_loads = taken
    return Candidate(node_map, link_map, cost, node_loads, arc_loads, record)


def embed_one(net, alt, eff=None):
    """One alternative embedded at E with unit demand on a fresh search."""
    return embed_ids(_ChainSearch(net, eff or EfficiencyMap()), alt, "E", 1.0)


def test_chain_collocates_when_the_function_is_small():
    net = toy_net()
    cand = embed_one(net, theta_chain(5.0))
    assert cand.node_map == {"theta": "E", "f": "E"}
    assert cand.link_map == {("theta", "f"): ()}
    assert cand.cost == pytest.approx(50.0)  # 5*10 beats 5*1 + 100*1


def test_chain_crosses_to_the_core_when_the_function_is_large():
    net = toy_net()
    cand = embed_one(net, theta_chain(100.0))
    assert cand.node_map == {"theta": "E", "f": "C"}
    assert cand.link_map == {("theta", "f"): (("E", "C"),)}
    assert cand.cost == pytest.approx(200.0)  # 100*1 + 100*1 beats 100*10


def test_single_node_alternative_is_free():
    net = toy_net()
    alt = AlternativeTopology("a", 0, [VirtualNode("r", 0.0)], [], "r")
    cand = embed_one(net, alt)
    assert cand.node_map == {"r": "E"}
    assert cand.link_map == {}
    assert cand.cost == 0.0


def test_fully_forbidden_function_yields_none():
    net = toy_net()
    eff = EfficiencyMap(node_coeffs={("f", "E"): FORBIDDEN, ("f", "C"): FORBIDDEN})
    cand = embed_one(net, theta_chain(5.0), eff)
    assert cand is None


def test_forbidden_uplink_forces_collocation_at_the_origin():
    """Crossing to C costs 100*1 + 100*1 = 200 and collocating 100*10 =
    1000, but the link may not use E->C at all."""
    net = toy_net()
    eff = EfficiencyMap(link_coeffs={(("theta", "f"), ("E", "C")): FORBIDDEN})
    cand = embed_one(net, theta_chain(100.0), eff)
    assert cand.node_map == {"theta": "E", "f": "E"}
    assert cand.link_map == {("theta", "f"): ()}
    assert cand.cost == 1000.0


def detour_net() -> SubstrateNetwork:
    """E (cost 10) and C (cost 1) joined directly (arc cost 1) and through
    M (cost 10, arcs of cost 0.75)."""
    arcs = []
    for u, v, cost in (("E", "C", 1.0), ("E", "M", 0.75), ("M", "C", 0.75)):
        arcs += [SubstrateArc(u, v, cost, 1e12), SubstrateArc(v, u, cost, 1e12)]
    nodes = [SubstrateNode(v, cost, 1e12) for v, cost in (("E", 10.0), ("M", 10.0), ("C", 1.0))]
    return SubstrateNetwork(nodes, arcs)


def test_reweighted_link_takes_the_detour():
    """f (size 100) goes to C either way.  The direct hop carries 100
    units at cost 1 (total 200) against 100 * 0.75 twice through M
    (total 250); a coefficient of 3 on E->C makes the direct hop cost
    300, so the detour wins at 250."""
    net = detour_net()
    plain = embed_one(net, theta_chain(100.0))
    assert plain.link_map == {("theta", "f"): (("E", "C"),)}
    assert plain.cost == 200.0
    eff = EfficiencyMap(link_coeffs={(("theta", "f"), ("E", "C")): 3.0})
    search = _ChainSearch(net, eff)
    cand = embed_ids(search, theta_chain(100.0), "E", 1.0)
    assert cand.node_map == {"theta": "E", "f": "C"}
    assert cand.link_map == {("theta", "f"): (("E", "M"), ("M", "C"))}
    assert cand.cost == 250.0
    arc_loads = {search.pairs[a]: load for a, load in cand.arc_loads.items()}
    assert arc_loads == {("E", "M"): 100.0, ("M", "C"): 100.0}


def test_shared_virtual_ids_keep_their_own_sizes():
    """Two apps name their function f and their link theta->f alike, with
    one coefficient 2 for f on C.  small (f 5, link 100) collocates at E
    for 5*10 = 50 (crossing: 5*2*1 + 100 = 110); large (f 100, link 50)
    crosses for 100*2*1 + 50 = 250 (collocating: 1000)."""

    def app(name: str, func: float, link: float) -> Application:
        alt = AlternativeTopology(
            name,
            0,
            [VirtualNode("theta", 0.0), VirtualNode("f", func)],
            [VirtualLink("theta", "f", link)],
            "theta",
        )
        return Application(name, (alt,))

    apps = {"small": app("small", 5.0, 100.0), "large": app("large", 100.0, 50.0)}
    eff = EfficiencyMap(node_coeffs={("f", "C"): 2.0})
    requests = [Request("E", "small", 1.0), Request("E", "large", 1.0)]
    for order_seed in (0, 1):
        embeddings, report = greedy_embed_all(toy_net(), apps, eff, requests, 500.0, order_seed)
        assert [e.node_map["f"] for e in embeddings] == ["E", "C"]
        assert report.objective == 300.0


def test_a_load_within_eps_of_the_residual_takes_it_to_zero():
    """f's load on E exceeds E's one unit by less than ``_EPS``: it fits,
    and takes E's residual to 0, not below."""
    search = _ChainSearch(toy_net(node_cap=1.0), EfficiencyMap())
    alt = theta_chain(1.0 + _EPS / 2)
    e = search.node_index["E"]
    _, record = search.price(alt, e, 1.0)
    node_map, *_ = checked_accept(search, alt, e, 1.0, record)
    assert node_map == {"theta": "E", "f": "E"}  # 10 * f beats 100 + f
    assert search.node_left[e] == 0.0 and search.node_cap[e] == _EPS


def test_loads_on_a_shared_arc_are_summed_in_move_order():
    """theta at E has three children that may only sit on C, so all
    three links cross E->C, sized 1, 2**-53 and 2**-53.  Summed in move
    order, (1 + 2**-53) + 2**-53 rounds to 1; the other way round it
    would be 1 + 2**-52.  Of the arc's 1.5 units, exactly 0.5 are left."""
    kids = ("a", "b", "c")
    alt = AlternativeTopology(
        "fan",
        0,
        [VirtualNode("theta", 0.0), *(VirtualNode(k, 1.0) for k in kids)],
        [VirtualLink("theta", k, size) for k, size in zip(kids, (1.0, 2.0**-53, 2.0**-53))],
        "theta",
    )
    eff = EfficiencyMap(node_coeffs={(k, "E"): FORBIDDEN for k in kids})
    search = _ChainSearch(toy_net(link_cap=1.5), eff)
    e, arc = search.node_index["E"], search.arc_index[("E", "C")]
    _, record = search.price(alt, e, 1.0)
    node_map, _, _, arc_loads = checked_accept(search, alt, e, 1.0, record)
    assert node_map == {"theta": "E", "a": "C", "b": "C", "c": "C"}
    assert arc_loads == {arc: 1.0}
    assert search.arc_left[arc] == 0.5


# -- invariants over random instances -----------------------------------------


@pytest.mark.parametrize("seed", [2, 5, 8, 13, 21])
def test_accepted_prefix_is_always_feasible(seed):
    net, apps, eff, requests, psi = random_instance(seed)
    embeddings, report = greedy_embed_all(net, apps, eff, requests, psi, seed)
    assert check_feasibility(net, apps, eff, embeddings) == []
    # cumulative capacity safety along the processing order
    done = []
    for pos in report.order:
        done.append(embeddings[pos])
        assert check_feasibility(net, apps, eff, done) == []


@pytest.mark.parametrize("seed", [3, 6, 10])
def test_each_choice_is_the_argmin_over_alternatives(seed):
    """Replaying the run must reproduce every decision: the chosen
    alternative's cost is minimal at its decision point, ties going to
    the lower index."""
    net, apps, eff, requests, psi = random_instance(seed)
    embeddings, report = greedy_embed_all(net, apps, eff, requests, psi, seed)
    replay = _ChainSearch(net, eff)
    for pos in report.order:
        req, emb = requests[pos], embeddings[pos]
        candidates = {}
        for alt in apps[req.app].alternatives:
            cand = embed_ids(replay, alt, req.origin, req.demand)
            if cand is not None:
                candidates[alt.index] = cand
        if emb.rejected:
            assert candidates == {}
            continue
        chosen = candidates[emb.alternative]
        best_cost = min(c.cost for c in candidates.values())
        assert chosen.cost == pytest.approx(best_cost, rel=1e-12)
        assert emb.alternative == min(
            t for t, c in candidates.items() if c.cost <= best_cost * (1 + 1e-12)
        )
        assert emb.node_map == chosen.node_map
        origin = replay.node_index[req.origin]
        chosen_alt = next(alt for alt in apps[req.app].alternatives if alt.index == emb.alternative)
        assert checked_accept(replay, chosen_alt, origin, req.demand, chosen.record) is not None


class RecordingSearch(_ChainSearch):
    """A chain search whose every :meth:`accept` runs through
    :func:`checked_accept` and is logged: (node left, arc left, result)
    after the call, the result None or :func:`checked_accept`'s."""

    def __init__(self, *args):
        super().__init__(*args)
        self.taken: list[tuple] = []

    def accept(self, alt, origin, demand, record):
        got = checked_accept(self, alt, origin, demand, record)
        self.taken.append((list(self.node_left), list(self.arc_left), got))
        return None if got is None else got[:2]


def recorded_searches(monkeypatch) -> list[RecordingSearch]:
    """Make greedy run on :class:`RecordingSearch`; returns the list each
    run's search is appended to."""
    searches = []

    def made(*args):
        searches.append(RecordingSearch(*args))
        return searches[-1]

    monkeypatch.setattr(greedy, "_ChainSearch", made)
    return searches


@pytest.mark.parametrize("seed", [4, 11])
def test_residuals_never_increase(monkeypatch, seed):
    """Along a whole greedy run, every accept leaves each node's and arc's
    residual at most what it was, never below 0, and its cap ``_EPS``
    above it."""
    net, apps, eff, requests, psi = random_instance(seed)
    searches = recorded_searches(monkeypatch)
    _, report = greedy_embed_all(net, apps, eff, requests, psi, seed)
    (search,) = searches
    assert sum(got is not None for *_, got in search.taken) == report.accepted > 0
    previous_node = [n.capacity for n in net.nodes]
    previous_arc = [a.capacity for a in net.arcs]
    for node_left, arc_left, _ in search.taken:
        assert all(now <= before + 1e-12 for now, before in zip(node_left, previous_node))
        assert all(now <= before + 1e-12 for now, before in zip(arc_left, previous_arc))
        assert all(v >= 0.0 for v in node_left + arc_left)
        previous_node, previous_arc = node_left, arc_left
    assert search.node_cap == [v + _EPS for v in search.node_left]
    assert search.arc_cap == [v + _EPS for v in search.arc_left]


def test_fixed_seed_reproduces_the_run():
    net, apps, eff, requests, psi = random_instance(23)
    first, r1 = greedy_embed_all(net, apps, eff, requests, psi, 99)
    second, r2 = greedy_embed_all(net, apps, eff, requests, psi, 99)
    assert r1.order == r2.order
    assert r1.objective == r2.objective
    assert [
        (e.alternative, dict(e.node_map), dict(e.link_map)) for e in first
    ] == [(e.alternative, dict(e.node_map), dict(e.link_map)) for e in second]


def test_requests_embedded_by_the_same_answers_share_read_only_maps():
    """Maps are built once per :meth:`_ChainSearch.price` record: pricing
    again at the same demand and residual returns the same record, whose
    maps are the same objects, and a record holding equal copies of its
    answers gets new, equal ones.  On the overloaded arnes_si run,
    requests share map objects (one origin and alternative per pair of
    objects), and neither map takes item assignment."""
    net, apps, eff, requests, psi = arnes_overloaded_instance()
    embeddings, _ = greedy_embed_all(net, apps, eff, requests, psi, 5)
    accepted = [e for e in embeddings if not e.rejected]
    holders: dict[int, list] = {}
    for e in accepted:
        holders.setdefault(id(e.node_map), []).append(e)
    assert max(len(group) for group in holders.values()) > 1
    for first, *rest in holders.values():
        for e in rest:
            assert e.link_map is first.link_map
            assert (e.request.origin, e.alternative) == (first.request.origin, first.alternative)
    assert_maps_are_read_only(accepted)

    search = _ChainSearch(net, eff)
    alt = apps["cctv"].alternatives[0]
    origin = search.node_index[requests[0].origin]
    demand = requests[0].demand
    _, record = search.price(alt, origin, demand)
    before = residual(search)

    def maps_of(priced):
        maps = checked_accept(search, alt, origin, demand, priced)[:2]
        restore(search, before)
        return maps

    maps = maps_of(record)
    assert search.price(alt, origin, demand)[1] is record
    assert all(a is b for a, b in zip(maps_of(record), maps))
    copied = [[[mark, list(moves), *rest] for mark, moves, *rest in record[0]], None]
    copies = maps_of(copied)
    assert copies == maps and not any(a is b for a, b in zip(copies, maps))


def test_report_cost_matches_validator():
    net, apps, eff, requests, psi = random_instance(31)
    embeddings, report = greedy_embed_all(net, apps, eff, requests, psi, 31)
    breakdown = total_cost(net, apps, eff, embeddings, psi)
    assert breakdown.total == pytest.approx(report.objective, rel=1e-9)


# -- pinned output ------------------------------------------------------------


def recorded_form(name, embeddings, report) -> dict:
    """A run as the fixture stores it: its embeddings plus the objective."""
    return {
        "name": name,
        "objective": report.objective,
        "embeddings": recorded_embeddings(embeddings),
    }


def test_output_matches_the_recorded_run():
    """Greedy's embeddings and objective equal, exactly, those recorded
    from an earlier implementation of the same search (30 random instances
    and an overloaded arnes_si run with link coefficients)."""
    recorded = [json.loads(line) for line in RECORDED.read_text().splitlines()]
    runs = list(pinned_runs())
    assert [r["name"] for r in recorded] == [name for name, _, _ in runs]
    for (name, (net, apps, eff, requests, psi), order_seed), want in zip(runs, recorded):
        embeddings, report = greedy_embed_all(net, apps, eff, requests, psi, order_seed)
        got = json.loads(json.dumps(recorded_form(name, embeddings, report)))
        assert got == want, name


def run_digest(embeddings, report) -> str:
    """SHA-256 of a greedy run: its embeddings as the recorded fixtures
    store them, the report's costs to the bit and its counters."""
    form = {
        "embeddings": recorded_embeddings(embeddings),
        "embed_cost": report.embed_cost.hex(),
        "objective": report.objective.hex(),
        "rejected_demand": report.rejected_demand.hex(),
        "counters": [report.accepted, report.rejected, report.chain_searches, report.chain_reuses],
    }
    return hashlib.sha256(json.dumps(form, sort_keys=True).encode()).hexdigest()


DIGESTED_RUNS = {
    "arnes_si-1000": (lambda: bench_instance("arnes_si", 1000), 1),
    "amres_rs-12000": (lambda: bench_instance("amres_rs", 12000), 1),
    "dfn_de-cctv_four-3000": (lambda: bundled_instance("dfn_de", "cctv_four", 3000), 3),
}


@pytest.mark.parametrize("name", list(DIGESTED_RUNS))
def test_bench_scale_runs_match_the_recorded_digests(name):
    """Greedy on both benchmark-shaped instances and on dfn_de with
    cctv_four's four alternatives (where the cheapest candidate is often
    refused by the cumulative recheck) gives, to the bit, the embeddings,
    costs and search counters recorded from an earlier implementation."""
    make, order_seed = DIGESTED_RUNS[name]
    embeddings, report = greedy_embed_all(*make(), order_seed)
    assert run_digest(embeddings, report) == json.loads(DIGESTS.read_text())[name]


def test_consumed_loads_equal_the_validators(monkeypatch):
    """Over pinned runs, the loads greedy takes off the residual for each
    accepted request, summed from its accept plan, equal the validator's
    load vector of the embedding it returns, keyed by the same node and
    arc indices (rel 1e-12)."""
    searches = recorded_searches(monkeypatch)
    checked = 0
    for _, (net, apps, eff, requests, psi), order_seed in pinned_runs():
        searches.clear()
        embeddings, report = greedy_embed_all(net, apps, eff, requests, psi, order_seed)
        (search,) = searches
        consumed = [got[2:] for *_, got in search.taken if got is not None]
        accepted = [embeddings[pos] for pos in report.order if not embeddings[pos].rejected]
        assert len(consumed) == len(accepted) == report.accepted
        for (node_loads, arc_loads), emb in zip(consumed, accepted):
            want = load_vector(net, apps, eff, [emb])
            node_want = {search.node_index[v]: x for v, x in want.node.items()}
            arc_want = {search.arc_index[arc]: x for arc, x in want.arc.items()}
            assert node_loads == pytest.approx(node_want, rel=1e-12)
            assert arc_loads == pytest.approx(arc_want, rel=1e-12)
            checked += 1
    assert checked > 300


# -- the A* chain search --------------------------------------------------------


def descending_chains(alt: AlternativeTopology) -> list:
    """Reference split of ``alt`` into maximal downward chains, in
    preorder, by recursive descent: (start function, links) per chain,
    each starting at the root or at an earlier chain's end."""
    out = []

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


def planned_chains(search: _ChainSearch, alt: AlternativeTopology) -> list:
    """``search``'s plan of ``alt`` as (start function, links) per chain."""
    chains = search.plan(alt)[2]
    out = []
    for j, (start, steps, _) in enumerate(chains):
        assert start <= j
        start_func = alt.root if start == 0 else chains[start - 1][1][-1][0].child
        out.append((start_func, [step[0] for step in steps]))
    return out


def finishing_costs(search: _ChainSearch, alt: AlternativeTopology, steps) -> list[float]:
    """The bound table of the chain ``steps`` of ``alt`` before the
    shrink: the pricing's distances at zero duals (prices the costs)
    over the chain's links, then zeros for the last layer."""
    pricing = search.pricing
    chain = [entry for step in steps for entry in pricing.plan(alt)[1] if entry[0] is step[0]]
    _, runs = pricing.distances(alt, chain, pricing.node_cost, pricing.arc_cost)
    return [h for dist, _ in runs for h in dist.tolist()] + [0.0] * len(search.ids)


def test_bound_table_is_the_uncapacitated_finishing_cost():
    """The plan's chains, split from the link preorder, are a recursive
    descent's, and every state's entry of their bound tables equals an
    independent Bellman–Ford over the layered graph exactly (+inf
    together) before the shrink, and is never above it after.  The
    instances cover forbidden placements and links, reweighted
    coefficients, branching alternatives with several chains, and a
    function forbidden everywhere."""
    forbidden_f = EfficiencyMap(node_coeffs={("f", "E"): FORBIDDEN, ("f", "C"): FORBIDDEN})
    instances = [random_instance(seed)[:3] for seed in range(30)]
    instances.append(arnes_overloaded_instance()[:3])
    instances.append((toy_net(), {"probe": Application("probe", (theta_chain(5.0),))}, forbidden_f))
    states = infinite = multi_chain = 0
    for net, apps, eff in instances:
        search = _ChainSearch(net, eff)
        ids = search.ids
        for app in apps.values():
            for alt in app.alternatives:
                chains = search.plan(alt)[2]
                split = descending_chains(alt)
                assert planned_chains(search, alt) == split
                multi_chain += len(chains) > 1
                for (_, steps, bound), (_, links) in zip(chains, split):
                    want = chain_finish_costs(net, alt, eff, links)
                    exact = finishing_costs(search, alt, steps)
                    assert len(exact) == len(bound) == len(want)
                    for (m, v), cost in want.items():
                        i = m * len(ids) + search.node_index[v]
                        if cost == math.inf:
                            assert exact[i] == bound[i] == math.inf
                            infinite += 1
                        else:
                            assert exact[i] == cost
                            assert bound[i] <= cost
                        states += 1
    assert states > 1000 and infinite > 0 and multi_chain > 0


def listed_remaining_cost(search: _ChainSearch, steps) -> list[float]:
    """The bound table of the chain ``steps`` built independently of the
    pricing: the reversed layered graph's moves listed one by one in
    Python, then one Dijkstra run from its sink."""
    n, k = len(search.ids), len(steps)
    sink = (k + 1) * n
    moves = [(sink, k * n + v, 0.0) for v in range(n)]  # (from, to, cost)
    for m, (link, size, node_row, link_row) in enumerate(steps):
        base = m * n
        for v, coeff in enumerate(node_row):
            if coeff is not FORBIDDEN:
                moves.append((base + n + v, base + v, size * coeff * search.node_cost[v]))
        for u, arcs in enumerate(search.out):
            for w, a, arc_cost in arcs:
                if link_row[a] is not FORBIDDEN:
                    moves.append((base + w, base + u, link.size * link_row[a] * arc_cost))
    heads, tails, costs = zip(*moves)
    graph = sparse.csr_matrix((costs, (heads, tails)), shape=(sink + 1, sink + 1))
    return dijkstra(graph, directed=True, indices=sink)[:sink].tolist()


def test_shared_layered_graph_gives_the_listed_bound_table_to_the_bit():
    """Every chain's bound table, the pricing DP's at zero duals, on the
    random instances, the overloaded arnes_si fixture (reweighted and
    forbidden links), every bundled topology with every bundled catalog
    and a function forbidden on both toy nodes, equals the one the
    listed moves of the layered graph give, bit for bit."""
    forbidden_f = EfficiencyMap(node_coeffs={("f", "E"): FORBIDDEN, ("f", "C"): FORBIDDEN})
    instances = [random_instance(seed)[:3] for seed in range(30)]
    instances.append(arnes_overloaded_instance()[:3])
    instances += [bundled_instance(topology, catalog, 10)[:3] for topology, catalog in BUNDLED]
    instances.append((toy_net(), {"probe": Application("probe", (theta_chain(5.0),))}, forbidden_f))
    tables = 0
    for net, apps, eff in instances:
        search = _ChainSearch(net, eff)
        for app in apps.values():
            for alt in app.alternatives:
                for _, steps, bound in search.plan(alt)[2]:
                    want = listed_remaining_cost(search, steps)
                    exact = finishing_costs(search, alt, steps)
                    assert [h.hex() for h in exact] == [h.hex() for h in want]
                    assert [h.hex() for h in bound] == [(h * _BOUND_SHRINK).hex() for h in want]
                    tables += 1
    assert tables > 100


def chain_ids(search: _ChainSearch, steps, got):
    """A chain answer, (moves, cost) or None, as (placements, paths,
    cost) keyed by ids, as ``dijkstra_chain`` returns it."""
    if got is None:
        return None
    moves, cost = got
    placements = {}
    paths = {(step[0].parent, step[0].child): [] for step in steps}
    for caps, i, _, _, _, link in moves:
        if caps is search.node_cap:
            placements[link.child] = search.ids[i]
        else:
            assert caps is search.arc_cap
            paths[(link.parent, link.child)].append(search.pairs[i])
    return placements, {pair: tuple(path) for pair, path in paths.items()}, cost


# the methods themselves, as the tests below wrap them
PRICE = _ChainSearch.price


def priced_chains(search: _ChainSearch, alt, origin: int, calls: int) -> list:
    """The chains the last :meth:`_ChainSearch.price` of ``alt`` at node
    index ``origin`` embedded, as (steps, bound, start node index, entry)
    in order, read from its record: its entries up to the first without
    an answer.  ``calls`` is the number of chain calls that price counted
    (searches plus reuses): there must be exactly that many, each entry
    found at the node its chain starts on."""
    _, _, chains, records = search.plan(alt)
    entries = [] if records[origin] is None else records[origin][0]
    placed = [origin]  # the root's node, then each chain's last function's
    out = []
    for (start, steps, bound), entry in zip(chains, entries):
        assert entry[3] == placed[start]
        out.append((steps, bound, placed[start], entry))
        if entry[1] is None:
            break
        placed.append(entry[1][-1][1])
    assert len(out) == calls
    return out


def answer_at(entry, demand: float):
    """A record entry's answer as :meth:`_ChainSearch.price` reads it at
    ``demand``: (moves, cost), the cost summed move by move
    as the search sums ``dist[]``, or None."""
    if entry[1] is None:
        return None
    cost = 0.0
    for _, _, factor, coeff, unit, _ in entry[1]:
        cost = cost + demand * factor * coeff * unit
    return entry[1], cost


def test_a_star_returns_what_dijkstra_returns(monkeypatch):
    """Replaying every pinned run, each chain answer a pricing returns,
    searched or reused, has the same placements, paths and cost, to the
    bit, as a plain Dijkstra over the same residual capacities, or None
    in both."""
    seen = {"calls": 0, "none": 0}

    def checked(self, alt, origin, demand):
        calls = self.chain_searches + self.chain_reuses
        got = PRICE(self, alt, origin, demand)
        calls = self.chain_searches + self.chain_reuses - calls
        for steps, _, start, entry in priced_chains(self, alt, origin, calls):
            answer = answer_at(entry, demand)
            translated = chain_ids(self, steps, answer)
            want = dijkstra_chain(self, steps, start, demand)
            assert translated == want
            if answer is not None:
                assert translated[2].hex() == want[2].hex()
            seen["calls"] += 1
            seen["none"] += answer is None
        return got

    monkeypatch.setattr(_ChainSearch, "price", checked)
    for _, (net, apps, eff, requests, psi), order_seed in pinned_runs():
        greedy_embed_all(net, apps, eff, requests, psi, order_seed)
    assert seen["calls"] > 1000 and seen["none"] > 0


# -- reused chain answers -------------------------------------------------------


def same_answer(search: _ChainSearch, steps, got, want) -> bool:
    """Equal moves, placements and paths and the same cost to the bit, or
    None in both."""
    if got is None or want is None:
        return got is want
    got_ids, want_ids = chain_ids(search, steps, got), chain_ids(search, steps, want)
    return got[0] == want[0] and got_ids[:2] == want_ids[:2] and got[1].hex() == want[1].hex()


def fresh_answer(search: _ChainSearch, steps, bound, start, demand):
    """What a new A* search on ``search``'s tables and residual returns,
    as (moves, cost) or None, the cost as :meth:`_ChainSearch.price`
    replays it."""
    entry = [demand, *search._search(steps, bound, start, demand), start]
    return None if entry[1] is None else (entry[1], search._replay(entry, demand))


@pytest.mark.parametrize(
    "workload", ["random", "arnes_si-1000", "amres_rs-12000", "dfn_de-cctv_four-3000"]
)
def test_reused_answers_equal_a_fresh_search(monkeypatch, workload):
    """Every chain answer a pricing reuses from its record equals, to the
    bit, what a new search on the same tables and residual returns, over
    whole greedy runs: random instances 0-29 (branching alternatives and
    tight capacities among them), each also with its requests repeated
    four times, instances shaped like both benchmark workloads, and dfn_de
    with cctv_four's four alternatives, where the cheapest candidate is
    often refused and answers are often searched again.  Each priced
    cost is its chains' costs summed in order.  The reports count every
    chain call as a search or a reuse.  The random runs reuse answers
    below and above their watermark, and for a chain that did not fit
    (None) as well as one that did."""
    if workload == "random":
        runs = []
        for seed in range(30):
            net, apps, eff, requests, psi = random_instance(seed)
            runs.append(((net, apps, eff, requests, psi), seed))
            runs.append(((net, apps, eff, requests * 4, psi), seed))
    elif workload == "dfn_de-cctv_four-3000":
        runs = [(bundled_instance("dfn_de", "cctv_four", 3000), 3)]
    else:
        topology, count = workload.split("-")
        runs = [(bench_instance(topology, int(count)), 1)]
    seen = {"calls": 0, "reused": 0}
    kinds = set()
    # per entry a pricing has held: (the entry, its watermark after that pricing)
    known: dict[int, tuple] = {}

    def checked(self, alt, origin, demand):
        searches, reuses = self.chain_searches, self.chain_reuses
        got = PRICE(self, alt, origin, demand)
        calls = self.chain_searches - searches + self.chain_reuses - reuses
        cost, reused = 0.0, 0
        priced = priced_chains(self, alt, origin, calls)
        for steps, bound, start, entry in priced:
            answer = answer_at(entry, demand)
            if id(entry) in known:
                reused += 1
                mark = known[id(entry)][1]
                kinds.add(("lower" if demand < mark else "higher", answer is None))
                want = fresh_answer(self, steps, bound, start, demand)
                assert same_answer(self, steps, answer, want)
            assert entry[0] <= demand
            known[id(entry)] = (entry, entry[0])
            if answer is not None:
                cost += answer[1]
        assert reused == self.chain_reuses - reuses
        root_row, _, chains, _ = self.plan(alt)
        if got is None:  # the last chain has no answer, or the root cannot sit at the origin
            assert priced[-1][3][1] is None if priced else root_row[origin] is FORBIDDEN
        else:
            assert len(priced) == len(chains) and got[0].hex() == cost.hex()
        seen["calls"] += calls
        seen["reused"] += reused
        return got

    monkeypatch.setattr(_ChainSearch, "price", checked)
    searches = reuses = 0
    for instance, seed in runs:
        _, report = greedy_embed_all(*instance, seed)
        searches += report.chain_searches
        reuses += report.chain_reuses
    assert searches + reuses == seen["calls"] and reuses == seen["reused"]
    if workload == "random":
        assert {("lower", False), ("higher", False), ("higher", True)} <= kinds
    else:
        # most calls repeat the last answer of their chain for that alternative and origin
        assert reuses > 0.75 * seen["calls"]


def two_step_chain() -> AlternativeTopology:
    """theta -> f (size 100, link 100) -> g (size 20, link 40)."""
    return AlternativeTopology(
        "probe",
        0,
        [VirtualNode("theta", 0.0), VirtualNode("f", 100.0), VirtualNode("g", 20.0)],
        [VirtualLink("theta", "f", 100.0), VirtualLink("f", "g", 40.0)],
        "theta",
    )


def finite_detour_net() -> SubstrateNetwork:
    """:func:`detour_net` with 400 units on every node and arc."""
    net = detour_net()
    return SubstrateNetwork(
        [SubstrateNode(n.id, n.cost, 400.0) for n in net.nodes],
        [SubstrateArc(a.src, a.dst, a.cost, 400.0) for a in net.arcs],
    )


@settings(max_examples=80, deadline=None)
@given(
    taken=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    calls=st.lists(
        st.tuples(st.floats(0.05, 4.0), st.integers(0, 8), st.floats(0.0, 0.5)),
        min_size=1,
        max_size=12,
    ),
)
def test_reuse_on_random_residuals_and_demands(taken, calls):
    """On a drawn residual, a drawn sequence of demands (each call
    followed by a drawn cut to one node or arc) gets from the priced
    record what a new search returns, and leaves the watermark at or
    below the demand.  Then, after a call at a demand nothing fits at, a
    demand below it at which a refused move fits is a miss: the chain is
    searched again."""
    alt = two_step_chain()
    search = _ChainSearch(finite_detour_net(), EfficiencyMap())
    n = len(search.ids)

    def cut(element: int, fraction: float) -> None:
        if element < n:
            left, caps, i = search.node_left, search.node_cap, element
        else:
            left, caps, i = search.arc_left, search.arc_cap, element - n
        rest = left[i] = max(0.0, left[i] - left[i] * fraction)
        caps[i] = rest + _EPS

    def checked_price(demand: float) -> None:
        got = search.price(alt, start, demand)
        entry, = search.plan(alt)[3][start][0]
        answer = answer_at(entry, demand)
        want = fresh_answer(search, steps, bound, start, demand)
        assert same_answer(search, steps, answer, want)
        assert got is None if want is None else got[0].hex() == want[1].hex()
        assert entry[0] <= demand

    for element, fraction in enumerate(taken):
        cut(element, fraction)
    (_, steps, bound), = search.plan(alt)[2]
    start = search.node_index["E"]
    for demand, element, fraction in calls:
        checked_price(demand)
        cut(element, fraction)
    # nothing fits at this demand, so the entry now holds a None answer
    # (found by this call or reused) and the moves its search refused
    assert search.price(alt, start, 1e6) is None
    (mark, moves, refused, _), = search.plan(alt)[3][start][0]
    assert moves is None and refused
    caps, i, factor, coeff = refused[0]
    demand = caps[i] / (factor * coeff) / 2
    assert demand < mark and demand * factor * coeff <= caps[i]
    searches = search.chain_searches
    checked_price(demand)
    assert search.chain_searches == searches + 1


def test_a_branch_chain_is_searched_again_where_its_start_moved():
    """Random instance 11's first alternative branches at f0: chains
    [f1, f2] and [f3] start where f0 sits.  Priced at origin 0 (demand
    3), f0 sits on node 1 and [f3] hops to node 2; the record's accept
    plan is built.  Once node 1 is full, f0 moves to node 0, so both
    branch chains are searched again from there, even the [f3] entry
    found at node 1, which would still replay.  The record's accept plan
    and maps are rebuilt from the new answers, and the answer equals a
    new search's."""
    net, apps, eff, _, _ = random_instance(11)
    alt = apps["app"].alternatives[0]
    search = _ChainSearch(net, eff)
    assert [start for start, *_ in search.plan(alt)[2]] == [0, 1, 1]
    _, record = search.price(alt, 0, 3.0)
    before = residual(search)
    maps = checked_accept(search, alt, 0, 3.0, record)[:2]
    restore(search, before)
    assert maps[0]["f0"] == "s1" and maps[1][("f0", "f3")] == (("s1", "s2"),)
    old = list(record[0])
    assert [entry[3] for entry in old] == [0, 1, 1]
    search.node_left[1] = 0.0
    search.node_cap[1] = _EPS
    assert search._replay(old[2], 3.0) is not None
    searches, reuses = search.chain_searches, search.chain_reuses
    cost, again = search.price(alt, 0, 3.0)
    assert again is record and record[1] is None
    assert (search.chain_searches - searches, search.chain_reuses - reuses) == (3, 0)
    assert [entry[3] for entry in record[0]] == [0, 0, 0]
    assert not any(new is entry for new, entry in zip(record[0], old))
    fresh = copy.copy(search)
    fresh._plans = {}
    fresh_cost, fresh_record = fresh.price(alt, 0, 3.0)
    assert cost.hex() == fresh_cost.hex()
    assert record_answers(record) == record_answers(fresh_record)
    rebuilt = checked_accept(search, alt, 0, 3.0, record)[:2]
    assert rebuilt[0]["f0"] == "s0" and not any(a is b for a, b in zip(rebuilt, maps))
