"""Sequential cheapest-alternative embedding against residual capacity."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from vneap.greedy import ResidualState, _ChainSearch, _chains, greedy_embed_all, minv_embed
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
    arnes_overloaded_instance,
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


# -- single-alternative search ------------------------------------------------


def test_chain_collocates_when_the_function_is_small():
    net = toy_net()
    cand = minv_embed(
        net, theta_chain(5.0), "E", 1.0, EfficiencyMap(), ResidualState.from_network(net)
    )
    assert cand.node_map == {"theta": "E", "f": "E"}
    assert cand.link_map == {("theta", "f"): ()}
    assert cand.cost == pytest.approx(50.0)  # 5*10 beats 5*1 + 100*1


def test_chain_crosses_to_the_core_when_the_function_is_large():
    net = toy_net()
    cand = minv_embed(
        net, theta_chain(100.0), "E", 1.0, EfficiencyMap(), ResidualState.from_network(net)
    )
    assert cand.node_map == {"theta": "E", "f": "C"}
    assert cand.link_map == {("theta", "f"): (("E", "C"),)}
    assert cand.cost == pytest.approx(200.0)  # 100*1 + 100*1 beats 100*10


def test_single_node_alternative_is_free():
    net = toy_net()
    alt = AlternativeTopology("a", 0, [VirtualNode("r", 0.0)], [], "r")
    cand = minv_embed(net, alt, "E", 1.0, EfficiencyMap(), ResidualState.from_network(net))
    assert cand.node_map == {"r": "E"}
    assert cand.link_map == {}
    assert cand.cost == 0.0


def test_fully_forbidden_function_yields_none():
    net = toy_net()
    eff = EfficiencyMap(node_coeffs={("f", "E"): FORBIDDEN, ("f", "C"): FORBIDDEN})
    cand = minv_embed(net, theta_chain(5.0), "E", 1.0, eff, ResidualState.from_network(net))
    assert cand is None


def test_forbidden_uplink_forces_collocation_at_the_origin():
    """Crossing to C costs 100*1 + 100*1 = 200 and collocating 100*10 =
    1000, but the link may not use E->C at all."""
    net = toy_net()
    eff = EfficiencyMap(link_coeffs={(("theta", "f"), ("E", "C")): FORBIDDEN})
    cand = minv_embed(net, theta_chain(100.0), "E", 1.0, eff, ResidualState.from_network(net))
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
    plain = minv_embed(
        net, theta_chain(100.0), "E", 1.0, EfficiencyMap(), ResidualState.from_network(net)
    )
    assert plain.link_map == {("theta", "f"): (("E", "C"),)}
    assert plain.cost == 200.0
    eff = EfficiencyMap(link_coeffs={(("theta", "f"), ("E", "C")): 3.0})
    cand = minv_embed(net, theta_chain(100.0), "E", 1.0, eff, ResidualState.from_network(net))
    assert cand.node_map == {"theta": "E", "f": "C"}
    assert cand.link_map == {("theta", "f"): (("E", "M"), ("M", "C"))}
    assert cand.cost == 250.0
    assert cand.arc_loads == {("E", "M"): 100.0, ("M", "C"): 100.0}


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
    residual = ResidualState.from_network(net)
    for pos in report.order:
        req, emb = requests[pos], embeddings[pos]
        candidates = {}
        for alt in apps[req.app].alternatives:
            cand = minv_embed(net, alt, req.origin, req.demand, eff, residual)
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
        residual.consume(chosen.node_loads, chosen.arc_loads)


@pytest.mark.parametrize("seed", [4, 11])
def test_residuals_never_increase(seed):
    net, apps, eff, requests, psi = random_instance(seed)
    embeddings, report = greedy_embed_all(net, apps, eff, requests, psi, seed)
    residual = ResidualState.from_network(net)
    previous_node = dict(residual.node)
    previous_arc = dict(residual.arc)
    for pos in report.order:
        emb = embeddings[pos]
        if not emb.rejected:
            loads = load_vector(net, apps, eff, [emb])
            residual.consume(loads.node, loads.arc)
        assert all(residual.node[v] <= previous_node[v] + 1e-12 for v in residual.node)
        assert all(residual.arc[a] <= previous_arc[a] + 1e-12 for a in residual.arc)
        assert all(v >= 0.0 for v in residual.node.values())
        assert all(v >= 0.0 for v in residual.arc.values())
        previous_node = dict(residual.node)
        previous_arc = dict(residual.arc)


def test_fixed_seed_reproduces_the_run():
    net, apps, eff, requests, psi = random_instance(23)
    first, r1 = greedy_embed_all(net, apps, eff, requests, psi, 99)
    second, r2 = greedy_embed_all(net, apps, eff, requests, psi, 99)
    assert r1.order == r2.order
    assert r1.objective == r2.objective
    assert [
        (e.alternative, dict(e.node_map), dict(e.link_map)) for e in first
    ] == [(e.alternative, dict(e.node_map), dict(e.link_map)) for e in second]


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


# -- the A* chain search --------------------------------------------------------


def test_bound_table_is_the_uncapacitated_finishing_cost():
    """Every state's entry of the bound table equals an independent
    Bellman–Ford over the layered graph (to 1e-12 relative, +inf together)
    before the shrink, and is never above it after.  The instances cover
    forbidden placements and links, reweighted coefficients, branching
    alternatives with several chains, and a function forbidden
    everywhere."""
    forbidden_f = EfficiencyMap(node_coeffs={("f", "E"): FORBIDDEN, ("f", "C"): FORBIDDEN})
    instances = [random_instance(seed)[:3] for seed in range(30)]
    instances.append(arnes_overloaded_instance()[:3])
    instances.append((toy_net(), {"probe": Application("probe", (theta_chain(5.0),))}, forbidden_f))
    states = infinite = multi_chain = 0
    for net, apps, eff in instances:
        search = _ChainSearch(net, eff, ResidualState.from_network(net))
        ids = search.ids
        for app in apps.values():
            for alt in app.alternatives:
                chains = search.plan(alt)[1]
                assert [start for start, _, _ in chains] == [start for start, _ in _chains(alt)]
                multi_chain += len(chains) > 1
                for (_, steps, bound), (_, links) in zip(chains, _chains(alt)):
                    want = chain_finish_costs(net, alt, eff, links)
                    exact = search.remaining_cost(steps)
                    assert len(exact) == len(bound) == len(want)
                    for (m, v), cost in want.items():
                        i = m * len(ids) + search.node_index[v]
                        if cost == math.inf:
                            assert exact[i] == bound[i] == math.inf
                            infinite += 1
                        else:
                            assert math.isclose(exact[i], cost, rel_tol=1e-12, abs_tol=0.0)
                            assert bound[i] <= cost
                        states += 1
    assert states > 1000 and infinite > 0 and multi_chain > 0


def test_a_star_returns_what_dijkstra_returns(monkeypatch):
    """Replaying every pinned run, each chain search returns the same
    placements, paths and cost, to the bit, as a plain Dijkstra over the
    same residual capacities, or None in both."""
    a_star = _ChainSearch.embed_chain
    seen = {"calls": 0, "none": 0}

    def checked(self, steps, bound, start, demand):
        got = a_star(self, steps, bound, start, demand)
        want = dijkstra_chain(self, steps, start, demand)
        assert got == want
        if got is not None:
            assert got[2].hex() == want[2].hex()
        seen["calls"] += 1
        seen["none"] += got is None
        return got

    monkeypatch.setattr(_ChainSearch, "embed_chain", checked)
    for _, (net, apps, eff, requests, psi), order_seed in pinned_runs():
        greedy_embed_all(net, apps, eff, requests, psi, order_seed)
    assert seen["calls"] > 1000 and seen["none"] > 0
