"""Feasibility checking and cost/metric accounting, cross-checked by hand."""

from __future__ import annotations

from types import MappingProxyType

import pytest

from vneap.formulation import (
    aggregate_requests,
    build_relaxed_aggregate_lp,
    fractional_solution,
)
from vneap.greedy import greedy_embed_all
from vneap.lp import solve_lp
from vneap.model import FORBIDDEN, EfficiencyMap, IntegralEmbedding, Request, sum_in_order
from vneap.tanto import tanto
from vneap.validator import (
    alternative_shares,
    check_feasibility,
    fractional_alternative_shares,
    load_vector,
    objective_consistency,
    rejection_rate,
    total_cost,
)

from conftest import bench_instance, random_instance, toy_apps, toy_net, unit_requests

PSI_TOY = 1050.0


def embed_a(request):
    """Cheapest option: main alternative, A and B on the core node."""
    return IntegralEmbedding(
        request,
        0,
        {"theta": "E", "A": "C", "B": "C"},
        {("theta", "A"): (("E", "C"),), ("A", "B"): ()},
    )


def embed_d(request):
    """Accelerated option: A and acc at the edge, B on the core."""
    return IntegralEmbedding(
        request,
        1,
        {"theta": "E", "A": "E", "acc": "E", "B": "C"},
        {("theta", "A"): (), ("A", "acc"): (), ("acc", "B"): (("E", "C"),)},
    )


def rules(violations):
    return {v.rule for v in violations}


# -- feasibility -----------------------------------------------------------


def test_hand_built_options_are_feasible(toy):
    net, apps, eff = toy
    r = Request("E", "cam", 1.0)
    assert check_feasibility(net, apps, eff, [embed_a(r)]) == []
    assert check_feasibility(net, apps, eff, [embed_d(r)]) == []


def test_randomized_rounding_output_is_feasible():
    net, apps, eff, requests, psi = random_instance(17)
    embeddings, _ = tanto(net, apps, eff, requests, psi, seed=17)
    assert check_feasibility(net, apps, eff, embeddings) == []


def test_arc_overload_is_a_capacity_violation():
    net, apps, eff = toy_net(link_cap=150.0), toy_apps(), EfficiencyMap()
    reqs = unit_requests(2)
    out = check_feasibility(net, apps, eff, [embed_a(reqs[0]), embed_a(reqs[1])])
    assert rules(out) == {"CapacityViolation"}
    assert any("arc E->C" in v.entity for v in out)


def test_node_overload_is_a_capacity_violation():
    net = toy_net(node_cap=104.0)
    out = check_feasibility(net, toy_apps(), EfficiencyMap(), [embed_a(Request("E", "cam", 1.0))])
    assert rules(out) == {"CapacityViolation"}
    assert any("node C" in v.entity for v in out)


def test_root_away_from_origin_is_flagged(toy):
    net, apps, eff = toy
    emb = embed_a(Request("C", "cam", 1.0))  # root mapped to E, origin is C
    assert "RootMisplaced" in rules(check_feasibility(net, apps, eff, [emb]))


def test_structural_violations_are_named(toy):
    net, apps, eff = toy
    r = Request("E", "cam", 1.0)

    unplaced = IntegralEmbedding(r, 0, {"theta": "E", "A": "C"}, {})
    assert rules(check_feasibility(net, apps, eff, [unplaced])) >= {"NodeUnplaced"}

    good = embed_a(r)
    extra_node = IntegralEmbedding(
        r, 0, {**good.node_map, "ghost": "C"}, dict(good.link_map)
    )
    assert "ExtraneousPlacement" in rules(check_feasibility(net, apps, eff, [extra_node]))

    off_net = IntegralEmbedding(r, 0, {**good.node_map, "B": "X"}, dict(good.link_map))
    assert "UnknownSubstrateNode" in rules(check_feasibility(net, apps, eff, [off_net]))

    unrouted = IntegralEmbedding(r, 0, dict(good.node_map), {("theta", "A"): (("E", "C"),)})
    assert "LinkUnrouted" in rules(check_feasibility(net, apps, eff, [unrouted]))

    extra_path = IntegralEmbedding(
        r, 0, dict(good.node_map), {**good.link_map, ("A", "theta"): ()}
    )
    assert "ExtraneousPath" in rules(check_feasibility(net, apps, eff, [extra_path]))

    empty_path_apart = IntegralEmbedding(
        r, 0, dict(good.node_map), {**good.link_map, ("theta", "A"): ()}
    )
    assert "PathEndpointMismatch" in rules(
        check_feasibility(net, apps, eff, [empty_path_apart])
    )

    wrong_end = IntegralEmbedding(
        r, 0, dict(good.node_map), {**good.link_map, ("theta", "A"): (("C", "E"),)}
    )
    assert "PathEndpointMismatch" in rules(check_feasibility(net, apps, eff, [wrong_end]))

    broken = IntegralEmbedding(
        r,
        0,
        dict(good.node_map),
        {**good.link_map, ("theta", "A"): (("E", "C"), ("E", "C"))},
    )
    assert "PathDiscontiguous" in rules(check_feasibility(net, apps, eff, [broken]))

    phantom_arc = IntegralEmbedding(
        r, 0, dict(good.node_map), {**good.link_map, ("theta", "A"): (("E", "X"),)}
    )
    assert "UnknownArc" in rules(check_feasibility(net, apps, eff, [phantom_arc]))

    assert "UnknownAlternative" in rules(
        check_feasibility(net, apps, eff, [IntegralEmbedding(r, 9, {}, {})])
    )

    alien = Request("E", "fax", 1.0)
    assert "UnknownApplication" in rules(
        check_feasibility(net, apps, eff, [IntegralEmbedding(alien, 0, {}, {})])
    )


def test_forbidden_pairing_is_flagged():
    net, apps = toy_net(), toy_apps()
    eff = EfficiencyMap(node_coeffs={("B", "C"): FORBIDDEN})
    out = check_feasibility(net, apps, eff, [embed_a(Request("E", "cam", 1.0))])
    assert "ForbiddenPairing" in rules(out)


def test_one_embedding_per_request(toy):
    net, apps, eff = toy
    r = Request("E", "cam", 1.0)
    out = check_feasibility(net, apps, eff, [embed_a(r), embed_d(r)])
    assert "DuplicateRequest" in rules(out)


def test_closed_walk_with_matching_endpoints_is_legitimate(toy):
    """A path may loop through the network and return; each traversed arc
    pays and loads."""
    net, apps, eff = toy
    r = Request("E", "cam", 1.0)
    loop = IntegralEmbedding(
        r,
        0,
        {"theta": "E", "A": "E", "B": "E"},
        {("theta", "A"): (), ("A", "B"): (("E", "C"), ("C", "E"))},
    )
    assert check_feasibility(net, apps, eff, [loop]) == []
    cost = total_cost(net, apps, eff, [loop], PSI_TOY)
    assert cost.bandwidth == pytest.approx(200.0)  # 100 out, 100 back


# -- costs -------------------------------------------------------------------


def test_cheap_option_costs(toy):
    net, apps, eff = toy
    cost = total_cost(net, apps, eff, [embed_a(Request("E", "cam", 1.0))], PSI_TOY)
    assert cost.compute == pytest.approx(105.0)
    assert cost.bandwidth == pytest.approx(100.0)
    assert cost.rejection == 0.0
    assert cost.total == pytest.approx(205.0)


def test_accelerated_option_costs(toy):
    net, apps, eff = toy
    cost = total_cost(net, apps, eff, [embed_d(Request("E", "cam", 1.0))], PSI_TOY)
    assert cost.compute == pytest.approx(250.0)
    assert cost.bandwidth == pytest.approx(30.0)
    assert cost.total == pytest.approx(280.0)


def test_rejecting_everything_costs_the_full_penalty(toy):
    net, apps, eff = toy
    reqs = [Request("E", "cam", 2.0), Request("C", "cam", 3.0)]
    cost = total_cost(net, apps, eff, [IntegralEmbedding.reject(r) for r in reqs], PSI_TOY)
    assert cost.compute == cost.bandwidth == 0.0
    assert cost.total == pytest.approx(PSI_TOY * 5.0)


def test_costs_scale_linearly_with_demand(toy):
    net, apps, eff = toy
    one = total_cost(net, apps, eff, [embed_a(Request("E", "cam", 1.0))], PSI_TOY)
    five = total_cost(net, apps, eff, [embed_a(Request("E", "cam", 5.0))], PSI_TOY)
    assert five.total == pytest.approx(5 * one.total)


def test_infeasible_input_is_an_error_unless_waived():
    net, apps, eff = toy_net(node_cap=104.0), toy_apps(), EfficiencyMap()
    emb = embed_a(Request("E", "cam", 1.0))
    with pytest.raises(ValueError, match="CapacityViolation"):
        total_cost(net, apps, eff, [emb], PSI_TOY)
    unchecked = total_cost(net, apps, eff, [emb], PSI_TOY, validate=False)
    assert unchecked.total == pytest.approx(205.0)


# -- rates and shares -----------------------------------------------------------


def test_rejection_rate_bounds(toy):
    reqs = unit_requests(4)
    assert rejection_rate([embed_a(r) for r in reqs]) == 0.0
    assert rejection_rate([IntegralEmbedding.reject(r) for r in reqs]) == 1.0


def test_rejection_rate_is_demand_weighted():
    kept = Request("E", "cam", 1.0)
    dropped = Request("E", "cam", 3.0)
    out = rejection_rate([embed_a(kept), IntegralEmbedding.reject(dropped)])
    assert out == pytest.approx(0.75)


def test_single_alternative_share_is_one(toy):
    shares = alternative_shares([embed_a(r) for r in unit_requests(3)])
    assert shares == {0: pytest.approx(1.0)}


def test_no_served_demand_means_no_shares():
    assert alternative_shares([IntegralEmbedding.reject(r) for r in unit_requests(2)]) == {}


def test_mixed_shares_match_hand_computation():
    a = embed_a(Request("E", "cam", 1.0))
    b = embed_a(Request("E", "cam", 1.0))
    d = embed_d(Request("E", "cam", 2.0))
    shares = alternative_shares([a, b, d])
    assert shares[0] == pytest.approx(0.5)
    assert shares[1] == pytest.approx(0.5)
    assert sum(shares.values()) == pytest.approx(1.0)


# -- solver-vs-validator drift ----------------------------------------------------


def solved_toy(requests, link_cap=5000.0):
    net, apps = toy_net(link_cap), toy_apps()
    aggs = aggregate_requests(requests)
    lp = build_relaxed_aggregate_lp(net, apps, EfficiencyMap(), aggs, PSI_TOY)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return net, apps, lp, sol, fractional_solution(lp, sol.x, sol.objective, aggs, apps)


def test_lp_objective_matches_validator_recomputation():
    net, apps, _, sol, frac = solved_toy(unit_requests(40))
    delta = objective_consistency(net, apps, EfficiencyMap(), PSI_TOY, sol.objective, frac)
    assert delta <= 1e-6 * (1 + abs(sol.objective))


def test_perturbed_objective_is_detected():
    net, apps, _, sol, frac = solved_toy(unit_requests(40))
    delta = objective_consistency(
        net, apps, EfficiencyMap(), PSI_TOY, sol.objective + 7.0, frac
    )
    assert delta == pytest.approx(7.0, abs=1e-6)


def test_empty_instance_is_consistent_at_zero(toy):
    net, apps, eff = toy
    assert objective_consistency(net, apps, eff, PSI_TOY, 0.0, []) == 0.0


def test_integral_objective_consistency(toy):
    net, apps, eff = toy
    embs = [embed_a(Request("E", "cam", 1.0)), IntegralEmbedding.reject(Request("E", "cam", 2.0))]
    objective = 205.0 + 2.0 * PSI_TOY
    assert objective_consistency(net, apps, eff, PSI_TOY, objective, embs) <= 1e-9


def test_fractional_shares_sum_to_one_when_served():
    net, apps, _, _, frac = solved_toy(unit_requests(40))
    shares = fractional_alternative_shares(frac, apps)
    assert all(v >= -1e-9 for v in shares.values())
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)


# -- loads ------------------------------------------------------------------------


def test_load_vector_matches_hand_sums(toy):
    net, apps, eff = toy
    loads = load_vector(net, apps, eff, [embed_a(Request("E", "cam", 2.0))])
    assert loads.node == {"C": pytest.approx(210.0)}  # (5 + 100) * 2, theta is size 0
    assert loads.arc == {("E", "C"): pytest.approx(200.0)}


# -- shared shapes ------------------------------------------------------------------


def shared(requests):
    """Embeddings of ``requests`` that all hold the same two read-only map
    objects, ``embed_a``'s."""
    good = embed_a(None)
    node_map, link_map = MappingProxyType(good.node_map), MappingProxyType(good.link_map)
    return [IntegralEmbedding(r, 0, node_map, link_map) for r in requests]


def private(embeddings):
    """The same embeddings, each on its own dict copies of its maps."""
    return [
        IntegralEmbedding(e.request, e.alternative, dict(e.node_map), dict(e.link_map))
        for e in embeddings
    ]


def breaks(node_map, link_map):
    """(case, the one broken embedding) for every violation kind an
    embedding of the toy catalog can carry: through its origin, its
    application or its alternative on the shared maps ``node_map`` and
    ``link_map``, or through its own maps."""
    good = embed_a(Request("E", "cam", 1.0))
    r = good.request

    def own(node_map=None, link_map=None):
        return IntegralEmbedding(
            r, 0, dict(node_map or good.node_map), dict(link_map or good.link_map)
        )

    yield "RootMisplaced", IntegralEmbedding(Request("C", "cam", 1.0), 0, node_map, link_map)
    yield "UnknownApplication", IntegralEmbedding(Request("E", "fax", 1.0), 0, node_map, link_map)
    yield "UnknownAlternative", IntegralEmbedding(r, 9, node_map, link_map)
    yield "NodeUnplaced", IntegralEmbedding(r, 1, node_map, link_map)  # the maps place no acc
    yield "NodeUnplaced", own({"theta": "E", "A": "C"})
    yield "ExtraneousPlacement", own({**good.node_map, "ghost": "C"})
    yield "UnknownSubstrateNode", own({**good.node_map, "B": "X"})
    yield "LinkUnrouted", IntegralEmbedding(
        r, 0, dict(good.node_map), {("theta", "A"): (("E", "C"),)}
    )
    yield "ExtraneousPath", own(link_map={**good.link_map, ("A", "theta"): ()})
    yield "PathEndpointMismatch", own(link_map={**good.link_map, ("theta", "A"): ()})
    yield "PathEndpointMismatch", own(link_map={**good.link_map, ("theta", "A"): (("C", "E"),)})
    yield "PathDiscontiguous", own(
        link_map={**good.link_map, ("theta", "A"): (("E", "C"), ("E", "C"))}
    )
    yield "UnknownArc", own(link_map={**good.link_map, ("theta", "A"): (("E", "X"),)})
    yield "ForbiddenPairing", own(
        {**good.node_map, "A": "E"}, {**good.link_map, ("theta", "A"): ()}
    )
    yield "ForbiddenPairing", own(
        {**good.node_map, "B": "E"}, {**good.link_map, ("A", "B"): (("C", "E"),)}
    )


@pytest.mark.parametrize("position", [0, 5, 11])
def test_one_broken_request_among_a_shared_shape_is_the_one_reported(position):
    """Twelve requests share one shape object; breaking one of them, by
    its origin, its application, its alternative or its own maps, reports
    exactly what that embedding reports alone, wherever it sits, and the
    loads are those of the same set on private copies of its maps."""
    eff = EfficiencyMap(
        node_coeffs={("A", "E"): FORBIDDEN}, link_coeffs={(("A", "B"), ("C", "E")): FORBIDDEN}
    )
    net, apps = toy_net(), toy_apps()
    clean = shared(unit_requests(11))
    for kind, broken in breaks(clean[0].node_map, clean[0].link_map):
        embeddings = list(clean)
        embeddings.insert(position, broken)
        alone = check_feasibility(net, apps, eff, [broken])
        assert kind in rules(alone), kind
        assert check_feasibility(net, apps, eff, embeddings) == alone, kind
        assert load_vector(net, apps, eff, embeddings) == load_vector(
            net, apps, eff, private(embeddings)
        ), kind


def test_one_large_demand_among_a_shared_shape_overloads_alone():
    """Eleven unit requests of one shape fit a capacity of 2 000; one
    more through the same maps, at demand 10, overloads node C and arc
    E->C by its load alone, and nothing else is reported."""
    net, apps, eff = toy_net(link_cap=2000.0, node_cap=2000.0), toy_apps(), EfficiencyMap()
    assert check_feasibility(net, apps, eff, shared(unit_requests(12))) == []
    embeddings = shared([*unit_requests(6), Request("E", "cam", 10.0), *unit_requests(5)])
    out = check_feasibility(net, apps, eff, embeddings)
    assert [(v.rule, v.entity) for v in out] == [
        ("CapacityViolation", "node C"),
        ("CapacityViolation", "arc E->C"),
    ]
    loads = load_vector(net, apps, eff, embeddings)
    assert loads.node == {"C": 11 * 105.0 + 1050.0}
    assert loads.arc == {("E", "C"): 11 * 100.0 + 1000.0}


def per_request_loads(net, apps, eff, embeddings):
    """The loads of a feasible embedding set, request by request: each
    node in sorted order, then each link's arcs in sorted link order,
    ``demand * size * coeff`` added as it comes."""
    node: dict = {}
    arc: dict = {}
    for e in embeddings:
        if e.rejected:
            continue
        alt = apps[e.request.app].alternative(e.alternative)
        for i, v in sorted(e.node_map.items()):
            amount = e.request.demand * alt.node_by_id[i].size * eff.node(i, v)
            if amount:
                node[v] = node.get(v, 0.0) + amount
        sizes = {(l.parent, l.child): l.size for l in alt.links}
        for pair, path in sorted(e.link_map.items()):
            for vw in path:
                amount = e.request.demand * sizes[pair] * eff.link(pair, vw)
                if amount:
                    arc[vw] = arc.get(vw, 0.0) + amount
    return node, arc


@pytest.mark.parametrize("topology, count", [("arnes_si", 1000), ("amres_rs", 12000)])
def test_shared_shapes_load_and_cost_like_one_request_at_a_time(topology, count):
    """On benchmark-shaped instances, tanto's and greedy's embeddings
    (which share their maps) give the loads and costs, to the bit and in
    the same key order, of a request-by-request walk; the costs also
    equal those of the same embeddings on private copies of their maps."""
    net, apps, eff, requests, psi = bench_instance(topology, count)
    for embeddings in (
        tanto(net, apps, eff, requests, psi, seed=1)[0],
        greedy_embed_all(net, apps, eff, requests, psi, 1)[0],
    ):
        assert len({id(e.node_map) for e in embeddings}) < len(embeddings) // 2
        node, arc = per_request_loads(net, apps, eff, embeddings)
        loads = load_vector(net, apps, eff, embeddings)
        for got, want in ((loads.node, node), (loads.arc, arc)):
            assert [(k, x.hex()) for k, x in got.items()] == [(k, x.hex()) for k, x in want.items()]
        cost = total_cost(net, apps, eff, embeddings, psi)
        want = total_cost(net, apps, eff, private(embeddings), psi)
        assert [x.hex() for x in (cost.compute, cost.bandwidth, cost.rejection)] == [
            x.hex() for x in (want.compute, want.bandwidth, want.rejection)
        ]
        compute = sum_in_order(node[v] * net.node_by_id[v].cost for v in node)
        bandwidth = sum_in_order(arc[a] * net.arc_by_pair[a].cost for a in arc)
        assert (cost.compute.hex(), cost.bandwidth.hex()) == (compute.hex(), bandwidth.hex())
