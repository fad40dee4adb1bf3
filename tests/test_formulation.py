"""Program construction: variables, aggregation, transforms, and the
rejection penalty."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from vneap.formulation import (
    REJECTION_MARGIN,
    VariableKey,
    _owner_rows,
    _Pricing,
    aggregate_requests,
    build_milp,
    build_relaxed_aggregate_lp,
    compute_rejection_penalty,
    fractional_solution,
    restrict_to_alternative,
    solve_relaxation,
)
from vneap.lp import solve_lp
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

from conftest import (
    BUNDLED,
    arnes_overloaded_instance,
    bench_instance,
    bundled_instance,
    random_instance,
    toy_apps,
    toy_net,
    unit_requests,
)
from oracle import request_options

PSI_TOY = 1050.0


def toy_lp(requests, link_cap=1e12, node_cap=1e12):
    net = toy_net(link_cap, node_cap)
    apps = toy_apps()
    aggs = aggregate_requests(requests)
    lp = build_relaxed_aggregate_lp(net, apps, EfficiencyMap(), aggs, PSI_TOY)
    return net, apps, aggs, lp


# -- variable layout ---------------------------------------------------------


def test_toy_variable_count_matches_enumeration():
    """One root indicator per alternative, a node variable per non-root
    function x substrate node, a link variable per virtual link x arc.
    The aggregate LP's master holds one column per alternative, its
    cheapest embedding, everything past the root on the core node C,
    keyed by the arc-flow kinds it uses."""
    net, apps = toy_net(), toy_apps()
    expected = 0
    for alt in apps["cam"].alternatives:
        expected += 1  # root pinned to the origin
        expected += (len(alt.nodes) - 1) * len(net.nodes)
        expected += len(alt.links) * len(net.arcs)
    assert expected == 22

    milp = build_milp(net, apps, EfficiencyMap(), unit_requests(1), PSI_TOY)
    assert len(milp.keys) == 22
    assert milp.binary == frozenset(range(22))

    aggs = aggregate_requests(unit_requests(1))
    owners = [(g.owner, g.origin, g.app, g.demand) for g in aggs]
    whole = _owner_rows(net, apps, EfficiencyMap(), owners, PSI_TOY, REJECTION_MARGIN)
    assert len(whole.keys) == 22

    _, _, _, lp = toy_lp(unit_requests(1))
    hop, on_c = ("l", "theta", "A", "E", "C"), [("n", f, "C") for f in ("A", "acc", "B")]
    assert lp.keys == (
        VariableKey("g0", 0, ("e", ("n", "theta", "E"), hop, on_c[0], on_c[2])),
        VariableKey("g0", 1, ("e", ("n", "theta", "E"), hop, *on_c)),
    )
    assert {k.kind for k in whole.keys} >= {part for k in lp.keys for part in k.kind[1:]}
    solved = solve_relaxation(net, apps, EfficiencyMap(), unit_requests(1), PSI_TOY)
    assert solved.timings["lp_pricing_rounds"] == 1
    assert lp.binary == frozenset()


def test_forbidden_pairs_are_never_instantiated():
    net, apps = toy_net(), toy_apps()
    eff = EfficiencyMap(node_coeffs={("B", "E"): FORBIDDEN})
    lp = build_milp(net, apps, eff, unit_requests(1), PSI_TOY)
    assert len(lp.keys) == 20  # two B-on-E variables gone
    assert all(k.kind[:3] != ("n", "B", "E") for k in lp.keys)


# -- column generation -----------------------------------------------------------


def arc_flow(instance):
    """The aggregates of ``instance`` and its aggregate relaxation as the
    whole arc-flow program, with the master's rejection margin."""
    net, apps, eff, requests, psi = instance
    aggregates = aggregate_requests(requests)
    owners = [(g.owner, g.origin, g.app, g.demand) for g in aggregates]
    return aggregates, _owner_rows(net, apps, eff, owners, psi, REJECTION_MARGIN)


def cheapest_by_arc_flow(net, alt, eff, origin):
    """The cost per unit of demand of ``alt``'s cheapest embedding with
    its root on ``origin``, ignoring capacity: the one-request arc-flow
    program with its root column fixed to 1 and its capacity rows
    dropped (None when it is infeasible)."""
    lp = _owner_rows(net, {"a": Application("a", (alt,))}, eff, [("r", origin, "a", 1.0)], 0.0)
    if not lp.keys:
        return None
    capacity_rows = len(net.nodes) + len(net.arcs)
    lower = lp.lower.copy()
    lower[0] = 1.0  # the root column comes first
    kept = lp.A_ub.shape[0] - capacity_rows  # the capacity rows come last
    sol = solve_lp(replace(lp, lower=lower, A_ub=lp.A_ub[:kept], b_ub=lp.b_ub[:kept]))
    return sol.objective if sol.optimal else None


def priced_instances():
    """(net, alternatives, eff) on which pricing is checked: every bundled
    topology with cctv_two and cctv_four, the overloaded arnes_si fixture
    (forbidden and reweighted hops) and the random instances' branching
    trees."""
    for topology, catalog in BUNDLED:
        net, apps, eff, _, _ = bundled_instance(topology, catalog, 10)
        yield net, apps["cctv"].alternatives, eff
    net, apps, eff, _, _ = arnes_overloaded_instance()
    yield net, apps["cctv"].alternatives, eff
    for seed in range(30):
        net, apps, eff, _, _ = random_instance(seed)
        yield net, [a for app in apps.values() for a in app.alternatives], eff


def test_pricing_graphs_are_laid_out_as_scipys_constructor_lays_them():
    """Each virtual link's pricing graph, built straight from CSR arrays,
    has the row pointers and column indices that scipy's (data, (row,
    col)) constructor gives the same edges, and ``edge`` puts the edges,
    in the order the plan lists them, where that constructor stores
    them.  Dijkstra breaks ties by that layout, so the generated columns
    depend on it."""
    graphs = 0
    for net, alternatives, eff in priced_instances():
        pricing = _Pricing(net, eff)
        n = len(net.nodes)
        for alt in alternatives:
            for _, arcs, _, graph, edge in pricing.plan(alt)[1]:
                heads = np.concatenate([np.full(n, n), pricing.arc_dst[arcs]])
                tails = np.concatenate([np.arange(n), pricing.arc_src[arcs]])
                ordinal = np.arange(1.0, len(heads) + 1)
                want = sparse.csr_matrix((ordinal, (heads, tails)), shape=(n + 1, n + 1))
                assert graph.shape == want.shape
                assert graph.indptr.tolist() == want.indptr.tolist()
                assert graph.indices.tolist() == want.indices.tolist()
                assert ordinal[edge].tolist() == want.data.tolist()
                graphs += 1
    assert graphs > 100


def test_pricing_finds_the_cheapest_embedding():
    """With every element priced at its cost plus a random shadow price,
    pricing's cheapest embedding from an origin costs what the
    one-request arc-flow program without capacity rows costs at the same
    prices, and the embedding it returns, priced element by element,
    costs that much too.  Covers the bundled catalogs' chains on every
    bundled topology and the random instances' branching trees, from
    every fourth node of each."""
    rng = np.random.default_rng(0)
    checked = branching = 0
    for net, alternatives, eff in priced_instances():
        node_price = np.array([n.cost for n in net.nodes]) + rng.exponential(1.0, len(net.nodes))
        arc_price = np.array([a.cost for a in net.arcs]) + rng.exponential(1.0, len(net.arcs))
        priced = SubstrateNetwork(
            [replace(n, cost=float(p)) for n, p in zip(net.nodes, node_price)],
            [replace(a, cost=float(p)) for a, p in zip(net.arcs, arc_price)],
        )
        pricing = _Pricing(net, eff)
        element_price = [*node_price.tolist(), *arc_price.tolist()]
        for alt in alternatives:
            unit, runs = pricing.distances(alt, pricing.plan(alt)[1], node_price, arc_price)
            for origin in range(0, len(net.nodes), 4):
                if eff.node(alt.root, net.nodes[origin].id) is FORBIDDEN:
                    continue
                want = cheapest_by_arc_flow(priced, alt, eff, net.nodes[origin].id)
                if want is None:
                    assert unit[origin] == math.inf
                    continue
                assert unit[origin] == pytest.approx(want, rel=1e-9, abs=1e-9)
                kinds, loads = pricing.embedding(alt, runs, origin)
                assert kinds[0] == ("n", alt.root, net.nodes[origin].id)
                assert len(kinds) == len(loads) + 1
                got = sum(per_unit * element_price[e] for e, per_unit in loads)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                checked += 1
                branching += any(len(kids) > 1 for kids in alt.children.values())
    assert checked > 300 and branching > 20


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(lambda: bench_instance("arnes_si", 1000), id="arnes_si-1000"),
        pytest.param(lambda: bench_instance("amres_rs", 12000), id="amres_rs-12000"),
        pytest.param(arnes_overloaded_instance, id="arnes_si-tu1.3"),
        pytest.param(
            lambda: (toy_net(link_cap=5000.0), toy_apps(), EfficiencyMap(), unit_requests(100), PSI_TOY),
            id="toy-uplink-5000",
        ),
    ]
    + [pytest.param(lambda seed=seed: random_instance(seed), id=f"random-{seed}") for seed in range(30)],
)
def test_column_generation_reaches_the_arc_flow_optimum(instance):
    """The relaxation solved by column generation has the whole arc-flow
    program's optimum to 1e-9 relative and rejects the demand its
    optimum rejects to 1e-6 of the total: on both benchmark instances,
    the overloaded arnes_si fixture, the toy whose uplink binds (only
    the uplink's dual makes pricing find the accelerated embedding that
    keeps the ingest function on E) and random instances 0-29, whose
    alternatives branch."""
    instance = instance()
    got = solve_relaxation(*instance)
    aggregates, whole = arc_flow(instance)
    want = solve_lp(whole)
    assert got.solution.optimal and want.optimal
    assert got.solution.objective == pytest.approx(want.objective, rel=1e-9, abs=0.0)
    rejected = fractional_solution(whole, want.x, want.objective, aggregates, instance[1])
    total = sum(g.demand for g in aggregates)
    assert got.fractional.total_rejected_demand == pytest.approx(
        rejected.total_rejected_demand, rel=0.0, abs=1e-6 * total
    )
    assert got.timings["lp_columns"] < whole.n_vars and got.timings["lp_pricing_rounds"] >= 1


def test_zero_requests_build_an_empty_program():
    net, apps = toy_net(), toy_apps()
    lp = build_milp(net, apps, EfficiencyMap(), [], PSI_TOY)
    assert len(lp.keys) == 0
    assert lp.objective_constant == 0.0
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == 0.0


def test_single_node_no_arcs_closed_form():
    """One substrate node, one function: cost = d * size * coeff * nodecost."""
    net = SubstrateNetwork([SubstrateNode("v", 3.0, 100.0)], [])
    alt = AlternativeTopology(
        "app", 0, [VirtualNode("r", 0.0), VirtualNode("f", 4.0)],
        [VirtualLink("r", "f", 1.0)], "r",
    )
    apps = {"app": Application("app", (alt,))}
    eff = EfficiencyMap(node_coeffs={("f", "v"): 0.5})
    lp = build_milp(net, apps, eff, [Request("v", "app", 2.0)], psi=100.0)
    placement = [k for k in lp.keys if k.kind == ("n", "f", "v")]
    assert len(placement) == 1
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(2.0 * 4.0 * 0.5 * 3.0, abs=1e-9)


def test_negative_penalty_is_rejected():
    net, apps = toy_net(), toy_apps()
    with pytest.raises(ValueError, match="nonnegative"):
        build_milp(net, apps, EfficiencyMap(), unit_requests(1), -1.0)


def test_unknown_ids_are_rejected():
    net, apps = toy_net(), toy_apps()
    with pytest.raises(KeyError, match="unknown application"):
        build_milp(net, apps, EfficiencyMap(), [Request("E", "fax", 1.0)], PSI_TOY)
    with pytest.raises(KeyError, match="unknown origin"):
        build_milp(net, apps, EfficiencyMap(), [Request("X", "cam", 1.0)], PSI_TOY)


# -- aggregation ---------------------------------------------------------------


def test_same_origin_and_app_merge_and_sum():
    aggs = aggregate_requests([Request("E", "cam", 3.0), Request("E", "cam", 7.0)])
    assert len(aggs) == 1
    assert aggs[0].demand == 10.0
    assert aggs[0].members == (0, 1)


def test_distinct_origins_stay_separate():
    aggs = aggregate_requests([Request("E", "cam", 3.0), Request("C", "cam", 3.0)])
    assert [(g.origin, g.app, g.demand) for g in aggs] == [
        ("C", "cam", 3.0),
        ("E", "cam", 3.0),
    ]


def test_aggregate_demand_conserves_total():
    rng = np.random.default_rng(42)
    requests = [
        Request(f"o{rng.integers(12)}", f"a{rng.integers(3)}", float(rng.uniform(0.1, 9)))
        for _ in range(60_000)
    ]
    aggs = aggregate_requests(requests)
    assert len(aggs) == 36
    total = math.fsum(r.demand for r in requests)
    assert math.fsum(g.demand for g in aggs) == pytest.approx(total, rel=1e-12)
    seen = sorted(k for g in aggs for k in g.members)
    assert seen == list(range(60_000))


def test_aggregate_lp_size_is_independent_of_request_count():
    few = toy_lp([Request("E", "cam", 1.0), Request("C", "cam", 1.0)])[3]
    many = toy_lp(
        [Request("E", "cam", 1.0) for _ in range(500)]
        + [Request("C", "cam", 1.0) for _ in range(500)]
    )[3]
    assert len(many.keys) == len(few.keys)
    assert many.A_ub.shape == few.A_ub.shape and many.A_eq.shape == few.A_eq.shape


def test_single_member_aggregate_equals_per_request_relaxation():
    net, apps = toy_net(5000.0, 5000.0), toy_apps()
    requests = [Request("E", "cam", 2.5)]
    relaxed = solve_lp(build_milp(net, apps, EfficiencyMap(), requests, PSI_TOY))
    aggregate = solve_lp(
        build_relaxed_aggregate_lp(
            net, apps, EfficiencyMap(), aggregate_requests(requests), PSI_TOY
        )
    )
    assert aggregate.objective == pytest.approx(relaxed.objective, abs=1e-9)


def test_lp_objective_scales_with_demand_and_capacity():
    net, apps, eff, requests, psi = random_instance(3)
    base = solve_lp(
        build_relaxed_aggregate_lp(net, apps, eff, aggregate_requests(requests), psi)
    )
    doubled_net = SubstrateNetwork(
        [SubstrateNode(n.id, n.cost, 2 * n.capacity, n.tier) for n in net.nodes],
        [SubstrateArc(a.src, a.dst, a.cost, 2 * a.capacity) for a in net.arcs],
    )
    doubled_requests = [Request(r.origin, r.app, 2 * r.demand) for r in requests]
    doubled = solve_lp(
        build_relaxed_aggregate_lp(
            doubled_net, apps, eff, aggregate_requests(doubled_requests), psi
        )
    )
    assert base.status == doubled.status == "optimal"
    assert doubled.objective == pytest.approx(2 * base.objective, rel=1e-6)


# -- single-alternative restriction --------------------------------------------


def test_restrict_keeps_only_the_requested_alternative():
    apps = toy_apps()
    for t in (0, 1):
        only = restrict_to_alternative(apps, t)
        assert [a.index for a in only["cam"].alternatives] == [t]
    with pytest.raises(ValueError, match="no alternative with index 7 in cam"):
        restrict_to_alternative(apps, 7)


def test_restricted_lp_never_beats_the_full_catalog():
    net, apps = toy_net(5000.0), toy_apps()
    requests = unit_requests(40)
    aggs = aggregate_requests(requests)
    eff = EfficiencyMap()
    multi = solve_lp(build_relaxed_aggregate_lp(net, apps, eff, aggs, PSI_TOY))
    for t in (0, 1):
        single = solve_lp(
            build_relaxed_aggregate_lp(
                net, restrict_to_alternative(apps, t), eff, aggs, PSI_TOY
            )
        )
        assert single.objective >= multi.objective - 1e-9


# -- rejection penalty ----------------------------------------------------------


def test_toy_penalty_is_the_edge_collocation_cost():
    assert compute_rejection_penalty(toy_net(), toy_apps(), EfficiencyMap()) == 1050.0


def test_uniform_costs_make_any_node_the_collocation_argmax():
    net = SubstrateNetwork(
        [SubstrateNode(f"n{i}", 2.0, 50.0) for i in range(3)],
        [SubstrateArc("n0", "n1", 1.0, 50.0), SubstrateArc("n1", "n0", 1.0, 50.0)],
    )
    psi = compute_rejection_penalty(net, toy_apps(), EfficiencyMap())
    assert psi == pytest.approx((5.0 + 100.0) * 2.0)


def test_penalty_dominates_main_embeddings_when_arcs_are_free():
    """With zero arc costs every embedding's cost is a size-weighted mean of
    node costs, so the most expensive collocation is an upper bound."""
    net, apps, _, _, _ = random_instance(11)
    free_net = SubstrateNetwork(
        [SubstrateNode(n.id, n.cost, 1e9, None) for n in net.nodes],
        [SubstrateArc(a.src, a.dst, 0.0, 1e9) for a in net.arcs],
    )
    eff = EfficiencyMap()
    main_only = restrict_to_alternative(apps, 0)
    psi = compute_rejection_penalty(free_net, main_only, eff)
    app_id = next(iter(main_only))
    request = Request(free_net.nodes[0].id, app_id, 1.0)
    costs = [c for _, _, _, c in request_options(free_net, main_only, eff, request)]
    assert costs and max(costs) <= psi + 1e-9


def test_penalty_requires_some_feasible_collocation():
    net, apps = toy_net(), toy_apps()
    eff = EfficiencyMap(
        node_coeffs={("B", "E"): FORBIDDEN, ("B", "C"): FORBIDDEN}
    )
    with pytest.raises(ValueError, match="rejection penalty"):
        compute_rejection_penalty(net, apps, eff)


# -- service accounting ----------------------------------------------------------


def test_abundant_capacity_serves_every_request():
    net, apps, aggs, lp = toy_lp(unit_requests(3))
    sol = solve_lp(lp)
    frac = fractional_solution(lp, sol.x, sol.objective, aggs, apps)
    assert sol.objective == pytest.approx(3 * 205.0, abs=1e-7)
    assert frac.total_rejected_demand == pytest.approx(0.0, abs=1e-7)


def test_zero_capacity_rejects_everything_at_full_penalty():
    net, apps, aggs, lp = toy_lp(unit_requests(3), link_cap=0.0, node_cap=0.0)
    sol = solve_lp(lp)
    frac = fractional_solution(lp, sol.x, sol.objective, aggs, apps)
    assert sol.objective == pytest.approx(3 * PSI_TOY, abs=1e-9)
    assert frac.total_rejected_demand == pytest.approx(3.0, abs=1e-9)
