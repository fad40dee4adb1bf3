"""LP-rounding embedder: the reference walk's weighted selection, the
per-request walk, restore semantics, and end-to-end behaviour against the
fractional optimum."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vneap import rng as vrng
from vneap.formulation import (
    REJECTION_MARGIN,
    AggregatedRequest,
    FractionalSolution,
    Relaxation,
    VariableKey,
    _owner_rows,
    aggregate_requests,
    build_milp,
    build_relaxed_aggregate_lp,
    compute_rejection_penalty,
    solve_relaxation,
)
from vneap.harness import (
    GenParams,
    assign_costs_capacities,
    calibrate_target_utilization,
    classify_tiers,
    generate_requests,
    ingest_graphml,
)
from vneap.io import load_applications
from vneap.lp import OPTIMAL, Solution, solve_lp
from vneap.model import (
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
from vneap.tanto import RoundingState, _BlockUniforms, embed_request, round_relaxation, tanto
from vneap.validator import (
    alternative_shares,
    check_feasibility,
    total_cost,
)

from conftest import (
    arnes_overloaded_instance,
    assert_maps_are_read_only,
    assert_rows_view,
    pinned_runs,
    random_instance,
    record_highs_runs,
    recorded_embeddings,
    toy_apps,
    toy_net,
    unit_requests,
)
from oracle import dict_round_relaxation, weighted_random_select

PSI_TOY = 1050.0
RECORDED = Path(__file__).parent / "data" / "tanto_recorded.jsonl"


# -- weighted random selection (the reference walk's draw) -----------------------


def test_zero_weights_are_never_drawn():
    rng = np.random.default_rng(0)
    assert all(weighted_random_select([1.0, 0.0], rng) == 0 for _ in range(50))
    assert all(weighted_random_select([0.0, 2.0, 0.0], rng) == 1 for _ in range(50))


def test_single_weight_is_index_zero():
    assert weighted_random_select([3.5], np.random.default_rng(1)) == 0


def test_degenerate_weights_raise():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="sum to zero"):
        weighted_random_select([0.0, 0.0], rng)
    with pytest.raises(ValueError, match="negative"):
        weighted_random_select([1.0, -0.1], rng)


def test_draw_frequencies_match_weights():
    """(1, 1, 2) must come out (0.25, 0.25, 0.5); chi-square at 99%."""
    rng = np.random.default_rng(12345)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[weighted_random_select([1.0, 1.0, 2.0], rng)] += 1
    expected = np.array([0.25, 0.25, 0.5]) * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(0.01, df=2)


def test_block_uniforms_are_the_streams_own_draws():
    """Served 64 at a time, after the shuffle, the uniforms equal one
    ``random()`` call each on the same stream."""
    one, block = vrng.stream(3, "round", "E", "cam"), vrng.stream(3, "round", "E", "cam")
    assert one.permutation(9).tolist() == block.permutation(9).tolist()
    uniforms = _BlockUniforms(block)
    assert [uniforms.random() for _ in range(200)] == [one.random() for _ in range(200)]


# -- the per-request walk --------------------------------------------------------


def owner_key(alt: int, kind) -> VariableKey:
    return VariableKey("g0", alt, kind)


def make_state(values: dict[VariableKey, float], demand: float = 1.0) -> RoundingState:
    net = toy_net()
    agg = AggregatedRequest("g0", "E", "cam", demand, (0,))
    return RoundingState.for_aggregate(
        net, agg, values, toy_apps()["cam"].alternatives
    )


def residual(state: RoundingState) -> dict[VariableKey, float]:
    """The state's residual by variable key (its slots mapped back)."""
    return dict(zip(state.keys, state.y))


def zeroed_keys(state: RoundingState) -> set[VariableKey]:
    return {k for k, z in zip(state.keys, state.zeroed) if z}


def walk_once(state: RoundingState):
    """One unit request at E through the toy catalog's walk."""
    return embed_request(Request("E", "cam", 1.0), state, np.random.default_rng(0))


def test_concentrated_solution_walks_deterministically():
    values = {
        owner_key(0, ("n", "theta", "E")): 1.0,
        owner_key(0, ("l", "theta", "A", "E", "C")): 1.0,
        owner_key(0, ("n", "A", "C")): 1.0,
        owner_key(0, ("n", "B", "C")): 1.0,
    }
    state = make_state(values)
    emb = embed_request(Request("E", "cam", 1.0), state, np.random.default_rng(0))
    assert not emb.rejected
    assert emb.alternative == 0
    assert emb.node_map == {"theta": "E", "A": "C", "B": "C"}
    assert emb.link_map == {("theta", "A"): (("E", "C"),), ("A", "B"): ()}
    assert state.accepted == 1
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in residual(state).values())


def test_insufficient_root_mass_rejects_and_zeroes():
    root = owner_key(0, ("n", "theta", "E"))
    state = make_state({root: 0.4})
    emb = embed_request(Request("E", "cam", 1.0), state, np.random.default_rng(0))
    assert emb.rejected
    assert state.rounding_rejections == 1
    assert residual(state)[root] == 0.0
    assert root in zeroed_keys(state)


def test_rejection_restores_everything_but_the_zeroed_variable():
    root = owner_key(0, ("n", "theta", "E"))
    hop = owner_key(0, ("l", "theta", "A", "E", "C"))
    place_a = owner_key(0, ("n", "A", "C"))
    state = make_state({root: 1.0, hop: 1.0, place_a: 0.3, owner_key(0, ("n", "B", "C")): 1.0})
    emb = embed_request(Request("E", "cam", 1.0), state, np.random.default_rng(0))
    assert emb.rejected
    assert state.rounding_rejections == 1
    assert zeroed_keys(state) == {place_a}
    assert residual(state)[place_a] == 0.0
    assert residual(state)[root] == pytest.approx(1.0)  # consumed, then restored
    assert residual(state)[hop] == pytest.approx(1.0)


def test_zeroed_variables_stay_zero_for_later_requests():
    root = owner_key(0, ("n", "theta", "E"))
    state = make_state({root: 0.4}, demand=2.0)
    rng = np.random.default_rng(0)
    first = embed_request(Request("E", "cam", 2.0), state, rng)
    assert first.rejected and state.rounding_rejections == 1
    second = embed_request(Request("E", "cam", 2.0), state, rng)
    assert second.rejected
    assert state.lp_exhausted_rejections == 1  # nothing left to draw from
    assert residual(state)[root] == 0.0


def test_no_root_mass_is_lp_exhausted_after_one_step():
    place_a = owner_key(0, ("n", "A", "C"))
    state = make_state({place_a: 1.0})
    assert walk_once(state).rejected
    assert state.lp_exhausted_rejections == 1
    assert state.total_steps == state.max_request_steps == 1
    assert residual(state) == {place_a: 1.0}
    assert zeroed_keys(state) == set()


def test_a_site_without_mass_strands_the_walk():
    """The root is served, but the first link finds neither a placement
    nor an arc at the origin: stranded, and the root gets its mass back."""
    root = owner_key(0, ("n", "theta", "E"))
    state = make_state({root: 1.0, owner_key(0, ("n", "B", "C")): 1.0})
    assert walk_once(state).rejected
    assert state.stranded_rejections == 1 and state.rounding_rejections == 0
    assert state.total_steps == 2
    assert residual(state)[root] == 1.0
    assert zeroed_keys(state) == set()


@pytest.mark.parametrize("placement_mass", [0.5, None])
def test_per_link_overflow_zeroes_the_placement_slot_if_there_is_one(placement_mass):
    """Link mass circling E -> C -> E and no mass to place A at E (a used-up
    slot, or none): the per-link cap (|nodes|·|arcs| = 4 steps) cuts the
    walk at E.  A slot for A at E is zeroed; without one nothing is."""
    root = owner_key(0, ("n", "theta", "E"))
    out = owner_key(0, ("l", "theta", "A", "E", "C"))
    back = owner_key(0, ("l", "theta", "A", "C", "E"))
    place_e = owner_key(0, ("n", "A", "E"))
    values = {root: 1.0, out: 1.0, back: 1.0}
    if placement_mass is not None:
        values[place_e] = placement_mass
    state = make_state(values, demand=1000.0)
    if placement_mass is not None:
        state.y[state.keys.index(place_e)] = 0.0  # consumed by earlier requests
    assert state.per_link_cap == 4 < state.request_budget
    assert walk_once(state).rejected
    assert state.overflow_rejections == 1
    assert state.total_steps == state.max_request_steps == 1 + state.per_link_cap
    if placement_mass is None:
        assert zeroed_keys(state) == set()
        assert place_e not in residual(state)
    else:
        assert zeroed_keys(state) == {place_e}
        assert residual(state)[place_e] == 0.0
    for key in (root, out, back):
        assert residual(state)[key] == pytest.approx(1.0, abs=1e-12)


def test_a_walk_cut_by_the_request_budget_counts_no_extra_step():
    """On a 5-node complete digraph a single-link alternative's budget is
    4·5·3 = 60 steps, below the per-link cap of 5·20.  Flow mass circling
    n0 -> n1 -> n0 with no placement mass runs the walk into the budget;
    the cut step draws nothing and consumes nothing, so it is not counted."""
    ids = [f"n{i}" for i in range(5)]
    net = SubstrateNetwork(
        [SubstrateNode(i, 1.0, 1e9) for i in ids],
        [SubstrateArc(u, v, 1.0, 1e9) for u in ids for v in ids if u != v],
    )
    alt = AlternativeTopology("one", 0, [VirtualNode("r", 0.0), VirtualNode("c", 1.0)],
                              [VirtualLink("r", "c", 1.0)], "r")
    values = {
        VariableKey("g0", 0, ("n", "r", "n0")): 1.0,
        VariableKey("g0", 0, ("l", "r", "c", "n0", "n1")): 1.0,
        VariableKey("g0", 0, ("l", "r", "c", "n1", "n0")): 1.0,
    }
    agg = AggregatedRequest("g0", "n0", "one", 1000.0, (0,))
    state = RoundingState.for_aggregate(net, agg, values, (alt,))
    assert (state.request_budget, state.per_link_cap) == (60, 100)
    emb = embed_request(Request("n0", "one", 1.0), state, np.random.default_rng(0))
    assert emb.rejected and state.overflow_rejections == 1
    assert state.max_request_steps == state.total_steps == state.request_budget


def test_share_of_draws_tracks_the_fractional_weights():
    """Root mass (0.7, 0.3) over two single-node alternatives: the served
    split stays within 3-sigma binomial bounds of 0.7 while mass lasts."""
    alts = (
        AlternativeTopology("duo", 0, [VirtualNode("r", 0.0)], [], "r"),
        AlternativeTopology("duo", 1, [VirtualNode("r", 0.0)], [], "r"),
    )
    supply, draws = 10_000, 1_000
    values = {
        owner_key(0, ("n", "r", "E")): 0.7,
        owner_key(1, ("n", "r", "E")): 0.3,
    }
    net = toy_net()
    agg = AggregatedRequest("g0", "E", "duo", float(supply), tuple(range(supply)))
    state = RoundingState.for_aggregate(net, agg, values, alts)
    rng = np.random.default_rng(77)
    served = [
        embed_request(Request("E", "duo", 1.0), state, rng).alternative
        for _ in range(draws)
    ]
    share = served.count(0) / draws
    sigma = (0.7 * 0.3 / draws) ** 0.5
    assert abs(share - 0.7) <= 3 * sigma


# -- end-to-end --------------------------------------------------------------------


def test_tight_uplink_moves_everyone_to_the_accelerated_option():
    """All 100 requests on the 30-unit alternative exactly fill the 3000
    uplink units.  Serving one request via the 100-unit cheap embedding
    instead saves 75 but forces 7/3 accelerated requests onto the
    1050-cost local embedding, so the optimum serves everyone via the
    accelerated alternative; rounding follows with no rejections."""
    net, apps, eff = toy_net(link_cap=3000.0), toy_apps(), EfficiencyMap()
    requests = unit_requests(100)
    embeddings, report = tanto(net, apps, eff, requests, PSI_TOY, seed=0)
    assert report.lp_objective == pytest.approx(100 * 280.0, rel=1e-9)
    assert report.rejected == 0
    assert report.accepted == 100
    assert alternative_shares(embeddings) == {1: pytest.approx(1.0)}
    assert check_feasibility(net, apps, eff, embeddings) == []
    breakdown = total_cost(net, apps, eff, embeddings, PSI_TOY)
    assert breakdown.total == pytest.approx(100 * 280.0, rel=1e-9)


def test_integral_relaxation_is_copied_exactly():
    net, apps, eff = toy_net(), toy_apps(), EfficiencyMap()
    embeddings, report = tanto(net, apps, eff, unit_requests(1), PSI_TOY, seed=3)
    (emb,) = embeddings
    assert emb.alternative == 0
    assert emb.node_map == {"theta": "E", "A": "C", "B": "C"}
    assert emb.link_map == {("theta", "A"): (("E", "C"),), ("A", "B"): ()}
    assert report.lp_objective == pytest.approx(205.0, rel=1e-9)


def test_rejection_rate_tracks_the_fractional_optimum_under_saturation():
    """On a calibrated national topology at 100% target utilization the
    rounded rejection mass lands within a few points of the fractional
    optimum's."""
    gml = resources.files("vneap").joinpath("fixtures/topologies/arnes_si.graphml")
    graph = ingest_graphml(str(gml))
    net = assign_costs_capacities(graph, classify_tiers(graph))
    apps = load_applications(
        str(resources.files("vneap").joinpath("fixtures/cctv_two.json"))
    )
    app_id = next(iter(apps))
    eff = EfficiencyMap()
    calib = generate_requests(
        net, apps, GenParams(count=5000, app=app_id, enforce_origin_cap=False), seed=5
    )
    net = calibrate_target_utilization(net, apps, calib, 1.0, 1.0, population=600)
    requests = generate_requests(
        net, apps, GenParams(count=600, app=app_id, enforce_origin_cap=False), seed=6
    )
    psi = compute_rejection_penalty(net, apps, eff)
    total = sum(r.demand for r in requests)
    embeddings, report = tanto(net, apps, eff, requests, psi, seed=7)
    lp_rate = report.lp_rejected_demand / total
    tanto_rate = report.rejected_demand / total
    # the relaxation serves whatever serving costs no more than rejecting,
    # so its rejected mass is the least any optimum leaves, whichever
    # vertex HiGHS returns
    assert report.lp_objective == pytest.approx(35718.952679441514, rel=1e-9)
    assert lp_rate == pytest.approx(0.1194, abs=2e-4)
    assert tanto_rate >= lp_rate - 1e-9  # the relaxation is the lower bound
    assert tanto_rate - lp_rate <= 0.05
    assert check_feasibility(net, apps, eff, embeddings) == []


def test_fixed_seed_reproduces_the_run():
    net, apps, eff, requests, psi = random_instance(29)
    a, ra = tanto(net, apps, eff, requests, psi, seed=5)
    b, rb = tanto(net, apps, eff, requests, psi, seed=5)
    assert [(e.alternative, dict(e.node_map), dict(e.link_map)) for e in a] == [
        (e.alternative, dict(e.node_map), dict(e.link_map)) for e in b
    ]
    assert ra.rejected == rb.rejected
    assert ra.total_steps == rb.total_steps


def test_requests_with_one_outcome_share_read_only_maps():
    """On the overloaded arnes_si run, the requests of one aggregate whose
    walks end alike hold the same node map and link map objects, one pair
    per outcome, and neither map takes item assignment."""
    net, apps, eff, requests, psi = arnes_overloaded_instance()
    embeddings, _ = tanto(net, apps, eff, requests, psi, seed=5)
    accepted = [e for e in embeddings if not e.rejected]
    first = {}
    for e in accepted:
        r = e.request
        outcome = (r.origin, r.app, e.alternative, *e.node_map.items(), *e.link_map.items())
        seen = first.setdefault(outcome, e)
        assert e.node_map is seen.node_map and e.link_map is seen.link_map
    objects = {(id(e.node_map), id(e.link_map)) for e in accepted}
    assert len(objects) == len(first) < len(accepted)
    assert_maps_are_read_only(accepted)


@pytest.mark.parametrize("seed", [1, 7, 19])
def test_reported_guarantees_hold_and_are_recomputable(seed):
    net, apps, eff, requests, psi = random_instance(seed)
    embeddings, report = tanto(net, apps, eff, requests, psi, seed=seed)
    assert check_feasibility(net, apps, eff, embeddings) == []
    assert report.rejection_bound_ok and report.psi_gap_ok and report.steps_ok
    assert report.rounding_rejections <= report.initial_nonzero_y
    assert report.max_request_steps <= report.request_step_budget
    # the penalty-gap bound, rebuilt from raw instance quantities
    d_max = max(r.demand for r in requests)
    used = {r.app for r in requests}
    catalog_size = sum(
        len(a.nodes) + len(a.links) for app in used for a in apps[app].alternatives
    )
    bound = psi * d_max * len(net.nodes) * len(net.arcs) * catalog_size
    assert report.psi_gap_bound == pytest.approx(bound, rel=1e-12)
    assert report.psi_tanto - report.psi_lp <= bound + 1e-6 * (1 + bound)


# -- pinned output ------------------------------------------------------------

COUNTERS = (
    "aggregates",
    "initial_nonzero_y",
    "accepted",
    "rejected",
    "rounding_rejections",
    "stranded_rejections",
    "lp_exhausted_rejections",
    "overflow_rejections",
    "max_request_steps",
    "total_steps",
    "request_step_budget",
    "per_link_step_cap",
)


def recorded_form(name, embeddings, report) -> dict:
    """A run as the fixture stores it: its embeddings, the LP objective and
    the report's counters."""
    return {
        "name": name,
        "lp_objective": report.lp_objective,
        "counters": {c: getattr(report, c) for c in COUNTERS},
        "embeddings": recorded_embeddings(embeddings),
    }


def test_output_matches_the_recorded_run():
    """tanto's embeddings, LP objective and counters equal, exactly, those
    recorded from an earlier implementation (the greedy fixture's 30 random
    instances and overloaded arnes_si run, with tanto seed = instance seed)."""
    recorded = [json.loads(line) for line in RECORDED.read_text().splitlines()]
    runs = list(pinned_runs())
    assert [r["name"] for r in recorded] == [name for name, _, _ in runs]
    for (name, (net, apps, eff, requests, psi), seed), want in zip(runs, recorded):
        embeddings, report = tanto(net, apps, eff, requests, psi, seed=seed)
        got = json.loads(json.dumps(recorded_form(name, embeddings, report)))
        assert got == want, name


def round_with_states(net, apps, requests, relaxation, psi, seed):
    """``round_relaxation``, plus the state each aggregate ended in."""
    made = []
    build = RoundingState.for_aggregate

    def capture(*args):
        made.append(build(*args))
        return made[-1]

    with mock.patch.object(RoundingState, "for_aggregate", staticmethod(capture)):
        embeddings, report = round_relaxation(net, apps, requests, relaxation, psi, seed)
    return embeddings, report, made


def assert_rounds_like_the_dict_walk(net, apps, requests, relaxation, psi, seed):
    """The slot-table walk and the dict reference agree on the embeddings,
    every counter, and each aggregate's final residual to the bit."""
    embeddings, report, states = round_with_states(net, apps, requests, relaxation, psi, seed)
    want, counters, residuals = dict_round_relaxation(net, apps, requests, relaxation, seed)
    assert embeddings == want
    assert {c: getattr(report, c) for c in counters} == counters
    assert report.rejected == sum(e.rejected for e in want)
    assert report.aggregates == len(residuals) == len(states)
    for state in states:
        ref = residuals[state.owner]
        got = {k: v.hex() for k, v in zip(state.keys, state.y)}
        # the reference also zeroes placement keys that never held mass
        assert {k: v.hex() for k, v in ref.y.items() if k in got or v != 0.0} == got
        assert ref.zeroed & got.keys() == {k for k, z in zip(state.keys, state.zeroed) if z}
        assert state.initial_nonzero == ref.initial_nonzero


def test_rounding_matches_the_dict_walk_on_the_pinned_runs():
    for name, (net, apps, eff, requests, psi), seed in pinned_runs():
        relaxation = solve_relaxation(net, apps, eff, requests, psi)
        assert_rounds_like_the_dict_walk(net, apps, requests, relaxation, psi, seed)


def random_residuals(net, apps, eff, requests, psi, table_seed: int, density: float):
    """A relaxation whose values are random residuals over every variable
    of the aggregate relaxation's whole arc-flow program: a mix of full,
    partial, dust and missing mass, with every root given some, so that
    most walks get past the root."""
    aggregates = aggregate_requests(requests)
    owners = [(g.owner, g.origin, g.app, g.demand) for g in aggregates]
    keys = _owner_rows(net, apps, eff, owners, psi, REJECTION_MARGIN).keys
    roots = {
        VariableKey(g.owner, a.index, ("n", a.root, g.origin))
        for g in aggregates
        for a in apps[g.app].alternatives
    }
    rng = np.random.default_rng(table_seed)
    values = {}
    for key in keys:
        if key in roots or rng.random() < density:
            values[key] = float(rng.choice([1.0, rng.random(), rng.random() * 0.2, 1e-13]))
    frac = FractionalSolution(values, 0.0, {g.owner: 0.0 for g in aggregates}, tuple(aggregates))
    return Relaxation(Solution(OPTIMAL, 0.0, None), frac, 0.0, {})


@settings(max_examples=60, deadline=None)
@given(
    instance=st.integers(0, 199),
    table_seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.1, 0.4, 0.9]),
    repeat=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rounding_matches_the_dict_walk_on_random_residuals(
    instance, table_seed, density, repeat, seed
):
    """Request sequences (each random instance's requests, repeated so
    residuals run out) over random residual tables on the random
    instances' branching trees: both walks, same seed, same outcome."""
    net, apps, eff, requests, psi = random_instance(instance)
    requests = list(requests) * repeat
    relaxation = random_residuals(net, apps, eff, requests, psi, table_seed, density)
    assert_rounds_like_the_dict_walk(net, apps, requests, relaxation, psi, seed)


@pytest.mark.parametrize(
    "instance",
    [lambda: random_instance(8), lambda: random_instance(20), arnes_overloaded_instance],
    ids=["random-8", "random-20", "arnes_si-tu1.3"],
)
def test_relaxation_solves_each_master_once(monkeypatch, instance):
    """The relaxation's solution is column generation's last master
    solve: HiGHS runs once per pricing round, the final master's
    included, and the solution is a fresh solve of the built master's to
    the bit.  The timings count those solves and their iterations, and
    the built master's rows and nonzeros, and the master's ``rows`` view
    (what perfbench counts) holds its matrix's rows, entries and
    right-hand sides."""
    net, apps, eff, requests, psi = instance()
    runs = record_highs_runs(monkeypatch)
    got = solve_relaxation(net, apps, eff, requests, psi)
    monkeypatch.undo()
    calls = [iterations for *_, iterations in runs]
    assert len(calls) == got.timings["lp_pricing_rounds"]
    assert calls[-1] == got.timings["lp_iterations"]
    assert sum(calls) == got.timings["lp_total_iterations"]
    master = build_relaxed_aggregate_lp(net, apps, eff, aggregate_requests(requests), psi)
    A_ub = master.A_ub
    assert master.A_eq.shape == (0, master.n_vars)
    assert (got.timings["lp_rows"], got.timings["lp_nnz"]) == (A_ub.shape[0], A_ub.nnz)
    assert_rows_view(master)
    want = solve_lp(master)
    assert got.solution.objective.hex() == want.objective.hex()
    assert got.solution.x.tobytes() == want.x.tobytes()
    assert got.solution.duals.tobytes() == want.duals.tobytes()


def test_relaxation_optimum_matches_the_per_request_relaxation():
    """Aggregation is exact for the LP: on the pinned runs the aggregate
    relaxation's optimum equals the relaxed per-request exact model's,
    whichever optimal vertex the solver returns for either."""
    for name, (net, apps, eff, requests, psi), _ in pinned_runs():
        aggregate = solve_relaxation(net, apps, eff, requests, psi).solution
        per_request = solve_lp(build_milp(net, apps, eff, requests, psi).relax())
        assert aggregate.optimal and per_request.optimal, name
        assert aggregate.objective == pytest.approx(per_request.objective, rel=1e-9), name
