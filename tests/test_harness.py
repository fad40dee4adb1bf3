"""Experiment harness: topology ingest, degree-based tier classification,
cost/capacity assignment, request generation, capacity calibration, and
scenario execution."""

from __future__ import annotations

import collections
import csv
import functools
import hashlib
import io as stdio
import itertools
import json
import math
import random
import re
from dataclasses import replace
from importlib import resources
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import scipy.stats

import vneap.formulation
import vneap.harness
import vneap.lp
import vneap.rng
import vneap.tanto
from vneap.harness import (
    EDGE_LINK_CAPACITY,
    EDGE_NODE_CAPACITY,
    EDGE_NODE_COST,
    GenParams,
    ScenarioConfig,
    assign_costs_capacities,
    calibrate_target_utilization,
    calibrated_substrate,
    catalog_alternative_indices,
    classify_tiers,
    generate_requests,
    ingest_graphml,
    measured_utilization,
    result_columns,
    rows_to_csv,
    run_scenario,
    summarize,
    write_result,
)
from vneap.io import FormatError
from vneap.model import SubstrateNetwork, SubstrateNode
from vneap.tanto import tanto

from conftest import bench_draws, toy_apps, toy_net

GOLDEN = Path(__file__).parent / "golden"


def topology_path(name: str) -> Path:
    return Path(str(resources.files("vneap").joinpath(f"fixtures/topologies/{name}.graphml")))


# ---------------------------------------------------------------- ingest


@pytest.mark.parametrize(
    "name, nodes, edges",
    [("arnes_si", 34, 46), ("amres_rs", 25, 24), ("dfn_de", 58, 87)],
)
def test_ingest_bundled_topology_counts(name, nodes, edges):
    graph = ingest_graphml(topology_path(name))
    assert graph.number_of_nodes() == nodes
    assert graph.number_of_edges() == edges
    assert all(isinstance(n, str) for n in graph.nodes)


def test_ingest_missing_file():
    with pytest.raises(FormatError, match="no such file"):
        ingest_graphml("/nonexistent/topology.graphml")


def test_ingest_truncated_xml(tmp_path):
    bad = tmp_path / "broken.graphml"
    bad.write_text("<graphml>")
    with pytest.raises(FormatError, match="no element found"):
        ingest_graphml(bad)


def test_ingest_empty_graph(tmp_path):
    empty = tmp_path / "empty.graphml"
    empty.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <graph edgedefault="undirected"/>\n'
        "</graphml>\n"
    )
    with pytest.raises(FormatError, match="graph has no nodes"):
        ingest_graphml(empty)


def test_ingest_collapses_multiedges_and_drops_self_loops(tmp_path, caplog):
    multi = nx.MultiGraph()
    multi.add_edge("a", "b")
    multi.add_edge("a", "b")  # parallel
    multi.add_edge("a", "a")  # self-loop
    path = tmp_path / "multi.graphml"
    nx.write_graphml(multi, path)
    with caplog.at_level("WARNING"):
        graph = ingest_graphml(path)
    assert sorted(graph.nodes) == ["a", "b"]
    assert graph.number_of_edges() == 1
    assert "self-loop" in caplog.text


# -------------------------------------------------------- classify_tiers


def test_classify_star_degrades_to_two_tiers(caplog):
    star = nx.star_graph(6)  # node 0 is the hub
    with caplog.at_level("WARNING"):
        node_tiers, link_tiers = classify_tiers(star)
    assert "only 2 distinct degree value(s)" in caplog.text
    assert node_tiers["0"] == "core"
    for leaf in range(1, 7):
        assert node_tiers[str(leaf)] == "edge"
    # every link touches a leaf, so every link is edge-tier
    assert set(link_tiers.values()) == {"edge"}


def test_classify_three_node_path():
    node_tiers, link_tiers = classify_tiers(nx.path_graph(3))
    assert node_tiers == {"0": "edge", "1": "core", "2": "edge"}
    assert set(link_tiers.values()) == {"edge"}


def test_classify_uniform_degree_collapses_to_edge(caplog):
    with caplog.at_level("WARNING"):
        node_tiers, link_tiers = classify_tiers(nx.cycle_graph(5))
    assert "degrading to 1 tier(s)" in caplog.text
    assert set(node_tiers.values()) == {"edge"}
    assert set(link_tiers.values()) == {"edge"}


def test_classify_arnes_matches_golden_snapshot():
    graph = ingest_graphml(topology_path("arnes_si"))
    node_tiers, link_tiers = classify_tiers(graph)
    golden = json.loads((GOLDEN / "arnes_tiers.json").read_text())
    assert node_tiers == golden["nodes"]
    flat_links = {f"{u}--{v}": tier for (u, v), tier in link_tiers.items()}
    assert flat_links == golden["links"]
    counts = collections.Counter(node_tiers.values())
    assert counts == {"edge": 25, "transport": 7, "core": 2}


@pytest.mark.parametrize("name, counts", [("dfn_de", (45, 10, 3)), ("amres_rs", (20, 4, 1))])
def test_classify_bundled_tier_counts(name, counts):
    node_tiers, _ = classify_tiers(ingest_graphml(topology_path(name)))
    tally = collections.Counter(node_tiers.values())
    assert (tally["edge"], tally["transport"], tally["core"]) == counts


def test_classify_splits_degrees_into_least_deviation_ranges():
    """On random graphs each tier is a contiguous degree range, edge below
    transport below core, and the split's within-class squared deviation
    over the nodes' degrees is the least of any contiguous split."""

    def deviation(classes):
        return sum(float(np.sum((np.asarray(c) - np.mean(c)) ** 2)) for c in classes)

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 40)
        graph = nx.gnm_random_graph(n, rng.randint(1, 3 * n), seed=rng.randrange(2**32))
        degrees = dict(graph.degree())
        node_tiers, _ = classify_tiers(graph)
        unique = sorted(set(degrees.values()))
        k = min(3, len(unique))
        names = {1: ["edge"], 2: ["edge", "core"], 3: ["edge", "transport", "core"]}[k]
        assert set(node_tiers.values()) == set(names)
        classes = [sorted(d for v, d in degrees.items() if node_tiers[str(v)] == t) for t in names]
        assert all(lo[-1] < hi[0] for lo, hi in zip(classes, classes[1:]))
        least = min(
            deviation([d for d in degrees.values() if lo <= d < hi] for lo, hi in zip(bounds, bounds[1:]))
            for cuts in itertools.combinations(unique[1:], k - 1)
            for bounds in [(unique[0], *cuts, unique[-1] + 1)]
        )
        assert deviation(classes) == pytest.approx(least, rel=1e-9)


def test_classify_breaks_an_exact_tie_at_the_first_split():
    """Degrees 1-5 held by 2, 1, 2, 1, 2 nodes: the splits {1}{2,3}{4,5} and
    {1,2}{3}{4,5} both have squared deviation 4/3 and differ by one ulp in
    floating point; the lexicographically first, cuts (1, 3), is taken."""
    graph = nx.havel_hakimi_graph([5, 5, 4, 3, 3, 2, 1, 1])
    node_tiers, _ = classify_tiers(graph)
    by_degree = {d: node_tiers[str(v)] for v, d in graph.degree()}
    assert by_degree == {1: "edge", 2: "transport", 3: "transport", 4: "core", 5: "core"}
    assert vneap.harness._natural_breaks([1, 2, 3, 4, 5], [2, 1, 2, 1, 2], 3) == (1, 3)


# ------------------------------------------------- assign_costs_capacities


def three_tier_graph() -> nx.Graph:
    """Hub of degree 4, four routers of degree 3, eight leaves of degree 1."""
    g = nx.Graph()
    for i in range(4):
        g.add_edge("hub", f"t{i}")
        g.add_edge(f"t{i}", f"leaf{2 * i}")
        g.add_edge(f"t{i}", f"leaf{2 * i + 1}")
    return g


def test_assign_default_tier_values():
    graph = three_tier_graph()
    net = assign_costs_capacities(graph, classify_tiers(graph))
    by_id = net.node_by_id
    assert by_id["hub"].tier == "core"
    assert (by_id["hub"].cost, by_id["hub"].capacity) == (0.01, 9.0)
    assert (by_id["t0"].cost, by_id["t0"].capacity) == (0.03, 3.0)
    assert (by_id["leaf0"].cost, by_id["leaf0"].capacity) == (0.09, 1.0)
    # a leaf uplink is edge-tier, the hub links are transport-tier
    leaf_arc = net.arc_by_pair[("leaf0", "t0")]
    hub_arc = net.arc_by_pair[("hub", "t0")]
    assert (leaf_arc.cost, leaf_arc.capacity) == (0.02, 1.0)
    assert (hub_arc.cost, hub_arc.capacity) == (0.01, 3.0)


def test_assign_unit_ratios_are_uniform():
    graph = three_tier_graph()
    net = assign_costs_capacities(graph, classify_tiers(graph), tier_ratio=1.0)
    assert {n.cost for n in net.nodes} == {EDGE_NODE_COST}
    assert {n.capacity for n in net.nodes} == {EDGE_NODE_CAPACITY}
    assert {a.capacity for a in net.arcs} == {EDGE_LINK_CAPACITY}


def test_assign_creates_mirrored_arcs():
    graph = ingest_graphml(topology_path("arnes_si"))
    net = assign_costs_capacities(graph, classify_tiers(graph))
    assert len(net.arcs) == 2 * graph.number_of_edges()
    for arc in net.arcs:
        twin = net.arc_by_pair[(arc.dst, arc.src)]
        assert twin.cost == arc.cost
        assert twin.capacity == arc.capacity


# -------------------------------------------------------- generate_requests


def amres_net() -> SubstrateNetwork:
    graph = ingest_graphml(topology_path("amres_rs"))
    return assign_costs_capacities(graph, classify_tiers(graph))


def test_generate_is_deterministic_per_seed():
    net, apps = amres_net(), toy_apps()
    params = GenParams(count=60, app="cam", enforce_origin_cap=False)
    first = generate_requests(net, apps, params, seed=11)
    again = generate_requests(net, apps, params, seed=11)
    other = generate_requests(net, apps, params, seed=12)
    assert [(r.origin, r.demand) for r in first] == [(r.origin, r.demand) for r in again]
    assert [(r.origin, r.demand) for r in first] != [(r.origin, r.demand) for r in other]


def test_generate_origins_are_edge_tier():
    net, apps = amres_net(), toy_apps()
    edge_ids = {n.id for n in net.nodes if n.tier == "edge"}
    params = GenParams(count=200, app="cam", enforce_origin_cap=False)
    requests = generate_requests(net, apps, params, seed=3)
    assert len(requests) == 200
    assert {r.origin for r in requests} <= edge_ids
    assert all(r.app == "cam" for r in requests)


def test_generate_size_distribution():
    net, apps = amres_net(), toy_apps()
    params = GenParams(count=4000, app="cam", size_mean=10.0, size_sigma=2.0,
                       enforce_origin_cap=False)
    demands = np.array([r.demand for r in generate_requests(net, apps, params, seed=8)])
    assert demands.min() >= vneap.harness._SIZE_FLOOR
    # sample mean of N(10, 2) over 4000 draws: 4-sigma band is ~0.13 wide
    assert abs(demands.mean() - 10.0) < 4 * 2.0 / math.sqrt(4000)
    assert abs(demands.std() - 2.0) < 0.2


def test_generate_lognormal_concentrates_origins():
    net, apps = amres_net(), toy_apps()
    def top_share(spatial: str) -> float:
        params = GenParams(count=3000, app="cam", spatial=spatial,
                           enforce_origin_cap=False)
        requests = generate_requests(net, apps, params, seed=21)
        counts = collections.Counter(r.origin for r in requests)
        return max(counts.values()) / len(requests)
    assert top_share("lognormal") > 1.5 * top_share("uniform")


def test_generate_origin_cap_limits_count(caplog):
    # cam's main alternative needs 105 capacity units per unit of demand,
    # so an origin with capacity 1050 saturates after ~10 unit requests.
    net, apps = toy_net(node_cap=1050.0), toy_apps()
    params = GenParams(count=50, app="cam", size_mean=1.0, size_sigma=1e-9)
    with caplog.at_level("WARNING"):
        requests = generate_requests(net, apps, params, seed=4)
    assert "origin caps exhausted" in caplog.text
    assert 1 <= len(requests) <= 10
    assert all(r.origin == "E" for r in requests)


def test_generate_rejects_unknown_spatial_profile():
    with pytest.raises(ValueError, match="spatial must be one of uniform, lognormal, not 'gaussian'"):
        generate_requests(
            toy_net(), toy_apps(),
            GenParams(count=1, app="cam", spatial="gaussian"), seed=0,
        )


@pytest.mark.parametrize("count, shown", [(math.nan, "nan"), (2.5, "2.5"), (True, "True"), (3.0, "3.0")])
def test_gen_params_refuse_a_count_that_is_not_an_integer(count, shown):
    """NaN would draw no request, 2.5 three and True one; each is refused
    by name instead."""
    with pytest.raises(ValueError, match=f"count must be an integer, not {shown}$"):
        GenParams(count=count, app="cam")


def test_generate_rejects_a_degenerate_lognormal_profile():
    """sigma 0 gives NaN weights; they are refused before any draw."""
    params = GenParams(count=5, app="cam", spatial="lognormal", lognormal_sigma=0.0)
    with pytest.raises(ValueError, match="no valid origin weights"):
        generate_requests(amres_net(), toy_apps(), params, seed=0)


def reference_requests(net, apps, params, seed) -> list[tuple[str, float]]:
    """(origin, demand) of generate_requests, each origin drawn by numpy's
    own ``Generator.choice`` with the profile's normalized weights."""
    edges = sorted((n for n in net.nodes if n.tier == "edge"), key=lambda n: n.id)
    if params.spatial == "uniform":
        weights = np.full(len(edges), 1.0 / len(edges))
    else:
        xs = 3.0 * (np.arange(len(edges)) + 0.5) / len(edges)
        pdf = scipy.stats.lognorm.pdf(xs, s=params.lognormal_sigma, scale=math.exp(params.lognormal_mu))
        weights = pdf / pdf.sum()
    node_fp, _, first_link = vneap.harness._main_footprint(apps[params.app])
    caps = {
        n.id: min(n.capacity / node_fp, sum(a.capacity for a in net.out_arcs.get(n.id, ())) / first_link)
        if params.enforce_origin_cap else math.inf
        for n in edges
    }
    used = collections.Counter()
    stream = vneap.rng.stream(seed, "generate")
    out = []
    for _ in range(max(10 * params.count, 1000)):
        if len(out) == params.count:
            break
        origin = edges[int(stream.choice(len(edges), p=weights))].id
        size = max(vneap.harness._SIZE_FLOOR, float(stream.normal(params.size_mean, params.size_sigma)))
        if used[origin] + size > caps[origin]:
            continue
        used[origin] += size
        out.append((origin, size))
    return out


def capped_amres_net() -> SubstrateNetwork:
    """amres_rs calibrated to TU 0.5 for 300 cam requests of the default
    size: the origin cap turns some draws away."""
    base, apps = amres_net(), toy_apps()
    calib = generate_requests(base, apps, GenParams(count=300, app="cam", enforce_origin_cap=False), 1)
    return calibrate_target_utilization(base, apps, calib, 0.5, 0.5)


@pytest.mark.parametrize("spatial", ["uniform", "lognormal"])
@pytest.mark.parametrize("cap", [False, True])
def test_generate_draws_what_generator_choice_draws(spatial, cap):
    """Origins come from a CDF built once and sizes from one standard
    normal draw each, yet every draw, redraw and size is the one numpy's
    per-call ``choice`` and ``normal`` give, also at sizes 0.7 ± 3.3,
    where the floor clips about two in five and neither mean nor sigma
    is a binary fraction."""
    net, apps = capped_amres_net(), toy_apps()
    for (mean, sigma), seed in itertools.product([(10.0, 2.0), (0.7, 3.3)], range(5)):
        params = GenParams(count=250, app="cam", size_mean=mean, size_sigma=sigma, spatial=spatial,
                           lognormal_mu=0.3 * seed, lognormal_sigma=0.5 + seed, enforce_origin_cap=cap)
        got = [(r.origin, r.demand) for r in generate_requests(net, apps, params, seed)]
        assert got == reference_requests(net, apps, params, seed)
        assert got
        if mean < 1:
            assert sum(size == vneap.harness._SIZE_FLOOR for _, size in got) > len(got) / 4


def test_generate_gives_up_at_the_attempt_limit_as_the_reference_does(caplog, monkeypatch):
    """With the cap on and more requests asked for than the origins hold,
    every draw is the reference's, generation stops after exactly
    ``10 * count`` attempts (one origin and one size drawn each), and the
    shortfall is logged."""
    net, apps = capped_amres_net(), toy_apps()
    params = GenParams(count=2000, app="cam", spatial="lognormal", enforce_origin_cap=True)
    draws = collections.Counter()
    make = vneap.rng.stream

    class Counted:
        def __init__(self, generator):
            self.generator = generator

        def __getattr__(self, name):
            method = getattr(self.generator, name)

            def counted(*args):
                draws[name] += 1
                return method(*args)

            return counted

    monkeypatch.setattr(vneap.rng, "stream", lambda *labels: Counted(make(*labels)))
    with caplog.at_level("WARNING"):
        got = [(r.origin, r.demand) for r in generate_requests(net, apps, params, 3)]
    monkeypatch.undo()
    assert draws == {"random": 20_000, "standard_normal": 20_000}
    assert got == reference_requests(net, apps, params, 3)
    assert 0 < len(got) < 2000
    assert f"origin caps exhausted: generated {len(got)} of 2000 requests" in caplog.text


GENERATE_DIGESTS = Path(__file__).parent / "data" / "generate_digests.json"


def sha256_json(form) -> str:
    return hashlib.sha256(json.dumps(form).encode()).hexdigest()


def draws_digest(requests) -> str:
    return sha256_json([(r.origin, r.demand.hex()) for r in requests])


@functools.lru_cache(maxsize=None)
def bench_draws_once(topology: str, count: int):
    return bench_draws(topology, count)


def digested_draw(name: str) -> str:
    """The digest named ``name``: a benchmark-shaped set-up's
    (``topology-count/part``) calibration sample, calibrated capacities,
    run requests or their aggregates, or ``capped-lognormal``, a
    lognormal draw on amres_rs whose origin caps turn draws away."""
    if name == "capped-lognormal":
        apps, _, net, _ = bench_draws_once("amres_rs", 12000)
        params = GenParams(count=5000, app="cctv", spatial="lognormal", enforce_origin_cap=True)
        capped = generate_requests(net, apps, params, 1)
        assert len(capped) == 5000
        assert capped != generate_requests(net, apps, replace(params, enforce_origin_cap=False), 1)
        return draws_digest(capped)
    run, part = name.split("/")
    topology, count = run.split("-")
    _, sample, net, requests = bench_draws_once(topology, int(count))
    if part == "sample":
        return draws_digest(sample)
    if part == "requests":
        return draws_digest(requests)
    if part == "capacities":
        return sha256_json([x.capacity.hex() for x in (*net.nodes, *net.arcs)])
    return sha256_json([
        (g.owner, g.origin, g.app, g.demand.hex(), list(g.members))
        for g in vneap.formulation.aggregate_requests(requests)
    ])


DIGESTED_DRAWS = [
    f"{run}/{part}"
    for run in ("arnes_si-1000", "amres_rs-12000")
    for part in ("sample", "capacities", "requests", "aggregates")
] + ["capped-lognormal"]


@pytest.mark.parametrize("name", DIGESTED_DRAWS)
def test_draws_match_the_recorded_digests(name):
    """Both benchmark set-ups' calibration samples, calibrated capacities,
    run requests and aggregates, and a capped lognormal draw, are to the
    bit those an earlier implementation drew."""
    assert digested_draw(name) == json.loads(GENERATE_DIGESTS.read_text())[name]


def test_generate_requires_edge_nodes():
    lonely = SubstrateNetwork(
        nodes=(SubstrateNode("c", cost=1.0, capacity=5.0, tier="core"),), arcs=()
    )
    with pytest.raises(ValueError, match="no edge-tier nodes"):
        generate_requests(lonely, toy_apps(), GenParams(count=1, app="cam"), seed=0)


# ------------------------------------------------ calibrate_target_utilization


def calib_setup():
    net, apps = amres_net(), toy_apps()
    params = GenParams(count=300, app="cam", enforce_origin_cap=False)
    return net, apps, generate_requests(net, apps, params, seed=14)


def test_calibrate_hits_requested_utilization_exactly():
    net, apps, calib = calib_setup()
    scaled = calibrate_target_utilization(net, apps, calib, node_tu=0.7, link_tu=1.3)
    node_tu, link_tu = measured_utilization(scaled, apps, calib)
    assert node_tu == pytest.approx(0.7, rel=1e-12)
    assert link_tu == pytest.approx(1.3, rel=1e-12)


def test_calibrate_halving_node_tu_doubles_node_capacity():
    net, apps, calib = calib_setup()
    tight = calibrate_target_utilization(net, apps, calib, 1.0, 1.0)
    loose = calibrate_target_utilization(net, apps, calib, 0.5, 1.0)
    for a, b in zip(tight.nodes, loose.nodes):
        assert b.capacity == pytest.approx(2 * a.capacity, rel=1e-12)
        assert b.cost == a.cost
    for a, b in zip(tight.arcs, loose.arcs):
        assert b.capacity == a.capacity


def test_calibrate_link_tu_scales_arcs_only():
    net, apps, calib = calib_setup()
    tight = calibrate_target_utilization(net, apps, calib, 1.0, 1.0)
    loose = calibrate_target_utilization(net, apps, calib, 1.0, 0.5)
    for a, b in zip(tight.arcs, loose.arcs):
        assert b.capacity == pytest.approx(2 * a.capacity, rel=1e-12)
    for a, b in zip(tight.nodes, loose.nodes):
        assert b.capacity == a.capacity


def test_calibrate_population_rescales_linearly():
    net, apps, calib = calib_setup()
    sample_sized = calibrate_target_utilization(net, apps, calib, 1.0, 1.0)
    doubled = calibrate_target_utilization(
        net, apps, calib, 1.0, 1.0, population=2 * len(calib)
    )
    for a, b in zip(sample_sized.nodes, doubled.nodes):
        assert b.capacity == pytest.approx(2 * a.capacity, rel=1e-12)
    for a, b in zip(sample_sized.arcs, doubled.arcs):
        assert b.capacity == pytest.approx(2 * a.capacity, rel=1e-12)


def test_calibrate_preserves_tier_capacity_ratios():
    net, apps, calib = calib_setup()
    scaled = calibrate_target_utilization(net, apps, calib, 0.8, 0.8)
    by_tier = {}
    for node in scaled.nodes:
        by_tier.setdefault(node.tier, set()).add(node.capacity)
    # uniform scaling: tiers stay internally uniform, and the 1:3 edge to
    # transport ratio from assignment survives calibration
    assert all(len(caps) == 1 for caps in by_tier.values())
    edge_cap = next(iter(by_tier["edge"]))
    transport_cap = next(iter(by_tier["transport"]))
    assert transport_cap == pytest.approx(3 * edge_cap, rel=1e-12)


def test_calibrate_input_validation():
    net, apps, calib = calib_setup()
    with pytest.raises(ValueError, match="carries no demand"):
        calibrate_target_utilization(net, apps, [], 1.0, 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        calibrate_target_utilization(net, apps, calib, 0.0, 1.0)
    for tu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            calibrate_target_utilization(net, apps, calib, tu, 1.0)
        with pytest.raises(ValueError, match="must be positive and finite"):
            calibrate_target_utilization(net, apps, calib, 1.0, tu)
    with pytest.raises(ValueError, match="not a finite positive factor"):
        calibrate_target_utilization(net, apps, calib, 1e-320, 1.0)
    with pytest.raises(ValueError, match="no node or no arc capacity"):
        calibrate_target_utilization(SubstrateNetwork(net.nodes, ()), apps, calib, 1.0, 1.0)
    with pytest.raises(ValueError, match="population must be positive"):
        calibrate_target_utilization(net, apps, calib, 1.0, 1.0, population=0)


def uncapped(net: SubstrateNetwork, count: int, seed: int, mean: float = 0.1, sigma: float = 1.0):
    """``count`` cam requests drawn on ``net`` with the origin cap off;
    the default sizes are floor_config's."""
    params = GenParams(count=count, app="cam", size_mean=mean, size_sigma=sigma, enforce_origin_cap=False)
    return generate_requests(net, toy_apps(), params, seed)


@pytest.mark.parametrize("mean, sigma", [(10.0, 2.0), (1.0, 0.2), (0.1, 1.0)])
def test_clipped_mean_matches_a_large_sample(mean, sigma):
    """The closed-form mean of max(floor, N(mean, sigma)) agrees with the
    mean of 200 000 drawn sizes within 4 standard errors, also at (0.1, 1),
    where the floor clips half the draws and max(floor, mean) is 0.1
    against a true mean near 0.5."""
    sizes = np.array([r.demand for r in uncapped(amres_net(), 200_000, 5, mean, sigma)])
    standard_error = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs(vneap.harness._clipped_mean(mean, sigma) - sizes.mean()) < 4 * standard_error


def floor_config(**overrides) -> ScenarioConfig:
    """500 requests on amres_rs whose sizes the floor clips half the time."""
    settings = dict(name="floor", substrate=amres_net(), apps=toy_apps(), requests=500,
                    node_tu=0.8, link_tu=0.6, app="cam", size_mean=0.1, size_sigma=1.0)
    return ScenarioConfig(**{**settings, **overrides})


def test_sample_calibration_agrees_with_the_closed_form():
    """Calibrating to a 20 000-request sample sizes every capacity as the
    closed form does, within 4 of the sample mean's relative standard errors."""
    config = floor_config()
    sample = uncapped(config.substrate, 20_000, seed=9)
    estimated = calibrate_target_utilization(
        config.substrate, config.apps, sample, 0.8, 0.6, population=config.requests
    )
    sizes = np.array([r.demand for r in sample])
    relative_error = sizes.std(ddof=1) / math.sqrt(len(sizes)) / sizes.mean()
    exact = calibrated_substrate(config)
    for a, b in zip(exact.nodes + exact.arcs, estimated.nodes + estimated.arcs):
        assert abs(b.capacity / a.capacity - 1) < 4 * relative_error


def test_calibrated_substrate_runs_at_its_target_utilization():
    """With the origin cap off, the node and link utilization that 20
    repetitions' requests measure on the calibrated substrate average to
    node_tu and link_tu within 4 standard errors."""
    config = floor_config()
    net = calibrated_substrate(config)
    measured = np.array([
        measured_utilization(net, config.apps, uncapped(
            net, config.requests, vneap.rng.substream_seed(config.seed, "requests", rep)))
        for rep in range(20)
    ])
    standard_error = measured.std(axis=0, ddof=1) / math.sqrt(len(measured))
    assert (abs(measured.mean(axis=0) - (0.8, 0.6)) < 4 * standard_error).all()


# ------------------------------------------------------------ run_scenario


def tiny_config(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="tiny",
        substrate=toy_net(),
        apps=toy_apps(),
        requests=12,
        node_tu=0.2,
        link_tu=0.2,
        app="cam",
        size_mean=1.0,
        size_sigma=0.2,
        algorithms=("greedy",),
        repetitions=1,
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_run_scenario_single_repetition():
    result = run_scenario(tiny_config())
    assert result.errors == []
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["scenario"] == "tiny"
    assert row["algorithm"] == "greedy"
    assert row["repetition"] == 0
    assert row["status"] == "ok"
    assert row["request_count"] == 12
    assert row["total_cost"] > 0
    assert len(result.timings) == 1
    assert result.timings[0]["runtime_s"] >= 0
    assert "greedy" in result.aggregates


def test_run_scenario_row_grid():
    result = run_scenario(tiny_config(repetitions=2, algorithms=("lp", "greedy")))
    assert result.errors == []
    assert [(r["repetition"], r["algorithm"]) for r in result.rows] == [
        (0, "lp"), (0, "greedy"), (1, "lp"), (1, "greedy"),
    ]
    # repetitions draw different request sets
    assert result.rows[0]["served_demand"] != result.rows[2]["served_demand"]


def test_timings_carry_each_repetitions_setup_time():
    """Every row of a repetition carries the wall time of drawing its
    requests, and the sidecar writes it."""
    result = run_scenario(tiny_config(repetitions=2, algorithms=("lp", "greedy")))
    setups = [t["setup_runtime_s"] for t in result.timings]
    assert all(s >= 0 for s in setups)
    assert setups[0] == setups[1] and setups[2] == setups[3]
    written = list(csv.DictReader(stdio.StringIO(vneap.harness.timings_to_csv(result.timings))))
    assert [float(t["setup_runtime_s"]) for t in written] == setups


def test_timings_carry_the_cpu_seconds_beside_the_wall_seconds():
    """Every row carries the CPU seconds its process spent on the row's
    algorithm and on its repetition's set-up, and the sidecar writes
    them; the lp row, which solves the relaxation, spends some."""
    result = run_scenario(tiny_config(repetitions=2, algorithms=("lp", "greedy")))
    assert all(t["cpu_s"] >= 0 and t["setup_cpu_s"] >= 0 for t in result.timings)
    assert all(t["cpu_s"] > 0 for t in result.timings if t["algorithm"] == "lp")
    setups = [t["setup_cpu_s"] for t in result.timings]
    assert setups[0] == setups[1] and setups[2] == setups[3]
    written = list(csv.DictReader(stdio.StringIO(vneap.harness.timings_to_csv(result.timings))))
    assert [[float(t["cpu_s"]), float(t["setup_cpu_s"])] for t in written] == [
        [t["cpu_s"], t["setup_cpu_s"]] for t in result.timings
    ]


def test_relaxation_timings_carry_its_four_stages():
    """lp, vnep:T and tanto timings split the relaxation into aggregate,
    build, solve and unpack seconds, which add up to no more than the
    relaxation's time; the sidecar writes them."""
    result = run_scenario(tiny_config(algorithms=("lp", "vnep:0", "tanto", "greedy")))
    assert result.errors == []
    stages = ("aggregate_s", "build_s", "solve_s", "unpack_s")
    by_algo = {t["algorithm"]: t for t in result.timings}
    for algo, total in (("lp", "runtime_s"), ("vnep:0", "runtime_s"), ("tanto", "lp_runtime_s")):
        assert all(by_algo[algo][k] >= 0 for k in stages)
        assert sum(by_algo[algo][k] for k in stages) <= by_algo[algo][total]
    assert not set(stages) & set(by_algo["greedy"])
    written = list(csv.DictReader(stdio.StringIO(vneap.harness.timings_to_csv(result.timings))))
    assert [[t[k] and float(t[k]) for k in stages] for t in written] == [
        [t.get(k, "") for k in stages] for t in result.timings
    ]


def test_scenario_config_refuses_origins_no_run_can_draw():
    """A substrate without edge-tier nodes, or a log-normal profile whose
    weights are NaN (sigma 0) or all 0 (sigma 1e-300), is refused when
    the scenario is built, as ``generate_requests`` refuses it."""
    lonely = SubstrateNetwork(
        nodes=(SubstrateNode("c", cost=1.0, capacity=5.0, tier="core"),), arcs=()
    )
    with pytest.raises(ValueError, match="no edge-tier nodes"):
        tiny_config(substrate=lonely)
    for sigma in (0.0, 1e-300):
        with pytest.raises(ValueError, match=f"lognormal_sigma={sigma!r}.*no valid origin weights"):
            tiny_config(spatial="lognormal", lognormal_sigma=sigma)


def test_repetitions_run_on_the_calibrated_substrate(monkeypatch):
    """Every repetition draws its requests on, and runs greedy on, the
    substrate that calibrated_substrate gives, not the uncalibrated one."""
    seen = []
    for name in ("generate_requests", "greedy_embed_all"):
        real = getattr(vneap.harness, name)

        def recording(net, *args, real=real):
            seen.append((net.nodes, net.arcs))
            return real(net, *args)

        monkeypatch.setattr(vneap.harness, name, recording)
    config = tiny_config(repetitions=2)
    assert run_scenario(config).errors == []
    calibrated = calibrated_substrate(config)
    assert calibrated.nodes != config.substrate.nodes
    assert seen == [(calibrated.nodes, calibrated.arcs)] * 4


def fail_setup(monkeypatch) -> None:
    """Make every repetition's request draw fail; a scenario that no draw
    can originate or calibration cannot scale is refused on construction."""

    def refuse(*args, **kwargs):
        raise ValueError("substrate has no edge-tier nodes to originate requests")

    monkeypatch.setattr(vneap.harness, "generate_requests", refuse)


def test_run_scenario_records_a_failed_setup_as_an_error(monkeypatch):
    """A request draw that fails fails the repetition's set-up, which is
    recorded under no algorithm."""
    fail_setup(monkeypatch)
    result = run_scenario(tiny_config())
    assert result.rows == []
    assert [(e["algorithm"], e["type"]) for e in result.errors] == [("", "ValueError")]


def test_worker_processes_return_what_a_serial_run_returns(monkeypatch):
    """At jobs=2 the repetitions run on worker processes.  A set-up that
    fails in every repetition comes back as the serial run records it:
    the same errors in repetition order, with the same type and message.
    A run that succeeds gives the same rows, and each timing row carries
    the same keys."""
    with monkeypatch.context() as patch:
        fail_setup(patch)  # forked workers inherit the patch
        serial = run_scenario(tiny_config(repetitions=3))
        parallel = run_scenario(tiny_config(jobs=2, repetitions=3))
    assert [e["repetition"] for e in serial.errors] == [0, 1, 2]
    assert parallel.errors == serial.errors
    working = dict(repetitions=3, algorithms=("lp", "greedy", "tanto"))
    serial = run_scenario(tiny_config(**working))
    parallel = run_scenario(tiny_config(jobs=2, **working))
    assert serial.errors == parallel.errors == []
    assert parallel.rows == serial.rows
    assert [sorted(t) for t in parallel.timings] == [sorted(t) for t in serial.timings]


def test_run_scenario_rows_are_reproducible():
    config = tiny_config(repetitions=3, algorithms=("lp", "greedy", "tanto"))
    alt_indices = catalog_alternative_indices(config.apps)
    first = rows_to_csv(run_scenario(config).rows, alt_indices)
    again = rows_to_csv(run_scenario(config).rows, alt_indices)
    assert first == again


def test_run_scenario_records_algorithm_errors(monkeypatch):
    def crash(*args):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(vneap.harness, "solve_relaxation", crash)
    result = run_scenario(tiny_config(algorithms=("lp", "greedy")))
    assert len(result.rows) == 1  # greedy still ran
    assert result.rows[0]["algorithm"] == "greedy"
    assert len(result.errors) == 1
    assert result.errors[0]["algorithm"] == "lp"
    assert result.errors[0]["type"] == "RuntimeError"
    assert result.errors[0]["error"] == "solver crashed"


def test_run_scenario_solves_each_relaxation_once(monkeypatch):
    """The lp row and tanto share one solve per repetition.  Every module
    binding of ``solve_lp`` is counted, so no second solve can hide."""
    calls = []
    real = vneap.lp.solve_lp

    def counting(lp):
        calls.append(lp.n_vars)
        return real(lp)

    for module in (vneap.lp, vneap.formulation, vneap.harness, vneap.tanto):
        if hasattr(module, "solve_lp"):
            monkeypatch.setattr(module, "solve_lp", counting)
    result = run_scenario(tiny_config(repetitions=2, algorithms=("lp", "tanto")))
    assert result.errors == []
    assert len(result.rows) == 4
    assert len(calls) == 2


def test_run_scenario_tanto_matches_a_standalone_run(monkeypatch):
    """Rounding the shared relaxation gives the embeddings and counters
    that a standalone tanto() gives on the same net, requests, psi and
    seed."""
    seen = []
    real = vneap.harness.round_relaxation

    def recording(net, apps, requests, relaxation, psi, seed):
        out = real(net, apps, requests, relaxation, psi, seed)
        seen.append(((net, apps, requests, psi, seed), out))
        return out

    monkeypatch.setattr(vneap.harness, "round_relaxation", recording)
    config = tiny_config(repetitions=2, algorithms=("lp", "tanto"))
    assert run_scenario(config).errors == []
    assert len(seen) == 2
    for (net, apps, requests, psi, seed), (embeddings, report) in seen:
        alone, alone_report = tanto(net, apps, config.efficiency, requests, psi, seed=seed)
        assert embeddings == alone
        timings = {"lp_runtime_s", "rounding_runtime_s", "rounding_cpu_s", "runtime_s"}
        fields = [f for f in vars(report) if f not in timings]
        assert [getattr(report, f) for f in fields] == [getattr(alone_report, f) for f in fields]


def test_scenario_config_derives_an_absent_psi():
    """An absent ψ is derived when the scenario is built, as solve derives
    it, and a given one, 0 included, is kept."""
    config = tiny_config()
    assert config.psi == vneap.formulation.compute_rejection_penalty(config.substrate, config.apps, config.efficiency)
    assert tiny_config(psi=0.0).psi == 0.0


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        tiny_config(repetitions=0)
    with pytest.raises(ValueError):
        tiny_config(node_tu=0.0)
    with pytest.raises(ValueError):
        tiny_config(size_sigma=0.0)
    with pytest.raises(ValueError, match="requests must be >= 1, not 0"):
        tiny_config(requests=0)
    with pytest.raises(ValueError, match="jobs must be >= 1, not -3"):
        tiny_config(jobs=-3)
    with pytest.raises(ValueError, match="spatial must be one of uniform, lognormal"):
        tiny_config(spatial="gaussian")
    with pytest.raises(ValueError, match="app 'nope' is not in the catalog"):
        tiny_config(app="nope")
    with pytest.raises(ValueError, match="algorithms must name at least one algorithm"):
        tiny_config(algorithms=())
    with pytest.raises(ValueError, match="algorithms: algorithm 'vnep:7': no alternative with index 7"):
        tiny_config(algorithms=("greedy", "vnep:7"))
    with pytest.raises(ValueError, match="the catalog holds no application"):
        tiny_config(apps={}, app="")
    with pytest.raises(ValueError, match="count must be >= 1, not 0"):
        GenParams(count=0, app="cam")
    # no run can draw these sizes, so calibration refuses them on loading
    for sizes, scale in (({"size_mean": math.nan}, "nan"), ({"size_mean": -math.inf}, "nan"),
                         ({"size_sigma": math.inf}, "inf")):
        with pytest.raises(ValueError, match=f"calibration cannot size .* node capacity scale {scale} "):
            tiny_config(**sizes)


@pytest.mark.parametrize("key", ["requests", "repetitions", "jobs", "seed"])
@pytest.mark.parametrize("value", [2.5, True])
def test_scenario_config_refuses_an_integer_field_that_is_not_an_integer(key, value):
    """A float or bool would compare as a number: requests 2.5 failed only
    in the first repetition, repetitions 2.5 in ``range``, and jobs 2.5,
    repetitions True and seed 2.5 (seed 2's rows) ran as if asked for."""
    with pytest.raises(ValueError, match=f"^{key} must be an integer, not {value!r}$"):
        tiny_config(**{key: value})


@pytest.mark.parametrize("name", ["", ".", "..", "sub/x", "../x", "/tmp/x"])
def test_scenario_config_refuses_a_name_that_is_not_a_file_name_prefix(name):
    """The name prefixes the files written inside the output directory:
    a separator would write them elsewhere, or nowhere, after every
    repetition had run."""
    with pytest.raises(ValueError, match=f"^name must be a plain file-name prefix, not {re.escape(repr(name))}$"):
        tiny_config(name=name)


# ------------------------------------------------------- reporting helpers


def test_summarize_means_and_variances():
    rows = [
        {"algorithm": "a", "rejection_rate": 0.0, "total_cost": 10.0},
        {"algorithm": "a", "rejection_rate": 0.5, "total_cost": 30.0},
        {"algorithm": "b", "rejection_rate": 1.0},
    ]
    stats = summarize(rows)
    assert stats["a"]["rejection_rate"] == {"mean": 0.25, "variance": 0.0625, "n": 2}
    assert stats["a"]["total_cost"] == {"mean": 20.0, "variance": 100.0, "n": 2}
    assert stats["b"]["rejection_rate"]["variance"] == 0.0
    assert "total_cost" not in stats["b"]


def test_result_columns_layout():
    columns = result_columns([0, 1])
    assert columns[0] == "scenario"
    assert "share_0" in columns and "share_1" in columns
    assert columns.index("share_0") < columns.index("share_1")
    assert "psi_gap_ok" in columns
    assert len(columns) == len(set(columns))


def test_rows_to_csv_formatting():
    rows = [{"scenario": "s", "algorithm": "lp", "total_cost": 0.1,
             "psi_gap_ok": True, "share_0": 1.0}]
    text = rows_to_csv(rows, [0])
    reader = csv.DictReader(stdio.StringIO(text))
    parsed = next(reader)
    assert parsed["total_cost"] == "0.1"
    assert parsed["psi_gap_ok"] == "true"
    assert parsed["rejection_rate"] == ""  # absent fields stay empty


def test_write_result_emits_all_files(tmp_path):
    config = tiny_config()
    result = run_scenario(config)
    paths = write_result(result, tmp_path, config.apps)
    assert sorted(paths) == ["long", "rows", "summary", "timings"]
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    header = (tmp_path / "tiny_rows.csv").read_text().splitlines()[0]
    assert header == ",".join(result_columns(catalog_alternative_indices(config.apps)))
    summary = json.loads((tmp_path / "tiny_summary.json").read_text())
    assert summary["scenario"] == "tiny"
    assert summary["schema_version"] == 1
    assert "greedy" in summary["aggregates"]
