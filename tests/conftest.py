"""Shared test fixtures: the two-node toy instance, a seeded random-instance
generator, the runs pinned by the recorded-output fixtures, and the
acceptance-criteria summary banner."""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy

import vneap.io as vio
from vneap import harness
from vneap.formulation import (
    aggregate_requests,
    build_relaxed_aggregate_lp,
    compute_rejection_penalty,
    restrict_to_alternative,
)
from vneap.greedy import greedy_embed_all
from vneap import lp as lp_module
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
from vneap.tanto import tanto
from vneap.validator import check_feasibility, total_cost

# -- the two-node toy ----------------------------------------------------------
#
# Substrate: one expensive edge node E (cost 10) and one cheap core node C
# (cost 1), joined by a pair of opposing arcs of cost 1.  The camera app has a
# main alternative (theta -> A(5) -> B(100), links 100/100) and an accelerated
# one that inserts acc(10) before B and shrinks the final link to 30.
#
# Its four canonical embeddings per unit demand:
#   (a) main, A and B on C            -> 205
#   (b) main, A on E, B on C          -> 250
#   (c) main, everything on E         -> 1050
#   (d) accelerated, A+acc on E, B on C -> 280


def toy_net(link_cap: float = 1e12, node_cap: float = 1e12) -> SubstrateNetwork:
    return SubstrateNetwork(
        [
            SubstrateNode("E", 10.0, node_cap, "edge"),
            SubstrateNode("C", 1.0, node_cap, "core"),
        ],
        [
            SubstrateArc("E", "C", 1.0, link_cap),
            SubstrateArc("C", "E", 1.0, link_cap),
        ],
    )


def toy_apps() -> dict[str, Application]:
    main = AlternativeTopology(
        "cam",
        0,
        [VirtualNode("theta", 0.0), VirtualNode("A", 5.0), VirtualNode("B", 100.0)],
        [VirtualLink("theta", "A", 100.0), VirtualLink("A", "B", 100.0)],
        "theta",
    )
    accelerated = AlternativeTopology(
        "cam",
        1,
        [
            VirtualNode("theta", 0.0),
            VirtualNode("A", 5.0),
            VirtualNode("acc", 10.0),
            VirtualNode("B", 100.0),
        ],
        [
            VirtualLink("theta", "A", 100.0),
            VirtualLink("A", "acc", 100.0),
            VirtualLink("acc", "B", 30.0),
        ],
        "theta",
    )
    return {"cam": Application("cam", (main, accelerated))}


def unit_requests(n: int, origin: str = "E", app: str = "cam") -> list[Request]:
    return [Request(origin, app, 1.0) for _ in range(n)]


@pytest.fixture
def toy():
    """(net, apps, efficiency) with effectively unlimited capacity."""
    return toy_net(), toy_apps(), EfficiencyMap()


# -- seeded random instances ----------------------------------------------------


def random_instance(
    seed: int,
    *,
    max_nodes: int = 10,
    max_requests: int = 8,
    max_alts: int = 3,
    max_funcs: int = 4,
):
    """A small random (net, apps, efficiency, requests, psi) instance.

    The substrate is a bidirectional ring plus random chords (so every node
    can reach every other), with capacities drawn loose, moderate, or tight.
    The single app carries 1..max_alts random rooted trees; a sprinkling of
    placements is forbidden or reweighted through the efficiency map.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    ids = [f"s{i}" for i in range(n)]
    tightness = float(rng.choice([0.3, 1.0, 5.0]))

    nodes = [
        SubstrateNode(
            ids[i],
            cost=round(float(rng.uniform(0.5, 8.0)), 3),
            capacity=round(float(rng.uniform(40.0, 400.0)) * tightness, 3),
        )
        for i in range(n)
    ]
    arcs: dict[tuple[str, str], SubstrateArc] = {}

    def add_arc(u: str, v: str) -> None:
        if u != v and (u, v) not in arcs:
            arcs[(u, v)] = SubstrateArc(
                u,
                v,
                cost=round(float(rng.uniform(0.2, 3.0)), 3),
                capacity=round(float(rng.uniform(80.0, 900.0)) * tightness, 3),
            )

    for i in range(n):
        add_arc(ids[i], ids[(i + 1) % n])
        add_arc(ids[(i + 1) % n], ids[i])
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, size=2)
        add_arc(ids[int(i)], ids[int(j)])
    net = SubstrateNetwork(nodes, arcs.values())

    alts = []
    for t in range(int(rng.integers(1, max_alts + 1))):
        vnodes = [VirtualNode("theta", 0.0)]
        vlinks = []
        for f in range(int(rng.integers(1, max_funcs + 1))):
            parent = vnodes[int(rng.integers(0, len(vnodes)))].id
            child = f"f{f}"
            vnodes.append(VirtualNode(child, round(float(rng.uniform(0.5, 12.0)), 3)))
            vlinks.append(VirtualLink(parent, child, round(float(rng.uniform(1.0, 25.0)), 3)))
        alts.append(AlternativeTopology("app", t, vnodes, vlinks, "theta"))
    apps = {"app": Application("app", tuple(alts))}

    node_coeffs: dict[tuple[str, str], float | None] = {}
    for alt in alts:
        for vn in alt.nodes:
            for sid in ids:
                roll = rng.random()
                if roll < 0.04:
                    node_coeffs[(vn.id, sid)] = FORBIDDEN
                elif roll < 0.12:
                    node_coeffs[(vn.id, sid)] = round(float(rng.uniform(0.5, 2.0)), 3)
    efficiency = EfficiencyMap(node_coeffs=node_coeffs)

    requests = [
        Request(ids[int(rng.integers(0, n))], "app", round(float(rng.uniform(0.5, 5.0)), 3))
        for _ in range(int(rng.integers(1, max_requests + 1)))
    ]
    try:
        psi = compute_rejection_penalty(net, apps, efficiency)
    except ValueError:
        psi = 500.0
    return net, apps, efficiency, requests, psi


# -- runs pinned by the recorded-output fixtures in tests/data --------------------

RECORDED_BUILD = Path(__file__).parent / "data" / "recorded_build.json"


def running_build() -> dict:
    """The scipy, HiGHS and numpy versions this process runs, in
    recorded_build.json's form."""
    core = lp_module._highs()
    highs = (core.HIGHS_VERSION_MAJOR, core.HIGHS_VERSION_MINOR, core.HIGHS_VERSION_PATCH)
    return {"scipy": scipy.__version__, "highs": ".".join(map(str, highs)), "numpy": np.__version__}


def assert_recorded_build() -> None:
    """Fail, with one message naming both builds, unless this process
    runs the scipy, HiGHS and numpy that the recorded fixtures in
    tests/data were made with.  A recorded-answer test calls it before
    comparing any bit: HiGHS's answers and numpy's streams may change
    with the build alone, and a build mismatch would otherwise show as
    scattered bit differences that do not say why."""
    recorded, running = json.loads(RECORDED_BUILD.read_text()), running_build()
    if running != recorded:
        shown = "scipy {scipy}, HiGHS {highs}, numpy {numpy}".format_map
        pytest.fail(
            f"the recorded fixtures in tests/data were made with {shown(recorded)} "
            f"({RECORDED_BUILD.name}), but this run has {shown(running)}.  Install the "
            "recorded build, or re-record: on the new build, rewrite lp_recorded.jsonl, "
            "tanto_recorded.jsonl and generate_digests.json from the code of a commit whose "
            "tests pass on the recorded build (test_lp.recorded_solves, "
            "test_tanto.recorded_form and test_harness.digested_draw give each entry), "
            f"write the new build into {RECORDED_BUILD.name} and log the re-record in CHANGES.md",
            pytrace=False,
        )


def arnes_overloaded_instance():
    """arnes_si with cctv_two: 300 requests, capacities calibrated to TU 1.3
    for exactly those requests, and a seeded sprinkling of forbidden and
    reweighted link coefficients.  Greedy and tanto both reject a good
    share of the requests here, so capacity prunes greedy's searches and
    rounding meets exhausted and zeroed variables."""
    root = resources.files("vneap")
    graph = harness.ingest_graphml(str(root.joinpath("fixtures/topologies/arnes_si.graphml")))
    base = harness.assign_costs_capacities(graph, harness.classify_tiers(graph))
    apps = vio.load_applications(json.loads(root.joinpath("fixtures/cctv_two.json").read_text()))
    gen = harness.GenParams(count=300, app="cctv", enforce_origin_cap=False)
    requests = harness.generate_requests(base, apps, gen, 11)
    net = harness.calibrate_target_utilization(base, apps, requests, 1.3, 1.3)
    rng = np.random.default_rng(11)
    pairs = sorted({(l.parent, l.child) for a in apps["cctv"].alternatives for l in a.links})
    link_coeffs = {}
    for pair in pairs:
        for arc in net.arcs:
            roll = rng.random()
            if roll < 0.03:
                link_coeffs[(pair, (arc.src, arc.dst))] = FORBIDDEN
            elif roll < 0.15:
                link_coeffs[(pair, (arc.src, arc.dst))] = round(float(rng.uniform(0.5, 2.0)), 3)
    eff = EfficiencyMap(link_coeffs=link_coeffs)
    return net, apps, eff, requests, compute_rejection_penalty(net, apps, eff)


def bench_draws(topology: str, count: int, seed: int = 1):
    """(apps, sample, net, requests) of :func:`bench_instance`: the
    20 000-request calibration sample, the calibrated substrate and the
    run requests."""
    root = resources.files("vneap")
    graph = harness.ingest_graphml(str(root.joinpath(f"fixtures/topologies/{topology}.graphml")))
    base = harness.assign_costs_capacities(graph, harness.classify_tiers(graph))
    apps = vio.load_applications(json.loads(root.joinpath("fixtures/cctv_two.json").read_text()))
    gen = harness.GenParams(count=count, app="cctv", enforce_origin_cap=False)
    sample = harness.generate_requests(base, apps, replace(gen, count=20_000), seed)
    net = harness.calibrate_target_utilization(base, apps, sample, 0.8, 0.8, population=count)
    return apps, sample, net, harness.generate_requests(net, apps, gen, seed + 1)


def bench_instance(topology: str, count: int, seed: int = 1):
    """An instance shaped like the benchmark's: ``topology`` with
    cctv_two, capacities calibrated to TU 0.8 for ``count`` requests on a
    20 000-request sample, and ``count`` requests drawn with the origin
    cap off (``arnes_si``/1 000 and ``amres_rs``/12 000 are its two
    workloads)."""
    apps, _, net, requests = bench_draws(topology, count, seed)
    eff = EfficiencyMap()
    return net, apps, eff, requests, compute_rejection_penalty(net, apps, eff)


BUNDLED = [
    (topology, catalog)
    for topology in ("arnes_si", "amres_rs", "dfn_de")
    for catalog in ("cctv_two", "cctv_four")
]


def bundled_instance(topology: str, catalog: str, count: int, seed: int = 3):
    """A bundled topology with a bundled catalog: ``count`` requests of
    the catalog's application drawn with the origin cap off, capacities
    calibrated to TU 1.0 for exactly those requests, and unit
    coefficients."""
    root = resources.files("vneap")
    graph = harness.ingest_graphml(str(root.joinpath(f"fixtures/topologies/{topology}.graphml")))
    base = harness.assign_costs_capacities(graph, harness.classify_tiers(graph))
    apps = vio.load_applications(json.loads(root.joinpath(f"fixtures/{catalog}.json").read_text()))
    gen = harness.GenParams(count=count, app="cctv", enforce_origin_cap=False)
    requests = harness.generate_requests(base, apps, gen, seed)
    net = harness.calibrate_target_utilization(base, apps, requests, 1.0, 1.0)
    eff = EfficiencyMap()
    return net, apps, eff, requests, compute_rejection_penalty(net, apps, eff)


def pinned_runs():
    """(name, instance, seed) of every run in the recorded fixtures."""
    for seed in range(30):
        yield f"random-{seed}", random_instance(seed), seed
    yield "arnes_si-tu1.3", arnes_overloaded_instance(), 5


def recorded_embeddings(embeddings) -> list:
    """Per request in input order: the alternative, node map and link map,
    in the form the recorded fixtures store them."""
    return [
        [
            e.alternative,
            dict(e.node_map),
            sorted([i, j, [list(arc) for arc in path]] for (i, j), path in e.link_map.items()),
        ]
        for e in embeddings
    ]


def assert_rows_view(lp) -> None:
    """``lp.rows``, which perfbench counts rows and nonzeros from, holds
    every ``<=`` row and then every ``==`` row of the program's
    matrices, each with its entries, sense and right-hand side."""
    rows = lp.rows
    assert len(rows) == lp.A_ub.shape[0] + lp.A_eq.shape[0]
    assert sum(len(row.coeffs) for row in rows) == lp.A_ub.nnz + lp.A_eq.nnz
    matrix_rows = [
        (list(zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist())), sense, rhs)
        for A, b, sense in ((lp.A_ub, lp.b_ub, "<="), (lp.A_eq, lp.b_eq, "=="))
        for lo, hi, rhs in zip(A.indptr[:-1], A.indptr[1:], b.tolist())
    ]
    assert [(list(row.coeffs), row.sense, row.rhs) for row in rows] == matrix_rows


def record_highs_runs(monkeypatch) -> list:
    """A list that gets, for every HiGHS run from now on, the model's
    ``simplex_strategy``, ``presolve`` and ``mip_rel_gap`` options and the
    run's simplex iteration count."""
    runs = []
    core = lp_module._highs()

    class Spy(core._Highs):
        def run(self):
            status = super().run()
            runs.append(
                (
                    self.getOptionValue("simplex_strategy")[1],
                    self.getOptionValue("presolve")[1],
                    self.getOptionValue("mip_rel_gap")[1],
                    self.getInfo().simplex_iteration_count,
                )
            )
            return status

    monkeypatch.setattr(core, "_Highs", Spy)  # what vneap.lp builds each model on
    return runs


def assert_maps_are_read_only(embeddings) -> None:
    """Item assignment on either map of every embedding raises
    ``TypeError``: the maps may be shared between requests."""
    for e in embeddings:
        with pytest.raises(TypeError):
            e.node_map["theta"] = "nowhere"
        with pytest.raises(TypeError):
            e.link_map[("theta", "nowhere")] = ()


MATRIX_SEEDS = range(200)


@pytest.fixture(scope="session")
def instance_matrix():
    """All three solvers run over the seeded instance matrix.

    Computed once per session and shared by the ordering, bound, and
    feasibility tests, which each consume a different slice of the results.
    """
    rows = []
    for seed in MATRIX_SEEDS:
        net, apps, efficiency, requests, psi = random_instance(seed)
        aggregates = aggregate_requests(requests)
        lp = build_relaxed_aggregate_lp(net, apps, efficiency, aggregates, psi)
        sol = solve_lp(lp)
        assert sol.optimal, f"seed {seed}: aggregate LP not optimal ({sol.status})"

        greedy_embs, _ = greedy_embed_all(net, apps, efficiency, requests, psi, order_seed=seed)
        tanto_embs, tanto_report = tanto(net, apps, efficiency, requests, psi, seed=seed)
        per_alt = {
            t: solve_lp(
                build_relaxed_aggregate_lp(
                    net, restrict_to_alternative(apps, t), efficiency, aggregates, psi
                )
            ).objective
            for t in sorted(a.index for a in apps["app"].alternatives)
        }
        rows.append(
            {
                "seed": seed,
                "net": net,
                "apps": apps,
                "efficiency": efficiency,
                "requests": requests,
                "psi": psi,
                "lp_objective": sol.objective,
                "greedy_cost": total_cost(net, apps, efficiency, greedy_embs, psi, validate=False).total,
                "tanto_cost": total_cost(net, apps, efficiency, tanto_embs, psi, validate=False).total,
                "greedy_violations": check_feasibility(net, apps, efficiency, greedy_embs),
                "tanto_violations": check_feasibility(net, apps, efficiency, tanto_embs),
                "tanto_report": tanto_report,
                "single_alt_lp": per_alt,
            }
        )
    return rows


# -- acceptance banner -----------------------------------------------------------

ACCEPTANCE_LINES: dict[str, tuple[bool, str]] = {}


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_LINES[name] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_LINES):
        passed, detail = ACCEPTANCE_LINES[name]
        line = f"{name} {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
