"""Acceptance gate.

Each test asserts one release criterion at its stated tolerance and
records a PASS/FAIL line for the terminal banner.  The toy capacity
scenario (A2) asserts exact values derived by hand from the instance,
in the closed form given in its docstring.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import vneap.io as vio
from vneap.cli import load_scenario
from vneap.formulation import (
    AggregatedRequest,
    VariableKey,
    aggregate_requests,
    build_milp,
    build_relaxed_aggregate_lp,
    compute_rejection_penalty,
    restrict_to_alternative,
    solve_relaxation,
)
from vneap.greedy import greedy_embed_all
from vneap.harness import (
    GenParams,
    calibrate_target_utilization,
    catalog_alternative_indices,
    generate_requests,
    rows_to_csv,
    run_scenario,
)
from vneap.harness import _run_algorithm  # yardstick for row-level determinism
from vneap.lp import SolveOptions, solve_lp, solve_milp_exact
from vneap.model import (
    AlternativeTopology,
    EfficiencyMap,
    IntegralEmbedding,
    Request,
    SubstrateArc,
    SubstrateNetwork,
    SubstrateNode,
    VirtualNode,
)
from vneap.tanto import RoundingState, embed_request, round_relaxation, tanto
from vneap.validator import (
    check_feasibility,
    fractional_alternative_shares,
    rejection_rate,
    total_cost,
)
from vneap.formulation import fractional_solution

from conftest import (
    MATRIX_SEEDS,
    random_instance,
    record_criterion,
    toy_apps,
    toy_net,
    unit_requests,
)
from oracle import enumerate_optimal

GOLDEN = Path(__file__).parent / "golden"


def check(name: str, passed: bool, detail: str) -> None:
    record_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


# -------------------------------------------------------------------- A1


def test_a1_toy_per_unit_costs():
    """The four canonical toy embeddings cost exactly 205/250/1050/280."""
    net, apps, eff = toy_net(), toy_apps(), EfficiencyMap()
    request = Request("E", "cam", 1.0)
    embeddings = {
        "cheap": IntegralEmbedding(
            request, 0,
            {"theta": "E", "A": "C", "B": "C"},
            {("theta", "A"): (("E", "C"),), ("A", "B"): ()},
        ),
        "split": IntegralEmbedding(
            request, 0,
            {"theta": "E", "A": "E", "B": "C"},
            {("theta", "A"): (), ("A", "B"): (("E", "C"),)},
        ),
        "local": IntegralEmbedding(
            request, 0,
            {"theta": "E", "A": "E", "B": "E"},
            {("theta", "A"): (), ("A", "B"): ()},
        ),
        "accelerated": IntegralEmbedding(
            request, 1,
            {"theta": "E", "A": "E", "acc": "E", "B": "C"},
            {("theta", "A"): (), ("A", "acc"): (), ("acc", "B"): (("E", "C"),)},
        ),
    }
    costs = {
        name: total_cost(net, apps, eff, [emb], psi=1050.0).total
        for name, emb in embeddings.items()
    }
    expected = {"cheap": 205.0, "split": 250.0, "local": 1050.0, "accelerated": 280.0}
    check("A1", costs == expected, f"per-unit costs {costs}")


# -------------------------------------------------------------------- A2


def test_a2_toy_capacity_scenario():
    """Two-node toy with unlimited node capacity, 100 unit requests at E,
    psi = 1050, at uplink capacities L = 5000 and L = 3000.

    Per request the useful options are the cheap main embedding (cost 205,
    100 uplink units), the accelerated one (280, 30 units) and the
    all-at-E main embedding or a rejection (1050, no uplink); every other
    placement costs more than one of these while taking at least as much
    uplink.

    First alternative only: x = min(L/100, 100) requests go the cheap way
    and the rest cost 1050, so LP = 205x + 1050(100 - x) = 105000 - 8.45 L
    for L <= 10000: 62750 at L = 5000 and 79650 = 30*205 + 70*1050 at
    L = 3000.

    All alternatives: all-accelerated takes 3000 units.  Each request moved
    from accelerated to cheap saves 75 and takes 70 more units; freeing 70
    units by moving 7/3 accelerated requests to 1050 would cost 7/3 * 770.

    * L = 5000: minimize 205x + 280(100 - x) subject to 70x <= 2000, so
      x = 200/7 and LP = 181000/7 = 25857.14...  That optimum is unique: the
      two alternatives carry 200/7 and 500/7 requests' worth of mass, one
      embedding each.  Rounding serves floor(200/7) = 28 and
      floor(500/7) = 71 requests with them; the first draw against an
      exhausted alternative zeroes its root and is rejected, so exactly one
      of the 100 requests is rejected (for any seed) and the rounded cost is
      28*205 + 71*280 + 1050 = 26670.
    * L = 3000: all-accelerated exactly fills the uplink and is the unique
      optimum, LP = 28000; the relaxation is integral and rounds with no
      rejection.

    In both regimes alternatives cut the relaxation cost by more than half.
    """
    eff, psi = EfficiencyMap(), 1050.0
    requests = unit_requests(100)
    aggregates = aggregate_requests(requests)

    def regime(link_cap: float):
        net, apps = toy_net(link_cap=link_cap), toy_apps()
        lp_all = solve_lp(build_relaxed_aggregate_lp(net, apps, eff, aggregates, psi)).objective
        lp_first = solve_lp(
            build_relaxed_aggregate_lp(net, restrict_to_alternative(apps, 0), eff, aggregates, psi)
        ).objective
        embeddings, report = tanto(net, apps, eff, requests, psi, seed=0)
        feasible = check_feasibility(net, apps, eff, embeddings) == []
        rounded = total_cost(net, apps, eff, embeddings, psi, validate=False).total
        return lp_all, lp_first, report, feasible, rounded

    def exact(value: float, expected: float) -> bool:
        return math.isclose(value, expected, rel_tol=1e-12)

    mix_all, mix_first, mix_report, mix_feasible, mix_rounded = regime(5000.0)
    acc_all, acc_first, acc_report, acc_feasible, acc_rounded = regime(3000.0)

    passed = (
        exact(mix_all, 181_000 / 7)
        and exact(mix_first, 62_750.0)
        and 2 * mix_all < mix_first
        and mix_report.rejected == 1
        and mix_report.rounding_rejections == 1
        and mix_report.rounding_rejections <= mix_report.initial_nonzero_y
        and mix_feasible
        and exact(mix_rounded, 26_670.0)
        and exact(acc_all, 28_000.0)
        and exact(acc_first, 79_650.0)
        and 2 * acc_all < acc_first
        and acc_report.rejected == 0
        and acc_feasible
        and exact(acc_rounded, 28_000.0)
    )
    detail = (
        f"L=5000: LP(all) {mix_all} (181000/7), LP(first) {mix_first} (62750), "
        f"rejected {mix_report.rejected} (1), rounded {mix_rounded} (26670); "
        f"L=3000: LP(all) {acc_all} (28000), LP(first) {acc_first} (79650), "
        f"rejected {acc_report.rejected} (0), rounded {acc_rounded} (28000)"
    )
    check("A2", passed, detail)


# -------------------------------------------------------------------- A3


def test_a3_lower_bound_ordering(instance_matrix):
    violations = []
    for row in instance_matrix:
        lp = row["lp_objective"]
        for label in ("greedy_cost", "tanto_cost"):
            if lp > row[label] + 1e-6 * max(1.0, abs(row[label])):
                violations.append((row["seed"], label, lp, row[label]))
        best_single = min(row["single_alt_lp"].values())
        if lp > best_single + 1e-6 * max(1.0, abs(best_single)):
            violations.append((row["seed"], "single-alternative", lp, best_single))
    check(
        "A3",
        not violations,
        f"{len(instance_matrix)} instances, {len(violations)} ordering violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )


# -------------------------------------------------------------------- A4


def test_a4_exact_solver_matches_enumeration_oracle():
    worst = 0.0
    seeds = range(60)
    for seed in seeds:
        net, apps, eff, requests, psi = random_instance(
            seed, max_nodes=3, max_requests=2, max_alts=2, max_funcs=2
        )
        oracle_best, _ = enumerate_optimal(net, apps, eff, requests, psi)
        sol = solve_milp_exact(
            build_milp(net, apps, eff, requests, psi), SolveOptions(max_binaries=200)
        )
        assert sol.optimal, f"seed {seed}: {sol.status}"
        worst = max(worst, abs(sol.objective - oracle_best) / max(1.0, abs(oracle_best)))
    check("A4", worst <= 1e-9, f"{len(seeds)} instances, worst relative deviation {worst:.2e}")


# -------------------------------------------------------------------- A5


def test_a5_rejection_and_penalty_gap_bounds(instance_matrix):
    failures = []
    for row in instance_matrix:
        rep = row["tanto_report"]
        net, apps, requests = row["net"], row["apps"], row["requests"]
        d_max = max(r.demand for r in requests)
        used_apps = {r.app for r in requests}
        alternative_count = sum(len(apps[a].alternatives) for a in used_apps)
        bound = row["psi"] * d_max * len(net.nodes) * len(net.arcs) * alternative_count
        gap = rep.psi_tanto - rep.psi_lp
        if not (
            rep.rounding_rejections <= rep.initial_nonzero_y
            and gap <= bound + 1e-9
            and rep.rejection_bound_ok
            and rep.psi_gap_ok
        ):
            failures.append((row["seed"], rep.rounding_rejections, rep.initial_nonzero_y, gap, bound))
    check(
        "A5",
        not failures,
        f"{len(instance_matrix)} runs, {len(failures)} bound violations"
        + (f"; first: {failures[0]}" if failures else ""),
    )


# -------------------------------------------------------------------- A6


def test_a6_per_request_step_bound(instance_matrix):
    failures = []
    for row in instance_matrix:
        rep = row["tanto_report"]
        size = max(
            len(alt.nodes) + len(alt.links)
            for app in row["apps"].values()
            for alt in app.alternatives
        )
        limit = 4 * len(row["net"].nodes) * size
        if rep.max_request_steps > limit or not rep.steps_ok:
            failures.append((row["seed"], rep.max_request_steps, limit))
    check(
        "A6",
        not failures,
        f"{len(instance_matrix)} runs, {len(failures)} step-budget violations"
        + (f"; first: {failures[0]}" if failures else ""),
    )


# -------------------------------------------------------------------- A7


def test_a7_heuristic_outputs_always_feasible(instance_matrix):
    bad = [
        (row["seed"], kind, row[kind][0])
        for row in instance_matrix
        for kind in ("greedy_violations", "tanto_violations")
        if row[kind]
    ]
    check(
        "A7",
        not bad,
        f"{2 * len(instance_matrix)} embedding sets checked, {len(bad)} infeasible"
        + (f"; first: {bad[0]}" if bad else ""),
    )


# -------------------------------------------------------------------- A8


def desk_substrate() -> SubstrateNetwork:
    """Ten nodes in three tiers: one core hub, three routers, six leaves."""
    nodes = [SubstrateNode("c0", 0.1, 9.0, "core")]
    nodes += [SubstrateNode(f"t{j}", 0.3, 3.0, "transport") for j in range(3)]
    nodes += [SubstrateNode(f"e{i}", 0.9, 1.0, "edge") for i in range(6)]
    arcs: list[SubstrateArc] = []

    def both(u: str, v: str, cost: float, cap: float) -> None:
        arcs.append(SubstrateArc(u, v, cost, cap))
        arcs.append(SubstrateArc(v, u, cost, cap))

    for i in range(6):
        both(f"e{i}", f"t{i // 2}", 0.02, 1.0)
    for j in range(3):
        both(f"t{j}", "c0", 0.01, 2.0)
    both("t0", "t1", 0.01, 2.0)
    both("t1", "t2", 0.01, 2.0)
    return SubstrateNetwork(nodes, arcs)


@pytest.fixture(scope="module")
def desk():
    net = desk_substrate()
    apps = vio.load_applications(
        json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    )
    eff = EfficiencyMap()
    app_id = next(iter(apps))
    calib = generate_requests(
        net, apps, GenParams(count=20_000, app=app_id, enforce_origin_cap=False), seed=101
    )
    psi = compute_rejection_penalty(net, apps, eff)
    return net, apps, eff, app_id, calib, psi


def test_a8i_alternative_share_tracks_link_scarcity(desk):
    """Relaxation shares across link target utilizations 200%/100%/50%.

    Scarcer links (higher target utilization) push demand onto the
    bandwidth-saving accelerated alternative, so its share falls
    monotonically as the target drops from 200% through 100% to 50%.
    """
    net, apps, eff, app_id, calib, psi = desk
    shares = []
    for link_tu in (2.0, 1.0, 0.5):
        scaled = calibrate_target_utilization(net, apps, calib, 1.0, link_tu, population=2_000)
        run = generate_requests(
            scaled, apps, GenParams(count=2_000, app=app_id, enforce_origin_cap=False), seed=202
        )
        aggregates = aggregate_requests(run)
        lp = build_relaxed_aggregate_lp(scaled, apps, eff, aggregates, psi)
        sol = solve_lp(lp)
        assert sol.optimal
        frac = fractional_solution(lp, sol.x, sol.objective, aggregates, apps)
        shares.append(fractional_alternative_shares(frac, apps).get(1, 0.0))
    monotone = shares[0] > shares[1] + 0.05 and shares[1] > shares[2] + 0.05
    check(
        "A8i",
        monotone and shares[2] == pytest.approx(0.0, abs=1e-6),
        f"accelerated share at link-TU (200%, 100%, 50%) = "
        f"({shares[0]:.4f}, {shares[1]:.4f}, {shares[2]:.4f})",
    )


def test_a8ii_greedy_rejects_at_least_as_much_as_rounding(desk):
    net, apps, eff, app_id, calib, psi = desk
    scaled = calibrate_target_utilization(net, apps, calib, 1.0, 1.0, population=2_000)
    wins = 0
    gaps = []
    seeds = range(30)
    for seed in seeds:
        run = generate_requests(
            scaled, apps, GenParams(count=2_000, app=app_id, enforce_origin_cap=False),
            seed=1_000 + seed,
        )
        greedy_embs, _ = greedy_embed_all(scaled, apps, eff, run, psi, order_seed=seed)
        tanto_embs, _ = tanto(scaled, apps, eff, run, psi, seed=seed)
        greedy_rate, tanto_rate = rejection_rate(greedy_embs), rejection_rate(tanto_embs)
        wins += greedy_rate >= tanto_rate
        gaps.append(greedy_rate - tanto_rate)
    check(
        "A8ii",
        wins >= 27,
        f"greedy rejection >= rounding rejection in {wins}/{len(seeds)} seeds "
        f"(mean gap {sum(gaps) / len(gaps):.4f})",
    )


# -------------------------------------------------------------------- A9


def test_a9_rounding_follows_frozen_weights():
    alternatives = (
        AlternativeTopology("duo", 0, [VirtualNode("r", 0.0)], [], "r"),
        AlternativeTopology("duo", 1, [VirtualNode("r", 0.0)], [], "r"),
    )
    supply, draws = 20_000, 10_000
    weights = {
        VariableKey("g0", 0, ("n", "r", "E")): 0.7,
        VariableKey("g0", 1, ("n", "r", "E")): 0.3,
    }
    aggregate = AggregatedRequest("g0", "E", "duo", float(supply), tuple(range(supply)))
    state = RoundingState.for_aggregate(toy_net(), aggregate, weights, alternatives)
    rng = np.random.default_rng(97)
    chosen = [
        embed_request(Request("E", "duo", 1.0), state, rng).alternative
        for _ in range(draws)
    ]
    share = chosen.count(0) / draws
    band = 3 * (0.7 * 0.3 / draws) ** 0.5
    check(
        "A9",
        abs(share - 0.7) <= band,
        f"empirical share {share:.4f} vs 0.7, allowed deviation {band:.4f}",
    )


# ------------------------------------------------------------------- A10


def test_a10_reports_are_byte_identical_across_reruns_and_jobs():
    jobs_max = max(2, min(8, os.cpu_count() or 2))
    baseline = load_scenario(GOLDEN / "tiny_scenario.json", jobs=1)
    parallel = load_scenario(GOLDEN / "tiny_scenario.json", jobs=jobs_max)
    alt_indices = catalog_alternative_indices(baseline.apps)
    serial_rows = rows_to_csv(run_scenario(baseline).rows, alt_indices)
    rerun_rows = rows_to_csv(run_scenario(baseline).rows, alt_indices)
    parallel_rows = rows_to_csv(run_scenario(parallel).rows, alt_indices)

    net, apps, eff = toy_net(), toy_apps(), EfficiencyMap()
    milp_rows = [
        _run_algorithm("milp", net, apps, eff, unit_requests(1), 1050.0, seed=5)[0]
        for _ in range(2)
    ]

    passed = serial_rows == rerun_rows == parallel_rows and milp_rows[0] == milp_rows[1]
    check(
        "A10",
        passed,
        f"scenario rows identical across rerun and --jobs {jobs_max}; "
        f"exact-solver row identical across reruns",
    )


# ------------------------------------------------------- scaling (note)


def test_scaling_note_rounding_time_linear_in_requests():
    net, apps, eff = toy_net(), toy_apps(), EfficiencyMap()
    counts = (10_000, 50_000, 100_000)
    instances = []
    for n in counts:
        requests = unit_requests(n)
        instances.append((requests, solve_relaxation(net, apps, eff, requests, 1050.0)))
    # only the rounding is timed, in CPU seconds of this process, which
    # other processes on the machine do not add to, and with the garbage
    # collector off, as timeit does, since a full collection costs in
    # proportion to every live object rather than to the rounding; the
    # passes interleave the sizes, in reverse order every other pass, and
    # each size keeps its minimum, so a slow stretch or a drift must cover
    # every pass of one size to move its sample
    passes = 5
    times = [float("inf")] * len(counts)
    steps = [set() for _ in counts]
    for p in range(passes):
        for k in range(len(counts))[:: 1 if p % 2 == 0 else -1]:
            requests, relaxation = instances[k]
            gc.disable()
            try:
                t0 = time.process_time()
                _, report = round_relaxation(net, apps, requests, relaxation, 1050.0, seed=1)
                times[k] = min(times[k], time.process_time() - t0)
            finally:
                gc.enable()
            steps[k].add(report.total_steps)
    # the walk's step count is the work itself, which no machine moves:
    # it repeats exactly and is exactly proportional to the request count
    assert all(len(s) == 1 for s in steps)
    per_request = [s.pop() / n for s, n in zip(steps, counts)]
    x, y = np.array(counts, dtype=float), np.array(times)
    slope, intercept = np.polyfit(x, y, 1)
    residual = ((y - (slope * x + intercept)) ** 2).sum()
    r_squared = 1.0 - residual / ((y - y.mean()) ** 2).sum()
    check(
        "scaling-note",
        r_squared >= 0.98 and slope > 0 and per_request[0] > 0 and len(set(per_request)) == 1,
        f"rounding CPU time over {counts}, min of {passes} passes: R^2 = {r_squared:.4f}; "
        f"walk steps per request {per_request}",
    )
