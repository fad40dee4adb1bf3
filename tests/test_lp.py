"""Solver backend: LP solves against brute-force oracles and exact binary
search."""

from __future__ import annotations

import numpy as np
import pytest

from vneap.formulation import (
    LinearProgram,
    Row,
    VariableKey,
    aggregate_requests,
    build_milp,
    build_relaxed_aggregate_lp,
)
from vneap.lp import SolveOptions, solve_lp, solve_milp_exact
from vneap.model import EfficiencyMap, Request

from conftest import random_instance, toy_apps, toy_net, unit_requests
from oracle import enumerate_optimal, enumerate_vertices

PSI_TOY = 1050.0


def hand_lp(objective, rows, lower, upper, binary=()):
    keys = tuple(
        VariableKey(f"x{i}", 0, ("n", f"x{i}", "")) for i in range(len(objective))
    )
    return LinearProgram(
        keys,
        np.asarray(lower, dtype=float),
        np.asarray(upper, dtype=float),
        np.asarray(objective, dtype=float),
        0.0,
        tuple(rows),
        frozenset(binary),
    )


def random_box_lp(rng, n, n_rows):
    """Feasible-by-construction random LP: box bounds plus <= rows whose
    right-hand sides leave slack around an interior point."""
    lo = rng.uniform(-2.0, 1.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    c = rng.normal(size=n)
    interior = lo + rng.uniform(0.2, 0.8, size=n) * (hi - lo)
    rows = []
    A = rng.normal(size=(n_rows, n))
    for r in range(n_rows):
        rhs = float(A[r] @ interior + rng.uniform(0.1, 2.0))
        rows.append(Row(tuple((i, float(A[r, i])) for i in range(n)), "<=", rhs))
    return hand_lp(c, rows, lo, hi), A, lo, hi


# -- continuous solves -------------------------------------------------------


def test_minimize_x_at_least_three():
    lp = hand_lp([1.0], [Row(((0, 1.0),), ">=", 3.0)], [0.0], [10.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-7)


def test_toy_unlimited_capacity_costs_205_per_unit():
    net, apps = toy_net(), toy_apps()
    demand = 3.5
    aggs = aggregate_requests([Request("E", "cam", demand)])
    lp = build_relaxed_aggregate_lp(net, apps, EfficiencyMap(), aggs, PSI_TOY)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(205.0 * demand, rel=1e-9)


def test_infeasible_is_a_status_not_an_exception():
    lp = hand_lp([1.0], [Row(((0, 1.0),), "<=", -1.0)], [0.0], [1.0])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.objective is None
    assert not sol.optimal


@pytest.mark.parametrize("seed", range(12))
def test_small_lp_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    lp, A, lo, hi = random_box_lp(rng, n, n_rows=int(rng.integers(1, 4)))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    oracle = enumerate_vertices(
        lp.objective, [(A[r], lp.rows[r].rhs) for r in range(len(lp.rows))], lo, hi
    )
    assert sol.objective == pytest.approx(oracle, abs=1e-6)


def test_empty_program_solves_to_zero():
    sol = solve_lp(hand_lp([], [], [], []))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    assert sol.x.shape == (0,)


def test_twenty_variable_box_lp_matches_corner_scan():
    # without rows the optimum separates per coordinate, so scanning both
    # bounds of each variable enumerates exactly the relevant vertices
    rng = np.random.default_rng(99)
    lo = rng.uniform(-3.0, 0.0, size=20)
    hi = lo + rng.uniform(0.1, 4.0, size=20)
    c = rng.normal(size=20)
    lp = hand_lp(c, [], lo, hi)
    sol = solve_lp(lp)
    best = float(np.minimum(c * lo, c * hi).sum())
    assert sol.objective == pytest.approx(best, abs=1e-6)


def test_same_program_solves_identically():
    net, apps = toy_net(5000.0), toy_apps()
    aggs = aggregate_requests(unit_requests(40))
    lp = build_relaxed_aggregate_lp(net, apps, EfficiencyMap(), aggs, PSI_TOY)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.status == second.status
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)


# -- exact binary search ------------------------------------------------------


def test_exact_toy_request_picks_the_cheap_option():
    net, apps = toy_net(), toy_apps()
    milp = build_milp(net, apps, EfficiencyMap(), [Request("E", "cam", 2.0)], PSI_TOY)
    sol = solve_milp_exact(milp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(205.0 * 2.0, rel=1e-9)
    assert all(abs(sol.x[i] - round(sol.x[i])) < 1e-9 for i in milp.binary)


def test_no_binaries_degenerates_to_plain_solve():
    net, apps = toy_net(5000.0), toy_apps()
    lp = build_relaxed_aggregate_lp(
        net, apps, EfficiencyMap(), aggregate_requests(unit_requests(40)), PSI_TOY
    )
    assert not lp.binary
    exact = solve_milp_exact(lp)
    plain = solve_lp(lp)
    assert exact.objective == pytest.approx(plain.objective, abs=1e-12)


def test_exact_infeasible_binary_program_is_a_status():
    # two binaries cannot sum to 3
    lp = hand_lp(
        [1.0, 1.0],
        [Row(((0, 1.0), (1, 1.0)), ">=", 3.0)],
        [0.0, 0.0],
        [1.0, 1.0],
        binary=(0, 1),
    )
    sol = solve_milp_exact(lp)
    assert sol.status == "infeasible"
    assert sol.objective is None
    assert "nodes" in sol.stats


def test_binary_cap_is_a_refusal():
    net, apps = toy_net(), toy_apps()
    milp = build_milp(net, apps, EfficiencyMap(), unit_requests(10), PSI_TOY)
    assert len(milp.binary) == 220  # above the default cap of 200
    with pytest.raises(ValueError, match="exact search refused"):
        solve_milp_exact(milp)


def test_exact_matches_joint_enumeration_on_two_requests():
    # capacity 150 on each arc forces the second request off the cheap
    # option; the enumeration oracle scans every joint assignment
    net, apps = toy_net(link_cap=150.0), toy_apps()
    eff = EfficiencyMap()
    requests = unit_requests(2)
    oracle_cost, _ = enumerate_optimal(net, apps, eff, requests, PSI_TOY)
    milp = build_milp(net, apps, eff, requests, PSI_TOY)
    sol = solve_milp_exact(milp, SolveOptions(max_binaries=60))
    assert sol.objective == pytest.approx(oracle_cost, abs=1e-9)
    assert oracle_cost == pytest.approx(205.0 + 280.0, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 4, 9, 16])
def test_exact_never_beats_its_own_relaxation(seed):
    net, apps, eff, requests, psi = random_instance(
        seed, max_nodes=3, max_requests=2, max_alts=2, max_funcs=2
    )
    milp = build_milp(net, apps, eff, requests, psi)
    exact = solve_milp_exact(milp, SolveOptions(max_binaries=200))
    relaxed = solve_lp(milp)
    assert exact.status == "optimal" and relaxed.status == "optimal"
    assert exact.objective >= relaxed.objective - 1e-9
