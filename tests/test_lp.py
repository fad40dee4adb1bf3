"""Solver backend: LP solves against brute-force oracles and exact binary
search."""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeWarning, linprog

import vneap.io as vio
from vneap import harness
from vneap.formulation import (
    REJECTION_MARGIN,
    LinearProgram,
    Row,
    VariableKey,
    _owner_rows,
    aggregate_requests,
    build_milp,
    build_relaxed_aggregate_lp,
    compute_rejection_penalty,
    fractional_solution,
    solve_relaxation,
)
from vneap import lp as lp_module
from vneap.lp import SolveOptions, _split_rows, solve_lp, solve_milp_exact
from vneap.model import EfficiencyMap, Request

from conftest import arnes_overloaded_instance, random_instance, toy_apps, toy_net, unit_requests
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


def test_every_program_is_solved_by_dual_simplex(monkeypatch):
    """The aggregate relaxation's master, through its pricing rounds and
    its final solve, and a per-request relaxation, through solve_lp or
    solve_milp_exact, are all solved by HiGHS dual simplex
    (``highs-ds``), presolve off."""
    calls = []

    def spy(*args, method, options, **kwargs):
        calls.append((method, options["presolve"]))
        return linprog(*args, method=method, options=options, **kwargs)

    monkeypatch.setattr(lp_module, "linprog", spy)
    net, apps, requests = toy_net(), toy_apps(), unit_requests(2)
    aggregate = solve_relaxation(net, apps, EfficiencyMap(), requests, PSI_TOY)
    per_request = build_milp(net, apps, EfficiencyMap(), requests, PSI_TOY).relax()
    solved = [aggregate.solution, solve_lp(per_request), solve_milp_exact(per_request)]
    assert calls == [("highs-ds", False)] * (aggregate.timings["lp_pricing_rounds"] + 2)
    assert all(s.objective == pytest.approx(2 * 205.0, rel=1e-9) for s in solved)


def test_duals_carry_the_sign_and_value_of_a_binding_row():
    """min -x0 - 2 x1 over x0 + x1 <= 3 (binding), x2 == 0.5, x1 <= 1
    (binding) and x0 - x1 <= 10 (slack): the optimum is x = (2, 1, 0.5),
    and the duals, in row order, are each row's objective change per
    unit of its right-hand side, at most 0 on a ``<=`` row."""
    lp = hand_lp(
        [-1.0, -2.0, 0.0],
        [
            Row(((0, 1.0), (1, 1.0)), "<=", 3.0),
            Row(((2, 1.0),), "==", 0.5),
            Row(((1, 1.0),), "<=", 1.0),
            Row(((0, 1.0), (1, -1.0)), "<=", 10.0),
        ],
        [0.0, 0.0, 0.0],
        [10.0, 10.0, 10.0],
    )
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(-4.0, abs=1e-9)
    # a unit more room on the first row adds a unit of x0 (-1); on the
    # third, trades a unit of x0 for one of x1 (-1); the slack row and
    # the equality on the costless x2 are worth nothing
    assert sol.duals.tolist() == pytest.approx([-1.0, 0.0, -1.0, 0.0], abs=1e-9)
    assert solve_lp(hand_lp([], [Row((), "<=", 0.0)], [], [])).duals.tolist() == [0.0]
    assert solve_milp_exact(replace(lp, binary=frozenset({0}))).duals is None


def test_minimize_x_at_least_three():
    lp = hand_lp([1.0], [Row(((0, -1.0),), "<=", -3.0)], [0.0], [10.0])
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


def test_a_row_sense_other_than_le_or_eq_is_refused():
    lp = hand_lp([1.0], [Row(((0, 1.0),), ">=", 3.0)], [0.0], [10.0], binary=(0,))
    empty = hand_lp([], [Row((), ">=", -1.0)], [], [])
    for solve, program in ((solve_lp, lp), (solve_milp_exact, lp), (solve_lp, empty)):
        with pytest.raises(ValueError, match="unknown row sense '>='"):
            solve(program)


def assert_assembled(lp):
    """Each sense's matrix holds that sense's rows in order, every row
    with strictly increasing column indices and, per column, the sum of
    the row's coefficients there, which is the dense row built from
    ``lp.rows``; the right-hand sides follow the rows."""
    A_ub, b_ub, A_eq, b_eq = _split_rows(lp)
    for sense, A, b in (("<=", A_ub, b_ub), ("==", A_eq, b_eq)):
        rows = [row for row in lp.rows if row.sense == sense]
        if not rows:
            assert A is None and b is None
            continue
        assert A.shape == (len(rows), lp.n_vars)
        assert b.tolist() == [row.rhs for row in rows]
        for r, row in enumerate(rows):
            dense: dict[int, float] = {}
            for i, c in row.coeffs:
                dense[i] = dense.get(i, 0.0) + c
            start, end = A.indptr[r], A.indptr[r + 1]
            assert A.indices[start:end].tolist() == sorted(dense)
            assert A.data[start:end].tolist() == [dense[i] for i in sorted(dense)]


def bundled_lp(topology: str):
    """The relaxation of 1000 cctv_two requests on a bundled topology at
    TU 0.8, as perfbench's instances are made."""
    root = resources.files("vneap")
    graph = harness.ingest_graphml(str(root.joinpath(f"fixtures/topologies/{topology}.graphml")))
    base = harness.assign_costs_capacities(graph, harness.classify_tiers(graph))
    apps = vio.load_applications(json.loads(root.joinpath("fixtures/cctv_two.json").read_text()))
    gen = harness.GenParams(count=1000, app="cctv", enforce_origin_cap=False)
    requests = harness.generate_requests(base, apps, gen, 1)
    net = harness.calibrate_target_utilization(base, apps, requests, 0.8, 0.8)
    eff = EfficiencyMap()
    psi = compute_rejection_penalty(net, apps, eff)
    return build_relaxed_aggregate_lp(net, apps, eff, aggregate_requests(requests), psi)


def test_rows_assemble_into_canonical_matrices():
    hand = hand_lp(
        [1.0, 1.0, 1.0, 1.0],
        [
            Row(((3, 1.0), (0, 2.0), (3, 0.5), (1, -1.0)), "<=", 4.0),
            Row(((2, 1.0), (2, 1.0)), "==", 1.0),
            Row((), "<=", 0.0),
        ],
        [0.0] * 4,
        [1.0] * 4,
    )
    A_ub, b_ub, A_eq, b_eq = _split_rows(hand)
    assert A_ub.toarray().tolist() == [[2.0, -1.0, 0.0, 1.5], [0.0, 0.0, 0.0, 0.0]]
    assert A_eq.toarray().tolist() == [[0.0, 0.0, 2.0, 0.0]]
    assert b_ub.tolist() == [4.0, 0.0] and b_eq.tolist() == [1.0]
    assert_assembled(hand)
    for topology in ("arnes_si", "amres_rs"):
        assert_assembled(bundled_lp(topology))
    for seed in range(30):
        net, apps, eff, requests, psi = random_instance(seed)
        assert_assembled(build_relaxed_aggregate_lp(net, apps, eff, aggregate_requests(requests), psi))
        assert_assembled(build_milp(net, apps, eff, requests, psi))


def test_empty_program_solves_to_zero():
    sol = solve_lp(hand_lp([], [], [], []))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    assert sol.x.shape == (0,)
    assert solve_lp(hand_lp([], [Row((), "<=", 0.0), Row((), "==", 0.0)], [], [])).optimal
    for row in (Row((), "<=", -1.0), Row((), "==", 1.0)):
        assert solve_lp(hand_lp([], [row], [], [])).status == "infeasible"


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


def test_solve_lp_raises_no_warning():
    net, apps = toy_net(5000.0), toy_apps()
    lp = build_relaxed_aggregate_lp(
        net, apps, EfficiencyMap(), aggregate_requests(unit_requests(40)), PSI_TOY
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_lp(lp).optimal


# -- the relaxation's rejected demand -------------------------------------------

# Dual (HiGHS's default) and primal simplex, each with presolve off and on:
# the aggregate relaxation must solve alike under all four.
HIGHS_SETTINGS = [
    {"simplex_strategy": strategy, "presolve": presolve}
    for strategy in (1, 4)
    for presolve in (False, True)
]


def highs(lp: LinearProgram, cost, options=HIGHS_SETTINGS[2], budget=None) -> np.ndarray:
    """The x HiGHS returns minimizing ``cost`` over ``lp``'s rows and box
    under ``options`` (by default ``solve_lp``'s); a ``budget`` adds the
    row ``lp.objective @ x <= budget``."""
    A_ub, b_ub, A_eq, b_eq = _split_rows(lp)
    if budget is not None:
        A_ub = sparse.vstack([A_ub, sparse.csr_matrix(lp.objective)])
        b_ub = np.append(b_ub, budget)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
        res = linprog(
            cost,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=np.column_stack([lp.lower, lp.upper]),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-7, "dual_feasibility_tolerance": 1e-7,
                     **options},
        )
    assert res.status == 0, res.message
    return res.x


def relaxation(instance):
    """(lp, aggregates, apps) of ``instance``'s aggregate relaxation, as
    the whole arc-flow program with the master's rejection margin."""
    net, apps, eff, requests, psi = instance
    aggregates = aggregate_requests(requests)
    owners = [(g.owner, g.origin, g.app, g.demand) for g in aggregates]
    return _owner_rows(net, apps, eff, owners, psi, REJECTION_MARGIN), aggregates, apps


def objective_and_rejection(lp, aggregates, apps, x) -> tuple[float, float]:
    """The psi-priced objective of ``x`` and the demand it rejects."""
    objective = float(lp.objective @ x) + lp.objective_constant
    return objective, fractional_solution(lp, x, objective, aggregates, apps).total_rejected_demand


@pytest.mark.parametrize(
    "instance",
    [pytest.param(lambda seed=seed: random_instance(seed), id=f"random-{seed}") for seed in range(30)]
    + [pytest.param(arnes_overloaded_instance, id="arnes_si-tu1.3")],
)
def test_highs_settings_agree_on_the_relaxation(instance):
    """Dual and primal simplex, with presolve on and off, give the
    relaxation the same objective and the same rejected demand as
    ``solve_lp``: the tie between serving at the priciest collocation and
    rejecting is broken by the model, not by the vertex HiGHS returns."""
    lp, aggregates, apps = relaxation(instance())
    total = sum(g.demand for g in aggregates)
    want = objective_and_rejection(lp, aggregates, apps, solve_lp(lp).x)
    for options in HIGHS_SETTINGS:
        got = objective_and_rejection(lp, aggregates, apps, highs(lp, lp.solver_objective, options))
        assert got[0] == pytest.approx(want[0], rel=1e-9), options
        assert got[1] == pytest.approx(want[1], abs=1e-6 * total), options


@pytest.mark.parametrize(
    "instance",
    [pytest.param(lambda seed=seed: random_instance(seed), id=f"random-{seed}") for seed in (8, 22, 23)]
    + [pytest.param(arnes_overloaded_instance, id="arnes_si-tu1.3")],
)
def test_reported_rejection_is_the_least_any_optimum_leaves(instance):
    """A second solve that minimizes rejected demand among the points
    within 1e-9 of the psi-priced optimum rejects what ``solve_lp``
    reports, at the optimum's objective.  Each instance has optima that
    reject more: at psi alone, ``solve_lp``'s settings return one."""
    lp, aggregates, apps = relaxation(instance())
    total = sum(g.demand for g in aggregates)
    optimum, loose = objective_and_rejection(lp, aggregates, apps, highs(lp, lp.objective))
    served = np.zeros(lp.n_vars)  # demand served per unit of each root column
    index = {key: i for i, key in enumerate(lp.keys)}
    for g in aggregates:
        for alt in apps[g.app].alternatives:
            root = index.get(VariableKey(g.owner, alt.index, ("n", alt.root, g.origin)))
            if root is not None:
                served[root] = g.demand
    budget = optimum * (1 + 1e-9) - lp.objective_constant
    least = total - float(served @ highs(lp, -served, budget=budget))
    sol = solve_lp(lp)
    frac = fractional_solution(lp, sol.x, sol.objective, aggregates, apps)
    assert sol.objective == pytest.approx(optimum, rel=1e-9)
    assert frac.total_rejected_demand == pytest.approx(least, abs=1e-6 * total)
    assert loose > least + 1e-3 * total


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
        [Row(((0, -1.0), (1, -1.0)), "<=", -3.0)],
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
