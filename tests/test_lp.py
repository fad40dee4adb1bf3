"""Solver backend: LP solves against brute-force oracles and exact binary
search."""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, linprog, milp
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

import vneap.io as vio
from vneap import harness
from vneap.formulation import (
    REJECTION_MARGIN,
    LinearProgram,
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
from vneap.lp import SolveOptions, SolverError, row_matrix, solve_lp, solve_milp_exact
from vneap.model import EfficiencyMap, Request

from conftest import (
    arnes_overloaded_instance,
    assert_rows_view,
    random_instance,
    record_highs_runs,
    toy_apps,
    toy_net,
    unit_requests,
)
from oracle import enumerate_optimal, enumerate_vertices

PSI_TOY = 1050.0
RECORDED = Path(__file__).parent / "data" / "lp_recorded.jsonl"


def hand_lp(objective, lower, upper, ub=(), eq=(), binary=()):
    """The program over ``len(objective)`` variables whose ``<=`` rows
    are ``ub`` and ``==`` rows are ``eq``, each a sequence of (entries,
    rhs) with entries (variable index, coefficient) pairs."""
    n = len(objective)
    keys = tuple(VariableKey(f"x{i}", 0, ("n", f"x{i}", "")) for i in range(n))
    return LinearProgram(
        keys,
        np.asarray(lower, dtype=float),
        np.asarray(upper, dtype=float),
        np.asarray(objective, dtype=float),
        0.0,
        row_matrix([entries for entries, _ in ub], n),
        np.array([rhs for _, rhs in ub], dtype=float),
        row_matrix([entries for entries, _ in eq], n),
        np.array([rhs for _, rhs in eq], dtype=float),
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
        rows.append(([(i, float(A[r, i])) for i in range(n)], rhs))
    return hand_lp(c, lo, hi, ub=rows), A, lo, hi


# -- continuous solves -------------------------------------------------------


def test_every_program_is_solved_by_dual_simplex(monkeypatch):
    """The aggregate relaxation's master, through its pricing rounds and
    its final solve, and a per-request relaxation, through solve_lp or
    solve_milp_exact, are all solved by HiGHS dual simplex
    (``simplex_strategy`` 1), presolve off."""
    runs = record_highs_runs(monkeypatch)
    net, apps, requests = toy_net(), toy_apps(), unit_requests(2)
    aggregate = solve_relaxation(net, apps, EfficiencyMap(), requests, PSI_TOY)
    per_request = build_milp(net, apps, EfficiencyMap(), requests, PSI_TOY).relax()
    solved = [aggregate.solution, solve_lp(per_request), solve_milp_exact(per_request)]
    calls = [(strategy, presolve) for strategy, presolve, _, _ in runs]
    assert calls == [(1, "off")] * (aggregate.timings["lp_pricing_rounds"] + 2)
    assert all(s.objective == pytest.approx(2 * 205.0, rel=1e-9) for s in solved)


def test_the_exact_solve_runs_to_a_zero_gap_with_presolve(monkeypatch):
    """A binary program is solved in one HiGHS run, as ``milp`` ran it:
    branch-and-cut to a zero relative gap, with HiGHS's default presolve
    ("choose", on for a program with integer columns)."""
    runs = record_highs_runs(monkeypatch)
    milp = build_milp(toy_net(link_cap=150.0), toy_apps(), EfficiencyMap(), unit_requests(2), PSI_TOY)
    assert solve_milp_exact(milp).optimal
    assert [(presolve, gap) for _, presolve, gap, _ in runs] == [("choose", 0.0)]


# -- parity with linprog and milp, which solve_lp and solve_milp_exact replaced ----

# linprog's status codes, which milp shares, read as solve_lp and
# solve_milp_exact read them when they called linprog and milp
LINPROG_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}


def linprog_answer(lp: LinearProgram):
    """(status name, objective, x) of ``linprog`` with the options
    ``solve_lp`` once passed it; "failure" for any other code."""
    res = linprog(
        lp.objective,
        A_ub=lp.A_ub,
        b_ub=lp.b_ub,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs-ds",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-7,
                 "dual_feasibility_tolerance": 1e-7},
    )
    return LINPROG_STATUS.get(res.status, "failure"), res.fun, res.x


def milp_answer(lp: LinearProgram):
    """(status name, objective, x) of ``milp`` with the options
    ``solve_milp_exact`` once passed it, the binaries of x rounded as it
    rounded them; "failure" for any other code."""
    binaries = sorted(lp.binary)
    integrality = np.zeros(lp.n_vars)
    integrality[binaries] = 1
    res = milp(
        lp.objective,
        integrality=integrality,
        bounds=Bounds(lp.lower, lp.upper),
        constraints=[
            LinearConstraint(lp.A_ub, -np.inf, lp.b_ub),
            LinearConstraint(lp.A_eq, lp.b_eq, lp.b_eq),
        ],
        options={"mip_rel_gap": 0.0},
    )
    if res.x is not None:
        res.x[binaries] = np.round(res.x[binaries])
    return LINPROG_STATUS.get(res.status, "failure"), res.fun, res.x


def solve_answer(lp: LinearProgram):
    """(status name, objective, x) of ``solve_milp_exact`` for a program
    with binaries, else of ``solve_lp``; "failure" when it raises
    ``SolverError(FAILURE)``."""
    try:
        sol = solve_milp_exact(lp) if lp.binary else solve_lp(lp)
    except SolverError as exc:
        assert exc.status == "failure"
        return "failure", None, None
    return sol.status, sol.objective, sol.x


@pytest.mark.parametrize("status", list(HighsModelStatus.__members__.values()), ids=str)
def test_every_highs_status_is_read_as_linprog_reads_it(monkeypatch, status):
    """Whatever status HiGHS reports, solve_lp returns the status name
    (or raises the failure) that linprog's status code stood for, and
    solve_milp_exact the one that milp's code, reporting the same
    status, stands for."""

    class Reporting(lp_module.Highs):
        def getModelStatus(self):
            return status

    monkeypatch.setattr(lp_module, "Highs", Reporting)
    monkeypatch.setattr(_core, "_Highs", Reporting)  # what milp runs
    code, _ = _highs_to_scipy_status_message(status, "")
    lp = hand_lp([1.0], [0.0], [10.0], ub=[([(0, -1.0)], -3.0)])
    assert solve_answer(lp)[0] == LINPROG_STATUS.get(code, "failure")
    integral = replace(lp, binary=frozenset({0}))
    assert solve_answer(integral)[0] == milp_answer(integral)[0]


INF = np.inf
PARITY_PROGRAMS = {
    "infeasible-ub-row": (hand_lp([1.0], [0.0], [1.0], ub=[([(0, 1.0)], -1.0)]), "infeasible"),
    "infeasible-eq-row": (
        hand_lp([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], eq=[([(0, 1.0), (1, 1.0)], 5.0)]),
        "infeasible",
    ),
    "unbounded-column": (
        hand_lp([-1.0, 1.0], [0.0, 0.0], [INF, 1.0], ub=[([(1, 1.0)], 1.0)]),
        "unbounded",
    ),
    "free-variable-optimum": (
        hand_lp([1.0, 2.0], [-INF, 0.0], [INF, 3.0], ub=[([(0, -1.0), (1, 1.0)], 2.0)]),
        "optimal",
    ),
    # x0 - x1 <= -1 and x1 - x0 <= -1 over free x: neither the program nor
    # its dual is feasible
    "unbounded-or-infeasible": (
        hand_lp(
            [-1.0, -1.0],
            [-INF, -INF],
            [INF, INF],
            ub=[([(0, 1.0), (1, -1.0)], -1.0), ([(0, -1.0), (1, 1.0)], -1.0)],
        ),
        "infeasible",
    ),
    # unbounded along x0 = x1 + 2 + t, yet dual simplex without presolve
    # stops at HiGHS's "unknown" status
    "undecided": (
        hand_lp(
            [-2.0, 1.0],
            [0.0, 0.0],
            [INF, INF],
            ub=[([(0, -2.0), (1, 2.0)], 1.0), ([(0, -2.0), (1, -2.0)], 2.0),
                ([(0, -1.0), (1, 1.0)], -2.0)],
        ),
        "failure",
    ),
}
# The same programs with x0 integral, solved exactly: HiGHS's MILP
# presolve leaves the unbounded column's program undecided between
# unbounded and infeasible.
PARITY_PROGRAMS.update(
    {
        f"integral-{name}": (replace(PARITY_PROGRAMS[name][0], binary=frozenset({0})), status)
        for name, status in [
            ("infeasible-ub-row", "infeasible"),
            ("infeasible-eq-row", "infeasible"),
            ("unbounded-column", "failure"),
            ("free-variable-optimum", "optimal"),
            ("unbounded-or-infeasible", "infeasible"),
            ("undecided", "failure"),
        ]
    }
)
# max 5 x0 + 4 x1 + 3 x2 over 2 x0 + 3 x1 + x2 <= 4 in binaries: the
# relaxation takes a third of x1, the optimum x0 and x2
PARITY_PROGRAMS["binary-knapsack"] = (
    hand_lp([-5.0, -4.0, -3.0], [0.0] * 3, [1.0] * 3, ub=[([(0, 2.0), (1, 3.0), (2, 1.0)], 4.0)],
            binary=(0, 1, 2)),
    "optimal",
)


@pytest.mark.parametrize("name", PARITY_PROGRAMS)
def test_hand_programs_solve_as_linprog_solves_them(name):
    """solve_lp gives linprog's status and, at an optimum, its objective
    and x to the bit; solve_milp_exact, on a program with binaries,
    gives milp's."""
    lp, status = PARITY_PROGRAMS[name]
    want = milp_answer(lp) if lp.binary else linprog_answer(lp)
    got = solve_answer(lp)
    assert got[0] == want[0] == status
    if status == "optimal":
        assert got[1].hex() == float(want[1]).hex()
        assert got[2].tobytes() == want[2].tobytes()


def not_finite(where: str, value: float) -> LinearProgram:
    """A small feasible program with ``value`` put at ``where``."""
    lp = hand_lp([1.0, 1.0], [0.0, 0.0], [10.0, 10.0], ub=[([(0, -1.0), (1, 1.0)], -3.0)],
                 eq=[([(1, 1.0)], 1.0)])
    {"cost": lp.objective, "coefficient": lp.A_ub.data, "ub-rhs": lp.b_ub, "eq-rhs": lp.b_eq}[where][0] = value
    return lp


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["cost", "coefficient", "ub-rhs", "eq-rhs"])
def test_a_value_that_is_not_finite_is_refused_as_linprog_refused_it(where, value):
    """HiGHS would call a program with a NaN cost optimal at a NaN
    objective; like linprog, solve_lp raises ValueError instead, and so
    does solve_milp_exact (where milp read a NaN right-hand side as
    infeasible)."""
    lp = not_finite(where, value)
    with pytest.raises(ValueError):
        linprog_answer(lp)
    with pytest.raises(ValueError, match="not finite"):
        solve_lp(lp)
    with pytest.raises(ValueError, match="not finite"):
        solve_milp_exact(replace(lp, binary=frozenset({0})))


def test_solve_lp_writes_nothing(capfd):
    """HiGHS's log and console output stay off, whatever the outcome, on
    the continuous and the exact path alike."""
    for lp, _ in PARITY_PROGRAMS.values():
        solve_answer(lp)
    solve_lp(relaxation(random_instance(3))[0])
    assert solve_milp_exact(build_milp(*random_instance(2))).optimal
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("option", [{"presolv": "off"}, {"presolve": "of"}], ids=["name", "value"])
def test_an_option_highs_refuses_raises(monkeypatch, option):
    """A misspelled HiGHS option, or a value it does not take, stops the
    solve, continuous or exact, instead of being ignored."""
    monkeypatch.setattr(lp_module, "_OPTIONS", {**lp_module._OPTIONS, **option})
    monkeypatch.setattr(lp_module, "_EXACT_OPTIONS", {**lp_module._EXACT_OPTIONS, **option})
    for solve in (solve_lp, solve_milp_exact):
        with pytest.raises(ValueError, match=next(iter(option))):
            solve(hand_lp([1.0], [0.0], [10.0], binary=(0,)))


def test_duals_carry_the_sign_and_value_of_a_binding_row():
    """min -x0 - 2 x1 over x0 + x1 <= 3 (binding), x2 == 0.5, x1 <= 1
    (binding) and x0 - x1 <= 10 (slack): the optimum is x = (2, 1, 0.5),
    and the duals, the ``<=`` rows' in order and then the ``==`` row's,
    are each row's objective change per unit of its right-hand side, at
    most 0 on a ``<=`` row."""
    lp = hand_lp(
        [-1.0, -2.0, 0.0],
        [0.0, 0.0, 0.0],
        [10.0, 10.0, 10.0],
        ub=[([(0, 1.0), (1, 1.0)], 3.0), ([(1, 1.0)], 1.0), ([(0, 1.0), (1, -1.0)], 10.0)],
        eq=[([(2, 1.0)], 0.5)],
    )
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(-4.0, abs=1e-9)
    # a unit more room on the first row adds a unit of x0 (-1); on the
    # second, trades a unit of x0 for one of x1 (-1); the slack row and
    # the equality on the costless x2 are worth nothing
    assert sol.duals.tolist() == pytest.approx([-1.0, -1.0, 0.0, 0.0], abs=1e-9)
    assert solve_lp(hand_lp([], [], [], ub=[([], 0.0)])).duals.tolist() == [0.0]
    assert solve_milp_exact(replace(lp, binary=frozenset({0}))).duals is None


def test_minimize_x_at_least_three():
    lp = hand_lp([1.0], [0.0], [10.0], ub=[([(0, -1.0)], -3.0)])
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
    lp = hand_lp([1.0], [0.0], [1.0], ub=[([(0, 1.0)], -1.0)])
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
    oracle = enumerate_vertices(lp.objective, list(zip(A, lp.b_ub.tolist())), lo, hi)
    assert sol.objective == pytest.approx(oracle, abs=1e-6)


def assert_assembled(lp):
    """Both matrices are CSR with one column per variable and one
    right-hand side per row, and canonical: every row's column indices
    strictly increase, so no entry is duplicated; and the ``rows`` view
    holds the matrices' rows."""
    for A, b in ((lp.A_ub, lp.b_ub), (lp.A_eq, lp.b_eq)):
        assert A.format == "csr"
        assert A.shape == (len(b), lp.n_vars) and b.shape == (len(b),)
        assert A.indptr[0] == 0 and A.indptr[-1] == A.nnz == len(A.indices) == len(A.data)
        for r in range(A.shape[0]):
            assert np.all(np.diff(A.indices[A.indptr[r] : A.indptr[r + 1]]) > 0)
    assert_rows_view(lp)


def bundled(topology: str):
    """1000 cctv_two requests on a bundled topology at TU 0.8, as
    perfbench's instances are made: (net, apps, efficiency, requests,
    psi)."""
    root = resources.files("vneap")
    graph = harness.ingest_graphml(str(root.joinpath(f"fixtures/topologies/{topology}.graphml")))
    base = harness.assign_costs_capacities(graph, harness.classify_tiers(graph))
    apps = vio.load_applications(json.loads(root.joinpath("fixtures/cctv_two.json").read_text()))
    gen = harness.GenParams(count=1000, app="cctv", enforce_origin_cap=False)
    requests = harness.generate_requests(base, apps, gen, 1)
    net = harness.calibrate_target_utilization(base, apps, requests, 0.8, 0.8)
    eff = EfficiencyMap()
    return net, apps, eff, requests, compute_rejection_penalty(net, apps, eff)


def test_rows_assemble_into_canonical_matrices():
    hand = hand_lp(
        [1.0, 1.0, 1.0, 1.0],
        [0.0] * 4,
        [1.0] * 4,
        ub=[([(3, 1.0), (0, 2.0), (3, 0.5), (1, -1.0)], 4.0), ([], 0.0)],
        eq=[([(2, 1.0), (2, 1.0)], 1.0)],
    )
    assert hand.A_ub.toarray().tolist() == [[2.0, -1.0, 0.0, 1.5], [0.0, 0.0, 0.0, 0.0]]
    assert hand.A_eq.toarray().tolist() == [[0.0, 0.0, 2.0, 0.0]]
    assert hand.b_ub.tolist() == [4.0, 0.0] and hand.b_eq.tolist() == [1.0]
    assert hand.A_ub.indices.tolist() == [0, 1, 3] and hand.A_eq.indices.tolist() == [2]
    assert_assembled(hand)
    instances = [bundled("arnes_si"), bundled("amres_rs")] + [random_instance(s) for s in range(30)]
    for net, apps, eff, requests, psi in instances:
        assert_assembled(build_relaxed_aggregate_lp(net, apps, eff, aggregate_requests(requests), psi))
    for seed in range(30):
        assert_assembled(build_milp(*random_instance(seed)))


def test_empty_program_solves_to_zero():
    sol = solve_lp(hand_lp([], [], []))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    assert sol.x.shape == (0,)
    assert solve_lp(hand_lp([], [], [], ub=[([], 0.0)], eq=[([], 0.0)])).optimal
    for rows in ({"ub": [([], -1.0)]}, {"eq": [([], 1.0)]}):
        assert solve_lp(hand_lp([], [], [], **rows)).status == "infeasible"


def test_twenty_variable_box_lp_matches_corner_scan():
    # without rows the optimum separates per coordinate, so scanning both
    # bounds of each variable enumerates exactly the relevant vertices
    rng = np.random.default_rng(99)
    lo = rng.uniform(-3.0, 0.0, size=20)
    hi = lo + rng.uniform(0.1, 4.0, size=20)
    c = rng.normal(size=20)
    lp = hand_lp(c, lo, hi)
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


def solved_form(sol, count: str, duals=None) -> dict:
    """``sol`` as lp_recorded.jsonl stores it: floats as ``float.hex``,
    ``count`` the stats entry kept (``iterations`` or ``nodes``) and
    ``duals``, when given, the row duals in the recorded order."""
    def hexes(values):
        return None if values is None else [v.hex() for v in values.tolist()]

    form = {
        "status": sol.status,
        "objective": None if sol.objective is None else sol.objective.hex(),
        "x": hexes(sol.x),
        count: sol.stats[count],
    }
    if duals is not None:
        form["duals"] = hexes(duals)
    return form


def recorded_solves():
    """(name, solved form) of every solve lp_recorded.jsonl pins: the
    aggregate relaxation (``solve_relaxation``, with the master's duals)
    of the capacity-bound toy, the random instances 0-29 and the two
    bundled instances; the relaxed per-request program (``solve_lp`` of
    ``build_milp(...).relax()``, with its duals, every ``<=`` row's
    before every ``==`` row's) of the toy and the random instances; and
    the exact solve of each such program with at most 200 binaries.
    Each line of the file is ``{"name": name, **form}``."""
    toy_instance = toy_net(link_cap=150.0), toy_apps(), EfficiencyMap(), unit_requests(2), PSI_TOY
    instances = [("toy", toy_instance)]
    instances += [(f"random-{seed}", random_instance(seed)) for seed in range(30)]
    for name, (net, apps, eff, requests, psi) in instances:
        sol = solve_relaxation(net, apps, eff, requests, psi).solution
        yield f"relaxation/{name}", solved_form(sol, "iterations", sol.duals)
    for topology in ("arnes_si", "amres_rs"):
        sol = solve_relaxation(*bundled(topology)).solution
        yield f"relaxation/{topology}", solved_form(sol, "iterations", sol.duals)
    for name, instance in instances:
        milp = build_milp(*instance)
        sol = solve_lp(milp.relax())
        yield f"relaxed/{name}", solved_form(sol, "iterations", sol.duals)
        if len(milp.binary) <= 200:
            yield f"exact/{name}", solved_form(solve_milp_exact(milp), "nodes")


def test_solves_match_the_recorded_answers():
    """HiGHS's status, objective, x, iteration or node count and duals
    equal, to the bit, those recorded from the programs as they were
    assembled before programs held their matrices (row tuples split per
    sense on every solve)."""
    recorded = [json.loads(line) for line in RECORDED.read_text().splitlines()]
    got = [{"name": name, **form} for name, form in recorded_solves()]
    assert [r["name"] for r in got] == [r["name"] for r in recorded]
    for have, want in zip(got, recorded):
        assert have == want, have["name"]


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
    A_ub, b_ub = lp.A_ub, lp.b_ub
    if budget is not None:
        A_ub = sparse.vstack([A_ub, sparse.csr_matrix(lp.objective)])
        b_ub = np.append(b_ub, budget)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
        res = linprog(
            cost,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=lp.A_eq,
            b_eq=lp.b_eq,
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
        [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], ub=[([(0, -1.0), (1, -1.0)], -3.0)], binary=(0, 1)
    )
    sol = solve_milp_exact(lp)
    assert sol.status == "infeasible"
    assert sol.objective is None
    assert "nodes" in sol.stats


def test_exact_minimizes_the_solver_objective():
    """Two binaries with x0 + x1 == 1, objective (1, 2) and solver
    objective (3, 2): the exact solve, like the continuous one, minimizes
    the solver objective, so it picks x1, and it prices that answer by
    the objective."""
    lp = hand_lp(
        [1.0, 2.0], [0.0, 0.0], [1.0, 1.0], eq=[([(0, 1.0), (1, 1.0)], 1.0)], binary=(0, 1)
    )
    lp = replace(lp, solver_objective=np.array([3.0, 2.0]))
    for sol in (solve_lp(lp), solve_milp_exact(lp)):
        assert sol.x.tolist() == [0.0, 1.0]
        assert sol.objective == 2.0


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
