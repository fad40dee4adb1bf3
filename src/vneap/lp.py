"""Solver backend: continuous LPs via scipy's HiGHS ``linprog`` (dual
simplex, presolve off) and exact small binary programs via HiGHS
branch-and-cut (``scipy.optimize.milp``, presolve on).  Rows are ``<=``
or ``==`` rows, assembled per solve into one CSR matrix per sense.  A
program's ``solver_objective``, when set, is what HiGHS minimizes; the
reported objective prices the answer by the program's ``objective``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .model import sum_in_order

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
UNBOUNDED = "unbounded"
FAILURE = "failure"

# scipy's ``linprog`` and ``milp`` share these status codes; any other
# code (numerical trouble) is a solver failure and raises
# ``SolverError(FAILURE)``.
_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}

# Primal feasibility and dual (optimality) tolerance handed to HiGHS.
_TOL = 1e-7


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # "<=" or "=="
    rhs: float


@dataclass
class LinearProgram:
    """A sparse linear program over hashable variable keys
    (:class:`~vneap.formulation.VariableKey` for every builder).

    ``binary`` lists the variable indices that must be integral; an
    empty set makes the program a plain LP over the ``[lower, upper]``
    box.  ``solver_objective``, when set, is what the solver minimizes
    in place of ``objective``; a solution's reported objective still
    prices it by ``objective``.
    """

    keys: tuple
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    objective_constant: float
    rows: tuple[Row, ...]
    binary: frozenset[int]
    solver_objective: Optional[np.ndarray] = None

    @property
    def n_vars(self) -> int:
        return len(self.keys)

    def relax(self) -> "LinearProgram":
        """The same program without integrality marks."""
        return replace(self, binary=frozenset())


class SolverError(RuntimeError):
    """A program that did not solve to optimality where the caller needs
    an optimum; ``status`` is one of the status names above."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class SolveOptions:
    """Limits of :func:`solve_milp_exact`.

    Parameters
    ----------
    max_binaries : int
        Refusal threshold for :func:`solve_milp_exact`; exact search is
        a desk-scale oracle, not a production solver.
    """

    max_binaries: int = 200


@dataclass
class Solution:
    """A solver's answer.  ``duals`` is set by an optimal
    :func:`solve_lp`: each row's dual in ``lp.rows`` order, the rate at
    which the minimized objective changes per unit of the row's
    right-hand side (so at most 0 on a ``<=`` row)."""

    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    stats: dict = field(default_factory=dict)
    duals: Optional[np.ndarray] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _split_rows(lp: LinearProgram):
    """Assemble sparse ``A_ub x <= b_ub`` and ``A_eq x = b_eq`` from the
    program's rows, in row order, with each row's entries sorted and
    duplicates summed; a sense without rows gives None twice."""
    for row in lp.rows:
        if row.sense not in ("<=", "=="):
            raise ValueError(f"unknown row sense {row.sense!r}")

    def matrix(sense):
        rows = [row for row in lp.rows if row.sense == sense]
        if not rows:
            return None, None
        indptr = np.cumsum([0] + [len(row.coeffs) for row in rows])
        entries = np.fromiter(
            chain.from_iterable(row.coeffs for row in rows),
            dtype=[("col", np.int64), ("coeff", float)],
            count=indptr[-1],
        )
        A = sparse.csr_matrix(
            (entries["coeff"], entries["col"], indptr), shape=(len(rows), lp.n_vars)
        )
        A.sum_duplicates()
        return A, np.asarray([row.rhs for row in rows])

    return (*matrix("<="), *matrix("=="))


def _solution(res, lp: LinearProgram, stats: dict) -> Solution:
    status = _STATUS.get(res.status)
    if status is None:
        raise SolverError(FAILURE, f"HiGHS failure: {res.message}")
    if status != OPTIMAL:
        return Solution(status, None, None, stats)
    objective = float(res.fun)
    if lp.solver_objective is not None:
        # price x by ``objective`` as HiGHS prices an LP's answer: cost
        # times value, added column by column from zero
        objective = sum_in_order((lp.objective * res.x).tolist())
    return Solution(OPTIMAL, objective + lp.objective_constant, res.x, stats)


def solve_lp(lp: LinearProgram) -> Solution:
    """Solve the continuous program (integrality marks are ignored) by
    HiGHS dual simplex.

    Returns a :class:`Solution`; infeasibility and limit exhaustion are
    reported through ``status`` rather than raised.
    """
    A_ub, b_ub, A_eq, b_eq = _split_rows(lp)
    if lp.n_vars == 0:
        # constant objective; feasible iff no row is violated by x = ()
        violated = (0.0 > r.rhs + _TOL if r.sense == "<=" else abs(r.rhs) > _TOL for r in lp.rows)
        if any(violated):
            return Solution(INFEASIBLE, None, None)
        return Solution(OPTIMAL, lp.objective_constant, np.zeros(0), duals=np.zeros(len(lp.rows)))
    res = linprog(
        lp.objective if lp.solver_objective is None else lp.solver_objective,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        # Dual simplex, presolve off.  The aggregate relaxation's column
        # generation (100-170 columns, 3-4 master solves on the benchmark's
        # instances) took 0.025 s dual against 0.024 s primal on an
        # arnes_si/cctv_two instance, inside either's interquartile range
        # of 0.005 s, and 0.024 s against 0.028 s on an amres_rs one:
        # build and solve, medians of 60 interleaved runs on a 2-core VM.
        # The per-request relaxation of the overloaded arnes_si fixture
        # (184k columns) took 13.3 s dual against 30.5 s primal, at the
        # same objective.
        method="highs-ds",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": _TOL,
            "dual_feasibility_tolerance": _TOL,
        },
    )
    sol = _solution(res, lp, {"iterations": int(getattr(res, "nit", 0))})
    if sol.optimal:
        below = np.array([row.sense == "<=" for row in lp.rows], dtype=bool)
        sol.duals = np.empty(len(lp.rows))
        sol.duals[below] = res.ineqlin.marginals
        sol.duals[~below] = res.eqlin.marginals
    return sol


def solve_milp_exact(lp: LinearProgram, opts: Optional[SolveOptions] = None) -> Solution:
    """Globally optimal solution of a small binary program by HiGHS
    branch-and-cut, run to a zero relative gap.

    Intended as an oracle for desk-scale instances: refuses programs
    with more than ``opts.max_binaries`` binary variables.  A program
    without binaries is solved as a plain LP.  Binary values in ``x``
    are rounded to exact 0/1; ``stats["nodes"]`` counts the
    branch-and-cut nodes.
    """
    opts = opts or SolveOptions()
    if len(lp.binary) > opts.max_binaries:
        raise ValueError(
            f"exact search refused: {len(lp.binary)} binary variables exceed "
            f"the cap of {opts.max_binaries} (raise SolveOptions.max_binaries "
            f"only for oracle-scale instances)"
        )
    if not lp.binary:
        return solve_lp(lp)
    binaries = sorted(lp.binary)
    integrality = np.zeros(lp.n_vars)
    integrality[binaries] = 1
    A_ub, b_ub, A_eq, b_eq = _split_rows(lp)
    constraints = []
    if A_ub is not None:
        constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(LinearConstraint(A_eq, b_eq, b_eq))
    res = milp(
        lp.objective,
        integrality=integrality,
        bounds=Bounds(lp.lower, lp.upper),
        constraints=constraints,
        options={"mip_rel_gap": 0.0},
    )
    sol = _solution(res, lp, {"nodes": int(res.mip_node_count or 0)})
    if sol.optimal:
        sol.x[binaries] = np.round(sol.x[binaries])
    return sol
