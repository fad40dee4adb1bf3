"""Solver backend: every program is solved on HiGHS's own bindings as
scipy bundles them (``scipy.optimize._highspy._core``): continuous LPs
by dual simplex with presolve off, small binary programs exactly by
branch-and-cut with HiGHS's MILP presolve.  A program holds its ``<=``
rows and its ``==`` rows as one canonical CSR matrix each, with their
right-hand sides, and HiGHS is handed them as they are.  A program's
``solver_objective``, when set, is what HiGHS minimizes; the reported
objective prices the answer by the program's ``objective``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import (
    HighsInfo,
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    HighsVarType,
    MatrixFormat,
    _Highs as Highs,
)

from .model import sum_in_order

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
UNBOUNDED = "unbounded"
FAILURE = "failure"

# A program's HiGHS model status, read as scipy's ``linprog`` and
# ``milp`` read it; any other status (numerical trouble, an undecided
# "unbounded or infeasible") is a solver failure and raises
# ``SolverError(FAILURE)``.
_STATUS = {
    HighsModelStatus.kOptimal: OPTIMAL,
    HighsModelStatus.kTimeLimit: ITERATION_LIMIT,
    HighsModelStatus.kIterationLimit: ITERATION_LIMIT,
    HighsModelStatus.kInfeasible: INFEASIBLE,
    HighsModelStatus.kModelError: INFEASIBLE,
    HighsModelStatus.kUnbounded: UNBOUNDED,
}

# Primal feasibility and dual (optimality) tolerance handed to HiGHS.
_TOL = 1e-7

# What every LP solve sets on its HiGHS model, the options
# ``linprog(method="highs-ds")`` sets, logging off first; HiGHS's default
# for every other one.  Dual simplex, presolve off: the aggregate
# relaxation's column generation (100-170 columns, 3-4 master solves on
# the benchmark's instances) took 0.025 s dual against 0.024 s primal on
# an arnes_si/cctv_two instance, inside either's interquartile range of
# 0.005 s, and 0.024 s against 0.028 s on an amres_rs one: build and
# solve, medians of 60 interleaved runs on a 2-core VM.  The per-request
# relaxation of the overloaded arnes_si fixture (184k columns) took
# 13.3 s dual against 30.5 s primal, at the same objective.
_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "solver": "simplex",
    "simplex_strategy": 1,  # dual
    "presolve": "off",
    "primal_feasibility_tolerance": _TOL,
    "dual_feasibility_tolerance": _TOL,
}

# What the exact solve sets, the options ``milp`` set, logging off first:
# branch-and-cut runs to a zero relative gap, with HiGHS's default for
# every other option (its MILP presolve on among them).
_EXACT_OPTIONS = {"output_flag": False, "log_to_console": False, "mip_rel_gap": 0.0}


class Row(NamedTuple):
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # "<=" or "=="
    rhs: float


def row_matrix(rows: Sequence[Sequence[tuple[int, float]]], n_vars: int) -> sparse.csr_matrix:
    """The canonical CSR matrix with ``n_vars`` columns whose row ``r``
    holds ``rows[r]``'s (variable index, coefficient) entries, indices
    sorted and duplicates summed."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    entries = np.fromiter(
        chain.from_iterable(rows), dtype=[("col", np.int64), ("coeff", float)], count=indptr[-1]
    )
    A = sparse.csr_matrix((entries["coeff"], entries["col"], indptr), shape=(len(rows), n_vars))
    A.sum_duplicates()
    return A


@dataclass
class LinearProgram:
    """A sparse linear program over hashable variable keys
    (:class:`~vneap.formulation.VariableKey` for every builder) with rows
    ``A_ub @ x <= b_ub`` and ``A_eq @ x == b_eq``, each matrix canonical
    CSR and either one possibly without rows.

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
    A_ub: sparse.csr_matrix
    b_ub: np.ndarray
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    binary: frozenset[int]
    solver_objective: Optional[np.ndarray] = None

    @property
    def n_vars(self) -> int:
        return len(self.keys)

    @property
    def rows(self) -> tuple[Row, ...]:
        """Every ``<=`` row, then every ``==`` row, read off the
        matrices.  perfbench's ``check_lp`` is its only reader; it goes
        once that check counts rows and nonzeros from the matrices
        (ROADMAP item 9)."""
        return tuple(
            Row(tuple(zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist())), sense, rhs)
            for A, b, sense in ((self.A_ub, self.b_ub, "<="), (self.A_eq, self.b_eq, "=="))
            for lo, hi, rhs in zip(A.indptr[:-1].tolist(), A.indptr[1:].tolist(), b.tolist())
        )

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
    :func:`solve_lp`: each ``<=`` row's dual, then each ``==`` row's,
    the rate at which the minimized objective changes per unit of the
    row's right-hand side (so at most 0 on a ``<=`` row)."""

    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    stats: dict = field(default_factory=dict)
    duals: Optional[np.ndarray] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _highs_lp(lp: LinearProgram) -> HighsLp:
    """``lp``'s box, solver cost and rows as a HiGHS model: the ``<=``
    rows and then the ``==`` rows, handed over row-wise as the CSR
    matrices hold them.  Raises ValueError, as ``linprog`` does, on a
    cost, coefficient or right-hand side that is not finite: HiGHS would
    call a program with a NaN cost optimal."""
    cost = lp.objective if lp.solver_objective is None else lp.solver_objective
    if not all(np.isfinite(v).all() for v in (cost, lp.A_ub.data, lp.b_ub, lp.A_eq.data, lp.b_eq)):
        raise ValueError("a cost, coefficient or right-hand side of the program is not finite")
    model = HighsLp()
    model.num_col_ = lp.n_vars
    model.num_row_ = len(lp.b_ub) + len(lp.b_eq)
    model.col_cost_ = cost
    model.col_lower_ = lp.lower
    model.col_upper_ = lp.upper
    model.row_lower_ = np.concatenate([np.full(len(lp.b_ub), -np.inf), lp.b_eq])
    model.row_upper_ = np.concatenate([lp.b_ub, lp.b_eq])
    A = model.a_matrix_
    A.format_ = MatrixFormat.kRowwise
    A.num_col_ = model.num_col_
    A.num_row_ = model.num_row_
    A.start_ = np.concatenate([lp.A_ub.indptr, lp.A_eq.indptr[1:] + lp.A_ub.nnz])
    A.index_ = np.concatenate([lp.A_ub.indices, lp.A_eq.indices])
    A.value_ = np.concatenate([lp.A_ub.data, lp.A_eq.data])
    return model


def _solve(lp: LinearProgram, options: dict, integral: bool = False) -> tuple[Solution, HighsInfo]:
    """``lp``'s solution, its binaries integer columns if ``integral``, on
    a fresh HiGHS model under ``options``, with HiGHS's info on the run."""
    highs = Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) != HighsStatus.kOk:
            raise ValueError(f"HiGHS refused the option {name}={value!r}")
    model = _highs_lp(lp)
    if integral:  # kInteger is 1, kContinuous 0
        model.integrality_ = [HighsVarType(int(i in lp.binary)) for i in range(lp.n_vars)]
    if highs.passModel(model) == HighsStatus.kError:
        model_status = HighsModelStatus.kModelError  # as linprog and milp read a refused model
    else:
        highs.run()
        model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _STATUS.get(model_status)
    if status is None:
        raise SolverError(FAILURE, f"HiGHS failure: {highs.modelStatusToString(model_status)}")
    if status != OPTIMAL:
        return Solution(status, None, None), info
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    if lp.solver_objective is not None:
        # price x by ``objective`` as HiGHS prices an LP's answer: cost
        # times value, added column by column from zero
        objective = sum_in_order((lp.objective * x).tolist())
    duals = np.array(solution.row_dual) if solution.dual_valid else None
    return Solution(OPTIMAL, objective + lp.objective_constant, x, duals=duals), info


def solve_lp(lp: LinearProgram) -> Solution:
    """Solve the continuous program (integrality marks are ignored) by
    HiGHS dual simplex.

    Returns a :class:`Solution`; infeasibility and limit exhaustion are
    reported through ``status`` rather than raised.
    """
    if lp.n_vars == 0:
        # constant objective; feasible iff no row is violated by x = ()
        if (lp.b_ub < -_TOL).any() or (np.abs(lp.b_eq) > _TOL).any():
            return Solution(INFEASIBLE, None, None)
        duals = np.zeros(len(lp.b_ub) + len(lp.b_eq))
        return Solution(OPTIMAL, lp.objective_constant, np.zeros(0), duals=duals)
    sol, info = _solve(lp, _OPTIONS)
    sol.stats["iterations"] = max(info.simplex_iteration_count, 0)  # -1 when nothing ran
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
    sol, info = _solve(lp, _EXACT_OPTIONS, integral=True)
    sol.stats["nodes"] = max(info.mip_node_count, 0)
    if sol.optimal:
        sol.x[binaries] = np.round(sol.x[binaries])
    return sol
