"""Fixed reference work that times the machine rather than vneap.

A shared machine's speed can drift by 20-50% over tens of seconds to
minutes (on a 2-core VM, a pure-Python loop timed for four minutes had
30-second medians from 45 to 68 ms, with no CPU steal), and the drift
moves the operations and this work alike.  The benchmark runs this work between its calls and scales
each call by the reference times on either side of it (see
:func:`scaled`), so the gated figures follow vneap's code, not the
neighbours' load.

The work imitates vneap's two kinds of cost: a pure-Python loop of
dict lookups and min-choices, like greedy placement and rounding, and a
HiGHS solve of a fixed transportation LP through ``scipy.optimize``,
like ``lp.solve_lp``.  It imports nothing from vneap, so no change to
vneap can alter it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Median of run() on the machine the benchmark was written on (2-core VM,
# Python 3.11, scipy 1.17).  A scaled timing is the wall time the call
# would take on that machine at that speed.
REFERENCE_S = 0.15

_N = 150  # sources and sinks of the transportation LP
_rng = np.random.default_rng(20_250_509)
_COST = _rng.random(_N * _N)
_SUPPLY = _rng.random(_N) * 10.0 + 5.0
_DEMAND = np.full(_N, _SUPPLY.sum() / _N * 0.9)
_A_UB = sparse.csr_array(sparse.kron(sparse.eye(_N), np.ones((1, _N))))
_A_EQ = sparse.csr_array(sparse.kron(np.ones((1, _N)), sparse.eye(_N)))


def _placement(n: int = 100_000, bins: int = 1009) -> int:
    load: dict[int, float] = {}
    picks = []
    for i in range(n):
        best, best_load = -1, 0.0
        for b in ((i * 7919) % bins, (i * 104_729) % bins, (i * 31) % bins):
            v = load.get(b, 0.0)
            if best < 0 or v < best_load:
                best, best_load = b, v
        load[best] = best_load + (i % 13) * 0.5
        picks.append(best)
    return len(set(picks))


def _transport() -> float:
    res = linprog(
        _COST, A_ub=_A_UB, b_ub=_SUPPLY, A_eq=_A_EQ, b_eq=_DEMAND, method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP: {res.message}")
    return res.fun


def run() -> float:
    """Wall seconds of one pass of the reference work."""
    t0 = time.perf_counter()
    _placement()
    _transport()
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` in seconds at the speed where run() takes REFERENCE_S,
    given the reference times measured just before and just after it."""
    return wall * REFERENCE_S / ((before + after) / 2.0)
