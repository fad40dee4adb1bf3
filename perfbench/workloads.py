"""Workloads of the vneap benchmark: the inputs each one builds from a
seed, the calls each operation makes, and the checks on their outputs.

Every workload runs all five user-facing operations, so every
end-to-end metric exists on every workload:

* ``lp``: aggregate, build, solve and unpack the aggregate relaxation;
* ``tanto`` and ``greedy`` on the same requests;
* ``compare``: ``run_scenario`` and ``write_result`` on a scenario file;
* ``exact``: branch-and-bound on the two-node toy.

A workload stresses a layer by giving its operation a large input; on
the other workload that operation runs on a small input (a
one-repetition scenario on a 10-node topology, a 3-request toy, 1 000
requests), where the prediction is no change.

Only public functions of vneap are called.  Inputs come from
``vneap.rng`` streams keyed by the seed, the workload and the instance
index, so a seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

import vneap
import vneap.io as vio
from vneap import cli, harness, rng
from vneap.formulation import (
    LinearProgram,
    aggregate_requests,
    build_milp,
    build_relaxed_aggregate_lp,
    compute_rejection_penalty,
    fractional_solution,
)
from vneap.greedy import greedy_embed_all
from vneap.lp import SolveOptions, solve_lp, solve_milp_exact
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
from vneap.tanto import tanto
from vneap.validator import (
    check_feasibility,
    objective_consistency,
    rejection_rate,
    total_cost,
)

import reference
from tracing import Tracer

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = Path(vneap.__file__).resolve().parent / "fixtures"
TOPOLOGIES = FIXTURES / "topologies"

OPERATIONS = ("lp", "tanto", "greedy", "compare", "exact")

# Size of the sample that estimates per-request demand for calibration.
CALIBRATION_SAMPLE = 20_000
# Target node and link utilization of the generated instances.  At 1.0
# the point where capacity runs out varies with the draw: between seeds
# HiGHS iterations on arnes_si vary by about 25% and greedy_s on
# round-amres-many by about 20%.  At 0.8 the iterations on
# solve-arnes-two range over 3 700-4 500 across ten seeds, which the
# median over a run's instances evens out.
TARGET_UTILIZATION = 0.8
# Relative tolerance of the objective checks (the validator's own).
REL_TOL = 1e-6

# The exact toy: two nodes E (edge, cost 10) and C (core, cost 1) joined
# by an uplink of this capacity, unit requests at E, rejection penalty
# TOY_PSI.  The uplink is tight enough that the relaxation mixes both
# alternatives and branch-and-bound has to search.
TOY_UPLINK = 250.0
TOY_PSI = 1050.0
# Optimal exact objectives by request count, recorded when the benchmark
# was written and confirmed with scipy.optimize.milp; a different value
# is a wrong answer, not a new baseline.
EXACT_OBJECTIVE = {3: 690.0, 4: 1045.0}
# solve_milp_exact refuses more binaries than this (the default cap is
# 40; the 4-request toy has 88).
EXACT_MAX_BINARIES = 200


@dataclass(frozen=True)
class Workload:
    """``graphml``/``catalog``/``requests`` define the generated
    instance for lp, tanto and greedy; ``scenario`` is the file compare
    loads; ``exact_requests`` sizes the exact toy."""

    name: str
    graphml: Path
    catalog: str
    requests: int
    scenario: Path
    exact_requests: int


SMALL_SCENARIO = DATA / "compare_small.json"

# solve-arnes-two also carries the inputs that stress compare (the
# arnes_si scenario file) and exact (the 4-request toy): two workloads
# with long runs proved steadier on a machine whose speed drifts over
# tens of seconds than four with shorter ones.  Every operation takes at
# most a few seconds, so a run calls each one several times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-arnes-two",
            graphml=TOPOLOGIES / "arnes_si.graphml",
            catalog="cctv_two",
            requests=1000,
            scenario=DATA / "compare_arnes_two.json",
            exact_requests=4,
        ),
        Workload(
            "round-amres-many",
            graphml=TOPOLOGIES / "amres_rs.graphml",
            catalog="cctv_two",
            requests=12_000,
            scenario=SMALL_SCENARIO,
            exact_requests=3,
        ),
    )
}


def toy(n_requests: int) -> tuple[SubstrateNetwork, dict[str, Application], list[Request]]:
    """The two-node E/C toy with ``n_requests`` unit requests at E."""
    net = SubstrateNetwork(
        [SubstrateNode("E", 10.0, 1e12, "edge"), SubstrateNode("C", 1.0, 1e12, "core")],
        [SubstrateArc("E", "C", 1.0, TOY_UPLINK), SubstrateArc("C", "E", 1.0, TOY_UPLINK)],
    )
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
    apps = {"cam": Application("cam", (main, accelerated))}
    return net, apps, [Request("E", "cam", 1.0) for _ in range(n_requests)]


@dataclass
class Instance:
    """Everything the five operations need, built by :func:`build_instance`."""

    index: int
    net: SubstrateNetwork
    apps: Mapping[str, Application]
    efficiency: EfficiencyMap
    requests: list[Request]
    requested: int
    psi: float
    algo_seed: int
    scenario: harness.ScenarioConfig
    milp: LinearProgram
    exact_requests: int


def build_instance(w: Workload, seed: int, index: int, t: Tracer) -> Instance:
    """Set-up: ingest, tiers and costs, catalog, calibration sample,
    calibration, generation with the origin cap off, ψ, the scenario
    file, and the exact toy's binary program."""

    def sub(label: str) -> int:
        return rng.substream_seed(seed, w.name, index, label)

    graph = t.call("harness.ingest", harness.ingest_graphml, w.graphml)
    tiers = t.call("harness.classify_tiers", harness.classify_tiers, graph)
    base = t.call("harness.assign_costs", harness.assign_costs_capacities, graph, tiers)
    apps = vio.load_applications(FIXTURES / f"{w.catalog}.json")
    app = sorted(apps)[0]
    gen = harness.GenParams(count=w.requests, app=app, enforce_origin_cap=False)
    calib = t.call(
        "harness.calibration_sample",
        harness.generate_requests,
        base,
        apps,
        harness.GenParams(count=CALIBRATION_SAMPLE, app=app, enforce_origin_cap=False),
        sub("calibration"),
    )
    net = t.call(
        "harness.calibrate",
        harness.calibrate_target_utilization,
        base,
        apps,
        calib,
        TARGET_UTILIZATION,
        TARGET_UTILIZATION,
        population=w.requests,
    )
    requests = t.call(
        "harness.generate", harness.generate_requests, net, apps, gen, sub("requests")
    )
    efficiency = EfficiencyMap()
    psi = t.call("formulation.psi", compute_rejection_penalty, net, apps, efficiency)
    scenario = t.call(
        "cli.load_scenario", cli.load_scenario, w.scenario, jobs=1, seed=sub("scenario")
    )
    toy_net, toy_apps, toy_requests = toy(w.exact_requests)
    milp = t.call(
        "formulation.build_milp",
        build_milp,
        toy_net,
        toy_apps,
        EfficiencyMap(),
        toy_requests,
        TOY_PSI,
    )
    return Instance(
        index=index,
        net=net,
        apps=apps,
        efficiency=efficiency,
        requests=requests,
        requested=w.requests,
        psi=psi,
        algo_seed=sub("algorithms"),
        scenario=scenario,
        milp=milp,
        exact_requests=w.exact_requests,
    )


@dataclass
class Outcome:
    """What a run measured and found: per operation the wall seconds of
    each call, and the same scaled to the reference speed (``scaled``
    also holds the set-ups, under ``setup``), durations vneap reported
    itself (one sample per call), counts and ratios read from the first
    call of each operation, and the problems the checks found."""

    times: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    reported: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def report(self, name: str, value: float) -> None:
        self.reported.setdefault(name, []).append(value)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(b))


class Operations:
    """The five operations of a workload, each call timed and then
    checked outside its timing.

    Measuring runs in rounds; round ``r`` builds instance ``r`` and calls
    every operation once on it, lp first: the gaps of tanto and greedy
    need its objective.  So call ``k`` of an operation runs on instance
    ``k``, and a seed always gives the same sequence of inputs."""

    def __init__(self, w: Workload, seed: int, t: Tracer, out_dir: Path):
        self.w = w
        self.seed = seed
        self.t = t
        self.out_dir = out_dir
        self.broken: set[str] = set()  # operations that raised; not called again
        self.lp_objective = math.nan
        self.reference_times: list[float] = []

    def setup(self, index: int) -> Instance:
        self.t.at("setup", index)
        with self.t.span("bench.setup"):
            return build_instance(self.w, self.seed, index, self.t)

    def measure(self, o: Outcome, seconds: float) -> None:
        """Rounds of one set-up and one call of every operation, until
        ``seconds`` have passed (checked before each step, after a first
        whole round).  Each operation's calls and the set-ups spread
        evenly over the run, and their medians are over as many
        instances as there were rounds.

        The reference work runs before the first step and after every
        step; each step's wall time is scaled by the mean of the
        reference times on either side of it, which saw the same
        stretch of the machine's speed."""
        deadline = time.perf_counter() + seconds
        self.reference_times.append(reference.run())
        for r in itertools.count():
            for op in ("setup", *OPERATIONS):
                if r and time.perf_counter() >= deadline:
                    return
                if op in self.broken:
                    continue
                if op == "setup":
                    t0 = time.perf_counter()
                    inst = self.setup(r)
                    wall = time.perf_counter() - t0
                else:
                    wall = self.call(op, o, inst)
                before = self.reference_times[-1]
                self.reference_times.append(reference.run())
                if wall is not None:
                    o.scaled.setdefault(op, []).append(
                        reference.scaled(wall, before, self.reference_times[-1])
                    )

    def call(self, op: str, o: Outcome, inst: Instance) -> Optional[float]:
        """One checked call of ``op`` on ``inst``.  Returns its wall
        seconds, also kept in ``o.times``, or None if it raised."""
        samples = o.times.setdefault(op, [])
        first = not samples
        self.t.at("measure", inst.index)
        t0 = time.perf_counter()
        wall = None
        try:
            with self.t.span(f"bench.{op}"):
                result = getattr(self, op)(inst)
            wall = time.perf_counter() - t0
            samples.append(wall)
            with self.t.span("bench.check"):
                problems = getattr(self, f"check_{op}")(o, inst, result, first)
        except Exception:
            traceback.print_exc()
            self.broken.add(op)
            problems = ["raised"]
        if op in ("lp", "tanto", "greedy") and len(inst.requests) != inst.requested:
            problems.append(f"generated {len(inst.requests)} of {inst.requested} requests")
        o.attempted += 1
        if problems:
            o.failed += 1
            o.problems.extend(f"{op}: {p}" for p in problems)
        return wall

    # -- the operations ------------------------------------------------------

    def lp(self, inst: Instance):
        t = self.t
        aggregates = t.call("formulation.aggregate", aggregate_requests, inst.requests)
        lp = t.call(
            "formulation.build",
            build_relaxed_aggregate_lp,
            inst.net,
            inst.apps,
            inst.efficiency,
            aggregates,
            inst.psi,
        )
        sol = t.call("lp.solve", solve_lp, lp)
        frac = None
        if sol.optimal:
            frac = t.call(
                "formulation.unpack",
                fractional_solution,
                lp,
                sol.x,
                sol.objective,
                aggregates,
                inst.apps,
            )
        return aggregates, lp, sol, frac

    def tanto(self, inst: Instance):
        return self.t.call(
            "tanto.run",
            tanto,
            inst.net,
            inst.apps,
            inst.efficiency,
            inst.requests,
            inst.psi,
            seed=inst.algo_seed,
        )

    def greedy(self, inst: Instance):
        return self.t.call(
            "greedy.run",
            greedy_embed_all,
            inst.net,
            inst.apps,
            inst.efficiency,
            inst.requests,
            inst.psi,
            inst.algo_seed,
        )

    def compare(self, inst: Instance):
        result = self.t.call("harness.run_scenario", harness.run_scenario, inst.scenario)
        paths = self.t.call(
            "harness.write", harness.write_result, result, self.out_dir, inst.scenario.apps
        )
        return result, paths

    def exact(self, inst: Instance):
        return self.t.call(
            "lp.exact", solve_milp_exact, inst.milp, SolveOptions(max_binaries=EXACT_MAX_BINARIES)
        )

    # -- their checks ----------------------------------------------------------

    def check_lp(self, o: Outcome, inst: Instance, result, first: bool) -> list[str]:
        aggregates, lp, sol, frac = result
        if not sol.optimal:
            return [f"LP status {sol.status}"]
        problems = []
        delta = self.t.call(
            "validator.objective_consistency",
            objective_consistency,
            inst.net,
            inst.apps,
            inst.efficiency,
            inst.psi,
            sol.objective,
            frac,
        )
        if delta > REL_TOL * (1.0 + abs(sol.objective)):
            problems.append(f"objective drift {delta!r}")
        if first:
            self.lp_objective = sol.objective
            o.counts.update(
                {
                    "formulation.aggregates": len(aggregates),
                    "formulation.vars": lp.n_vars,
                    "formulation.rows": len(lp.rows),
                    "formulation.nnz": sum(len(row.coeffs) for row in lp.rows),
                    "lp.iterations": sol.stats.get("iterations", 0),
                    "lp.status": 1.0,
                    "lp.nonzero_vars": int(np.count_nonzero(sol.x)),
                }
            )
        return problems

    def _check_embeddings(self, o: Outcome, inst: Instance, op: str, embeddings, first: bool):
        """Feasibility and one embedding per request; on the first call
        also the validator's cost, gap and rejection rate.  Returns the
        problems and the validator's total cost."""
        problems = []
        violations = self.t.call(
            "validator.feasibility",
            check_feasibility,
            inst.net,
            inst.apps,
            inst.efficiency,
            embeddings,
        )
        if violations:
            problems.append(f"{len(violations)} violations, first: {violations[0]}")
        if len(embeddings) != len(inst.requests):
            problems.append(f"{len(embeddings)} embeddings for {len(inst.requests)} requests")
        cost = self.t.call(
            "validator.cost",
            total_cost,
            inst.net,
            inst.apps,
            inst.efficiency,
            embeddings,
            inst.psi,
            validate=False,
        ).total
        if first and math.isfinite(self.lp_objective):
            o.counts["validator.violations"] = (
                o.counts.get("validator.violations", 0) + len(violations)
            )
            o.counts[f"validator.{op}_rejection_rate"] = rejection_rate(embeddings)
            o.counts[f"validator.{op}_gap"] = (cost - self.lp_objective) / self.lp_objective
        return problems, cost

    def check_tanto(self, o: Outcome, inst: Instance, result, first: bool) -> list[str]:
        embeddings, rep = result
        problems, _ = self._check_embeddings(o, inst, "tanto", embeddings, first)
        for flag in ("rejection_bound_ok", "psi_gap_ok", "steps_ok"):
            if not getattr(rep, flag):
                problems.append(f"TantoReport.{flag} is false")
        n = max(1, len(inst.requests))
        if first:
            o.counts.update(
                {
                    "tanto.total_steps": rep.total_steps,
                    "tanto.steps_per_request": rep.total_steps / n,
                    "tanto.initial_nonzero_y": rep.initial_nonzero_y,
                    "tanto.rounding_rejections": rep.rounding_rejections,
                    "tanto.accept_ratio": rep.accepted / n,
                }
            )
        o.report("tanto.lp_s", rep.lp_runtime_s)
        o.report("tanto.rounding_s", rep.rounding_runtime_s)
        return problems

    def check_greedy(self, o: Outcome, inst: Instance, result, first: bool) -> list[str]:
        embeddings, rep = result
        problems, cost = self._check_embeddings(o, inst, "greedy", embeddings, first)
        if not _close(rep.objective, cost):
            problems.append(f"greedy objective {rep.objective!r} != validator cost {cost!r}")
        if first:
            o.counts["greedy.rejected"] = rep.rejected
        o.report("greedy.us_per_request", o.times["greedy"][-1] / max(1, len(inst.requests)) * 1e6)
        return problems

    def check_compare(self, o: Outcome, inst: Instance, result, first: bool) -> list[str]:
        scenario_result, paths = result
        cfg = inst.scenario
        problems = [f"scenario error: {e}" for e in scenario_result.errors]
        rows = scenario_result.rows
        if len(rows) != cfg.repetitions * len(cfg.algorithms):
            problems.append(f"{len(rows)} rows")
        if not all(row["status"] == "ok" for row in rows):
            problems.append("a row is not ok")
        if not all(p.is_file() for p in paths.values()):
            problems.append("a result file is missing")
        generated = sum(
            row["request_count"] for row in rows if row["algorithm"] == cfg.algorithms[0]
        )
        requested = cfg.requests * cfg.repetitions
        if generated != requested:
            problems.append(f"scenario generated {generated} of {requested} requests")
        if first:
            # the scenario's generation plus instance 0's own
            total_requested = requested + inst.requested
            total_generated = generated + len(inst.requests)
            o.counts.update(
                {
                    "harness.scenario.rows": len(rows),
                    "harness.scenario.errors": len(scenario_result.errors),
                    "harness.requests_requested": total_requested,
                    "harness.requests_generated": total_generated,
                    "harness.load_ratio": total_generated / total_requested,
                }
            )
        for algo in ("lp", "tanto", "greedy"):
            o.report(
                f"harness.scenario.{algo}_runtime_s",
                sum(
                    row["runtime_s"]
                    for row in scenario_result.timings
                    if row["algorithm"] == algo
                ),
            )
        return problems

    def check_exact(self, o: Outcome, inst: Instance, sol, first: bool) -> list[str]:
        nodes = sol.stats.get("nodes", 0)
        if first:
            o.counts["formulation.milp_binaries"] = len(inst.milp.binary)
            o.counts["lp.exact_nodes"] = nodes
        o.report("lp.exact_us_per_node", o.times["exact"][-1] / max(1, nodes) * 1e6)
        if not sol.optimal:
            return [f"exact status {sol.status}"]
        problems = []
        relaxed = self.t.call("lp.solve_relaxation", solve_lp, inst.milp.relax())
        bound = relaxed.objective - REL_TOL * (1 + abs(relaxed.objective))
        if not (relaxed.optimal and sol.objective >= bound):
            problems.append(f"exact {sol.objective!r} below its relaxation {relaxed.objective!r}")
        recorded = EXACT_OBJECTIVE[inst.exact_requests]
        if not _close(sol.objective, recorded):
            problems.append(f"exact {sol.objective!r} != recorded {recorded!r}")
        return problems
