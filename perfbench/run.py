"""Benchmark of vneap: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve-arnes-two --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; vneap is imported from its
``src/`` directory.  Measuring is closed-loop, one client and one
thread, in rounds until ``--seconds`` have passed: round ``r`` builds
instance (input set) ``r`` from the seed and calls every operation once
on it.

With ``--trace 0`` the result carries the end-to-end metrics: the
median over an operation's calls (over the set-ups for ``setup_s``),
scaled to the reference speed (``reference.py``), and the process's
peak RSS.  With ``--trace 1`` every call into vneap runs
inside a span, and the result carries per-layer self times and the
counts read from the outputs; each operation is first called once
untraced on instance 0, and the difference to its first traced call is
the tracing overhead.  The spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

A table of every metric, with sample counts and the quality figures
(gaps, rejection rates, error rate), precedes the result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "lp_s": "s",
    "tanto_s": "s",
    "greedy_s": "s",
    "compare_s": "s",
    "exact_s": "s",
    "peak_rss_mb": "MB",
}

# Spans whose self time (and CPU self time) is a per-layer metric.
SETUP_SPANS = (
    "harness.ingest",
    "harness.classify_tiers",
    "harness.assign_costs",
    "harness.calibration_sample",
    "harness.calibrate",
    "harness.generate",
    "formulation.psi",
    "cli.load_scenario",
    "formulation.build_milp",
)
CALL_SPANS = (
    "formulation.aggregate",
    "formulation.build",
    "lp.solve",
    "formulation.unpack",
    "tanto.run",
    "greedy.run",
    "harness.run_scenario",
    "harness.write",
    "lp.exact",
    "lp.solve_relaxation",
    "validator.objective_consistency",
    "validator.feasibility",
    "validator.cost",
)
# Durations vneap reports itself (median over calls).
REPORTED = {
    "tanto.lp_s": "s",
    "tanto.rounding_s": "s",
    "harness.scenario.lp_runtime_s": "s",
    "harness.scenario.tanto_runtime_s": "s",
    "harness.scenario.greedy_runtime_s": "s",
    "greedy.us_per_request": "us",
    "lp.exact_us_per_node": "us",
}
# Read from each operation's first call, on instance 0, so they repeat
# exactly for a seed.
COUNTS = {
    "harness.requests_requested": "count",
    "harness.requests_generated": "count",
    "harness.load_ratio": "ratio",
    "harness.scenario.rows": "count",
    "harness.scenario.errors": "count",
    "formulation.aggregates": "count",
    "formulation.vars": "count",
    "formulation.rows": "count",
    "formulation.nnz": "count",
    "formulation.milp_binaries": "count",
    "lp.iterations": "count",
    "lp.status": "count",
    "lp.nonzero_vars": "count",
    "lp.exact_nodes": "count",
    "tanto.total_steps": "count",
    "tanto.steps_per_request": "ratio",
    "tanto.initial_nonzero_y": "count",
    "tanto.rounding_rejections": "count",
    "tanto.accept_ratio": "ratio",
    "greedy.rejected": "count",
    "validator.violations": "count",
    "validator.tanto_gap": "ratio",
    "validator.greedy_gap": "ratio",
    "validator.tanto_rejection_rate": "ratio",
    "validator.greedy_rejection_rate": "ratio",
}
RUN_LEVEL = {"bench.error_rate": "ratio", "bench.reference_s": "s", "trace.overhead_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SETUP_SPANS + CALL_SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_cpu_s"] = "s"
    return {**units, **REPORTED, **COUNTS, **RUN_LEVEL}


def _import_workloads():
    """The benchmark's own modules, with vneap taken from ``src/``."""
    if not (SRC / "vneap" / "__init__.py").is_file():
        raise SystemExit(f"error: no vneap sources under {SRC}; run from a vneap checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import vneap

    if SRC.resolve() not in Path(vneap.__file__).resolve().parents:
        raise SystemExit(f"error: vneap was imported from {vneap.__file__}, not {SRC}")
    import workloads

    return workloads


def span_metrics(spans) -> dict[str, list[float]]:
    """Per span name: its summed wall and CPU self time under each root
    span (one set-up, one call of an operation or one check) that made
    the call."""
    from tracing import self_times

    selfs = self_times(spans)
    root: dict[int, int] = {}
    groups: dict[int, dict[str, list[float]]] = {}
    for s in spans:  # a parent is recorded before its children
        root[s.id] = s.id if s.parent is None else root[s.parent]
        acc = groups.setdefault(root[s.id], {}).setdefault(s.name, [0.0, 0.0])
        wall, cpu = selfs[s.id]
        acc[0] += wall
        acc[1] += cpu
    out = {}
    for name in SETUP_SPANS + CALL_SPANS:
        sums = [g[name] for g in groups.values() if name in g]
        out[f"{name}_s"] = [wall for wall, _ in sums]
        out[f"{name}_cpu_s"] = [cpu for _, cpu in sums]
    return out


def run_workload(w, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Set up, measure and check.  Returns the result object, the table
    rows (name, value, unit, samples) and the number of calls made."""
    import workloads
    from tracing import Tracer, write_spans

    tracer = Tracer(w.name, enabled=trace)
    ops = workloads.Operations(w, seed, tracer, out_dir)
    if trace:
        tracer.enabled = False
        baseline = workloads.Outcome()
        inst = ops.setup(0)
        for op in workloads.OPERATIONS:
            ops.call(op, baseline, inst)
        tracer.enabled = True
    o = workloads.Outcome()
    ops.measure(o, seconds)
    for p in o.problems:
        print(f"check failed: {w.name} {p}", file=sys.stderr)

    # metric -> samples; its value is their median.  End-to-end timings
    # are scaled to the reference speed; per-layer times stay wall seconds.
    samples = {f"{op}_s": o.scaled.get(op, []) for op in ("setup", *workloads.OPERATIONS)}
    samples["bench.reference_s"] = ops.reference_times
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    samples.update({name: [v] for name, v in o.counts.items() if name in COUNTS})
    samples.update({name: o.reported.get(name, []) for name in REPORTED})
    samples["bench.error_rate"] = [o.failed / o.attempted]
    if trace:
        samples.update(span_metrics(tracer.spans))
        samples["trace.overhead_s"] = [
            sum(
                o.times[op][0] - baseline.times[op][0]
                for op in workloads.OPERATIONS
                if o.times.get(op) and baseline.times.get(op)
            )
        ]
        write_spans(tracer.spans, OUT / f"trace-{w.name}-seed{seed}.json")
    values = {name: statistics.median(v) for name, v in samples.items() if v}

    units = per_layer_units() if trace else END_TO_END
    missing = [name for name in units if name not in values]
    if missing:
        raise SystemExit(f"error: no measurement of {', '.join(missing)}")
    shown = {**END_TO_END, **{k: COUNTS[k] for k in COUNTS if k.startswith("validator.")}}
    shown["bench.error_rate"] = "ratio"
    shown["bench.reference_s"] = "s"
    table = [
        (name, values[name], unit, len(samples[name]))
        for name, unit in (per_layer_units() if trace else shown).items()
        if name in values
    ]
    result = {
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, table, o.attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"out-{args.workload}-{args.seed}-{args.trace}"
    try:
        result, table, calls = run_workload(w, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {calls} calls")
    for name, value, unit, n in table:
        print(f"  {name:40s} {value:>16.6g} {unit:6s} n={n}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
