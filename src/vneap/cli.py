"""Command-line interface: reproducible runs over substrate/application
JSON files, GraphML topologies, and scenario configs.

Exit codes: 0 success, 2 input error, 3 infeasible or unbounded, 4
iteration limit or solver failure (from the solver status, not the
message).
Set VNEAP_LOG=debug|info|warning|error to control logging.  All
randomness derives from --seed through stable per-component labels.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import sys
from importlib import resources
from pathlib import Path

import click

from . import harness, io as vio
from .formulation import compute_rejection_penalty
from .harness import (
    TIER_RATIO,
    GenParams,
    ScenarioConfig,
    assign_costs_capacities,
    calibrate_target_utilization,
    classify_tiers,
    generate_requests,
    ingest_graphml,
    run_scenario,
    write_result,
)
from .io import FormatError
from .lp import INFEASIBLE, UNBOUNDED, SolverError
from .model import FORBIDDEN, validate_application, validate_requests, validate_substrate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

log = logging.getLogger("vneap.cli")


def _setup_logging() -> None:
    level = os.environ.get("VNEAP_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _status_exit(status: str) -> int:
    """Exit code of a solver status other than optimal."""
    return EXIT_INFEASIBLE if status in (INFEASIBLE, UNBOUNDED) else EXIT_LIMIT


def _load_catalog(spec: str, base: Path = Path()):
    """An application catalog: a JSON path relative to ``base``, or the
    name of a bundled catalog (cctv_two, cctv_four)."""
    p = base / spec
    if p.exists():
        return vio.load_applications(p)
    bundled = resources.files("vneap").joinpath(f"fixtures/{spec}.json")
    if bundled.is_file():
        return vio.load_applications(json.loads(bundled.read_text()))
    raise FormatError(f"no such application catalog: {spec}")


def _check_inputs(net, catalog, eff, reqs=None, psi=None) -> None:
    """Raise a FormatError naming the first broken invariants of the
    substrate, applications, efficiency map, requests and ψ (if given),
    or the first load or cost product of them that overflows."""
    if psi is not None and not 0 <= psi < math.inf:
        raise FormatError(f"psi must be a finite number >= 0, not {psi!r}")
    problems = validate_substrate(net)
    for app in catalog.values():
        problems += validate_application(app)
    problems += eff.violations()
    if reqs is not None:
        problems += validate_requests(reqs, net, catalog)
    if problems:
        raise FormatError("; ".join(str(v) for v in problems[:5]))
    overflow = _overflow(net, catalog, eff, reqs, psi)
    if overflow:
        raise FormatError(overflow)


def _overflow(net, catalog, eff, reqs=None, psi=None):
    """Why a load or cost formed from these finite inputs can overflow a
    float, naming the keys and values at fault, or None.

    Per unit demand a function costs at most its size times its
    coefficient times the cost of the costliest node it may use, and a
    virtual link the same on the costliest arc, once per hop of a path
    of up to n - 1 hops; an alternative costs at most the sum.  Loads are
    bounded alike without the costs (a path crosses an arc once).  Every
    load, cost and objective the algorithms form is at most the total
    demand times the largest load bound, or times twice the largest of
    the cost bounds and ψ (served plus rejected cost)."""
    hops = max(len(net.nodes) - 1, 1)
    worst_cost, worst_load = psi or 0.0, 0.0
    blame = f"psi {psi!r}"
    for app in catalog.values():
        for alt in app.alternatives:
            where = f"app {app.id!r} alternative {alt.index}"
            elements = [
                (f"function {vn.id!r}", vn.size, 1, [
                    (f"node {n.id}", eff.node(vn.id, n.id), n.cost) for n in net.nodes
                ])
                for vn in alt.nodes
            ] + [
                (f"link {vl.parent}->{vl.child}", vl.size, hops, [
                    (f"arc {a.src}->{a.dst}", eff.link((vl.parent, vl.child), (a.src, a.dst)), a.cost)
                    for a in net.arcs
                ])
                for vl in alt.links
            ]
            cost = load = top = 0.0
            for name, size, times, options in elements:
                most = most_load = 0.0
                for on, coeff, unit in options:
                    if coeff is FORBIDDEN:
                        continue
                    value = size * coeff * unit
                    if not math.isfinite(value) or value > top:
                        term = f"{name}: size {size!r} * coefficient {coeff!r} * cost {unit!r} of {on}"
                        if not math.isfinite(value):
                            return f"{where} {term} overflows"
                        top, largest = value, term
                    most = max(most, value)
                    most_load = max(most_load, size * coeff)
                cost += times * most
                load += most_load
            if not math.isfinite(cost):
                return f"{where}: its costliest embedding per unit demand overflows (largest term {largest})"
            if cost > worst_cost:
                worst_cost = cost
                blame = f"{cost!r}, the costliest embedding of {where} per unit demand (largest term {largest})"
            worst_load = max(worst_load, load)
    if reqs:
        total = sum(r.demand for r in reqs)
        k = max(range(len(reqs)), key=lambda i: reqs[i].demand)
        demand = f"requests: total demand {total!r} (request {k} has demand {reqs[k].demand!r})"
        if not math.isfinite(2.0 * total * worst_cost):
            return f"{demand} times {blame} overflows"
        if not math.isfinite(total * worst_load):
            return f"{demand} times {worst_load!r}, the largest load per unit demand, overflows"
    return None


def _load_inputs(substrate: str, apps: str, requests_path=None, efficiency=None, psi=None):
    net = vio.load_substrate(substrate)
    catalog = _load_catalog(apps)
    reqs = None if requests_path is None else vio.load_requests(requests_path)
    eff = vio.load_efficiency(efficiency)
    _check_inputs(net, catalog, eff, reqs, psi)
    return net, catalog, reqs, eff


@click.group()
def main() -> None:
    """Virtual network embedding with alternative topologies."""
    _setup_logging()


@main.command()
@click.option("--graphml", required=True, type=click.Path(), help="Topology file to ingest.")
@click.option("--out", required=True, type=click.Path(), help="Substrate JSON to write.")
@click.option("--tier-ratios", default=TIER_RATIO, show_default=True, help="Cost/capacity ratio between tiers.")
def ingest(graphml: str, out: str, tier_ratios: float) -> None:
    """Classify a GraphML topology into tiers and assign costs/capacities."""
    try:
        g = ingest_graphml(graphml)
        tiers = classify_tiers(g)
        net = assign_costs_capacities(g, tiers, tier_ratios)
    except ValueError as exc:  # FormatError is one
        _fail(str(exc), EXIT_INPUT)
    vio.write_json(out, vio.dump_substrate(net))
    click.echo(f"{len(net.nodes)} nodes, {len(net.arcs)} arcs -> {out}")


@main.command()
@click.option("--substrate", required=True, type=click.Path())
@click.option("--apps", required=True)
@click.option("--app", default=None, help="Application id (defaults to the only one).")
@click.option("--count", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--spatial", default=GenParams.spatial, show_default=True,
              type=click.Choice(harness.SPATIAL))
@click.option("--size-mean", default=GenParams.size_mean, show_default=True)
@click.option("--size-sigma", default=GenParams.size_sigma, show_default=True)
@click.option("--origin-cap/--no-origin-cap", default=GenParams.enforce_origin_cap, show_default=True,
              help="Cap per-origin demand by local capacity.")
@click.option("--out", required=True, type=click.Path())
def generate(substrate, apps, app, count, seed, spatial, size_mean, size_sigma, origin_cap, out):
    """Generate a request population over the substrate's edge nodes."""
    try:
        net, catalog, _, _ = _load_inputs(substrate, apps)
        app = app or sorted(catalog)[0]
        if app not in catalog:
            raise FormatError(f"unknown application {app!r}")
        params = GenParams(
            count=count,
            app=app,
            size_mean=size_mean,
            size_sigma=size_sigma,
            spatial=spatial,
            enforce_origin_cap=origin_cap,
        )
        requests = generate_requests(net, catalog, params, seed)
    except (FormatError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    vio.write_json(out, vio.dump_requests(requests))
    click.echo(f"{len(requests)} requests -> {out}")


@main.command()
@click.option("--substrate", required=True, type=click.Path())
@click.option("--apps", required=True)
@click.option("--requests", "requests_path", required=True, type=click.Path())
@click.option("--node-tu", required=True, type=float, help="Node target utilization (1.0 = 100%).")
@click.option("--link-tu", required=True, type=float, help="Link target utilization (1.0 = 100%).")
@click.option(
    "--population",
    default=None,
    type=int,
    help="Size capacities for a run of this many requests (the request "
    "file then acts as a sample of the demand distribution).",
)
@click.option("--out", required=True, type=click.Path())
def calibrate(substrate, apps, requests_path, node_tu, link_tu, population, out):
    """Scale substrate capacities to hit the target utilizations."""
    try:
        net, catalog, reqs, _ = _load_inputs(substrate, apps, requests_path)
        scaled = calibrate_target_utilization(
            net, catalog, reqs, node_tu, link_tu, population=population
        )
    except (FormatError, ValueError) as exc:
        _fail(str(exc), EXIT_INPUT)
    vio.write_json(out, vio.dump_substrate(scaled))
    click.echo(f"calibrated substrate -> {out}")


def _serialize_embedding(emb) -> dict:
    return {
        "origin": emb.request.origin,
        "app": emb.request.app,
        "demand": emb.request.demand,
        "alternative": emb.alternative,
        "nodes": dict(sorted(emb.node_map.items())),
        "links": {
            f"{i}->{j}": [list(arc) for arc in path]
            for (i, j), path in sorted(emb.link_map.items())
        },
    }


@main.command()
@click.option("--substrate", required=True, type=click.Path())
@click.option("--apps", required=True)
@click.option("--requests", "requests_path", required=True, type=click.Path())
@click.option("--algo", required=True, help="lp | milp | greedy | tanto | vnep:T")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--psi", default=None, type=float, help="Rejection penalty (default: derived).")
@click.option("--efficiency", default=None, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def solve(substrate, apps, requests_path, algo, seed, psi, efficiency, out):
    """Run one algorithm on one instance and write its report."""
    try:
        net, catalog, reqs, eff = _load_inputs(substrate, apps, requests_path, efficiency, psi)
        if psi is None:
            psi = compute_rejection_penalty(net, catalog, eff)
        row, timing, embeddings = harness._run_algorithm(algo, net, catalog, eff, reqs, psi, seed)
    except ValueError as exc:  # FormatError is one
        _fail(str(exc), EXIT_INPUT)
    except SolverError as exc:
        _fail(str(exc), _status_exit(exc.status))

    status = row.get("status", "ok")
    if status != "ok":
        _fail(f"solver status: {status}", _status_exit(status))

    report = {"schema_version": vio.SCHEMA_VERSION, "psi": psi}
    report.update({k: v for k, v in sorted(row.items())})
    if embeddings is not None:
        report["embeddings"] = [_serialize_embedding(e) for e in embeddings]
    vio.write_json(out, report)
    # wall-clock timings go beside the report, so the report stays byte-reproducible
    out = Path(out)
    timings = {"schema_version": vio.SCHEMA_VERSION, **timing}
    vio.write_json(out.with_name(f"{out.stem}_timings.json"), timings)
    click.echo(f"{algo}: total_cost={row.get('total_cost')!r} -> {out}")


@main.command()
@click.option("--scenario", required=True, type=click.Path(), help="Scenario config JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--jobs", default=1, type=click.IntRange(min=1), show_default=True,
              help="Worker processes for the repetitions; the rows do not depend on it.")
@click.option("--seed", default=None, type=int, help="Override the scenario seed.")
def compare(scenario, out_dir, jobs, seed):
    """Run a full scenario (all repetitions and algorithms)."""
    try:
        config = load_scenario(scenario, jobs=jobs, seed=seed)
    except ValueError as exc:  # FormatError is one
        _fail(str(exc), EXIT_INPUT)
    result = run_scenario(config)
    paths = write_result(result, out_dir, config.apps)
    for err in result.errors:
        click.echo(
            f"repetition {err['repetition']} {err['algorithm']}: {err['type']}: {err['error']}",
            err=True,
        )
    click.echo(f"{len(result.rows)} rows -> {paths['rows']}")
    if not result.rows:
        sys.exit(EXIT_INFEASIBLE)


@main.command()
@click.option("--results", "results_dir", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def report(results_dir, out):
    """Aggregate result rows (mean/variance per algorithm and metric)."""
    rows = []
    paths = sorted(Path(results_dir).glob("*_rows.csv"))
    if not paths:
        _fail(f"no *_rows.csv under {results_dir}", EXIT_INPUT)
    for path in paths:
        with open(path, newline="") as fh:
            for raw in csv.DictReader(fh):
                row = {}
                for key, value in raw.items():
                    if value is None or value == "":
                        continue
                    if value in ("true", "false"):
                        row[key] = value == "true"
                        continue
                    try:
                        number = float(value)
                    except ValueError:
                        row[key] = value
                        continue
                    if not math.isfinite(number):
                        _fail(f"{path}: {key!r}: expected a finite number, not {value}", EXIT_INPUT)
                    row[key] = number
                rows.append(row)
    summary = harness.summarize(rows)
    vio.write_json(out, {"schema_version": vio.SCHEMA_VERSION, "aggregates": summary})
    click.echo(f"{len(rows)} rows summarized -> {out}")


# Every key a scenario file may hold, with the reader of its value.  The
# substrate, a path or a graphml object, is read by load_scenario itself;
# a key left out or set to null takes ScenarioConfig's default.
_SCENARIO_KEYS = {
    "schema_version": vio.version,
    "name": vio.string,
    "substrate": None,
    "applications": vio.string,
    "efficiency": vio.string,
    "requests": vio.integer,
    "node_tu": vio.number,
    "link_tu": vio.number,
    "app": vio.string,
    "size_mean": vio.number,
    "size_sigma": vio.number,
    "spatial": vio.string,
    "lognormal_mu": vio.number,
    "lognormal_sigma": vio.number,
    "calibration_requests": vio.integer,
    "algorithms": vio.names,
    "repetitions": vio.integer,
    "seed": vio.integer,
    "psi": vio.number,
}
_GRAPHML_KEYS = {"graphml": vio.string, "tier_ratio": vio.number}


def load_scenario(path, jobs: int = 1, seed=None) -> ScenarioConfig:
    """Build a ScenarioConfig from a scenario JSON file, checked as solve's inputs are."""
    doc = vio._load(path)
    fields = vio.fields(doc, _SCENARIO_KEYS, str(path), ("schema_version", "applications", "requests"))
    base = Path(path).parent  # an absolute path joined to it stays as it is
    if isinstance(doc.get("substrate"), dict):
        graphml = vio.fields(doc["substrate"], _GRAPHML_KEYS, f"{path}: substrate", ("graphml",))
        g = ingest_graphml(base / graphml.pop("graphml"))
        net = assign_costs_capacities(g, classify_tiers(g), **graphml)
    else:
        net = vio.load_substrate(base / vio.field(doc, "substrate", vio.string, str(path)))
    if "efficiency" in fields:
        fields["efficiency"] = vio.load_efficiency(base / fields["efficiency"])
    if seed is not None:
        fields["seed"] = seed
    fields.setdefault("name", Path(path).stem)
    apps = _load_catalog(fields.pop("applications"), base)
    config = ScenarioConfig(substrate=net, apps=apps, jobs=jobs, **fields)
    _check_inputs(net, apps, config.efficiency, psi=config.psi)
    return config


if __name__ == "__main__":
    main()
