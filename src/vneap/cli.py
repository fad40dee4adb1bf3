"""Command-line interface: reproducible runs over substrate/application
JSON files, GraphML topologies, and scenario configs.

Exit codes, mapped from the error's type in one place (``_Main``), never
from its message; docs/FORMATS.md states the mapping in full: 0 success,
2 input error, 3 infeasible or unbounded solve or a compare without a
row, 4 iteration limit or solver failure.
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
from .model import check_instance

EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4


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


def _load_inputs(substrate: str, apps: str, requests_path=None, efficiency=None, psi=None):
    net = vio.load_substrate(substrate)
    catalog = _load_catalog(apps)
    reqs = None if requests_path is None else vio.load_requests(requests_path)
    eff = vio.load_efficiency(efficiency)
    check_instance(net, catalog, eff, reqs, psi)
    return net, catalog, reqs, eff


class _Main(click.Group):
    """Maps a command's failure to its exit code by the error's type, for
    every command: a SolverError by its status, any other ValueError
    (FormatError is one) to EXIT_INPUT.  Other errors propagate unmapped."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SolverError as exc:
            _fail(str(exc), _status_exit(exc.status))
        except ValueError as exc:
            _fail(str(exc), EXIT_INPUT)


@click.group(cls=_Main)
def main() -> None:
    """Virtual network embedding with alternative topologies."""
    _setup_logging()


@main.command()
@click.option("--graphml", required=True, type=click.Path(), help="Topology file to ingest.")
@click.option("--out", required=True, type=click.Path(), help="Substrate JSON to write.")
@click.option("--tier-ratios", default=TIER_RATIO, show_default=True, help="Cost/capacity ratio between tiers.")
def ingest(graphml: str, out: str, tier_ratios: float) -> None:
    """Classify a GraphML topology into tiers and assign costs/capacities."""
    g = ingest_graphml(graphml)
    tiers = classify_tiers(g)
    net = assign_costs_capacities(g, tiers, tier_ratios)
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
    net, catalog, reqs, _ = _load_inputs(substrate, apps, requests_path)
    scaled = calibrate_target_utilization(
        net, catalog, reqs, node_tu, link_tu, population=population
    )
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
    out = Path(out)
    sidecar = out.with_name(f"{out.stem}_timings.json")
    net, catalog, reqs, eff = _load_inputs(substrate, apps, requests_path, efficiency, psi)
    for path in (out, sidecar):
        vio.check_writable(path)  # a bad --out costs no solve
    if psi is None:
        psi = compute_rejection_penalty(net, catalog, eff)
    row, timing, embeddings = harness._run_algorithm(algo, net, catalog, eff, reqs, psi, seed)
    status = row.get("status", "ok")
    if status != "ok":
        raise SolverError(status, f"solver status: {status}")

    report = {"schema_version": vio.SCHEMA_VERSION, "psi": psi}
    report.update({k: v for k, v in sorted(row.items())})
    if embeddings is not None:
        report["embeddings"] = [_serialize_embedding(e) for e in embeddings]
    # wall-clock timings go beside the report, so the report stays byte-reproducible
    timings = {"schema_version": vio.SCHEMA_VERSION, **timing}
    vio.write_json(out, report)
    vio.write_json(sidecar, timings)
    click.echo(f"{algo}: total_cost={row.get('total_cost')!r} -> {out}")


@main.command()
@click.option("--scenario", required=True, type=click.Path(), help="Scenario config JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--jobs", default=1, type=click.IntRange(min=1), show_default=True,
              help="Worker processes for the repetitions; the rows do not depend on it.")
@click.option("--seed", default=None, type=int, help="Override the scenario seed.")
def compare(scenario, out_dir, jobs, seed):
    """Run a full scenario (all repetitions and algorithms)."""
    config = load_scenario(scenario, jobs=jobs, seed=seed)
    vio.make_dir(out_dir)  # a bad --out costs no repetition
    result = run_scenario(config)  # records each failure of a repetition
    paths = write_result(result, out_dir, config.apps)
    for err in result.errors:
        click.echo(
            f"repetition {err['repetition']} {err['algorithm']}: {err['type']}: {err['error']}",
            err=True,
        )
    click.echo(f"{len(result.rows)} rows -> {paths['rows']}")
    if not result.rows:
        sys.exit(EXIT_INFEASIBLE)


def _csv_rows(path: Path, lines: list[str]):
    """(line number, fields) of each row ``csv.reader`` reads from a rows
    file's ``lines``; a line it cannot parse (a field over its size
    limit, say) is an input error naming the file and the line."""
    reader = csv.reader(lines)
    try:
        for fields in reader:
            yield reader.line_num, fields
    except csv.Error as exc:
        raise FormatError(f"{path}, line {reader.line_num}: {exc}")


@main.command()
@click.option("--results", "results_dir", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def report(results_dir, out):
    """Aggregate result rows (mean/variance per algorithm and metric).

    Each row needs an algorithm name; the metrics summarized, where a row
    fills them, must be finite numbers.  Every other column is ignored."""
    rows = []
    paths = sorted(Path(results_dir).glob("*_rows.csv"))
    if not paths:
        raise FormatError(f"no *_rows.csv under {results_dir}")
    for path in paths:
        try:
            with open(path, newline="") as fh:
                lines = list(fh)  # as csv.reader reads the file
        except OSError as exc:
            raise FormatError(f"{path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}")
        rows_read = _csv_rows(path, lines)
        _, header = next(rows_read, (1, []))
        if "algorithm" not in header:
            raise FormatError(f"{path}, line 1: no 'algorithm' column")
        for line_num, fields in rows_read:
            if not fields:  # a blank line
                continue
            where = f"{path}, line {line_num}"
            if len(fields) != len(header):
                raise FormatError(f"{where}: {len(fields)} fields, but the header has {len(header)}")
            cells = dict(zip(header, fields))
            if not cells["algorithm"]:
                raise FormatError(f"{where}: 'algorithm': expected a name, not an empty field")
            row = {"algorithm": cells["algorithm"]}
            for metric in harness.SUMMARY_METRICS:
                value = cells.get(metric, "")
                if value == "":
                    continue
                try:
                    row[metric] = float(value)
                except ValueError:
                    row[metric] = math.nan
                if not math.isfinite(row[metric]):
                    raise FormatError(f"{where}: {metric!r}: expected a finite number, not {value}")
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
    "calibration_requests": None,  # the sample size older files set; not read
    "algorithms": vio.names,
    "repetitions": vio.integer,
    "seed": vio.integer,
    "psi": vio.number,
}
_GRAPHML_KEYS = {"graphml": vio.string, "tier_ratio": vio.number}


def load_scenario(path, jobs: int = 1, seed=None) -> ScenarioConfig:
    """Parse a scenario JSON file into a ScenarioConfig, which checks itself."""
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
    return ScenarioConfig(substrate=net, apps=apps, jobs=jobs, **fields)


if __name__ == "__main__":
    main()
