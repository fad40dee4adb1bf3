"""Command-line interface: exit codes, file outputs, and reproducibility
of every subcommand."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import vneap.cli
import vneap.formulation
import vneap.harness
import vneap.io as vio
from vneap.cli import load_scenario, main
from vneap.formulation import solve_relaxation
from vneap.lp import Solution, SolverError
from vneap.harness import ScenarioConfig, measured_utilization
from vneap.model import EfficiencyMap, IntegralEmbedding

from conftest import arnes_overloaded_instance, toy_apps, toy_net, unit_requests

GOLDEN = Path(__file__).parent / "golden"
FORMATS = Path(__file__).parent.parent / "docs" / "FORMATS.md"
ARNES = Path(str(resources.files("vneap").joinpath("fixtures/topologies/arnes_si.graphml")))
SRC = Path(vneap.cli.__file__).parents[1]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_files(tmp_path):
    """Toy substrate with abundant capacity plus three unit requests,
    using the bundled two-alternative catalog (app id 'cctv')."""
    sub = tmp_path / "substrate.json"
    vio.write_json(sub, vio.dump_substrate(toy_net()))
    reqs = tmp_path / "requests.json"
    vio.write_json(reqs, vio.dump_requests(unit_requests(3, app="cctv")))
    return {"substrate": sub, "requests": reqs, "dir": tmp_path}


def solve_args(files, algo, out, **extra):
    args = ["solve", "--substrate", str(files["substrate"]), "--apps", "cctv_two",
            "--requests", str(files["requests"]), "--algo", algo, "--out", str(out)]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


# ------------------------------------------------------------------ ingest


def test_ingest_writes_substrate(runner, tmp_path):
    out = tmp_path / "arnes.json"
    result = runner.invoke(main, ["ingest", "--graphml", str(ARNES), "--out", str(out)])
    assert result.exit_code == 0
    assert "34 nodes, 92 arcs" in result.output
    net = vio.load_substrate(out)
    assert len(net.nodes) == 34 and len(net.arcs) == 92
    assert {n.tier for n in net.nodes} == {"edge", "transport", "core"}


def test_ingest_missing_file_is_input_error(runner, tmp_path):
    result = runner.invoke(
        main, ["ingest", "--graphml", "/nonexistent.graphml", "--out", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 2
    assert "error:" in result.output and "no such file" in result.output


def test_ingest_malformed_xml_is_input_error(runner, tmp_path):
    bad = tmp_path / "bad.graphml"
    bad.write_text("<graphml>")
    result = runner.invoke(main, ["ingest", "--graphml", str(bad), "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "no element found" in result.output


@pytest.mark.parametrize("ratio", ["0", "-1", "nan", "inf"])
def test_ingest_rejects_a_tier_ratio_that_is_not_finite_and_positive(runner, tmp_path, ratio):
    args = ["ingest", "--graphml", str(ARNES), "--tier-ratios", ratio, "--out", str(tmp_path / "x.json")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "tier ratio must be a finite positive number" in result.output
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------- generate


@pytest.fixture
def arnes_substrate(runner, tmp_path):
    out = tmp_path / "arnes.json"
    assert runner.invoke(main, ["ingest", "--graphml", str(ARNES), "--out", str(out)]).exit_code == 0
    return out


def test_generate_writes_requests(runner, tmp_path, arnes_substrate):
    out = tmp_path / "reqs.json"
    result = runner.invoke(main, [
        "generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--count", "25", "--seed", "5", "--no-origin-cap", "--out", str(out),
    ])
    assert result.exit_code == 0
    assert "25 requests" in result.output
    requests = vio.load_requests(out)
    assert len(requests) == 25
    net = vio.load_substrate(arnes_substrate)
    edge_ids = {n.id for n in net.nodes if n.tier == "edge"}
    assert {r.origin for r in requests} <= edge_ids
    assert all(r.app == "cctv" for r in requests)


def test_generate_same_seed_same_bytes(runner, tmp_path, arnes_substrate):
    def gen(name, seed):
        out = tmp_path / name
        args = ["generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
                "--count", "10", "--seed", str(seed), "--no-origin-cap", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        return out.read_bytes()

    assert gen("a.json", 5) == gen("b.json", 5)
    assert gen("a.json", 5) != gen("c.json", 6)


def test_generate_matches_golden_requests(runner, tmp_path):
    """40 cctv requests on the tiny substrate with the origin cap on are,
    byte for byte, the file an earlier implementation wrote."""
    out = tmp_path / "requests.json"
    result = runner.invoke(main, [
        "generate", "--substrate", str(GOLDEN / "tiny_substrate.json"), "--apps", "cctv_two",
        "--count", "40", "--seed", "1", "--origin-cap", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / "tiny_requests.json").read_bytes()


def test_generate_unknown_app_is_input_error(runner, tmp_path, arnes_substrate):
    result = runner.invoke(main, [
        "generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--app", "nope", "--count", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert result.exit_code == 2
    assert "unknown application" in result.output


def test_generate_origin_cap_is_best_effort(runner, tmp_path, arnes_substrate):
    # uncalibrated edge nodes (capacity 1.0) cannot host any default-size
    # request, so the capped generator produces an empty population
    out = tmp_path / "reqs.json"
    result = runner.invoke(main, [
        "generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--count", "10", "--origin-cap", "--out", str(out),
    ])
    assert result.exit_code == 0
    assert "0 requests" in result.output
    assert vio.load_requests(out) == []


@pytest.mark.parametrize(
    "flag, value", [("--size-mean", "inf"), ("--size-mean", "nan"), ("--size-sigma", "0"),
                    ("--size-sigma", "-1"), ("--size-sigma", "inf")],
)
def test_generate_refuses_a_size_distribution_without_finite_sizes(
    runner, tmp_path, arnes_substrate, flag, value
):
    """Such sizes would be written as demands no loader reads back
    (Infinity, NaN) or, for sigma <= 0, are refused as a scenario's are."""
    out = tmp_path / "reqs.json"
    result = runner.invoke(main, [
        "generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--count", "5", "--no-origin-cap", flag, value, "--out", str(out),
    ])
    assert result.exit_code == 2
    assert "size mean and sigma must be finite and sigma positive" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("generate", "--count", "0"), ("generate", "--count", "-5"),
     ("compare", "--jobs", "0"), ("compare", "--jobs", "-3")],
)
def test_counts_below_one_are_input_errors(runner, tmp_path, arnes_substrate, command, flag, value):
    """An empty request file or a run on no workers is refused before
    anything is written."""
    out = tmp_path / "out"
    if command == "generate":
        args = ["generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
                "--no-origin-cap", "--out", str(out)]
    else:
        args = ["compare", "--scenario", str(write_scenario(tmp_path / "scenario.json")),
                "--out", str(out)]
    result = runner.invoke(main, args + [flag, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{flag}': {value} is not in the range x>=1" in result.output
    assert not out.exists()


# --------------------------------------------------------------- calibrate


def test_calibrate_hits_targets(runner, tmp_path, arnes_substrate):
    reqs = tmp_path / "reqs.json"
    assert runner.invoke(main, [
        "generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--count", "50", "--seed", "2", "--no-origin-cap", "--out", str(reqs),
    ]).exit_code == 0
    out = tmp_path / "calibrated.json"
    result = runner.invoke(main, [
        "calibrate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--requests", str(reqs), "--node-tu", "1.0", "--link-tu", "1.0", "--out", str(out),
    ])
    assert result.exit_code == 0
    catalog = vio.load_applications(
        json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    )
    node_tu, link_tu = measured_utilization(
        vio.load_substrate(out), catalog, vio.load_requests(reqs)
    )
    assert node_tu == pytest.approx(1.0, rel=1e-9)
    assert link_tu == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("flag", ["--node-tu", "--link-tu"])
def test_calibrate_refuses_targets_without_a_finite_scale(runner, tmp_path, arnes_substrate, flag):
    """NaN and infinite target utilizations, and one so small that the
    capacity scale overflows, are input errors: exit 2, nothing written."""
    reqs = tmp_path / "reqs.json"
    assert runner.invoke(main, [
        "generate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--count", "20", "--seed", "2", "--no-origin-cap", "--out", str(reqs),
    ]).exit_code == 0
    for value, named in (
        ("nan", "must be positive and finite"),
        ("inf", "must be positive and finite"),
        ("1e-320", "not a finite positive factor"),
    ):
        out = tmp_path / f"calibrated-{value}.json"
        targets = {"--node-tu": "1.0", "--link-tu": "1.0", flag: value}
        result = runner.invoke(main, [
            "calibrate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
            "--requests", str(reqs), *(x for pair in targets.items() for x in pair),
            "--out", str(out),
        ])
        assert result.exit_code == 2, (value, result.output)
        assert named in result.output
        assert not out.exists()


def test_calibrate_missing_requests_is_input_error(runner, tmp_path, arnes_substrate):
    result = runner.invoke(main, [
        "calibrate", "--substrate", str(arnes_substrate), "--apps", "cctv_two",
        "--requests", str(tmp_path / "missing.json"),
        "--node-tu", "1.0", "--link-tu", "1.0", "--out", str(tmp_path / "x.json"),
    ])
    assert result.exit_code == 2


# ------------------------------------------------------------------- solve


def test_solve_lp_toy_instance(runner, toy_files):
    out = toy_files["dir"] / "lp.json"
    result = runner.invoke(main, solve_args(toy_files, "lp", out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["status"] == "ok"
    assert report["psi"] == 1050.0  # most expensive per-unit best embedding
    assert report["total_cost"] == pytest.approx(3 * 205.0, rel=1e-9)
    assert report["share_0"] == pytest.approx(1.0, abs=1e-9)
    assert "embeddings" not in report  # fractional result has no placements


def test_solve_greedy_reports_embeddings(runner, toy_files):
    out = toy_files["dir"] / "greedy.json"
    result = runner.invoke(main, solve_args(toy_files, "greedy", out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["total_cost"] == pytest.approx(3 * 205.0, rel=1e-9)
    assert len(report["embeddings"]) == 3
    placement = report["embeddings"][0]
    assert placement["nodes"] == {"theta": "E", "ingest": "C", "analytics": "C"}
    assert placement["links"] == {"theta->ingest": [["E", "C"]], "ingest->analytics": []}
    assert placement["alternative"] == 0


def test_non_positive_efficiency_coefficient_is_input_error(runner, toy_files):
    """A negative coefficient would make placements pay the solver: the
    map is checked on load by solve and by a scenario alike."""
    folder = toy_files["dir"]
    vio.write_json(folder / "eff.json", {
        "schema_version": 1, "nodes": [{"function": "ingest", "node": "C", "coeff": -5}],
    })
    out = folder / "x.json"
    solved = runner.invoke(main, solve_args(toy_files, "greedy", out, efficiency=folder / "eff.json"))
    scenario = write_scenario(folder / "s.json", efficiency="eff.json")
    compared = runner.invoke(main, ["compare", "--scenario", str(scenario), "--out", str(folder / "out")])
    for result in (solved, compared):
        assert result.exit_code == 2
        assert "NonPositiveCoefficient: node ('ingest', 'C') (value -5.0)" in result.output
    assert not out.exists()


def test_solve_single_alternative_restriction(runner, toy_files):
    out = toy_files["dir"] / "vnep.json"
    result = runner.invoke(main, solve_args(toy_files, "vnep:1", out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["share_1"] == pytest.approx(1.0, abs=1e-9)
    assert report["share_0"] == 0.0

    missing = runner.invoke(main, solve_args(toy_files, "vnep:7", toy_files["dir"] / "x.json"))
    assert missing.exit_code == 2
    assert "no alternative with index 7" in missing.output


def test_solve_single_alternative_needs_it_in_every_application(runner, toy_files):
    """vnep:T keeps alternative T of every application, so an application
    without T is an input error even when another application has it."""
    doc = json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    first = doc["applications"][0]["alternatives"][0]
    doc["applications"].append({"id": "single", "alternatives": [first]})
    apps = toy_files["dir"] / "mixed.json"
    vio.write_json(apps, doc)
    args = solve_args(toy_files, "vnep:1", toy_files["dir"] / "x.json")
    args[args.index("cctv_two")] = str(apps)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "no alternative with index 1 in single" in result.output


@pytest.mark.parametrize("algo", ["greedy", "tanto"])
@pytest.mark.parametrize(
    "key, file, path",
    [
        ("demand", "requests", ("requests", 0, "demand")),
        ("cost", "substrate", ("nodes", 1, "cost")),
        ("size", "apps", ("applications", 0, "alternatives", 0, "nodes", 2, "size")),
    ],
)
def test_overflowing_inputs_are_input_errors(runner, toy_files, algo, key, file, path):
    """Finite inputs whose load or cost products overflow a float (a
    demand, a node cost or a function size of 1e308) exit 2 and name the
    value at fault, with no traceback, before any algorithm runs."""
    folder = toy_files["dir"]
    if file == "apps":
        doc = json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    else:
        doc = json.loads(toy_files[file].read_text())
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = 1e308
    written = folder / f"{file}_1e308.json"
    vio.write_json(written, doc)
    out = folder / "x.json"
    args = solve_args(toy_files, algo, out)
    args[args.index(f"--{file}") + 1] = str(written)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"{key} 1e+308" in result.output and "overflows" in result.output
    assert not out.exists()


def test_solve_unknown_algorithm(runner, toy_files):
    result = runner.invoke(main, solve_args(toy_files, "annealing", toy_files["dir"] / "x.json"))
    assert result.exit_code == 2
    assert "unknown algorithm" in result.output


def test_solve_tanto_seed_reproducible(runner, toy_files):
    def run(name):
        out = toy_files["dir"] / name
        assert runner.invoke(main, solve_args(toy_files, "tanto", out, seed=9)).exit_code == 0
        return out.read_bytes()

    first, again = run("t1.json"), run("t2.json")
    assert first == again
    report = json.loads(first)
    assert report["rejection_bound_ok"] is True
    assert report["rounding_rejections"] == 0


@pytest.mark.parametrize("algo", ["lp", "greedy", "tanto", "milp"])
def test_solve_writes_a_timings_sidecar(runner, toy_files, algo):
    """Timings go to <out stem>_timings.json beside the report: the wall
    seconds of the run and of its validation (also in CPU seconds), plus
    the relaxation's and the rounding's share (the rounding's also in CPU
    seconds), the relaxation's four stages in wall and in CPU seconds,
    HiGHS's iteration counts (the final master's and all masters'), the
    master's size and its pricing rounds where the algorithm has them,
    and greedy's chain search and reuse counts."""
    single = toy_files["dir"] / "one_request.json"
    vio.write_json(single, vio.dump_requests(unit_requests(1, app="cctv")))
    out = toy_files["dir"] / f"{algo}.json"
    assert runner.invoke(main, solve_args(dict(toy_files, requests=single), algo, out)).exit_code == 0
    sidecar = json.loads((toy_files["dir"] / f"{algo}_timings.json").read_text())
    stages = {"aggregate_s", "build_s", "solve_s", "unpack_s"}
    cpu_stages = {"aggregate_cpu_s", "build_cpu_s", "solve_cpu_s", "unpack_cpu_s"}
    counts = {"lp_iterations", "lp_columns", "lp_pricing_rounds", "lp_rows", "lp_nnz"}
    relaxation = {*counts, "lp_total_iterations", *stages, *cpu_stages}
    expected = {
        "lp": {"runtime_s", *relaxation},
        "greedy": {"runtime_s", "chain_searches", "chain_reuses"},
        "tanto": {
            "runtime_s", "lp_runtime_s", "rounding_runtime_s", "rounding_cpu_s", "replayed_walks",
            *relaxation,
        },
        "milp": {"runtime_s"},
    }[algo] | {"validate_s", "validate_cpu_s"}
    assert sidecar.pop("schema_version") == 1 and sidecar.pop("algorithm") == algo
    assert set(sidecar) == expected
    assert all(math.isfinite(v) and v >= 0 for v in sidecar.values())
    if algo in ("lp", "tanto"):
        relaxation_s = sidecar["lp_runtime_s" if algo == "tanto" else "runtime_s"]
        assert sum(sidecar[k] for k in sorted(stages)) <= relaxation_s
        assert all(sidecar[k] > 0 for k in counts)
        # the final master's solve is one of the solves summed
        assert sidecar["lp_total_iterations"] >= sidecar["lp_iterations"]
        # one row per aggregate, then one per substrate node and arc
        assert sidecar["lp_rows"] == 1 + len(toy_net().nodes) + len(toy_net().arcs)
    if algo == "tanto":
        # one request walks; a route it keeps has no later request to replay it
        assert sidecar["replayed_walks"] == 0
    if algo == "greedy":
        # one request, two alternatives of one chain each: both searched
        assert (sidecar["chain_searches"], sidecar["chain_reuses"]) == (2, 0)
    report = json.loads(out.read_text())
    assert "runtime_s" not in report and "chain_searches" not in report


@pytest.mark.parametrize("key, value", [("directd", True), ("teir", "edge")])
def test_solve_refuses_a_misspelled_substrate_key(runner, toy_files, key, value):
    doc = json.loads(toy_files["substrate"].read_text())
    doc["links" if key == "directd" else "nodes"][0][key] = value
    vio.write_json(toy_files["substrate"], doc)
    result = runner.invoke(main, solve_args(toy_files, "greedy", toy_files["dir"] / "x.json"))
    assert result.exit_code == 2
    assert f"unknown key(s) '{key}'" in result.output


def test_solve_milp_small_instance(runner, toy_files):
    single = toy_files["dir"] / "one_request.json"
    vio.write_json(single, vio.dump_requests(unit_requests(1, app="cctv")))
    files = dict(toy_files, requests=single)
    out = toy_files["dir"] / "milp.json"
    result = runner.invoke(main, solve_args(files, "milp", out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["total_cost"] == pytest.approx(205.0, rel=1e-9)
    assert "embeddings" not in report  # milp reports the costs of its variables only


def test_solve_milp_refuses_oversized_search(runner, toy_files):
    # ten requests instantiate 220 binaries, above the exact solver's cap of 200
    ten = toy_files["dir"] / "ten_requests.json"
    vio.write_json(ten, vio.dump_requests(unit_requests(10, app="cctv")))
    files = dict(toy_files, requests=ten)
    result = runner.invoke(main, solve_args(files, "milp", toy_files["dir"] / "x.json"))
    assert result.exit_code == 2
    assert "exact search refused" in result.output


@pytest.mark.parametrize(
    "algo, embed", [("tanto", "round_relaxation"), ("greedy", "greedy_embed_all")]
)
def test_solve_writes_the_same_bytes_from_shared_and_private_maps(
    runner, tmp_path, monkeypatch, algo, embed
):
    """On the overloaded arnes_si run (seed 5), ``solve`` writes the same
    report bytes whether the embeddings share their read-only maps, as the
    embedders hand them out, or each holds private dict copies, so that
    the validator checks and loads every request on its own."""
    net, _, eff, requests, _ = arnes_overloaded_instance()
    files = {"substrate": tmp_path / "substrate.json", "requests": tmp_path / "requests.json"}
    vio.write_json(files["substrate"], vio.dump_substrate(net))
    vio.write_json(files["requests"], vio.dump_requests(requests))
    vio.write_json(tmp_path / "efficiency.json", vio.dump_efficiency(eff))

    def written(name):
        out = tmp_path / f"{name}.json"
        args = solve_args(files, algo, out, seed=5, efficiency=tmp_path / "efficiency.json")
        assert runner.invoke(main, args).exit_code == 0
        return out.read_bytes()

    shared = written("shared")
    real = getattr(vneap.harness, embed)

    def private(*args, **kwargs):
        embeddings, report = real(*args, **kwargs)
        copies = [
            IntegralEmbedding(e.request, e.alternative, dict(e.node_map), dict(e.link_map))
            for e in embeddings
        ]
        return copies, report

    monkeypatch.setattr(vneap.harness, embed, private)
    assert written("private") == shared
    assert b'"embeddings"' in shared and b'"rejection_rate"' in shared


@pytest.mark.parametrize(
    "status, code", [("unbounded", 3), ("infeasible", 3), ("iteration_limit", 4)]
)
def test_solve_maps_a_failed_relaxation_by_its_status(runner, toy_files, monkeypatch, status, code):
    """tanto's relaxation ends with ``status``; the exit code follows the
    status the error carries ("unbounded" is nowhere in the message's
    wording of infeasibility, yet exits 3)."""
    monkeypatch.setattr(vneap.formulation, "solve_lp", lambda lp: Solution(status, None, None))
    result = runner.invoke(main, solve_args(toy_files, "tanto", toy_files["dir"] / "x.json"))
    assert result.exit_code == code
    assert f"did not solve: {status}" in result.output


def test_solve_does_not_read_exit_codes_from_messages(runner, toy_files, monkeypatch):
    """An error that is not a solver status is not mapped to exit 3 for
    saying "infeasible": it propagates as the defect it is."""

    def broken(*args, **kwargs):
        raise RuntimeError("greedy produced an infeasible embedding set")

    monkeypatch.setattr(vneap.harness, "greedy_embed_all", broken)
    result = runner.invoke(main, solve_args(toy_files, "greedy", toy_files["dir"] / "x.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, RuntimeError)


def test_solve_psi_override(runner, toy_files):
    out = toy_files["dir"] / "psi.json"
    result = runner.invoke(main, solve_args(toy_files, "lp", out, psi=123.5))
    assert result.exit_code == 0
    assert json.loads(out.read_text())["psi"] == 123.5


@pytest.mark.parametrize("algo", ["greedy", "lp"])
@pytest.mark.parametrize("psi", ["nan", "inf", "-5"])
def test_solve_refuses_a_psi_that_is_not_finite_and_nonnegative(runner, toy_files, algo, psi):
    out = toy_files["dir"] / "x.json"
    result = runner.invoke(main, solve_args(toy_files, algo, out, psi=psi))
    assert result.exit_code == 2
    assert "psi must be a finite number >= 0" in result.output
    assert not out.exists()


def test_solve_catalog_node_without_size_is_input_error(runner, toy_files):
    doc = json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    del doc["applications"][0]["alternatives"][0]["nodes"][1]["size"]
    apps = toy_files["dir"] / "sizeless.json"
    vio.write_json(apps, doc)
    args = solve_args(toy_files, "greedy", toy_files["dir"] / "x.json")
    args[args.index("cctv_two")] = str(apps)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "missing required field 'size'" in result.output


# ----------------------------------------------------------------- compare


@pytest.mark.parametrize("jobs", [1, 3])
def test_compare_matches_golden_rows(runner, tmp_path, jobs):
    result = runner.invoke(main, [
        "compare", "--scenario", str(GOLDEN / "tiny_scenario.json"),
        "--out", str(tmp_path), "--jobs", str(jobs),
    ])
    assert result.exit_code == 0
    assert "6 rows" in result.output
    produced = (tmp_path / "tiny_rows.csv").read_text()
    assert produced == (GOLDEN / "tiny_scenario_rows.csv").read_text()
    assert (tmp_path / "tiny_summary.json").exists()
    with open(tmp_path / "tiny_timings.csv", newline="") as fh:
        timings = list(csv.DictReader(fh))
    assert [t["algorithm"] for t in timings] == ["lp", "greedy", "tanto"] * 2
    for lp, greedy, tanto in zip(timings[::3], timings[1::3], timings[2::3]):
        # tanto rounds the relaxation its repetition's lp row solved
        assert int(lp["lp_iterations"]) > 0 and int(lp["lp_columns"]) > 0
        counts = ("lp_iterations", "lp_columns", "lp_pricing_rounds")
        assert [tanto[k] for k in counts] == [lp[k] for k in counts]
        assert [greedy[k] for k in counts] == [""] * 3
        stages = ("aggregate_s", "build_s", "solve_s", "unpack_s")
        assert [tanto[k] for k in stages] == [lp[k] for k in stages]
        assert sum(float(lp[k]) for k in stages) <= float(lp["runtime_s"])
        assert sum(float(tanto[k]) for k in stages) <= float(tanto["lp_runtime_s"])
        assert [greedy[k] for k in stages] == [""] * 4
        # the same stages in CPU seconds, on the relaxation's rows only
        cpu_stages = ("aggregate_cpu_s", "build_cpu_s", "solve_cpu_s", "unpack_cpu_s")
        assert [tanto[k] for k in cpu_stages] == [lp[k] for k in cpu_stages]
        assert all(float(lp[k]) >= 0 for k in cpu_stages)
        assert [greedy[k] for k in cpu_stages] == [""] * 4
        # greedy's chain counts: every chain call is a search or a reuse
        assert int(greedy["chain_searches"]) > 0 and int(greedy["chain_reuses"]) >= 0
        assert [lp["chain_searches"], tanto["chain_reuses"]] == ["", ""]
        # rounding's CPU seconds, beside its wall seconds, on tanto rows only
        assert float(tanto["rounding_cpu_s"]) >= 0
        assert [lp["rounding_cpu_s"], greedy["rounding_cpu_s"]] == ["", ""]
        # the walks rounded by replaying a kept route, on tanto rows only
        assert int(tanto["replayed_walks"]) >= 0
        assert [lp["replayed_walks"], greedy["replayed_walks"]] == ["", ""]
        # the master's size and all its solves' iterations, on the relaxation's rows only
        sizes = ("lp_rows", "lp_nnz", "lp_total_iterations")
        assert [tanto[k] for k in sizes] == [lp[k] for k in sizes]
        assert int(lp["lp_total_iterations"]) >= int(lp["lp_iterations"])
        assert int(lp["lp_nnz"]) >= int(lp["lp_columns"]) and int(lp["lp_rows"]) > 0
        assert [greedy[k] for k in sizes] == [""] * 3
        # every row times its validation, in wall and in CPU seconds
        for row in (lp, greedy, tanto):
            assert float(row["validate_s"]) >= 0 and float(row["validate_cpu_s"]) >= 0


def test_compare_seed_override_changes_rows(runner, tmp_path):
    result = runner.invoke(main, [
        "compare", "--scenario", str(GOLDEN / "tiny_scenario.json"),
        "--out", str(tmp_path), "--seed", "8",
    ])
    assert result.exit_code == 0
    produced = (tmp_path / "tiny_rows.csv").read_text()
    assert produced != (GOLDEN / "tiny_scenario_rows.csv").read_text()


def test_compare_ignores_calibration_requests(runner, tmp_path):
    """``calibration_requests``, the calibration sample size that older
    scenario files set, is accepted with any value and changes no row:
    the golden scenario writes the golden rows without the key, with a
    negative count and with a string."""
    doc = json.loads((GOLDEN / "tiny_scenario.json").read_text())
    doc["substrate"] = str(GOLDEN / "tiny_substrate.json")
    del doc["calibration_requests"]
    produced = []
    for i, extra in enumerate(({}, {"calibration_requests": -4}, {"calibration_requests": "many"})):
        path = tmp_path / str(i) / "tiny.json"
        path.parent.mkdir()
        path.write_text(json.dumps({**doc, **extra}))
        result = runner.invoke(main, ["compare", "--scenario", str(path), "--out", str(path.parent / "out")])
        assert result.exit_code == 0, result.output
        produced.append((path.parent / "out" / "tiny_rows.csv").read_text())
    assert produced == [(GOLDEN / "tiny_scenario_rows.csv").read_text()] * 3


def test_compare_without_any_rows_is_infeasible(runner, tmp_path, monkeypatch):
    def crash(*args):
        raise RuntimeError("greedy crashed")

    monkeypatch.setattr(vneap.harness, "greedy_embed_all", crash)
    scenario = {
        "schema_version": 1,
        "name": "doomed",
        "substrate": str(GOLDEN / "tiny_substrate.json"),
        "applications": "cctv_two",
        "requests": 5,
        "size_mean": 1.0,
        "size_sigma": 0.2,
        "calibration_requests": 50,
        "algorithms": ["greedy"],
        "repetitions": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    result = runner.invoke(main, ["compare", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "repetition 0 greedy: RuntimeError: greedy crashed" in result.output


def test_compare_rejects_unknown_schema(runner, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema_version": 99}))
    result = runner.invoke(main, ["compare", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "unsupported schema_version" in result.output


def write_scenario(path: Path, **keys) -> Path:
    """A scenario file holding the four required keys, plus ``keys``."""
    doc = {
        "schema_version": 1,
        "substrate": str(GOLDEN / "tiny_substrate.json"),
        "applications": "cctv_two",
        "requests": 5,
    }
    doc.update(keys)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "keys, named",
    [
        ({"repetiton": 5}, "unknown key(s) 'repetiton'"),
        ({"substrate": {"graphml": str(ARNES), "tier_ratios": 2.0}}, "unknown key(s) 'tier_ratios'"),
        ({"requests": None}, "missing required field 'requests'"),
        ({"repetitions": "many"}, "'repetitions'"),
        ({"substrate": 5}, "'substrate': expected a string"),
        ({"applications": ["cctv_two"]}, "'applications': expected a string"),
        ({"efficiency": {"default": 1.0}}, "'efficiency': expected a string"),
        ({"substrate": {"graphml": 5}}, "'graphml': expected a string"),
        ({"algorithms": "lp"}, "'algorithms': expected a list of names"),
        ({"substrate": {"graphml": str(ARNES), "tier_ratio": 0}}, "tier ratio must be a finite positive number"),
        ([{"schema_version": 1}], "expected a JSON object, not list"),
        ({"name": {"a": 1}}, "'name': expected a string, not dict"),
        ({"seed": 7.9}, "'seed': expected an integer, not 7.9"),
        ({"requests": 5.7}, "'requests': expected an integer, not 5.7"),
        ({"repetitions": True}, "'repetitions': expected an integer, not True"),
        ({"node_tu": "0.8"}, "'node_tu': expected a number, not '0.8'"),
        ({"psi": True}, "'psi': expected a number, not True"),
        ({"size_mean": math.nan}, "'size_mean': expected a finite number, not nan"),
        ({"lognormal_sigma": math.inf}, "'lognormal_sigma': expected a finite number, not inf"),
        ({"link_tu": 10**400}, "'link_tu': int too large to convert to float"),
        ({"substrate": {"graphml": str(ARNES), "tier_ratio": "2"}}, "'tier_ratio': expected a number, not '2'"),
        ({"psi": -5}, "psi must be a finite number >= 0, not -5.0"),
        ({"requests": 0}, "requests must be >= 1, not 0"),
        ({"link_tu": 0}, "link_tu must be positive, not 0.0"),
        ({"spatial": "gaussian"}, "spatial must be one of uniform, lognormal, not 'gaussian'"),
        ({"app": "nope"}, "app 'nope' is not in the catalog"),
        ({"algorithms": []}, "algorithms must name at least one algorithm"),
        ({"applications": "empty.json"}, "applications: the catalog holds no application"),
        ({"algorithms": ["greedy", "bogus"]}, "algorithms: unknown algorithm 'bogus'"),
        ({"algorithms": ["vnep:x"]}, "algorithms: unknown algorithm 'vnep:x'"),
        ({"algorithms": ["lp", "vnep:9"]}, "algorithms: algorithm 'vnep:9': no alternative with index 9"),
        ({"algorithms": ["lp", "lp", "greedy"]}, "algorithms: 'lp' is listed more than once"),
        ({"spatial": "lognormal", "lognormal_sigma": 1e-300}, "lognormal_sigma=1e-300) gives no valid origin weights"),
        ({"spatial": "lognormal", "lognormal_mu": 800}, "lognormal_mu=800.0, lognormal_sigma=1.0) gives no valid"),
        ({"substrate": "core_only.json"}, "substrate has no edge-tier nodes"),
        ({"substrate": "no_links.json"}, "substrate has no node or no arc capacity to scale"),
        ({"node_tu": 1e-320}, "node capacity scale inf is not a finite positive factor"),
        ({"link_tu": 1e-320}, "arc capacity scale inf is not a finite positive factor"),
        ({"applications": "huge_link.json"}, "arc capacity scale inf is not a finite positive factor"),
    ],
    ids=["misspelled", "substrate-key", "null-required", "mistyped", "substrate-type",
         "applications-type", "efficiency-type", "graphml-type", "algorithms-string",
         "zero-tier-ratio", "top-level-list", "name-object", "seed-fraction",
         "requests-fraction", "repetitions-bool", "number-string", "number-bool", "number-nan",
         "number-inf", "number-overflow", "tier-ratio-string", "negative-psi", "zero-requests",
         "zero-link-tu", "unknown-spatial", "app-not-in-catalog", "no-algorithms",
         "empty-catalog", "unknown-algorithm", "alternative-not-a-number", "absent-alternative",
         "repeated-algorithm", "no-origin-weights", "overflowing-origin-scale", "no-edge-nodes",
         "no-arc-capacity", "tiny-node-tu", "tiny-link-tu", "huge-link-size"],
)
def test_compare_names_the_bad_scenario_key(runner, tmp_path, keys, named):
    """A misspelled key is an input error, not a silent fall-back to the
    default it meant to override; so are a missing and a mistyped key
    (a string, count or number is not converted from another JSON type, a
    fraction or a bool is not a count, and a number is finite), a bad tier
    ratio, a file that holds a list (``keys`` is then the whole document),
    and values no run can use: a count below 1, an unknown spatial profile,
    an app outside the catalog, no algorithms, an empty catalog, an
    unknown algorithm or alternative, an algorithm listed twice (it would
    run twice and double its summary's n), no edge-tier node or origin weight
    to draw requests from, and no arc capacity for calibration to scale
    or a target or size it cannot scale to, found before any repetition
    runs."""
    vio.write_json(tmp_path / "empty.json", {"schema_version": 1, "applications": []})
    core_only = json.loads((GOLDEN / "tiny_substrate.json").read_text())
    for node in core_only["nodes"]:
        node["tier"] = "core"
    vio.write_json(tmp_path / "core_only.json", core_only)
    tiny = json.loads((GOLDEN / "tiny_substrate.json").read_text())
    vio.write_json(tmp_path / "no_links.json", {**tiny, "links": []})
    huge_link = json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    huge_link["applications"][0]["alternatives"][0]["links"][0]["size"] = 1e308
    vio.write_json(tmp_path / "huge_link.json", huge_link)
    path = tmp_path / "scenario.json"
    if isinstance(keys, list):
        path.write_text(json.dumps(keys))
    else:
        write_scenario(path, **keys)
    result = runner.invoke(main, ["compare", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert named in result.output


def test_compare_missing_scenario_file_is_input_error(runner, tmp_path):
    missing = tmp_path / "absent.json"
    result = runner.invoke(main, ["compare", "--scenario", str(missing), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"{missing}: No such file or directory" in result.output


def test_scenario_substrate_is_checked_like_solve(runner, tmp_path):
    """A scenario's substrate goes through the same checks as one given to
    solve: a negative capacity is an input error, not a run over 0 requests."""
    doc = json.loads((GOLDEN / "tiny_substrate.json").read_text())
    doc["nodes"][0]["capacity"] = -5.0  # node E
    vio.write_json(tmp_path / "broken.json", doc)
    path = write_scenario(tmp_path / "scenario.json", substrate="broken.json")
    result = runner.invoke(main, ["compare", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "NegativeCapacity: node E" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "broken, message",
    [
        ({"cost": -5.0}, "NegativeCost: node E (cost -5.0)"),
        (
            {"efficiency": {"nodes": [{"function": "analytics", "node": "E", "forbidden": True}]}},
            "cannot compute rejection penalty: no node admits a full collocation "
            "of any application's main alternative",
        ),
        ({"psi": -5.0}, "psi must be a finite number >= 0, not -5.0"),
    ],
    ids=["negative-cost", "underivable-psi", "negative-psi"],
)
def test_one_broken_instance_is_refused_alike_by_every_entry_point(runner, tmp_path, broken, message):
    """The tiny substrate with node E's cost set to -5, an efficiency map
    that leaves ψ underivable, or a ψ of -5 is refused with the same
    message by ``solve``, by ``compare`` and by a ScenarioConfig built in
    Python: exit 2 from the CLI, a ValueError from Python, and no output
    directory from ``compare``."""
    substrate = json.loads((GOLDEN / "tiny_substrate.json").read_text())
    substrate["nodes"][0]["cost"] = broken.get("cost", substrate["nodes"][0]["cost"])  # node E
    vio.write_json(tmp_path / "substrate.json", substrate)
    vio.write_json(tmp_path / "efficiency.json", broken.get("efficiency", {}))
    vio.write_json(tmp_path / "requests.json", vio.dump_requests(unit_requests(2, app="cctv")))
    psi = broken.get("psi")

    files = {"substrate": tmp_path / "substrate.json", "requests": tmp_path / "requests.json"}
    extra = {"efficiency": tmp_path / "efficiency.json", **({} if psi is None else {"psi": psi})}
    solved = runner.invoke(main, solve_args(files, "lp", tmp_path / "x.json", **extra))
    scenario = write_scenario(
        tmp_path / "scenario.json", substrate="substrate.json", efficiency="efficiency.json", psi=psi
    )
    compared = runner.invoke(main, ["compare", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    for result in (solved, compared):
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {message}\n" in result.output
    assert not (tmp_path / "out").exists()

    catalog = json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    with pytest.raises(ValueError) as refused:
        ScenarioConfig(
            name="broken",
            substrate=vio.load_substrate(tmp_path / "substrate.json"),
            apps=vio.load_applications(catalog),
            requests=5,
            efficiency=vio.load_efficiency(tmp_path / "efficiency.json"),
            psi=psi,
        )
    assert str(refused.value) == message


def test_scenario_catalog_ignores_the_working_directory(tmp_path, monkeypatch):
    """A scenario's catalog is a path relative to the scenario file or a
    bundled name; a same-named file in the working directory is not read."""
    decoy = json.loads(resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text())
    decoy["applications"][0]["id"] = "decoy"
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    vio.write_json(workdir / "cctv_two", decoy)
    monkeypatch.chdir(workdir)
    bundled = load_scenario(write_scenario(tmp_path / "scenarios" / "bundled.json"))
    assert set(bundled.apps) == {"cctv"}

    vio.write_json(tmp_path / "scenarios" / "mine.json", decoy)
    beside = load_scenario(write_scenario(tmp_path / "scenarios" / "beside.json", applications="mine.json"))
    assert set(beside.apps) == {"decoy"}


def test_scenario_with_only_required_keys_takes_config_defaults(tmp_path):
    config = load_scenario(write_scenario(tmp_path / "minimal.json"))
    assert config == ScenarioConfig(
        name="minimal",
        substrate=config.substrate,
        apps=config.apps,
        requests=5,
        efficiency=config.efficiency,
    )
    efficiency = config.efficiency
    assert (efficiency.default, efficiency.node_coeffs, efficiency.link_coeffs) == (1.0, {}, {})


def test_scenario_graphml_substrate_matches_ingest(runner, tmp_path):
    out = tmp_path / "ingested.json"
    args = ["ingest", "--graphml", str(ARNES), "--tier-ratios", "2.0", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    path = write_scenario(tmp_path / "s.json", substrate={"graphml": str(ARNES), "tier_ratio": 2.0})
    assert vio.dump_substrate(load_scenario(path).substrate) == json.loads(out.read_text())


def test_formats_scenario_example_lists_every_key(tmp_path):
    """docs/FORMATS.md's scenario example shows exactly the keys
    load_scenario accepts, and loads as it stands."""
    section = FORMATS.read_text().split("## Scenario config", 1)[1].split("\n## ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert set(example) == set(vneap.cli._SCENARIO_KEYS)
    graphml = json.loads(re.search(r'`(\{"graphml".*?\})`', section).group(1))
    assert set(graphml) == set(vneap.cli._GRAPHML_KEYS)
    example["substrate"] = str(GOLDEN / "tiny_substrate.json")
    path = tmp_path / "example.json"
    path.write_text(json.dumps(example))
    assert load_scenario(path).name == example["name"]


def test_formats_timings_match_what_is_written():
    """docs/FORMATS.md's timings-CSV header is the one timings_to_csv
    writes, and its solve sidecar example holds every key the
    relaxation's timings carry."""
    text = FORMATS.read_text()
    documented = re.search(r"`(scenario,repetition,algorithm,runtime_s,[a-z_,]*)`", text).group(1)
    assert documented == vneap.harness.timings_to_csv([]).rstrip("\n")
    section = text.split("Timings go to a sidecar", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    solved = solve_relaxation(toy_net(), toy_apps(), EfficiencyMap(), unit_requests(1), 1050.0)
    assert set(solved.timings) <= set(example)


# ------------------------------------------------------------------ report


def test_report_aggregates_handwritten_rows(runner, tmp_path):
    out = tmp_path / "summary.json"
    result = runner.invoke(main, ["report", "--results", str(GOLDEN / "report_rows"), "--out", str(out)])
    assert result.exit_code == 0
    assert "3 rows summarized" in result.output
    aggregates = json.loads(out.read_text())["aggregates"]
    assert aggregates["a"]["rejection_rate"] == {"mean": 0.25, "variance": 0.0625, "n": 2}
    assert aggregates["a"]["total_cost"] == {"mean": 20.0, "variance": 100.0, "n": 2}
    assert aggregates["b"]["rejection_rate"] == {"mean": 1.0, "variance": 0.0, "n": 1}
    assert "total_cost" not in aggregates["b"]


def test_report_empty_directory_is_input_error(runner, tmp_path):
    result = runner.invoke(main, ["report", "--results", str(tmp_path), "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "no *_rows.csv" in result.output


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_report_refuses_a_number_that_is_not_finite(runner, tmp_path, cell):
    """A summary holding NaN or Infinity would not be JSON, so such a cell
    is an input error naming its column."""
    rows = (GOLDEN / "report_rows" / "handmade_rows.csv").read_text() + f"tiny,b,0.5,{cell},true\n"
    (tmp_path / "x_rows.csv").write_text(rows)
    out = tmp_path / "summary.json"
    result = runner.invoke(main, ["report", "--results", str(tmp_path), "--out", str(out)])
    assert result.exit_code == 2
    assert f"'total_cost': expected a finite number, not {cell}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("extra, fields", [(",EXTRA", 4), ("", 2)])
def test_report_refuses_a_row_whose_field_count_differs_from_its_header(
    runner, tmp_path, extra, fields
):
    """A row with more fields than its header, or fewer, is an input
    error naming the file, the line and both counts."""
    body = "scenario,algorithm,total_cost\ns,lp,1.0\n"
    row = f"s,lp,1.0{extra}\n" if extra else "s,lp\n"
    path = tmp_path / "x_rows.csv"
    path.write_text(body + row)
    out = tmp_path / "summary.json"
    result = runner.invoke(main, ["report", "--results", str(tmp_path), "--out", str(out)])
    assert result.exit_code == 2
    assert f"{path}, line 3: {fields} fields, but the header has 3" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "body, where",
    [
        ("scenario,total_cost\ns,1.0\n", ", line 1: no 'algorithm' column"),
        ("scenario,algorithm,total_cost\ns,lp,abc\n", ", line 2: 'total_cost': expected a finite number, not abc"),
        ("scenario,algorithm,total_cost\ns,lp,true\n", ", line 2: 'total_cost': expected a finite number, not true"),
        ("scenario,algorithm,total_cost\ns,,1.0\n", ", line 2: 'algorithm': expected a name"),
        (None, ": Is a directory"),
        (b"\xff\xfe", ": 'utf-8' codec can't decode byte 0xff in position 0"),
        (
            "scenario,algorithm,total_cost\ns,lp," + "1" * 200_000 + "\n",
            ", line 2: field larger than field limit",
        ),
    ],
    ids=[
        "no-algorithm-column",
        "text-metric",
        "boolean-metric",
        "empty-algorithm",
        "directory",
        "not-utf-8",
        "field-too-large",
    ],
)
def test_report_refuses_a_row_it_cannot_summarize(runner, tmp_path, body, where):
    """A file without an algorithm column, a row without an algorithm, or
    a summarized metric that is not a number is an input error naming
    the file, the line and the column, not a traceback or a mean of
    booleans; so is a rows file that is a directory (None), not UTF-8
    text or a field longer than the csv module reads."""
    path = tmp_path / "x_rows.csv"
    if body is None:
        path.mkdir()
    elif isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    out = tmp_path / "summary.json"
    result = runner.invoke(main, ["report", "--results", str(tmp_path), "--out", str(out)])
    assert result.exit_code == 2
    assert f"{path}{where}" in result.output
    assert not out.exists()


def test_report_matches_compare_summary(runner, tmp_path):
    run_dir = tmp_path / "run"
    assert runner.invoke(main, [
        "compare", "--scenario", str(GOLDEN / "tiny_scenario.json"), "--out", str(run_dir),
    ]).exit_code == 0
    out = tmp_path / "summary.json"
    assert runner.invoke(main, ["report", "--results", str(run_dir), "--out", str(out)]).exit_code == 0
    recomputed = json.loads(out.read_text())["aggregates"]
    original = json.loads((run_dir / "tiny_summary.json").read_text())["aggregates"]
    assert recomputed == original


# ---------------------------------------------------------- output paths


def unwritable(command: str, files: dict, monkeypatch):
    """The arguments of ``command`` with an output path it cannot write,
    that path, and why the write fails."""
    d = files["dir"]
    missing = d / "absent" / "out.json"
    inputs = ["--substrate", str(files["substrate"]), "--apps", "cctv_two"]
    if command == "ingest":
        return ["ingest", "--graphml", str(ARNES), "--out", str(missing)], missing, "No such file or directory"
    if command == "generate":
        return ["generate", *inputs, "--count", "3", "--out", str(missing)], missing, "No such file or directory"
    if command == "calibrate":
        args = ["calibrate", *inputs, "--requests", str(files["requests"]),
                "--node-tu", "0.5", "--link-tu", "0.5", "--out", str(missing)]
        return args, missing, "No such file or directory"
    if command.startswith("solve"):
        def run_algorithm(*args):
            raise AssertionError("the algorithm ran before the output path was checked")

        monkeypatch.setattr(vneap.harness, "_run_algorithm", run_algorithm)
    if command == "solve":
        return solve_args(files, "greedy", missing), missing, "No such file or directory"
    if command == "solve-in-a-file":
        afile = d / "afile"
        afile.write_text("")
        return solve_args(files, "greedy", afile / "out.json"), afile / "out.json", "Not a directory"
    if command == "solve-sidecar":
        sidecar = d / "x_timings.json"
        sidecar.mkdir()
        return solve_args(files, "greedy", d / "x.json"), sidecar, "Is a directory"
    if command == "compare":
        def run(config):
            raise AssertionError("a repetition ran before the output directory was made")

        monkeypatch.setattr(vneap.cli, "run_scenario", run)
        afile = d / "afile"
        afile.write_text("")
        args = ["compare", "--scenario", str(GOLDEN / "tiny_scenario.json"), "--out", str(afile)]
        return args, afile, "File exists"
    args = ["report", "--results", str(GOLDEN / "report_rows"), "--out", str(missing)]
    return args, missing, "No such file or directory"


@pytest.mark.parametrize(
    "command",
    ["ingest", "generate", "calibrate", "solve", "solve-in-a-file", "solve-sidecar", "compare", "report"],
)
def test_an_output_path_that_cannot_be_written_is_an_input_error(runner, toy_files, monkeypatch, command):
    """Every command that writes refuses an output path it cannot write,
    one in a missing directory or under a file, a directory, or an
    existing file as ``compare``'s output directory, with exit 2 naming
    the path and no traceback; ``solve`` refuses it before its algorithm
    runs and ``compare`` before any repetition runs."""
    args, path, why = unwritable(command, toy_files, monkeypatch)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: {path}: {why}\n" in result.output


# ------------------------------------------------------------- exit codes

# One library call each command makes, which a test replaces to see how
# the command ends when it raises.
LIBRARY_CALL = {
    "ingest": (vneap.cli, "classify_tiers"),
    "generate": (vneap.cli, "generate_requests"),
    "calibrate": (vneap.cli, "calibrate_target_utilization"),
    "solve": (vneap.harness, "_run_algorithm"),
    "compare": (vneap.cli, "run_scenario"),
    "report": (vneap.harness, "summarize"),
}


def command_args(command: str, files: dict) -> list[str]:
    """Arguments under which ``command`` runs on the toy files."""
    d = files["dir"]
    inputs = ["--substrate", str(files["substrate"]), "--apps", "cctv_two"]
    return {
        "ingest": ["ingest", "--graphml", str(ARNES), "--out", str(d / "sub.json")],
        "generate": ["generate", *inputs, "--count", "3", "--out", str(d / "reqs.json")],
        "calibrate": ["calibrate", *inputs, "--requests", str(files["requests"]),
                      "--node-tu", "0.5", "--link-tu", "0.5", "--out", str(d / "cal.json")],
        "solve": solve_args(files, "greedy", d / "x.json"),
        "compare": ["compare", "--scenario", str(GOLDEN / "tiny_scenario.json"), "--out", str(d / "out")],
        "report": ["report", "--results", str(GOLDEN / "report_rows"), "--out", str(d / "summary.json")],
    }[command]


def raising(exc: Exception):
    def call(*args, **kwargs):
        raise exc

    return call


@pytest.mark.parametrize("command", list(LIBRARY_CALL))
@pytest.mark.parametrize("error, code, ends_in", [(ValueError, 2, SystemExit), (RuntimeError, 1, RuntimeError)])
def test_every_command_exits_by_the_type_of_its_failure(runner, toy_files, monkeypatch, command, error, code, ends_in):
    """A ValueError from any library call a command makes, even one no
    command catches itself, is an input error: exit 2, no traceback.  An
    error that is neither that nor a solver status is a defect: it
    propagates as itself and exits 1."""
    monkeypatch.setattr(*LIBRARY_CALL[command], raising(error("boom")))
    result = runner.invoke(main, command_args(command, toy_files))
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, ends_in)
    assert ("error: boom\n" in result.output) == (code == 2)


@pytest.mark.parametrize("status, code", [("infeasible", 3), ("unbounded", 3), ("failure", 4)])
def test_solve_maps_a_solver_error_from_its_algorithm_by_status(runner, toy_files, monkeypatch, status, code):
    monkeypatch.setattr(vneap.harness, "_run_algorithm", raising(SolverError(status, "boom")))
    result = runner.invoke(main, solve_args(toy_files, "greedy", toy_files["dir"] / "x.json"))
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: boom\n" in result.output


@pytest.mark.parametrize("status, code", [("infeasible", 3), ("iteration_limit", 4)])
def test_solve_maps_a_row_status_other_than_ok(runner, toy_files, monkeypatch, status, code):
    """An algorithm that reports a solver status in its row, as ``lp``
    does, writes no report and exits by that status."""
    monkeypatch.setattr(vneap.harness, "_run_algorithm", lambda *args: ({"status": status}, {}, None))
    out = toy_files["dir"] / "x.json"
    result = runner.invoke(main, solve_args(toy_files, "lp", out))
    assert result.exit_code == code, result.output
    assert f"error: solver status: {status}\n" in result.output
    assert not out.exists()


@pytest.mark.parametrize("name", ["sub/x", "../x"])
def test_compare_refuses_a_scenario_name_with_a_path_before_any_repetition(runner, tmp_path, monkeypatch, name):
    """The name prefixes the files written inside --out: "sub/x" failed
    only after every repetition had run, and "../x" wrote beside --out."""

    def run(config):
        raise AssertionError("a repetition ran before the name was checked")

    monkeypatch.setattr(vneap.cli, "run_scenario", run)
    scenario = write_scenario(tmp_path / "scenario.json", name=name)
    result = runner.invoke(main, ["compare", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: name must be a plain file-name prefix, not {name!r}\n" in result.output
    assert list(tmp_path.iterdir()) == [scenario]


# ---------------------------------------------------------- mutated inputs


def fuzz_documents() -> dict:
    """The inputs the mutation test starts from, by file name: the tiny
    substrate, the bundled two-alternative catalog, two requests at E and
    a one-repetition scenario over the three."""
    catalog = resources.files("vneap").joinpath("fixtures/cctv_two.json").read_text()
    return {
        "substrate.json": json.loads((GOLDEN / "tiny_substrate.json").read_text()),
        "catalog.json": json.loads(catalog),
        "requests.json": vio.dump_requests(unit_requests(2, app="cctv")),
        "scenario.json": {
            "schema_version": 1,
            "substrate": "substrate.json",
            "applications": "catalog.json",
            "requests": 4,
            "node_tu": 0.5,
            "link_tu": 0.5,
            "calibration_requests": 40,
            "algorithms": ["greedy", "tanto"],
            "repetitions": 1,
        },
    }


def key_paths(doc, prefix: tuple = ()):
    """The path (keys and list indices) to every value inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


SITES = [(name, path) for name, doc in fuzz_documents().items() for path in key_paths(doc)]
DELETE = "<delete>"
MUTATIONS = [DELETE, None, -1, -2.5, 0, 0.0, 1e-320, 1e30, 1e308, "x", "", [], {}, True, False]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(site=st.sampled_from(SITES), value=st.sampled_from(MUTATIONS))
def test_one_mutated_input_ends_in_a_mapped_exit(site, value):
    """One value or key of the substrate, catalog, requests or scenario is
    replaced (null, negatives, zero, subnormal and huge numbers, strings,
    lists, objects, bools) or deleted.  ``solve`` with greedy and tanto
    and ``compare`` then exit 0, 2, 3 or 4, never by another exception."""
    name, path = site
    docs = fuzz_documents()
    parent = docs[name]
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for file, doc in docs.items():
            (d / file).write_text(json.dumps(doc))
        inputs = ["--substrate", str(d / "substrate.json"), "--apps", str(d / "catalog.json"),
                  "--requests", str(d / "requests.json")]
        runs = [["solve", *inputs, "--algo", algo, "--out", str(d / f"{algo}.json")]
                for algo in ("greedy", "tanto")]
        runs.append(["compare", "--scenario", str(d / "scenario.json"), "--out", str(d / "out")])
        for args in runs:
            result = runner.invoke(main, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args[0], result.output, repr(result.exception))
            assert result.exit_code in (0, 2, 3, 4), (args[0], result.output)


# -------------------------------------------------------- import footprint

# the test process has imported scipy.optimize already (pyproject's
# filterwarnings names its OptimizeWarning), so what a command imports is
# seen in a child process
FOOTPRINT = ("scipy.stats", "scipy.optimize", "scipy.optimize._highspy._core")


def loaded_modules(body: str, cwd: Path) -> dict:
    """Which of FOOTPRINT a fresh interpreter has imported after running
    ``body`` with vneap from this checkout."""
    script = f"{body}\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {FOOTPRINT!r}}}))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def command_modules(args: list, cwd: Path) -> dict:
    """loaded_modules after ``vneap *args``, which must exit 0."""
    return loaded_modules(
        f"from vneap.cli import main\nassert main({args!r}, standalone_mode=False) in (None, 0)", cwd
    )


def test_importing_the_cli_leaves_scipy_stats_and_highs_out(tmp_path):
    assert loaded_modules("import vneap.cli", tmp_path) == dict.fromkeys(FOOTPRINT, False)


def test_commands_that_never_solve_leave_highs_out(tmp_path):
    """``--help``, ``ingest``, ``generate``, ``calibrate`` and ``report``
    import neither scipy.stats nor scipy.optimize, HiGHS's bindings with
    it."""
    tiny = ["--substrate", str(GOLDEN / "tiny_substrate.json"), "--apps", "cctv_two"]
    runs = [
        ["--help"],
        ["ingest", "--graphml", str(ARNES), "--out", str(tmp_path / "arnes.json")],
        ["generate", *tiny, "--count", "40", "--seed", "1", "--out", str(tmp_path / "requests.json")],
        ["calibrate", *tiny, "--requests", str(GOLDEN / "tiny_requests.json"), "--node-tu", "0.5",
         "--link-tu", "0.5", "--out", str(tmp_path / "calibrated.json")],
        ["report", "--results", str(GOLDEN / "report_rows"), "--out", str(tmp_path / "summary.json")],
    ]
    for args in runs:
        assert command_modules(args, tmp_path) == dict.fromkeys(FOOTPRINT, False), args
    assert {p.name for p in tmp_path.iterdir()} == {
        "arnes.json", "requests.json", "calibrated.json", "summary.json"
    }


def test_solve_imports_highs_where_a_model_is_built(toy_files):
    loaded = command_modules(solve_args(toy_files, "lp", toy_files["dir"] / "lp.json"), toy_files["dir"])
    assert loaded == {"scipy.stats": False, "scipy.optimize": True, "scipy.optimize._highspy._core": True}
    report = json.loads((toy_files["dir"] / "lp.json").read_text())
    assert report["total_cost"] == pytest.approx(3 * 205.0, rel=1e-9)


def test_compare_workers_fork_with_highs_imported(tmp_path):
    """``run_scenario`` at jobs=2 imports HiGHS's bindings before its pool
    forks, so no worker imports them again."""
    body = f"""
import sys
from vneap import harness
from vneap.cli import load_scenario

at_fork = []


class Pool(harness.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_fork.append("scipy.optimize._highspy._core" in sys.modules)
        super().__init__(*args, **kwargs)


harness.ProcessPoolExecutor = Pool
config = load_scenario({str(GOLDEN / "tiny_scenario.json")!r}, jobs=2)
assert "scipy.optimize" not in sys.modules
result = harness.run_scenario(config)
assert at_fork == [True] and result.rows and not result.errors, (at_fork, result.errors)
"""
    assert loaded_modules(body, tmp_path)["scipy.optimize._highspy._core"]
