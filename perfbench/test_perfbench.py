"""Smoke test of the benchmark at reduced sizes:

    python3 -m pytest perfbench

Checks that the result line carries exactly the metrics BENCHMARK.json
names, that the checks are live (a corrupted embedding fails an
operation), that counts repeat for a seed, and that the benchmark
refuses to run without the vneap sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_workloads()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload's traced run must report.
NAMED_PER_LAYER = [
    "harness.ingest_s",
    "harness.calibration_sample_s",
    "harness.calibrate_s",
    "harness.generate_s",
    "harness.requests_requested",
    "harness.requests_generated",
    "harness.load_ratio",
    "harness.scenario.lp_runtime_s",
    "harness.scenario.tanto_runtime_s",
    "harness.scenario.greedy_runtime_s",
    "harness.scenario.rows",
    "harness.scenario.errors",
    "harness.write_s",
    "formulation.aggregate_s",
    "formulation.build_s",
    "formulation.unpack_s",
    "formulation.aggregates",
    "formulation.vars",
    "formulation.rows",
    "formulation.nnz",
    "formulation.build_milp_s",
    "formulation.milp_binaries",
    "lp.solve_s",
    "lp.iterations",
    "lp.status",
    "lp.nonzero_vars",
    "lp.exact_nodes",
    "lp.exact_s",
    "tanto.lp_s",
    "tanto.rounding_s",
    "tanto.total_steps",
    "tanto.steps_per_request",
    "tanto.initial_nonzero_y",
    "tanto.rounding_rejections",
    "tanto.accept_ratio",
    "greedy.us_per_request",
    "greedy.rejected",
    "validator.feasibility_s",
    "validator.cost_s",
    "validator.violations",
    "cli.load_scenario_s",
]


def reduced(w):
    """The workload with 200 requests on the 10-node topology, the small
    scenario and the 3-request toy in place of its large inputs."""
    return dataclasses.replace(
        w,
        graphml=workloads.DATA / "small.graphml",
        catalog="cctv_two",
        requests=200,
        scenario=workloads.SMALL_SCENARIO,
        exact_requests=3,
    )


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(
        workloads, "WORKLOADS", {name: reduced(w) for name, w in workloads.WORKLOADS.items()}
    )


def bench(capsys, name: str, trace: int, seed: int = 3) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"][1] == "perfbench/run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_result_line_carries_the_benchmark_metrics(small_workloads, capsys, name, trace):
    result = bench(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m: metric["unit"] for m, metric in result["metrics"].items()}
    assert units == {d["name"]: d["unit"] for d in declared}
    if trace:
        assert set(NAMED_PER_LAYER) <= set(result["metrics"])
        assert result["metrics"]["harness.load_ratio"]["value"] == 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_for_a_seed(small_workloads, capsys):
    first, second = (bench(capsys, "round-amres-many", 1)["metrics"] for _ in range(2))
    for name in run.COUNTS:
        assert first[name] == second[name], name


def test_corrupted_embedding_raises_the_error_rate(small_workloads, capsys, monkeypatch):
    greedy = workloads.greedy_embed_all

    def corrupted(*args):
        embeddings, report = greedy(*args)
        k = next(i for i, e in enumerate(embeddings) if not e.rejected)
        partial = dict(list(embeddings[k].node_map.items())[1:])
        embeddings[k] = dataclasses.replace(embeddings[k], node_map=partial)
        return embeddings, report

    monkeypatch.setattr(workloads, "greedy_embed_all", corrupted)
    result = bench(capsys, "solve-arnes-two", 0)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:]]
        + ["--workload", "round-amres-many", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
