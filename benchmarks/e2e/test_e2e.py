"""Smoke tests for the end-to-end benchmark (``pytest benchmarks/e2e``).

Miniature inputs (``--smoke``) and ``--seconds 0`` keep every run at its
minimum op count, so the whole file finishes in well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--smoke", "--seconds", "0"]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )


def _printed(stdout: str, workload: str):
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            rows[parts[1]] = (parts[2], parts[3])
    return rows


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "runs.json"
    proc = _bench(*SMOKE, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {run["workload"]: run for run in json.loads(out.read_text())["runs"]}


@pytest.fixture(scope="module")
def traced_sweep():
    proc = _bench("--workload", "sweep-xos", "--trace", "1", *SMOKE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke_runs):
    assert sorted(smoke_runs) == sorted(w["name"] for w in SPEC["workloads"])
    for name, run in smoke_runs.items():
        result = run["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for entry in SPEC["end_to_end"]:
            assert run["printed"][entry["name"]]["unit"] == entry["unit"], (name, entry)
            assert result["metrics"][entry["name"]]["value"] > 0, (name, entry)
        assert run["printed"]["error_rate"]["value"] == 0
        assert run["printed"]["oracle_cells"]["value"] >= 16


def test_traced_run_prints_every_per_layer_metric_and_covers_the_sweep(traced_sweep):
    result = json.loads(traced_sweep.strip().splitlines()[-1])
    assert result["correct"]
    printed = _printed(traced_sweep, "sweep-xos")
    for entry in SPEC["per_layer"]:
        assert printed[entry["name"]][1] == entry["unit"], entry
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert float(printed["core.replay.events_per_op"][0]) > 0
    # every layer wrapper bound to the name its caller looks up: the
    # leaf layers' self times account for the sweep's wall time
    assert float(printed["trace_coverage"][0]) >= 0.9


def test_same_seed_gives_identical_makespan_digest(smoke_runs, traced_sweep):
    # a pooled run and a traced inline run of the same seed
    traced = _printed(traced_sweep, "sweep-xos")["makespan_digest"][0]
    assert traced == smoke_runs["sweep-xos"]["printed"]["makespan_digest"]["value"]
    # two pooled runs against separate servers, damaged logs included
    again = _bench("--workload", "ingest-fresh", *SMOKE)
    assert again.returncode == 0, again.stdout + again.stderr
    assert (
        _printed(again.stdout, "ingest-fresh")["makespan_digest"][0]
        == smoke_runs["ingest-fresh"]["printed"]["makespan_digest"]["value"]
    )


def test_off_by_one_makespan_raises_error_rate(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import bench
    import workloads
    from repro.jobs import engine

    real = engine.run_payload

    def off_by_one(payload):
        result = real(payload)
        if result.get("makespan_us"):
            result["makespan_us"] += 1
        return result

    monkeypatch.setattr(engine, "run_payload", off_by_one)
    wl = workloads.WORKLOADS["sweep-xos"](
        1, tmp_path, inline=True, scale=workloads.SMOKE_SCALE
    )
    wl.prepare()
    try:
        ops, failed, _, extras = bench.measure(wl, 0.0, 1, workloads)
    finally:
        wl.stop()
    assert failed > 0
    assert extras["error_rate"][0] > 0
