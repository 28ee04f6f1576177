"""Cross-backend parity harness + scheduler-axis plumbing tests.

Covers the :mod:`repro.sched.stress_parity` invariant harness, the
Solaris bit-identity regression, and the scheduler axis through
manifests, batch reports and engine metrics.
"""

import json

import pytest

from repro import SimConfig, record_program
from repro.core.errors import AnalysisError
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.jobs import JobEngine, TraceRef
from repro.jobs.manifest import SweepManifest, curve_cells, run_grid, run_manifest
from repro.recorder import logfile
from repro.sched import available_backends
from repro.sched.stress_parity import run_stress
from repro.workloads import get_workload

from tests.conftest import make_prodcons_program

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def prodcons_plan():
    return compile_trace(record_program(make_prodcons_program()).trace)


class TestStressHarness:
    def test_all_backends_hold_the_invariants(self):
        report = run_stress(scale=0.15, cpu_counts=(2,))
        assert report.ok, report.describe()
        assert report.cells == 5

    def test_backend_subset_and_describe(self):
        report = run_stress(
            scale=0.15, cpu_counts=(2,), backends=["solaris", "cfs"]
        )
        assert report.ok
        assert "0 violation(s)" in report.describe()


class TestSolarisBitIdentity:
    """The default backend is the extracted policy: its predictions are
    the pre-refactor scheduler's."""

    def test_explicit_solaris_equals_default(self, prodcons_plan):
        config = SimConfig(cpus=4)
        explicit = SimConfig(cpus=4, scheduler="solaris")
        default_res = Simulator(config).run_replay(prodcons_plan)
        explicit_res = Simulator(explicit).run_replay(prodcons_plan)
        assert default_res.makespan_us == explicit_res.makespan_us
        assert default_res.events == explicit_res.events


class TestManifestSchedulerAxis:
    def _manifest(self, tmp_path, **extra):
        trace = record_program(
            get_workload("prodcons").make_program(4, 0.15)
        ).trace
        log = tmp_path / "pc.log"
        log.write_text(logfile.dumps(trace), encoding="utf-8")
        data = {"trace": str(log), "cpus": [2], **extra}
        return SweepManifest.from_dict(data)

    def test_default_axis_is_solaris_with_stable_labels(self, tmp_path):
        manifest = self._manifest(tmp_path)
        assert manifest.schedulers == ("solaris",)
        trace = logfile.load(manifest.trace_path)
        cells = manifest.configs(trace)
        assert [c.label for c in cells] == ["2cpu/unbound"]

    def test_unknown_scheduler_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="unknown scheduler"):
            self._manifest(tmp_path, schedulers=["vms"])

    def test_grid_crosses_schedulers(self, tmp_path):
        manifest = self._manifest(tmp_path, schedulers=list(BACKENDS))
        assert manifest.grid_size() == len(BACKENDS)
        trace = logfile.load(manifest.trace_path)
        cells = manifest.configs(trace)
        labels = [c.label for c in cells]
        # default backend keeps the bare label; others get a suffix
        assert "2cpu/unbound" in labels
        assert "2cpu/unbound/cfs" in labels
        assert "2cpu/unbound/clutch" in labels
        assert {c.config.scheduler for c in cells} == set(BACKENDS)

    def test_batch_report_nests_and_footers(self, tmp_path):
        manifest = self._manifest(tmp_path, schedulers=list(BACKENDS))
        engine = JobEngine(mode="inline")
        try:
            report = run_manifest(manifest, engine)
        finally:
            engine.close()
        assert all(s.outcome.ok for s in report.scenarios)
        assert report.schedulers() == list(manifest.schedulers)

        doc = json.loads(report.to_json())
        assert set(doc["by_scheduler"]) == set(BACKENDS)
        for sched, rows in doc["by_scheduler"].items():
            assert rows and all(r["scheduler"] == sched for r in rows)

        table = report.format_table()
        assert "sched" in table.splitlines()[1]  # backend column
        assert "per scheduler:" in table
        for sched in BACKENDS:
            assert f"{sched}:" in table

        per = report.metrics["schedulers"]
        assert set(per) == set(BACKENDS)
        # the shared baseline is a solaris job; each backend ran its cell
        assert per["solaris"]["jobs"] == 2
        for sched in BACKENDS:
            if sched != "solaris":
                assert per[sched]["jobs"] == 1

    def test_single_backend_report_keeps_plain_table(self, tmp_path):
        manifest = self._manifest(tmp_path)
        engine = JobEngine(mode="inline")
        try:
            report = run_manifest(manifest, engine)
        finally:
            engine.close()
        header = report.format_table().splitlines()[1]
        assert "sched" not in header
        assert "per scheduler:" not in report.format_table()


def _speedup_at(engine, ref, cpus, scheduler):
    """One cell's strict speed-up under *scheduler* through ``run_grid``."""
    base = SimConfig().with_scheduler(scheduler)
    return run_grid(engine, ref, curve_cells(base, [cpus])).speedups()[0]


class TestEngineSchedulerMetrics:
    def test_grid_speedups_accounts_per_backend(self, prodcons_plan):
        trace = record_program(make_prodcons_program()).trace
        ref = TraceRef.from_trace(trace)
        engine = JobEngine(mode="inline")
        try:
            for sched in BACKENDS:
                _speedup_at(engine, ref, 2, sched)
            snap = engine.snapshot()
        finally:
            engine.close()
        per = snap["schedulers"]
        assert set(per) == set(BACKENDS)
        # baseline (solaris-pinned) + solaris cell; one cell per other
        assert per["solaris"]["jobs"] >= 2
        for sched in BACKENDS:
            if sched != "solaris":
                assert per[sched]["jobs"] == 1

    def test_cross_backend_results_not_cache_collided(self):
        trace = record_program(
            get_workload("prodcons").make_program(4, 0.15)
        ).trace
        ref = TraceRef.from_trace(trace)
        engine = JobEngine(mode="inline")
        try:
            makespans = {}
            for sched in BACKENDS:
                makespans[sched] = _speedup_at(engine, ref, 2, sched).makespan_us
            # re-asking must serve the backend's own cached cell
            for sched in BACKENDS:
                assert _speedup_at(engine, ref, 2, sched).makespan_us == makespans[sched]
        finally:
            engine.close()
        # distinct kernels genuinely predict differently on this trace
        assert len(set(makespans.values())) > 1
