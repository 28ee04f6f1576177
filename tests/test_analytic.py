"""The analytic prediction tier: stats, models, calibration, tiering.

The load-bearing properties, tested end to end:

* **bracketing** — calibrated ``[lo, hi]`` intervals contain the DES
  makespan for every suite workload across the cpus x binding x
  scheduler grid (the soundness premise of the whole tier);
* **decision parity** — ``tier=auto`` reaches decisions identical to
  full simulation while replaying only the escalated subset, and
  ``tier=analytic`` agrees too on the calibrated workloads;
* **content addressing** — analytic answers re-key when the profile
  (margins) changes, exactly like sim jobs re-key on engine changes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import SimConfig
from repro.core.errors import CalibrationError
from repro.jobs import JobEngine, JobOutcome, ResultCache, SweepManifest
from repro.jobs.fingerprint import analytic_job_fingerprint
from repro.jobs.manifest import curve_cells, run_grid, run_manifest
from repro.jobs.model import SimJob, TraceRef
from repro.jobs.tiering import TierCell, decide, escalation_labels
from repro.program.uniexec import record_program
from repro.recorder import logfile
from repro.workloads import get_workload

from repro.analytic import (
    AnalyticProfile,
    MODEL_NAMES,
    TraceStats,
    calibrate_analytic,
    default_analytic_suite,
    estimate_makespan,
    extract_stats,
    margin_key_for,
    model_points,
    trace_class,
    verify_profile,
)

from tests.conftest import VOLATILE, make_fig2_program


# ---------------------------------------------------------------------------
# shared fixtures: one inline engine + one calibration for the module
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    eng = JobEngine(mode="inline", cache=ResultCache(None))
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def profile(engine):
    return calibrate_analytic(engine=engine)


@pytest.fixture(scope="module")
def synthetic_trace():
    spec = default_analytic_suite()[0]  # synthetic, 8 threads
    program = get_workload(spec.name).make_program(
        spec.threads, spec.scale, seed=spec.seed
    )
    return record_program(program, overhead_us=spec.probe_overhead_us).trace


@pytest.fixture(scope="module")
def synthetic_stats(synthetic_trace):
    return extract_stats(synthetic_trace)


@pytest.fixture(scope="module")
def grid_manifest(synthetic_trace, tmp_path_factory):
    log = tmp_path_factory.mktemp("analytic") / "synthetic.log"
    logfile.dump(synthetic_trace, log)
    return SweepManifest.from_dict(
        {
            "trace": str(log),
            "cpus": [1, 2, 4, 8],
            "bindings": ["unbound", "bound"],
            "schedulers": ["solaris", "cfs"],
        }
    )


# ---------------------------------------------------------------------------
# TraceStats extraction
# ---------------------------------------------------------------------------


class TestTraceStats:
    def test_decomposition_totals(self, synthetic_trace, synthetic_stats):
        s = synthetic_stats
        assert s.n_threads == len(synthetic_trace.thread_ids())
        assert s.n_events == len(synthetic_trace)
        assert s.duration_us == synthetic_trace.duration_us
        assert s.compute_us > 0
        assert s.busy_us == s.compute_us + s.sync_us + s.io_us + s.overhead_us
        assert s.compute_us == sum(t.compute_us for t in s.threads)
        assert 0 <= s.span_us <= s.compute_us
        assert 0 <= s.serial_us <= s.duration_us
        assert 0.0 <= s.compute_ratio <= 1.0

    def test_fork_join_counts(self):
        trace = record_program(make_fig2_program()).trace
        s = extract_stats(trace)
        assert s.forks == 2
        assert s.joins == 2
        assert s.n_threads == 3
        assert s.locks == ()  # fig2 has no lock objects

    def test_roundtrip_and_fingerprint(self, synthetic_stats):
        clone = TraceStats.from_dict(synthetic_stats.to_dict())
        assert clone == synthetic_stats
        assert clone.fingerprint() == synthetic_stats.fingerprint()
        other = extract_stats(record_program(make_fig2_program()).trace)
        assert other.fingerprint() != synthetic_stats.fingerprint()

    def test_lock_profiles_ordered_and_sane(self, synthetic_stats):
        names = [(l.kind, l.name) for l in synthetic_stats.locks]
        assert names == sorted(names)
        for lock in synthetic_stats.locks:
            assert lock.acquisitions >= lock.contended >= 0
            assert lock.held_us >= lock.max_held_us >= 0


# ---------------------------------------------------------------------------
# closed-form models + margin keys
# ---------------------------------------------------------------------------


class TestModels:
    def test_margin_key_chain_most_specific_first(self, synthetic_stats):
        config = SimConfig(cpus=4, scheduler="cfs")
        keys = margin_key_for(synthetic_stats, config)
        cls = trace_class(synthetic_stats)
        assert keys[0] == f"{cls}/cfs/unbound/4cpu"
        assert keys[-1] == "default"
        assert len(keys) == len(set(keys)) == 6

    def test_trace_class_buckets(self, synthetic_stats):
        fig2 = extract_stats(record_program(make_fig2_program()).trace)
        assert trace_class(fig2) == "lock-free"
        assert trace_class(synthetic_stats) in (
            "lock-free", "lock-light", "lock-heavy",
        )

    def test_model_points_positive(self, synthetic_stats):
        points = model_points(synthetic_stats, SimConfig(cpus=4))
        assert set(points) == set(MODEL_NAMES)
        assert all(p > 0 for p in points.values())

    def test_estimate_interval_contains_point(self, synthetic_stats, profile):
        for cpus in (1, 2, 8):
            interval = estimate_makespan(
                synthetic_stats, SimConfig(cpus=cpus), profile
            )
            assert 0 < interval.lo_us <= interval.point_us <= interval.hi_us
            assert interval.brackets(interval.point_us)
            assert not interval.brackets(interval.hi_us + 1)


# ---------------------------------------------------------------------------
# calibration artifact + the bracketing property
# ---------------------------------------------------------------------------


class TestCalibration:
    def test_intervals_bracket_des_on_entire_suite(self, profile, engine):
        # the property behind the tier: every suite workload, every
        # cpus x binding x scheduler cell, DES inside [lo, hi]
        assert verify_profile(profile, engine=engine) == []

    def test_committed_profile_is_sound(self, engine):
        from repro.analytic.profile import default_profile_path

        path = default_profile_path()
        if path is None:
            pytest.skip("no committed profiles/analytic.json")
        committed = AnalyticProfile.load(path)
        assert verify_profile(committed, engine=engine) == []

    def test_profile_roundtrip(self, profile, tmp_path):
        saved = profile.save(tmp_path / "analytic.json")
        loaded = AnalyticProfile.load(saved)
        assert loaded.to_dict() == profile.to_dict()
        assert loaded.fingerprint() == profile.fingerprint()

    def test_committed_profile_fingerprint_pinned_and_hashed_once(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "profiles" / "analytic.json"
        profile = AnalyticProfile.load(path)
        dumps = []
        to_dict = AnalyticProfile.to_dict
        monkeypatch.setattr(
            AnalyticProfile, "to_dict", lambda self: dumps.append(1) or to_dict(self)
        )
        for _ in range(3):
            assert profile.fingerprint() == (
                "42bc41d6afc5cb3c02b5b9e60ea4f041826a9837fc2d8cb6b94a6c5cef9c85b5"
            )
        assert len(dumps) == 1

    def test_fingerprint_tracks_content(self, profile):
        data = profile.to_dict()
        data["pad"] = 0.5
        assert AnalyticProfile.from_dict(data).fingerprint() != profile.fingerprint()

    def test_bad_profiles_rejected(self, profile):
        data = profile.to_dict()
        del data["margins"]["default"]
        with pytest.raises(CalibrationError):
            AnalyticProfile.from_dict(data)
        with pytest.raises(CalibrationError):
            calibrate_analytic(pad=-0.1)


# ---------------------------------------------------------------------------
# tiering policy units
# ---------------------------------------------------------------------------


def _cell(label, cpus, lo, hi, *, group="g", exact=False):
    point = (lo + hi) // 2
    return TierCell(
        label=label, group=group, cpus=cpus,
        lo_us=lo, hi_us=hi, point_us=point, exact=exact,
    )


class TestTieringPolicy:
    def test_clear_loser_stays_analytic(self):
        cells = [
            _cell("2cpu", 2, 480, 520),   # speedup <= 2.08
            _cell("8cpu", 8, 120, 130),   # speedup >= 7.7: sole contender
        ]
        escalated = escalation_labels(cells, 1000)
        assert "8cpu" in escalated
        # 2cpu is below every knee threshold too? its hi_sp 2.08 vs
        # knee_lo 0.8*(1000/130)=6.15 -> decidedly below, stays analytic
        assert "2cpu" not in escalated

    def test_overlapping_contenders_both_escalate(self):
        cells = [_cell("a", 4, 200, 300), _cell("b", 8, 250, 350)]
        assert set(escalation_labels(cells, 1000)) == {"a", "b"}

    def test_exact_cells_never_escalate(self):
        cells = [_cell("a", 4, 250, 250, exact=True), _cell("b", 8, 200, 300)]
        assert escalation_labels(cells, 1000) == ["b"]

    def test_unusable_baseline_escalates_everything(self):
        cells = [_cell("a", 2, 400, 500), _cell("b", 4, 200, 300, exact=True)]
        assert escalation_labels(cells, 0) == ["a"]

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            escalation_labels([_cell("a", 2, 1, 2)], 10, target_fraction=1.5)

    def test_decide_best_and_knee(self):
        cells = [
            _cell("1cpu", 1, 1000, 1000, exact=True),
            _cell("2cpu", 2, 520, 540),
            _cell("4cpu", 4, 260, 280, exact=True),
        ]
        decisions = decide(cells, 1000)
        assert decisions["best"] == "4cpu"
        # 2cpu's point speedup ~1.89 >= 0.8 * best (~2.96) ? 2.37 -> no;
        # knee is the smallest cpus reaching the threshold: 4
        assert decisions["knees"] == {"g": 4}
        assert decide(cells, None) == {}
        assert decide([], 1000) == {}


# ---------------------------------------------------------------------------
# tier equivalence on a real grid (the subsystem's contract)
# ---------------------------------------------------------------------------


class TestTierEquivalence:
    @pytest.fixture(scope="class")
    def reports(self, grid_manifest, profile, engine):
        sim = run_manifest(grid_manifest, engine, tier="sim")
        auto = run_manifest(
            grid_manifest, engine, tier="auto", analytic_profile=profile
        )
        analytic = run_manifest(
            grid_manifest, engine, tier="analytic", analytic_profile=profile
        )
        return sim, auto, analytic

    def test_decisions_identical_across_tiers(self, reports):
        sim, auto, analytic = reports
        assert sim.decisions  # non-trivial grid
        assert auto.decisions == sim.decisions
        # analytic-only: same best cell and knees; best_speedup is the
        # model's point estimate, so only the *labels* are guaranteed
        assert analytic.decisions["best"] == sim.decisions["best"]
        assert analytic.decisions["knees"] == sim.decisions["knees"]

    def test_escalated_cells_match_simulation_exactly(self, reports):
        sim, auto, _ = reports
        sim_by_label = {s.label: s for s in sim.scenarios}
        for s in auto.scenarios:
            if s.tier == "escalated":
                assert s.outcome.makespan_us == sim_by_label[s.label].outcome.makespan_us

    def test_intervals_bracket_simulated_makespans(self, reports):
        sim, auto, _ = reports
        sim_by_label = {s.label: s for s in sim.scenarios}
        for s in auto.scenarios:
            assert s.interval is not None
            lo, hi = s.interval
            assert lo <= sim_by_label[s.label].outcome.makespan_us <= hi

    def test_escalation_stays_under_the_budget(self, reports):
        _, auto, _ = reports
        escalated = sum(1 for s in auto.scenarios if s.tier == "escalated")
        assert escalated / len(auto.scenarios) <= 0.30

    def test_auto_is_deterministic(self, grid_manifest, profile, engine, reports):
        _, auto, _ = reports
        again = run_manifest(
            grid_manifest, engine, tier="auto", analytic_profile=profile
        )
        assert [s.tier for s in again.scenarios] == [s.tier for s in auto.scenarios]
        assert again.decisions == auto.decisions

    def test_report_surfaces_tier_column_and_footer(self, reports):
        _, auto, _ = reports
        table = auto.format_table()
        assert "tier" in table.splitlines()[1]
        assert "answered analytically" in table
        assert "decisions: best" in table
        payload = json.loads(auto.to_json())
        assert payload["tier"] == "auto"
        assert payload["decisions"] == auto.decisions
        assert all("tier" in s for s in payload["scenarios"])

    def test_tier_validation(self, grid_manifest, engine, profile):
        from repro.core.errors import AnalysisError

        with pytest.raises(AnalysisError, match="unknown tier"):
            run_manifest(grid_manifest, engine, tier="psychic")
        with pytest.raises(AnalysisError, match="analytic profile"):
            run_manifest(grid_manifest, engine, tier="auto")


# ---------------------------------------------------------------------------
# partial replays: never a speed-up, never a decision
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def racy_log(tmp_path_factory):
    from repro.workloads.prodcons import make_racy

    path = tmp_path_factory.mktemp("racy") / "racy.log"
    logfile.dump(record_program(make_racy()).trace, path)
    return path


class TestPartialReplays:
    """The racy producer/consumer deadlocks on almost every multi-CPU
    cell; a deadlocked cell's makespan is only the simulated time
    reached, so it must never win the grid or set a knee."""

    @pytest.fixture(scope="class")
    def reports(self, racy_log, profile, engine):
        manifest = SweepManifest.from_dict(
            {
                "trace": str(racy_log),
                "cpus": {"min": 1, "max": 8},
                "bindings": ["unbound", "bound"],
                "schedulers": ["solaris", "cfs", "clutch"],
            }
        )
        sim = run_manifest(manifest, engine, tier="sim")
        auto = run_manifest(manifest, engine, tier="auto", analytic_profile=profile)
        return sim, auto

    def test_partial_cells_get_no_speedup(self, reports):
        for report in reports:
            partial = [s for s in report.scenarios if not s.outcome.complete]
            assert len(partial) > len(report.scenarios) // 2
            assert all(s.speedup is None for s in partial)

    def test_decisions_come_from_complete_replays(self, reports):
        sim, auto = reports
        assert sim.decisions["best"] == "1cpu/unbound"
        assert sim.decisions["best_speedup"] < 2.0
        assert auto.decisions == sim.decisions

    def test_auto_replays_every_cell_once_an_escalation_deadlocks(self, reports):
        _, auto = reports
        assert {s.tier for s in auto.scenarios} == {"escalated"}


# ---------------------------------------------------------------------------
# analytic answers in run_grid: content addressing, cache, cost, failure
# ---------------------------------------------------------------------------

def _fresh_engine():
    return JobEngine(mode="inline", cache=ResultCache(None))


def _analytic_grid(engine, trace, profile, **kw):
    return run_grid(
        engine,
        TraceRef.from_trace(trace),
        curve_cells(SimConfig(), [2, 4]),
        tier="analytic",
        trace=trace,
        analytic_profile=profile,
        **kw,
    )


def _answers(grid):
    return [
        {k: v for k, v in s.outcome.to_dict().items() if k not in VOLATILE}
        for s in grid.scenarios
    ]


class TestAnalyticJobs:
    def test_fingerprint_rekeys_on_profile_change(self, synthetic_trace, profile):
        ref = TraceRef.from_trace(synthetic_trace)
        config = SimConfig(cpus=4)
        address = analytic_job_fingerprint(ref.fingerprint, config, profile.fingerprint())
        data = profile.to_dict()
        data["pad"] = 0.5
        recalibrated = AnalyticProfile.from_dict(data)
        assert address != analytic_job_fingerprint(
            ref.fingerprint, config, recalibrated.fingerprint()
        )
        assert address != SimJob(trace=ref, config=config).fingerprint

    def test_grid_answers_with_interval_payload(self, synthetic_trace, profile):
        eng = _fresh_engine()
        grid = _analytic_grid(eng, synthetic_trace, profile)
        stats_fp = extract_stats(synthetic_trace).fingerprint()
        for s in grid.scenarios:
            outcome = s.outcome
            assert outcome.ok and outcome.complete and not outcome.from_cache
            assert outcome.payload["kind"] == "analytic"
            assert outcome.payload["stats_fingerprint"] == stats_fp
            lo, hi = outcome.payload["lo_us"], outcome.payload["hi_us"]
            assert (lo, hi) == s.interval
            assert lo <= outcome.makespan_us <= hi
            assert outcome.engine_events == 0
        warm = _analytic_grid(eng, synthetic_trace, profile)
        assert all(s.outcome.from_cache for s in warm.scenarios)
        assert _answers(warm) == _answers(grid)
        # analytic answers are not engine jobs: only the baseline ran
        assert "analytic" not in eng.snapshot()["kinds"]
        assert eng.metrics.jobs_submitted == 1

    def test_inline_pooled_and_warm_answers_agree(self, synthetic_trace, profile):
        inline = _analytic_grid(_fresh_engine(), synthetic_trace, profile, use_cache=False)
        with JobEngine(workers=2) as pooled:
            pool = _analytic_grid(pooled, synthetic_trace, profile)
            warm = _analytic_grid(pooled, synthetic_trace, profile)
        assert all(s.outcome.from_cache for s in warm.scenarios)
        assert not any(s.outcome.from_cache for s in pool.scenarios)
        assert _answers(inline) == _answers(pool) == _answers(warm)
        assert [s.interval for s in pool.scenarios] == [s.interval for s in warm.scenarios]

    def test_auto_grid_submits_only_replays(self, grid_manifest, profile):
        eng = _fresh_engine()
        report = run_manifest(grid_manifest, eng, tier="auto", analytic_profile=profile)
        escalated = sum(1 for s in report.scenarios if s.tier == "escalated")
        assert 0 < escalated < len(report.scenarios)
        # one baseline plus one replay per escalated cell; no analytic jobs
        assert eng.snapshot()["jobs_submitted"] == 1 + escalated
        assert set(eng.snapshot()["kinds"]) == {"sim"}

    def test_stats_extracted_once_cold_and_never_warm(
        self, grid_manifest, profile, monkeypatch
    ):
        from repro.analytic import stats as trace_stats

        calls = []
        extract = trace_stats.extract_stats

        def counted(trace):
            calls.append(trace)
            return extract(trace)

        monkeypatch.setattr(trace_stats, "extract_stats", counted)
        eng = _fresh_engine()
        cold = run_manifest(grid_manifest, eng, tier="auto", analytic_profile=profile)
        assert len(calls) == 1
        warm = run_manifest(grid_manifest, eng, tier="auto", analytic_profile=profile)
        assert len(calls) == 1
        assert warm.decisions == cold.decisions
        assert all(s.outcome.from_cache for s in warm.scenarios)

    def test_failed_estimate_fails_its_cell_and_escalates(
        self, grid_manifest, profile, engine, monkeypatch
    ):
        from repro.analytic import models
        from repro.core.errors import AnalysisError

        estimate = models.estimate_makespan

        def flaky(stats, config, profile):
            if config.cpus == 4 and config.scheduler == "cfs":
                raise AnalysisError("no estimate for 4 CFS CPUs")
            return estimate(stats, config, profile)

        monkeypatch.setattr(models, "estimate_makespan", flaky)
        broken = {"4cpu/unbound/cfs", "4cpu/bound/cfs"}

        eng = _fresh_engine()
        analytic = run_manifest(grid_manifest, eng, tier="analytic", analytic_profile=profile)
        failed = {s.label: s for s in analytic.scenarios if not s.outcome.ok}
        assert set(failed) == broken
        for s in failed.values():
            assert s.outcome.status == JobOutcome.FAILED
            assert s.outcome.error == "AnalysisError: no estimate for 4 CFS CPUs"
            assert s.interval is None and s.speedup is None
            assert eng.cache.get(s.outcome.fingerprint) is None  # never cached

        auto = run_manifest(grid_manifest, eng, tier="auto", analytic_profile=profile)
        sim = run_manifest(grid_manifest, engine, tier="sim")
        tiers = {s.label: s.tier for s in auto.scenarios}
        assert all(tiers[label] == "escalated" for label in broken)
        assert all(s.outcome.complete for s in auto.scenarios)
        assert auto.decisions == sim.decisions


# ---------------------------------------------------------------------------
# service + CLI surfaces
# ---------------------------------------------------------------------------


class TestServiceTier:
    @pytest.fixture()
    def service(self, profile):
        from repro.jobs.service import PredictionService

        eng = JobEngine(mode="inline", cache=ResultCache(None))
        svc = PredictionService(eng)
        svc._analytic_profile = profile  # skip disk resolution
        yield svc
        eng.close()

    def test_auto_matches_sim_decisions(self, service, synthetic_trace):
        log = logfile.dumps(synthetic_trace)
        sim = service.predict({"log": log, "cpus": [2, 4, 8]})
        auto = service.predict({"log": log, "cpus": [2, 4, 8], "tier": "auto"})
        assert auto["tier"] == "auto"
        best = max(sim["predictions"], key=lambda p: p["speedup"])
        assert auto["decisions"]["best"] == f"{best['cpus']}cpu"
        tiers = {p["cpus"]: p["tier"] for p in auto["predictions"]}
        assert set(tiers.values()) <= {"analytic", "escalated"}
        for p in auto["predictions"]:
            lo, hi = p["interval"]
            sim_p = next(s for s in sim["predictions"] if s["cpus"] == p["cpus"])
            assert lo <= sim_p["makespan_us"] <= hi
        snapshot = service.engine.snapshot()
        assert snapshot["analytic_hits"] + snapshot["escalations"] == 3

    @pytest.mark.parametrize("tier", ["sim", "auto"])
    def test_predict_matches_batch_on_the_same_grid(
        self, service, engine, profile, grid_manifest, tier
    ):
        manifest = SweepManifest.from_dict(
            {
                "trace": str(grid_manifest.trace_path),
                "cpus": [1, 2, 4, 8],
                "bindings": ["bound"],
                "schedulers": ["cfs"],
                "comm_delay_us": [50],
            }
        )
        report = run_manifest(
            manifest,
            engine,
            tier=tier,
            analytic_profile=profile if tier != "sim" else None,
        )
        body = service.predict(
            {
                "log": grid_manifest.trace_path.read_text(),
                "cpus": [1, 2, 4, 8],
                "binding": "bound",
                "scheduler": "cfs",
                "comm_delay_us": 50,
                "tier": tier,
            }
        )
        assert [
            (p["cpus"], p["makespan_us"], p["speedup"]) for p in body["predictions"]
        ] == [
            (s.cpus, s.outcome.makespan_us, round(s.speedup, 6))
            for s in report.scenarios
        ]

    @pytest.mark.parametrize("tier", ["sim", "auto"])
    @pytest.mark.parametrize("deadline_s", [None, 60.0])
    def test_deadlocked_cell_is_422_with_or_without_deadline(
        self, service, racy_log, tier, deadline_s
    ):
        from repro.jobs.service import ServiceError

        with pytest.raises(ServiceError) as err:
            service.predict(
                {"log": racy_log.read_text(), "cpus": [2], "tier": tier},
                deadline_s=deadline_s,
            )
        assert err.value.status == 422
        assert "2cpu: deadlock" in err.value.message
        assert service.deadline_timeouts == 0

    def test_one_shot_and_uploaded_logs_share_stats(
        self, profile, synthetic_trace, tmp_path
    ):
        from repro.jobs.service import PredictionService
        from repro.recorder.salvage import salvage_loads

        # CRLF line ends: neither path sees the canonical bytes it hashes
        raw = logfile.dumps(synthetic_trace).replace("\n", "\r\n")
        seen = []
        for upload in (False, True):
            eng = _fresh_engine()
            svc = PredictionService(eng, spool_dir=tmp_path / f"spool-{upload}")
            svc._analytic_profile = profile
            request = {"cpus": [2, 4, 8], "tier": "auto"}
            if upload:
                request["trace"] = svc.store_salvaged(salvage_loads(raw))["trace"]
            else:
                request["log"] = raw
            body = svc.predict(request)
            answer = eng.cache.get(
                analytic_job_fingerprint(
                    body["trace"], SimConfig(cpus=2), profile.fingerprint()
                )
            )
            seen.append((body["trace"], answer.payload["stats_fingerprint"]))
            eng.close()
        assert seen[0] == seen[1]

    def test_bad_tier_and_target_rejected(self, service, synthetic_trace):
        from repro.jobs.service import ServiceError

        log = logfile.dumps(synthetic_trace)
        with pytest.raises(ServiceError) as err:
            service.predict({"log": log, "tier": "psychic"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            service.predict({"log": log, "tier": "auto", "target": 7})
        assert err.value.status == 400

    def test_missing_profile_is_a_client_error(self, service, synthetic_trace):
        from repro.jobs.service import ServiceError

        service._analytic_profile = None
        with pytest.raises(ServiceError) as err:
            service.predict(
                {"log": logfile.dumps(synthetic_trace), "tier": "analytic"}
            )
        assert err.value.status == 400
        assert "calibrate-analytic" in err.value.message


class TestCLI:
    def test_stats_json_dumps_trace_stats(self, synthetic_trace, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "t.log"
        logfile.dump(synthetic_trace, log)
        assert main(["stats", str(log), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_threads"] == len(synthetic_trace.thread_ids())
        assert payload["stats_version"] >= 1

    def test_batch_tier_auto(self, synthetic_trace, profile, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "t.log"
        logfile.dump(synthetic_trace, log)
        (tmp_path / "sweep.json").write_text(
            json.dumps({"trace": str(log), "cpus": [1, 4]})
        )
        profile_path = profile.save(tmp_path / "analytic.json")
        code = main(
            [
                "batch", str(tmp_path / "sweep.json"), "--inline", "--no-cache",
                "--tier", "auto", "--analytic-profile", str(profile_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tier" in out and "decisions: best" in out

    def test_batch_unknown_manifest_key_names_it(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "sweep.json").write_text(
            json.dumps({"trace": "x.log", "scheduler": ["solaris"]})
        )
        assert main(["batch", str(tmp_path / "sweep.json")]) == 2
        err = capsys.readouterr().err
        assert "scheduler" in err and "did you mean 'schedulers'" in err
