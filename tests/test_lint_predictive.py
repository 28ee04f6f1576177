"""Differential tests for the predictive-lint stack.

Four layers: the happens-before severity tiers on synthetic logs (the
Eraser false positive is gone, the mutex hand-off downgrade works, true
races stay errors), witness synthesis + replay (every HB-confirmed
hazard replays to its claimed outcome), the ``--whatif`` grid (manifestation tagging,
ResultCache reuse, metrics), and the user surfaces (CLI baseline and
salvage flows, the HTTP ``/lint`` endpoint on both front ends).
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import record_program
from repro.analysis.lint import (
    Severity,
    find_witness,
    replay_witness,
    run_lint,
    whatif_lint,
)
from repro.cli import main as cli_main
from repro.jobs import (
    JobEngine,
    ResultCache,
    SimJob,
    SweepManifest,
    TraceRef,
)
from repro.jobs.model import JobOutcome
from repro.jobs.service import PredictionService
from repro.jobs.service_async import BackgroundServer
from repro.recorder import logfile
from repro.recorder.salvage import salvage_loads
from repro.workloads.prodcons import make_clean, make_racy

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

_HEADER = "# vppb-log 1\n# program: synthetic\n# probe-overhead-us: 1\n"


def _log(*records: str) -> str:
    return _HEADER + "\n".join(records) + "\n"


def _spawn(t_us: int, target: int) -> list:
    return [
        f"0.{t_us:06d} T1 call thr_create",
        f"0.{t_us + 1:06d} T1 ret thr_create target=T{target} status=ok",
    ]


# Two threads each spend ~500us writing var:x with no lock.  At one CPU
# the bodies serialise; at two they overlap in wall-clock — the minimal
# "manifests only on a multiprocessor" fixture (the paper's premise).
_OVERLAP_RACE = _log(
    *_spawn(10, 2),
    *_spawn(12, 3),
    "0.000100 T2 call shared_write obj=var:x src=a.c|5|w",
    "0.000101 T2 ret shared_write obj=var:x status=ok src=a.c|5|w",
    "0.000600 T2 call shared_write obj=var:x src=a.c|6|w",
    "0.000601 T2 ret shared_write obj=var:x status=ok src=a.c|6|w",
    "0.000150 T3 call shared_write obj=var:x src=a.c|9|w",
    "0.000151 T3 ret shared_write obj=var:x status=ok src=a.c|9|w",
    "0.000650 T3 call shared_write obj=var:x src=a.c|10|w",
    "0.000651 T3 ret shared_write obj=var:x status=ok src=a.c|10|w",
)


@pytest.fixture(scope="module")
def racy_trace():
    return record_program(make_racy()).trace


@pytest.fixture(scope="module")
def racy_report(racy_trace):
    return run_lint(racy_trace)


@pytest.fixture()
def inline_engine(tmp_path):
    engine = JobEngine(mode="inline", cache=ResultCache(str(tmp_path / "cache")))
    with engine:
        yield engine


# ---------------------------------------------------------------------------
# happens-before severity tiers
# ---------------------------------------------------------------------------


class TestHappensBeforeTiers:
    def test_forkjoin_ordered_access_is_suppressed(self):
        # T2 writes, main joins it, then spawns T3 which writes: the
        # lockset gates (no common lock) but fork/join orders the pair —
        # the classic Eraser false positive must yield NO finding.
        text = _log(
            *_spawn(10, 2),
            "0.000020 T2 call shared_write obj=var:x src=a.c|5|w",
            "0.000021 T2 ret shared_write obj=var:x status=ok src=a.c|5|w",
            "0.000030 T1 call thr_join target=T2",
            "0.000031 T1 ret thr_join target=T2 status=ok",
            *_spawn(40, 3),
            "0.000050 T3 call shared_write obj=var:x src=a.c|9|w",
            "0.000051 T3 ret shared_write obj=var:x status=ok src=a.c|9|w",
        )
        report = run_lint(logfile.loads(text))
        assert not report.by_rule("VPPB-R001")

    def test_mutex_handoff_downgrades_to_warning_without_witness(self):
        # the writes are unlocked, but T2's unlock of m happens before
        # T3's lock of m: this run's hand-off ordered them.  Fragile,
        # not proven concurrent — warning, and no witness schedule.
        text = _log(
            *_spawn(10, 2),
            *_spawn(12, 3),
            "0.000020 T2 call shared_write obj=var:x src=a.c|5|w",
            "0.000021 T2 ret shared_write obj=var:x status=ok src=a.c|5|w",
            "0.000022 T2 call mutex_lock obj=mutex:m",
            "0.000023 T2 ret mutex_lock obj=mutex:m status=ok",
            "0.000024 T2 call mutex_unlock obj=mutex:m",
            "0.000025 T2 ret mutex_unlock obj=mutex:m status=ok",
            "0.000030 T3 call mutex_lock obj=mutex:m",
            "0.000031 T3 ret mutex_lock obj=mutex:m status=ok",
            "0.000032 T3 call mutex_unlock obj=mutex:m",
            "0.000033 T3 ret mutex_unlock obj=mutex:m status=ok",
            "0.000040 T3 call shared_write obj=var:x src=a.c|9|w",
            "0.000041 T3 ret shared_write obj=var:x status=ok src=a.c|9|w",
        )
        report = run_lint(logfile.loads(text))
        races = report.by_rule("VPPB-R001")
        assert len(races) == 1
        assert races[0].severity is Severity.WARNING
        assert races[0].witness is None

    def test_concurrent_race_is_error_with_witness(self):
        report = run_lint(logfile.loads(_OVERLAP_RACE))
        races = report.by_rule("VPPB-R001")
        assert len(races) == 1
        f = races[0]
        assert f.severity is Severity.ERROR
        assert f.witness is not None
        assert f.witness["kind"] == "race"
        assert len(f.witness["digest"]) == 64
        assert f.witness["digest"][:12] in f.witness["replay"]

    def test_all_seeded_hazards_are_errors_with_witnesses(self, racy_report):
        errors = [f for f in racy_report if f.severity is Severity.ERROR]
        assert {f.rule_id for f in errors} == {"VPPB-R001", "VPPB-R002"}
        for f in errors:
            assert f.witness is not None, f.rule_id

    def test_clean_fixture_has_no_findings(self):
        trace = record_program(make_clean()).trace
        assert len(run_lint(trace)) == 0


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------


class TestWitnessReplay:
    def test_race_witness_exhibits_the_inversion(self, racy_trace, racy_report):
        f = racy_report.by_rule("VPPB-R001")[0]
        witness = find_witness(racy_report, f.witness["digest"][:12])
        assert witness is not None and witness.kind == "race"
        replay = replay_witness(racy_trace, witness)
        assert replay.exhibited, replay.detail

    def test_deadlock_witness_exhibits_the_deadlock(
        self, racy_trace, racy_report
    ):
        f = racy_report.by_rule("VPPB-R002")[0]
        witness = find_witness(racy_report, f.witness["digest"][:12])
        assert witness is not None and witness.kind == "deadlock"
        assert witness.cpus >= 2
        replay = replay_witness(racy_trace, witness)
        assert replay.exhibited, replay.detail
        assert replay.status.value == "deadlock"

    def test_unknown_digest_resolves_to_none(self, racy_report):
        assert find_witness(racy_report, "ffffffffffff") is None


# ---------------------------------------------------------------------------
# the --whatif grid
# ---------------------------------------------------------------------------


class TestWhatifGrid:
    def test_deadlock_manifests_only_on_multiprocessor(
        self, racy_trace, racy_report, inline_engine
    ):
        manifest = SweepManifest.from_dict({"trace": "x.log", "cpus": [1, 2, 4]})
        res = whatif_lint(
            racy_trace, manifest, report=racy_report, engine=inline_engine
        )
        r002 = res.report.by_rule("VPPB-R002")[0]
        assert r002.manifests == ("2cpu/unbound", "4cpu/unbound")
        assert "VPPB-R002" in {f.rule_id for f in res.predicted_only}
        by_label = {c.label: c for c in res.cells}
        assert by_label["1cpu/unbound"].replay_status == "complete"
        assert by_label["2cpu/unbound"].replay_status == "deadlock"

    def test_race_manifests_only_on_multiprocessor(self, inline_engine):
        trace = logfile.loads(_OVERLAP_RACE)
        manifest = SweepManifest.from_dict({"trace": "x.log", "cpus": [1, 2]})
        res = whatif_lint(trace, manifest, engine=inline_engine)
        r001 = res.report.by_rule("VPPB-R001")[0]
        assert r001.manifests == ("2cpu/unbound",)
        assert [f.rule_id for f in res.predicted_only] == ["VPPB-R001"]

    def test_grid_rerun_hits_the_result_cache(
        self, racy_trace, racy_report, inline_engine
    ):
        manifest = SweepManifest.from_dict({"trace": "x.log", "cpus": [1, 2]})
        cold = whatif_lint(
            racy_trace, manifest, report=racy_report, engine=inline_engine
        )
        assert all(not c.from_cache for c in cold.cells)
        warm = whatif_lint(
            racy_trace, manifest, report=racy_report, engine=inline_engine
        )
        assert all(c.from_cache for c in warm.cells)
        # probes ran once per cell, and the metric counted them
        assert inline_engine.metrics.snapshot()["kinds"]["lint"]["jobs"] == 2
        # identical verdicts either way
        assert [c.replay_status for c in cold.cells] == [
            c.replay_status for c in warm.cells
        ]

    def test_unprobed_rules_stay_untagged(self, racy_trace, inline_engine):
        manifest = SweepManifest.from_dict({"trace": "x.log", "cpus": [1]})
        res = whatif_lint(racy_trace, manifest, engine=inline_engine)
        for f in res.report:
            if f.rule_id not in ("VPPB-R001", "VPPB-R002"):
                assert f.manifests is None

    def test_to_dict_carries_grid_and_report(self, racy_trace, inline_engine):
        manifest = SweepManifest.from_dict({"trace": "x.log", "cpus": [1]})
        res = whatif_lint(racy_trace, manifest, engine=inline_engine)
        data = res.to_dict()
        assert [c["label"] for c in data["grid"]] == ["1cpu/unbound"]
        assert data["report"]["findings"]


# ---------------------------------------------------------------------------
# lint jobs: fingerprints and cached payloads
# ---------------------------------------------------------------------------


class TestLintJobs:
    def test_lint_and_sim_fingerprints_differ(self, racy_trace, tmp_path):
        path = tmp_path / "racy.log"
        logfile.dump(racy_trace, path)
        ref = TraceRef.from_path(path)
        manifest = SweepManifest.from_dict({"trace": "x.log", "cpus": [2]})
        config = list(manifest.configs(racy_trace))[0].config
        lint_job = SimJob(trace=ref, config=config, kind="lint")
        sim_job = SimJob(trace=ref, config=config)
        assert lint_job.kind == "lint" and sim_job.kind == "sim"
        assert lint_job.fingerprint != sim_job.fingerprint

    def test_probe_payload_round_trips_through_disk_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = JobOutcome(
            fingerprint="f" * 64,
            status="complete",
            makespan_us=1,
            payload={"kind": "lint", "manifested": {"a" * 64: True}},
        )
        cache.put(outcome)
        back = cache.get("f" * 64)
        assert back is not None
        assert back.payload == outcome.payload


# ---------------------------------------------------------------------------
# salvage + baseline + fingerprint stability (CLI)
# ---------------------------------------------------------------------------


class TestSalvageAndBaseline:
    def test_salvaged_trace_gains_incomplete_input_note(self, racy_trace):
        text = logfile.dumps(racy_trace)
        lines = text.splitlines(True)
        damaged = "".join(lines[:-10]) + "this line is not a record\n"
        result = salvage_loads(damaged)
        report = run_lint(result.trace, salvage=result.report)
        notes = report.by_rule("VPPB-R010")
        assert len(notes) == 1
        assert notes[0].severity is Severity.NOTE
        # pristine input: no note
        assert not run_lint(
            salvage_loads(text).trace, salvage=salvage_loads(text).report
        ).by_rule("VPPB-R010")

    def test_cli_lints_damaged_log_and_strict_parse_refuses(
        self, racy_trace, tmp_path, capsys
    ):
        damaged = tmp_path / "damaged.log"
        damaged.write_text(
            logfile.dumps(racy_trace) + "garbage that is not a record\n"
        )
        rc = cli_main(["lint", str(damaged)])
        captured = capsys.readouterr()
        assert rc == 1  # planted errors still found
        assert "salvaged input" in captured.err
        assert "VPPB-R010" in captured.out
        assert cli_main(["lint", str(damaged), "--strict-parse"]) == 2

    def test_cli_baseline_suppresses_known_findings(
        self, racy_trace, tmp_path, capsys
    ):
        log = tmp_path / "racy.log"
        logfile.dump(racy_trace, log)
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", str(log), "--format", "json", "--output", str(baseline)]
            )
            == 1
        )
        capsys.readouterr()
        # every finding is in the baseline: exit 0
        assert cli_main(["lint", str(log), "--baseline", str(baseline)]) == 0
        captured = capsys.readouterr()
        assert "suppressed" in captured.err

    def test_fingerprints_stable_across_rerecording(self, racy_report):
        again = run_lint(record_program(make_racy()).trace)
        assert {f.fingerprint() for f in racy_report} == {
            f.fingerprint() for f in again
        }

    def test_sarif_carries_partial_fingerprints(self, racy_report):
        from repro.analysis.lint import to_sarif

        results = to_sarif(racy_report)["runs"][0]["results"]
        assert results
        for result in results:
            fp = result["partialFingerprints"]["vppbFingerprint/v2"]
            assert len(fp) == 64


# ---------------------------------------------------------------------------
# the /lint service endpoint over HTTP
# ---------------------------------------------------------------------------


def _request(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=body.encode() if isinstance(body, str) else body,
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestServiceLint:
    @pytest.fixture()
    def service(self):
        engine = JobEngine(mode="inline")
        svc = PredictionService(engine)
        try:
            yield svc
        finally:
            engine.close()

    def test_server_lints_with_whatif(self, service, racy_trace):
        log_text = logfile.dumps(racy_trace)
        with BackgroundServer(service) as bg:
            status, body = _request(
                bg.port,
                "POST",
                "/lint",
                json.dumps({"log": log_text, "whatif": {"cpus": [1, 2]}}),
            )
            assert status == 200
            assert {f["rule_id"] for f in body["findings"]} >= {
                "VPPB-R001",
                "VPPB-R002",
            }
            assert [c["label"] for c in body["grid"]] == [
                "1cpu/unbound",
                "2cpu/unbound",
            ]
            by_rule = {f["rule_id"]: f for f in body["findings"]}
            assert by_rule["VPPB-R002"]["manifests"] == ["2cpu/unbound"]
            status, metrics = _request(bg.port, "GET", "/metrics")
            assert metrics["service"]["lint_requests"] == 1
            assert metrics["kinds"]["lint"]["jobs"] == 2

    def test_async_server_lints_and_rejects_bad_log(self, service, racy_trace):
        log_text = logfile.dumps(racy_trace)
        with BackgroundServer(service) as bg:
            status, body = _request(
                bg.port, "POST", "/lint", json.dumps({"log": log_text})
            )
            assert status == 200
            assert any(
                f["rule_id"] == "VPPB-R001" and f["witness"]
                for f in body["findings"]
            )
            status, body = _request(
                bg.port, "POST", "/lint", json.dumps({"log": "garbage"})
            )
            assert status == 400 and "malformed log" in body["error"]
