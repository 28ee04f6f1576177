"""Service resilience: breaker, backoff, admission, deadlines, shutdown.

Three layers under test:

* the :mod:`repro.jobs.resilience` primitives in isolation (fake
  clocks, seeded RNGs — no sleeping, no sockets);
* the engine/cache integration (breaker-open outcomes, corrupt-entry
  quarantine, streaming salvage parity);
* the asyncio front end over a real socket: shedding, body caps,
  deadline envelopes, graceful drain, and a chaos case that kills real
  pool workers mid-request via the faultinject crash sentinel.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import SimConfig, record_program
from repro.jobs.cache import ResultCache
from repro.jobs.client import ClientError, ServiceClient
from repro.jobs.engine import JobEngine
from repro.jobs.model import JobOutcome, SimJob, TraceRef
from repro.jobs.resilience import AdmissionGate, CircuitBreaker, backoff_delays
from repro.jobs.service import (
    DeadlineExceeded,
    PredictionService,
    ServiceError,
    default_max_body_bytes,
)
from repro.jobs.service_async import BackgroundServer
from repro.jobs.worker import CRASH_SENTINEL
from repro.recorder import logfile
from repro.recorder.salvage import SalvageLimitError, SalvageStream, salvage_loads
from tests.conftest import make_prodcons_program


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture(scope="module")
def trace():
    return record_program(make_prodcons_program()).trace


@pytest.fixture(scope="module")
def log_text(trace):
    return logfile.dumps(trace)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=3, cooldown_s=5.0, clock=clock)
        b.record_failure()
        b.record_failure()
        b.record_success()  # success resets the streak
        b.record_failure()
        b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.trips == 1

    def test_cooldown_then_half_open_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        assert b.reject_for() == pytest.approx(5.0)
        clock.advance(4.9)
        assert not b.allow()
        clock.advance(0.2)
        assert b.state == "half-open"
        assert b.allow()  # the single probe slot
        assert not b.allow()  # second caller must wait for the probe
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.1)
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert b.trips == 2
        assert not b.allow()

    def test_snapshot_is_json_safe(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_s=1.0)
        snap = b.snapshot()
        json.dumps(snap)
        assert snap["state"] == "closed"
        assert snap["failure_threshold"] == 2


class TestBackoff:
    def test_deterministic_with_seeded_rng(self):
        import random

        a = list(backoff_delays(5, base_s=0.1, cap_s=2.0, rng=random.Random(7)))
        b = list(backoff_delays(5, base_s=0.1, cap_s=2.0, rng=random.Random(7)))
        assert a == b
        assert len(a) == 4  # attempts - 1 sleeps

    def test_delays_bounded_by_doubling_cap(self):
        import random

        delays = list(backoff_delays(8, base_s=0.5, cap_s=3.0, rng=random.Random(1)))
        for n, d in enumerate(delays):
            assert 0.0 <= d <= min(3.0, 0.5 * (2 ** n))


class TestAdmissionGate:
    def test_sheds_past_watermark(self):
        gate = AdmissionGate(2, retry_after_s=3.0)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        assert gate.shed == 1 and gate.admitted == 2
        gate.leave()
        assert gate.try_enter()
        assert gate.headroom == 0
        snap = gate.snapshot()
        assert snap == {
            "capacity": 2, "in_flight": 2, "admitted": 3, "shed": 1,
        }


# ----------------------------------------------------------------------
# cache quarantine + streaming salvage
# ----------------------------------------------------------------------


class TestCacheQuarantine:
    def _outcome(self, fp: str) -> JobOutcome:
        return JobOutcome(fingerprint=fp, status="complete", makespan_us=10)

    def test_corrupt_entry_quarantined_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "ab" * 32
        cache.put(self._outcome(fp))
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultCache(tmp_path)  # separate LRU: forces the disk read
        assert fresh.get(fp) is None
        assert fresh.corrupt_quarantined == 1
        assert not path.exists()
        assert (tmp_path / "corrupt" / path.name).exists()
        assert fresh.stats()["corrupt_quarantined"] == 1

    def test_fingerprint_mismatch_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp_a, fp_b = "aa" * 32, "bb" * 32
        cache.put(self._outcome(fp_a))
        src = tmp_path / fp_a[:2] / f"{fp_a}.json"
        dest = tmp_path / fp_b[:2] / f"{fp_b}.json"
        dest.parent.mkdir(parents=True, exist_ok=True)
        src.rename(dest)
        fresh = ResultCache(tmp_path)
        assert fresh.get(fp_b) is None
        assert fresh.corrupt_quarantined == 1

    def test_flush_rewrites_entries_the_disk_lost(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "cd" * 32
        cache.put(self._outcome(fp))
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.unlink()
        assert cache.flush() == 1
        assert path.exists()
        assert cache.flush() == 0  # idempotent once disk is complete


class TestSalvageStream:
    def test_chunked_feed_matches_one_shot(self, log_text):
        whole = salvage_loads(log_text)
        stream = SalvageStream(source="chunked")
        data = log_text.encode("utf-8")
        for i in range(0, len(data), 37):  # awkward chunk size on purpose
            stream.feed(data[i : i + 37])
        result = stream.finish()
        assert result.trace.fingerprint() == whole.trace.fingerprint()
        assert result.report.records_kept == whole.report.records_kept
        assert result.report.clean == whole.report.clean

    def test_damaged_log_still_salvages_incrementally(self, log_text):
        from repro.faultinject import corrupt

        bad = corrupt(log_text, "truncate", seed=3)
        whole = salvage_loads(bad)
        stream = SalvageStream()
        stream.feed(bad.encode("utf-8"))
        result = stream.finish()
        assert result.report.records_kept == whole.report.records_kept

    def test_byte_cap_raises_mid_stream(self, log_text):
        stream = SalvageStream(max_bytes=100)
        with pytest.raises(SalvageLimitError) as err:
            stream.feed(log_text.encode("utf-8"))
        assert err.value.limit == 100
        assert err.value.seen > 100

    def test_split_multibyte_utf8_across_chunks(self):
        stream = SalvageStream(validate=False)
        text = "#vppb-log v1\n# café ☃\n"
        data = text.encode("utf-8")
        for i in range(len(data)):  # one byte at a time
            stream.feed(data[i : i + 1])
        result = stream.finish()
        assert result.report.total_lines == 2

    @pytest.mark.parametrize("sep", ["\r", "\r\n", "\x85", "\u2028"])
    def test_alternative_line_separators_match_newline(self, sep, log_text):
        """CR-only, CRLF and unicode-separated logs salvage identically
        to the plain-\\n version (str.splitlines parity)."""
        base = salvage_loads(log_text)
        result = salvage_loads(log_text.replace("\n", sep))
        assert result.trace.fingerprint() == base.trace.fingerprint()
        assert result.report.records_kept == base.report.records_kept

    def test_crlf_split_across_chunk_boundary(self, log_text):
        base = salvage_loads(log_text)
        data = log_text.replace("\n", "\r\n").encode("utf-8")
        stream = SalvageStream()
        for i in range(0, len(data), 7):  # guarantees split \r|\n pairs
            stream.feed(data[i : i + 7])
        result = stream.finish()
        assert result.trace.fingerprint() == base.trace.fingerprint()
        assert result.report.records_kept == base.report.records_kept


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------


class TestEngineBreaker:
    def test_open_breaker_rejects_without_submitting(self, trace):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0, clock=clock)
        breaker.record_failure()
        engine = JobEngine(mode="process", workers=1, breaker=breaker)
        job = SimJob.for_trace(trace, SimConfig(cpus=2), label="cell")
        outcomes = engine.run([job], use_cache=False)
        engine.close()
        assert outcomes[0].status == JobOutcome.BREAKER_OPEN
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 0
        assert "breaker" in outcomes[0].error
        assert engine.metrics.jobs_rejected_breaker == 1
        assert engine.metrics.jobs_submitted == 0

    def test_breaker_disabled_with_false(self):
        engine = JobEngine(mode="inline", breaker=False)
        assert engine.breaker is None
        engine.close()

    def test_crash_storm_trips_breaker(self, trace):
        engine = JobEngine(
            mode="process",
            workers=1,
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=60.0),
        )
        crash = SimJob(
            trace=TraceRef(fingerprint="c" * 64, text=CRASH_SENTINEL),
            config=SimConfig(cpus=2),
            label="crash",
        )
        outcomes = engine.run([crash], use_cache=False)
        engine.close()
        # one job, two crashing attempts -> threshold reached
        assert outcomes[0].status == JobOutcome.CRASHED
        assert engine.breaker.state == "open"
        assert engine.snapshot()["breaker"]["state"] == "open"


class _BrokenOnSubmit:
    """A pool a sibling job has broken: ``submit`` raises synchronously."""

    def submit(self, fn, *args, **kwargs):
        raise BrokenProcessPool("A child process terminated abruptly")

    def shutdown(self, wait=True):
        pass


class _CountingBreaker(CircuitBreaker):
    def __init__(self):
        super().__init__(failure_threshold=4, cooldown_s=60.0)
        self.failures = 0

    def record_failure(self):
        self.failures += 1
        super().record_failure()


class TestEngineSubmitOnBrokenPool:
    def test_one_refused_submit_is_retried_on_a_fresh_pool(self, trace):
        breaker = _CountingBreaker()
        engine = JobEngine(
            mode="process", workers=1, breaker=breaker, retry_sleep=lambda s: None
        )
        engine._pool = _BrokenOnSubmit()
        job = SimJob.for_trace(trace, SimConfig(cpus=2), label="cell")
        try:
            outcomes = engine.run([job], use_cache=False)
        finally:
            engine.close()
        assert outcomes[0].ok and outcomes[0].complete
        assert outcomes[0].attempts == 2
        assert breaker.failures == 1
        assert engine.metrics.worker_crashes == 1
        assert engine.metrics.retries == 1

    def test_every_submit_refused_is_a_crashed_outcome(self, trace):
        breaker = _CountingBreaker()
        engine = JobEngine(
            mode="process", workers=1, breaker=breaker, retry_sleep=lambda s: None
        )
        broken = _BrokenOnSubmit()
        engine._get_pool = lambda: broken
        job = SimJob.for_trace(trace, SimConfig(cpus=2), label="cell")
        outcomes = engine.run([job], use_cache=False)
        engine.close()
        assert outcomes[0].status == JobOutcome.CRASHED
        assert outcomes[0].attempts == 2
        assert breaker.failures == 2


# ----------------------------------------------------------------------
# service core (no sockets)
# ----------------------------------------------------------------------


class TestServiceCore:
    def test_breaker_open_maps_to_503_with_retry_after(self, log_text):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0, clock=clock)
        breaker.record_failure()
        engine = JobEngine(mode="inline", breaker=breaker)
        service = PredictionService(engine)
        with pytest.raises(ServiceError) as err:
            service.predict({"log": log_text})
        engine.close()
        assert err.value.status == 503
        assert err.value.retry_after_s == pytest.approx(30.0)
        assert err.value.body()["breaker"]["state"] == "open"

    def test_breaker_refused_cells_are_503_even_after_probe_closes(
        self, log_text
    ):
        """Half-open breaker + multi-cell grid: the probe succeeds (and
        closes the breaker) while the other cells come back
        BREAKER_OPEN.  That refusal is transient, so it must surface as
        a retryable 503, never a 422 client error."""
        engine = JobEngine(mode="inline")  # breaker closed: probe succeeded
        service = PredictionService(engine)

        def fake_run(jobs, use_cache=True, budget=None):
            fp = "f" * 64
            return [
                JobOutcome(fingerprint=fp, status="complete",
                           makespan_us=1000, label=jobs[0].label),
                JobOutcome(fingerprint=fp, status=JobOutcome.BREAKER_OPEN,
                           error="circuit breaker open", label=jobs[1].label),
                JobOutcome(fingerprint=fp, status=JobOutcome.BREAKER_OPEN,
                           error="circuit breaker open", label=jobs[2].label),
            ]

        engine.run = fake_run
        with pytest.raises(ServiceError) as err:
            service.predict({"log": log_text, "cpus": [2, 4]}, deadline_s=5.0)
        engine.close()
        assert err.value.status == 503
        assert err.value.retry_after_s is not None

    def test_deadline_partial_becomes_504_envelope(self, trace, log_text):
        engine = JobEngine(mode="inline")
        service = PredictionService(engine)

        def fake_run(jobs, use_cache=True, budget=None):
            assert budget[1] == pytest.approx(0.5)
            fp = "f" * 64
            return [
                JobOutcome(fingerprint=fp, status="complete",
                           makespan_us=1000, label=jobs[0].label),
                JobOutcome(fingerprint=fp, status="complete",
                           makespan_us=400, label=jobs[1].label),
                JobOutcome(fingerprint=fp, status="budget-exhausted",
                           makespan_us=250, engine_events=77,
                           reason="wall budget exhausted", label=jobs[2].label),
            ]

        engine.run = fake_run
        with pytest.raises(DeadlineExceeded) as err:
            service.predict({"log": log_text, "cpus": [2, 4]}, deadline_s=0.5)
        engine.close()
        partial = err.value.partial
        assert partial["deadline_s"] == 0.5
        assert [p["cpus"] for p in partial["predictions"]] == [2]
        assert partial["predictions"][0]["speedup"] == pytest.approx(2.5)
        assert partial["incomplete"][0]["status"] == "budget-exhausted"
        assert partial["incomplete"][0]["engine_events"] == 77
        assert service.deadline_timeouts == 1

    def test_deadline_complete_inside_budget_is_normal_200(self, log_text):
        engine = JobEngine(mode="inline")
        service = PredictionService(engine)
        payload = service.predict({"log": log_text, "cpus": [2]}, deadline_s=60.0)
        engine.close()
        assert len(payload["predictions"]) == 1
        assert payload["predictions"][0]["speedup"] > 1.0

    def test_default_max_body_bytes_env(self, monkeypatch):
        monkeypatch.setenv("VPPB_MAX_BODY_BYTES", "1234")
        assert default_max_body_bytes() == 1234
        monkeypatch.setenv("VPPB_MAX_BODY_BYTES", "bogus")
        assert default_max_body_bytes() == 64 * 1024 * 1024
        monkeypatch.delenv("VPPB_MAX_BODY_BYTES")
        assert default_max_body_bytes() == 64 * 1024 * 1024


# ----------------------------------------------------------------------
# the asyncio front end, over a real socket
# ----------------------------------------------------------------------


def _request(port, method, path, body=None, headers=None, timeout=15.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}, dict(
            response.getheaders()
        )
    finally:
        conn.close()


class TestAsyncService:
    @pytest.fixture()
    def inline_service(self):
        engine = JobEngine(mode="inline")
        service = PredictionService(engine, max_body_bytes=512 * 1024)
        yield service
        engine.close()

    def test_upload_predict_roundtrip_and_health(self, inline_service, log_text):
        with BackgroundServer(inline_service, max_inflight=4) as bg:
            status, body, _ = _request(bg.port, "GET", "/healthz/live")
            assert (status, body["status"]) == (200, "ok")
            status, body, _ = _request(bg.port, "GET", "/healthz/ready")
            assert (status, body["status"]) == (200, "ready")
            status, up, _ = _request(bg.port, "POST", "/traces", body=log_text)
            assert status == 200 and up["salvage"]["clean"]
            status, pred, _ = _request(
                bg.port, "POST", "/predict",
                body=json.dumps({"trace": up["trace"], "cpus": [2]}),
            )
            assert status == 200
            assert pred["predictions"][0]["speedup"] > 1.0
            status, metrics, _ = _request(bg.port, "GET", "/metrics")
            assert metrics["service"]["streamed_uploads"] == 1
            assert metrics["async"]["admission"]["capacity"] == 4

    def test_damaged_upload_salvages_with_repair_counts(
        self, inline_service, log_text
    ):
        from repro.faultinject import corrupt

        bad = corrupt(log_text, "truncate", seed=5)
        with BackgroundServer(inline_service) as bg:
            status, up, _ = _request(bg.port, "POST", "/traces", body=bad)
            assert status == 200
            assert not up["salvage"]["clean"]
            assert up["salvage"]["records_kept"] > 0

    def test_oversize_body_is_413_both_framings(self, inline_service):
        with BackgroundServer(inline_service) as bg:
            # Content-Length framing: rejected before reading the body
            status, body, _ = _request(
                bg.port, "POST", "/traces",
                headers={"Content-Length": str(600 * 1024)},
            )
            assert status == 413 and "cap" in body
            # chunked framing: rejected mid-stream
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=15)
            conn.putrequest("POST", "/traces")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            blob = b"#" * 65536
            for _ in range(12):  # 768 KiB > the 512 KiB cap
                try:
                    conn.send(b"%x\r\n%s\r\n" % (len(blob), blob))
                except (BrokenPipeError, ConnectionResetError):
                    break  # server already slammed the door: fine
            try:
                response = conn.getresponse()
                assert response.status == 413
            except (http.client.HTTPException, ConnectionError):
                pass  # ditto — never a hung connection
            finally:
                conn.close()
            status, metrics, _ = _request(bg.port, "GET", "/metrics")
            assert metrics["service"]["bodies_rejected"] >= 2

    def test_shed_429_with_retry_after_under_saturation(
        self, inline_service, log_text
    ):
        release = threading.Event()
        real_predict = inline_service.predict

        def slow_predict(request, *, deadline_s=None):
            release.wait(10.0)
            return real_predict(request, deadline_s=deadline_s)

        inline_service.predict = slow_predict
        body = json.dumps({"log": log_text, "cpus": [2]})
        results = []

        def fire():
            results.append(_request(bg.port, "POST", "/predict", body=body))

        with BackgroundServer(inline_service, max_inflight=2) as bg:
            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                _, metrics, _ = _request(bg.port, "GET", "/metrics")
                if metrics["service"]["requests_shed"] >= 4:
                    break
                time.sleep(0.05)
            release.set()
            for t in threads:
                t.join(timeout=15.0)
            statuses = sorted(s for s, _, _ in results)
            assert statuses == [200, 200, 429, 429, 429, 429]
            shed = [
                (b, h) for s, b, h in results if s == 429
            ]
            for body_json, headers in shed:
                assert "Retry-After" in headers
                assert "capacity" in body_json["error"]
            # after the burst the server still admits work
            status, ready, _ = _request(bg.port, "GET", "/healthz/ready")
            assert status == 200 and ready["status"] == "ready"

    def test_error_with_unread_body_closes_keepalive_connection(
        self, inline_service, log_text
    ):
        """An error sent before the request body was read (404 here)
        must close the connection: leftover body bytes would otherwise
        be parsed as the next request line, desyncing the stream."""
        with BackgroundServer(inline_service) as bg:
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=15)
            try:
                body = json.dumps({"log": log_text}).encode("utf-8")
                conn.request("POST", "/nope", body=body)
                response = conn.getresponse()
                assert response.status == 404
                assert response.getheader("Connection") == "close"
                response.read()
            finally:
                conn.close()
            # a fully-read body keeps the connection reusable: a second
            # request on the same socket must not see a desynced stream
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=15)
            try:
                conn.request(
                    "POST", "/predict",
                    body=json.dumps({"log": log_text, "cpus": [2]}),
                )
                first = conn.getresponse()
                assert first.status == 200
                assert first.getheader("Connection") == "keep-alive"
                first.read()
                conn.request("GET", "/metrics")
                second = conn.getresponse()
                assert second.status == 200
                json.loads(second.read())
            finally:
                conn.close()

    def test_shed_429_with_unread_body_closes_connection(
        self, inline_service, log_text
    ):
        release = threading.Event()
        real_predict = inline_service.predict

        def slow_predict(request, *, deadline_s=None):
            release.wait(10.0)
            return real_predict(request, deadline_s=deadline_s)

        inline_service.predict = slow_predict
        body = json.dumps({"log": log_text, "cpus": [2]})
        with BackgroundServer(inline_service, max_inflight=1) as bg:
            t = threading.Thread(
                target=_request,
                args=(bg.port, "POST", "/predict"),
                kwargs={"body": body},
            )
            t.start()
            deadline = time.time() + 5.0
            while time.time() < deadline:  # wait for the slot to fill
                _, m, _ = _request(bg.port, "GET", "/metrics")
                if m["async"]["admission"]["in_flight"] >= 1:
                    break
                time.sleep(0.05)
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=15)
            try:
                conn.request("POST", "/predict", body=body)
                response = conn.getresponse()
                # shed before the body was read -> must not stay open
                assert response.status == 429
                assert response.getheader("Connection") == "close"
                response.read()
            finally:
                conn.close()
            release.set()
            t.join(timeout=15.0)

    def test_hard_timeout_holds_slot_until_thread_ends(
        self, inline_service, log_text
    ):
        """After a hard 504 the simulation thread is still running; its
        admission slot stays held (new work sheds as 429) until the
        thread really finishes, so wedged requests can never exhaust
        the executor."""
        release = threading.Event()

        def wedged(request, *, deadline_s=None):
            release.wait(10.0)
            return {}

        inline_service.predict = wedged
        body = json.dumps({"log": log_text, "deadline_s": 0.1})
        with BackgroundServer(inline_service, max_inflight=1) as bg:
            status, _, _ = _request(bg.port, "POST", "/predict", body=body)
            assert status == 504
            # the wedged thread still owns the only slot
            status, _, _ = _request(bg.port, "POST", "/predict", body=body)
            assert status == 429
            _, m, _ = _request(bg.port, "GET", "/metrics")
            assert m["async"]["abandoned_workers"] == 1
            assert m["async"]["admission"]["in_flight"] == 1
            release.set()  # the thread ends; the slot frees
            deadline = time.time() + 5.0
            while time.time() < deadline:
                _, m, _ = _request(bg.port, "GET", "/metrics")
                if m["async"]["admission"]["in_flight"] == 0:
                    break
                time.sleep(0.05)
            assert m["async"]["admission"]["in_flight"] == 0
            assert m["async"]["abandoned_workers"] == 0

    def test_hard_timeout_maps_to_504(self, inline_service, log_text):
        def wedged(request, *, deadline_s=None):
            time.sleep(5.0)
            return {}

        inline_service.predict = wedged
        with BackgroundServer(inline_service) as bg:
            status, body, headers = _request(
                bg.port, "POST", "/predict",
                body=json.dumps({"log": log_text, "deadline_s": 0.2}),
            )
            assert status == 504
            assert "deadline" in body["error"]
            assert "Retry-After" in headers
            _, metrics, _ = _request(bg.port, "GET", "/metrics")
            assert metrics["async"]["hard_timeouts"] == 1

    def test_watchdog_partial_maps_to_504_with_envelope(
        self, inline_service, log_text
    ):
        real_predict = inline_service.predict

        def partial_predict(request, *, deadline_s=None):
            raise DeadlineExceeded(
                "deadline exceeded",
                partial={"predictions": [], "incomplete": [{"label": "2cpu"}]},
            )

        inline_service.predict = partial_predict
        with BackgroundServer(inline_service) as bg:
            status, body, _ = _request(
                bg.port, "POST", "/predict", body=json.dumps({"log": log_text}),
            )
            assert status == 504
            assert body["partial"]["incomplete"][0]["label"] == "2cpu"
        inline_service.predict = real_predict

    def test_internal_error_is_json_never_traceback(self, inline_service):
        def boom(request, *, deadline_s=None):
            raise RuntimeError("kaboom")

        inline_service.predict = boom
        with BackgroundServer(inline_service) as bg:
            status, body, _ = _request(
                bg.port, "POST", "/predict", body=b"{}",
            )
            assert status == 500
            assert body["error"].startswith("internal error: RuntimeError")
            assert "Traceback" not in json.dumps(body)

    def test_graceful_shutdown_drains_inflight(self, inline_service, log_text):
        release = threading.Event()
        real_predict = inline_service.predict

        def slow_predict(request, *, deadline_s=None):
            release.wait(10.0)
            return real_predict(request, deadline_s=deadline_s)

        inline_service.predict = slow_predict
        bg = BackgroundServer(inline_service, drain_timeout_s=10.0)
        bg.__enter__()
        result = {}

        def fire():
            result["response"] = _request(
                bg.port, "POST", "/predict",
                body=json.dumps({"log": log_text, "cpus": [2]}),
            )

        t = threading.Thread(target=fire)
        t.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:  # wait until the request is in flight
            _, metrics, _ = _request(bg.port, "GET", "/metrics")
            if metrics["async"]["admission"]["in_flight"] >= 1:
                break
            time.sleep(0.05)
        threading.Timer(0.3, release.set).start()
        report = bg.stop()  # blocks: drain must outlast the in-flight request
        t.join(timeout=15.0)
        status, _, _ = result["response"]
        assert status == 200
        assert report["drained"] is True
        assert report["abandoned_inflight"] == 0

    def test_shutdown_flushes_cache(self, tmp_path, log_text):
        engine = JobEngine(mode="inline", cache=ResultCache(tmp_path))
        service = PredictionService(engine)
        with BackgroundServer(service) as bg:
            status, _, _ = _request(
                bg.port, "POST", "/predict",
                body=json.dumps({"log": log_text, "cpus": [2]}),
            )
            assert status == 200
            # simulate the disk losing an entry while we run
            lost = [
                p for p in tmp_path.rglob("*.json")
                if p.parent.name != "corrupt"
            ]
            assert lost
            lost[0].unlink()
        report = bg.stop()
        engine.close()
        assert report["cache_entries_flushed"] == 1

    def test_chaos_worker_crashes_trip_breaker_then_recover(self, log_text):
        """Kill real pool workers mid-request; the server answers every
        request with a well-formed status and recovers once faults stop."""
        engine = JobEngine(
            mode="process",
            workers=2,
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.5),
        )
        service = PredictionService(engine)
        trace = logfile.loads(log_text)
        real_resolve = service._resolve_trace

        def chaos_resolve(request):
            if request.get("log") == "CRASH":
                return (
                    TraceRef(fingerprint="c" * 64, text=CRASH_SENTINEL),
                    trace,
                )
            return real_resolve(request)

        service._resolve_trace = chaos_resolve
        try:
            with BackgroundServer(service, max_inflight=4) as bg:
                # requests that murder their workers -> 422/503, never 500
                crash_body = json.dumps({"log": "CRASH", "cpus": [2]})
                statuses = []
                for _ in range(3):
                    status, body, _ = _request(
                        bg.port, "POST", "/predict", body=crash_body, timeout=60
                    )
                    statuses.append(status)
                    assert status in (422, 503), body
                    assert "error" in body
                assert 503 in statuses  # the breaker tripped mid-storm
                # while open, readiness flips and Retry-After is advertised
                status, ready, headers = _request(
                    bg.port, "GET", "/healthz/ready"
                )
                if status == 503:
                    assert "circuit breaker open" in ready["reasons"]
                # faults stop; after the cooldown the probe heals the service
                good_body = json.dumps({"log": log_text, "cpus": [2]})
                recovered = False
                deadline = time.time() + 20.0
                while time.time() < deadline:
                    status, body, _ = _request(
                        bg.port, "POST", "/predict", body=good_body, timeout=60
                    )
                    assert status in (200, 422, 503), body
                    if status == 200:
                        recovered = True
                        break
                    time.sleep(0.3)
                assert recovered, "service never recovered after faults stopped"
                _, metrics, _ = _request(bg.port, "GET", "/metrics")
                assert metrics["worker_crashes"] >= 2
                assert metrics["breaker"]["trips"] >= 1
        finally:
            engine.close()


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------


class TestServiceClient:
    def test_retries_429_honouring_retry_after_then_gives_up(
        self, log_text
    ):
        engine = JobEngine(mode="inline")
        service = PredictionService(engine)
        release = threading.Event()
        real_predict = service.predict

        def slow_predict(request, *, deadline_s=None):
            release.wait(10.0)
            return real_predict(request, deadline_s=deadline_s)

        service.predict = slow_predict
        sleeps = []
        try:
            with BackgroundServer(
                service, max_inflight=1, retry_after_s=2.0
            ) as bg:
                # occupy the only slot
                t = threading.Thread(
                    target=_request,
                    args=(bg.port, "POST", "/predict"),
                    kwargs={"body": json.dumps({"log": log_text})},
                )
                t.start()
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    _, m, _ = _request(bg.port, "GET", "/metrics")
                    if m["async"]["admission"]["in_flight"] >= 1:
                        break
                    time.sleep(0.05)
                client = ServiceClient(
                    port=bg.port, attempts=3, sleep=sleeps.append
                )
                with pytest.raises(ClientError) as err:
                    client.predict(log=log_text, cpus=[2])
                assert err.value.status == 429
                assert err.value.attempts == 3
                assert client.retries == 2
                # Retry-After (2s) dominates the jittered backoff
                assert all(s >= 2.0 for s in sleeps)
                release.set()
                t.join(timeout=15.0)
        finally:
            engine.close()

    def test_upload_and_predict_roundtrip(self, tmp_path, log_text):
        engine = JobEngine(mode="inline")
        service = PredictionService(engine)
        log_path = tmp_path / "prodcons.log"
        log_path.write_text(log_text, encoding="utf-8")
        try:
            with BackgroundServer(service) as bg:
                client = ServiceClient(port=bg.port)
                up = client.upload_trace(log_path, stream=True)
                assert up["salvage"]["clean"]
                payload = client.predict(trace=up["trace"], cpus=[2, 4])
                assert [p["cpus"] for p in payload["predictions"]] == [2, 4]
                assert client.alive()
                assert client.ready()["status"] == "ready"
        finally:
            engine.close()

    def test_connection_refused_retries_then_raises(self):
        sleeps = []
        client = ServiceClient(
            port=1, attempts=3, sleep=sleeps.append, timeout_s=1.0
        )
        with pytest.raises(ClientError, match="cannot reach"):
            client.metrics()
        assert len(sleeps) == 2

    def test_plain_generator_upload_gets_single_attempt(self):
        """A one-shot generator cannot be replayed: retrying it would
        silently send an empty chunked body, so the client must fail
        after the first attempt instead."""
        sleeps = []
        client = ServiceClient(
            port=1, attempts=4, sleep=sleeps.append, timeout_s=1.0
        )

        def chunk_gen():
            yield b"# vppb-log v1\n"

        with pytest.raises(ClientError) as err:
            client.request("POST", "/traces", chunks=chunk_gen())
        assert err.value.attempts == 1
        assert client.retries == 0
        assert sleeps == []

    def test_4xx_is_not_retried(self, log_text):
        engine = JobEngine(mode="inline")
        service = PredictionService(engine)
        sleeps = []
        try:
            with BackgroundServer(service) as bg:
                client = ServiceClient(port=bg.port, sleep=sleeps.append)
                with pytest.raises(ClientError) as err:
                    client.predict(trace="0" * 64)
                assert err.value.status == 404
                assert sleeps == []
        finally:
            engine.close()
