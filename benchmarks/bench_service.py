"""Service load benchmark: latency/throughput/error budgets under fire.

Unlike the other benchmarks this is a standalone load generator, not a
pytest case — CI's ``load-smoke`` job runs it directly and gates on its
exit code::

    python benchmarks/bench_service.py --duration 5 --clients 8 \
        --gate-p99-ms 2000 --gate-error-rate 0.01 [--chaos]

It stands up the real asyncio front end (:class:`BackgroundServer`)
over a real worker-pool engine, drives it with concurrent closed-loop
clients, and asserts the resilience contract from the service docs:

* every response is well-formed JSON with an expected status — 200,
  413, 422, 429, 503 or 504; a hung connection, a stack-trace body or
  a surprise 500 counts against the error budget;
* latency percentiles stay inside the gate (shed 429s are cheap by
  design, so they are tracked separately from served-request latency);
* with ``--chaos``, a saboteur thread periodically sends requests that
  make the worker crash mid-simulation (the faultinject crash
  sentinel), retrying through 429s as the clients do; the server must
  keep answering, trip its breaker rather than melt, and recover once
  the faults stop.  The gate fails unless at least one crash reached a
  worker and the breaker tripped at least once.

``goodput_rps`` (200s per second) is reported beside ``throughput_rps``
(every response), since shed 429s are cheap and inflate the latter.

The JSON artifact (``benchmarks/results/BENCH_service.json``) is the
perf-trajectory record: commit it so the numbers travel with the code.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from _common import BENCH_SCALE, emit, save_artifact  # noqa: E402

#: statuses the resilience contract allows on the wire
WELL_FORMED = {200, 400, 404, 413, 422, 429, 503, 504}


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


class LoadStats:
    """Thread-safe request ledger for the client fleet."""

    def __init__(self):
        self._lock = threading.Lock()
        self.latencies_ms = []       # served (non-429) request latencies
        self.statuses = {}
        self.malformed = 0           # transport errors, bad JSON, surprise 500s

    def record(self, status, latency_ms, *, well_formed):
        with self._lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if not well_formed:
                self.malformed += 1
            elif status != 429:  # shed responses are cheap by design
                self.latencies_ms.append(latency_ms)

    def summary(self):
        with self._lock:
            values = sorted(self.latencies_ms)
            total = sum(self.statuses.values())
            return {
                "requests": total,
                "statuses": dict(sorted(self.statuses.items())),
                "malformed": self.malformed,
                "error_rate": (self.malformed / total) if total else 0.0,
                "latency_ms": {
                    "p50": round(_percentile(values, 0.50), 2),
                    "p90": round(_percentile(values, 0.90), 2),
                    "p99": round(_percentile(values, 0.99), 2),
                    "max": round(values[-1], 2) if values else 0.0,
                },
            }


def _one_request(port, method, path, body=None, headers=None, timeout=60.0):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        json.loads(payload) if payload else {}
        return response.status, payload
    finally:
        conn.close()


def _client_loop(port, fingerprint, stats, stop, worker_id):
    """One closed-loop client: mostly cache-friendly, some fresh work."""
    n = 0
    while not stop.is_set():
        n += 1
        request = {"trace": fingerprint, "cpus": [2, 4]}
        if n % 5 == 0:
            # a fresh config point: forces real simulation, not a cache hit
            request["comm_delay_us"] = (worker_id * 1000 + n) % 7919
        started = time.perf_counter()
        try:
            status, _ = _one_request(
                port, "POST", "/predict", body=json.dumps(request)
            )
            ok = status in WELL_FORMED
        except Exception:
            status, ok = 0, False
        stats.record(
            status, (time.perf_counter() - started) * 1000.0, well_formed=ok
        )


def _chaos_loop(port, stats, stop, period_s):
    """Periodically ask for a prediction that murders its worker.

    A shed request (429) is retried at once, as the closed-loop clients
    do, so the crash reaches a worker instead of dying at admission.
    """
    crashes_sent = 0
    while not stop.is_set():
        try:
            status, _ = _one_request(
                port, "POST", "/predict",
                body=json.dumps({"log": "CRASH", "cpus": [2]}),
            )
            # a crash request must still die politely
            ok = status in WELL_FORMED and status != 200
        except Exception:
            status, ok = 0, False
        stats.record(status, 0.0, well_formed=ok)
        if status == 429:
            continue
        crashes_sent += 1
        stop.wait(period_s)
    return crashes_sent


def run_bench(args):
    from repro.jobs.engine import JobEngine
    from repro.jobs.model import TraceRef
    from repro.jobs.resilience import CircuitBreaker
    from repro.jobs.service import PredictionService
    from repro.jobs.service_async import BackgroundServer
    from repro.jobs.worker import CRASH_SENTINEL
    from repro.program.uniexec import record_program
    from repro.recorder import logfile
    from repro.workloads import get_workload

    program = get_workload(args.workload).make_program(8, args.scale)
    trace = record_program(program).trace
    log_text = logfile.dumps(trace)

    engine = JobEngine(
        mode="inline" if args.inline else "process",
        workers=args.workers,
        breaker=CircuitBreaker(failure_threshold=3, cooldown_s=1.0),
    )
    service = PredictionService(engine)

    if args.chaos:
        # route the sentinel request body straight to a crashing TraceRef,
        # exactly like the chaos case in tests/test_resilience.py
        real_resolve = service._resolve_trace

        def chaos_resolve(request):
            if request.get("log") == "CRASH":
                return TraceRef(fingerprint="c" * 64, text=CRASH_SENTINEL), trace
            return real_resolve(request)

        service._resolve_trace = chaos_resolve

    stats = LoadStats()
    stop = threading.Event()
    shutdown_report = None
    started = time.perf_counter()
    with BackgroundServer(
        service,
        max_inflight=args.max_inflight,
        default_deadline_s=args.deadline,
    ) as bg:
        upload_status, _ = _one_request(
            bg.port, "POST", "/traces", body=log_text.encode("utf-8")
        )
        assert upload_status == 200, f"trace upload failed: {upload_status}"
        fingerprint = trace.fingerprint()

        threads = [
            threading.Thread(
                target=_client_loop,
                args=(bg.port, fingerprint, stats, stop, i),
                daemon=True,
            )
            for i in range(args.clients)
        ]
        if args.chaos:
            threads.append(
                threading.Thread(
                    target=_chaos_loop,
                    args=(bg.port, stats, stop, args.chaos_period),
                    daemon=True,
                )
            )
        for t in threads:
            t.start()
        time.sleep(args.duration)
        stop.set()
        for t in threads:
            t.join(timeout=120.0)

        if args.chaos:
            # faults have stopped: the recovery clause of the contract
            recovered = False
            recovery_deadline = time.time() + 30.0
            while time.time() < recovery_deadline:
                try:
                    status, _ = _one_request(
                        bg.port, "POST", "/predict",
                        body=json.dumps({"trace": fingerprint, "cpus": [2]}),
                    )
                except Exception:
                    status = 0
                if status == 200:
                    recovered = True
                    break
                time.sleep(0.5)
            assert recovered, "service did not recover after chaos stopped"

        _, metrics_body = _one_request(bg.port, "GET", "/metrics")
        server_metrics = json.loads(metrics_body)
        shutdown_report = bg.stop()
    elapsed_s = time.perf_counter() - started
    engine.close()

    summary = stats.summary()
    report = {
        "benchmark": "service-load",
        "config": {
            "workload": args.workload,
            "scale": args.scale,
            "duration_s": args.duration,
            "clients": args.clients,
            "max_inflight": args.max_inflight,
            "deadline_s": args.deadline,
            "engine": "inline" if args.inline else "process",
            "workers": engine.workers,
            "chaos": bool(args.chaos),
        },
        "results": {
            **summary,
            "throughput_rps": round(summary["requests"] / elapsed_s, 2),
            "goodput_rps": round(summary["statuses"].get(200, 0) / elapsed_s, 2),
            "shed": server_metrics["service"]["requests_shed"],
            "deadline_timeouts": server_metrics["service"]["deadline_timeouts"],
            "worker_crashes": server_metrics.get("worker_crashes", 0),
            "breaker_trips": (server_metrics.get("breaker") or {}).get("trips", 0),
            "breaker_rejected": server_metrics.get("jobs_rejected_breaker", 0),
            "graceful_shutdown": shutdown_report,
        },
    }
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of sustained load (default: 5)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent closed-loop clients (default: 8)")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="server admission watermark (default: 4)")
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="server default deadline in seconds (default: 10)")
    parser.add_argument("--workers", type=int, default=2,
                        help="engine worker processes (default: 2)")
    parser.add_argument("--workload", default="prodcons")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE)
    parser.add_argument("--inline", action="store_true",
                        help="inline engine (no worker pool)")
    parser.add_argument("--chaos", action="store_true",
                        help="inject worker crashes while under load")
    parser.add_argument("--chaos-period", type=float, default=0.5,
                        help="seconds between injected crashes (default: 0.5)")
    parser.add_argument("--gate-p99-ms", type=float, default=None,
                        help="fail if served p99 latency exceeds this")
    parser.add_argument("--gate-error-rate", type=float, default=None,
                        help="fail if the malformed-response rate exceeds this")
    parser.add_argument("--artifact", default="BENCH_service.json")
    args = parser.parse_args(argv)

    report = run_bench(args)
    rendered = json.dumps(report, indent=2)
    save_artifact(args.artifact, rendered + "\n")
    emit(rendered)

    results = report["results"]
    failures = []
    if args.gate_p99_ms is not None and results["latency_ms"]["p99"] > args.gate_p99_ms:
        failures.append(
            f"p99 {results['latency_ms']['p99']}ms > gate {args.gate_p99_ms}ms"
        )
    if (
        args.gate_error_rate is not None
        and results["error_rate"] > args.gate_error_rate
    ):
        failures.append(
            f"error rate {results['error_rate']:.4f} > gate {args.gate_error_rate}"
        )
    if args.chaos and results["worker_crashes"] < 1:
        failures.append("chaos: no injected crash reached a worker")
    if args.chaos and results["breaker_trips"] < 1:
        failures.append("chaos: the breaker never tripped")
    if failures:
        emit("GATE FAILED: " + "; ".join(failures))
        return 1
    emit(
        f"gates passed: {results['requests']} requests "
        f"({results['goodput_rps']} goodput rps), "
        f"p99 {results['latency_ms']['p99']}ms, "
        f"error rate {results['error_rate']:.4f}, "
        f"{results['shed']} shed, {results['breaker_trips']} breaker trips"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
