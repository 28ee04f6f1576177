"""The four end-to-end workloads: seeded inputs, timed ops, answer checks.

Each workload answers the paper's question — "what speed-up would this
recorded program get on N CPUs?" — through a different front door:

* ``sweep-xos``: a full cross-OS sweep manifest through a pooled
  :class:`~repro.jobs.engine.JobEngine` (``run_manifest(tier="sim")``);
* ``sweep-tiered``: the same sweeps with ``tier="auto"``, screened by
  the analytic tier and escalated only where intervals cannot decide;
* ``ingest-fresh``: upload a never-seen log to ``vppb serve``, then
  predict it — every stage before replay runs once per op;
* ``predict-warm``: a read-mostly ``/predict`` mix against one uploaded
  trace, mostly served from the result cache.

Inputs are made from the seed only and generated off the clock.  Every
answer is checked as it arrives, and a seeded sample of answered cells
is replayed serially afterwards (:func:`oracle`) against
``Simulator(cfg).run_replay(compile_trace(trace))``.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import random
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analytic.profile import AnalyticProfile
from repro.calib.measure import WorkloadSpec, measure_one
from repro.core.config import SimConfig
from repro.core.errors import VppbError
from repro.core.predictor import compile_trace
from repro.core.simulator import Simulator
from repro.faultinject.corrupt import CORRUPTORS, corrupt
from repro.jobs import manifest as manifest_mod
from repro.jobs.cache import ResultCache
from repro.jobs.engine import JobEngine
from repro.jobs.model import SimJob, TraceRef
from repro.jobs.service import PredictionService
from repro.jobs.service_async import BackgroundServer
from repro.program.uniexec import record_program, uniprocessor_config
from repro.recorder import logfile
from repro.recorder.salvage import salvage_loads
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[2]

#: every engine and every server runs this many workers
WORKERS = 2
#: recorded threads per program and the problem scale (smoke runs shrink it);
#: sweeps run at half scale so a run holds about twenty of them
THREADS = 8
SCALE = 0.2
SWEEP_SCALE = 0.1
SMOKE_SCALE = 0.05
#: answered cells replayed serially after the timed phase
ORACLE_CELLS = 16

SWEEP_GRID = {
    "cpus": {"min": 1, "max": 8},
    "bindings": ["unbound", "bound"],
    "schedulers": ["solaris", "cfs", "clutch"],
}
SWEEP_CELLS = 8 * 2 * 3
INGEST_CPUS = [2, 4, 8]
WARM_CPUS = ([2], [4], [8], [2, 4, 8])
WARM_DELAYS_US = (0, 50, 100, 200)
WARM_SCHEDULERS = ("solaris", "cfs", "clutch")
#: fresh predict-warm requests use comm delays from here up, never seen
FRESH_DELAY_BASE_US = 1000


@dataclass
class Op:
    """One timed operation and what it answered."""

    index: int
    latency_s: float
    cells: int = 0
    error: Optional[str] = None
    #: time spent making this op's input inside the timed loop (off the clock)
    gen_s: float = 0.0
    trace_fp: str = ""
    #: label -> (served makespan_us, served engine_events or None)
    answers: Dict[str, Tuple[int, Optional[int]]] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)


def peak_rss_mb(who: int) -> float:
    """Peak resident set (VmHWM) of ``RUSAGE_SELF`` or waited-for children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Base class: a seeded input stream plus the program that answers it."""

    name = ""
    #: ops go through a ``vppb serve`` front end rather than this process
    over_http = False
    #: concurrent closed-loop clients
    concurrency = 1
    #: every run completes at least this many ops; the oracle samples them
    min_ops = 1
    #: a run stops only after a whole number of these ops, so the mix of
    #: inputs it measured does not depend on where the clock ran out
    batch = 1
    #: set-ups per run, spread over the timed phase; setup_s reports their median
    setups = 5
    #: the timed phase runs in slices at least this long, with the host
    #: probed between them while the program is idle
    slice_s = 2.0
    #: problem scale of the recorded programs
    scale = SCALE

    def __init__(self, seed: int, work: Path, *, inline: bool, scale: Optional[float] = None):
        self.seed = seed
        self.work = work
        self.inline = inline
        if scale is not None:
            self.scale = scale
        #: wraps input generation inside the timed loop; a traced run
        #: swaps in the tracer's mute so inputs never count as layer work
        self.offstage = contextlib.nullcontext
        self.work.mkdir(parents=True, exist_ok=True)

    def rng(self, *parts) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.seed, self.name) + parts))

    def kind_of(self, index: int) -> str:
        """The kind of input op *index* gets, where a workload alternates kinds."""
        return ""

    def prepare(self) -> None:
        """Make the shared inputs (untimed)."""

    def launch(self) -> Tuple[Any, float]:
        """Set up one instance of the program: ``(instance, set-up seconds)``.

        The instance has a ``close()`` method.
        """
        raise NotImplementedError

    def start(self) -> float:
        """Set up the program the ops run against; returns the set-up time."""
        raise NotImplementedError

    def probe_setup(self) -> float:
        """Set up and close a throwaway instance; returns its set-up time."""
        instance, elapsed = self.launch()
        instance.close()
        return elapsed

    def warm_up(self) -> None:
        """Untimed work between set-up and the timed phase."""

    def client(self) -> Any:
        return None

    def run_op(self, client: Any, index: int) -> Op:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def trace_for(self, op: Op):
        """The op's trace, rebuilt on the client side for the oracle."""
        raise NotImplementedError

    def config_for(self, op: Op, label: str, trace) -> SimConfig:
        return op.detail["configs"][label]

    def extra_checks(self, ops: List[Op]) -> Tuple[Dict[int, str], Dict[str, Any]]:
        """Workload-specific checks: (wrong ops, printed metrics)."""
        return {}, {}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class SweepWorkload(Workload):
    """One sweep manifest at a time through ``run_manifest``."""

    min_ops = 2
    batch = 2  # water and ocean sweeps alternate
    setups = 15  # a pool start takes tens of milliseconds: take more samples
    slice_s = 0.0  # one batch: a water and an ocean sweep
    scale = SWEEP_SCALE

    def __init__(self, *args, tier: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.tier = tier
        self.name = "sweep-xos" if tier == "sim" else "sweep-tiered"
        self.engine: Optional[JobEngine] = None
        self.profile = None

    def program_of(self, index: int) -> str:
        return ("water", "ocean")[index % 2]

    kind_of = program_of

    def op_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def prepare(self) -> None:
        if self.tier != "sim":
            self.profile = AnalyticProfile.load(ROOT / "profiles" / "analytic.json")
        # set-up is timed up to the first finished job: a tiny, fixed trace
        path = self.work / "setup.log"
        program = get_workload("prodcons").make_program(2, 0.02, seed=0)
        logfile.dump(record_program(program).trace, path)
        self.setup_job = SimJob(trace=TraceRef.from_path(str(path)), config=SimConfig(cpus=2))

    def trace_path(self, index: int) -> Path:
        path = self.work / f"sweep-{index}.log"
        if not path.exists():
            program = get_workload(self.program_of(index)).make_program(
                THREADS, self.scale, seed=self.op_seed(index)
            )
            logfile.dump(record_program(program).trace, path)
        return path

    def manifest(self, index: int):
        return manifest_mod.SweepManifest.from_dict(
            dict(SWEEP_GRID, trace=str(self.trace_path(index)))
        )

    def launch(self) -> Tuple[JobEngine, float]:
        started = time.perf_counter()
        engine = JobEngine(mode="inline" if self.inline else "process", workers=WORKERS)
        outcome = engine.run([self.setup_job])[0]
        elapsed = time.perf_counter() - started
        if not outcome.complete:
            engine.close()
            raise RuntimeError(f"set-up job failed: {outcome.error or outcome.status}")
        return engine, elapsed

    def start(self) -> float:
        self.engine, elapsed = self.launch()
        return elapsed

    def stop(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def run_op(self, client: Any, index: int) -> Op:
        made = time.perf_counter()
        with self.offstage():
            manifest = self.manifest(index)
        started = time.perf_counter()
        report = manifest_mod.run_manifest(
            manifest, self.engine, tier=self.tier, analytic_profile=self.profile
        )
        op = Op(
            index=index,
            latency_s=time.perf_counter() - started,
            gen_s=started - made,
            trace_fp=report.trace_fingerprint,
        )
        bad = [
            s.label for s in report.scenarios
            if not s.outcome.complete or s.speedup is None
        ]
        if len(report.scenarios) != SWEEP_CELLS or bad or not report.decisions:
            op.error = f"{len(report.scenarios)} cells, unanswered: {bad[:4]}"
            return op
        op.cells = len(report.scenarios)
        for s in report.scenarios:
            # analytic answers are intervals, not replays: nothing to re-run
            if s.tier != "analytic":
                op.answers[s.label] = (s.outcome.makespan_us, s.outcome.engine_events)
        op.detail = {
            "decisions": report.decisions,
            "speedups": {s.label: s.speedup for s in report.scenarios},
        }
        return op

    def trace_for(self, op: Op):
        return logfile.load(self.trace_path(op.index))

    def config_for(self, op: Op, label: str, trace) -> SimConfig:
        configs = op.detail.setdefault("configs", {})
        if not configs:
            configs.update(
                (cell.label, cell.config) for cell in self.manifest(op.index).configs(trace)
            )
        return configs[label]

    def extra_checks(self, ops: List[Op]) -> Tuple[Dict[int, str], Dict[str, Any]]:
        first = [op for op in ops if op.index < self.min_ops and op.error is None]
        # engine events per replayed cell of the sweeps every run makes:
        # identical between runs of one seed unless replay behaviour changed
        events: Dict[str, List[int]] = {}
        for op in first:
            for label, (_, count) in op.answers.items():
                scheduler = label.rsplit("/", 1)[-1]
                if scheduler not in ("cfs", "clutch"):
                    scheduler = "solaris"
                events.setdefault(scheduler, []).append(count)
        extras = {
            f"sched.{name}.events_per_cell": (sum(counts) / len(counts), "count")
            for name, counts in sorted(events.items())
        }
        if self.tier == "sim":
            wrong, measured = self._speedup_error(first)
            extras.update(measured)
            return wrong, extras
        return self._decision_parity(first), extras

    def _speedup_error(self, ops: List[Op]):
        """Solaris unbound cells at 2/4/8 CPUs vs seeded ground truth."""
        wrong: Dict[int, str] = {}
        worst = 0.0
        for op in ops:
            spec = WorkloadSpec(
                name=self.program_of(op.index),
                threads=THREADS,
                scale=self.scale,
                seed=self.op_seed(op.index),
            )
            measured = measure_one(spec)
            if measured.trace.fingerprint() != op.trace_fp:
                wrong[op.index] = "ground-truth recording differs from the sweep's trace"
                continue
            for cpus in spec.cpus:
                predicted = op.detail["speedups"][f"{cpus}cpu/unbound"]
                real = measured.real_speedup(cpus)
                worst = max(worst, abs(predicted - real) / real * 100.0)
        return wrong, {"speedup_error_max_pct": (round(worst, 6), "%")}

    def _decision_parity(self, ops: List[Op]) -> Dict[int, str]:
        """Tiered decisions must equal a fully simulated sweep's."""
        wrong = {}
        for op in ops:
            full = manifest_mod.run_manifest(self.manifest(op.index), self.engine, tier="sim")
            if full.decisions != op.detail["decisions"]:
                wrong[op.index] = (
                    f"tiered decisions {op.detail['decisions']} != full {full.decisions}"
                )
        return wrong


# ---------------------------------------------------------------------------
# HTTP workloads
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class SubprocessServer:
    """``vppb serve --workers 2 --quiet`` in a child process."""

    def __init__(self, cache_dir: Path, spool_dir: Path):
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--workers", str(WORKERS), "--quiet", "--port", str(self.port),
                "--cache-dir", str(cache_dir), "--spool-dir", str(spool_dir),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while not self._healthy():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("vppb serve did not become healthy")
            time.sleep(0.005)

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # graceful drain, then exit
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


class InprocServer:
    """The asyncio front end on a thread over an inline engine (traced runs)."""

    def __init__(self, cache_dir: Path, spool_dir: Path):
        self.engine = JobEngine(mode="inline", cache=ResultCache(cache_dir))
        self.background = BackgroundServer(
            PredictionService(self.engine, spool_dir=spool_dir)
        ).__enter__()
        self.port = self.background.port

    def close(self) -> None:
        self.background.stop()
        self.engine.close()


class Client:
    """One keep-alive connection; a transport failure is a failed op."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            self.conn.request("POST", path, body=body)
            response = self.conn.getresponse()
            payload = json.loads(response.read() or b"{}")
            if response.getheader("Connection", "").lower() == "close":
                self.close()
            return response.status, payload
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return 0, {"error": repr(exc)}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def check_predictions(body: Dict[str, Any], cpus: List[int]) -> Optional[str]:
    """Structural answer check: cpus echoed, speed-up = uni / makespan."""
    predictions = body.get("predictions") or []
    if [p.get("cpus") for p in predictions] != cpus:
        return f"predictions for {[p.get('cpus') for p in predictions]}, asked {cpus}"
    for p in predictions:
        makespan, uni = p.get("makespan_us") or 0, p.get("uniprocessor_us") or 0
        if makespan <= 0 or uni <= 0 or p.get("speedup") != round(uni / makespan, 6):
            return f"inconsistent prediction {p}"
    return None


class HttpWorkload(Workload):
    over_http = True
    #: closed-loop clients against the pooled server
    clients = WORKERS

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server = None
        self.launches = 0
        # the traced in-process run uses one client, or span times would
        # include waits for the other request's share of the interpreter lock
        self.concurrency = 1 if self.inline else self.clients

    def launch(self) -> Tuple[Any, float]:
        # every server gets its own empty cache and spool
        self.launches += 1
        home = self.work / f"server-{self.launches}"
        started = time.perf_counter()
        server_type = InprocServer if self.inline else SubprocessServer
        server = server_type(home / "cache", home / "spool")
        return server, time.perf_counter() - started

    def start(self) -> float:
        self.server, elapsed = self.launch()
        return elapsed

    def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def client(self) -> Client:
        return Client(self.server.port)


class IngestWorkload(HttpWorkload):
    """Upload a never-seen log, then predict it at 2, 4 and 8 CPUs."""

    name = "ingest-fresh"
    min_ops = 8
    #: clean seeded recordings; every op's log is one of them plus a
    #: unique comment header, so content and fingerprints are never seen
    #: before while log generation stays off the clock
    BASES = 4
    DAMAGED = 4

    def prepare(self) -> None:
        self.bases = []
        for k in range(self.BASES):
            program = get_workload(("prodcons", "ocean")[k % 2]).make_program(
                THREADS, self.scale, seed=self.seed * 1000 + k
            )
            self.bases.append(logfile.dumps(record_program(program).trace))
        self.damaged = []
        rng = self.rng("damage")
        kinds = sorted(CORRUPTORS)
        while len(self.damaged) < self.DAMAGED:
            text = corrupt(
                rng.choice(self.bases), rng.choice(kinds), rng.randrange(1 << 30)
            )
            if self._still_predicts(text):
                self.damaged.append(text)

    @staticmethod
    def _still_predicts(text: str) -> bool:
        trace = salvage_loads(text).trace
        if len(trace) == 0:
            return False
        configs = [uniprocessor_config()] + [SimConfig(cpus=n) for n in INGEST_CPUS]
        try:
            plan = compile_trace(trace)
            for config in configs:
                Simulator(config).run_replay(plan)
        except VppbError:
            return False
        return True

    def log_text(self, index: int) -> str:
        if index % 8 == 7:
            template = self.damaged[(index // 8) % len(self.damaged)]
        else:
            template = self.bases[index % len(self.bases)]
        head = template.index("\n") + 1
        return (
            template[:head]
            + f"# comment: e2e seed {self.seed} op {index}\n"
            + template[head:]
        )

    def run_op(self, client: Client, index: int) -> Op:
        body = self.log_text(index).encode("utf-8")
        started = time.perf_counter()
        status, answer = client.post("/traces", body)
        fingerprint = answer.get("trace", "")
        if status == 200:
            request = {"trace": fingerprint, "cpus": INGEST_CPUS}
            status, answer = client.post("/predict", json.dumps(request).encode())
        op = Op(index=index, latency_s=time.perf_counter() - started)
        op.error = (
            f"HTTP {status}: {answer}" if status != 200
            else check_predictions(answer, INGEST_CPUS)
        )
        if op.error:
            return op
        op.trace_fp = fingerprint
        op.cells = len(INGEST_CPUS)
        uni = answer["predictions"][0]["uniprocessor_us"]
        op.answers["baseline"] = (uni, None)
        configs = {"baseline": uniprocessor_config()}
        for p in answer["predictions"]:
            op.answers[f"{p['cpus']}cpu"] = (p["makespan_us"], None)
            configs[f"{p['cpus']}cpu"] = SimConfig(cpus=p["cpus"])
        op.detail["configs"] = configs
        return op

    def trace_for(self, op: Op):
        return salvage_loads(self.log_text(op.index)).trace


class WarmWorkload(HttpWorkload):
    """Read-mostly ``/predict`` against one uploaded trace."""

    name = "predict-warm"
    min_ops = 16
    #: a cache hit is served on the server's own interpreter, so a second
    #: client adds no throughput (about 11 rps with one client or two on
    #: a 2-vCPU host) and only makes each request wait for the other's
    #: share of the interpreter lock
    clients = 1
    #: every this-many-th request is fresh; the share is fixed rather than
    #: drawn, so every seed and run length serves the same mix
    FRESH_EVERY = 5

    def prepare(self) -> None:
        program = get_workload("prodcons").make_program(
            THREADS, self.scale, seed=self.seed * 1000
        )
        self.trace = record_program(program).trace
        self.text = logfile.dumps(self.trace)
        self.fixed = [
            {"cpus": list(cpus), "comm_delay_us": delay, "scheduler": scheduler}
            for cpus in WARM_CPUS
            for delay in WARM_DELAYS_US
            for scheduler in WARM_SCHEDULERS
        ]
        #: the fixed set is requested in this seeded order, round after round
        self.order = list(range(len(self.fixed)))
        self.rng("order").shuffle(self.order)

    def warm_up(self) -> None:
        """Upload the trace and fill the result cache with the fixed set."""
        client = self.client()
        try:
            status, stored = client.post("/traces", self.text.encode("utf-8"))
        finally:
            client.close()
        if status != 200 or stored.get("trace") != self.trace.fingerprint():
            raise RuntimeError(f"warm-up upload failed: HTTP {status} {stored}")
        self.fingerprint = stored["trace"]
        filled, _ = drive(self, 0, 0.0, len(self.fixed), op_fn=self._fill)
        failed = [op.error for op in filled if op.error]
        if failed:
            raise RuntimeError(f"warm-up failed: {failed[:3]}")
        self.expected = [op.detail["answer"] for op in filled]
        self.uniprocessor_us = self.expected[0]["predictions"][0]["uniprocessor_us"]

    def _fill(self, client: Client, slot: int) -> Op:
        request = self.fixed[slot]
        status, answer = client.post(
            "/predict", json.dumps(dict(request, trace=self.fingerprint)).encode()
        )
        op = Op(index=slot, latency_s=0.0, detail={"answer": answer})
        op.error = (
            f"HTTP {status}: {answer}" if status != 200
            else check_predictions(answer, request["cpus"])
        )
        return op

    def request(self, index: int) -> Tuple[Dict[str, Any], Optional[int]]:
        """The op's request and, for the fixed set, its position in it."""
        if index % self.FRESH_EVERY == self.FRESH_EVERY - 1:
            return {"cpus": [2, 4], "comm_delay_us": FRESH_DELAY_BASE_US + index}, None
        slot = self.order[(index - index // self.FRESH_EVERY) % len(self.fixed)]
        return self.fixed[slot], slot

    def run_op(self, client: Client, index: int) -> Op:
        request, slot = self.request(index)
        body = json.dumps(dict(request, trace=self.fingerprint)).encode()
        started = time.perf_counter()
        status, answer = client.post("/predict", body)
        op = Op(index=index, latency_s=time.perf_counter() - started)
        if status != 200:
            op.error = f"HTTP {status}: {answer}"
        elif slot is not None and answer != self.expected[slot]:
            op.error = f"cached answer changed for {request}"
        else:
            op.error = check_predictions(answer, request["cpus"])
            if not op.error and answer["predictions"][0]["uniprocessor_us"] != self.uniprocessor_us:
                op.error = "baseline differs from the warm-up baseline"
        if op.error:
            return op
        op.trace_fp = self.fingerprint
        op.cells = len(request["cpus"])
        scheduler = request.get("scheduler", "solaris")
        delay = request["comm_delay_us"]
        configs = op.detail["configs"] = {}
        for p in answer["predictions"]:
            label = f"{p['cpus']}cpu/comm={delay}us/{scheduler}"
            op.answers[label] = (p["makespan_us"], None)
            configs[label] = SimConfig(cpus=p["cpus"], comm_delay_us=delay, scheduler=scheduler)
        return op

    def trace_for(self, op: Op):
        return self.trace


WORKLOADS = {
    "sweep-xos": lambda *a, **k: SweepWorkload(*a, tier="sim", **k),
    "sweep-tiered": lambda *a, **k: SweepWorkload(*a, tier="auto", **k),
    "ingest-fresh": IngestWorkload,
    "predict-warm": WarmWorkload,
}


# ---------------------------------------------------------------------------
# driving and checking
# ---------------------------------------------------------------------------


def drive(
    workload: Workload, first: int, seconds: float, count: int, *, op_fn=None
) -> Tuple[List[Op], float]:
    """Run ops ``first, first+1, ...`` in a closed loop.

    ``workload.concurrency`` clients each send their next op only when
    the previous one returned.  No op starts once *seconds* have passed
    and at least *count* ops were started.  *op_fn* replaces
    ``workload.run_op``.  Returns ``(ops, wall_s)``.
    """
    op_fn = op_fn or workload.run_op
    lock = threading.Lock()
    state = {"next": first}
    ops: List[Op] = []
    failures: List[BaseException] = []
    started = time.perf_counter()

    def loop() -> None:
        client = workload.client()
        try:
            while True:
                with lock:
                    index = state["next"]
                    done = index - first
                    if (
                        done >= count
                        and done % workload.batch == 0
                        and time.perf_counter() - started >= seconds
                    ):
                        return
                    state["next"] = index + 1
                op = op_fn(client, index)
                with lock:
                    ops.append(op)
        except BaseException as exc:
            failures.append(exc)
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=loop) for _ in range(workload.concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    ops.sort(key=lambda op: op.index)
    return ops, time.perf_counter() - started


def oracle(workload: Workload, ops: List[Op]) -> Tuple[Dict[int, str], str, int]:
    """Replay a seeded sample of answered cells serially and compare.

    Samples only ops every run completes (index < ``min_ops``), so the
    returned ``makespan_digest`` — sha256 over trace fingerprint, label,
    makespan and engine events of each sampled cell — is identical for
    two runs of one seed and comparable across commits.
    Returns ``(wrong ops, digest, cells checked)``.
    """
    pool = [
        (op, label)
        for op in ops
        if op.index < workload.min_ops and op.error is None
        for label in sorted(op.answers)
    ]
    sample = sorted(
        workload.rng("oracle").sample(pool, min(ORACLE_CELLS, len(pool))),
        key=lambda pair: (pair[0].index, pair[1]),
    )
    wrong: Dict[int, str] = {}
    digest = hashlib.sha256()
    plans: Dict[int, Any] = {}
    for op, label in sample:
        if op.index not in plans:
            trace = workload.trace_for(op)
            if trace.fingerprint() != op.trace_fp:
                wrong[op.index] = "served trace fingerprint differs from the uploaded log"
            plans[op.index] = (trace, compile_trace(trace))
        trace, plan = plans[op.index]
        makespan_us, events = op.answers[label]
        result = Simulator(workload.config_for(op, label, trace)).run_replay(plan)
        if result.makespan_us != makespan_us or events not in (None, result.engine_events):
            wrong[op.index] = (
                f"{label}: served {makespan_us}us/{events} events, "
                f"serial replay {result.makespan_us}us/{result.engine_events} events"
            )
        digest.update(
            f"{trace.fingerprint()}|{label}|{result.makespan_us}|{result.engine_events}\n"
            .encode()
        )
    return wrong, digest.hexdigest(), len(sample)
