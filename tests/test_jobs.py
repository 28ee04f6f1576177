"""Batch job engine: fingerprints, cache, pool, manifests, service.

The determinism contract under test: the same trace and config yield
byte-identical fingerprints and equal predictions whether executed
inline, on the process pool, or from a warm cache — and a poisoned job
degrades to a failed outcome instead of killing its sweep.
"""

from __future__ import annotations

import hashlib
import json
import http.client
import subprocess
import sys
import threading
from collections import OrderedDict

import pytest

from repro import SimConfig, record_program
from repro.analytic.profile import AnalyticProfile
from repro.core.errors import AnalysisError, SimulationError
from repro.core.predictor import compile_trace, predict_speedup
from repro.faultinject import corrupt
from repro.jobs import (
    JobEngine,
    JobOutcome,
    ResultCache,
    SimJob,
    SweepManifest,
    TraceRef,
    canonical_config,
    job_fingerprint,
    trace_fingerprint,
)
from repro.jobs import fingerprint
from repro.jobs.fingerprint import analytic_job_fingerprint
from repro.jobs.manifest import curve_cells, run_grid, run_manifest
from repro.jobs.model import FINGERPRINTS
from repro.jobs.service import PredictionService
from repro.jobs.service_async import BackgroundServer
from repro.jobs.worker import CRASH_SENTINEL, EXECUTORS
from repro.recorder import logfile

from tests.conftest import VOLATILE, make_prodcons_program


@pytest.fixture(scope="module")
def trace():
    return record_program(make_prodcons_program()).trace


@pytest.fixture(scope="module")
def log_text(trace):
    return logfile.dumps(trace)


def _curve(engine, trace, cpus, ref=None, **kw):
    """One speed-up curve through ``run_grid``, read strictly."""
    ref = ref or TraceRef.from_trace(trace)
    return run_grid(engine, ref, curve_cells(SimConfig(), cpus), **kw).speedups()


# ---------------------------------------------------------------------------
# the package's imports
# ---------------------------------------------------------------------------


class TestImports:
    def test_manifest_import_leaves_the_http_stack_out(self):
        """Batch runs and pool workers import the job layer, not the
        HTTP client or the asyncio server."""
        code = (
            "import sys, repro.jobs.manifest; "
            "print(sorted(m for m in ('asyncio', 'http.client') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_http_exports_resolve_on_first_use(self):
        import repro.jobs as jobs
        from repro.jobs.client import ServiceClient
        from repro.jobs.service_async import serve_async

        assert jobs.ServiceClient is ServiceClient
        assert jobs.serve_async is serve_async
        assert {"ClientError", "ServiceClient", "AsyncPredictionServer",
                "serve_async"} <= set(jobs.__all__)
        with pytest.raises(AttributeError):
            jobs.no_such_export


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_trace_fingerprint_stable_across_roundtrip(self, trace, log_text, tmp_path):
        path = tmp_path / "t.log"
        path.write_text(log_text)
        reloaded = logfile.load(path)
        assert trace.fingerprint() == reloaded.fingerprint()
        assert trace.fingerprint() == trace_fingerprint(trace)

    def test_fingerprint_memoised(self, trace):
        assert trace.fingerprint() is trace.fingerprint()

    def test_job_fingerprint_deterministic(self, trace):
        a = SimJob.for_trace(trace, SimConfig(cpus=4))
        b = SimJob.for_trace(trace, SimConfig(cpus=4))
        assert a.fingerprint == b.fingerprint

    def test_config_changes_fingerprint(self, trace):
        fp = trace.fingerprint()
        base = job_fingerprint(fp, SimConfig(cpus=4))
        assert job_fingerprint(fp, SimConfig(cpus=8)) != base
        assert job_fingerprint(fp, SimConfig(cpus=4, lwps=2)) != base
        assert job_fingerprint(fp, SimConfig(cpus=4, comm_delay_us=5)) != base

    def test_trace_changes_fingerprint(self, trace):
        config = SimConfig(cpus=4)
        assert job_fingerprint("aaaa", config) != job_fingerprint("bbbb", config)

    def test_engine_version_bump_rekeys(self, trace, monkeypatch):
        import repro.jobs.fingerprint as fpmod

        before = job_fingerprint(trace.fingerprint(), SimConfig())
        monkeypatch.setattr(fpmod, "ENGINE_VERSION", fpmod.ENGINE_VERSION + 1)
        assert job_fingerprint(trace.fingerprint(), SimConfig()) != before

    def test_canonical_config_is_json_safe_and_ordered(self):
        from repro.core.config import ThreadPolicy

        a = SimConfig(thread_policies={3: ThreadPolicy(bound=True), 1: ThreadPolicy()})
        b = SimConfig(thread_policies={1: ThreadPolicy(), 3: ThreadPolicy(bound=True)})
        assert json.dumps(canonical_config(a), sort_keys=True) == json.dumps(
            canonical_config(b), sort_keys=True
        )


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _outcome(fp: str, **kw) -> JobOutcome:
    defaults = dict(status="complete", makespan_us=123, elapsed_s=0.5)
    defaults.update(kw)
    return JobOutcome(fingerprint=fp, **defaults)


class TestResultCache:
    def test_roundtrip_and_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("f" * 64) is None
        cache.put(_outcome("f" * 64))
        got = cache.get("f" * 64)
        assert got is not None and got.makespan_us == 123 and got.from_cache
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert cache.hit_rate == 0.5

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(_outcome("a" * 64))
        fresh = ResultCache(tmp_path)
        assert fresh.get("a" * 64) is not None

    def test_failed_outcomes_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_outcome("b" * 64, status="failed", error="boom"))
        assert cache.get("b" * 64) is None

    def test_version_bump_invalidates_disk_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_outcome("c" * 64))
        path = cache._path_for("c" * 64)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        assert ResultCache(tmp_path).get("c" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_outcome("d" * 64))
        cache._path_for("d" * 64).write_text("{not json")
        assert ResultCache(tmp_path).get("d" * 64) is None

    def test_lru_bound_with_disk_fallback(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=2)
        for ch in "abc":
            cache.put(_outcome(ch * 64))
        assert len(cache._lru) == 2
        # evicted entry still hits via disk
        assert cache.get("a" * 64) is not None

    def test_memory_only_mode(self):
        cache = ResultCache(None)
        cache.put(_outcome("e" * 64))
        assert cache.get("e" * 64) is not None
        assert cache.stats()["persistent"] is False

    def test_eviction_waits_for_a_concurrent_hit(self):
        """A put that would evict the entry a get is reading waits for it.

        The LRU pauses inside ``get`` until a second thread has put
        enough entries to evict the key (or a short timeout passes);
        unguarded, the get's ``move_to_end`` then raises ``KeyError``.
        """
        key = "a" * 64
        cache = ResultCache(None, max_memory_entries=2)
        cache.put(_outcome(key))
        reading, evicted = threading.Event(), threading.Event()
        evicted_during_get = []

        class PausingLRU(OrderedDict):
            def get(self, fp, default=None):
                found = super().get(fp, default)
                if fp == key and not reading.is_set():
                    reading.set()
                    evicted_during_get.append(evicted.wait(timeout=0.2))
                return found

        cache._lru = PausingLRU(cache._lru)

        def evict():
            reading.wait(timeout=5)
            for ch in "bc":
                cache.put(_outcome(ch * 64))
            evicted.set()

        evictor = threading.Thread(target=evict)
        evictor.start()
        try:
            got = cache.get(key)
        finally:
            evictor.join(timeout=5)
        assert not evictor.is_alive()
        assert got is not None and got.makespan_us == 123
        assert evicted_during_get == [False]
        assert evicted.is_set() and key not in cache._lru
        assert (cache.hits, cache.misses, cache.stores) == (1, 0, 3)

    def test_counters_add_up_across_threads(self):
        cache = ResultCache(None, max_memory_entries=2)
        threads, rounds = 4, 20000
        errors = []

        def work(offset):
            try:
                for i in range(rounds):
                    fp = "abcd"[(offset + i) % 4] * 64
                    cache.put(_outcome(fp))
                    cache.get(fp)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        assert cache.hits + cache.misses == threads * rounds
        assert cache.stores == threads * rounds
        assert len(cache._lru) == 2


# ---------------------------------------------------------------------------
# engine: inline, pooled, cached — one contract
# ---------------------------------------------------------------------------


class TestEngineDeterminism:
    def test_inline_pool_and_cache_agree(self, trace):
        cpus = [1, 2, 4]
        inline = JobEngine(mode="inline")
        inline_preds = _curve(inline, trace, cpus)
        with JobEngine(workers=2) as pooled:
            pool_preds = _curve(pooled, trace, cpus)
            warm_preds = _curve(pooled, trace, cpus)  # cache hits
            assert pooled.cache.hits >= len(cpus)
        key = lambda preds: [(p.cpus, p.uniprocessor_us, p.makespan_us) for p in preds]
        assert key(inline_preds) == key(pool_preds) == key(warm_preds)

    def test_matches_serial_predictor(self, trace):
        plan = compile_trace(trace)
        engine = JobEngine(mode="inline")
        for pred in _curve(engine, trace, [2, 4]):
            serial = predict_speedup(trace, pred.cpus, plan=plan)
            assert pred.makespan_us == serial.makespan_us
            assert pred.uniprocessor_us == serial.uniprocessor_us

    def test_in_flight_dedup(self, trace):
        engine = JobEngine(mode="inline")
        job = SimJob.for_trace(trace, SimConfig(cpus=2), label="x")
        twin = SimJob.for_trace(trace, SimConfig(cpus=2), label="y")
        outcomes = engine.run([job, twin], use_cache=False)
        assert engine.metrics.jobs_submitted == 1
        assert [o.label for o in outcomes] == ["x", "y"]
        assert outcomes[0].makespan_us == outcomes[1].makespan_us

    def test_outcomes_keep_submission_order(self, trace):
        engine = JobEngine(mode="inline")
        jobs = [
            SimJob.for_trace(trace, SimConfig(cpus=n), label=f"{n}cpu")
            for n in (4, 1, 2)
        ]
        outcomes = engine.run(jobs)
        assert [o.label for o in outcomes] == ["4cpu", "1cpu", "2cpu"]


#: A small inline analytic profile, so recalibrating the committed
#: profiles/analytic.json never moves a pinned analytic address.
SMALL_PROFILE = AnalyticProfile(
    margins={
        "default": {
            "amdahl": (0.5, 2.0),
            "comm_scale": (0.5, 2.0),
            "lock_queue": (0.5, 2.0),
            "work_span": (0.5, 2.0),
        }
    },
    suite=(),
)

def _address(trace_ref, config, kind):
    """A result's content address: a job's, or run_grid's analytic answer's."""
    if kind == "analytic":
        return analytic_job_fingerprint(
            trace_ref.fingerprint, config, SMALL_PROFILE.fingerprint()
        )
    return SimJob(trace=trace_ref, config=config, kind=kind).fingerprint


class TestJobKinds:
    """Every job kind honours one contract: a fixed address, one answer."""

    #: Content addresses for trace fingerprint "f" * 64 on 4 CPUs, for
    #: both job kinds and for run_grid's cached analytic answers.  A
    #: change here re-keys every cached result of that kind and backend,
    #: so it should only ever come with a bumped version constant in
    #: repro.jobs.fingerprint.
    PINNED = {
        ("sim", "solaris"): "ca509b935107b55682dff4c538d6484cf3476139ddfe3a6a1e76235d15eb3c0b",
        ("sim", "cfs"): "028af46e152d89fc6700ee1412c6718d59d44d25d612d6560e9feddd711d1c32",
        ("sim", "clutch"): "f168cafd6aa9f1643c0e29dc64df7729b5b2fbe25e5525f71afbe4a19bc0b14e",
        ("lint", "solaris"): "8dbddb77143ad716d7cbee8a793407052f1cadfbc4921874a09650accec7fc62",
        ("lint", "cfs"): "f0f2ad83bf33efd5f95891a55f71c70def0e02feb52eb2228c8351df8dc7dd68",
        ("lint", "clutch"): "ee376ce8c1d85638835a91304abc58e98bca1ca77751b8d7ce14e15bc7adb0bf",
        ("analytic", "solaris"): "3d8a41037777cfffcee623ac537691bf371a3528573a8f8ed4acaa5120af5ceb",
        ("analytic", "cfs"): "ab742bf1d5b0b87fd877ac9f84b123a0b7913c56073b5cc20c5e8221fbf6ce88",
        ("analytic", "clutch"): "5f9568efdaaa1e7826d7846e992a0c8c8ffa6b062f108d9391967b9767963575",
    }

    def test_both_tables_name_the_same_kinds(self):
        assert set(FINGERPRINTS) == set(EXECUTORS) == {"sim", "lint"}

    @pytest.mark.parametrize("kind,scheduler", sorted(PINNED))
    def test_fingerprints_are_pinned(self, kind, scheduler):
        ref = TraceRef(fingerprint="f" * 64, text="")
        address = _address(ref, SimConfig(cpus=4, scheduler=scheduler), kind)
        assert address == self.PINNED[kind, scheduler]

    @pytest.mark.parametrize("constant", [
        "ENGINE_VERSION", "ANALYTIC_VERSION", "STATS_VERSION",
    ])
    def test_analytic_address_follows_its_versions(self, constant, monkeypatch):
        ref = TraceRef(fingerprint="f" * 64, text="")
        config = SimConfig(cpus=4)
        before = _address(ref, config, "analytic")
        monkeypatch.setattr(fingerprint, constant, getattr(fingerprint, constant) + 1)
        assert _address(ref, config, "analytic") != before

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_inline_pool_and_cache_agree(self, kind, trace):
        ref = TraceRef.from_trace(trace)
        jobs = [
            SimJob(trace=ref, config=SimConfig(cpus=n), kind=kind, label=f"{n}cpu")
            for n in (1, 2, 4)
        ]
        inline = JobEngine(mode="inline").run(jobs, use_cache=False)
        with JobEngine(workers=2) as pooled:
            pool = pooled.run(jobs)
            warm = pooled.run(jobs)
        assert all(o.complete for o in inline)
        assert all(o.from_cache for o in warm)

        def key(outcomes):
            return [
                {k: v for k, v in o.to_dict().items() if k not in VOLATILE}
                for o in outcomes
            ]

        assert key(inline) == key(pool) == key(warm)

    def test_failed_jobs_count_under_their_kind(self):
        bad = TraceRef(fingerprint="e" * 64, text="not a vppb log\n")
        engine = JobEngine(mode="inline")
        outcomes = engine.run(
            [
                SimJob(trace=bad, config=SimConfig(cpus=2), kind=kind)
                for kind in ("lint", "sim")
            ]
        )
        assert [o.status for o in outcomes] == [JobOutcome.FAILED] * 2
        snap = engine.snapshot()
        assert snap["jobs_failed"] == 2
        assert snap["kinds"]["lint"]["jobs"] == snap["kinds"]["sim"]["jobs"] == 1

    def test_unknown_kind_rejected(self):
        ref = TraceRef(fingerprint="f" * 64, text="")
        with pytest.raises(ValueError, match="unknown job kind 'replay'"):
            SimJob(trace=ref, config=SimConfig(), kind="replay")


class TestWorkerPlanCache:
    """The worker-side compiled-plan LRU and its observability."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        from repro.jobs import worker

        monkeypatch.setattr(worker, "_CACHES", {})

    @staticmethod
    def _payload(log_text, fp="f" * 64, cpus=2):
        return {
            "fingerprint": fp + f":{cpus}",
            "trace_fp": fp,
            "trace_text": log_text,
            "config": SimConfig(cpus=cpus),
        }

    def test_first_job_misses_then_hits(self, log_text):
        from repro.jobs.worker import run_payload

        first = run_payload(self._payload(log_text, cpus=1))
        second = run_payload(self._payload(log_text, cpus=2))
        assert (first["plan_cache_hits"], first["plan_cache_misses"]) == (0, 1)
        assert (second["plan_cache_hits"], second["plan_cache_misses"]) == (1, 0)

    def test_cache_capacity_evicts_least_recent_trace(self, log_text, monkeypatch):
        from repro.jobs import worker

        monkeypatch.setattr(worker, "CACHE_CAPACITY", 1)
        worker.run_payload(self._payload(log_text, fp="a" * 64))
        worker.run_payload(self._payload(log_text, fp="b" * 64))
        # capacity 1: the second trace evicted the first
        evicted = worker.run_payload(self._payload(log_text, fp="a" * 64))
        assert evicted["plan_cache_misses"] == 1
        assert list(worker._CACHES["plan"]) == ["a" * 64]

    def test_outcome_and_metrics_surface_amortisation(self, trace):
        engine = JobEngine(mode="inline")
        ref = TraceRef.from_trace(trace)
        outcomes = engine.run(
            [SimJob(trace=ref, config=SimConfig(cpus=n)) for n in (1, 2, 4)],
            use_cache=False,
        )
        hits = sum(o.plan_cache_hits for o in outcomes)
        misses = sum(o.plan_cache_misses for o in outcomes)
        assert misses >= 1  # first job compiles
        assert hits + misses == 3
        snap = engine.snapshot()
        assert snap["plan_cache"] == {"hits": hits, "misses": misses}

    def test_outcome_dict_roundtrip_keeps_counts(self):
        o = JobOutcome(
            fingerprint="x", status="complete",
            plan_cache_hits=1, plan_cache_misses=0,
        )
        back = JobOutcome.from_dict(o.to_dict())
        assert back.plan_cache_hits == 1 and back.plan_cache_misses == 0

    def test_batch_table_reports_plan_cache(self, trace, tmp_path):
        import json as json_mod

        path = tmp_path / "trace.log"
        path.write_text(logfile.dumps(trace))
        manifest = SweepManifest.from_dict(
            {"trace": str(path), "cpus": [1, 2]}, base_dir=tmp_path
        )
        engine = JobEngine(mode="inline")
        report = run_manifest(manifest, engine, use_cache=False)
        assert "plan cache:" in report.format_table()
        assert "plan_cache" in json_mod.loads(report.to_json())["metrics"]


class TestEngineFaults:
    def test_poisoned_job_does_not_kill_the_sweep(self, trace, log_text):
        # a corruptor-damaged trace must fail its own job only
        bad_text = corrupt(log_text, "mangle-primitive", seed=1)
        bad = SimJob(
            trace=TraceRef(fingerprint="bad" * 20 + "badb", text=bad_text),
            config=SimConfig(cpus=2),
            label="poisoned",
        )
        good = SimJob.for_trace(trace, SimConfig(cpus=2), label="healthy")
        engine = JobEngine(mode="inline")
        outcomes = engine.run([good, bad, good])
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok and outcomes[1].status == "failed"
        assert "Error" in outcomes[1].error
        assert engine.metrics.jobs_failed == 1

    def test_worker_crash_retries_then_degrades(self, trace):
        crash = SimJob(
            trace=TraceRef(fingerprint="c" * 64, text=CRASH_SENTINEL),
            config=SimConfig(cpus=2),
            label="crash",
        )
        good = [
            SimJob.for_trace(trace, SimConfig(cpus=n), label=f"{n}cpu")
            for n in (1, 2, 4)
        ]
        with JobEngine(workers=2) as engine:
            outcomes = engine.run([good[0], crash, good[1], good[2]])
            assert engine.metrics.worker_crashes >= 1
        crashed = outcomes[1]
        assert not crashed.ok and "crash" in crashed.error
        assert crashed.attempts == 2
        for o in (outcomes[0], outcomes[2], outcomes[3]):
            assert o.ok, o.error

    def test_backpressure_bound_still_completes(self, trace):
        with JobEngine(workers=2, max_pending=1) as engine:
            preds = _curve(engine, trace, [1, 2, 3, 4])
        assert len(preds) == 4

    def test_failed_job_raises_from_grid_speedups(self, trace, log_text):
        bad_text = corrupt(log_text, "mangle-primitive", seed=1)
        engine = JobEngine(mode="inline")
        bad_trace_ref = TraceRef(fingerprint="z" * 64, text=bad_text)
        with pytest.raises(SimulationError):
            _curve(engine, trace, [2], ref=bad_trace_ref)

    def test_partial_job_raises_from_grid_speedups(self, trace):
        engine = JobEngine(mode="inline")
        with pytest.raises(SimulationError, match="baseline came back partial"):
            _curve(engine, trace, [2], budget=(5, None))


# ---------------------------------------------------------------------------
# whatif entry points route through the engine
# ---------------------------------------------------------------------------


class TestWhatifViaEngine:
    def test_speedup_curve_engine_param(self, trace):
        from repro.analysis.whatif import speedup_curve

        engine = JobEngine(mode="inline")
        curve = speedup_curve(trace, 4, engine=engine)
        assert [p.cpus for p in curve] == [1, 2, 3, 4]
        plan = compile_trace(trace)
        for p in curve:
            assert p.makespan_us == predict_speedup(trace, p.cpus, plan=plan).makespan_us

    def test_find_knee_shares_probe_results(self, trace):
        from repro.analysis.whatif import find_knee

        engine = JobEngine(mode="inline")
        knee = find_knee(trace, max_cpus=8, engine=engine)
        assert knee.cpus >= 1
        assert engine.cache.hits > 0  # exponential probe and walk-back overlap

    def test_lwp_sensitivity_engine_param(self, trace):
        from repro.analysis.whatif import lwp_sensitivity

        makespans = lwp_sensitivity(trace, 4, (1, None), engine=JobEngine(mode="inline"))
        assert makespans[1] >= makespans[None]


class TestKneePointDegenerate:
    def test_fraction_of_bound_raises_on_zero_bound(self):
        from repro.analysis.whatif import KneePoint

        knee = KneePoint(cpus=1, speedup=0.0, bound=0.0)
        with pytest.raises(AnalysisError):
            knee.fraction_of_bound

    def test_fraction_of_bound_normal(self):
        from repro.analysis.whatif import KneePoint

        assert KneePoint(cpus=2, speedup=1.5, bound=3.0).fraction_of_bound == 0.5


# ---------------------------------------------------------------------------
# manifests and vppb batch
# ---------------------------------------------------------------------------


class TestManifest:
    def test_grid_expansion(self, trace):
        m = SweepManifest.from_dict(
            {
                "trace": "x.log",
                "cpus": {"min": 1, "max": 4},
                "bindings": ["unbound", "bound"],
                "lwps": [None, 2],
            }
        )
        assert m.grid_size() == 16
        cells = m.configs(trace)
        assert len(cells) == 16
        labels = {c.label for c in cells}
        assert "1cpu/unbound" in labels and "4cpu/bound/lwps=2" in labels
        bound_cell = next(c for c in cells if c.binding == "bound")
        assert len(bound_cell.config.thread_policies) == len(trace.thread_ids())

    def test_validation_errors(self):
        with pytest.raises(AnalysisError):
            SweepManifest.from_dict({"cpus": [2]})  # no trace
        with pytest.raises(AnalysisError, match="'trace' key"):
            SweepManifest.from_dict({"trace": 5, "cpus": [2]})
        with pytest.raises(AnalysisError):
            SweepManifest.from_dict({"trace": "x", "cpus": []})
        with pytest.raises(AnalysisError):
            SweepManifest.from_dict({"trace": "x", "cpus": [0]})
        with pytest.raises(AnalysisError):
            SweepManifest.from_dict({"trace": "x", "bindings": ["sideways"]})
        # unknown keys are a ConfigError naming the key + nearest valid one
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="typo_key"):
            SweepManifest.from_dict({"trace": "x", "typo_key": 1})
        with pytest.raises(ConfigError, match="did you mean 'schedulers'"):
            SweepManifest.from_dict({"trace": "x", "scheduler": ["solaris"]})
        # grid values are integers: never truncated (2.9 -> 2) or coerced (True -> 1)
        for axes in (
            {"cpus": [2.5, True], "lwps": [True, 2.7]},
            {"cpus": [2.9]},
            {"cpus": [True]},
            {"cpus": ["2"]},
            {"cpus": {"min": 1, "max": 2.5}},
            {"lwps": [2.7]},
            {"comm_delay_us": [7.9]},
            {"comm_delay_us": [False]},
        ):
            with pytest.raises(AnalysisError, match="must be an integer"):
                SweepManifest.from_dict({"trace": "x", **axes})
        for axes in ({"lwps": 2}, {"comm_delay_us": 0}, {"bindings": []}):
            with pytest.raises(AnalysisError, match="must be a non-empty list"):
                SweepManifest.from_dict({"trace": "x", **axes})

    def test_integral_floats_load_as_ints(self):
        m = SweepManifest.from_dict(
            {"trace": "x.log", "cpus": [2.0, 4], "lwps": [None, 2.0], "comm_delay_us": [7.0]}
        )
        assert (m.cpus, m.lwps, m.comm_delays_us) == ((2, 4), (None, 2), (7,))
        assert all(type(n) is int for n in (*m.cpus, m.lwps[1], *m.comm_delays_us))

    def test_relative_trace_path_resolves_against_manifest(self, tmp_path):
        (tmp_path / "sweep.json").write_text(
            json.dumps({"trace": "run.log", "cpus": [2]})
        )
        m = SweepManifest.load(tmp_path / "sweep.json")
        assert m.trace_path == tmp_path / "run.log"

    def test_run_manifest_matches_serial_curve(self, trace, log_text, tmp_path):
        from repro.analysis.whatif import speedup_curve

        log = tmp_path / "run.log"
        log.write_text(log_text)
        manifest = SweepManifest.from_dict(
            {"trace": str(log), "cpus": {"min": 1, "max": 4}}
        )
        engine = JobEngine(mode="inline", cache=ResultCache(tmp_path / "cache"))
        report = run_manifest(manifest, engine)
        serial = speedup_curve(trace, 4, engine=JobEngine(mode="inline"))
        assert [s.outcome.makespan_us for s in report.scenarios] == [
            p.makespan_us for p in serial
        ]
        assert [round(s.speedup, 9) for s in report.scenarios] == [
            round(p.speedup, 9) for p in serial
        ]
        # warm rerun: everything from cache
        rerun = run_manifest(manifest, engine)
        assert rerun.cache_hit_rate() == 1.0
        assert all(s.outcome.from_cache for s in rerun.scenarios)
        assert json.loads(report.to_json())["program"] == trace.meta.program

    def test_cli_batch(self, log_text, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "run.log").write_text(log_text)
        manifest = tmp_path / "sweep.json"
        manifest.write_text(
            json.dumps({"trace": "run.log", "cpus": [1, 2], "bindings": ["unbound"]})
        )
        cache = str(tmp_path / "cache")
        assert main(["batch", str(manifest), "--inline", "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "scenario hit rate 0%" in cold
        assert main(["batch", str(manifest), "--inline", "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "scenario hit rate 100%" in warm

    def test_cli_batch_bad_manifest(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["batch", str(bad)]) == 2


# ---------------------------------------------------------------------------
# the HTTP service
# ---------------------------------------------------------------------------


@pytest.fixture()
def service_conn(trace):
    engine = JobEngine(mode="inline")
    service = PredictionService(engine)
    try:
        with BackgroundServer(service) as bg:
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
            try:
                yield conn, service
            finally:
                conn.close()
    finally:
        engine.close()


def _request(conn, method, path, body=None):
    conn.request(
        method, path, body=body if body is None or isinstance(body, bytes) else body.encode()
    )
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestService:
    def test_upload_predict_metrics(self, service_conn, trace, log_text):
        conn, _service = service_conn
        status, uploaded = _request(conn, "POST", "/traces", log_text)
        assert status == 200
        assert uploaded["trace"] == trace.fingerprint()
        assert uploaded["events"] == len(trace)

        request = json.dumps({"trace": uploaded["trace"], "cpus": [2, 4]})
        status, pred = _request(conn, "POST", "/predict", request)
        assert status == 200
        plan = compile_trace(trace)
        for p in pred["predictions"]:
            assert p["makespan_us"] == predict_speedup(trace, p["cpus"], plan=plan).makespan_us

        # same request again: served from cache
        status, _ = _request(conn, "POST", "/predict", request)
        assert status == 200
        status, metrics = _request(conn, "GET", "/metrics")
        assert status == 200
        assert metrics["cache"]["hits"] >= 3
        assert metrics["jobs_failed"] == 0
        assert metrics["service"]["traces_spooled"] == 1
        assert {"p50_s", "p90_s", "p99_s"} <= set(metrics["latency"])

    @pytest.mark.parametrize("damage", [None, "mangle-tid"])
    def test_upload_spools_the_bytes_it_fingerprints(
        self, service_conn, log_text, damage, monkeypatch
    ):
        from repro.jobs.service import PredictionService

        conn, service = service_conn
        body = log_text if damage is None else corrupt(log_text, damage, seed=3)
        dumps_calls, store_threads = [], []
        dumps = logfile.dumps
        store = PredictionService.store_salvaged
        monkeypatch.setattr(
            logfile, "dumps", lambda *a, **kw: dumps_calls.append(1) or dumps(*a, **kw)
        )
        monkeypatch.setattr(
            PredictionService,
            "store_salvaged",
            lambda self, result: store_threads.append(threading.current_thread().name)
            or store(self, result),
        )
        status, uploaded = _request(conn, "POST", "/traces", body)
        monkeypatch.undo()

        assert status == 200
        assert uploaded["salvage"]["clean"] is (damage is None)
        assert len(dumps_calls) == 1  # one canonical serialisation per upload
        assert store_threads[0].startswith("vppb-svc")  # stored off the event loop
        spool = service.spool_dir / f"{uploaded['trace']}.log"
        assert hashlib.sha256(spool.read_bytes()).hexdigest() == uploaded["trace"]
        assert trace_fingerprint(logfile.load(spool)) == uploaded["trace"]
        assert [p.name for p in service.spool_dir.iterdir()] == [spool.name]

    def test_concurrent_stores_of_one_trace_agree(self, log_text, tmp_path):
        # uploads are stored on executor threads: racing stores of one
        # trace all answer its fingerprint, every one is counted, and
        # they leave one complete spool file and no temporary files
        import sys

        from repro.jobs.service import PredictionService

        service = PredictionService(JobEngine(mode="inline"), spool_dir=tmp_path)
        bodies = [log_text.encode("utf-8") for _ in range(8)]
        seen, errors = [], []

        def store_then_read(body):
            try:
                for _ in range(5):
                    fp = service.ingest(body)["trace"]
                    data = (tmp_path / f"{fp}.log").read_bytes()
                    seen.append(hashlib.sha256(data).hexdigest() == fp)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=store_then_read, args=(b,)) for b in bodies]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.engine.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert seen == [True] * 40
        assert service.streamed_uploads == 40
        assert len(list(tmp_path.iterdir())) == 1  # no temporary file left behind

    @pytest.mark.parametrize("path", ["/predict", "/lint"])
    def test_vanished_spool_file_is_404_naming_only_the_fingerprint(
        self, service_conn, log_text, path
    ):
        conn, service = service_conn
        status, uploaded = _request(conn, "POST", "/traces", log_text)
        assert status == 200
        fp = uploaded["trace"]
        (service.spool_dir / f"{fp}.log").unlink()  # a tmp cleaner's doing
        request = json.dumps({"trace": fp, "cpus": [2]})
        status, body = _request(conn, "POST", path, request)
        assert status == 404
        assert fp in body["error"] and "upload it again" in body["error"]
        assert str(service.spool_dir) not in json.dumps(body)
        # the index entry went with the file: now simply an unknown trace
        status, metrics = _request(conn, "GET", "/metrics")
        assert metrics["service"]["traces_spooled"] == 0
        status, body = _request(conn, "POST", path, request)
        assert status == 404 and "unknown trace" in body["error"]
        # uploading it again brings it back
        status, _ = _request(conn, "POST", "/traces", log_text)
        assert status == 200
        status, _ = _request(conn, "POST", path, request)
        assert status == 200

    def test_predict_inline_log(self, service_conn, log_text):
        conn, _service = service_conn
        status, pred = _request(
            conn, "POST", "/predict", json.dumps({"log": log_text, "cpus": [2]})
        )
        assert status == 200 and len(pred["predictions"]) == 1

    def test_error_paths(self, service_conn):
        conn, service = service_conn
        status, body = _request(conn, "POST", "/predict", json.dumps({"trace": "nope"}))
        assert status == 404 and "unknown trace" in body["error"]
        status, _ = _request(conn, "POST", "/traces", "garbage")
        assert status == 400
        status, _ = _request(conn, "POST", "/predict", "{not json")
        assert status == 400
        status, _ = _request(conn, "GET", "/nothing")
        assert status == 404
        status, body = _request(conn, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert service.errors == 4

    def test_scheduler_backend(self, service_conn, log_text):
        conn, _service = service_conn
        status, pred = _request(
            conn,
            "POST",
            "/predict",
            json.dumps({"log": log_text, "cpus": [2], "scheduler": "cfs"}),
        )
        assert status == 200 and len(pred["predictions"]) == 1
        status, metrics = _request(conn, "GET", "/metrics")
        assert status == 200
        assert metrics["schedulers"]["cfs"]["jobs"] == 1
        status, body = _request(
            conn,
            "POST",
            "/predict",
            json.dumps({"log": log_text, "scheduler": "vms"}),
        )
        assert status == 400 and "unknown scheduler" in body["error"]

    @pytest.mark.parametrize(
        "path,body",
        [
            ("/predict", {"lwps": 2.5}),
            ("/predict", {"lwps": True}),
            ("/predict", {"cpus": [2.9]}),
            ("/predict", {"cpus": [True]}),
            ("/predict", {"comm_delay_us": 7.9}),
            ("/lint", {"whatif": {"cpus": [2.5]}}),
            ("/lint", {"whatif": {"lwps": [True]}}),
        ],
        ids=[
            "predict-lwps-2.5", "predict-lwps-true", "predict-cpus-2.9",
            "predict-cpus-true", "predict-comm-7.9", "lint-cpus-2.5", "lint-lwps-true",
        ],
    )
    def test_non_integer_grid_value_is_400(self, service_conn, log_text, path, body):
        conn, _service = service_conn
        status, answer = _request(conn, "POST", path, json.dumps({"log": log_text, **body}))
        assert status == 400 and "must be an integer" in answer["error"]
        status, metrics = _request(conn, "GET", "/metrics")
        assert status == 200
        assert metrics["jobs_submitted"] == 0 and metrics["jobs_failed"] == 0

    def test_bound_binding(self, service_conn, log_text):
        conn, _service = service_conn
        status, pred = _request(
            conn,
            "POST",
            "/predict",
            json.dumps({"log": log_text, "cpus": [4], "binding": "bound"}),
        )
        assert status == 200 and pred["binding"] == "bound"
        status, _ = _request(
            conn,
            "POST",
            "/predict",
            json.dumps({"log": log_text, "cpus": [4], "binding": "sideways"}),
        )
        assert status == 400
