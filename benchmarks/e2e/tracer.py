"""Outside-in span tracing for the end-to-end benchmark.

Nothing inside ``src/`` records spans.  Instead :class:`Tracer` replaces
each layer's public function *where its caller looks it up* (a module
attribute such as ``repro.jobs.worker.compile_trace``, or a method on its
class) with a wrapper that records one span per call, and puts every
original back on :meth:`Tracer.remove`.  A per-thread span stack gives
each span its parent, so a layer's self time is its duration minus the
time its child spans cover.

Spans live in memory until the run ends; :meth:`Tracer.chrome_trace`
writes them as Chrome trace-event JSON (``chrome://tracing``, Perfetto)
and :func:`layer_metrics` reduces them to the per-layer numbers listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "layer_metrics", "manifest_coverage", "SCHEDULERS"]

#: the scheduler backends whose replays are reported separately
SCHEDULERS = ("solaris", "cfs", "clutch")


def _text_bytes(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": len(args[0]) if args else 0}


def _chunk_bytes(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": len(args[1])}


def _cache_hit(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _worker_result(args, kwargs, result) -> Dict[str, Any]:
    return {
        "kind": args[0].get("kind", "sim"),
        "elapsed_s": result.get("elapsed_s", 0.0),
        "plan_hits": result.get("plan_cache_hits", 0),
        "plan_misses": result.get("plan_cache_misses", 0),
    }


def _replay_result(args, kwargs, result) -> Dict[str, Any]:
    return {"scheduler": args[0].config.scheduler, "events": result.engine_events}


def _escalations(args, kwargs, result) -> Dict[str, Any]:
    return {"cells": len(args[0]), "escalated": len(result)}


#: (module, attribute path, layer, span annotator) — every name is the
#: one its caller resolves at call time, so the wrapper is what runs.
WRAPPED = (
    ("repro.recorder.logfile", "loads", "recorder.parse", _text_bytes),
    ("repro.recorder.logfile", "dumps", "recorder.dumps", None),
    ("repro.recorder.salvage", "SalvageStream.feed", "recorder.salvage", _chunk_bytes),
    ("repro.recorder.salvage", "SalvageStream.finish", "recorder.salvage", None),
    ("repro.core.trace", "Trace.fingerprint", "jobs.fingerprint", None),
    ("repro.jobs.model", "job_fingerprint", "jobs.fingerprint", None),
    ("repro.jobs.model", "analytic_job_fingerprint", "jobs.fingerprint", None),
    ("repro.analytic.profile", "AnalyticProfile.fingerprint", "jobs.fingerprint", None),
    ("repro.jobs.cache", "ResultCache.get", "jobs.cache", _cache_hit),
    ("repro.jobs.cache", "ResultCache.put", "jobs.cache", None),
    ("repro.jobs.engine", "JobEngine.run", "jobs.engine", None),
    ("repro.jobs.engine", "run_payload", "jobs.worker", _worker_result),
    ("repro.jobs.worker", "compile_trace", "core.compile", None),
    ("repro.core.simulator", "Simulator.run_replay", "core.replay", _replay_result),
    ("repro.analytic.stats", "extract_stats", "analytic.stats", None),
    ("repro.analytic.models", "estimate_makespan", "analytic.estimate", None),
    ("repro.jobs.manifest", "escalation_labels", "jobs.tiering", _escalations),
    ("repro.jobs.manifest", "decide", "jobs.tiering", None),
    ("repro.jobs.manifest", "run_manifest", "jobs.manifest", None),
    ("repro.jobs.service", "PredictionService.predict", "jobs.service", None),
    ("repro.jobs.service", "PredictionService.store_salvaged", "jobs.service", None),
)

#: layers that only orchestrate other layers; coverage counts the rest
_CONTAINERS = ("jobs.manifest", "jobs.engine", "jobs.worker")


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "child_s", "meta")

    def __init__(self, name: str, layer: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.meta: Dict[str, Any] = {}

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s

    def inside(self, layers) -> bool:
        """True when an ancestor span belongs to one of *layers*."""
        parent = self.parent
        while parent is not None:
            if parent.layer in layers:
                return True
            parent = parent.parent
        return False


class Tracer:
    """Records spans around the layers in :data:`WRAPPED` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: List[tuple] = []
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def muted(self):
        """Record nothing on this thread (the benchmark's own input making)."""
        self._local.muted = True
        try:
            yield
        finally:
            self._local.muted = False

    def call(self, name: str, layer: str, fn: Callable, args, kwargs,
             annotate: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        if getattr(self._local, "muted", False):
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(name, layer, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.duration_s
            with self._lock:
                self.spans.append(span)
        if annotate is not None:
            span.meta = annotate(args, kwargs, result)
        return result

    def install(self) -> "Tracer":
        for module_name, path, layer, annotate in WRAPPED:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(path, layer, original, annotate))
            self._originals.append((owner, attr, original))
        return self

    def _wrapper(self, name, layer, original, annotate):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, layer, original, args, kwargs, annotate)

        return traced

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def chrome_trace(self, path: Path) -> Path:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": os.getpid(),
                "tid": tid,
                "args": dict(span.meta, self_us=round(span.self_s * 1e6, 3)),
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[Span],
    *,
    ops: int,
    wall_s: float,
    concurrency: int,
    client_s: float,
) -> Dict[str, float]:
    """Reduce spans to the per-layer metrics, each per operation.

    *client_s* is the summed client-side latency of the traced ops (0 for
    workloads without a transport); *concurrency* is how many ops ran at
    once, the worker count the utilisation divides by.
    """
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def layer(name):
        return by_layer.get(name, [])

    def outer_s(names) -> float:
        # inclusive time of the outermost spans of a layer group, so a
        # layer that calls itself (load -> loads) is not counted twice
        return sum(
            s.duration_s for n in names for s in layer(n) if not s.inside(names)
        )

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    parse_layers = ("recorder.parse", "recorder.salvage")
    # one streamed salvage (many feeds, one finish) is one parse
    parses = [
        s for s in layer("recorder.parse") + layer("recorder.salvage")
        if not s.name.endswith("feed") and not s.inside(parse_layers)
    ]
    parse_s = outer_s(parse_layers)
    parse_bytes = sum(
        s.meta.get("bytes", 0)
        for n in parse_layers for s in layer(n) if not s.inside(parse_layers)
    )
    gets = [s for s in layer("jobs.cache") if s.name.endswith("get")]
    workers = layer("jobs.worker")
    sims = [s for s in workers if s.meta.get("kind") == "sim"]
    plan_hits = sum(s.meta["plan_hits"] for s in sims)
    plan_total = plan_hits + sum(s.meta["plan_misses"] for s in sims)
    replays = layer("core.replay")
    replay_events = sum(s.meta["events"] for s in replays)
    replay_s = sum(s.duration_s for s in replays)
    escalations = layer("jobs.tiering")
    server_roots = sum(s.duration_s for s in spans if s.parent is None)

    metrics = {
        "recorder.parse.calls_per_op": per_op(len(parses)),
        "recorder.parse.ms_per_op": per_op(parse_s * 1e3),
        "recorder.parse.mb_per_s": _ratio(parse_bytes / 1e6, parse_s),
        "recorder.salvage.ms_per_op": per_op(outer_s(("recorder.salvage",)) * 1e3),
        "recorder.dumps.ms_per_op": per_op(outer_s(("recorder.dumps",)) * 1e3),
        "jobs.fingerprint.ms_per_op": per_op(outer_s(("jobs.fingerprint",)) * 1e3),
        "jobs.service.ms_per_op": per_op(outer_s(("jobs.service",)) * 1e3),
        "jobs.transport.self_ms_per_op": per_op(
            max(0.0, client_s - server_roots) * 1e3 if client_s else 0.0
        ),
        "jobs.cache.lookups_per_op": per_op(len(gets)),
        "jobs.cache.hit_ratio": _ratio(sum(1 for s in gets if s.meta["hit"]), len(gets)),
        "jobs.cache.ms_per_op": per_op(outer_s(("jobs.cache",)) * 1e3),
        "jobs.engine.self_ms_per_op": per_op(sum(s.self_s for s in layer("jobs.engine")) * 1e3),
        "jobs.worker.utilisation": _ratio(
            sum(s.meta["elapsed_s"] for s in workers), wall_s * concurrency
        ),
        "jobs.worker.plan_cache_hit_ratio": _ratio(plan_hits, plan_total),
        "core.compile.calls_per_op": per_op(len(layer("core.compile"))),
        "core.compile.ms_per_op": per_op(outer_s(("core.compile",)) * 1e3),
        "core.replay.calls_per_op": per_op(len(replays)),
        "core.replay.ms_per_op": per_op(replay_s * 1e3),
        "core.replay.events_per_op": per_op(replay_events),
        "core.replay.events_per_s": _ratio(replay_events, replay_s),
    }
    for name in SCHEDULERS:
        mine = [s for s in replays if s.meta["scheduler"] == name]
        events = sum(s.meta["events"] for s in mine)
        busy_s = sum(s.duration_s for s in mine)
        metrics[f"sched.{name}.events_per_cell"] = _ratio(events, len(mine))
        metrics[f"sched.{name}.replay_ms_per_cell"] = _ratio(busy_s * 1e3, len(mine))
        metrics[f"sched.{name}.events_per_s"] = _ratio(events, busy_s)
    metrics.update({
        "analytic.stats.ms_per_op": per_op(outer_s(("analytic.stats",)) * 1e3),
        "analytic.estimate.ms_per_op": per_op(outer_s(("analytic.estimate",)) * 1e3),
        "jobs.tiering.escalation_ratio": _ratio(
            sum(s.meta.get("escalated", 0) for s in escalations),
            sum(s.meta.get("cells", 0) for s in escalations),
        ),
        "jobs.tiering.ms_per_op": per_op(outer_s(("jobs.tiering",)) * 1e3),
        "jobs.manifest.self_ms_per_op": per_op(
            sum(s.self_s for s in layer("jobs.manifest")) * 1e3
        ),
    })
    return metrics


def manifest_coverage(spans: List[Span]) -> float:
    """Share of ``run_manifest`` wall time covered by non-container layers.

    A wrapper bound to a name its caller never looks up records nothing,
    so its layer's time falls into the orchestrating parent's self time
    and this share drops.
    """
    total = sum(s.duration_s for s in spans if s.layer == "jobs.manifest")
    covered = sum(
        s.self_s for s in spans
        if s.layer not in _CONTAINERS and s.inside(("jobs.manifest",))
    )
    return _ratio(covered, total)
