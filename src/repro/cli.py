"""``vppb`` command-line interface.

Mirrors the fig. 1 workflow for the bundled workloads and for log files
on disk:

* ``vppb record <workload> -p 8 -o run.log`` — monitored uni-processor
  execution of a bundled workload, written as a log file;
* ``vppb predict run.log --cpus 8 [--lwps N] [--comm-delay US]`` —
  simulate the traced program on a configured machine and print the
  predicted speed-up;
* ``vppb visualize run.log --cpus 8 -o run.svg`` — render the predicted
  execution's parallelism and flow graphs (SVG, or ASCII to stdout);
* ``vppb report run.log --cpus 2,4,8`` — a speed-up sweep plus the
  bottleneck table;
* ``vppb stats run.log --cpus 8`` — the per-thread time decomposition of
  the predicted execution;
* ``vppb knee run.log`` — the smallest machine reaching 80 % of the
  trace's achievable speed-up;
* ``vppb compare before.log after.log --cpus 8`` — the §5 tuning loop's
  "inspect the performance change" step;
* ``vppb whatif run.log --shard-lock buffer:16 --scale-cs buffer:0.5`` —
  preview a tuning hypothesis by transforming the trace itself;
* ``vppb doctor run.log`` — validate a (possibly damaged) log, salvage
  what can be salvaged, dry-run the replay under a watchdog, and print
  a diagnosis instead of a traceback;
* ``vppb lint run.log --format sarif`` — static synchronisation analysis
  of the recorded trace (races, lock-order inversions, cond misuse);
  exits 1 when findings reach the ``--fail-on`` severity;
* ``vppb batch sweep.json`` — run a scenario-grid manifest through the
  batch job engine (worker pool + content-addressed result cache);
* ``vppb serve`` — long-lived local prediction service over HTTP
  (trace uploads, prediction requests, ``/metrics``);
* ``vppb client predict run.log`` — call a running ``vppb serve``
  (upload, predict, ``/metrics``, readiness) with retries;
* ``vppb calibrate -o profiles/default.json`` — fit the §3.2 cost
  parameters to measured runs of the calibration suite and write the
  profile artifact;
* ``vppb validate --profile profiles/default.json`` — re-measure the
  profile's own suite and gate on the §4 error budget (exit 0 ok,
  1 drift, 2 over budget);
* ``vppb calibrate-analytic -o profiles/analytic.json`` — fit the
  analytic tier's interval margins against the DES (``--verify PATH``
  re-checks a profile instead);
* ``vppb workloads`` — list the bundled programs.

The prediction commands (``predict``, ``report``, ``stats``, ``knee``,
``visualize``, ``whatif``) all accept ``--profile PATH`` to run under a
fitted cost model instead of the built-in defaults; ``compare`` does
not.

Each flag meaning is declared once, in a shared group or beside its
handler; every engine comes from :func:`_engine` (``--workers`` 0 runs
in-process, N >= 1 runs N worker processes).  Only the standard library
is imported up front, so ``vppb serve`` starts without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _parse_cpus(text: str) -> List[int]:
    try:
        counts = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad CPU list {text!r}")
    if not counts or any(n < 1 for n in counts):
        raise argparse.ArgumentTypeError(f"bad CPU list {text!r}")
    return counts


def _ranged(cast, what: str, low, high=math.inf, *, exclusive: bool = False):
    """Type for a finite number flag in [*low*, *high*] ((*low*, *high*]
    if *exclusive*); *what* names the value in the usage error."""
    kind = "an integer" if cast is int else "a number"
    if high < math.inf:
        want = f"{kind} in {'(' if exclusive else '['}{low}, {high}]"
    else:
        want = f"{kind} {'>' if exclusive else '>='} {low}"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        finite = not isinstance(value, float) or math.isfinite(value)
        above_low = value > low if exclusive else value >= low
        if not (finite and above_low and value <= high):
            raise argparse.ArgumentTypeError(f"bad {what} {text!r} (want {want})")
        return value

    return parse


_FACTOR = _ranged(float, "factor", 0)
_FRACTION = _ranged(float, "fraction", 0, 1, exclusive=True)


def _lock_value(parse_value):
    """Type for ``LOCK:VALUE`` flags: ``(lock, value, VALUE as typed)``."""

    def parse(text: str):
        lock, sep, raw = text.rpartition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"bad {text!r} (want LOCK:VALUE)")
        return lock, parse_value(raw), raw

    return parse


# ---------------------------------------------------------------------------
# flag declarations: shared groups, and one registry of subcommands
# ---------------------------------------------------------------------------


def _arg(*names, **spec):
    """One flag declaration: ``add_argument``'s arguments, unapplied."""
    return names, spec


def _cpus(default):
    """``--cpus``: a list ``N,N,...`` where *default* is one, else a count."""
    many = isinstance(default, list)
    return _arg(
        "--cpus", type=_parse_cpus if many else _ranged(int, "CPU count", 1),
        default=default, metavar="N,N,..." if many else None,
        help="simulated CPU count(s) (default: %s)"
        % (",".join(map(str, default)) if many else default),
    )


def _workers(default: Optional[int]):
    """``--workers``: 0 runs in-process, N >= 1 runs N worker processes.
    ``batch`` and ``serve`` default (None) to a pool sized to the
    machine, so they take no 0."""
    pooled = default is None
    return _arg(
        "--workers", type=_ranged(int, "worker count", 1 if pooled else 0),
        default=default, metavar="N",
        help="worker processes (default: up to 8, one per CPU)" if pooled
        else "run the simulation jobs on N worker processes (0 = in-process)",
    )


def _format(*choices):
    """``--format``; the first choice is the default."""
    return _arg(
        "--format", choices=choices, default=choices[0],
        help=f"report format (default: {choices[0]})",
    )


_LOGFILE = _arg("log", help="log file from 'vppb record'")
_MACHINE = (
    _arg("--lwps", type=_ranged(int, "LWP count", 1), default=None,
         help="LWP pool size"),
    _arg("--comm-delay", type=_ranged(int, "delay", 0), default=0,
         help="inter-CPU wake delay (µs)"),
)
#: the prediction commands: a log, the simulated machine, a cost model
_LOG = (
    _LOGFILE,
    *_MACHINE,
    _arg(
        "--profile", default=None, metavar="PATH",
        help="run under the fitted cost model from this calibration "
        "profile (see 'vppb calibrate')",
    ),
)
_CACHE_DIR = _arg(
    "--cache-dir", default=None, metavar="DIR",
    help="result cache directory (default: $VPPB_CACHE_DIR or ~/.cache/vppb)",
)
_NO_CACHE = _arg(
    "--no-cache", action="store_true",
    help="neither read nor persist cached results",
)
#: the engine of lint --whatif, calibrate, validate and calibrate-analytic
_ENGINE = (_workers(0), _CACHE_DIR, _NO_CACHE)
_OUTPUT = _arg(
    "-o", "--output", default=None, help="write the report here (else stdout)"
)
_QUIET = _arg(
    "--quiet", action="store_true",
    help="suppress progress and per-request log lines",
)
_SERVICE = (
    _arg("--host", default="127.0.0.1"),
    _arg("--port", type=_ranged(int, "port", 0, 65535), default=8123),
)

_SUBCOMMANDS: list = []


def _command(name: str, help: str, *flags):
    """Declare ``vppb <name>`` with *flags* (:func:`_arg` declarations);
    the decorated handler is bound as the subcommand's ``run``."""

    def register(run):
        _SUBCOMMANDS.append((name, help, flags, run))
        return run

    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vppb",
        description="VPPB reproduction: record, predict and visualize "
        "multithreaded program behaviour (Broberg/Lundberg/Grahn, IPPS'98)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, flags, run in _SUBCOMMANDS:
        command = sub.add_parser(name, help=help)
        for names, spec in flags:
            command.add_argument(*names, **spec)
        command.set_defaults(run=run)
    return parser


# ---------------------------------------------------------------------------
# shared code paths
# ---------------------------------------------------------------------------


def _fail(args: argparse.Namespace, message) -> int:
    """Report a request the command cannot serve; exit status 2."""
    print(f"vppb {args.command}: {message}", file=sys.stderr)
    return 2


def _engine(args: argparse.Namespace):
    """The job engine a command's flags ask for; close it with ``with``.

    ``--workers 0`` (and ``--inline``) run in-process, N >= 1 runs N
    worker processes, and ``batch``/``serve`` default to a pool sized to
    the machine.  Commands without ``--workers`` run in-process.
    Results are cached on disk under ``--cache-dir`` unless
    ``--no-cache``; commands without ``--cache-dir`` cache in memory.
    """
    from repro.jobs import JobEngine, ResultCache, default_cache_dir

    inline = getattr(args, "workers", 0) == 0 or getattr(args, "inline", False)
    disk = hasattr(args, "cache_dir") and not getattr(args, "no_cache", False)
    return JobEngine(
        workers=None if inline else args.workers,
        mode="inline" if inline else "process",
        cache=ResultCache((args.cache_dir or default_cache_dir()) if disk else None),
    )


def _write_report(args: argparse.Namespace, text: str, note: str = "") -> None:
    """Write a report to ``-o`` and say so (with *note*), else print it."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}{note}")
    else:
        print(text)


def _read_log(path):
    """Read a log for ``doctor`` and ``lint``: parse it strictly and, if
    that fails, salvage what remains.

    Returns ``(text, trace, error, salvage)``: the strict parse's
    :class:`TraceError` and the salvage result, both None when the log
    parsed.  Raises OSError when the file cannot be read.
    """
    from repro.core.errors import TraceError
    from repro.recorder import logfile
    from repro.recorder.salvage import salvage_loads

    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    try:
        return text, logfile.loads(text, mode="strict", source=str(path)), None, None
    except TraceError as exc:
        salvage = salvage_loads(text, source=str(path))
        return text, salvage.trace, exc, salvage


def _config_from(args: argparse.Namespace, cpus: int):
    from repro.core.config import SimConfig

    config = SimConfig(
        cpus=cpus,
        lwps=args.lwps,
        comm_delay_us=args.comm_delay,
    )
    profile_path = getattr(args, "profile", None)
    if profile_path:
        from repro.calib import CalibrationProfile

        config = CalibrationProfile.load(profile_path).apply(config)
    return config


def _speedups(engine, trace, cpus: List[int], base, **kw):
    """*trace*'s speed-up curve over *cpus*: one grid, read strictly."""
    from repro.jobs import TraceRef
    from repro.jobs.manifest import curve_cells, run_grid

    grid = run_grid(engine, TraceRef.from_trace(trace), curve_cells(base, cpus), **kw)
    return grid.speedups()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


@_command(
    "record", "monitored uni-processor run of a workload",
    _arg("workload", help="bundled workload name (see 'vppb workloads')"),
    _arg("-p", "--threads", type=_ranged(int, "thread count", 1), default=4,
         help="worker threads"),
    _arg("-s", "--scale", type=_ranged(float, "scale", 0, exclusive=True),
         default=0.1, help="problem scale"),
    _arg("-o", "--output", required=True, help="log file to write"),
    _arg("--overhead", type=int, default=None,
         help="probe overhead per record (µs)"),
    _arg(
        "--seed", type=int, default=None,
        help="pin the program's RNG streams so the recorded trace is "
        "bit-reproducible (calibration inputs need this)",
    ),
)
def _cmd_record(args: argparse.Namespace) -> int:
    from repro.core.timebase import to_seconds
    from repro.program.uniexec import record_program
    from repro.recorder import logfile
    from repro.recorder.recorder import DEFAULT_PROBE_OVERHEAD_US
    from repro.workloads import get_workload

    try:
        workload = get_workload(args.workload)
    except KeyError as exc:
        return _fail(args, exc)
    program = workload.make_program(args.threads, args.scale, seed=args.seed)
    overhead = (
        DEFAULT_PROBE_OVERHEAD_US if args.overhead is None else args.overhead
    )
    run = record_program(program, overhead_us=overhead)
    size = logfile.dump(run.trace, args.output)
    stats = run.trace.stats(serialized_bytes=size)
    print(
        f"recorded {program.name}: {stats.n_events} events, "
        f"{stats.n_threads} threads, {to_seconds(stats.duration_us):.3f}s "
        f"monitored, {size} bytes -> {args.output}"
    )
    return 0


@_command("predict", "predict speed-up", *_LOG, _cpus([2, 4, 8]))
def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.timebase import to_seconds
    from repro.recorder import logfile

    trace = logfile.load(args.log)
    print(f"{trace.meta.program}: {len(trace)} events, "
          f"{len(trace.thread_ids())} threads")
    with _engine(args) as engine:
        predictions = _speedups(engine, trace, args.cpus, _config_from(args, 1))
    for pred in predictions:
        print(
            f"  {pred.cpus:>2} CPUs: predicted speed-up {pred.speedup:.2f} "
            f"({to_seconds(pred.makespan_us):.3f}s vs "
            f"{to_seconds(pred.uniprocessor_us):.3f}s on one)"
        )
    return 0


@_command(
    "visualize", "render the graphs", *_LOG, _cpus(4),
    _arg("-o", "--output", default=None, help="SVG path (else ASCII)"),
    _arg("--width", type=_ranged(int, "width", 1), default=1000),
    _arg("--compress", action="store_true", help="hide idle threads"),
    _arg(
        "--chrome", action="store_true",
        help="write Trace Event JSON (chrome://tracing) instead of SVG",
    ),
    _arg(
        "--html", action="store_true",
        help="write a standalone HTML report instead of SVG",
    ),
    _arg(
        "--lint", action="store_true",
        help="overlay lint findings on the HTML report (implies --html)",
    ),
)
def _cmd_visualize(args: argparse.Namespace) -> int:
    from repro.core.predictor import predict
    from repro.recorder import logfile

    trace = logfile.load(args.log)
    # --lint exists for traces whose replay may deadlock (lock-order
    # inversions manifest under more CPUs): degrade to a partial replay
    # so the findings still render
    result = predict(trace, _config_from(args, args.cpus), strict=not args.lint)
    if result.incomplete:
        print(
            f"replay incomplete ({result.incompleteness.reason}); "
            "rendering the partial schedule",
            file=sys.stderr,
        )
    if args.chrome:
        from repro.visualizer.chrome_trace import save_chrome_trace

        out = args.output or "trace.json"
        save_chrome_trace(result, out, program=trace.meta.program)
        print(f"wrote {out} (open in chrome://tracing or ui.perfetto.dev)")
        return 0
    if args.html or args.lint:
        from repro.visualizer.html_report import save_html_report

        findings = None
        if args.lint:
            from repro.analysis.lint import run_lint

            findings = run_lint(trace)
        out = args.output or "report.html"
        save_html_report(
            result,
            out,
            title=f"{trace.meta.program} on {args.cpus} CPUs (predicted)",
            compress_threads=args.compress,
            findings=findings,
        )
        print(f"wrote {out}" + (f" ({findings.summary()})" if findings else ""))
        return 0
    if args.output:
        from repro.visualizer.svg_render import save_svg

        save_svg(
            result,
            args.output,
            width=args.width,
            compress_threads=args.compress,
            title=f"{trace.meta.program} on {args.cpus} CPUs (predicted)",
        )
        print(f"wrote {args.output}")
    else:
        from repro.visualizer.ascii_render import render_ascii

        print(render_ascii(result, width=args.width if args.width < 300 else 100))
    return 0


@_command(
    "report", "sweep + bottlenecks", *_LOG, _cpus([2, 4, 8]), _workers(0),
    _NO_CACHE,
)
def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import contention_by_object
    from repro.core.predictor import predict
    from repro.core.timebase import to_seconds
    from repro.recorder import logfile

    trace = logfile.load(args.log)
    with _engine(args) as engine:
        predictions = _speedups(
            engine, trace, args.cpus, _config_from(args, 1), use_cache=not args.no_cache
        )
    print(f"speed-up prediction for {trace.meta.program}")
    for pred in predictions:
        print(f"  {pred.cpus:>2} CPUs: {pred.speedup:.2f}")
    worst = max(args.cpus)
    result = predict(trace, _config_from(args, worst))
    profiles = contention_by_object(result)[:5]
    if profiles:
        print(f"top blocking objects on {worst} CPUs:")
        for p in profiles:
            print(
                f"  {str(p.obj):<24} blocked {to_seconds(p.total_blocked_us):.4f}s "
                f"over {p.blocking_operations}/{p.operations} ops"
            )
    return 0


@_command(
    "batch", "run a sweep manifest through the batch job engine",
    _arg("manifest", help="sweep manifest (JSON; see docs/service.md)"),
    _workers(None),
    _arg(
        "--inline", action="store_true",
        help="run jobs in-process instead of on a worker pool",
    ),
    _CACHE_DIR, _NO_CACHE, _format("table", "json"), _OUTPUT,
    _arg(
        "--tier", choices=("sim", "analytic", "auto"), default="sim",
        help="prediction tier: sim replays every cell; analytic answers "
        "from calibrated closed-form intervals; auto screens analytically "
        "and replays only the cells the intervals cannot decide "
        "(default: sim)",
    ),
    _arg(
        "--analytic-profile", default=None, metavar="PATH",
        help="analytic calibration profile for --tier analytic/auto "
        "(default: $VPPB_ANALYTIC_PROFILE or profiles/analytic.json)",
    ),
    _arg(
        "--target", type=_FRACTION, default=None, metavar="FRAC",
        help="knee target as a fraction of each group's best speed-up "
        "(default: 0.8)",
    ),
)
def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.errors import TraceError
    from repro.jobs import SweepManifest
    from repro.jobs.manifest import run_manifest
    from repro.jobs.tiering import DEFAULT_TARGET_FRACTION

    manifest = SweepManifest.load(args.manifest)
    analytic_profile = None
    if args.tier != "sim":
        from repro.analytic.profile import AnalyticProfile, default_profile_path

        path = args.analytic_profile or default_profile_path()
        if path is None:
            return _fail(
                args, "--tier needs an analytic profile; run "
                "'vppb calibrate-analytic' or pass --analytic-profile",
            )
        analytic_profile = AnalyticProfile.load(path)

    try:
        with _engine(args) as engine:
            report = run_manifest(
                manifest,
                engine,
                use_cache=not args.no_cache,
                tier=args.tier,
                analytic_profile=analytic_profile,
                target_fraction=(
                    args.target if args.target is not None else DEFAULT_TARGET_FRACTION
                ),
            )
    except (OSError, TraceError) as exc:
        return _fail(args, f"cannot run {args.manifest}: {exc}")

    _write_report(
        args,
        report.to_json() if args.format == "json" else report.format_table(),
        f" ({len(report.scenarios)} scenarios, {len(report.failed)} failed)",
    )
    return 1 if report.failed else 0


@_command(
    "serve", "long-lived local prediction service (HTTP)",
    *_SERVICE, _workers(None), _CACHE_DIR,
    _arg(
        "--spool-dir", default=None, metavar="DIR",
        help="where uploaded traces are spooled (default: a temp dir)",
    ),
    _QUIET,
    _arg(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admission watermark: concurrent /predict requests before "
        "shedding 429s (default: 8)",
    ),
    _arg(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; expiry returns 504 with any "
        "partial result (default: none)",
    ),
    _arg(
        "--max-body-mb", type=float, default=None, metavar="MB",
        help="request-body cap in MiB; larger uploads get 413 "
        "(default: $VPPB_MAX_BODY_BYTES or 64 MiB)",
    ),
    _arg(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests (default: 10)",
    ),
)
def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.jobs.service_async import serve_async

    max_body_bytes = (
        int(args.max_body_mb * 1024 * 1024) if args.max_body_mb else None
    )
    with _engine(args) as engine:
        serve_async(
            host=args.host,
            port=args.port,
            engine=engine,
            spool_dir=Path(args.spool_dir) if args.spool_dir else None,
            max_inflight=args.max_inflight,
            default_deadline_s=args.deadline,
            max_body_bytes=max_body_bytes,
            drain_timeout_s=args.drain_timeout,
            verbose=not args.quiet,
        )
    return 0


@_command(
    "client", "call a running vppb serve instance (with retries)",
    _arg(
        "action", choices=("predict", "upload", "metrics", "ready"),
        help="predict: upload a log and predict speed-ups; upload: spool a "
        "log; metrics: dump /metrics; ready: readiness probe",
    ),
    _arg("log", nargs="?", default=None, help="trace log file (predict/upload)"),
    *_SERVICE,
    _cpus([2, 4, 8]),
    _arg("--binding", choices=("unbound", "bound"), default="unbound"),
    _arg(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; a 504 still prints any partial result",
    ),
    _arg(
        "--stream", action="store_true",
        help="upload with chunked transfer encoding (streaming salvage)",
    ),
    _arg(
        "--attempts", type=int, default=4,
        help="max tries per request incl. backoff retries (default: 4)",
    ),
    _arg(
        "--timeout", type=_ranged(float, "timeout", 0, exclusive=True),
        default=60.0, metavar="SECONDS",
        help="per-attempt socket timeout (default: 60)",
    ),
)
def _cmd_client(args: argparse.Namespace) -> int:
    from repro.jobs.client import ClientError, ServiceClient

    client = ServiceClient(
        args.host,
        args.port,
        timeout_s=args.timeout,
        attempts=args.attempts,
    )
    try:
        if args.action == "ready":
            payload = client.ready()
        elif args.action == "metrics":
            payload = client.metrics()
        elif args.log is None:
            return _fail(args, f"{args.action}: needs a log file")
        else:
            payload = client.upload_trace(args.log, stream=args.stream)
            if args.action == "predict":
                payload = client.predict(
                    trace=payload["trace"],
                    cpus=args.cpus,
                    binding=args.binding,
                    deadline_s=args.deadline,
                )
    except ClientError as exc:
        if exc.status == 504 and exc.partial is not None:
            print(json.dumps(exc.body, indent=2))
            print(
                f"client: deadline exceeded after {exc.attempts} attempt(s); "
                "partial result above",
                file=sys.stderr,
            )
            return 1
        return _fail(args, exc)
    except OSError as exc:
        return _fail(args, exc)
    print(json.dumps(payload, indent=2))
    return 1 if args.action == "ready" and payload.get("status") != "ready" else 0


@_command(
    "stats", "per-thread time decomposition", *_LOG, _cpus(4),
    _arg(
        "--top", type=_ranged(int, "row count", 0), default=None,
        help="show only the N worst-utilised",
    ),
    _arg(
        "--format", choices=("text", "json"), default="text",
        help="text: simulated per-thread decomposition; json: the raw "
        "TraceStats profile the analytic tier screens from (default: text)",
    ),
)
def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.predictor import predict
    from repro.core.timebase import to_seconds
    from repro.recorder import logfile
    from repro.visualizer.stats import format_thread_stats

    trace = logfile.load(args.log)
    if args.format == "json":
        # the analytic tier's input: pure trace decomposition, no replay
        from repro.analytic import extract_stats

        print(json.dumps(extract_stats(trace).to_dict(), indent=2, sort_keys=True))
        return 0
    result = predict(trace, _config_from(args, args.cpus))
    print(
        f"{trace.meta.program} on {args.cpus} CPUs (predicted), "
        f"makespan {to_seconds(result.makespan_us):.3f}s:"
    )
    print(format_thread_stats(result, top=args.top))
    return 0


@_command(
    "knee", "smallest machine near the speed-up bound", *_LOG,
    _arg(
        "--target", type=_FRACTION, default=0.8,
        help="fraction of the bound to reach",
    ),
    _arg("--max-cpus", type=_ranged(int, "CPU count", 1), default=32),
)
def _cmd_knee(args: argparse.Namespace) -> int:
    from repro.analysis.whatif import find_knee
    from repro.recorder import logfile

    trace = logfile.load(args.log)
    with _engine(args) as engine:
        knee = find_knee(
            trace,
            target_fraction=args.target,
            max_cpus=args.max_cpus,
            base_config=_config_from(args, 1),
            engine=engine,
        )
    print(
        f"{trace.meta.program}: {knee.cpus} CPU(s) reach "
        f"{knee.speedup:.2f}x of an achievable {knee.bound:.2f}x "
        f"({knee.fraction_of_bound:.0%} of the bound)"
    )
    return 0


def _whatif_schedulers(args: argparse.Namespace) -> int:
    """Cross-OS what-if: one trace, several simulated kernels.

    Every cell and the shared recorded-uniprocessor baseline run as one
    grid, so the baseline is replayed once for all kernels.
    """
    from repro.jobs import TraceRef
    from repro.jobs.manifest import expand_grid, run_grid
    from repro.recorder import logfile
    from repro.sched import available_backends

    names = [s.strip() for s in args.scheduler.split(",") if s.strip()]
    known = available_backends()
    for name in names:
        if name not in known:
            return _fail(
                args, f"unknown scheduler {name!r} (known: {', '.join(known)})"
            )
    if not names:
        return _fail(args, "--scheduler needs at least one name")

    trace = logfile.load(args.log)
    cells = expand_grid(
        trace.thread_ids(), [args.cpus], lwps=[args.lwps],
        comm_delays_us=[args.comm_delay], schedulers=names,
        base=_config_from(args, 1),
    )
    with _engine(args) as engine:
        grid = run_grid(engine, TraceRef.from_trace(trace), cells)
    rows = list(zip(names, grid.speedups()))
    print(
        f"cross-kernel what-if for {trace.meta.program} on {args.cpus} "
        "CPUs (baseline: recorded uniprocessor run)"
    )
    print(f"{'scheduler':<10} {'makespan':>12} {'speedup':>8}")
    for name, pred in rows:
        print(f"{name:<10} {pred.makespan_us:>10}us {pred.speedup:>8.2f}")
    best = max(rows, key=lambda r: r[1].speedup)
    print(f"best: {best[0]} ({best[1].speedup:.2f}x)")
    return 0


@_command(
    "whatif", "preview tuning hypotheses on the trace", *_LOG, _cpus(8),
    _arg(
        "--scale-compute", type=_FACTOR, default=None, metavar="F",
        help="scale every CPU burst by F",
    ),
    _arg(
        "--scale-io", type=_FACTOR, default=None, metavar="F",
        help="scale every recorded I/O wait by F",
    ),
    _arg(
        "--scale-cs", type=_lock_value(_FACTOR), default=None,
        metavar="LOCK:F", help="scale the work held under LOCK by F",
    ),
    _arg(
        "--shard-lock", type=_lock_value(_ranged(int, "shard count", 1)),
        default=None, metavar="LOCK:N", help="split LOCK into N round-robin shards",
    ),
    _arg(
        "--scheduler", default=None, metavar="NAME[,NAME...]",
        help="cross-OS what-if: predict the trace under these kernel "
        "scheduler backends (e.g. solaris,clutch,cfs) and compare "
        "speed-ups; cannot be combined with trace transformations",
    ),
)
def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_results, format_comparison
    from repro.analysis.transform import (
        scale_compute,
        scale_critical_sections,
        scale_io,
        split_lock,
    )
    from repro.core.predictor import compile_trace
    from repro.core.simulator import Simulator
    from repro.recorder import logfile

    if args.scheduler is not None:
        transforms = (
            args.scale_compute, args.scale_io, args.scale_cs, args.shard_lock,
        )
        if any(t is not None for t in transforms):
            return _fail(
                args, "--scheduler cannot be combined with trace transformations"
            )
        return _whatif_schedulers(args)

    trace = logfile.load(args.log)
    plan = compile_trace(trace)
    transformed = plan
    applied = []
    if args.scale_compute is not None:
        transformed = scale_compute(transformed, args.scale_compute)
        applied.append(f"compute x{args.scale_compute}")
    if args.scale_io is not None:
        transformed = scale_io(transformed, args.scale_io)
        applied.append(f"io x{args.scale_io}")
    if args.scale_cs is not None:
        lock, factor, text = args.scale_cs
        transformed = scale_critical_sections(transformed, lock, factor)
        applied.append(f"critical section of {lock!r} x{text}")
    if args.shard_lock is not None:
        lock, ways, text = args.shard_lock
        transformed = split_lock(transformed, lock, ways)
        applied.append(f"{lock!r} split {text} ways")
    if not applied:
        return _fail(args, "no transformation requested (see --help)")

    config = _config_from(args, args.cpus)
    before = Simulator(config).run_replay(plan)
    after = Simulator(config).run_replay(transformed)
    print(f"what-if on {args.cpus} CPUs: " + "; ".join(applied))
    print(format_comparison(compare_results(before, after)))
    return 0


@_command(
    "compare", "diff two logs' predicted executions (before/after)",
    _arg("before", help="log file before the change"),
    _arg("after", help="log file after the change"),
    _cpus(8), *_MACHINE,
)
def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_results, format_comparison
    from repro.core.predictor import predict
    from repro.recorder import logfile

    config = _config_from(args, args.cpus)
    before = predict(logfile.load(args.before), config)
    after = predict(logfile.load(args.after), config)
    report = compare_results(before, after)
    print(f"performance change on {args.cpus} CPUs (predicted):")
    print(format_comparison(report))
    return 0


@_command(
    "doctor", "diagnose a damaged log: validate, salvage, dry-run",
    _arg("log", help="log file to examine"), _cpus(4),
    _arg("--no-replay", action="store_true", help="skip the replay dry-run"),
    _arg(
        "--max-events", type=int, default=5_000_000,
        help="watchdog event budget for the dry-run",
    ),
    _arg(
        "--max-wall", type=float, default=30.0,
        help="watchdog wall-clock budget in seconds for the dry-run",
    ),
    _arg(
        "--repairs", type=_ranged(int, "repair count", 0), default=10,
        metavar="N", help="show at most N individual repairs (0 = none)",
    ),
)
def _cmd_doctor(args: argparse.Namespace) -> int:
    """Diagnose a log file without ever raising.

    Exit status: 0 — healthy (strict parse, complete replay); 1 — usable
    but damaged (salvaged, or replay came back partial); 2 — unusable
    (unreadable file, or nothing salvageable).
    """
    from repro.core.config import SimConfig
    from repro.core.engine import Watchdog
    from repro.core.errors import LogFormatError, VppbError
    from repro.core.predictor import predict
    from repro.core.timebase import to_seconds
    from repro.recorder.salvage import salvage_loads

    try:
        text, trace, error, salvage = _read_log(args.log)
    except OSError as exc:
        return _fail(args, f"cannot read {args.log}: {exc}")

    def _print_salvage(result):
        report = result.report
        print(f"salvage: {report.summary()}")
        for kind, count in sorted(report.counts_by_kind().items()):
            print(f"  {count:>4}x {kind}")
        if args.repairs:
            shown = report.repairs[: args.repairs]
            for repair in shown:
                where = f"line {repair.lineno}: " if repair.lineno else ""
                print(f"    {where}{repair.kind}: {repair.detail}")
            if len(report.repairs) > len(shown):
                print(f"    ... and {len(report.repairs) - len(shown)} more")

    if error is None:
        print(
            f"strict parse ok: {len(trace)} records, "
            f"{len(trace.thread_ids())} threads"
        )
    else:
        print(f"strict parse failed: {error}")
        if isinstance(error, LogFormatError) and error.snippet():
            for line in error.snippet().splitlines():
                print(f"    {line}")
        _print_salvage(salvage)

    if len(trace) == 0:
        print("diagnosis: UNUSABLE — nothing salvageable from this log")
        return 2

    incomplete = False
    if not args.no_replay:
        watchdog = Watchdog(
            max_events=args.max_events, max_wall_s=args.max_wall
        )

        def _dry_run(t):
            return predict(
                t, SimConfig(cpus=args.cpus), watchdog=watchdog, strict=False
            )

        try:
            result = _dry_run(trace)
        except VppbError as exc:
            # A log can parse strictly yet not replay (e.g. truncation
            # that happened to leave every line well-formed but cut calls
            # off from their returns).  Salvage repairs exactly that.
            print(f"replay dry-run failed: {exc}")
            if salvage is None:
                salvage = salvage_loads(text, source=str(args.log))
                trace = salvage.trace
                _print_salvage(salvage)
            try:
                result = _dry_run(trace) if len(trace) else None
            except VppbError as exc2:
                print(f"replay of salvaged trace failed: {exc2}")
                result = None
            if result is None:
                print("diagnosis: UNUSABLE — the trace cannot be replayed")
                return 2
        if result.incomplete:
            incomplete = True
            print(f"replay dry-run: partial — {result.incompleteness.describe()}")
        else:
            print(
                f"replay dry-run ok: {args.cpus} CPUs, makespan "
                f"{to_seconds(result.makespan_us):.3f}s"
            )

    if salvage is not None or incomplete:
        verdict = []
        if salvage is not None:
            verdict.append("log damaged but salvaged")
        if incomplete:
            verdict.append("replay incomplete")
        print(f"diagnosis: DEGRADED — {'; '.join(verdict)}")
        return 1
    print("diagnosis: HEALTHY")
    return 0


def _lint_baseline_fingerprints(path: str) -> set:
    """Fingerprints to suppress, from any report shape we ever emit.

    Accepts the ``--format json`` report, a SARIF log (reading
    ``partialFingerprints``), a JSON list of fingerprint strings, or
    plain text with one fingerprint per line (``#`` comments allowed).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError:
        return {
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        }
    fps: set = set()
    if isinstance(data, list):
        fps.update(str(v) for v in data if isinstance(v, str))
    elif isinstance(data, dict):
        for f in data.get("findings", ()):
            if isinstance(f, dict) and f.get("fingerprint"):
                fps.add(str(f["fingerprint"]))
        for run in data.get("runs", ()):
            for result in run.get("results", ()):
                partial = result.get("partialFingerprints", {})
                if partial.get("vppbFingerprint/v2"):
                    fps.add(str(partial["vppbFingerprint/v2"]))
    return fps


@_command(
    "lint", "static synchronisation analysis of a recorded trace",
    _LOGFILE, *_ENGINE,
    _arg(
        "--select", action="append", default=None, metavar="RULE",
        help="run only these rule ids (repeatable; accepts R001 or VPPB-R001)",
    ),
    _arg(
        "--ignore", action="append", default=None, metavar="RULE",
        help="skip these rule ids (repeatable)",
    ),
    _format("text", "json", "sarif"),
    _arg(
        "--fail-on", default="error", metavar="SEVERITY",
        help="exit 1 when any finding reaches this severity "
        "(note|warning|error|never; default: error)",
    ),
    _OUTPUT,
    _arg(
        "--no-explain", action="store_true",
        help="omit the per-rule rationale lines from the text report",
    ),
    _arg(
        "--strict-parse", action="store_true",
        help="fail on a damaged log instead of salvaging and linting "
        "what remains",
    ),
    _arg(
        "--whatif", default=None, metavar="MANIFEST",
        help="predictive grid: probe every race/deadlock finding across "
        "the machine configs of this sweep manifest (JSON; 'trace' "
        "defaults to the linted log) and tag each finding with the "
        "configs under which it manifests",
    ),
    _arg(
        "--baseline", default=None, metavar="FILE",
        help="suppress findings whose fingerprints appear in FILE (a "
        "previous json/sarif report, or one fingerprint per line); "
        "exit 0 if only baselined findings remain",
    ),
    _arg(
        "--replay-witness", default=None, metavar="DIGEST",
        help="replay the witness schedule with this digest (prefix ok) "
        "and report whether it exhibits the claimed hazard "
        "(exit 0 yes / 1 no)",
    ),
)
def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of a recorded log.

    Exit status: 0 — no finding reached the ``--fail-on`` severity
    (after ``--baseline`` suppression); 1 — at least one did; 2 — bad
    request (unknown rule id, unreadable log, bad severity).  Damaged
    logs are salvaged and linted anyway (with an incomplete-input note)
    unless ``--strict-parse`` forbids it.
    """
    from repro.analysis.lint import (
        LintReport,
        Severity,
        find_witness,
        render_json,
        render_text,
        replay_witness,
        run_lint,
        sarif_json,
        whatif_lint,
    )
    from repro.core.errors import AnalysisError, VppbError

    fail_on: Optional[Severity]
    if args.fail_on.lower() == "never":
        fail_on = None
    else:
        try:
            fail_on = Severity.parse(args.fail_on)
        except ValueError as exc:
            return _fail(args, exc)

    # lenient load: a partially corrupt log still carries evidence, so
    # lint what the salvage pipeline can keep (doctor's loader)
    try:
        _, trace, error, salvaged = _read_log(args.log)
    except OSError as exc:
        return _fail(args, f"cannot read {args.log}: {exc}")
    salvage = None
    if error is not None:
        if args.strict_parse:
            return _fail(args, f"cannot load {args.log}: {error}")
        if len(trace) == 0:
            return _fail(args, f"nothing salvageable from {args.log}: {error}")
        salvage = salvaged.report
        print(f"lint: salvaged input — {salvage.summary()}", file=sys.stderr)

    report = run_lint(trace, select=args.select, ignore=args.ignore, salvage=salvage)

    if args.whatif:
        from repro.jobs import SweepManifest

        try:
            with open(args.whatif, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                data.setdefault("trace", str(args.log))
            manifest = SweepManifest.from_dict(data)
        except (OSError, ValueError, AnalysisError) as exc:
            return _fail(args, f"bad --whatif manifest: {exc}")
        with _engine(args) as engine:
            res = whatif_lint(trace, manifest, report=report, engine=engine)
        report = res.report
        for cell in res.cells:
            where = "cache" if cell.from_cache else "probe"
            verdict = cell.replay_status or cell.error or cell.status
            print(
                f"lint: whatif {cell.label}: {verdict} ({where})",
                file=sys.stderr,
            )

    if args.replay_witness:
        witness = find_witness(report, args.replay_witness)
        if witness is None:
            return _fail(
                args,
                f"no finding carries a witness matching {args.replay_witness!r}",
            )
        try:
            replay = replay_witness(trace, witness)
        except VppbError as exc:
            return _fail(args, f"witness replay failed: {exc}")
        shown = "EXHIBITED" if replay.exhibited else "NOT EXHIBITED"
        print(
            f"witness {witness.digest[:12]} ({witness.kind}, "
            f"{witness.cpus} cpu): {shown} — {replay.detail}"
        )
        return 0 if replay.exhibited else 1

    if args.baseline:
        try:
            baselined = _lint_baseline_fingerprints(args.baseline)
        except OSError as exc:
            return _fail(args, f"cannot read baseline: {exc}")
        kept = [f for f in report if f.fingerprint() not in baselined]
        suppressed = len(report) - len(kept)
        if suppressed:
            print(
                f"lint: {suppressed} finding(s) suppressed by baseline",
                file=sys.stderr,
            )
        report = LintReport(
            program=report.program,
            findings=kept,
            rules_run=report.rules_run,
        ).sorted()

    if args.format == "sarif":
        text = sarif_json(report)
    elif args.format == "json":
        text = render_json(report)
    else:
        text = render_text(report, explain=not args.no_explain)
    _write_report(args, text, f" ({report.summary()})")

    if fail_on is not None and report.at_least(fail_on):
        return 1
    return 0


def _calib_progress(args: argparse.Namespace):
    if args.quiet:
        return None
    return lambda message: print(f"calib: {message}", file=sys.stderr)


def _parse_workload_arg(text: str, args: argparse.Namespace):
    """``NAME[:THREADS[:SCALE]]`` → WorkloadSpec with the shared flags."""
    from repro.calib import WorkloadSpec
    from repro.calib.measure import DEFAULT_SEED
    from repro.core.errors import CalibrationError

    name, _, rest = text.partition(":")
    threads_s, _, scale_s = rest.partition(":")
    try:
        return WorkloadSpec(
            name=name,
            threads=int(threads_s) if threads_s else 4,
            scale=float(scale_s) if scale_s else 1.0,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            cpus=tuple(args.cpus),
            runs=args.runs,
        )
    except ValueError as exc:
        raise CalibrationError(f"bad workload spec {text!r}: {exc}")


@_command(
    "calibrate", "fit the cost model to measured runs, write a profile",
    *_ENGINE,
    _arg(
        "-o", "--output", default="profiles/default.json", metavar="PATH",
        help="where to write the profile (default: profiles/default.json)",
    ),
    _arg(
        "--workload", action="append", default=None,
        metavar="NAME[:THREADS[:SCALE]]",
        help="add a workload to the suite (repeatable; default: the "
        "stock synthetic+prodcons suite)",
    ),
    _cpus([2, 4, 8]),
    _arg(
        "--seed", type=int, default=None,
        help="program seed for the suite's measured runs",
    ),
    _arg(
        "--runs", type=int, default=5,
        help="ground-truth runs per cell, median reported (default: 5)",
    ),
    _arg(
        "--max-evals", type=int, default=80,
        help="objective evaluation budget for the fit (default: 80)",
    ),
    _arg(
        "--cv-folds", type=int, default=0, metavar="K",
        help="k-fold cross-validation across workloads "
        "(0 = leave-one-out, the default)",
    ),
    _arg("--no-cv", action="store_true", help="skip cross-validation"),
    _QUIET,
)
def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Exit status: 0 — profile written; 2 — the suite cannot be
    measured or the fit failed."""
    from dataclasses import replace as dc_replace

    from repro.calib import calibrate, default_suite, format_error_table

    if args.workload:
        specs = [_parse_workload_arg(w, args) for w in args.workload]
    else:
        specs = [
            dc_replace(
                s,
                cpus=tuple(args.cpus),
                runs=args.runs,
                **({"seed": args.seed} if args.seed is not None else {}),
            )
            for s in default_suite()
        ]

    with _engine(args) as engine:
        profile = calibrate(
            specs,
            engine=engine,
            max_evals=args.max_evals,
            cv_folds=None if args.no_cv else args.cv_folds,
            progress=_calib_progress(args),
        )

    path = profile.save(args.output)
    print(format_error_table(profile.error_table))
    print(
        f"mean |error| {profile.baseline_objective:.2%} (defaults) -> "
        f"{profile.objective:.2%} (fitted) in {profile.evaluations} "
        f"evaluations"
    )
    if profile.cv:
        print(
            f"cross-validation: mean holdout {profile.cv['mean_holdout']:.2%}, "
            f"worst {profile.cv['worst_holdout']:.2%}"
        )
    print(f"wrote {path}")
    return 0


@_command(
    "validate", "re-measure a profile's suite and gate on the error budget",
    *_ENGINE,
    _arg(
        "--profile", required=True, metavar="PATH",
        help="calibration profile to validate (from 'vppb calibrate')",
    ),
    _arg(
        "--budget", type=float, default=None, metavar="FRAC",
        help="per-cell |error| budget (default: 0.062, the paper's "
        "worst Table 1 cell)",
    ),
    _arg(
        "--drift-tolerance", type=float, default=None, metavar="FRAC",
        help="allowed |fresh - recorded| error before a cell counts as drift",
    ),
    _format("table", "json"),
    _arg(
        "-o", "--output", default=None, metavar="PATH",
        help="also write the JSON report here (the CI artifact)",
    ),
    _arg(
        "--attribute", action="store_true",
        help="break the worst cell's gap down by thread phase "
        "(running/runnable/blocked/sleeping)",
    ),
    _QUIET,
)
def _cmd_validate(args: argparse.Namespace) -> int:
    """Exit status: 0 — within budget, no drift; 1 — drift (the fresh
    error table left the profile's recorded one); 2 — over the error
    budget, or the profile/suite is unusable."""
    from repro.calib import (
        DEFAULT_DRIFT_TOLERANCE,
        DEFAULT_ERROR_BUDGET,
        CalibrationProfile,
        format_validation,
        validate,
    )

    profile = CalibrationProfile.load(args.profile)
    with _engine(args) as engine:
        report = validate(
            profile,
            profile_path=str(args.profile),
            engine=engine,
            budget=(
                args.budget if args.budget is not None else DEFAULT_ERROR_BUDGET
            ),
            drift_tolerance=(
                args.drift_tolerance
                if args.drift_tolerance is not None
                else DEFAULT_DRIFT_TOLERANCE
            ),
            progress=_calib_progress(args),
        )

    document = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(document if args.format == "json" else format_validation(report))

    if args.attribute:
        _print_attribution(profile, report)

    if args.output:
        _write_report(args, document)
    return report.exit_code


def _print_attribution(profile, report) -> None:
    """Phase breakdown of the worst cell's real-vs-predicted gap."""
    from repro.analysis.compare import attribute_error, format_attribution
    from repro.core.config import SimConfig
    from repro.core.predictor import predict
    from repro.program.mpexec import run_multiprocessor
    from repro.program.uniexec import record_program
    from repro.workloads import get_workload

    worst = report.worst
    spec = next(s for s in profile.suite if s.name == worst.workload)
    workload = get_workload(spec.name)
    config = profile.apply(SimConfig()).with_cpus(worst.cpus)
    # noise-free ground-truth run vs the profile-configured replay
    real = run_multiprocessor(
        workload.make_program(spec.threads, spec.scale, seed=spec.seed),
        config,
    )
    recording = record_program(
        workload.make_program(spec.threads, spec.scale, seed=spec.seed),
        overhead_us=spec.probe_overhead_us,
    )
    predicted = predict(recording.trace, config)
    print(
        f"attribution for worst cell ({worst.workload}@{worst.cpus}cpu, "
        f"error {worst.error:+.2%}):"
    )
    print(format_attribution(attribute_error(real, predicted)))


@_command(
    "calibrate-analytic",
    "fit the analytic tier's interval margins against the DES",
    *_ENGINE,
    _arg(
        "-o", "--output", default="profiles/analytic.json", metavar="PATH",
        help="where to write the profile (default: profiles/analytic.json)",
    ),
    _cpus([1, 2, 4, 8]),
    _arg(
        "--pad", type=float, default=None, metavar="FRAC",
        help="safety pad beyond the observed model-error range; wider "
        "brackets mean fewer bound violations off-suite but more "
        "escalations (default: 0.02)",
    ),
    _arg(
        "--verify", metavar="PATH", default=None,
        help="instead of fitting, re-check that PATH's intervals bracket "
        "the DES on its own suite (exit 1 on violations)",
    ),
    _QUIET,
)
def _cmd_calibrate_analytic(args: argparse.Namespace) -> int:
    """Exit status: 0 — profile written (or --verify clean); 1 — --verify
    found bracket violations; 2 — calibration failed."""
    from repro.analytic import (
        DEFAULT_PAD,
        AnalyticProfile,
        calibrate_analytic,
        verify_profile,
    )

    with _engine(args) as engine:
        if args.verify:
            profile = AnalyticProfile.load(args.verify)
            violations = verify_profile(
                profile,
                engine=engine,
                use_cache=not args.no_cache,
                progress=_calib_progress(args),
            )
            if violations:
                for line in violations:
                    print(f"calibrate-analytic: VIOLATION {line}", file=sys.stderr)
                return 1
            print(
                f"calibrate-analytic: {args.verify} brackets the DES on all "
                f"{profile.samples} suite cells"
            )
            return 0
        profile = calibrate_analytic(
            engine=engine,
            cpus=tuple(args.cpus),
            pad=args.pad if args.pad is not None else DEFAULT_PAD,
            use_cache=not args.no_cache,
            progress=_calib_progress(args),
        )

    path = profile.save(args.output)
    print(
        f"calibrated {len(profile.margins)} margin keys over "
        f"{profile.samples} cells (pad {profile.pad:.0%}); wrote {path}"
    )
    return 0


@_command("workloads", "list bundled workloads")
def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    for w in all_workloads():
        print(f"{w.name:<16} {w.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.errors import VppbError

    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except VppbError as exc:
        # a library error escaped the command (bad manifest or profile,
        # unmonitorable workload, failed fit, ...): report it, don't
        # traceback
        return _fail(args, exc)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
