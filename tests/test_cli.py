"""Tests for the ``vppb`` command-line interface.

``tests/golden/cli_surface.json`` pins every subcommand's flags; after a
deliberate change to them, regenerate it with::

    PYTHONPATH=src python tests/test_cli.py
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SimConfig
from repro.cli import build_parser, main
from repro.core.predictor import predict_speedup
from repro.core.timebase import to_seconds
from repro.jobs import JobEngine, SweepManifest, run_manifest
from repro.recorder import logfile

PROFILE = Path(__file__).resolve().parents[1] / "profiles" / "default.json"
SURFACE = Path(__file__).parent / "golden" / "cli_surface.json"

#: values fed to each typed flag; the surface records which ones it accepts
PROBES = ("-1", "0", "0.5", "1", "2,4", "b:0", "b:1", "x")


def _accepted(convert) -> list:
    accepted = []
    for probe in PROBES:
        try:
            convert(probe)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            continue
        accepted.append(probe)
    return accepted


def cli_surface() -> dict:
    """What a ``vppb`` user can type, one entry per subcommand and per
    option (``"<command> <longest flag>"``).  A subcommand's entry lists
    its positionals in order.  Every entry records the default as the
    handler sees it, the choices, ``nargs``, whether it is required, and
    which probe values its type accepts.  Help texts and declaration
    order are left out."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, command in sub.choices.items():
        positionals = surface[name] = []
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            default = action.default
            if isinstance(default, str) and action.type is not None:
                default = action.type(default)  # argparse converts str defaults
            entry = {
                "dest": action.dest,
                "action": type(action).__name__,
                "default": default,
                "choices": list(action.choices) if action.choices else None,
                "nargs": action.nargs,
                "required": action.required,
                "accepts": _accepted(action.type) if action.type else None,
            }
            if action.option_strings:
                entry["flags"] = list(action.option_strings)
                surface[f"{name} {max(action.option_strings, key=len)}"] = entry
            else:
                positionals.append(entry)
    return surface


@pytest.fixture
def log_path(tmp_path):
    path = tmp_path / "radix.log"
    rc = main(["record", "radix", "-p", "2", "-s", "0.02", "-o", str(path)])
    assert rc == 0
    return path


class TestParser:
    def test_surface_matches_the_golden_file(self):
        assert cli_surface() == json.loads(SURFACE.read_text())

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_cpu_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "x.log", "--cpus", "2,zero"])

    def test_cpu_list_parsed(self):
        args = build_parser().parse_args(["predict", "x.log", "--cpus", "2,4,8"])
        assert args.cpus == [2, 4, 8]

    @pytest.mark.parametrize(
        "argv",
        [
            ["client", "predict", "x.log", "--cpus", "2,x"],
            ["client", "predict", "x.log", "--cpus", "0"],
            ["whatif", "x.log", "--shard-lock", "buffer:x"],
            ["whatif", "x.log", "--shard-lock", "buffer:0"],
            ["whatif", "x.log", "--scale-cs", "buffer"],
            ["whatif", "x.log", "--scale-cs", "buffer:-1"],
            ["whatif", "x.log", "--scale-compute", "-1"],
            ["whatif", "x.log", "--scale-io", "-1"],
            ["knee", "x.log", "--target", "0"],
            ["knee", "x.log", "--target", "1.5"],
            ["knee", "x.log", "--max-cpus", "0"],
            ["batch", "x.json", "--tier", "auto", "--target", "-1"],
            ["batch", "x.json", "--tier", "auto", "--target", "1.01"],
            ["batch", "x.json", "--tier", "sim", "--target", "0.0"],
            ["batch", "x.json", "--workers", "0"],
            ["serve", "--workers", "-2"],
            *(
                pytest.param(argv, id=f"{argv[0]}:{argv[-2]}={argv[-1]}")
                for argv in (
                    ["record", "prodcons", "-o", "x.log", "-p", "0"],
                    ["record", "prodcons", "-o", "x.log", "-s", "0"],
                    ["visualize", "x.log", "--width", "0"],
                    ["client", "ready", "--timeout", "-1"],
                    ["doctor", "x.log", "--cpus", "0"],
                    ["stats", "x.log", "--top", "-2"],
                    ["doctor", "x.log", "--repairs", "-1"],
                    ["lint", "x.log", "--workers", "-2"],
                    ["report", "x.log", "--workers", "-2"],
                    ["predict", "x.log", "--lwps", "0"],
                    ["compare", "a.log", "b.log", "--comm-delay", "-1"],
                    ["serve", "--port", "-1"],
                )
            ),
        ],
        ids=lambda argv: "=".join(argv[-2:]),
    )
    def test_malformed_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: vppb")
        # the flag is named with its aliases: "argument -p/--threads:"
        assert re.search(rf"argument (\S+/)?{re.escape(argv[-2])}(/\S+)?:", err)

    def test_lock_values_parsed(self):
        args = build_parser().parse_args([
            "whatif", "x.log", "--scale-cs", "buffer:0.5",
            "--shard-lock", "buffer:16", "--scale-io", "2",
        ])
        assert args.scale_cs == ("buffer", 0.5, "0.5")
        assert args.shard_lock == ("buffer", 16, "16")
        assert args.scale_io == 2.0
        client = build_parser().parse_args(["client", "predict", "x.log"])
        assert client.cpus == [2, 4, 8]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "x.log"],
            ["calibrate"],
            ["validate", "--profile", "p.json"],
            ["calibrate-analytic"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_engine_flags_shared(self, argv):
        engine = lambda a: (a.workers, a.cache_dir, a.no_cache)
        parser = build_parser()
        assert engine(parser.parse_args(argv)) == (0, None, False)
        flags = ["--workers", "3", "--cache-dir", "cache", "--no-cache"]
        assert engine(parser.parse_args(argv + flags)) == (3, "cache", True)

    @pytest.mark.parametrize(
        "argv, mode, workers, disk",
        [
            (["predict", "x.log"], "inline", None, False),
            (["report", "x.log"], "inline", None, False),
            (["report", "x.log", "--workers", "1"], "process", 1, False),
            (["lint", "x.log", "--no-cache"], "inline", None, False),
            (["lint", "x.log", "--workers", "2", "--cache-dir", "c"], "process", 2, True),
            (["batch", "x.json", "--cache-dir", "c"], "process", None, True),
            (["batch", "x.json", "--inline", "--no-cache"], "inline", None, False),
            (["serve", "--workers", "1", "--cache-dir", "c"], "process", 1, True),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_one_workers_rule(self, argv, mode, workers, disk):
        """0 runs in-process, N >= 1 runs N worker processes; batch and
        serve default to a machine-sized pool.  Building an engine
        starts no process."""
        from repro.cli import _engine

        with _engine(build_parser().parse_args(argv)) as engine:
            assert engine.mode == mode
            assert workers is None or engine.workers == workers
            assert (engine.cache.root is not None) == disk


class TestImports:
    def test_cli_import_leaves_numpy_and_the_analysis_layers_out(self):
        """``vppb serve`` starts through this module: building the
        parser and the service loads no numpy, analysis or visualizer
        module."""
        code = (
            "import sys, repro.cli, repro.jobs.service_async; "
            "repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m == 'numpy' or "
            "m.startswith(('numpy.', 'repro.analysis', 'repro.visualizer'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestWorkloadsCommand:
    def test_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("ocean", "water", "fft", "radix", "lu", "prodcons"):
            assert name in out


class TestRecordCommand:
    def test_writes_log(self, log_path, capsys):
        assert log_path.exists()
        assert log_path.stat().st_size > 200

    def test_unknown_workload(self, capsys):
        assert main(["record", "barnes", "-o", "/tmp/never.log"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_zero_overhead_flag(self, tmp_path):
        path = tmp_path / "a.log"
        assert (
            main(
                [
                    "record",
                    "radix",
                    "-p",
                    "2",
                    "-s",
                    "0.02",
                    "-o",
                    str(path),
                    "--overhead",
                    "0",
                ]
            )
            == 0
        )
        text = path.read_text()
        assert "# probe-overhead-us: 0" in text


class TestPredictCommand:
    def test_prints_speedups(self, log_path, capsys):
        assert main(["predict", str(log_path), "--cpus", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "predicted speed-up" in out
        assert " 2 CPUs" in out

    def test_lwps_knob_accepted(self, log_path, capsys):
        assert main(["predict", str(log_path), "--cpus", "2", "--lwps", "1"]) == 0
        out = capsys.readouterr().out
        # one LWP serialises everything: speed-up ~1
        assert "1.0" in out


class TestVisualizeCommand:
    def test_svg_output(self, log_path, tmp_path, capsys):
        out_path = tmp_path / "out.svg"
        assert (
            main(["visualize", str(log_path), "--cpus", "2", "-o", str(out_path)])
            == 0
        )
        assert out_path.read_text().startswith("<svg")

    def test_ascii_output(self, log_path, capsys):
        assert main(["visualize", str(log_path), "--cpus", "2"]) == 0
        out = capsys.readouterr().out
        assert "parallelism" in out and "T1 main" in out


class TestReportCommand:
    def test_report(self, log_path, capsys):
        assert main(["report", str(log_path), "--cpus", "2"]) == 0
        out = capsys.readouterr().out
        assert "speed-up prediction" in out


class TestStatsCommand:
    def test_stats_table(self, log_path, capsys):
        assert main(["stats", str(log_path), "--cpus", "2"]) == 0
        out = capsys.readouterr().out
        assert "util" in out and "T1 main" in out

    def test_stats_top_filter(self, log_path, capsys):
        assert main(["stats", str(log_path), "--cpus", "2", "--top", "1"]) == 0
        out = capsys.readouterr().out
        # exactly one data row (header + one line)
        rows = [l for l in out.splitlines() if l.startswith("T")]
        assert len(rows) == 1


class TestKneeCommand:
    def test_knee(self, log_path, capsys):
        assert main(["knee", str(log_path), "--max-cpus", "8"]) == 0
        out = capsys.readouterr().out
        assert "CPU(s) reach" in out and "of the bound" in out


class TestCompareCommand:
    def test_compare_two_logs(self, tmp_path, capsys):
        a = tmp_path / "naive.log"
        b = tmp_path / "tuned.log"
        assert main(["record", "prodcons", "-s", "0.05", "-o", str(a)]) == 0
        assert main(["record", "prodcons-tuned", "-s", "0.05", "-o", str(b)]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b), "--cpus", "8"]) == 0
        out = capsys.readouterr().out
        assert "performance change" in out and "makespan" in out


class TestWhatifCommand:
    def test_shard_preview(self, tmp_path, capsys):
        log = tmp_path / "naive.log"
        assert main(["record", "prodcons", "-s", "0.05", "-o", str(log)]) == 0
        capsys.readouterr()
        assert (
            main(["whatif", str(log), "--cpus", "8", "--shard-lock", "buffer:16"])
            == 0
        )
        out = capsys.readouterr().out
        assert "what-if on 8 CPUs" in out and "mutex:buffer" in out

    def test_no_transformation_is_an_error(self, log_path, capsys):
        assert main(["whatif", str(log_path)]) == 2
        assert "no transformation" in capsys.readouterr().err

    def test_cross_kernel_comparison(self, log_path, capsys):
        rc = main(
            ["whatif", str(log_path), "--cpus", "4",
             "--scheduler", "clutch,cfs,solaris"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-kernel what-if" in out
        for name in ("solaris", "clutch", "cfs"):
            assert name in out
        assert "best:" in out

    def test_scheduler_rejects_unknown_backend(self, log_path, capsys):
        assert main(["whatif", str(log_path), "--scheduler", "vms"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_scheduler_rejects_transform_combo(self, log_path, capsys):
        rc = main(
            ["whatif", str(log_path), "--scheduler", "cfs",
             "--scale-compute", "0.5"]
        )
        assert rc == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestOneSweepPath:
    """``predict``, ``report``, ``knee`` and ``whatif --scheduler`` answer
    through ``run_grid``: they print the serial predictor's numbers, which
    are ``vppb batch``'s on the same cells."""

    @pytest.fixture(scope="class")
    def prodcons(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sweep") / "prodcons.log"
        assert main(["record", "prodcons", "-s", "0.05", "-o", str(path)]) == 0
        return path, logfile.load(path)

    @staticmethod
    def _batch(path, **axes):
        manifest = SweepManifest.from_dict({"trace": str(path), **axes})
        report = run_manifest(manifest, JobEngine(mode="inline"))
        return {s.label: s for s in report.scenarios}

    def test_predict_and_report(self, prodcons, capsys):
        path, trace = prodcons
        serial = [predict_speedup(trace, n) for n in (2, 4, 8)]
        batch = self._batch(path, cpus=[2, 4, 8])
        for p in serial:
            cell = batch[f"{p.cpus}cpu/unbound"]
            assert (cell.outcome.makespan_us, cell.speedup) == (p.makespan_us, p.speedup)
        capsys.readouterr()
        assert main(["predict", str(path), "--cpus", "2,4,8"]) == 0
        predicted = re.findall(
            r"(\d+) CPUs: predicted speed-up ([\d.]+) \(([\d.]+)s vs ([\d.]+)s",
            capsys.readouterr().out,
        )
        assert predicted == [
            (
                str(p.cpus),
                f"{p.speedup:.2f}",
                f"{to_seconds(p.makespan_us):.3f}",
                f"{to_seconds(p.uniprocessor_us):.3f}",
            )
            for p in serial
        ]
        assert main(["report", str(path), "--cpus", "2,4,8"]) == 0
        reported = re.findall(r"(\d+) CPUs: ([\d.]+)$", capsys.readouterr().out, re.M)
        assert reported == [(str(p.cpus), f"{p.speedup:.2f}") for p in serial]

    def test_knee(self, prodcons, capsys):
        path, trace = prodcons
        capsys.readouterr()
        assert main(["knee", str(path), "--max-cpus", "8"]) == 0
        cpus, speedup = re.search(
            r"(\d+) CPU\(s\) reach ([\d.]+)x", capsys.readouterr().out
        ).groups()
        serial = predict_speedup(trace, int(cpus))
        assert speedup == f"{serial.speedup:.2f}"
        assert self._batch(path, cpus=[int(cpus)])[f"{cpus}cpu/unbound"].speedup == (
            serial.speedup
        )

    def test_whatif_scheduler(self, prodcons, capsys):
        path, trace = prodcons
        names = ["solaris", "clutch", "cfs"]
        base = SimConfig(lwps=2, comm_delay_us=20)
        serial = {
            name: predict_speedup(trace, 4, base_config=base.with_scheduler(name))
            for name in names
        }
        batch = self._batch(
            path, cpus=[4], lwps=[2], comm_delay_us=[20], schedulers=names
        )
        for name in names:
            suffix = "" if name == "solaris" else f"/{name}"
            cell = batch[f"4cpu/unbound/lwps=2/comm=20us{suffix}"]
            assert (cell.outcome.makespan_us, cell.speedup) == (
                serial[name].makespan_us,
                serial[name].speedup,
            )
        capsys.readouterr()
        argv = ["whatif", str(path), "--cpus", "4", "--lwps", "2", "--comm-delay", "20"]
        assert main(argv + ["--scheduler", ",".join(names)]) == 0
        rows = re.findall(r"^(\w+) +(\d+)us +([\d.]+)$", capsys.readouterr().out, re.M)
        assert rows == [
            (name, str(serial[name].makespan_us), f"{serial[name].speedup:.2f}")
            for name in names
        ]

    def test_predict_replays_the_baseline_once(self, prodcons, monkeypatch):
        from repro.calib import CalibrationProfile
        from repro.core.simulator import Simulator

        path, _ = prodcons
        replays, loads = [], []
        run_replay, load = Simulator.run_replay, CalibrationProfile.load
        monkeypatch.setattr(
            Simulator,
            "run_replay",
            lambda self, *a, **kw: replays.append(1) or run_replay(self, *a, **kw),
        )
        monkeypatch.setattr(
            CalibrationProfile, "load", lambda p: loads.append(p) or load(p)
        )
        argv = ["predict", str(path), "--cpus", "2,4,8", "--profile", str(PROFILE)]
        assert main(argv) == 0
        # one shared baseline plus one replay per CPU count
        assert (len(replays), len(loads)) == (4, 1)


class TestDoctorCommand:
    def test_healthy_log(self, log_path, capsys):
        assert main(["doctor", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "strict parse ok" in out
        assert "HEALTHY" in out

    def test_damaged_log_salvages(self, log_path, tmp_path, capsys):
        text = log_path.read_text()
        lines = text.splitlines(keepends=True)
        lines[10] = "not-a-time garbage line\n"
        bad = tmp_path / "damaged.log"
        bad.write_text("".join(lines))
        capsys.readouterr()
        assert main(["doctor", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "strict parse failed" in out
        assert "salvage:" in out
        assert "DEGRADED" in out

    def test_missing_file(self, capsys):
        assert main(["doctor", "/no/such/place.log"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        assert main(["doctor", str(empty)]) == 2
        assert "UNUSABLE" in capsys.readouterr().out

    def test_binary_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.log"
        junk.write_bytes(bytes(range(256)) * 4)
        assert main(["doctor", str(junk)]) == 2
        out = capsys.readouterr().out
        assert "UNUSABLE" in out

    def test_truncation_sweep_never_raises(self, log_path, tmp_path, capsys):
        """The acceptance bar: cut the log at any byte offset and doctor
        must exit with a verdict, never a traceback."""
        import random

        text = log_path.read_text()
        target = tmp_path / "cut.log"
        rng = random.Random(0)
        offsets = sorted(rng.sample(range(len(text) + 1), 40))
        for offset in offsets:
            target.write_text(text[:offset])
            rc = main(["doctor", str(target), "--no-replay"])
            assert rc in (0, 1, 2), f"offset {offset}: rc {rc}"
        capsys.readouterr()

    def test_truncated_log_with_replay(self, log_path, tmp_path, capsys):
        text = log_path.read_text()
        target = tmp_path / "cut.log"
        target.write_text(text[: len(text) // 2])
        rc = main(["doctor", str(target)])
        assert rc in (1, 2)
        capsys.readouterr()


if __name__ == "__main__":
    entries = sorted(cli_surface().items())
    SURFACE.write_text(
        "{\n"
        + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries)
        + "\n}\n"
    )
    print(f"wrote {SURFACE}")
