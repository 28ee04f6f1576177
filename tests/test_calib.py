"""Calibration & validation subsystem tests.

Covers the tunable parameter space, cost-model construction validation,
the derivative-free fitter on analytic objectives, profile JSON
round-trips, error attribution on degenerate inputs, drift detection,
and the end-to-end calibrate → validate → perturb loop (library and
CLI).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.compare import attribute_error, format_attribution
from repro.calib import (
    CalibrationProfile,
    ObjectiveEvaluator,
    ParamSpace,
    WorkloadSpec,
    build_report,
    calibrate,
    cross_validate,
    default_space,
    detect_drift,
    format_error_table,
    format_validation,
    measure_suite,
    validate,
)
from repro.calib.fit import fit
from repro.calib.measure import measure_one
from repro.calib.objective import ErrorRow, mean_abs_error
from repro.cli import main
from repro.core.config import SimConfig
from repro.core.errors import CalibrationError, ConfigError
from repro.core.predictor import predict
from repro.core.result import SegmentKind
from repro.faultinject import perturb_profile
from repro.jobs import JobEngine, ResultCache
from repro.program.uniexec import record_program
from repro.solaris import costs as costs_mod
from repro.solaris.costs import CostModel, apply_params, default_params
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# parameter space
# ---------------------------------------------------------------------------


class TestParamSpace:
    def test_default_space_matches_tunables(self):
        space = default_space()
        assert set(space.names) == set(p.name for p in costs_mod.tunable_params())
        assert space.defaults() == [p.default for p in space.params]

    def test_dict_vector_roundtrip(self):
        space = default_space()
        params = default_params()
        assert space.to_dict(space.to_vector(params)) == params

    def test_clip_projects_into_box(self):
        space = default_space()
        lo_clip = space.clip([-1e9] * len(space))
        hi_clip = space.clip([1e9] * len(space))
        assert lo_clip == [p.lo for p in space.params]
        assert hi_clip == [p.hi for p in space.params]

    def test_nan_snaps_to_default(self):
        space = default_space()
        vec = space.clip([float("nan")] * len(space))
        assert vec == space.defaults()

    def test_wrong_length_vector_rejected(self):
        with pytest.raises(ConfigError, match="values for a space"):
            default_space().clip([1.0])

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            default_space().to_vector({"warp_factor": 9.0})

    def test_subset(self):
        space = default_space().subset(["bound_sync_factor"])
        assert space.names == ["bound_sync_factor"]
        with pytest.raises(ConfigError, match="unknown parameter"):
            default_space().subset(["nope"])

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            ParamSpace(())

    def test_integral_params_get_whole_steps(self):
        space = default_space()
        for p, step in zip(space.params, space.steps(0.0001)):
            if p.integral:
                assert step >= 1.0


# ---------------------------------------------------------------------------
# cost model construction validation (satellite)
# ---------------------------------------------------------------------------


class TestCostModelValidation:
    def test_defaults_are_valid(self):
        CostModel()  # must not raise

    def test_free_model_still_legal(self):
        # zero base costs are meaningful (exact-time tests rely on them)
        costs_mod.free()

    @pytest.mark.parametrize("field_name", ["bound_create_factor", "bound_sync_factor"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_multiplier_rejected(self, field_name, value):
        with pytest.raises(ConfigError, match=field_name):
            CostModel(**{field_name: value})

    @pytest.mark.parametrize("field_name", ["thread_switch_us", "lwp_switch_us"])
    def test_negative_switch_cost_rejected(self, field_name):
        with pytest.raises(ConfigError, match=field_name):
            CostModel(**{field_name: -5})

    def test_negative_base_cost_rejected_and_located(self):
        base = dict(CostModel().base_costs)
        key = next(iter(base))
        base[key] = -1
        with pytest.raises(ConfigError, match=key.value):
            CostModel(base_costs=base)

    def test_apply_params_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="warp_factor"):
            apply_params({"warp_factor": 2.0})

    def test_apply_params_scales_and_rounds(self):
        fitted = apply_params(
            {"bound_sync_factor": 7.5, "thread_switch_us": 12.7}
        )
        assert fitted.bound_sync_factor == 7.5
        assert fitted.thread_switch_us == 13  # integral: rounded
        assert isinstance(fitted.thread_switch_us, int)

    def test_apply_params_preserves_unrelated_fields(self):
        base = CostModel(lwp_switch_us=77)
        fitted = apply_params({"bound_sync_factor": 3.0}, base=base)
        assert fitted.lwp_switch_us == 77


# ---------------------------------------------------------------------------
# fitter on analytic objectives (no simulations)
# ---------------------------------------------------------------------------


class _ToyEvaluator:
    """Duck-typed stand-in for ObjectiveEvaluator over a closed form."""

    def __init__(self, space, fn):
        self.space = space
        self.fn = fn
        self.calls = 0

    def vector_fn(self):
        def call(vec):
            self.calls += 1
            return self.fn(vec)

        return call


class TestFitter:
    def test_finds_separable_quadratic_minimum(self):
        space = default_space()
        target = [
            p.lo + 0.37 * (p.hi - p.lo) for p in space.params
        ]
        toy = _ToyEvaluator(
            space, lambda v: sum((a - b) ** 2 for a, b in zip(v, target))
        )
        result = fit(toy, max_evals=300)
        assert result.objective < toy.fn(space.defaults())
        for name, got, want in zip(
            space.names, space.to_vector(result.params), target
        ):
            span = dict(zip(space.names, [p.hi - p.lo for p in space.params]))
            # integral params quantise; others should land close
            assert abs(got - want) < 0.15 * span[name], name

    def test_never_worse_than_defaults(self):
        # objective minimised *at* the defaults: fit must return them
        space = default_space()
        defaults = space.defaults()
        toy = _ToyEvaluator(
            space, lambda v: sum((a - b) ** 2 for a, b in zip(v, defaults))
        )
        result = fit(toy, max_evals=60)
        assert result.objective == pytest.approx(0.0)
        assert result.baseline_objective == pytest.approx(0.0)
        assert not result.improved  # equal, not strictly better

    def test_budget_respected(self):
        space = default_space()
        toy = _ToyEvaluator(space, lambda v: sum(x * x for x in v))
        result = fit(toy, max_evals=25)
        assert toy.calls <= 25
        assert result.evaluations <= 25

    def test_tiny_budget_rejected(self):
        toy = _ToyEvaluator(default_space(), sum)
        with pytest.raises(CalibrationError, match="max_evals"):
            fit(toy, max_evals=2)

    def test_objective_trace_is_decreasing(self):
        space = default_space()
        toy = _ToyEvaluator(space, lambda v: sum(x * x for x in v))
        result = fit(toy, max_evals=80)
        values = [v for _, v in result.objective_trace]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(result.objective)

    def test_deterministic(self):
        space = default_space()

        def fn(v):
            return sum(math.sin(x) + 0.01 * x * x for x in v)

        r1 = fit(_ToyEvaluator(space, fn), max_evals=70)
        r2 = fit(_ToyEvaluator(space, fn), max_evals=70)
        assert r1.params == r2.params
        assert r1.objective == r2.objective


# ---------------------------------------------------------------------------
# error attribution degenerate inputs (satellite)
# ---------------------------------------------------------------------------


class TestAttributeError:
    def _predicted(self, program, cpus):
        trace = record_program(program).trace
        return predict(trace, SimConfig(cpus=cpus))

    def test_identical_results_attribute_zero_everywhere(self):
        w = get_workload("synthetic")
        result = self._predicted(w.make_program(3, 0.2, seed=5), 2)
        attribution = attribute_error(result, result)
        assert attribution.makespan_delta_us == 0
        assert all(p.delta_us == 0 for p in attribution.phases)
        assert attribution.dominant() is None
        assert "makespan" in format_attribution(attribution)

    def test_single_thread_program(self):
        from repro.program import ops as op
        from repro.program.program import Program

        def main(ctx):
            yield op.Compute(10_000)

        program = Program("solo", main)
        result = self._predicted(program, 2)
        attribution = attribute_error(result, result)
        kinds = {p.kind: p for p in attribution.phases}
        assert set(kinds) == set(SegmentKind)
        assert kinds[SegmentKind.BLOCKED].real_us == 0

    def test_cpu_mismatch_raises(self):
        w = get_workload("synthetic")
        program = w.make_program(3, 0.2, seed=5)
        a = self._predicted(program, 2)
        b = self._predicted(program, 4)
        with pytest.raises(ValueError, match="different machines"):
            attribute_error(a, b)

    def test_measured_vs_predicted_attributes_real_gap(self):
        from repro.program.mpexec import run_multiprocessor

        w = get_workload("synthetic")
        config = SimConfig(cpus=2)
        real = run_multiprocessor(w.make_program(3, 0.2, seed=5), config)
        predicted = predict(
            record_program(w.make_program(3, 0.2, seed=5)).trace, config
        )
        attribution = attribute_error(real, predicted)
        # probe intrusion means the predicted timeline differs
        assert attribution.dominant() is not None


# ---------------------------------------------------------------------------
# profile round-trip + structural validation (satellite)
# ---------------------------------------------------------------------------


def _tiny_profile(**overrides) -> CalibrationProfile:
    fields = dict(
        params={"bound_sync_factor": 5.5, "sync_cost_scale": 0.9},
        objective=0.01,
        baseline_objective=0.03,
        error_table=(
            ErrorRow("synthetic", 2, 1.5, 1.48, 0.0133),
            ErrorRow("synthetic", 4, 2.8, 2.79, 0.0036),
        ),
        suite=(WorkloadSpec(name="synthetic", cpus=(2, 4)),),
        objective_trace=((1, 0.03), (7, 0.01)),
        evaluations=7,
    )
    fields.update(overrides)
    return CalibrationProfile(**fields)


class TestProfileRoundTrip:
    def test_json_roundtrip_preserves_everything(self):
        profile = _tiny_profile()
        restored = CalibrationProfile.from_json(profile.to_json())
        assert restored.params == profile.params
        assert restored.error_table == profile.error_table
        assert restored.suite == profile.suite
        assert restored.objective_trace == profile.objective_trace
        assert restored.objective == profile.objective
        assert restored.created == profile.created
        assert restored.machine == profile.machine

    def test_save_load(self, tmp_path):
        path = tmp_path / "deep" / "profile.json"
        _tiny_profile().save(path)
        restored = CalibrationProfile.load(path)
        assert restored.params == _tiny_profile().params

    def test_cost_model_applies_params(self):
        model = _tiny_profile().cost_model()
        assert model.bound_sync_factor == 5.5

    def test_apply_overrides_config_costs(self):
        config = _tiny_profile().apply(SimConfig(cpus=4))
        assert config.cpus == 4
        assert config.costs.bound_sync_factor == 5.5

    def test_wrong_format_rejected(self):
        with pytest.raises(CalibrationError, match="not a calibration profile"):
            CalibrationProfile.from_json(json.dumps({"format": "something"}))

    def test_wrong_version_rejected(self):
        doc = json.loads(_tiny_profile().to_json())
        doc["version"] = 999
        with pytest.raises(CalibrationError, match="version"):
            CalibrationProfile.from_dict(doc)

    def test_garbage_rejected(self):
        with pytest.raises(CalibrationError, match="JSON"):
            CalibrationProfile.from_json("{nope")
        with pytest.raises(CalibrationError):
            CalibrationProfile.from_json("[1, 2, 3]")

    def test_empty_params_rejected(self):
        with pytest.raises(CalibrationError, match="parameters"):
            _tiny_profile(params={})

    def test_machine_fingerprint_recorded(self):
        profile = _tiny_profile()
        assert profile.machine["python"]
        assert profile.machine_mismatches() == []
        moved = _tiny_profile(machine={"python": "0.9", "platform": "ENIAC"})
        assert moved.machine_mismatches()

    def test_unknown_profile_param_fails_at_apply(self):
        profile = _tiny_profile(params={"warp_factor": 2.0})
        with pytest.raises(ConfigError, match="warp_factor"):
            profile.cost_model()


class TestPerturbProfile:
    def test_changes_at_least_one_param_only(self):
        text = _tiny_profile().to_json()
        perturbed = json.loads(perturb_profile(text, seed=0))
        original = json.loads(text)
        assert perturbed["params"] != original["params"]
        assert perturbed["error_table"] == original["error_table"]
        assert perturbed["suite"] == original["suite"]

    def test_deterministic_per_seed(self):
        text = _tiny_profile().to_json()
        assert perturb_profile(text, seed=3) == perturb_profile(text, seed=3)

    def test_rejects_non_profiles(self):
        with pytest.raises(ValueError, match="not a calibration profile"):
            perturb_profile("{}")
        with pytest.raises(ValueError):
            perturb_profile("not json at all")


# ---------------------------------------------------------------------------
# drift detection
# ---------------------------------------------------------------------------


class TestDriftDetection:
    def test_identical_tables_no_drift(self):
        rows = [ErrorRow("w", 2, 1.5, 1.48, 0.0133)]
        assert detect_drift(rows, rows) == []

    def test_moved_error_detected(self):
        recorded = [ErrorRow("w", 2, 1.5, 1.48, 0.0133)]
        fresh = [ErrorRow("w", 2, 1.5, 1.40, 0.0667)]
        drift = detect_drift(recorded, fresh)
        assert len(drift) == 1
        assert drift[0].drift == pytest.approx(0.0534)
        assert "w@2cpu" in drift[0].describe()

    def test_missing_and_extra_cells_detected(self):
        recorded = [ErrorRow("w", 2, 1.5, 1.48, 0.0133)]
        fresh = [ErrorRow("w", 4, 2.0, 1.9, 0.05)]
        drift = detect_drift(recorded, fresh)
        assert len(drift) == 2
        assert all(d.drift == float("inf") for d in drift)

    def test_tolerance_absorbs_rounding(self):
        recorded = [ErrorRow("w", 2, 1.5, 1.48, 0.013333)]
        fresh = [ErrorRow("w", 2, 1.5, 1.48, 0.013334)]
        assert detect_drift(recorded, fresh) == []


# ---------------------------------------------------------------------------
# seed reproducibility (satellite: seeded record)
# ---------------------------------------------------------------------------


class TestSeedReproducibility:
    def test_same_seed_same_trace_fingerprint(self):
        w = get_workload("synthetic")
        t1 = record_program(w.make_program(4, 0.3, seed=11)).trace
        t2 = record_program(w.make_program(4, 0.3, seed=11)).trace
        assert t1.fingerprint() == t2.fingerprint()

    def test_different_seed_different_trace(self):
        w = get_workload("synthetic")
        t1 = record_program(w.make_program(4, 0.3, seed=11)).trace
        t2 = record_program(w.make_program(4, 0.3, seed=12)).trace
        assert t1.fingerprint() != t2.fingerprint()

    def test_record_cli_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        assert main(["record", "synthetic", "-p", "3", "-s", "0.3",
                     "--seed", "7", "-o", str(a)]) == 0
        assert main(["record", "synthetic", "-p", "3", "-s", "0.3",
                     "--seed", "7", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()


# ---------------------------------------------------------------------------
# measurement + objective
# ---------------------------------------------------------------------------


SMALL_SPEC = WorkloadSpec(
    name="synthetic", threads=3, scale=0.3, seed=11, cpus=(2,), runs=2
)


class TestMeasureAndObjective:
    def test_measure_is_deterministic(self):
        m1 = measure_one(SMALL_SPEC)
        m2 = measure_one(SMALL_SPEC)
        assert m1.trace.fingerprint() == m2.trace.fingerprint()
        assert m1.measurements == m2.measurements

    def test_duplicate_suite_rejected(self):
        with pytest.raises(CalibrationError, match="duplicate"):
            measure_suite([SMALL_SPEC, SMALL_SPEC])

    def test_empty_suite_rejected(self):
        with pytest.raises(CalibrationError, match="empty"):
            measure_suite([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            measure_suite([WorkloadSpec(name="nonesuch")])

    def test_error_table_shape_and_score(self):
        measured = measure_suite([SMALL_SPEC])
        evaluator = ObjectiveEvaluator(measured, engine=JobEngine(mode="inline"))
        rows = evaluator.error_table(default_params())
        assert [(r.workload, r.cpus) for r in rows] == [("synthetic", 2)]
        assert evaluator.score(default_params()) >= 0
        assert mean_abs_error(rows) == pytest.approx(
            sum(r.abs_error for r in rows) / len(rows)
        )
        assert "synthetic" in format_error_table(rows)

    def test_restricted_unknown_workload(self):
        measured = measure_suite([SMALL_SPEC])
        evaluator = ObjectiveEvaluator(measured, engine=JobEngine(mode="inline"))
        with pytest.raises(CalibrationError, match="unknown workload"):
            evaluator.restricted(["nonesuch"])

    def test_warm_refit_retraces_the_fit_from_the_cache(self, tmp_path):
        """Every vector a fit visits is a content-addressed job, so a refit
        over the same suite reproduces the fit from disk, simulating
        nothing."""
        measured = measure_suite([SMALL_SPEC])

        def run_fit():
            cache = ResultCache(tmp_path)
            engine = JobEngine(mode="inline", cache=cache)
            return fit(ObjectiveEvaluator(measured, engine=engine), max_evals=12), cache

        cold, cold_cache = run_fit()
        warm, warm_cache = run_fit()
        assert cold_cache.stats()["misses"] > 0
        assert (warm.params, warm.objective) == (cold.params, cold.objective)
        assert warm_cache.stats()["misses"] == 0

    def test_cross_validation_needs_two_workloads(self):
        measured = measure_suite([SMALL_SPEC])
        evaluator = ObjectiveEvaluator(measured, engine=JobEngine(mode="inline"))
        with pytest.raises(CalibrationError, match=">= 2 workloads"):
            cross_validate(evaluator)


# ---------------------------------------------------------------------------
# end-to-end: calibrate -> validate -> perturb (library level)
# ---------------------------------------------------------------------------


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def fitted(self):
        specs = [
            WorkloadSpec(name="synthetic", threads=3, scale=0.3, seed=11,
                         cpus=(2, 4), runs=2),
            WorkloadSpec(name="prodcons", threads=3, scale=0.03, seed=11,
                         cpus=(2, 4), runs=2),
        ]
        with JobEngine(mode="inline") as engine:
            profile = calibrate(specs, engine=engine, max_evals=30)
        return specs, profile

    def test_fit_not_worse_than_defaults(self, fitted):
        _, profile = fitted
        assert profile.objective <= profile.baseline_objective

    def test_profile_records_suite_and_evidence(self, fitted):
        specs, profile = fitted
        assert tuple(profile.suite) == tuple(specs)
        assert len(profile.error_table) == 4
        assert profile.evaluations > 0
        assert profile.objective_trace

    def test_validate_roundtripped_profile_is_clean(self, fitted):
        _, profile = fitted
        restored = CalibrationProfile.from_json(profile.to_json())
        with JobEngine(mode="inline") as engine:
            report = validate(restored, engine=engine, budget=1.0)
        assert report.exit_code == 0
        assert report.verdict == "ok"
        assert not report.drift
        assert "verdict: ok" in format_validation(report)

    def test_perturbed_profile_flagged(self, fitted):
        _, profile = fitted
        bad = CalibrationProfile.from_json(
            perturb_profile(profile.to_json(), seed=2)
        )
        with JobEngine(mode="inline") as engine:
            report = validate(bad, engine=engine, budget=1.0)
        assert report.exit_code == 1  # drift (budget disabled at 1.0)
        assert report.drift

    def test_over_budget_exits_two(self, fitted):
        _, profile = fitted
        with JobEngine(mode="inline") as engine:
            report = validate(profile, engine=engine, budget=1e-9)
        assert report.exit_code == 2
        assert report.verdict == "over-budget"
        assert report.over_budget


# ---------------------------------------------------------------------------
# end-to-end via the CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_calibrate_validate_perturb(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        rc = main([
            "calibrate", "-o", str(profile_path),
            "--workload", "synthetic:3:0.3", "--seed", "11",
            "--cpus", "2", "--runs", "2", "--max-evals", "12",
            "--no-cache", "--no-cv", "--quiet",
        ])
        assert rc == 0
        assert profile_path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out and "mean |error|" in out

        rc = main([
            "validate", "--profile", str(profile_path),
            "--no-cache", "--quiet", "--budget", "1.0",
            "-o", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        artifact = json.loads((tmp_path / "report.json").read_text())
        assert artifact["verdict"] == "ok"
        assert artifact["error_table"]

        bad_path = tmp_path / "bad.json"
        bad_path.write_text(
            perturb_profile(profile_path.read_text(), seed=1)
        )
        rc = main([
            "validate", "--profile", str(bad_path),
            "--no-cache", "--quiet", "--budget", "1.0",
        ])
        assert rc == 1

    def test_validate_missing_profile_is_usage_error(self, tmp_path, capsys):
        rc = main(["validate", "--profile", str(tmp_path / "none.json")])
        assert rc == 2
        assert "cannot read profile" in capsys.readouterr().err

    def test_validate_json_format(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        _tiny_profile(
            suite=(WorkloadSpec(name="synthetic", threads=3, scale=0.3,
                                seed=11, cpus=(2,), runs=2),),
        ).save(profile_path)
        rc = main([
            "validate", "--profile", str(profile_path),
            "--no-cache", "--quiet", "--budget", "1.0", "--format", "json",
        ])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["exit_code"] == rc

    def test_predict_under_profile_changes_costs(self, tmp_path, capsys):
        log = tmp_path / "run.log"
        assert main(["record", "synthetic", "-p", "3", "-s", "0.3",
                     "--seed", "11", "-o", str(log)]) == 0
        capsys.readouterr()
        assert main(["predict", str(log), "--cpus", "2"]) == 0
        plain = capsys.readouterr().out
        profile_path = tmp_path / "p.json"
        _tiny_profile(params={"sync_cost_scale": 10.0}).save(profile_path)
        assert main(["predict", str(log), "--cpus", "2",
                     "--profile", str(profile_path)]) == 0
        scaled = capsys.readouterr().out
        assert plain != scaled

    def test_bad_profile_on_predict_exits_two(self, tmp_path, capsys):
        log = tmp_path / "run.log"
        assert main(["record", "synthetic", "-p", "3", "-s", "0.3",
                     "--seed", "11", "-o", str(log)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["predict", str(log), "--cpus", "2", "--profile", str(bad)])
        assert rc == 2
        assert "not a calibration profile" in capsys.readouterr().err
