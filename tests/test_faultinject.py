"""Fault-injection harness tests: corruptors, perturbations, chaos suite.

The standing contract: every damaged variant of a real log must either
still load strictly or salvage with a non-empty report — never an
unhandled exception.  Perturbations must be deterministic under a seed
and must never mutate their input.
"""

import hashlib
import json
import random
import re

import pytest

from repro import SimConfig, record_program
from repro.core.events import Phase, Primitive
from repro.core.predictor import compile_trace, predict
from repro.core.result import RunStatus
from repro.faultinject import (
    CORRUPTORS,
    chaos_summary,
    corrupt,
    corruption_corpus,
    drop_wakeups,
    run_chaos,
    skew_clock,
    stall_threads,
    truncate_at,
)
from repro.faultinject.corrupt import corruptor
from repro.recorder import logfile

from tests.conftest import make_prodcons_program


@pytest.fixture(scope="module")
def recorded():
    return record_program(make_prodcons_program())


@pytest.fixture(scope="module")
def log_text(recorded):
    return logfile.dumps(recorded.trace)


class TestCorruptors:
    def test_registry_is_populated(self):
        # the chaos suite is only as good as its damage models
        assert len(CORRUPTORS) >= 10
        assert "truncate" in CORRUPTORS
        assert "garbage-bytes" in CORRUPTORS

    @pytest.mark.parametrize("kind", sorted(CORRUPTORS))
    def test_same_seed_same_damage(self, kind, log_text):
        assert corrupt(log_text, kind, seed=7) == corrupt(log_text, kind, seed=7)

    @pytest.mark.parametrize("kind", sorted(CORRUPTORS))
    def test_damage_actually_changes_the_text(self, kind, log_text):
        assert corrupt(log_text, kind, seed=0) != log_text

    def test_unknown_corruptor_rejected(self, log_text):
        with pytest.raises(KeyError):
            corrupt(log_text, "cosmic-rays")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            corruptor("truncate")(lambda text, rng: text)

    def test_truncate_at(self, log_text):
        assert truncate_at(log_text, 10) == log_text[:10]
        assert truncate_at(log_text, -5) == ""

    def test_corpus_covers_the_grid(self, log_text):
        corpus = list(corruption_corpus(log_text, seeds=(0, 1)))
        assert len(corpus) == 2 * len(CORRUPTORS)
        assert {c.kind for c in corpus} == set(CORRUPTORS)


class TestChaosSuite:
    def test_every_variant_loads_or_salvages(self, log_text):
        outcomes = run_chaos(log_text, seeds=(0, 1, 2))
        failed = [o for o in outcomes if not o.ok]
        assert not failed, chaos_summary(outcomes)

    def test_salvaged_outcomes_carry_reports(self, log_text):
        for outcome in run_chaos(log_text, seeds=(0,)):
            if outcome.status == "salvaged":
                assert outcome.report is not None
                assert not outcome.report.clean

    def test_summary_tallies(self, log_text):
        outcomes = run_chaos(log_text, seeds=(0,))
        summary = chaos_summary(outcomes)
        assert f"{len(outcomes)} variant(s)" in summary
        assert "failed" in summary

    def test_salvage_counts_pinned_over_sixteen_seeds(self, log_text):
        # each source location becomes its rank, so the log, and every
        # byte offset a corruptor picks, is the same in any checkout
        ranks = {}

        def portable(match):
            rank = ranks.setdefault(match.group(0), len(ranks) + 1)
            return f"src=prodcons.c|{rank}|{match.group(1)}"

        text = re.sub(r"src=\S+\|(\w*)$", portable, log_text, flags=re.M)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0afb963d00a282afaaf9104fa9770bac34c6500fc5d2bd04138938a0cb5385ae"
        ), "the recorded prodcons fixture changed"
        outcomes = run_chaos(text, seeds=range(16))
        tally = {}
        for o in outcomes:
            tally[o.status] = tally.get(o.status, 0) + 1
        assert tally == {"salvaged": 170, "strict-ok": 54}
        assert sum(len(o.report.repairs) for o in outcomes if o.report) == 818
        rows = [
            [
                o.kind, o.seed, o.status, o.records,
                o.report.counts_by_kind() if o.report else None,
                o.report.records_kept if o.report else None,
            ]
            for o in outcomes
        ]
        assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == (
            "984376ec46f6698dc82e9403ca94abbb12c6ab5c2e11b5e2276a4e2c5d1baa19"
        )


class TestDropWakeups:
    def test_result_is_a_valid_trace(self, recorded):
        out = drop_wakeups(recorded.trace, seed=0)
        assert len(out.dropped) >= 1
        # call+ret pairs removed: two records gone per dropped wake-up
        assert len(out.trace) <= len(recorded.trace) - 2 * len(out.dropped) + 1
        for rec in out.dropped:
            assert rec.phase is Phase.CALL
            assert rec.primitive in (
                Primitive.SEMA_POST,
                Primitive.COND_SIGNAL,
                Primitive.COND_BROADCAST,
            )

    def test_deterministic(self, recorded):
        a = drop_wakeups(recorded.trace, seed=3)
        b = drop_wakeups(recorded.trace, seed=3)
        assert [r.time_us for r in a.dropped] == [r.time_us for r in b.dropped]

    def test_input_not_mutated(self, recorded):
        before = len(recorded.trace)
        drop_wakeups(recorded.trace, seed=0)
        assert len(recorded.trace) == before

    def test_replay_degrades_gracefully(self, recorded):
        """Dropping wake-ups strands waiters; the non-strict replay must
        come back as a partial result, never hang or crash."""
        out = drop_wakeups(recorded.trace, seed=1, fraction=1.0)
        result = predict(out.trace, SimConfig(cpus=2), strict=False)
        assert result.incomplete
        assert result.incompleteness.status in (
            RunStatus.DEADLOCK, RunStatus.LIVELOCK,
        )

    def test_fraction_validated(self, recorded):
        with pytest.raises(ValueError):
            drop_wakeups(recorded.trace, fraction=1.5)


class TestSkewClock:
    def test_same_shape_different_work(self, recorded):
        plan = compile_trace(recorded.trace)
        skewed = skew_clock(plan, seed=0, max_skew=0.2)
        assert skewed.total_steps() == plan.total_steps()
        assert set(skewed.steps) == set(plan.steps)
        for tid in plan.steps:
            for old, new in zip(plan.steps[tid], skewed.steps[tid]):
                assert new.op is old.op  # ops untouched, only timing skewed
                low = int(old.work_us * 0.8) - 1
                high = int(old.work_us * 1.2) + 1
                assert low <= new.work_us <= high

    def test_deterministic(self, recorded):
        plan = compile_trace(recorded.trace)
        a = skew_clock(plan, seed=9)
        b = skew_clock(plan, seed=9)
        for tid in a.steps:
            assert [s.work_us for s in a.steps[tid]] == [
                s.work_us for s in b.steps[tid]
            ]

    def test_input_not_mutated(self, recorded):
        plan = compile_trace(recorded.trace)
        before = {tid: [s.work_us for s in steps] for tid, steps in plan.steps.items()}
        skew_clock(plan, seed=0, max_skew=0.3)
        after = {tid: [s.work_us for s in steps] for tid, steps in plan.steps.items()}
        assert before == after

    def test_skewed_plan_still_replays(self, recorded):
        plan = compile_trace(recorded.trace)
        skewed = skew_clock(plan, seed=4, max_skew=0.1)
        result = predict(recorded.trace, SimConfig(cpus=2), plan=skewed)
        assert result.makespan_us > 0

    def test_max_skew_validated(self, recorded):
        plan = compile_trace(recorded.trace)
        with pytest.raises(ValueError):
            skew_clock(plan, max_skew=1.0)


class TestStallThreads:
    def test_inserts_delay_steps(self, recorded):
        plan = compile_trace(recorded.trace)
        stalled = stall_threads(plan, seed=0, stall_us=10_000)
        extra = stalled.total_steps() - plan.total_steps()
        assert extra >= 1  # one stall step per chosen thread

    def test_explicit_thread_selection(self, recorded):
        plan = compile_trace(recorded.trace)
        victim = sorted(tid for tid, s in plan.steps.items() if s)[0]
        stalled = stall_threads(plan, seed=0, threads=[victim])
        assert len(stalled.steps[victim]) == len(plan.steps[victim]) + 1
        for tid in plan.steps:
            if tid != victim:
                assert len(stalled.steps[tid]) == len(plan.steps[tid])

    def test_stall_slows_the_replay_down(self, recorded):
        plan = compile_trace(recorded.trace)
        stalled = stall_threads(plan, seed=0, stall_us=100_000, fraction=1.0)
        base = predict(recorded.trace, SimConfig(cpus=2), plan=plan)
        slow = predict(recorded.trace, SimConfig(cpus=2), plan=stalled)
        assert slow.makespan_us > base.makespan_us

    def test_input_not_mutated(self, recorded):
        plan = compile_trace(recorded.trace)
        before = {tid: len(steps) for tid, steps in plan.steps.items()}
        stall_threads(plan, seed=0, fraction=1.0)
        after = {tid: len(steps) for tid, steps in plan.steps.items()}
        assert before == after

    def test_negative_stall_rejected(self, recorded):
        plan = compile_trace(recorded.trace)
        with pytest.raises(ValueError):
            stall_threads(plan, stall_us=-1)


class TestTruncationThroughSalvage:
    def test_sampled_offsets_never_raise(self, log_text):
        """The headline robustness claim, exercised from the harness
        side: a log cut at any byte offset loads strictly or salvages."""
        from repro.core.errors import TraceError
        from repro.recorder.salvage import salvage_loads

        rng = random.Random(0)
        offsets = sorted(rng.sample(range(len(log_text) + 1), 60))
        for offset in offsets:
            text = truncate_at(log_text, offset)
            try:
                logfile.loads(text, mode="strict")
            except TraceError:
                result = salvage_loads(text)
                assert not result.report.clean
