"""Unit tests for the cost model and the TS dispatch table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Primitive
from repro.core.timebase import US_PER_MS
from repro.solaris import costs as costs_mod
from repro.solaris.costs import BOUND_CREATE_FACTOR, BOUND_SYNC_FACTOR, CostModel
from repro.solaris.dispatch import TS_LEVELS, DispatchEntry, DispatchTable


class TestCostModel:
    def test_paper_create_factor(self):
        # §3.2: creating a bound thread takes 6.7x longer
        cm = CostModel()
        unbound = cm.op_cost(Primitive.THR_CREATE, bound=False)
        bound = cm.op_cost(Primitive.THR_CREATE, bound=True)
        assert bound == round(unbound * 6.7)
        assert BOUND_CREATE_FACTOR == 6.7

    @pytest.mark.parametrize(
        "prim",
        [
            Primitive.SEMA_WAIT,
            Primitive.SEMA_POST,
            Primitive.MUTEX_LOCK,
            Primitive.MUTEX_UNLOCK,
            Primitive.COND_WAIT,
            Primitive.COND_BROADCAST,
            Primitive.RW_RDLOCK,
            Primitive.RW_UNLOCK,
        ],
    )
    def test_paper_sync_factor_applies_to_all_sync_objects(self, prim):
        # §3.2: the 5.9x semaphore value "is used in the simulator for
        # mutexes, conditions, and read/write locks, as well"
        cm = CostModel()
        assert cm.op_cost(prim, bound=True) == round(cm.op_cost(prim) * 5.9)
        assert BOUND_SYNC_FACTOR == 5.9

    def test_non_sync_primitives_unaffected_by_binding(self):
        cm = CostModel()
        assert cm.op_cost(Primitive.THR_JOIN, bound=True) == cm.op_cost(
            Primitive.THR_JOIN
        )
        assert cm.op_cost(Primitive.THR_YIELD, bound=True) == cm.op_cost(
            Primitive.THR_YIELD
        )

    def test_unknown_primitive_costs_nothing(self):
        cm = CostModel(base_costs={})
        assert cm.op_cost(Primitive.MUTEX_LOCK) == 0

    def test_scaled(self):
        cm = CostModel().scaled(2.0)
        assert cm.op_cost(Primitive.MUTEX_LOCK) == 2 * CostModel().op_cost(
            Primitive.MUTEX_LOCK
        )
        assert cm.thread_switch_us == 2 * CostModel().thread_switch_us

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().scaled(-1)

    def test_free_model_all_zero(self):
        cm = costs_mod.free()
        for prim in Primitive:
            assert cm.op_cost(prim) == 0
            assert cm.op_cost(prim, bound=True) == 0

    @given(st.sampled_from(list(Primitive)), st.booleans())
    def test_costs_never_negative(self, prim, bound):
        assert CostModel().op_cost(prim, bound=bound) >= 0


class TestDispatchTable:
    def test_classic_has_60_levels(self):
        table = DispatchTable.classic()
        for level in range(TS_LEVELS):
            assert table.quantum_us(level) > 0

    def test_classic_quantum_shape(self):
        # 200 ms at the bottom, 20 ms at the top — lower priority gets
        # longer slices, the classic Solaris TS shape
        table = DispatchTable.classic()
        assert table.quantum_us(0) == 200 * US_PER_MS
        assert table.quantum_us(59) == 20 * US_PER_MS

    def test_quantum_monotone_nonincreasing(self):
        table = DispatchTable.classic()
        quanta = [table.quantum_us(lv) for lv in range(TS_LEVELS)]
        assert all(a >= b for a, b in zip(quanta, quanta[1:]))

    def test_expiry_demotes(self):
        table = DispatchTable.classic()
        assert table.after_quantum_expiry(29) == 19
        assert table.after_quantum_expiry(5) == 0  # floored

    def test_sleep_boosts(self):
        table = DispatchTable.classic()
        assert table.after_sleep(29) == 39
        assert table.after_sleep(59) == 59  # capped

    def test_starvation_boosts(self):
        table = DispatchTable.classic()
        assert table.after_starvation(10) == 20

    def test_levels_clamped(self):
        table = DispatchTable.classic()
        assert table.quantum_us(-5) == table.quantum_us(0)
        assert table.quantum_us(999) == table.quantum_us(59)

    def test_initial_level_mid_table(self):
        assert 0 <= DispatchTable.initial_level() < TS_LEVELS

    def test_fixed_quantum_table(self):
        table = DispatchTable.fixed_quantum(10_000)
        for level in (0, 29, 59):
            assert table.quantum_us(level) == 10_000
            assert table.after_quantum_expiry(level) == level
            assert table.after_sleep(level) == level

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            DispatchTable([])

    def test_tables_compare_and_hash_by_rows(self):
        classic = DispatchTable.classic()
        assert classic == DispatchTable.classic()
        assert hash(classic) == hash(DispatchTable.classic())
        assert classic == DispatchTable.custom(list(classic.entries()))
        assert classic != DispatchTable.fixed_quantum(10_000)
        assert DispatchTable.fixed_quantum(10_000) == DispatchTable.fixed_quantum(10_000)
        assert DispatchTable.fixed_quantum(10_000) != DispatchTable.fixed_quantum(20_000)

    def test_classic_tables_share_their_rows(self):
        assert DispatchTable.classic().entries() is DispatchTable.classic().entries()

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            DispatchEntry(quantum_us=0, tqexp=0, slpret=0, maxwait_us=0, lwait=0)
        with pytest.raises(ValueError):
            DispatchEntry(quantum_us=1, tqexp=99, slpret=0, maxwait_us=0, lwait=0)


class TestConfigEquality:
    """Configurations built apart compare by value, as their fingerprints do."""

    def test_equal_configs_built_apart_are_equal(self):
        from repro.core.config import SimConfig
        from repro.jobs.fingerprint import config_fingerprint

        a, b = SimConfig(cpus=1), SimConfig(cpus=1)
        assert a == b and config_fingerprint(a) == config_fingerprint(b)
        assert SimConfig(cpus=4, scheduler="cfs") == SimConfig(cpus=4, scheduler="cfs")
        assert a != SimConfig(cpus=2)
        assert a != SimConfig(cpus=1, dispatch=DispatchTable.fixed_quantum(10_000))

    def test_results_of_one_plan_under_equal_configs_are_equal(self):
        from repro import record_program
        from repro.core.config import SimConfig
        from repro.core.predictor import compile_trace
        from repro.core.simulator import Simulator
        from tests.conftest import make_prodcons_program

        plan = compile_trace(record_program(make_prodcons_program()).trace)
        first = Simulator(SimConfig(cpus=2)).run_replay(plan)
        second = Simulator(SimConfig(cpus=2)).run_replay(plan)
        assert first.config is not second.config
        assert first == second
