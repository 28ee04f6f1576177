"""Tests for the Visualizer: graphs, zoom, compression, inspection,
rendering."""

import pytest

from repro import SimConfig, predict, record_program, simulate_program
from repro.core.errors import VisualizationError
from repro.core.events import Primitive
from repro.core.ids import SyncObjectId, ThreadId
from repro.core.result import SegmentKind
from repro.program import ops as op
from repro.program.program import Program
from repro.visualizer import (
    EventInspector,
    FlowGraph,
    ParallelismGraph,
    ZoomState,
    render_ascii,
    render_flow_ascii,
    render_parallelism_ascii,
    render_svg,
    save_svg,
    style_for,
)
from repro.visualizer.symbols import Shape
from tests.conftest import make_fig2_program, make_mutex_program


@pytest.fixture(scope="module")
def fig2_result():
    run = record_program(make_fig2_program(work_us=10_000))
    return predict(run.trace, SimConfig(cpus=2))


@pytest.fixture(scope="module")
def mutex_result():
    run = record_program(make_mutex_program(nthreads=3, iters=3))
    return predict(run.trace, SimConfig(cpus=4))


class TestParallelismGraph:
    def test_counts_match_machine(self, fig2_result):
        graph = ParallelismGraph.from_result(fig2_result)
        assert graph.max_running() <= 2  # 2 CPUs
        assert graph.max_running() == 2  # both workers overlap

    def test_step_function_query(self, fig2_result):
        graph = ParallelismGraph.from_result(fig2_result)
        mid = fig2_result.makespan_us // 2
        point = graph.at(mid)
        assert point.running + point.runnable >= 1

    def test_average_between_bounds(self, fig2_result):
        graph = ParallelismGraph.from_result(fig2_result)
        assert 0 < graph.average_running() <= 2

    def test_runnable_band_appears_when_threads_starve(self):
        # 3 workers on 1 CPU: two are runnable while one runs
        run = record_program(make_mutex_program(nthreads=3, iters=2))
        res = predict(run.trace, SimConfig(cpus=1))
        graph = ParallelismGraph.from_result(res)
        assert graph.average_runnable() > 0

    def test_window_crop(self, fig2_result):
        graph = ParallelismGraph.from_result(fig2_result)
        mid = fig2_result.makespan_us // 2
        sub = graph.window(mid, fig2_result.makespan_us)
        assert sub.points[0].time_us == mid
        assert sub.end_us == fig2_result.makespan_us

    def test_bad_window_rejected(self, fig2_result):
        graph = ParallelismGraph.from_result(fig2_result)
        with pytest.raises(VisualizationError):
            graph.window(100, 50)

    def test_bottleneck_intervals_cover_serial_parts(self, fig2_result):
        graph = ParallelismGraph.from_result(fig2_result)
        intervals = graph.bottleneck_intervals(max_running=1)
        # thread creation at the start is serial
        assert intervals and intervals[0][0] == 0

    def test_empty_result(self):
        # an empty main still pays its thr_exit cost, so at most one
        # thread ever runs
        res = simulate_program(Program("e", lambda ctx: iter(())), SimConfig())
        graph = ParallelismGraph.from_result(res)
        assert graph.max_running() <= 1
        assert graph.average_runnable() == 0


class TestFlowGraph:
    def test_rows_ordered_by_tid(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        assert flow.thread_ids() == sorted(flow.thread_ids())

    def test_row_labels(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        row = flow.row_for(ThreadId(4))
        assert row.label == "T4"
        assert row.func_name == "thread"

    def test_unknown_row_rejected(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        with pytest.raises(VisualizationError):
            flow.row_for(ThreadId(99))

    def test_segments_contiguous_per_row(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        for row in flow.rows:
            for a, b in zip(row.segments, row.segments[1:]):
                assert a.end_us <= b.start_us or a.end_us == b.start_us

    def test_window_crops_segments(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        mid = fig2_result.makespan_us // 2
        sub = flow.window(mid, fig2_result.makespan_us)
        for row in sub.rows:
            for seg in row.segments:
                assert seg.start_us >= mid

    def test_bad_window_rejected(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        with pytest.raises(VisualizationError):
            flow.window(10, 10)

    def test_automatic_compression_drops_finished_threads(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        # in the tail of the run only main is active (joins/exit)
        tail = flow.compressed(
            window_start_us=fig2_result.makespan_us - 10,
            window_end_us=fig2_result.makespan_us,
        )
        assert tail.thread_ids() == [1]

    def test_manual_thread_selection(self, fig2_result):
        flow = FlowGraph.from_result(fig2_result)
        chosen = flow.compressed(keep=[4, 5])
        assert chosen.thread_ids() == [4, 5]


class TestZoom:
    def test_zoom_in_keeps_left_edge(self):
        z = ZoomState(0, 3000)
        z.zoom_in(1.5)
        assert z.view_start_us == 0
        assert z.view_end_us == 2000

    def test_zoom_factor_3(self):
        z = ZoomState(0, 3000)
        z.zoom_in(3.0)
        assert z.span_us == 1000

    def test_arbitrary_magnification_by_steps(self):
        z = ZoomState(0, 3000)
        z.zoom_in(1.5)
        z.zoom_in(3.0)
        assert z.magnification == pytest.approx(4.5, rel=0.01)

    def test_only_paper_factors_allowed(self):
        z = ZoomState(0, 1000)
        with pytest.raises(VisualizationError):
            z.zoom_in(2.0)

    def test_zoom_out_clamped_to_full_range(self):
        z = ZoomState(0, 1000)
        z.zoom_out(3.0)
        assert (z.view_start_us, z.view_end_us) == (0, 1000)

    def test_min_span_one_microsecond(self):
        z = ZoomState(0, 2)
        for _ in range(10):
            z.zoom_in(3.0)
        assert z.span_us >= 1

    def test_select_interval(self):
        z = ZoomState(0, 1000)
        z.select_interval(200, 300)
        assert (z.view_start_us, z.view_end_us) == (200, 300)

    def test_select_outside_range_rejected(self):
        z = ZoomState(0, 1000)
        with pytest.raises(VisualizationError):
            z.select_interval(500, 2000)

    def test_scroll_to_center(self):
        z = ZoomState(0, 1000)
        z.select_interval(0, 100)
        z.scroll_to_center(500)
        assert z.view_start_us == 450 and z.view_end_us == 550

    def test_scroll_clamped_at_edges(self):
        z = ZoomState(0, 1000)
        z.select_interval(0, 100)
        z.scroll_to_center(990)
        assert z.view_end_us == 1000

    def test_reset(self):
        z = ZoomState(0, 1000)
        z.zoom_in(3.0)
        z.reset()
        assert z.span_us == 1000

    def test_empty_range_rejected(self):
        with pytest.raises(VisualizationError):
            ZoomState(5, 5)


class TestInspector:
    def test_popup_fields(self, fig2_result):
        insp = EventInspector(fig2_result)
        create_idx = next(
            ev.index
            for ev in fig2_result.events
            if ev.primitive is Primitive.THR_CREATE
        )
        info = insp.popup(create_idx)
        assert info.tid == 1
        assert info.func_name == "main"
        assert info.thread_work_us > 0
        assert info.source is not None
        text = info.describe()
        assert "thr_create" in text and "source:" in text

    def test_popup_bad_index(self, fig2_result):
        with pytest.raises(VisualizationError):
            EventInspector(fig2_result).popup(10_000)

    def test_next_prev_same_thread(self, fig2_result):
        insp = EventInspector(fig2_result)
        first_main = next(
            ev for ev in fig2_result.events if int(ev.tid) == 1
        )
        nxt = insp.next_event(first_main.index)
        assert nxt is not None and int(nxt.tid) == 1
        back = insp.prev_event(nxt.index)
        assert back.index == first_main.index

    def test_next_similar_follows_same_object(self, mutex_result):
        insp = EventInspector(mutex_result)
        m = SyncObjectId("mutex", "m")
        first = next(ev for ev in mutex_result.events if ev.obj == m)
        nxt = insp.next_similar(first.index)
        assert nxt is not None and nxt.obj == m
        # and back: the paper's step to the previous similar event (§3.3)
        assert insp.prev_similar(nxt.index) == first
        assert insp.prev_similar(first.index) is None

    def test_all_on_object_time_ordered(self, mutex_result):
        insp = EventInspector(mutex_result)
        ops = insp.all_on_object(SyncObjectId("mutex", "m"))
        assert len(ops) >= 2 * 3 * 3  # lock+unlock per iteration per thread
        times = [ev.start_us for ev in ops]
        assert times == sorted(times)

    def test_find_at_nearest(self, fig2_result):
        insp = EventInspector(fig2_result)
        ev = insp.find_at(ThreadId(4), 0)
        assert ev is not None and int(ev.tid) == 4

    def test_source_position_for_editor(self, fig2_result):
        insp = EventInspector(fig2_result)
        create_idx = next(
            ev.index
            for ev in fig2_result.events
            if ev.primitive is Primitive.THR_CREATE
        )
        path, line = insp.source_position(create_idx)
        assert path.endswith(".py") and line > 0


class TestSymbols:
    def test_semaphores_are_red_arrows(self):
        # §3.3: "all semaphores are shown in red, and the primitives
        # sema_post and sema_wait are represented as an upward and a
        # downward facing arrow"
        post = style_for(Primitive.SEMA_POST)
        wait = style_for(Primitive.SEMA_WAIT)
        assert post.shape is Shape.ARROW_UP
        assert wait.shape is Shape.ARROW_DOWN
        assert post.color == wait.color  # both red

    def test_every_primitive_has_a_style(self):
        for prim in Primitive:
            style = style_for(prim)
            assert style.char and style.color.startswith("#")

    def test_object_families_share_colour(self):
        assert (
            style_for(Primitive.MUTEX_LOCK).color
            == style_for(Primitive.MUTEX_UNLOCK).color
        )
        assert (
            style_for(Primitive.MUTEX_LOCK).color
            != style_for(Primitive.SEMA_WAIT).color
        )


class TestRenderers:
    def test_svg_well_formed(self, fig2_result):
        svg = render_svg(fig2_result, title="test")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<") == svg.count(">")

    def test_svg_contains_thread_labels(self, fig2_result):
        svg = render_svg(fig2_result)
        assert "T1 main" in svg and "T4 thread" in svg

    def test_svg_window(self, fig2_result):
        svg = render_svg(
            fig2_result, window_start_us=0, window_end_us=fig2_result.makespan_us // 2
        )
        assert "<svg" in svg

    def test_save_svg(self, fig2_result, tmp_path):
        path = save_svg(fig2_result, tmp_path / "out.svg")
        assert path.exists() and path.stat().st_size > 500

    def test_ascii_flow_contains_rows(self, fig2_result):
        text = render_flow_ascii(fig2_result, width=60)
        lines = text.splitlines()
        assert len(lines) == 3  # T1, T4, T5
        assert lines[0].startswith("T1 main")
        assert "=" in lines[1]  # worker runs

    def test_ascii_parallelism_peak_labelled(self, fig2_result):
        text = render_parallelism_ascii(fig2_result, width=60)
        assert "peak 2" in text

    def test_ascii_combined(self, fig2_result):
        text = render_ascii(fig2_result, width=60)
        assert "parallelism" in text and "T1 main" in text

    def test_blocked_time_has_no_line(self):
        # a thread blocked on a semaphore for the whole run shows a gap
        def waiter(ctx):
            yield op.SemaWait("s")

        def main(ctx):
            t = yield op.ThrCreate(waiter, name="waiter")
            yield op.Compute(100_000)
            yield op.SemaPost("s")
            yield op.ThrJoin(t)

        res = simulate_program(Program("block", main), SimConfig(cpus=2))
        text = render_flow_ascii(res, width=60)
        waiter_line = [l for l in text.splitlines() if "waiter" in l][0]
        bar = waiter_line.split("|")[1]
        assert bar.count(" ") > 40  # mostly blocked: mostly gap


class TestVectorisedSampling:
    def test_sample_matches_scalar_at(self, fig2_result):
        import numpy as np

        graph = ParallelismGraph.from_result(fig2_result)
        times = np.linspace(0, fig2_result.makespan_us, 200).astype(np.int64)
        running, runnable = graph.sample(times)
        for t, r, q in zip(times.tolist(), running.tolist(), runnable.tolist()):
            point = graph.at(t)
            assert (r, q) == (point.running, point.runnable)

    def test_sample_before_first_breakpoint_is_zero(self, fig2_result):
        import numpy as np

        graph = ParallelismGraph.from_result(fig2_result)
        running, runnable = graph.sample(np.array([-5], dtype=np.int64))
        assert running[0] == 0 and runnable[0] == 0
