"""Unit and property tests for the log-file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LogFormatError
from repro.core.events import EventRecord, Phase, Primitive, SourceLocation, Status
from repro.core.ids import SyncObjectId, ThreadId
from repro.core.trace import Trace, TraceMeta
from repro.recorder import logfile


def simple_trace():
    m = SyncObjectId("mutex", "m")
    src = SourceLocation("dir with space/ex.c", 42, "main")
    records = [
        EventRecord(0, ThreadId(1), Phase.CALL, Primitive.START_COLLECT),
        EventRecord(10, ThreadId(1), Phase.CALL, Primitive.MUTEX_LOCK, obj=m, source=src),
        EventRecord(12, ThreadId(1), Phase.RET, Primitive.MUTEX_LOCK, obj=m, status=Status.OK),
        EventRecord(20, ThreadId(1), Phase.CALL, Primitive.THR_EXIT),
    ]
    meta = TraceMeta(program="demo", thread_functions={4: "my worker"}, probe_overhead_us=15)
    return Trace(records, meta)


class TestRoundTrip:
    def test_dumps_loads_records(self):
        trace = simple_trace()
        back = logfile.loads(logfile.dumps(trace))
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            assert a == b

    def test_meta_roundtrip(self):
        trace = simple_trace()
        back = logfile.loads(logfile.dumps(trace))
        assert back.meta.program == "demo"
        assert back.meta.probe_overhead_us == 15
        assert back.meta.thread_functions == {4: "my worker"}

    def test_source_with_spaces_roundtrips(self):
        trace = simple_trace()
        back = logfile.loads(logfile.dumps(trace))
        src = back[1].source
        assert src is not None
        assert src.file == "dir with space/ex.c"
        assert src.line == 42

    def test_dump_load_file(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "demo.log"
        size = logfile.dump(trace, path)
        assert path.stat().st_size == size
        back = logfile.load(path)
        assert len(back) == len(trace)

    def test_header_present(self):
        text = logfile.dumps(simple_trace())
        assert text.startswith("# vppb-log 1\n")
        assert "# program: demo" in text

    def test_timestamps_are_seconds_with_us_resolution(self):
        # the format of the paper's fig. 2 listing
        text = logfile.dumps(simple_trace())
        assert "0.000010 T1 call mutex_lock" in text


class TestParseErrors:
    def test_missing_version(self):
        with pytest.raises(LogFormatError):
            logfile.loads("0.0 T1 call thr_exit\n")

    def test_unsupported_version(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 99\n")

    def test_bad_timestamp(self):
        with pytest.raises(LogFormatError) as ei:
            logfile.loads("# vppb-log 1\nxx T1 call thr_exit\n")
        assert ei.value.lineno == 2

    def test_bad_thread_id(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 1\n0.0 X1 call thr_exit\n")

    def test_unknown_phase(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 1\n0.0 T1 maybe thr_exit\n")

    def test_unknown_primitive(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 1\n0.0 T1 call warp_drive\n")

    def test_unknown_attribute(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 1\n0.0 T1 call thr_exit colour=red\n")

    def test_bad_object(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 1\n0.0 T1 call mutex_lock obj=nokind\n")

    def test_bad_status(self):
        with pytest.raises(LogFormatError):
            logfile.loads(
                "# vppb-log 1\n0.0 T1 call mutex_lock obj=mutex:m status=meh\n"
            )

    def test_too_few_fields(self):
        with pytest.raises(LogFormatError):
            logfile.loads("# vppb-log 1\n0.0 T1 call\n")

    def test_unknown_comment_tolerated(self):
        trace = logfile.loads("# vppb-log 1\n# future-field: zap\n")
        assert len(trace) == 0

    def test_blank_lines_tolerated(self):
        trace = logfile.loads("# vppb-log 1\n\n\n")
        assert len(trace) == 0


#: one thread locking one mutex twice from two source lines
_MEMO_LOG = """# vppb-log 1
# program: memo
0.000000 T1 call start_collect
0.000010 T1 call mutex_lock obj=mutex:m src=a.c|7|main
0.000012 T1 ret mutex_lock obj=mutex:m status=ok src=a.c|7|main
0.000020 T1 call mutex_unlock obj=mutex:m src=a.c|9|main
0.000022 T1 ret mutex_unlock obj=mutex:m status=ok src=a.c|9|main
"""


class TestTokenMemo:
    """Each parse decodes a repeated token once, and never memoises damage."""

    def test_repeated_tokens_decode_to_one_object_per_parse(self):
        first = logfile.loads(_MEMO_LOG)
        assert first[1].source is first[2].source
        assert first[1].obj is first[3].obj
        again = logfile.loads(_MEMO_LOG)
        assert again[1].source == first[1].source
        assert again[1].source is not first[1].source  # the memo lives for one parse

    @pytest.mark.parametrize(
        "good, bad, message, column",
        [
            ("src=a.c|9|main", "src=a.c|x|main", "bad src line number 'x'", 21),
            ("obj=mutex:m", "obj=:m", "bad object id ':m'", 34),
        ],
    )
    def test_token_damaged_on_two_lines(self, good, bad, message, column):
        lines = _MEMO_LOG.splitlines(keepends=True)
        text = "".join(lines[:5] + [line.replace(good, bad) for line in lines[5:]])
        assert text.count(bad) == 2
        with pytest.raises(LogFormatError) as ei:
            logfile.loads(text)
        assert (ei.value.lineno, ei.value.column, ei.value.message) == (6, column, message)

        from repro.recorder.salvage import salvage_loads

        repairs = salvage_loads(text).report.repairs
        assert [(r.kind, r.lineno, r.detail) for r in repairs] == [
            ("skipped-attribute", 6, message),
            ("skipped-attribute", 7, message),
        ]

    def test_damaged_tid_column_is_not_served_from_an_attribute(self):
        # "target=T4" is memoised as a thread id; a thread column holding
        # an attribute token must still be rejected
        text = (
            "# vppb-log 1\n"
            "0.000000 T1 call thr_join target=T4\n"
            "0.000001 obj=mutex:m call thr_exit\n"
        )
        with pytest.raises(LogFormatError) as ei:
            logfile.loads(text)
        assert ei.value.lineno == 3 and "bad thread id" in ei.value.message

    @pytest.mark.parametrize(
        "name",
        [
            "fft", "lu", "ocean", "prodcons", "prodcons-racy",
            "prodcons-tuned", "radix", "synthetic", "water",
        ],
    )
    def test_dumps_of_loads_is_identity_on_fixture_workloads(self, name):
        from repro import record_program
        from repro.workloads import get_workload

        trace = record_program(get_workload(name).make_program(4, 0.05)).trace
        text = logfile.dumps(trace)
        assert logfile.dumps(logfile.loads(text)) == text


# ---------------------------------------------------------------------------
# property-based round-trip over arbitrary records
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-."),
    min_size=1,
    max_size=8,
)

_objects = st.one_of(
    st.none(),
    st.builds(SyncObjectId, st.sampled_from(["mutex", "sema", "cond", "rwlock"]), _names),
)

_sources = st.one_of(
    st.none(),
    st.builds(
        SourceLocation,
        file=st.text(min_size=1, max_size=20).filter(lambda s: not s.isspace()),
        line=st.integers(min_value=1, max_value=10**6),
        function=st.text(max_size=10),
    ),
)

_records = st.builds(
    EventRecord,
    time_us=st.integers(min_value=0, max_value=10**10),
    tid=st.integers(min_value=1, max_value=500).map(ThreadId),
    phase=st.sampled_from(list(Phase)),
    primitive=st.sampled_from(list(Primitive)),
    obj=_objects,
    obj2=_objects,
    target=st.one_of(st.none(), st.integers(min_value=1, max_value=500).map(ThreadId)),
    arg=st.one_of(st.none(), st.integers(min_value=-(10**6), max_value=10**9)),
    status=st.one_of(st.none(), st.sampled_from(list(Status))),
    source=_sources,
)


class TestPropertyRoundTrip:
    @settings(max_examples=200)
    @given(st.lists(_records, max_size=20))
    def test_any_records_roundtrip(self, records):
        trace = Trace(records, validate=False)
        back = logfile.loads(logfile.dumps(trace), validate=False)
        assert list(back) == list(trace)
