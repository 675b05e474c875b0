"""Tests for the observability layer (repro.observe)."""

import json
import sys
import threading

import pytest

from repro import compile_sources, observe, pack_archive, unpack_archive
from repro.pack import PackOptions
from repro.observe import (
    HISTOGRAM_FIELDS,
    Histogram,
    Metrics,
    NULL_RECORDER,
    Recorder,
    Trace,
)

SOURCE = """
package obs;

public class Sample {
    int counter;

    public int bump(int by) {
        counter = counter + by;
        return counter;
    }

    public int spin(int n) {
        int total = 0;
        for (int i = 0; i < n; i = i + 1) {
            total = total + bump(i);
        }
        return total;
    }
}
"""


@pytest.fixture(scope="module")
def classfiles():
    classes = compile_sources([SOURCE])
    return [classes[name] for name in sorted(classes)]


#: The interpreted reference backend: its MTF coders ride on the
#: skiplist, so the skiplist.* metrics asserted below exist.  The
#: compiled backend's list-backed MTF core emits the same bytes but
#: no skiplist metrics (see docs/PERFORMANCE.md).
INTERPRETED = PackOptions(codec_backend="interpreted")


@pytest.fixture
def recorded(classfiles):
    with observe.recording() as recorder:
        packed = pack_archive(classfiles, INTERPRETED)
        unpack_archive(packed, INTERPRETED)
    return recorder, packed


class TestTrace:
    def test_spans_nest(self):
        trace = Trace()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("inner2"):
                pass
        assert [s.name for s in trace.spans] == ["outer"]
        outer = trace.spans[0]
        assert [c.name for c in outer.children] == ["inner", "inner2"]
        assert outer.seconds >= outer.child_seconds() >= 0.0

    def test_sequential_spans_are_siblings(self):
        trace = Trace()
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        assert [s.name for s in trace.spans] == ["a", "b"]

    def test_find_descends(self):
        trace = Trace()
        with trace.span("a"):
            with trace.span("b"):
                with trace.span("c"):
                    pass
        assert trace.find("c") is not None
        assert trace.find("missing") is None

    def test_attrs_recorded(self):
        trace = Trace()
        with trace.span("phase", classes=3):
            pass
        assert trace.spans[0].attrs == {"classes": 3}
        assert trace.spans[0].to_dict()["attrs"] == {"classes": 3}

    def test_render_mentions_every_span(self):
        trace = Trace()
        with trace.span("alpha"):
            with trace.span("beta"):
                pass
        text = trace.render()
        assert "alpha" in text and "beta" in text and "ms" in text

    def test_pipeline_spans_nest_correctly(self, recorded):
        recorder, _ = recorded
        trace = recorder.trace
        pack = next(s for s in trace.spans if s.name == "pack")
        names = [child.name for child in pack.children]
        assert names == ["ir.build", "count", "encode", "serialize"]
        serialize = pack.children[-1]
        assert [c.name for c in serialize.children] == \
            ["zlib.whole", "zlib.per_stream"]
        unpack = next(s for s in trace.spans if s.name == "unpack")
        assert [c.name for c in unpack.children] == \
            ["inflate", "decode", "reconstruct"]


class TestDisabled:
    def test_null_recorder_is_default(self):
        assert observe.current() is NULL_RECORDER
        assert not observe.enabled()

    def test_disabled_run_records_nothing(self, classfiles):
        # No recorder installed: the null recorder must stay empty
        # (it cannot even hold entries — metrics is None).
        assert observe.current().metrics is None
        packed = pack_archive(classfiles)
        unpack_archive(packed)
        assert observe.current() is NULL_RECORDER
        assert NULL_RECORDER.metrics is None
        assert NULL_RECORDER.trace is None

    def test_null_span_is_reusable_noop(self):
        span = NULL_RECORDER.span("anything", attr=1)
        with span:
            with NULL_RECORDER.span("nested"):
                pass
        assert span is NULL_RECORDER.span("other")

    def test_recording_restores_previous(self, classfiles):
        with observe.recording() as outer:
            with observe.recording() as inner:
                assert observe.current() is inner
            assert observe.current() is outer
        assert observe.current() is NULL_RECORDER

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with observe.recording():
                raise RuntimeError("boom")
        assert observe.current() is NULL_RECORDER

    def test_profile_noop_when_disabled(self):
        with observe.profile("idle"):
            pass
        assert observe.current() is NULL_RECORDER


class TestMetrics:
    def test_counters_and_tallies(self):
        metrics = Metrics()
        metrics.count("x")
        metrics.count("x", 2)
        metrics.tally("g", "a", 10)
        metrics.tally("g", "a", 5)
        assert metrics.counters["x"] == 3
        assert metrics.tallies["g"]["a"] == 15

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in [0, 0, 1, 2, 3, 8, 100]:
            histogram.observe(value)
        summary = histogram.to_dict()
        assert summary["count"] == 7
        assert summary["min"] == 0 and summary["max"] == 100
        assert summary["buckets"]["0"] == 2
        assert summary["buckets"]["1"] == 1
        assert summary["buckets"]["2-3"] == 2
        assert summary["buckets"]["8-15"] == 1
        assert summary["buckets"]["64-127"] == 1
        assert summary["p50"] in (1, 2)
        assert summary["p99"] == 100

    def test_pipeline_reports_expected_metrics(self, recorded):
        recorder, packed = recorded
        metrics = recorder.metrics
        counters = metrics.counters
        assert counters["pack.classes"] == 1
        assert counters["unpack.classes"] == 1
        assert counters["bytecode.instructions"] > 0
        assert counters["stack_state.applied"] > 0
        assert counters["mtf.new"] > 0
        assert counters["skiplist.inserts"] > 0
        # Queue-depth histograms exist for the reference kinds.
        depth_names = [name for name in metrics.histogram_names()
                       if name.startswith("mtf.queue_depth.")]
        assert depth_names, metrics.histogram_names()
        assert "skiplist.node_height" in metrics.histograms
        # Byte tallies cover every written stream and sum sensibly.
        raw = metrics.tallies["stream.raw_bytes"]
        zlibbed = metrics.tallies["stream.zlib_bytes"]
        assert set(zlibbed) == set(raw)
        assert metrics.tallies["archive"]["packed_bytes"] == len(packed)


class TestJsonSchema:
    def test_schema_is_stable(self, recorded):
        recorder, _ = recorded
        doc = observe.to_json(recorder)
        assert doc["schema"] == "repro.observe/1"
        assert set(doc) == {"schema", "trace", "counters",
                            "histograms", "tallies"}
        for entry in doc["trace"]:
            assert {"name", "seconds"} <= set(entry)
        for summary in doc["histograms"].values():
            assert tuple(summary) == HISTOGRAM_FIELDS
        # Round-trips through json.
        parsed = json.loads(json.dumps(doc))
        assert parsed["counters"] == doc["counters"]

    def test_dump_json_writes_file(self, recorded, tmp_path):
        recorder, _ = recorded
        path = tmp_path / "metrics.json"
        text = observe.dump_json(recorder, str(path))
        assert json.loads(path.read_text()) == json.loads(text)

    def test_stats_section(self, classfiles, tmp_path):
        from repro import pack_archive_with_stats

        with observe.recording() as recorder:
            _, stats = pack_archive_with_stats(classfiles)
        doc = observe.to_json(recorder, stats=stats)
        assert doc["streams"]["total"] == stats.total
        assert doc["streams"]["by_stream"] == stats.by_stream
        assert doc["streams"]["by_category"] == stats.by_category


class TestProfile:
    def test_profile_records_span_and_histogram(self):
        with observe.recording() as recorder:
            with observe.profile("work"):
                sum(range(1000))
        assert recorder.trace.find("work") is not None
        assert "profile.work" in recorder.metrics.histograms

    def test_cprofile_collects_stats(self):
        with observe.cprofile() as prof:
            sum(range(1000))
        assert prof.stats is not None
        assert "function calls" in prof.report(limit=5)


class TestRoundtripUnderObservation:
    def test_observed_pack_bytes_identical(self, classfiles):
        """Recording must not perturb the wire format."""
        baseline = pack_archive(classfiles)
        with observe.recording():
            observed = pack_archive(classfiles)
        assert observed == baseline


class TestConcurrentPacks:
    def test_budgeted_packs_leave_recorder_installed(self):
        """Two budgeted packs on two threads, as a server runs them
        with ``workers=0``, must never swap the process's recorder: a
        poller sees only the installed one, and it is still installed
        afterwards.  Budgeted packs once ran a sizing replay that
        swapped in the null recorder and restored whatever it had
        found, so overlapping packs could leave the null recorder
        installed for good."""
        from repro.corpus import generate_shape
        from repro.jar.formats import strip_classes

        classes = strip_classes(generate_shape("const_heavy", classes=40))
        ordered = [classes[name] for name in sorted(classes)]
        options = PackOptions(memory_budget=4096)
        expected = pack_archive(ordered)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with observe.recording() as installed:
                seen = set()
                results = []
                done = threading.Event()

                def poll():
                    while not done.is_set():
                        seen.add(id(observe.current()))

                def pack_twice():
                    for _ in range(2):
                        results.append(pack_archive(ordered, options))

                poller = threading.Thread(target=poll)
                packers = [threading.Thread(target=pack_twice)
                           for _ in range(2)]
                poller.start()
                for thread in packers:
                    thread.start()
                for thread in packers:
                    thread.join(timeout=120)
                done.set()
                poller.join(timeout=10)
                assert not any(t.is_alive() for t in packers + [poller])
                assert observe.current() is installed
        finally:
            sys.setswitchinterval(interval)
        assert seen == {id(installed)}
        assert results == [expected] * 4
