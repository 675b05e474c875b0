"""Tests for memory-bounded packing: spill buffers, the residency
rule, streaming serialization/decoding, and the triage blob store.

The load-bearing property everywhere is *byte identity*: a budgeted
pack (any budget, either codec backend) must produce exactly the
bytes of the unbounded in-memory pack.
"""

import io
import pickle

import pytest
from hypothesis import given, strategies as st

from helpers import compile_shapes, compile_simple, compile_sink, \
    ordered_values
from repro.classfile.classfile import write_class
from repro.coding.streams import StreamSet
from repro.errors import ReproError, UnpackError
from repro.pack import (
    PackOptions,
    iter_unpack_archive,
    pack_archive,
    pack_archive_to,
    unpack_archive,
)
from repro.pack.spool import BlobMap, BlobStore, SpoolStreamSet


def _corpus():
    classes = {}
    classes.update(compile_simple())
    classes.update(compile_sink())
    classes.update(compile_shapes())
    return ordered_values(classes)


def _buffer(budget):
    return SpoolStreamSet(budget_bytes=budget).stream("s").buf


class TestSpoolBuffer:
    def test_spills_at_window(self):
        buf = _buffer(3)
        buf.extend(b"abc")
        assert buf.spilled == 0
        buf.append(ord("d"))  # goes over the budget -> flush
        assert buf.spilled == 4
        assert len(buf) == 4
        assert buf.getvalue() == b"abcd"

    def test_interleaved_reads_and_writes(self):
        buf = _buffer(1)
        buf.extend(b"0123")
        assert buf.getvalue() == b"0123"
        # chunks() moved the spill file's position; later writes must
        # still append, not clobber.
        buf.extend(b"45")
        assert buf.getvalue() == b"012345"
        assert buf.getvalue() == b"012345"  # re-iterable

    def test_large_window_stays_resident(self):
        buf = _buffer(1 << 20)
        buf.extend(b"x" * 1000)
        assert buf.spilled == 0
        assert buf.getvalue() == b"x" * 1000

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            SpoolStreamSet(budget_bytes=0)

    def test_close_resets(self):
        spool = SpoolStreamSet(budget_bytes=4)
        buf = spool.stream("s").buf
        buf.extend(b"abcdef")
        buf.extend(b"gh")
        assert (buf.spilled, spool.resident) == (6, 2)
        buf.close()
        assert len(buf) == 0
        assert spool.resident == 0


class TestResidency:
    """The spool's one rule: a write that takes the resident count over
    the budget flushes the largest resident window."""

    @given(budget=st.integers(min_value=1, max_value=64),
           writes=st.lists(st.tuples(st.sampled_from("abcd"),
                                     st.binary(max_size=40),
                                     st.booleans()),
                           max_size=60))
    def test_resident_bounded_after_every_write(self, budget, writes):
        base = StreamSet()
        spool = SpoolStreamSet(budget_bytes=budget)
        for name, data, bytewise in writes:
            base.stream(name).raw(data)
            buf = spool.stream(name).buf
            if bytewise:
                for value in data:
                    buf.append(value)
                    assert spool.resident <= budget
            else:
                buf.extend(data)
            assert spool.resident <= budget
            assert spool.resident == sum(
                spool.stream(n).buf.resident for n in spool.names())
        assert spool.raw_sizes() == base.raw_sizes()
        assert spool.serialize() == base.serialize()
        spool.close()

    def test_small_streams_fully_resident(self):
        spool = SpoolStreamSet(budget_bytes=2048)
        for i in range(100):
            spool.stream("big").raw(bytes(100))
            spool.stream("small").u8(i)
        assert spool.stream("small").buf.spilled == 0
        assert spool.stream("big").buf.spilled > 0
        assert spool.spool_stats()["spilled_streams"] == 1
        spool.close()

    def test_budget_covers_everything(self):
        spool = SpoolStreamSet(budget_bytes=1 << 20)
        for i in range(10):
            spool.stream(f"s{i}").raw(bytes(100 * i))
        assert spool.spool_stats()["spilled_bytes"] == 0
        assert spool.resident == 4500


def _fill(streams):
    streams.stream("a").uvarint(300)
    streams.stream("b").raw(b"hello world" * 50)
    streams.stream("a").svarint(-12345)
    streams.stream("c").u8(7)
    streams.stream("c").ranged(300, 1000)
    streams.stream("incompressible").raw(bytes(range(256)) * 2)


class TestSerializeIdentity:
    @pytest.mark.parametrize("budget", [1, 3, 17, 1 << 20])
    @pytest.mark.parametrize("compress", [True, False])
    def test_matches_in_memory(self, budget, compress):
        base = StreamSet()
        _fill(base)
        spool = SpoolStreamSet(budget_bytes=budget)
        _fill(spool)
        expected = base.serialize(compress=compress)
        assert spool.serialize(compress=compress) == expected
        out = io.BytesIO()
        written = spool.serialize_to(out, compress=compress)
        assert out.getvalue() == expected
        assert written == len(expected)

    def test_compressed_sizes_match(self):
        base = StreamSet()
        _fill(base)
        spool = SpoolStreamSet(budget_bytes=1)
        _fill(spool)
        assert spool.compressed_sizes() == base.compressed_sizes()
        assert spool.raw_sizes() == base.raw_sizes()

    def test_spool_stats_report_spills(self):
        spool = SpoolStreamSet(budget_bytes=64)
        _fill(spool)
        stats = spool.spool_stats()
        assert stats["spilled_streams"] >= 1
        assert stats["spilled_bytes"] > 0
        spool.close()


class TestBudgetedPackIdentity:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @pytest.mark.parametrize("scheme", ["mtf", "freq", "auto"])
    def test_byte_identical(self, backend, scheme):
        ordered = _corpus()
        base = PackOptions(scheme=scheme, codec_backend=backend)
        expected = pack_archive(ordered, base)
        for budget in (1, 512, 1 << 16, 1 << 24):
            budgeted = PackOptions(scheme=scheme, codec_backend=backend,
                                   memory_budget=budget)
            assert pack_archive(ordered, budgeted) == expected, \
                f"budget={budget} diverged"
            out = io.BytesIO()
            written = pack_archive_to(ordered, out, budgeted)
            assert out.getvalue() == expected
            assert written == len(expected)

    def test_pack_to_without_budget(self):
        ordered = _corpus()
        expected = pack_archive(ordered)
        out = io.BytesIO()
        assert pack_archive_to(ordered, out) == len(expected)
        assert out.getvalue() == expected

    def test_roundtrip_under_budget(self):
        ordered = _corpus()
        options = PackOptions(memory_budget=128)
        packed = pack_archive(ordered, options)
        unpacked = unpack_archive(packed, PackOptions())
        assert [c.name for c in unpacked] == [c.name for c in ordered]
        # Reconstruction canonicalizes class files, so compare at the
        # pack fixpoint: re-packing the unpacked classes (budgeted or
        # not) reproduces the archive bytes exactly.
        assert pack_archive(unpacked, PackOptions()) == packed
        assert pack_archive(unpacked, options) == packed

    def test_budget_validation(self):
        with pytest.raises(ReproError):
            PackOptions(memory_budget=0).validate()
        with pytest.raises(ReproError):
            PackOptions(memory_budget=-5).validate()
        PackOptions(memory_budget=1).validate()
        PackOptions(memory_budget=None).validate()


class TestIterUnpack:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_matches_whole_archive_unpack(self, backend):
        ordered = _corpus()
        packed = pack_archive(ordered, PackOptions())
        options = PackOptions(codec_backend=backend)
        whole = unpack_archive(packed, options)
        streamed = list(iter_unpack_archive(packed, options))
        assert [write_class(c) for c in streamed] == \
            [write_class(c) for c in whole]

    def test_header_errors_raise_eagerly(self):
        with pytest.raises(UnpackError):
            iter_unpack_archive(b"\x00\x00\x00\x00\x01\x00")

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_truncation_surfaces_from_next(self, backend):
        ordered = _corpus()
        packed = pack_archive(ordered, PackOptions(compress=False))
        options = PackOptions(compress=False, codec_backend=backend)
        with pytest.raises(UnpackError):
            # Cut deep inside the stream payloads: some classes may
            # decode, but the iterator must fail before yielding all
            # of them — never silently stop short.
            produced = list(iter_unpack_archive(
                packed[:len(packed) // 2], options))
            assert len(produced) < len(ordered)
            raise UnpackError("decoder accepted a truncated archive")


class TestBlobStore:
    def test_small_entries_stay_resident(self):
        store = BlobStore(window_bytes=100)
        ref = store.put(b"tiny")
        assert ref == b"tiny"
        assert store.spilled_entries == 0
        assert store.get(ref) == b"tiny"

    def test_large_entries_spill(self):
        store = BlobStore(window_bytes=4)
        first = store.put(b"abcdef")
        second = store.put(b"0123456789")
        assert store.spilled_entries == 2
        assert store.spilled_bytes == 16
        assert store.get(first) == b"abcdef"
        assert store.get(second) == b"0123456789"
        store.close()

    def test_blobmap_behaves_like_dict(self):
        store = BlobStore(window_bytes=4)
        blobs = BlobMap(store)
        blobs["a"] = b"12"
        blobs["b"] = b"abcdefgh"
        blobs["a"] = b"34"  # overwrite
        assert blobs == {"a": b"34", "b": b"abcdefgh"}
        assert {"a": b"34", "b": b"abcdefgh"} == blobs
        assert blobs != {"a": b"34"}
        assert sorted(blobs) == ["a", "b"]
        assert len(blobs) == 2
        assert blobs["b"] == b"abcdefgh"
        del blobs["a"]
        assert "a" not in blobs
        assert dict(blobs) == {"b": b"abcdefgh"}

    def test_spilled_blobmap_not_picklable(self):
        # Spilled maps hold a file handle; service jobs must dict()
        # them before crossing the process-pool boundary.
        store = BlobStore(window_bytes=1)
        blobs = BlobMap(store)
        blobs["a"] = b"spilled"
        with pytest.raises(Exception):
            pickle.dumps(blobs)
        assert pickle.loads(pickle.dumps(dict(blobs))) == \
            {"a": b"spilled"}


class TestTriageSpool:
    def _jar(self):
        from repro.jar.jarfile import classes_to_entries, make_jar

        serialized = {name: write_class(c)
                      for name, c in compile_simple().items()}
        return make_jar(classes_to_entries(serialized))

    def test_tiny_window_equivalent(self):
        from repro.triage import TriageBudget, triage_bytes

        jar = self._jar()
        resident = triage_bytes(jar, budget=TriageBudget())
        spooled = triage_bytes(
            jar, budget=TriageBudget(spool_window_bytes=1))
        assert spooled.classes == resident.classes
        assert spooled.resources == resident.resources

    def test_spool_window_validation(self):
        from repro.errors import TriageError
        from repro.triage import TriageBudget

        with pytest.raises(TriageError):
            TriageBudget(spool_window_bytes=0).validate()
        assert TriageBudget().validate().to_dict()[
            "spool_window_bytes"] > 0


class TestServiceIntegration:
    def test_canonical_options_ignore_budget(self):
        from repro.service.cache import cache_key, canonical_options

        base = PackOptions()
        budgeted = PackOptions(memory_budget=4096)
        assert canonical_options(base) == canonical_options(budgeted)
        classes = {"A": b"\xca\xfe\xba\xbe"}
        assert cache_key(classes, base) == cache_key(classes, budgeted)

    def test_options_from_query_parses_budget(self):
        from repro.service.http import options_from_query

        options, _, _ = options_from_query("memory_budget=4096")
        assert options.memory_budget == 4096
        options, _, _ = options_from_query("")
        assert options.memory_budget is None
        with pytest.raises(ValueError):
            options_from_query("memory_budget=lots")

    def test_pack_payload_reports_rss(self):
        from repro.service.jobs import PackJob
        from repro.service.workers import run_inline

        classes = compile_simple()
        serialized = {f"{name}.class": write_class(c)
                      for name, c in classes.items()}
        job = PackJob(job_id="rss", classes=serialized,
                      options=PackOptions(memory_budget=512))
        packed, raw, count, rss_kb = run_inline(job, attempt=1)
        assert packed == pack_archive(ordered_values(classes),
                                      PackOptions())
        assert count == len(serialized)
        assert raw > 0
        assert rss_kb > 0
