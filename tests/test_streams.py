"""Tests for the named-stream container."""

import pytest
from hypothesis import given, strategies as st

from repro.coding.streams import StreamReader, StreamSet, concat_streams
from repro.pack.spool import SpoolStreamSet


class TestStreamSet:
    def test_roundtrip_compressed(self):
        streams = StreamSet()
        streams.stream("a").uvarint(42)
        streams.stream("b").raw(b"hello world" * 10)
        streams.stream("a").svarint(-7)
        data = streams.serialize(compress=True)
        reader = StreamReader(data, compressed=True)
        cursor = reader.stream("a")
        assert cursor.uvarint() == 42
        assert cursor.svarint() == -7
        assert reader.stream("b").raw(110) == b"hello world" * 10

    def test_roundtrip_uncompressed(self):
        streams = StreamSet()
        streams.stream("x").u8(200)
        data = streams.serialize(compress=False)
        reader = StreamReader(data, compressed=False)
        assert reader.stream("x").u8() == 200

    def test_missing_stream_reads_as_empty(self):
        streams = StreamSet()
        streams.stream("present").u8(1)
        reader = StreamReader(streams.serialize())
        cursor = reader.stream("absent")
        assert cursor.at_end()
        with pytest.raises(ValueError):
            cursor.u8()

    def test_raw_sizes(self):
        streams = StreamSet()
        streams.stream("a").raw(b"xyz")
        assert streams.raw_sizes() == {"a": 3}

    def test_compressed_sizes_accounts_all_streams(self):
        streams = StreamSet()
        streams.stream("a").raw(b"x" * 1000)
        streams.stream("b").raw(b"y")
        sizes = streams.compressed_sizes()
        assert set(sizes) == {"a", "b"}
        assert sizes["a"] < 1000  # compressible

    def test_exhausted_cursor_raises(self):
        streams = StreamSet()
        streams.stream("a").u8(1)
        reader = StreamReader(streams.serialize())
        cursor = reader.stream("a")
        cursor.u8()
        with pytest.raises(ValueError):
            cursor.u8()
        with pytest.raises(ValueError):
            cursor.raw(1)

    def test_ranged_helpers(self):
        streams = StreamSet()
        streams.stream("a").ranged(300, 1000)
        reader = StreamReader(streams.serialize())
        assert reader.stream("a").ranged(1000) == 300

    @given(st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.binary(max_size=200), max_size=6))
    def test_arbitrary_payloads(self, payloads):
        streams = StreamSet()
        for name, payload in payloads.items():
            streams.stream(name).raw(payload)
        reader = StreamReader(streams.serialize())
        for name, payload in payloads.items():
            assert reader.stream(name).raw(len(payload)) == payload


def _write_battery(streams):
    """Values chosen to straddle varint width boundaries (0x7f/0x80,
    0x3fff/0x4000) and ranged escape thresholds."""
    cursor = streams.stream("varints")
    for value in (0, 1, 127, 128, 129, 16383, 16384, 1 << 32):
        cursor.uvarint(value)
    for value in (0, -1, 1, -64, 64, -8192, 8192):
        cursor.svarint(value)
    other = streams.stream("mixed")
    other.u8(0)
    other.u8(255)
    other.ranged(5, 10)        # one-byte form
    other.ranged(700, 1000)    # escape form
    other.raw(b"")
    other.raw(b"raw payload \x00\xff")
    # The compiled codec writes through ``stream.buf`` directly.
    other.buf.append(42)
    other.buf.extend(b"tail")


def _read_battery(reader):
    cursor = reader.stream("varints")
    values = [cursor.uvarint() for _ in range(8)]
    assert values == [0, 1, 127, 128, 129, 16383, 16384, 1 << 32]
    signed = [cursor.svarint() for _ in range(7)]
    assert signed == [0, -1, 1, -64, 64, -8192, 8192]
    assert cursor.at_end()
    other = reader.stream("mixed")
    assert other.u8() == 0
    assert other.u8() == 255
    assert other.ranged(10) == 5
    assert other.ranged(1000) == 700
    assert other.raw(0) == b""
    assert other.raw(14) == b"raw payload \x00\xff"
    assert other.u8() == 42
    assert other.raw(4) == b"tail"
    assert other.at_end()


class TestAdversarialChunking:
    """The reader must be agnostic to how the writer chunked: spool
    budgets of a few bytes put flush boundaries inside multibyte
    varints and raw payloads."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 5])
    @pytest.mark.parametrize("compress", [True, False])
    def test_boundary_straddling_values(self, budget, compress):
        spool = SpoolStreamSet(budget_bytes=budget)
        _write_battery(spool)
        assert spool.spool_stats()["spilled_streams"] == 2
        data = spool.serialize(compress=compress)
        _read_battery(StreamReader(data, compressed=compress))

    def test_flush_lands_inside_a_varint(self):
        spool = SpoolStreamSet(budget_bytes=2)
        spool.stream("v").uvarint(1 << 32)  # five bytes, one by one
        buf = spool.stream("v").buf
        assert (buf.spilled, buf.resident) == (3, 2)

    @pytest.mark.parametrize("compress", [True, False])
    def test_identical_to_unchunked(self, compress):
        base = StreamSet()
        _write_battery(base)
        spool = SpoolStreamSet(budget_bytes=1)
        _write_battery(spool)
        assert spool.serialize(compress=compress) == \
            base.serialize(compress=compress)

    def test_truncation_mid_spill_rejected(self):
        spool = SpoolStreamSet(budget_bytes=1)
        _write_battery(spool)
        data = spool.serialize(compress=False)
        for cut in (1, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError):
                StreamReader(data[:cut], compressed=False)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 40),
                    max_size=50))
    def test_arbitrary_varints_across_windows(self, values):
        base = StreamSet()
        spool = SpoolStreamSet(budget_bytes=1)
        for streams in (base, spool):
            cursor = streams.stream("v")
            for value in values:
                cursor.uvarint(value)
        data = spool.serialize(compress=False)
        assert data == base.serialize(compress=False)
        cursor = StreamReader(data, compressed=False).stream("v")
        assert [cursor.uvarint() for _ in values] == values


class TestConcatStreams:
    def test_concat_matches_reader(self):
        data = concat_streams([("a", b"one"), ("b", b"two")])
        reader = StreamReader(data, compressed=False)
        assert reader.stream("a").raw(3) == b"one"
        assert reader.stream("b").raw(3) == b"two"

    def test_truncated_container_rejected(self):
        data = concat_streams([("a", b"12345")])
        with pytest.raises(ValueError):
            StreamReader(data[:-2], compressed=False)
