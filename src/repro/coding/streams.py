"""Named byte-stream containers for the packed wire format.

The packed format (Sections 4, 7 and 8 of the paper) separates
dissimilar data into independent streams — opcodes, register numbers,
integer constants, branch offsets, each kind of constant-pool
reference, string lengths, string characters — and compresses each with
zlib.  :class:`StreamSet` is the writer side; :class:`StreamReader`
is the reader side.

The container layout is::

    uvarint  stream_count
    repeat stream_count times:
        uvarint  name_length ; name bytes (UTF-8)
        uvarint  payload_length ; payload bytes

Payloads are raw zlib streams (no 18-byte gzip header/trailer, matching
the paper's measurement methodology) unless compression is disabled.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Tuple

from ..observe import recorder as _observe
from .varint import (
    read_ranged,
    read_svarint,
    read_uvarint,
    write_ranged,
    write_svarint,
    write_uvarint,
)


class StreamPort:
    """The port protocol the codec driver targets.

    A port is anything with a ``stream(name)`` method returning an
    object that speaks the integer-codec vocabulary (``u8``,
    ``uvarint``, ``svarint``, ``ranged``, ``raw``).  Three ports
    exist: :class:`StreamSet` (writes), :class:`StreamReader`
    (reads), and :class:`NullStreamSet` (discards — the counting
    pass).  Sharing one vocabulary is what lets a single codec spec
    drive all three modes.
    """

    def stream(self, name: str):
        raise NotImplementedError


class NullStream:
    """A write-shaped stream that discards everything."""

    __slots__ = ()

    def __len__(self) -> int:
        return 0

    def u8(self, value: int) -> None:
        pass

    def uvarint(self, value: int) -> None:
        pass

    def svarint(self, value: int) -> None:
        pass

    def ranged(self, value: int, n: int) -> None:
        pass

    def raw(self, data: bytes) -> None:
        pass


NULL_STREAM = NullStream()


class NullStreamSet(StreamPort):
    """The counting pass's port: every stream is the null stream."""

    def stream(self, name: str) -> NullStream:
        return NULL_STREAM


class StreamWriter:
    """An append-only byte stream with integer-codec helpers."""

    def __init__(self, name: str):
        self.name = name
        self.buf = bytearray()

    def __len__(self) -> int:
        return len(self.buf)

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError(f"u8 out of range: {value}")
        self.buf.append(value)

    def uvarint(self, value: int) -> None:
        write_uvarint(self.buf, value)

    def svarint(self, value: int) -> None:
        write_svarint(self.buf, value)

    def ranged(self, value: int, n: int) -> None:
        write_ranged(self.buf, value, n)

    def raw(self, data: bytes) -> None:
        self.buf.extend(data)

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class StreamCursor:
    """A read cursor over one decoded stream."""

    def __init__(self, name: str, data: bytes):
        self.name = name
        self.data = data
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise ValueError(f"stream {self.name!r} exhausted")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def uvarint(self) -> int:
        value, self.pos = read_uvarint(self.data, self.pos)
        return value

    def svarint(self) -> int:
        value, self.pos = read_svarint(self.data, self.pos)
        return value

    def ranged(self, n: int) -> int:
        value, self.pos = read_ranged(self.data, self.pos, n)
        return value

    def raw(self, length: int) -> bytes:
        if self.pos + length > len(self.data):
            raise ValueError(f"stream {self.name!r} exhausted")
        data = self.data[self.pos:self.pos + length]
        self.pos += length
        return data


class StreamSet(StreamPort):
    """An ordered collection of named streams (writer side)."""

    def __init__(self):
        self._streams: Dict[str, StreamWriter] = {}

    def stream(self, name: str) -> StreamWriter:
        """Get or create the stream called ``name``."""
        writer = self._streams.get(name)
        if writer is None:
            writer = StreamWriter(name)
            self._streams[name] = writer
        return writer

    def names(self) -> List[str]:
        return list(self._streams)

    def raw_sizes(self) -> Dict[str, int]:
        """Uncompressed byte count of every stream."""
        return {name: len(w) for name, w in self._streams.items()}

    MODE_RAW = 0
    MODE_WHOLE = 1
    MODE_PER_STREAM = 2

    def _frame(self, transform=None) -> bytes:
        """Concatenate streams with name/length headers.

        With a ``transform``, each payload is passed through it and a
        flag byte records whether the transformed (1) or original (0)
        payload was kept — per-stream best-of, so incompressible
        streams (4 raw float bytes, say) never pay zlib overhead.
        """
        out = bytearray()
        write_uvarint(out, len(self._streams))
        for name, writer in self._streams.items():
            payload = writer.getvalue()
            flag = None
            if transform is not None:
                transformed = transform(payload)
                if len(transformed) < len(payload):
                    payload = transformed
                    flag = 1
                else:
                    flag = 0
            name_bytes = name.encode("utf-8")
            write_uvarint(out, len(name_bytes))
            out.extend(name_bytes)
            if flag is not None:
                out.append(flag)
            write_uvarint(out, len(payload))
            out.extend(payload)
        return bytes(out)

    def serialize(self, compress: bool = True, level: int = 9) -> bytes:
        """Serialize all streams into one mode-tagged byte string.

        Two compressed layouts exist: *whole* (concatenate all streams,
        one zlib pass — wins on small archives, where per-stream
        headers dominate) and *per-stream* (zlib each stream — wins on
        large archives, where independent contexts help).  Following
        the paper's suggestion of trying several encodings and keeping
        the best, the compressor emits whichever is smaller; a leading
        mode byte tells the decoder.
        """
        recorder = _observe.current()
        if not compress:
            return bytes([self.MODE_RAW]) + self._frame()
        with recorder.span("zlib.whole"):
            whole = zlib.compress(self._frame(), level)
        with recorder.span("zlib.per_stream"):
            per_stream = self._frame(lambda p: zlib.compress(p, level))
        metrics = recorder.metrics
        if metrics is not None:
            metrics.tally("zlib", "whole_bytes", len(whole))
            metrics.tally("zlib", "per_stream_bytes", len(per_stream))
            metrics.count("zlib.mode.whole" if len(whole) <= len(per_stream)
                          else "zlib.mode.per_stream")
        if len(whole) <= len(per_stream):
            return bytes([self.MODE_WHOLE]) + whole
        return bytes([self.MODE_PER_STREAM]) + per_stream

    def compressed_sizes(self, level: int = 9) -> Dict[str, int]:
        """Per-stream zlib-compressed sizes (for size accounting)."""
        return {
            name: len(zlib.compress(w.getvalue(), level))
            for name, w in self._streams.items()
        }


class StreamReader(StreamPort):
    """Deserialized view of a :class:`StreamSet` container."""

    def __init__(self, data: bytes, compressed: bool = True):
        self._cursors: Dict[str, StreamCursor] = {}
        if not data:
            raise ValueError("empty stream container")
        mode = data[0]
        data = data[1:]
        if mode == StreamSet.MODE_WHOLE:
            data = zlib.decompress(data)
        elif mode not in (StreamSet.MODE_RAW, StreamSet.MODE_PER_STREAM):
            raise ValueError(f"unknown stream container mode {mode}")
        per_stream = mode == StreamSet.MODE_PER_STREAM
        pos = 0
        count, pos = read_uvarint(data, pos)
        for _ in range(count):
            name_len, pos = read_uvarint(data, pos)
            name = data[pos:pos + name_len].decode("utf-8")
            pos = pos + name_len
            flag = 0
            if per_stream:
                if pos >= len(data):
                    raise ValueError("truncated stream container")
                flag = data[pos]
                pos += 1
            payload_len, pos = read_uvarint(data, pos)
            payload = data[pos:pos + payload_len]
            if len(payload) != payload_len:
                raise ValueError("truncated stream container")
            pos += payload_len
            if per_stream and flag:
                payload = zlib.decompress(payload)
            self._cursors[name] = StreamCursor(name, payload)

    def stream(self, name: str) -> StreamCursor:
        cursor = self._cursors.get(name)
        if cursor is None:
            # A stream that was never written is equivalent to an empty
            # one: readers only pull from streams the writer populated.
            cursor = StreamCursor(name, b"")
            self._cursors[name] = cursor
        return cursor

    def names(self) -> List[str]:
        return list(self._cursors)

    def raw_sizes(self) -> Dict[str, int]:
        """Decoded (uncompressed) byte count of every stream."""
        return {name: len(c.data) for name, c in self._cursors.items()}


def concat_streams(pairs: Iterable[Tuple[str, bytes]]) -> bytes:
    """Build a raw-mode container directly from ``(name, payload)``
    pairs (payloads stored as-is; caller controls compression)."""
    out = bytearray([StreamSet.MODE_RAW])
    pairs = list(pairs)
    write_uvarint(out, len(pairs))
    for name, payload in pairs:
        name_bytes = name.encode("utf-8")
        write_uvarint(out, len(name_bytes))
        out.extend(name_bytes)
        write_uvarint(out, len(payload))
        out.extend(payload)
    return bytes(out)
