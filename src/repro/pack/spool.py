"""Spill-to-disk stream writing for memory-bounded packing.

A :class:`SpoolStreamSet` is a drop-in
:class:`~repro.coding.streams.StreamSet` that holds at most
``budget_bytes`` of stream payload in memory.  Every write is charged
to one resident count shared by all of its streams; a write that
takes the count over the budget flushes the largest resident window
to that stream's anonymous temp file.  Nothing is sized ahead of the
encode pass, so the encoder runs exactly once.  Finalization streams
the container out through :meth:`SpoolStreamSet.serialize_to`, which
replicates :meth:`StreamSet.serialize` byte-for-byte (same frame
layout, same whole-vs-per-stream contest, chunked
``zlib.compressobj`` in place of one-shot ``zlib.compress`` — Python's
zlib guarantees identical output for identical input and level).

:class:`BlobStore` / :class:`BlobMap` apply the same idea to triage:
artifact entries above the window threshold live in one shared temp
file as ``(offset, length)`` handles instead of resident bytes.
"""

from __future__ import annotations

import io
import tempfile
import zlib
from collections.abc import Mapping, MutableMapping
from typing import Dict, Iterator, Union

from ..coding.streams import StreamSet, StreamWriter
from ..coding.varint import write_uvarint
from ..observe import recorder as _observe

#: Read/write granularity for spill files.
SPOOL_CHUNK = 64 * 1024


class SpoolBuffer:
    """A ``bytearray``-shaped buffer whose bytes stay in a resident
    window until its :class:`SpoolStreamSet` flushes them.

    Speaks exactly the surface the codec writes through (``append`` /
    ``extend`` / ``__len__``).  Every write is charged to the set's
    resident count; the set decides when, and which, window goes to a
    lazily created anonymous temp file.  Reads happen only at
    finalize, via re-iterable :meth:`chunks`.
    """

    __slots__ = ("_spool", "_window", "_file", "_spilled")

    def __init__(self, spool: "SpoolStreamSet"):
        self._spool = spool
        self._window = bytearray()
        self._file = None
        self._spilled = 0

    def __len__(self) -> int:
        return self._spilled + len(self._window)

    @property
    def spilled(self) -> int:
        """Bytes flushed to disk so far."""
        return self._spilled

    @property
    def resident(self) -> int:
        """Bytes held in memory."""
        return len(self._window)

    def append(self, value: int) -> None:
        self._window.append(value)
        spool = self._spool
        room = spool._room - 1
        spool._room = room
        if room < 0:
            spool._relieve()

    def extend(self, data) -> None:
        self._window.extend(data)
        spool = self._spool
        room = spool._room - len(data)
        spool._room = room
        if room < 0:
            spool._relieve()

    def flush(self) -> int:
        """Move the window to the spill file; return the bytes freed."""
        window = self._window
        if self._file is None:
            self._file = tempfile.TemporaryFile(prefix="repro-spool-")
        else:
            # chunks() may have moved the file position; spill appends.
            self._file.seek(0, io.SEEK_END)
        self._file.write(window)
        freed = len(window)
        self._spilled += freed
        del window[:]
        return freed

    def chunks(self, chunk_size: int = SPOOL_CHUNK) -> Iterator[bytes]:
        """Yield the buffered bytes in order (spilled file, then window).

        Re-iterable: each call rewinds the spill file.  Do not write
        between chunks of one iteration.
        """
        if self._spilled:
            self._file.seek(0)
            remaining = self._spilled
            while remaining:
                chunk = self._file.read(min(chunk_size, remaining))
                if not chunk:
                    raise ValueError("spool file truncated")
                remaining -= len(chunk)
                yield chunk
        if self._window:
            yield bytes(self._window)

    def getvalue(self) -> bytes:
        return b"".join(self.chunks())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
            self._spilled = 0
        self._spool._room += len(self._window)
        del self._window[:]


class SpoolStreamWriter(StreamWriter):
    """A :class:`StreamWriter` backed by a :class:`SpoolBuffer`."""

    def __init__(self, name: str, spool: "SpoolStreamSet"):
        self.name = name
        self.buf = SpoolBuffer(spool)

    def getvalue(self) -> bytes:
        return self.buf.getvalue()


def _copy_file(src, dst, length: int, chunk_size: int = SPOOL_CHUNK) -> None:
    src.seek(0)
    remaining = length
    while remaining:
        data = src.read(min(chunk_size, remaining))
        if not data:
            raise ValueError("truncated spool scratch file")
        dst.write(data)
        remaining -= len(data)


class SpoolStreamSet(StreamSet):
    """A :class:`StreamSet` that holds at most ``budget_bytes`` of
    stream payload in memory.

    A write that takes the resident count over the budget flushes the
    largest resident window.  The window just written holds at least
    the bytes that went over, so the largest one does too, and one
    flush brings the count back within budget: after every write,
    resident bytes are at most ``budget_bytes``.  Largest-first also
    keeps small streams resident: at an overflow some window holds
    more than ``budget_bytes`` over the stream count, so a stream that
    never grows past that share is never flushed.  Serialization is
    byte-identical to the in-memory path — pinned by the golden
    fixtures and ``tests/test_spool.py``.
    """

    def __init__(self, budget_bytes: int):
        super().__init__()
        if budget_bytes < 1:
            raise ValueError(f"memory budget must be >= 1, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        # The budget minus the resident bytes; each SpoolBuffer write
        # spends it, and a write that overdraws it calls _relieve().
        self._room = budget_bytes

    @property
    def resident(self) -> int:
        """Stream bytes held in memory, over all streams."""
        return self.budget_bytes - self._room

    def _relieve(self) -> None:
        largest = max((writer.buf for writer in self._streams.values()),
                      key=lambda buf: buf.resident)
        self._room += largest.flush()

    def stream(self, name: str) -> SpoolStreamWriter:
        writer = self._streams.get(name)
        if writer is None:
            writer = SpoolStreamWriter(name, self)
            self._streams[name] = writer
        return writer

    def _frame_chunks(self) -> Iterator[bytes]:
        """The raw (no-transform) container frame as a chunk sequence.

        Chunk boundaries differ from the in-memory path; the
        concatenated bytes do not (same layout as
        :meth:`StreamSet._frame` with ``transform=None``).
        """
        head = bytearray()
        write_uvarint(head, len(self._streams))
        yield bytes(head)
        for name, writer in self._streams.items():
            head = bytearray()
            name_bytes = name.encode("utf-8")
            write_uvarint(head, len(name_bytes))
            head.extend(name_bytes)
            write_uvarint(head, len(writer))
            yield bytes(head)
            yield from writer.buf.chunks()

    def serialize(self, compress: bool = True, level: int = 9) -> bytes:
        out = io.BytesIO()
        self.serialize_to(out, compress=compress, level=level)
        return out.getvalue()

    def serialize_to(self, out, compress: bool = True, level: int = 9) -> int:
        """Stream the serialized container into ``out``; return its size.

        Both compressed candidates (whole and per-stream — see
        :meth:`StreamSet.serialize`) are built into temp files via
        chunked ``zlib.compressobj``, then the smaller one is copied
        to ``out`` behind its mode byte.  At no point is a whole
        stream, frame, or compressed payload resident in memory.
        """
        recorder = _observe.current()
        if not compress:
            total = out.write(bytes([self.MODE_RAW]))
            for chunk in self._frame_chunks():
                total += out.write(chunk)
            return total

        with recorder.span("zlib.whole"):
            whole_file = tempfile.TemporaryFile(prefix="repro-spool-zw-")
            comp = zlib.compressobj(level)
            whole_len = 0
            for chunk in self._frame_chunks():
                piece = comp.compress(chunk)
                if piece:
                    whole_len += whole_file.write(piece)
            piece = comp.flush()
            if piece:
                whole_len += whole_file.write(piece)

        with recorder.span("zlib.per_stream"):
            per_file = tempfile.TemporaryFile(prefix="repro-spool-zp-")
            scratch = tempfile.TemporaryFile(prefix="repro-spool-zs-")
            per_len = 0
            head = bytearray()
            write_uvarint(head, len(self._streams))
            per_len += per_file.write(bytes(head))
            for name, writer in self._streams.items():
                scratch.seek(0)
                scratch.truncate()
                comp = zlib.compressobj(level)
                compressed_len = 0
                for chunk in writer.buf.chunks():
                    piece = comp.compress(chunk)
                    if piece:
                        compressed_len += scratch.write(piece)
                piece = comp.flush()
                if piece:
                    compressed_len += scratch.write(piece)
                raw_len = len(writer)
                head = bytearray()
                name_bytes = name.encode("utf-8")
                write_uvarint(head, len(name_bytes))
                head.extend(name_bytes)
                if compressed_len < raw_len:
                    head.append(1)
                    write_uvarint(head, compressed_len)
                    per_len += per_file.write(bytes(head))
                    _copy_file(scratch, per_file, compressed_len)
                    per_len += compressed_len
                else:
                    head.append(0)
                    write_uvarint(head, raw_len)
                    per_len += per_file.write(bytes(head))
                    for chunk in writer.buf.chunks():
                        per_len += per_file.write(chunk)
            scratch.close()

        metrics = recorder.metrics
        if metrics is not None:
            metrics.tally("zlib", "whole_bytes", whole_len)
            metrics.tally("zlib", "per_stream_bytes", per_len)
            metrics.count("zlib.mode.whole" if whole_len <= per_len
                          else "zlib.mode.per_stream")
        if whole_len <= per_len:
            per_file.close()
            total = out.write(bytes([self.MODE_WHOLE]))
            _copy_file(whole_file, out, whole_len)
            whole_file.close()
            return total + whole_len
        whole_file.close()
        total = out.write(bytes([self.MODE_PER_STREAM]))
        _copy_file(per_file, out, per_len)
        per_file.close()
        return total + per_len

    def compressed_sizes(self, level: int = 9) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        for name, writer in self._streams.items():
            comp = zlib.compressobj(level)
            total = 0
            for chunk in writer.buf.chunks():
                total += len(comp.compress(chunk))
            total += len(comp.flush())
            sizes[name] = total
        return sizes

    def spool_stats(self) -> Dict[str, int]:
        """Spill accounting for reports and tests."""
        spilled = {name: w.buf.spilled
                   for name, w in self._streams.items() if w.buf.spilled}
        return {
            "budget_bytes": self.budget_bytes,
            "streams": len(self._streams),
            "spilled_streams": len(spilled),
            "spilled_bytes": sum(spilled.values()),
        }

    def close(self) -> None:
        for writer in self._streams.values():
            writer.buf.close()


class _BlobRef:
    """Handle for a spilled entry: ``(offset, length)`` in the store file."""

    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int):
        self.offset = offset
        self.length = length


class BlobStore:
    """A shared spill file for byte blobs above a size threshold.

    ``put`` returns either the bytes themselves (small entries) or a
    :class:`_BlobRef` into one append-only anonymous temp file; ``get``
    resolves either form back to bytes.  Used by triage so nested
    archive entries bigger than the in-memory window cost a file
    handle's worth of RAM instead of their full size.
    """

    def __init__(self, window_bytes: int):
        if window_bytes < 1:
            raise ValueError(f"window must be >= 1 byte, got {window_bytes}")
        self.window_bytes = window_bytes
        self._file = None
        self.spilled_entries = 0
        self.spilled_bytes = 0

    def put(self, data: bytes) -> Union[bytes, _BlobRef]:
        if len(data) < self.window_bytes:
            return data
        if self._file is None:
            self._file = tempfile.TemporaryFile(prefix="repro-blob-")
        self._file.seek(0, io.SEEK_END)
        offset = self._file.tell()
        self._file.write(data)
        self.spilled_entries += 1
        self.spilled_bytes += len(data)
        return _BlobRef(offset, len(data))

    def get(self, ref: Union[bytes, _BlobRef]) -> bytes:
        if isinstance(ref, (bytes, bytearray)):
            return bytes(ref)
        self._file.seek(ref.offset)
        data = self._file.read(ref.length)
        if len(data) != ref.length:
            raise ValueError("truncated blob store file")
        return data

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class BlobMap(MutableMapping):
    """A ``dict[str, bytes]`` view over a :class:`BlobStore`.

    Spilled values are re-read from the store file on access, so
    iterating the map streams entries one at a time instead of
    holding every artifact resident.  Equality materializes both
    sides (tests compare against plain dicts).
    """

    def __init__(self, store: BlobStore):
        self._store = store
        self._refs: Dict[str, Union[bytes, _BlobRef]] = {}

    def __setitem__(self, key: str, data: bytes) -> None:
        self._refs[key] = self._store.put(data)

    def __getitem__(self, key: str) -> bytes:
        return self._store.get(self._refs[key])

    def __delitem__(self, key: str) -> None:
        del self._refs[key]

    def __iter__(self):
        return iter(self._refs)

    def __len__(self) -> int:
        return len(self._refs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result
