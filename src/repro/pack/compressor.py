"""The packed-archive compressor: a façade over the codec core.

Both passes (counting and encoding) and every construct's wire shape
live in :mod:`repro.pack.codec_core`; this module only assembles the
pieces — coders, streams, header — and runs the shared spec in count
then encode mode.  ``options.codec_backend`` selects *how* the spec
runs (interpreted walker or compiled closures, dispatched inside
:func:`codec_core.count_references` / :func:`codec_core.encode_archive`);
the emitted bytes are identical either way (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from ..coding.streams import StreamSet
from ..errors import PackError
from ..ir import model as ir
from ..observe import recorder as observe
from . import codec_core, wire
from .options import AUTO_SCHEME, PackOptions
from .spool import SpoolStreamSet

__all__ = ["Compressor", "PackError", "SPACES", "pack_archive_ir"]

#: Back-compat alias; the object-space table is wire-format data.
SPACES = wire.SPACES


class Compressor:
    """Encodes an :class:`~repro.ir.model.Archive` into packed bytes."""

    def __init__(self, options: PackOptions):
        self.options = options.validate()
        if self.options.scheme == AUTO_SCHEME:
            raise PackError(
                "scheme 'auto' must be resolved before packing; go "
                "through pack_archive / pack_archive_ir, or resolve "
                "with repro.pack.select.select_scheme")
        #: The :class:`~repro.pack.select.SchemeSelection` behind these
        #: options when ``--scheme=auto`` chose them (set by
        #: :func:`pack_archive_ir`); None for explicit schemes.
        self.selection = None
        if self.options.memory_budget is not None:
            self.streams = SpoolStreamSet(self.options.memory_budget)
        else:
            self.streams = StreamSet()
        #: None unless an observe recorder is installed (the hot-path
        #: on/off switch: one attribute test per reported event).
        self._metrics = observe.current().metrics
        self._coders = codec_core.make_space_coders(options)
        self._count_seen: Dict[str, set] = {
            space: set() for space in wire.SPACES}
        if options.preload:
            from .preload import preload_coders, preload_objects

            preload_coders(self._coders, ir.Interner())
            # The counting pass must also treat preloaded objects as
            # already seen, so it recurses into the same contents the
            # encoding pass will.
            for space, values in preload_objects(ir.Interner()).items():
                self._count_seen[space].update(values)
        self.attribution = codec_core.SizeAttribution(self.streams,
                                                      self.options)

    def _run_codec(self, archive: ir.Archive) -> None:
        """Count then encode.  On the memory-budgeted path the spool
        streams bound their own residency as the encode writes."""
        codec_core.count_references(archive, self.options,
                                    coders=self._coders,
                                    seen=self._count_seen)
        codec_core.encode_archive(archive, self.options, self._coders,
                                  self.streams, metrics=self._metrics)

    def _header(self) -> bytes:
        scheme_tag = 0
        if self.options.record_scheme:
            scheme_tag = wire.SCHEME_TAG_FOR[wire.scheme_variant(
                self.options.scheme, self.options.use_context,
                self.options.transients)]
        header = bytearray(struct.pack(">I", wire.MAGIC))
        header.append(wire.VERSION)
        header.append(wire.pack_flags(self.options.compress, scheme_tag))
        return bytes(header)

    def _emit_metrics(self, archive: ir.Archive, packed_len: int) -> None:
        if self._metrics is not None:
            self._metrics.count("pack.classes", len(archive.classes))
            self.attribution.emit_metrics(self._metrics, packed_len)

    def pack(self, archive: ir.Archive) -> bytes:
        self._run_codec(archive)
        header = self._header()
        with observe.current().span("serialize"):
            payload = self.streams.serialize(
                compress=self.options.compress,
                level=self.options.zlib_level)
        self._emit_metrics(archive, len(header) + len(payload))
        return header + payload

    def pack_to(self, archive: ir.Archive, out) -> int:
        """Pack ``archive`` straight into the file object ``out``.

        Returns the byte count written.  With a ``memory_budget`` the
        serialized container streams from the spool buffers through
        temp files into ``out`` — the packed archive is never resident
        as one byte string.  Output is byte-identical to :meth:`pack`.
        """
        self._run_codec(archive)
        header = self._header()
        out.write(header)
        with observe.current().span("serialize"):
            if isinstance(self.streams, SpoolStreamSet):
                written = self.streams.serialize_to(
                    out, compress=self.options.compress,
                    level=self.options.zlib_level)
            else:
                payload = self.streams.serialize(
                    compress=self.options.compress,
                    level=self.options.zlib_level)
                out.write(payload)
                written = len(payload)
        total = len(header) + written
        self._emit_metrics(archive, total)
        return total

    def stream_sizes(self, compressed: bool = True) -> Dict[str, int]:
        """Per-stream byte sizes of the encoded archive (after pack())."""
        return self.attribution.stream_sizes(compressed)


def pack_archive_ir(archive: ir.Archive,
                    options: Optional[PackOptions] = None
                    ) -> Tuple[bytes, Compressor]:
    """Pack a restructured archive; returns (bytes, compressor).

    ``scheme="auto"`` is resolved here: the scheme matrix is scored
    against this archive (:mod:`repro.pack.select`) and the winner —
    with ``record_scheme`` set so the header carries the choice — is
    what the compressor actually runs.  The selection report is left
    on ``compressor.selection``.
    """
    from .select import resolve_options

    options, selection = resolve_options(archive, options)
    compressor = Compressor(options)
    compressor.selection = selection
    data = compressor.pack(archive)
    return data, compressor
