"""Dual-mode codec core for the packed wire format.

Every archive construct — class, member, attribute, instruction
operand, string — is described exactly once, as a codec spec
(:mod:`~repro.pack.codec_core.spec` combinators over the constructs in
:mod:`~repro.pack.codec_core.constructs`,
:mod:`~repro.pack.codec_core.instructions`, and
:mod:`~repro.pack.codec_core.archive`).  One driver
(:mod:`~repro.pack.codec_core.driver`) runs the spec in three modes:

* **count** — :func:`count_references` tallies reference frequencies
  for the two-pass schemes;
* **encode** — :func:`encode_archive` writes the streams;
* **decode** — :func:`decode_archive` reconstructs the IR.

Each archive entry point wraps a class-sequence one —
:func:`count_classes`, :func:`encode_classes`, :func:`decode_classes`
— that runs a bare run of classes (no class count on the wire) on
coders and streams the caller owns; the archive adds the META class
count.  :mod:`repro.delta` works on sequences: its prefix replay
encodes the unchanged classes, then the changed ones, on the same
coders.

Because all three modes execute the same spec, the encoder and decoder
traversals — and with them the reference-coder state machines the
paper's format depends on — agree by construction.
:class:`~repro.pack.codec_core.registry.WireSpec` keys the spec table
off the header's version byte.

Two execution backends run the spec
(``PackOptions.codec_backend``):

* **interpreted** — the reference drivers below walk the spec
  combinators value by value;
* **compiled** (the default) — :mod:`~repro.pack.codec_core.compile`
  emits specialized closures per registered spec at registry-import
  time, byte-identical to the interpreted path but several times
  faster.  Probe-carrying calls (the traversal-identity tests)
  always run interpreted — probes hook the spec walk itself.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ...coding.streams import StreamReader, StreamSet
from ...ir import model as ir
from ...observe import recorder as observe
from .. import wire
from ..options import PackOptions
from . import archive as archive_mod
from .archive import class_definition
from .attribution import SizeAttribution
from .compile import (
    CompiledCodec,
    compiled_codec,
    make_fast_mtf_coder,
    warm,
)
from .driver import (
    CountDriver,
    DecodeDriver,
    EncodeDriver,
    Probe,
    TraceEvent,
    make_space_coders,
)
from .layout import ir_instruction_size
from .registry import (
    CONTAINER_ARCHIVE,
    CONTAINER_DELTA,
    WireSpec,
    current_spec,
    spec_for_version,
)
from .spec import DECODE

__all__ = [
    "CONTAINER_ARCHIVE",
    "CONTAINER_DELTA",
    "CompiledCodec",
    "CountDriver",
    "DECODE",
    "DecodeDriver",
    "EncodeDriver",
    "Probe",
    "SizeAttribution",
    "TraceEvent",
    "WireSpec",
    "class_definition",
    "compiled_codec",
    "count_classes",
    "count_references",
    "current_spec",
    "decode_archive",
    "decode_classes",
    "encode_archive",
    "encode_classes",
    "ir_instruction_size",
    "iter_decode_archive",
    "make_fast_mtf_coder",
    "make_space_coders",
    "spec_for_version",
    "warm",
]


def _compiled_for(options: PackOptions, probe,
                  spec: WireSpec) -> Optional["CompiledCodec"]:
    """The compiled codec to dispatch to, or None for the interpreted
    reference path (probe requests always interpret: probes observe
    the spec walk, which the compiled closures skip entirely)."""
    if probe is not None:
        return None
    if getattr(options, "codec_backend", "interpreted") != "compiled":
        return None
    return compiled_codec(spec)


def count_references(
        archive: ir.Archive, options: PackOptions, coders=None,
        seen: Optional[Dict[str, Set]] = None,
        probe: Optional[Probe] = None,
        trace=None,
        spec: Optional[WireSpec] = None,
) -> Dict[str, Dict[Tuple[str, Hashable], int]]:
    """Counting pass: per-space ``(kind, key)`` reference totals.

    When ``coders`` is given, schemes that need the totals
    (freq/cache) receive them before the pass returns.  ``seen``
    pre-seeds the first-occurrence sets (preloaded objects must not
    have their contents re-counted).  A ``trace`` list records every
    reference visit (see :data:`~repro.pack.codec_core.driver.
    TraceEvent`); like probes, it hooks the spec walk itself, so
    trace-carrying calls always run interpreted.
    """
    spec = spec or current_spec()
    codec = _compiled_for(options, probe, spec) if trace is None else None
    if codec is not None:
        return codec.count_references(archive, options, coders=coders,
                                      seen=seen)
    drv = CountDriver(options, seen=seen, probe=probe, trace=trace)
    with observe.current().span("count", classes=len(archive.classes)):
        spec.archive(drv, archive)
        if coders is not None:
            for space, coder in coders.items():
                if coder.needs_frequencies:
                    coder.set_frequencies(drv.counts[space])
    return drv.counts


def encode_archive(archive: ir.Archive, options: PackOptions, coders,
                   streams: StreamSet, metrics=None,
                   probe: Optional[Probe] = None,
                   spec: Optional[WireSpec] = None) -> None:
    """Encoding pass: run the spec forward onto ``streams``."""
    spec = spec or current_spec()
    codec = _compiled_for(options, probe, spec)
    if codec is not None:
        codec.encode_archive(archive, options, coders, streams,
                             metrics=metrics)
        return
    drv = EncodeDriver(options, coders, streams, metrics=metrics,
                       probe=probe)
    with observe.current().span("encode"):
        spec.archive(drv, archive)


def decode_archive(options: PackOptions, coders,
                   reader: StreamReader, interner,
                   probe: Optional[Probe] = None,
                   spec: Optional[WireSpec] = None) -> ir.Archive:
    """Decoding pass: run the spec in reverse off ``reader``."""
    spec = spec or current_spec()
    codec = _compiled_for(options, probe, spec)
    if codec is not None:
        return codec.decode_archive(options, coders, reader, interner)
    drv = DecodeDriver(options, coders, reader, interner, probe=probe)
    with observe.current().span("decode"):
        return spec.archive(drv, DECODE)


def _iter_decode_interpreted(count: Optional[int], options: PackOptions,
                             coders, reader: StreamReader, interner):
    drv = DecodeDriver(options, coders, reader, interner)
    if count is None:
        count = drv.uint(wire.META, DECODE)
    for _ in range(count):
        yield class_definition(drv, DECODE)


def _iter_decode(count: Optional[int], options: PackOptions, coders,
                 reader: StreamReader, interner, spec: WireSpec):
    codec = _compiled_for(options, None, spec)
    if codec is not None:
        return codec.iter_decode_classes(count, options, coders, reader,
                                         interner)
    return _iter_decode_interpreted(count, options, coders, reader,
                                    interner)


def iter_decode_archive(options: PackOptions, coders,
                        reader: StreamReader, interner,
                        spec: Optional[WireSpec] = None):
    """Decode one class at a time, in the paper's §11 load order.

    Returns an iterator of :class:`~repro.ir.model.ClassDefinition`;
    the whole archive is never materialized.  Span-free by design (a
    span held open across yields would corrupt the trace tree) — the
    consumer owns phase accounting.  A future spec whose archive walk
    this module doesn't know falls back to a full decode behind an
    iterator, trading memory for correctness.
    """
    spec = spec or current_spec()
    if spec.archive is not archive_mod.archive:
        return iter(decode_archive(options, coders, reader, interner,
                                   spec=spec).classes)
    return _iter_decode(None, options, coders, reader, interner, spec)


# -- class sequences ----------------------------------------------------
#
# The archive walk minus its class count, on coders and streams the
# caller owns.  Span-free: the caller owns phase accounting (a delta
# replays one sequence in two encode calls).  Dispatch follows
# ``options.codec_backend`` exactly as the archive entry points do, so
# the interpreted walk stays the oracle for both.


def count_classes(classes: Sequence[ir.ClassDefinition],
                  options: PackOptions,
                  seen: Optional[Dict[str, Set]] = None,
                  ) -> Dict[str, Dict[Tuple[str, Hashable], int]]:
    """Per-space ``(kind, key)`` reference totals over ``classes``;
    ``seen`` pre-seeds the first-occurrence sets (and is updated)."""
    codec = _compiled_for(options, None, current_spec())
    if codec is not None:
        return codec.count_classes(classes, options, seen=seen)
    drv = CountDriver(options, seen=seen)
    archive_mod.class_sequence(drv, classes, len(classes))
    return drv.counts


def encode_classes(classes: Sequence[ir.ClassDefinition],
                   options: PackOptions, coders,
                   streams: StreamSet) -> None:
    """Append ``classes`` to ``streams``, advancing ``coders``."""
    codec = _compiled_for(options, None, current_spec())
    if codec is not None:
        codec.encode_classes(classes, options, coders, streams)
        return
    drv = EncodeDriver(options, coders, streams)
    archive_mod.class_sequence(drv, classes, len(classes))


def decode_classes(count: int, options: PackOptions, coders,
                   reader: StreamReader, interner
                   ) -> List[ir.ClassDefinition]:
    """Read ``count`` classes off ``reader``."""
    return list(_iter_decode(count, options, coders, reader, interner,
                             current_spec()))
