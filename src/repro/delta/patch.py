"""Apply a delta container to a base archive (``repro patch``).

The patcher mirrors :mod:`repro.delta.diff` exactly: it rebuilds the
shared prefix from the base archive it holds, re-encodes it locally
(prefix replay is deterministic), stitches the container's per-stream
suffixes onto the locally produced prefix bytes, and decodes the
whole class sequence with the ordinary codec — the class-sequence
entry points of :mod:`repro.pack.codec_core`, as the differ uses.
The result is verified twice — per-class manifest fingerprints, then
the SHA-256 of the repacked archive against the digest the differ
recorded — before anything is returned, so a wrong base or a corrupt
delta can never yield a silently wrong archive.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import time
from typing import List, Tuple

from ..coding.streams import StreamReader, StreamSet, concat_streams
from ..errors import CORRUPTION_ERRORS, JobInputError, ReproError, \
    UnpackError
from ..ir import model as ir
from ..observe import recorder as observe
from ..pack import codec_core, wire
from ..pack.compressor import pack_archive_ir
from ..pack.decompressor import Decompressor
from ..pack.options import PackOptions
from .diff import (
    OP_ADDED,
    OP_MODIFIED,
    OP_UNCHANGED,
    DeltaSummary,
    prefix_counts,
    replay_coders,
)
from .manifest import HASH_PREFIX_BYTES
from .verify import verify_classes, verify_packed_sha

_OPTION_FIELDS = {field.name for field in
                  dataclasses.fields(PackOptions)}


def _parse_options(payload: bytes) -> PackOptions:
    doc = json.loads(payload.decode("utf-8"))
    if not isinstance(doc, dict) or set(doc) - _OPTION_FIELDS:
        raise UnpackError("delta container carries unknown pack options")
    return PackOptions(**doc).validate()


def open_delta(delta: bytes) -> Tuple[StreamReader, dict]:
    """Parse a delta container's header and metadata streams.

    Returns the stream reader (codec suffix streams still unread) and
    a metadata dict: ``base_sha``, ``target_sha``, ``base_count``,
    ``target_count``, ``options``, ``plan`` (one ``(op, base_index)``
    per target class), ``hash_prefixes``.
    """
    if len(delta) < 6:
        raise UnpackError("truncated delta container")
    magic = struct.unpack(">I", delta[:4])[0]
    if magic != wire.MAGIC:
        raise UnpackError(f"bad magic {magic:#x}")
    spec = codec_core.spec_for_version(delta[4])
    if spec.container != codec_core.CONTAINER_DELTA:
        raise UnpackError(
            f"version {spec.version} is a packed archive, not a "
            "delta container; decode it with repro unpack")
    reader = StreamReader(delta[6:], compressed=bool(delta[5]))
    meta = reader.stream(wire.DELTA_META)
    base_sha = meta.raw(32)
    target_sha = meta.raw(32)
    base_count = meta.uvarint()
    target_count = meta.uvarint()
    options = _parse_options(meta.raw(meta.uvarint()))
    ops = reader.stream(wire.DELTA_OPS)
    indices = reader.stream(wire.DELTA_BASE)
    plan: List[Tuple[int, int]] = []
    for _ in range(target_count):
        op = ops.u8()
        if op not in (OP_UNCHANGED, OP_MODIFIED, OP_ADDED):
            raise UnpackError(f"unknown delta op {op}")
        index = -1
        if op != OP_ADDED:
            index = indices.uvarint()
            if index >= base_count:
                raise UnpackError(
                    f"delta references base class {index} of "
                    f"{base_count}")
        plan.append((op, index))
    hashes = reader.stream(wire.DELTA_HASHES)
    prefixes = [hashes.raw(HASH_PREFIX_BYTES)
                for _ in range(target_count)]
    return reader, {
        "base_sha": base_sha, "target_sha": target_sha,
        "base_count": base_count, "target_count": target_count,
        "options": options, "plan": plan, "hash_prefixes": prefixes,
    }


def _stitch(head, reader: StreamReader) -> bytes:
    """Locally encoded prefix bytes + container suffixes, reframed as
    one raw-mode container the ordinary decoder can read."""
    pairs = []
    names = head.names()
    for name in reader.names():
        if name not in names and not name.startswith("delta."):
            names.append(name)
    for name in names:
        suffix = reader.stream(name).data
        if name.startswith("delta."):
            suffix = b""
        pairs.append((name, head.stream(name).getvalue() + suffix))
    return concat_streams(pairs)


def patch_packed(base_packed: bytes, delta: bytes
                 ) -> Tuple[bytes, DeltaSummary]:
    """Reconstruct the target packed archive from base + delta.

    Returns the packed target bytes — byte-identical to packing the
    target corpus directly — and a summary of what the delta changed.
    Raises :class:`JobInputError` when ``base_packed`` is not the
    archive the delta was computed against, :class:`UnpackError` for
    a malformed delta.
    """
    start = time.perf_counter()
    recorder = observe.current()
    with recorder.span("delta.patch"):
        try:
            reader, meta = open_delta(delta)
        except ReproError:
            raise
        except CORRUPTION_ERRORS as exc:
            raise UnpackError(
                f"corrupt delta container: {exc}") from exc
        if hashlib.sha256(base_packed).digest() != meta["base_sha"]:
            raise JobInputError(
                "base archive does not match the delta: expected "
                f"sha256 {meta['base_sha'].hex()[:16]}…, got "
                f"{hashlib.sha256(base_packed).hexdigest()[:16]}…")
        options = meta["options"]
        base = Decompressor(options).unpack_ir(base_packed)
        if len(base.classes) != meta["base_count"]:
            raise JobInputError(
                f"base archive has {len(base.classes)} classes; delta "
                f"expects {meta['base_count']}")
        plan = meta["plan"]
        try:
            prefix = [base.classes[index] for op, index in plan
                      if op == OP_UNCHANGED]
            changed_count = sum(1 for op, _ in plan
                                if op != OP_UNCHANGED)
            with recorder.span("count", classes=len(prefix)):
                counts = prefix_counts(prefix, options)
            with recorder.span("encode", classes=len(prefix)):
                head = StreamSet()
                codec_core.encode_classes(
                    prefix, options, replay_coders(options, counts),
                    head)
            with recorder.span("decode", classes=len(plan)):
                stitched = StreamReader(_stitch(head, reader),
                                        compressed=False)
                interner = ir.Interner()
                decoded = codec_core.decode_classes(
                    len(prefix) + changed_count, options,
                    replay_coders(options, counts, interner), stitched,
                    interner)
            classes: List[ir.ClassDefinition] = []
            unchanged_cursor, changed_cursor = 0, len(prefix)
            for op, _ in plan:
                if op == OP_UNCHANGED:
                    classes.append(decoded[unchanged_cursor])
                    unchanged_cursor += 1
                else:
                    classes.append(decoded[changed_cursor])
                    changed_cursor += 1
        except ReproError:
            raise
        except CORRUPTION_ERRORS as exc:
            raise UnpackError(
                f"corrupt delta container: {exc}") from exc
        with recorder.span("verify"):
            with recorder.span("delta.manifest", classes=len(classes)):
                verify_classes(classes, meta["hash_prefixes"])
            target_packed, _ = pack_archive_ir(
                ir.Archive(classes=classes), options)
            verify_packed_sha(target_packed, meta["target_sha"],
                              "patched archive")
    summary = DeltaSummary(
        base_classes=meta["base_count"],
        target_classes=meta["target_count"],
        unchanged=sum(1 for op, _ in plan if op == OP_UNCHANGED),
        modified=sum(1 for op, _ in plan if op == OP_MODIFIED),
        added=sum(1 for op, _ in plan if op == OP_ADDED),
        removed=meta["base_count"]
        - sum(1 for op, _ in plan if op != OP_ADDED),
        delta_bytes=len(delta), target_pack_bytes=len(target_packed))
    metrics = recorder.metrics
    if metrics is not None:
        metrics.count("delta.patches")
        metrics.observe("delta.patch_ms",
                        int((time.perf_counter() - start) * 1000))
    return target_packed, summary
