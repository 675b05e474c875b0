"""Delta computation: classify classes, encode the changed suffix.

The central trick is *prefix replay*.  Reference coders are
deterministic state machines, so encoding the class sequence

    [shared classes (unchanged in the target, in target order)]
    ++ [changed classes (modified + added, in target order)]

writes streams whose first bytes are exactly what encoding the shared
prefix alone would write — provided both runs use the same coder
construction and the same frequency tables.  The delta container
therefore ships only the per-stream *suffix*: every reference a
changed class makes to an object the base archive already carries
(package names, class refs, method refs, factored strings, shared
constants) resolves to a reference-coder index whose pool was
populated during the prefix, so the object's contents are never
re-sent.  The patcher, which holds the base archive, re-encodes the
identical prefix locally, stitches the suffix back on, and decodes the
whole sequence with the ordinary codec (:mod:`repro.delta.patch`).

Frequency tables for the two-pass schemes (freq/cache, and the MTF
transient rule) are computed over the *prefix only* — both sides can
derive that without the changed classes, which the patcher does not
have yet.  Objects that appear only in changed classes simply fall
back to the schemes' singleton/new-object paths, exactly as a
first-occurrence does in a full archive.

The differ encodes once: the prefix, then — on the same coders and
streams — the changed classes, recording every stream's length in
between.  Every phase runs through the class-sequence entry points of
:mod:`repro.pack.codec_core`, so it takes the compiled codec unless
``codec_backend`` asks for the interpreted oracle.  That the recorded
lengths mark exactly where a standalone prefix encode ends is pinned
by the lockstep tests, not re-checked per diff.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..coding.streams import StreamSet
from ..ir import model as ir
from ..observe import recorder as observe
from ..pack import codec_core, wire
from ..pack.decompressor import Decompressor
from ..pack.options import EXECUTION_ONLY_FIELDS, PackOptions
from .manifest import (
    HASH_PREFIX_BYTES,
    Manifest,
    archive_manifest,
    manifest_index,
)

#: Per-target-class operations in the ``delta.ops`` stream.
OP_UNCHANGED = 0
OP_MODIFIED = 1
OP_ADDED = 2


@dataclass(frozen=True)
class DeltaSummary:
    """What a delta contains, sized against the full target pack."""

    base_classes: int
    target_classes: int
    unchanged: int
    modified: int
    added: int
    removed: int
    delta_bytes: int
    target_pack_bytes: int

    @property
    def ratio(self) -> float:
        """Delta size as a fraction of the full target pack."""
        if not self.target_pack_bytes:
            return 0.0
        return self.delta_bytes / self.target_pack_bytes

    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["ratio"] = round(self.ratio, 4)
        return doc


# -- prefix replay (shared with repro.delta.patch) ----------------------


def prefix_counts(prefix: Sequence[ir.ClassDefinition],
                  options: PackOptions) -> Dict[str, Dict]:
    """Reference counts over the shared prefix, with preload seeding
    mirroring the full compressor's counting pass."""
    seen = {space: set() for space in wire.SPACES}
    if options.preload:
        from ..pack.preload import preload_objects

        for space, values in preload_objects(ir.Interner()).items():
            seen[space].update(values)
    return codec_core.count_classes(prefix, options, seen=seen)


def replay_coders(options: PackOptions, counts: Dict[str, Dict],
                  interner: Optional[ir.Interner] = None) -> Dict:
    """Fresh coders for one replay pass, preloaded as the full codec
    preloads them (into ``interner`` when decoding) and fed the
    prefix-only frequency tables.  Same inputs, same coder states —
    the property prefix replay rests on."""
    coders = codec_core.make_space_coders(options)
    if options.preload:
        from ..pack.preload import preload_coders

        preload_coders(coders, interner if interner is not None
                       else ir.Interner())
    for space, coder in coders.items():
        if coder.needs_frequencies:
            coder.set_frequencies(counts[space])
    return coders


# -- classification -----------------------------------------------------


def classify(base: Manifest, target: Manifest
             ) -> Tuple[List[Tuple[int, Optional[int]]], DeltaSummary]:
    """Pair every target class with its base counterpart, given the
    two archives' manifests (:func:`~repro.delta.manifest.
    archive_manifest`).

    Returns ``(plan, partial summary)`` where ``plan`` holds one
    ``(op, base_index)`` per target class (``base_index`` is ``None``
    for additions).  Same-name occurrences pair up positionally, so
    archives with duplicate class names still classify deterministically.
    """
    base_index = manifest_index(base)
    cursor: Dict[str, int] = {name: 0 for name in base_index}
    plan: List[Tuple[int, Optional[int]]] = []
    unchanged = modified = added = 0
    for name, fingerprint in target:
        entries = base_index.get(name)
        position = cursor.get(name, 0)
        if entries is None or position >= len(entries):
            plan.append((OP_ADDED, None))
            added += 1
            continue
        cursor[name] = position + 1
        index, base_fingerprint = entries[position]
        if base_fingerprint == fingerprint:
            plan.append((OP_UNCHANGED, index))
            unchanged += 1
        else:
            plan.append((OP_MODIFIED, index))
            modified += 1
    removed = len(base) - unchanged - modified
    summary = DeltaSummary(
        base_classes=len(base),
        target_classes=len(target),
        unchanged=unchanged, modified=modified, added=added,
        removed=removed, delta_bytes=0, target_pack_bytes=0)
    return plan, summary


# -- the delta container ------------------------------------------------


def _canonical_options(options: PackOptions) -> bytes:
    """The pack options as canonical JSON; the container is
    self-describing so ``repro patch`` needs no flags.  Execution-only
    fields stay out: the same two archives give the same delta bytes
    whichever backend or memory budget computed them."""
    fields = {name: value for name, value in asdict(options).items()
              if name not in EXECUTION_ONLY_FIELDS}
    return json.dumps(fields, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def diff_archives(base: ir.Archive, target: ir.Archive,
                  options: PackOptions,
                  base_sha: bytes, target_sha: bytes,
                  compress: Optional[bool] = None) -> Tuple[bytes,
                                                            DeltaSummary]:
    """Build the delta container taking ``base`` to ``target``.

    ``base_sha``/``target_sha`` are SHA-256 digests of the packed
    byte strings the archives came from; the patcher refuses a wrong
    base and verifies its final output against the target digest.
    """
    recorder = observe.current()
    with recorder.span("delta.manifest",
                       classes=len(base.classes) + len(target.classes)):
        target_manifest = archive_manifest(target)
        plan, summary = classify(archive_manifest(base), target_manifest)
    prefix = [base.classes[index] for op, index in plan
              if op == OP_UNCHANGED]
    changed = [target.classes[position]
               for position, (op, _) in enumerate(plan)
               if op != OP_UNCHANGED]
    with recorder.span("count", classes=len(prefix)):
        counts = prefix_counts(prefix, options)
    with recorder.span("encode", classes=len(target.classes)):
        coders = replay_coders(options, counts)
        encoded = StreamSet()
        codec_core.encode_classes(prefix, options, coders, encoded)
        head = encoded.raw_sizes()
        codec_core.encode_classes(changed, options, coders, encoded)

    streams = StreamSet()
    meta = streams.stream(wire.DELTA_META)
    meta.raw(base_sha)
    meta.raw(target_sha)
    meta.uvarint(len(base.classes))
    meta.uvarint(len(target.classes))
    options_json = _canonical_options(options)
    meta.uvarint(len(options_json))
    meta.raw(options_json)
    ops = streams.stream(wire.DELTA_OPS)
    indices = streams.stream(wire.DELTA_BASE)
    hashes = streams.stream(wire.DELTA_HASHES)
    for position, (op, index) in enumerate(plan):
        ops.u8(op)
        if index is not None:
            indices.uvarint(index)
    for _, fingerprint in target_manifest:
        hashes.raw(fingerprint[:HASH_PREFIX_BYTES])
    for name in encoded.names():
        payload = encoded.stream(name).getvalue()
        start = head.get(name, 0)
        if len(payload) > start:
            streams.stream(name).raw(payload[start:])

    header = bytearray(struct.pack(">I", wire.MAGIC))
    header.append(wire.DELTA_VERSION)
    compress = options.compress if compress is None else compress
    header.append(1 if compress else 0)
    with recorder.span("serialize"):
        payload = streams.serialize(compress=compress,
                                    level=options.zlib_level)
    return bytes(header) + payload, summary


def diff_packed(base_packed: bytes, target_packed: bytes,
                options: Optional[PackOptions] = None
                ) -> Tuple[bytes, DeltaSummary]:
    """Delta between two packed archives (the ``repro diff`` core).

    Both archives must have been packed with ``options`` — the same
    out-of-band contract :func:`repro.pack.unpack_archive` documents —
    unless the *target* records its scheme in its header
    (``--scheme=auto`` output): the recorded scheme then overrides
    ``options``, because the patcher must repack to the target's
    exact bytes, tag included.
    """
    options = (options or PackOptions()).validate()
    start = time.perf_counter()
    with observe.current().span("delta.diff"):
        target_decompressor = Decompressor(options)
        target = target_decompressor.unpack_ir(target_packed)
        options = target_decompressor.effective_options
        base = Decompressor(options).unpack_ir(base_packed)
        delta, summary = diff_archives(
            base, target, options,
            hashlib.sha256(base_packed).digest(),
            hashlib.sha256(target_packed).digest())
    summary = DeltaSummary(
        **{**asdict(summary), "delta_bytes": len(delta),
           "target_pack_bytes": len(target_packed)})
    metrics = observe.current().metrics
    if metrics is not None:
        metrics.count("delta.diffs")
        metrics.count("delta.classes.unchanged", summary.unchanged)
        metrics.count("delta.classes.modified", summary.modified)
        metrics.count("delta.classes.added", summary.added)
        metrics.count("delta.classes.removed", summary.removed)
        metrics.observe("delta.ratio_pct",
                        int(round(100 * summary.ratio)))
        metrics.observe("delta.diff_ms",
                        int((time.perf_counter() - start) * 1000))
    return delta, summary
