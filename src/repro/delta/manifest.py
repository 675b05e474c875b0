"""Per-class content fingerprints over the codec-core traversal.

A class's *fingerprint* is the SHA-256 of its canonical codec-core
encoding: the class is run through the version-1 class codec
(:func:`repro.pack.codec_core.encode_classes`) with a fixed,
archive-independent configuration — fresh ``basic``-scheme coders, no
stack-state collapsing, no preloading — and the resulting streams are
hashed in sorted name order.  The encode takes the compiled codec
(``HASH_OPTIONS`` keeps the default backend); the bytes it hashes are
the interpreted walk's, which ``tests/test_delta.py`` checks class by
class.  Because the fingerprint and the wire encoding execute the
*same* spec tree, they cannot diverge: any bit of class content the
archive codec serializes is, by construction, part of the hash, and
anything it regenerates (and therefore never sends) is excluded from
both.

Fresh coders per class make the fingerprint a pure function of the
class definition — independent of where the class sits in an archive
and of the pack options the surrounding archive uses — which is what
lets :mod:`repro.delta.diff` compare classes across two archives that
may have been packed at different times.

The delta container carries the first :data:`HASH_PREFIX_BYTES` bytes
of each target class's fingerprint (collision odds ~2^-96 are
irrelevant for a corruption check); :mod:`repro.delta.verify` compares
against the same prefix.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from ..coding.streams import StreamSet
from ..ir import model as ir
from ..pack import codec_core
from ..pack.options import PackOptions

#: ``(internal class name, fingerprint)`` per class, in archive order.
Manifest = List[Tuple[str, bytes]]

#: The canonical encoding configuration the fingerprint is defined
#: over.  This is wire-format data: changing it orphans every
#: previously issued delta, so it is pinned independently of the
#: archive defaults.
HASH_OPTIONS = PackOptions(scheme="basic", use_context=False,
                           transients=False, stack_state=False,
                           compress=False, preload=False)

#: How many fingerprint bytes travel in the delta container per class.
HASH_PREFIX_BYTES = 12


def class_fingerprint(definition: ir.ClassDefinition) -> bytes:
    """The full 32-byte SHA-256 fingerprint of one class definition."""
    streams = StreamSet()
    codec_core.encode_classes(
        [definition], HASH_OPTIONS,
        codec_core.make_space_coders(HASH_OPTIONS), streams)
    digest = hashlib.sha256()
    for name in sorted(streams.names()):
        payload = streams.stream(name).getvalue()
        digest.update(name.encode("utf-8"))
        digest.update(len(payload).to_bytes(4, "big"))
        digest.update(payload)
    return digest.digest()


def archive_manifest(archive: ir.Archive) -> Manifest:
    """``(internal class name, fingerprint)`` per class, in archive
    order."""
    return [(definition.this_class.internal_name,
             class_fingerprint(definition))
            for definition in archive.classes]


def manifest_index(manifest: Manifest
                   ) -> Dict[str, List[Tuple[int, bytes]]]:
    """Name -> ``[(archive index, fingerprint), ...]`` in order.

    A list per name keeps classification well-defined even for the
    pathological archive that carries two classes with the same name:
    occurrences pair up positionally.
    """
    index: Dict[str, List[Tuple[int, bytes]]] = {}
    for position, (name, fingerprint) in enumerate(manifest):
        index.setdefault(name, []).append((position, fingerprint))
    return index
