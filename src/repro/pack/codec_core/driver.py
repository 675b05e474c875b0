"""The three codec drivers: count, encode, decode.

One codec spec (:mod:`repro.pack.codec_core.archive` and friends)
describes every wire construct; the driver supplies the direction.
All three drivers expose the same primitive vocabulary — ``uint``,
``sint``, ``u8``, ``raw``, ``text``, ``ref``, ``register``, ``bump``,
``fail`` — targeted at a :class:`~repro.coding.streams.StreamPort`:

* :class:`EncodeDriver` writes to a :class:`StreamSet`;
* :class:`CountDriver` writes to the null port and records reference
  frequencies plus a per-space seen set (the two-pass schemes' input);
* :class:`DecodeDriver` reads from a :class:`StreamReader` and interns
  the objects it constructs.

The optional ``probe`` hook records every reference visit as
``(space, kind, is_new)``; the mode-agreement property test uses it to
assert that all three modes traverse the identical reference sequence.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from ...classfile import mutf8
from ...coding.streams import NullStreamSet, StreamReader, StreamSet
from ...errors import PackError, UnpackError
from ...refs.base import Coder
from ...refs.schemes import make_coder
from .. import wire
from ..options import PackOptions

Probe = List[Tuple[str, str, bool]]

#: One recorded reference visit: ``(space, kind, stack_context, key)``.
#: A trace is the full per-archive sequence — what
#: :mod:`repro.pack.select` replays through candidate coders to score
#: the scheme matrix without re-walking the IR.
TraceEvent = Tuple[str, str, object, Hashable]


def make_space_coders(options: PackOptions) -> Dict[str, Coder]:
    """One dual-mode :class:`~repro.refs.base.Coder` per object space.

    Spaces are seeded in sorted order (``options.seed + index``); this
    order is part of the wire format — both sides must build identical
    coder state machines.
    """
    fast_mtf = (options.scheme == "mtf" and
                getattr(options, "codec_backend",
                        "interpreted") == "compiled")
    if fast_mtf:
        from . import compile as compile_mod

    coders: Dict[str, Coder] = {}
    for index, space in enumerate(sorted(wire.SPACES)):
        if fast_mtf:
            coders[space] = compile_mod.make_fast_mtf_coder(
                use_context=options.use_context,
                transients=options.transients,
                seed=options.seed + index)
        else:
            coders[space] = make_coder(
                options.scheme, use_context=options.use_context,
                transients=options.transients,
                seed=options.seed + index)
    return coders


class Driver:
    """Shared driver state and the mode-independent no-ops."""

    __slots__ = ("options", "port", "coders", "interner", "metrics",
                 "probe")

    decoding = False
    counting = False

    def fail(self, message: str) -> None:
        """Abort with the mode's error type (PackError / UnpackError)."""
        raise PackError(message)

    def bump(self, name: str) -> None:
        """Count one codec event (live only while encoding)."""

    def register(self, space: str, kind: str, stack_context,
                 value) -> None:
        """Record a just-built shared object (live only while
        decoding)."""


class EncodeDriver(Driver):
    """Runs the spec forward: every primitive writes to its stream."""

    def __init__(self, options: PackOptions, coders: Dict[str, Coder],
                 streams: StreamSet, metrics=None,
                 probe: Optional[Probe] = None):
        self.options = options
        self.coders = coders
        self.port = streams
        self.metrics = metrics
        self.probe = probe
        self.interner = None

    def uint(self, name: str, value: int) -> int:
        self.port.stream(name).uvarint(value)
        return value

    def sint(self, name: str, value: int) -> int:
        self.port.stream(name).svarint(value)
        return value

    def u8(self, name: str, value: int) -> int:
        self.port.stream(name).u8(value)
        return value

    def raw(self, name: str, size: int, data: bytes) -> bytes:
        self.port.stream(name).raw(data)
        return data

    def text(self, len_stream: str, chars_stream: str,
             value: str) -> str:
        encoded = mutf8.encode(value)
        self.port.stream(len_stream).uvarint(len(encoded))
        self.port.stream(chars_stream).raw(encoded)
        return value

    def ref(self, space: str, kind: str, stack_context,
            key: Hashable) -> Tuple[bool, Hashable]:
        is_new = self.coders[space].encode(
            self.port.stream(wire.SPACES[space]), (kind, stack_context),
            key)
        if self.probe is not None:
            self.probe.append((space, kind, is_new))
        return is_new, key

    def bump(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)


class CountDriver(Driver):
    """Runs the spec forward against the null port, tallying how often
    every ``(kind, key)`` is referenced in every space.

    The per-space ``seen`` set gates recursion exactly like the
    encoder's first-occurrence rule, so the counting pass visits the
    same contents the encoding pass will; preloaded objects arrive
    already seen.

    An optional ``trace`` list additionally records every reference
    visit as ``(space, kind, stack_context, key)``.  Because the
    traversal — and the first-occurrence ``is_new`` sequence — is the
    same under every reference scheme, replaying a trace through a
    scheme's coders reproduces exactly the reference-stream bytes a
    full encode under that scheme would write (the dry-run scoring
    pass of ``--scheme=auto``).
    """

    __slots__ = ("counts", "seen", "trace")

    counting = True

    def __init__(self, options: PackOptions,
                 seen: Optional[Dict[str, Set]] = None,
                 probe: Optional[Probe] = None,
                 trace: Optional[List[TraceEvent]] = None):
        self.options = options
        self.coders = None
        self.port = NullStreamSet()
        self.metrics = None
        self.probe = probe
        self.trace = trace
        self.interner = None
        self.counts: Dict[str, Dict[Tuple[str, Hashable], int]] = {
            space: {} for space in wire.SPACES}
        self.seen: Dict[str, Set] = seen if seen is not None else {
            space: set() for space in wire.SPACES}

    def uint(self, name: str, value: int) -> int:
        return value

    def sint(self, name: str, value: int) -> int:
        return value

    def u8(self, name: str, value: int) -> int:
        return value

    def raw(self, name: str, size: int, data: bytes) -> bytes:
        return data

    def text(self, len_stream: str, chars_stream: str,
             value: str) -> str:
        return value

    def ref(self, space: str, kind: str, stack_context,
            key: Hashable) -> Tuple[bool, Hashable]:
        counts = self.counts[space]
        slot = (kind, key)
        counts[slot] = counts.get(slot, 0) + 1
        if self.trace is not None:
            self.trace.append((space, kind, stack_context, key))
        seen = self.seen[space]
        if key in seen:
            is_new = False
        else:
            seen.add(key)
            is_new = True
        if self.probe is not None:
            self.probe.append((space, kind, is_new))
        return is_new, key


class DecodeDriver(Driver):
    """Runs the spec in reverse: every primitive reads from its
    stream, and built shared objects are interned and registered."""

    decoding = True

    def __init__(self, options: PackOptions, coders: Dict[str, Coder],
                 reader: StreamReader, interner,
                 probe: Optional[Probe] = None):
        self.options = options
        self.coders = coders
        self.port = reader
        self.interner = interner
        self.metrics = None
        self.probe = probe

    def uint(self, name: str, value=None) -> int:
        return self.port.stream(name).uvarint()

    def sint(self, name: str, value=None) -> int:
        return self.port.stream(name).svarint()

    def u8(self, name: str, value=None) -> int:
        return self.port.stream(name).u8()

    def raw(self, name: str, size: int, data=None) -> bytes:
        return self.port.stream(name).raw(size)

    def text(self, len_stream: str, chars_stream: str,
             value=None) -> str:
        length = self.port.stream(len_stream).uvarint()
        return mutf8.decode(self.port.stream(chars_stream).raw(length))

    def ref(self, space: str, kind: str, stack_context, key=None):
        is_new, value = self.coders[space].decode(
            self.port.stream(wire.SPACES[space]), (kind, stack_context))
        if self.probe is not None:
            self.probe.append((space, kind, is_new))
        return is_new, value

    def register(self, space: str, kind: str, stack_context,
                 value) -> None:
        self.coders[space].register((kind, stack_context), value)

    def fail(self, message: str) -> None:
        raise UnpackError(message)
