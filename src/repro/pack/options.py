"""Options controlling the packed wire format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Codec execution backends.  Both produce byte-identical archives;
#: ``compiled`` runs the specialized closures emitted by
#: :mod:`repro.pack.codec_core.compile`, ``interpreted`` runs the
#: reference drivers in :mod:`repro.pack.codec_core.driver`.
CODEC_BACKENDS = ("interpreted", "compiled")

#: Fields that choose how a pack *runs*, never the bytes it emits.
#: Every byte- or key-shaped record of the options (the result-cache
#: key, the delta container's options record) leaves them out, so a
#: request's backend or budget can never decide which bytes a key
#: names.  ``seed`` is performance-only as well but still travels in
#: both records until the options are split by kind (ROADMAP item 4).
EXECUTION_ONLY_FIELDS = ("codec_backend", "memory_budget")

#: Pseudo-scheme: score the Table-3 scheme matrix with the count
#: driver (a no-bytes dry run) and pack with the predicted winner,
#: recording the choice in the archive header.  Resolved to a concrete
#: scheme by :mod:`repro.pack.select` before any codec runs.
AUTO_SCHEME = "auto"


@dataclass(frozen=True)
class PackOptions:
    """Configuration for :func:`repro.pack.pack_archive`.

    The defaults are the paper's final configuration: move-to-front
    references with transients and use-context (Section 5), stack-state
    opcode collapsing (Section 7.1), whole-archive sharing, and zlib
    entropy coding.
    """

    #: Reference scheme: simple | basic | freq | cache | mtf (Table 3),
    #: or ``auto`` — pick the smallest per archive (see
    #: :mod:`repro.pack.select`).
    scheme: str = "mtf"
    #: MTF variant: separate queues per (kind, top-two stack types).
    use_context: bool = True
    #: MTF variant: objects referenced exactly once are not enqueued.
    transients: bool = True
    #: Compute approximate stack state and collapse opcode families.
    stack_state: bool = True
    #: Run zlib over each stream (Table 5's "not gzip'd" turns it off).
    compress: bool = True
    #: zlib compression level.
    zlib_level: int = 9
    #: Seed the MTF coders with a standard dictionary of runtime names
    #: (the Section 14 "preloaded references" extension; MTF only).
    preload: bool = False
    #: Seed for the skiplist height PRNG (affects performance only).
    seed: int = 0
    #: Codec execution backend: interpreted | compiled.  Selects *how*
    #: the wire spec runs, never *what* it emits — the packed bytes are
    #: identical either way (see docs/PERFORMANCE.md).
    codec_backend: str = "compiled"
    #: Record the scheme variant in the archive header so unpack needs
    #: no side channel.  Set by ``scheme="auto"`` resolution; explicit
    #: packs leave it off, keeping their bytes identical to every
    #: pre-extension archive (and to the golden fixtures).
    record_scheme: bool = False
    #: Fraction of the reference trace ``--scheme=auto`` scoring
    #: replays through each candidate (1.0: the full trace).  Lower
    #: rates cut the ~3-5x scoring overhead proportionally; the keep
    #: mask is seeded and shared across candidates so the comparison
    #: stays apples-to-apples and the selection stays deterministic.
    #: Affects which scheme ``auto`` picks, never how a picked scheme
    #: encodes.
    auto_sample: float = 1.0
    #: Approximate encode-side memory target in bytes.  When set, the
    #: compressor writes through spill-to-disk stream buffers
    #: (:mod:`repro.pack.spool`): the count pass prices every stream,
    #: a window plan keeps small streams resident and spills the big
    #: ones, and serialization streams through temp files.  The packed
    #: bytes are identical to the unbounded path — this knob trades
    #: speed for a bounded resident set, never output.  ``None`` (the
    #: default) keeps everything in memory.
    memory_budget: Optional[int] = None

    def validate(self) -> "PackOptions":
        from ..errors import ReproError
        from ..refs.schemes import SCHEME_NAMES

        if self.scheme != AUTO_SCHEME and self.scheme not in SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; one of "
                f"{SCHEME_NAMES + [AUTO_SCHEME]}")
        if self.codec_backend not in CODEC_BACKENDS:
            raise ReproError(
                f"unknown codec backend {self.codec_backend!r}; "
                f"one of {list(CODEC_BACKENDS)}")
        if not 0.0 < self.auto_sample <= 1.0:
            raise ReproError(
                f"auto_sample must be in (0, 1], got {self.auto_sample}")
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ReproError(
                f"memory_budget must be a positive byte count, got "
                f"{self.memory_budget}")
        return self


#: The Table 3 experiment matrix: column label -> options.
TABLE3_VARIANTS = {
    "Simple": PackOptions(scheme="simple", use_context=False,
                          transients=False),
    "Basic": PackOptions(scheme="basic", use_context=False,
                         transients=False),
    "Freq": PackOptions(scheme="freq", use_context=False,
                        transients=False),
    "Cache": PackOptions(scheme="cache", use_context=False,
                         transients=False),
    "MTF Basic": PackOptions(scheme="mtf", use_context=False,
                             transients=False),
    "MTF Transients": PackOptions(scheme="mtf", use_context=False,
                                  transients=True),
    "MTF Use Context": PackOptions(scheme="mtf", use_context=True,
                                   transients=False),
    "MTF Transients and Context": PackOptions(scheme="mtf",
                                              use_context=True,
                                              transients=True),
}
