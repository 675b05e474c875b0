"""Structured observability for the codec pipeline.

Three cooperating pieces (each in its own module):

* :mod:`~repro.observe.trace` — nested timed spans recording the
  pipeline's phase structure (parse -> IR build -> counting pass ->
  encoding pass -> zlib, and the mirror phases on the decompressor),
* :mod:`~repro.observe.metrics` — counters, integer histograms, and
  per-stream byte tallies reported by the reference coders, the MTF
  skiplist, the stream writers, and the bytecode codec,
* :mod:`~repro.observe.profile` — a lightweight ``profile(name)``
  probe and an opt-in :mod:`cProfile` wrapper.

Everything hangs off an installable :class:`Recorder`.  By default the
:data:`NULL_RECORDER` is installed: its spans are shared no-op context
managers and its ``metrics`` attribute is ``None``, which is the flag
instrumented hot paths check — so with observability off (the
default) the pipeline pays one attribute load and branch per reported
event, nothing more.

Usage::

    from repro import observe

    with observe.recording() as rec:
        packed = pack_archive(classfiles)
    print(rec.trace.render())             # timing tree
    rec.metrics.to_dict()                 # counters/histograms/tallies
    observe.dump_json(rec, "metrics.json")

The CLI surfaces the same recording as ``repro pack --trace``,
``repro pack --metrics-json FILE``, and ``repro stats``.
"""

from .metrics import Histogram, Metrics
from .profile import ProfileResult, cprofile, profile
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    current,
    enabled,
    install,
    recording,
    uninstall,
)
from .report import HISTOGRAM_FIELDS, SCHEMA, dump_json, to_json
from .trace import Span, Trace

__all__ = [
    "HISTOGRAM_FIELDS",
    "Histogram",
    "Metrics",
    "NULL_RECORDER",
    "NullRecorder",
    "ProfileResult",
    "Recorder",
    "SCHEMA",
    "Span",
    "Trace",
    "cprofile",
    "current",
    "dump_json",
    "enabled",
    "install",
    "profile",
    "recording",
    "to_json",
    "uninstall",
]
