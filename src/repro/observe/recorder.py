"""Recorder installation: the zero-overhead on/off switch.

Instrumented code never checks a global flag on its hot paths.
Instead it asks :func:`current` for the installed recorder once, at
construction time, and either holds ``recorder.metrics`` (``None``
when disabled — sites guard with a single ``is not None`` branch) or
calls ``recorder.span(...)`` at phase granularity, where the disabled
recorder hands back a shared do-nothing context manager.

The default recorder is the module-level :data:`NULL_RECORDER`;
:func:`recording` installs a live one for the duration of a block::

    with observe.recording() as rec:
        packed = pack_archive(classfiles)
    print(rec.trace.render())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .metrics import Metrics
from .trace import Span, Trace


class _NullSpan:
    """A reusable context manager that does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: no trace, no metrics, no-op spans."""

    enabled = False
    trace: Optional[Trace] = None
    metrics: Optional[Metrics] = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def accumulator(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_RECORDER = NullRecorder()


class Recorder:
    """A live recorder bundling one trace and one metrics registry."""

    enabled = True

    def __init__(self):
        self.trace = Trace()
        self.metrics: Optional[Metrics] = Metrics()

    def span(self, name: str, **attrs: Any) -> Span:
        return self.trace.span(name, **attrs)

    def accumulator(self, name: str, **attrs: Any) -> Span:
        return self.trace.accumulator(name, **attrs)


_current = NULL_RECORDER


def current():
    """The installed recorder (the null recorder when disabled)."""
    return _current


def enabled() -> bool:
    return _current.enabled


def install(recorder: Optional[Recorder] = None) -> Recorder:
    """Install (and return) a recorder as the ambient one."""
    global _current
    if recorder is None:
        recorder = Recorder()
    _current = recorder
    return recorder


def uninstall() -> None:
    """Restore the disabled (null) recorder."""
    global _current
    _current = NULL_RECORDER


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Install a recorder for the duration of a ``with`` block.

    The previously installed recorder (usually the null one) is
    restored on exit, even on error, so nested recordings compose.
    """
    global _current
    previous = _current
    active = install(recorder)
    try:
        yield active
    finally:
        _current = previous
