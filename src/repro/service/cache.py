"""Content-addressed result cache for packed archives.

The key is ``SHA-256(input class bytes + canonicalized options)``:
identical inputs packed with identical options hit regardless of how
the input arrived (jar, directory, HTTP body) or which process packed
it.  Input-shaping flags (``strip``/``eager``) are part of the key —
they change the packed bytes.

Two storage levels:

* an in-memory LRU bounded by a **byte** budget (packed archives vary
  from hundreds of bytes to megabytes, so counting entries would be
  meaningless), and
* an optional on-disk spill directory.  Puts write through to disk,
  so the store doubles as a persistent cache across processes —
  a second ``repro batch`` run over the same corpus is served from
  disk even though the first process is gone.  Memory evictions are
  then free (the bytes are already on disk); without a spill
  directory, eviction simply discards.

Everything is guarded by one lock; the cache is shared by the batch
engine's orchestrator threads and by every ``repro serve`` request
thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..pack import wire
from ..pack.options import EXECUTION_ONLY_FIELDS, PackOptions

#: Version tag folded into every key so a cache-layout change can bump
#: it and orphan the old entries instead of serving them.  The wire
#: format's own version byte is folded in separately (below), so a new
#: archive version orphans stale packed bytes automatically — no
#: manual bump needed for format changes.
KEY_VERSION = b"repro.service.cache/1"

#: Default in-memory budget: 64 MiB.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def spill_safe(key: str) -> bool:
    """Whether a key may be used to name a spill file.

    The front ends validate network-supplied keys against the strict
    64-hex grammar before any cache access; this is the cache's own
    last line of defense, so even a future caller that forgets to
    validate cannot turn a key like ``../../etc/passwd`` into a path
    outside the spill directory.  Internal derived keys
    (``<digest>-meta``) stay admissible: only path separators and
    leading dots (``.``/``..``) are refused.
    """
    return bool(key) and "/" not in key and "\\" not in key \
        and not key.startswith(".")


def canonical_options(options: PackOptions,
                      strip: bool = False,
                      eager: bool = False) -> str:
    """A stable, human-auditable serialization of everything that may
    change the packed bytes."""
    # The execution-only fields select *how* a pack runs, not what it
    # emits: interpreted and compiled archives are byte-identical
    # (the lockstep tests), and so are spilled and in-memory ones
    # (tests/test_spool), so neither may split the cache.
    # ``scheme="auto"`` is the opposite case and stays in the key:
    # selection is deterministic, but auto output differs byte-wise
    # from the same archive packed with the winning scheme explicitly
    # (the header records the choice), so they must not share entries.
    fields = {name: value
              for name, value in dataclasses.asdict(options).items()
              if name not in EXECUTION_ONLY_FIELDS}
    fields["strip"] = strip
    fields["eager"] = eager
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def cache_key(classes: Dict[str, bytes],
              options: PackOptions,
              strip: bool = False,
              eager: bool = False) -> str:
    """SHA-256 over the sorted class entries plus canonical options
    (and the wire-format version the bytes would be packed as)."""
    digest = hashlib.sha256()
    digest.update(KEY_VERSION)
    digest.update(bytes([wire.VERSION]))
    for name in sorted(classes):
        data = classes[name]
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    digest.update(b"\0")
    digest.update(canonical_options(options, strip, eager)
                  .encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """Byte-budgeted LRU of packed archives with optional disk spill."""

    def __init__(self,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 spill_dir: Optional[Path] = None):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.spill_dir = Path(spill_dir) if spill_dir else None
        if self.spill_dir:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

    # -- internals (lock held) ------------------------------------------

    def _spill_path(self, key: str) -> Path:
        # Two-level fan-out keeps any one directory small even with
        # hundreds of thousands of entries.
        return self.spill_dir / key[:2] / key

    def _evict_to_budget(self) -> None:
        while self._current_bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._current_bytes -= len(evicted)
            self.evictions += 1

    def _admit(self, key: str, data: bytes) -> None:
        if len(data) > self.max_bytes:
            return  # would evict everything else and still not fit
        self._entries[key] = data
        self._entries.move_to_end(key)
        self._current_bytes += len(data)
        self._evict_to_budget()

    # -- public API ------------------------------------------------------

    def get(self, key: str) -> Tuple[Optional[bytes], bool]:
        """``(data, from_disk)`` — ``(None, False)`` on a miss."""
        with self._lock:
            data = self._entries.get(key)
            if data is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return data, False
            if self.spill_dir and spill_safe(key):
                path = self._spill_path(key)
                try:
                    data = path.read_bytes()
                except OSError:
                    data = None
                if data is not None:
                    self._admit(key, data)
                    self.hits += 1
                    self.disk_hits += 1
                    return data, True
            self.misses += 1
            return None, False

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            if key not in self._entries:
                self._admit(key, data)
            if self.spill_dir and spill_safe(key):
                path = self._spill_path(key)
                if not path.exists():
                    path.parent.mkdir(parents=True, exist_ok=True)
                    tmp = path.with_suffix(".tmp")
                    tmp.write_bytes(data)
                    tmp.replace(path)  # atomic vs. concurrent readers

    def evict_lru(self) -> int:
        """Evict the least-recently-used entry regardless of budget;
        returns the bytes freed (0 when empty).  Lets a wrapper — the
        sharded cache's global-budget accounting — drive eviction
        across several instances."""
        with self._lock:
            if not self._entries:
                return 0
            _, evicted = self._entries.popitem(last=False)
            self._current_bytes -= len(evicted)
            self.evictions += 1
            return len(evicted)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    def clear(self) -> None:
        """Drop the in-memory level (the spill store is untouched)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "spill_dir": str(self.spill_dir)
                if self.spill_dir else None,
            }
