"""Shared plumbing for the end-to-end benchmark: paths, child
processes, and order statistics.

Everything that imports the program runs in a child process started
through :func:`spawn_json`; the orchestrator (``run.py``) and the
load generator use only the standard library, so their own heap never
shares a process with the code under measurement.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Corpus cache, temp files and result files (gitignored).
REPORTS = ROOT / "benchmarks" / "reports" / "e2e"

#: Every child gets this long before the run counts it as failed.
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A benchmark child exited non-zero or printed no result."""


def child_env(hash_seed: int, tmp_dir: Path) -> Dict[str, str]:
    """Environment for a child: the program on ``PYTHONPATH``, a fixed
    string-hash seed, temp files kept inside the checkout, and a
    bytecode cache of the benchmark's own, so ``setup_s`` always times
    an import with warm bytecode (as an installed program has) whatever
    ``__pycache__`` directories or ``PYTHONDONTWRITEBYTECODE`` the
    checkout comes with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    env["PYTHONHASHSEED"] = str(hash_seed % 4294967296)
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONPYCACHEPREFIX"] = str(REPORTS / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn_json(script: str, args: Sequence[str], env: Dict[str, str],
               timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``script`` from this directory in a fresh interpreter and
    return the JSON object on the last line of its stdout.

    ``spawned`` in the result is the monotonic time just before the
    spawn, so a child that records ``time.monotonic()`` after its
    imports reports its own set-up time (CLOCK_MONOTONIC is
    system-wide).
    """
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{script} {' '.join(args)} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def roundtrip_rep(corpus: str, jars: Sequence[str], env: Dict[str, str],
                  budget: int = 0, check: bool = False,
                  trace: bool = False) -> dict:
    """One ``roundtrip.py`` repetition; adds its ``setup_s``."""
    args = ["--corpus", corpus, "--jars", ",".join(jars),
            "--budget", str(budget)]
    args += ["--check"] * check + ["--trace"] * trace
    rep = spawn_json("roundtrip.py", args, env)
    rep["setup_s"] = rep["setup_done"] - rep["spawned"]
    return rep


class GcClock:
    """A ``gc.callbacks`` probe: total pause and gen-2 collections."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        if info["generation"] == 2:
            self.gen2 += 1


def best_of(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Elementwise minimum of repeated timings of the same work.

    The hosts this benchmark was built on slow every process by up to
    40% in windows of a few seconds.  Contention only ever adds time,
    so the minimum over repetitions estimates the program's own cost,
    and it varies far less from run to run than the median does.
    """
    return [min(column) for column in zip(*repetitions)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1): at ``q = 0.99`` over
    1000+ samples at least ten samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(values: List[float]) -> Optional[dict]:
    """Median, p99 and count of a sample list (None when empty)."""
    if not values:
        return None
    return {"p50": median(values), "p99": percentile(values, 0.99),
            "count": len(values)}
