"""Memory-bounded streaming pack at scale: identity and a hard cap.

The acceptance gate for the spill-to-disk encode path: packing a
1000+-class shaped corpus with a ``memory_budget`` must produce bytes
identical to the in-memory path on **both** codec backends and must
keep at most the budget resident — so everything of the raw stream
total beyond the budget has to be on disk at the end.  The codec
phases must not allocate more than the in-memory path's do, and the
serialize phase — where the in-memory path materializes the frame
plus both compression candidates, i.e. the whole-archive footprint —
must stay under a hard allocation cap well below that footprint.

Each configuration runs in its own subprocess
(``_stream_pack_child.py``) with ``tracemalloc`` started *after*
corpus generation and IR build, so the measured peaks are the pack
phases alone.  Process-level RSS is recorded for the report but not
gated: at megabyte scale the interpreter's allocator reuses arenas
freed by corpus generation, so ``ru_maxrss`` deltas measure the
corpus, not the codec (methodology in ``docs/PERFORMANCE.md``).  The
cap is enforced twice — inside the child (exit status 3 on breach)
and re-asserted here from the reported numbers.

The JSON report is written to ``BENCH_stream_pack.json`` at the repo
root and committed, produced at the full ``SHAPE_CLASSES`` scale;
CI's smoke job shrinks the corpus via ``REPRO_BENCH_SHAPE_CLASSES``
and does not commit.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import SHAPE_CLASSES

from conftest import print_table

#: Class count; override to shrink CI smoke runs.
CLASSES = int(os.environ.get("REPRO_BENCH_SHAPE_CLASSES",
                             SHAPE_CLASSES))

#: The shape under test.  ``const_heavy`` has the largest stream
#: total of the four shapes, so it exercises the widest spill.
SHAPE = "const_heavy"

#: Spool budget: far below the shape's ~1.4 MB stream total, so most
#: stream bytes must spill, yet large enough that the run is not
#: dominated by flush overhead.
BUDGET = 64 * 1024

#: Hard cap on serialize-phase allocation for the budgeted path:
#: the spool windows plus chunked zlib copies, with slack.  At full
#: scale the in-memory path's serialize phase allocates ~3.4 MB here
#: (the whole-archive footprint); the cap sits well below it, and the
#: gap is asserted to be at least 2x.
SERIALIZE_CAP = max(16 * BUDGET, 1 << 20)

RUNS = [("full", "compiled"), ("full", "interpreted"),
        ("stream", "compiled"), ("stream", "interpreted")]

CHILD = Path(__file__).resolve().parent / "_stream_pack_child.py"
REPORT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_stream_pack.json"


def _run_child(mode: str, backend: str) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    cmd = [sys.executable, str(CHILD), "--mode", mode,
           "--backend", backend, "--shape", SHAPE,
           "--classes", str(CLASSES), "--budget", str(BUDGET)]
    if mode == "stream":
        cmd += ["--serialize-cap-bytes", str(SERIALIZE_CAP)]
    proc = subprocess.run(cmd, env=env, capture_output=True,
                          text=True, timeout=1800)
    assert proc.returncode == 0, (
        f"{mode}/{backend} child failed (exit {proc.returncode}):\n"
        f"{proc.stderr}")
    return json.loads(proc.stdout)


def test_stream_pack_identity_under_cap():
    results = {f"{mode}/{backend}": _run_child(mode, backend)
               for mode, backend in RUNS}

    digests = {key: run["digest"] for key, run in results.items()}
    assert len(set(digests.values())) == 1, (
        "packed bytes differ across modes/backends: " + repr(digests))

    for key, run in results.items():
        if run["spool"] is None:
            continue
        assert run["spool"]["spilled_streams"] > 0, key
        # At most BUDGET bytes are resident after every write, so the
        # rest of the raw stream total must have been spilled.
        assert run["spool"]["spilled_bytes"] >= \
            run["stream_bytes"] - BUDGET, (
                f"{key}: {run['stream_bytes']} stream bytes but only "
                f"{run['spool']['spilled_bytes']} spilled under a "
                f"{BUDGET}-byte budget")
        # The hard cap, re-asserted from the child's numbers (the
        # child already enforced it with exit status 3).
        assert run["serialize_delta_kb"] * 1024 <= SERIALIZE_CAP, key

    for backend in ("compiled", "interpreted"):
        # Bounding the streams must not cost codec-phase memory: the
        # budgeted count and encode allocate no more than in-memory.
        full = results[f"full/{backend}"]
        stream = results[f"stream/{backend}"]
        assert stream["codec_peak_kb"] <= full["codec_peak_kb"], (
            f"{backend}: budgeted codec peak {stream['codec_peak_kb']}K "
            f"over in-memory {full['codec_peak_kb']}K")

    full = results["full/compiled"]
    stream = results["stream/compiled"]
    if CLASSES >= SHAPE_CLASSES:
        # At full scale the cap must be *meaningful*: the in-memory
        # serialize phase (whole-archive footprint) allocates at
        # least twice what the budgeted path does.
        assert full["serialize_delta_kb"] >= \
            2 * stream["serialize_delta_kb"], (
                f"in-memory serialize {full['serialize_delta_kb']}K "
                f"vs budgeted {stream['serialize_delta_kb']}K: cap "
                "no longer sits well below the in-memory footprint")

    rows = [[key, run["packed_bytes"], run["stream_bytes"],
             run["codec_peak_kb"],
             run["serialize_delta_kb"],
             run["spool"]["spilled_bytes"] if run["spool"] else "-",
             run["ru_maxrss_kb"],
             f"{run['seconds']['codec'] + run['seconds']['serialize']:.1f}s"]
            for key, run in results.items()]
    print_table(
        f"streaming pack, {SHAPE} x{CLASSES} (budget {BUDGET}B, "
        f"cap {SERIALIZE_CAP}B)",
        ["run", "packed B", "stream B", "codec peak K", "ser delta K",
         "spilled B", "maxrss K", "pack t"],
        rows)

    report = {
        "schema": "repro.bench.stream_pack/1",
        "shape": SHAPE,
        "classes": CLASSES,
        "budget_bytes": BUDGET,
        "serialize_cap_bytes": SERIALIZE_CAP,
        "digest": next(iter(digests.values())),
        "python": platform.python_version(),
        "runs": results,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2,
                                      sort_keys=True) + "\n")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
