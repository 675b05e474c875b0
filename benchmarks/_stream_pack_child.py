"""Subprocess worker for ``test_stream_pack.py``.

One fresh interpreter per (mode, backend) run, so allocator state from
one configuration cannot leak into another's measurements.  The child
generates the shaped corpus, builds the IR, and only then starts
``tracemalloc`` — the reported peaks cover the *pack* phases alone,
not corpus generation (which dominates process RSS and is identical
for every mode; see ``docs/PERFORMANCE.md``).

Two phase measurements come out:

* ``codec_peak_kb`` — peak traced allocation across the count and
  encode passes (stream writers and coder state);
* ``serialize_delta_kb`` — peak traced allocation *growth* over the
  post-codec baseline while serializing the container.  This is the
  phase the spool layer bounds: the in-memory path materializes the
  frame plus both compression candidates here, the budgeted path
  streams spool chunks through temp files.

The pack mirrors :meth:`Compressor.pack_to` with a reset_peak between
the codec and serialize phases; output bytes are identical (digest
asserted by the parent across all runs).

With ``--serialize-cap-bytes`` the child enforces the cap itself and
exits with status 3 if the serialize phase allocated more — the
"pack under a hard cap" acceptance run fails loudly, not by a parent
comparison after the fact.

The report also carries ``stream_bytes``, the raw (pre-zlib) total
of every stream, which bounds how little a budgeted pack may spill.

Prints one JSON object to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import tracemalloc

from repro.classfile.classfile import write_class
from repro.corpus import generate_shape
from repro.ir.build import build_archive
from repro.jar.formats import strip_classes
from repro.pack.compressor import Compressor
from repro.pack.options import PackOptions
from repro.pack.spool import SpoolStreamSet


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["full", "stream"],
                        required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--shape", default="const_heavy")
    parser.add_argument("--classes", type=int, required=True)
    parser.add_argument("--budget", type=int, default=64 * 1024)
    parser.add_argument("--scheme", default="mtf")
    parser.add_argument("--serialize-cap-bytes", type=int, default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    classes = strip_classes(generate_shape(args.shape,
                                           classes=args.classes))
    ordered = [classes[name] for name in sorted(classes)]
    raw_bytes = sum(len(write_class(classfile)) for classfile in ordered)
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    archive = build_archive(ordered)
    build_s = time.perf_counter() - t0

    options = PackOptions(
        scheme=args.scheme,
        codec_backend=args.backend,
        memory_budget=args.budget if args.mode == "stream" else None)
    compressor = Compressor(options)

    tracemalloc.start()
    t0 = time.perf_counter()
    compressor._run_codec(archive)
    codec_s = time.perf_counter() - t0
    codec_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]

    out = io.BytesIO()
    t0 = time.perf_counter()
    out.write(compressor._header())
    if isinstance(compressor.streams, SpoolStreamSet):
        compressor.streams.serialize_to(out, compress=options.compress,
                                        level=options.zlib_level)
        spool = compressor.streams.spool_stats()
    else:
        out.write(compressor.streams.serialize(
            compress=options.compress, level=options.zlib_level))
        spool = None
    serialize_s = time.perf_counter() - t0
    serialize_delta = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()

    data = out.getvalue()
    report = {
        "mode": args.mode,
        "backend": args.backend,
        "shape": args.shape,
        "classes": len(ordered),
        "budget_bytes": args.budget if args.mode == "stream" else None,
        "raw_bytes": raw_bytes,
        "packed_bytes": len(data),
        "stream_bytes": sum(compressor.streams.raw_sizes().values()),
        "digest": hashlib.sha256(data).hexdigest(),
        "codec_peak_kb": codec_peak // 1024,
        "serialize_delta_kb": serialize_delta // 1024,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spool": spool,
        "seconds": {
            "generate": round(generate_s, 3),
            "build": round(build_s, 3),
            "codec": round(codec_s, 3),
            "serialize": round(serialize_s, 3),
        },
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")

    cap = args.serialize_cap_bytes
    if cap is not None and serialize_delta > cap:
        print(f"serialize phase allocated {serialize_delta} bytes, "
              f"over the {cap}-byte cap", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
