"""One repetition of a roundtrip workload, in a fresh interpreter.

``run.py`` spawns this once per repetition, so no heap or GC state
carries from one repetition into the next (in-process repetitions
slow each other by up to 45%).  Per archive it times jar bytes ->
``parse_class`` -> pack -> unpack -> ``write_class``, then prints one
JSON object::

    python roundtrip.py --corpus DIR --jars a.jar,b.jar
        [--budget BYTES] [--check] [--trace]

``--budget`` packs with ``memory_budget`` through ``pack_archive_to``
into a temp file and drains ``iter_unpack_archive``.  ``--check``
verifies the output after the timed region.  ``--trace`` records the
per-layer ledger: benchmark spans around the class-file layer, the
spans ``pack_archive``/``unpack_archive`` emit under
``observe.recording()``, codec counters, and GC pauses.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
import zipfile
from pathlib import Path

from repro import (
    PackOptions,
    archives_equal,
    observe,
    pack_archive,
    parse_class,
    unpack_archive,
    write_class,
)
from repro.pack import iter_unpack_archive, pack_archive_to

from harness import GcClock

#: setup_s ends here: the program (and its compiled codec) is imported.
SETUP_DONE = time.monotonic()

#: Program span name -> ledger metric.
LAYER_SPANS = {
    "classfile.parse": "classfile.parse_s",
    "ir.build": "ir.build_s",
    "count": "codec.count_s",
    "encode": "codec.encode_s",
    "serialize": "codec.serialize_s",
    "inflate": "codec.inflate_s",
    "decode": "codec.decode_s",
    "reconstruct": "ir.reconstruct_s",
    "classfile.write": "classfile.write_s",
}


def jar_classes(data: bytes):
    with zipfile.ZipFile(io.BytesIO(data)) as jar:
        return [jar.read(name) for name in jar.namelist()
                if name.endswith(".class")]


def roundtrip(jar: bytes, budget: int):
    """``(pack seconds, unpack seconds, packed bytes, class bytes)``."""
    rec = observe.current()
    start = time.perf_counter()
    with rec.span("classfile.parse"):
        classes = [parse_class(data) for data in jar_classes(jar)]
    if budget:
        with tempfile.TemporaryFile() as out:
            pack_archive_to(classes, out, PackOptions(memory_budget=budget))
            packed_at = time.perf_counter()
            out.seek(0)
            packed = out.read()
        with rec.span("unpack"):
            writing = rec.accumulator("classfile.write")
            written = []
            for classfile in iter_unpack_archive(packed):
                with writing:
                    written.append(write_class(classfile))
    else:
        packed = pack_archive(classes)
        packed_at = time.perf_counter()
        restored = unpack_archive(packed)
        with rec.span("classfile.write"):
            written = [write_class(classfile) for classfile in restored]
    end = time.perf_counter()
    return packed_at - start, end - packed_at, packed, written


def check(jar: bytes, packed: bytes, written) -> list:
    """Problems with one archive's output (empty when correct)."""
    source = [parse_class(data) for data in jar_classes(jar)]
    by_name = {classfile.name: classfile
               for classfile in map(parse_class, written)}
    if sorted(by_name) != sorted(c.name for c in source):
        return ["unpacked class names differ from the input"]
    # The streamed unpack yields load order; compare in input order.
    restored = [by_name[classfile.name] for classfile in source]
    problems = []
    if not archives_equal(source, restored):
        problems.append("unpacked classes differ from the input")
    if pack_archive(restored) != packed:
        problems.append("pack_archive(unpack(x)) does not reproduce the "
                        "packed bytes")
    return problems


def spill_probe(spilled: list):
    """Record ``spool_stats()`` of every spooled stream set as it
    serializes (the budgeted path's spill volume)."""
    from repro.pack.spool import SpoolStreamSet

    original = SpoolStreamSet.serialize_to

    def serialize_to(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            spilled.append(self.spool_stats()["spilled_bytes"])

    SpoolStreamSet.serialize_to = serialize_to


def ledger(rec, clock: GcClock, spilled: list) -> dict:
    """Per-layer seconds and counts from one traced repetition."""
    layers = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    layers["pack.other_s"] = 0.0
    pending = list(rec.trace.spans)
    while pending:
        span = pending.pop()
        if span.name in LAYER_SPANS:
            layers[LAYER_SPANS[span.name]] += span.seconds
        if span.name == "pack":
            layers["pack.other_s"] += span.seconds - span.child_seconds()
        pending.extend(span.children)
    counters = rec.metrics.counters
    refs = sum(counters.get(name, 0)
               for name in ("mtf.hit", "mtf.new", "mtf.transient"))
    layers.update({
        "gc.pause_s": clock.pause_s,
        "gc.gen2_collections": clock.gen2,
        "bytecode.instructions": counters.get("bytecode.instructions", 0),
        "refs.mtf_hit_ratio": counters.get("mtf.hit", 0) / refs
        if refs else 0.0,
        "spool.spilled_bytes": sum(spilled),
    })
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--jars", required=True,
                        help="comma-separated jar names, in pack order")
    parser.add_argument("--budget", type=int, default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    jars = [(args.corpus / name).read_bytes()
            for name in args.jars.split(",")]

    clock, spilled = GcClock(), []
    recording = contextlib.nullcontext()
    if args.trace:
        spill_probe(spilled)
        gc.callbacks.append(clock)
        recording = observe.recording()
    archives = []
    with recording as rec:
        for jar in jars:
            archives.append(roundtrip(jar, args.budget))
    if args.trace:
        gc.callbacks.remove(clock)
    result = {
        "setup_done": SETUP_DONE,
        "pack_s": sum(a[0] for a in archives),
        "unpack_s": sum(a[1] for a in archives),
        "archives_s": [[a[0], a[1]] for a in archives],
        "packed_bytes": sum(len(a[2]) for a in archives),
        "digests": [hashlib.sha256(a[2]).hexdigest() for a in archives],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        result["layers"] = ledger(rec, clock, spilled)
    if args.check:
        result["problems"] = [
            f"{name}: {problem}"
            for name, jar, (_, _, packed, written)
            in zip(args.jars.split(","), jars, archives)
            for problem in check(jar, packed, written)]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
