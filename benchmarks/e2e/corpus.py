"""Benchmark inputs: canonical corpora, generated once and cached as
jar bytes.

Runs as a child of ``run.py`` (it imports the program; the
orchestrator does not)::

    python corpus.py --workload large_archive [--smoke]
        [--seed N --releases K --release-dir DIR]

and prints one JSON object: the cache directory, its jars in pack
order, their raw class bytes, and the seconds generation took (0.0
when the jars were already cached).  The cache key is a digest of
every spec field, so a changed spec regenerates instead of reusing
stale jars.

The corpora are the repository's canonical ones (``SUITE_SPECS`` and
the ``shape_spec`` default seeds) at every benchmark seed: generating
a 400-class corpus costs about as much as packing and unpacking it
three times, and the packed ratio differs by about 2% between corpus
seeds, far more than its 0.1% bound.  The seed instead drives what is
cheap to vary and leaves sizes alone: the order in which the suites
are processed, the string-hash seed of every child, and the served
release chain (which classes each release changes).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import make_jar, parse_class, strip_classes, write_class
from repro.corpus import SUITE_ORDER, SUITE_SPECS, generate_from_spec, \
    shape_spec
from repro.jar import read_jar

from harness import REPORTS

#: Classes in the large_archive / budgeted_archive input.  The
#: 1100-class ROADMAP scale takes ~19 s per repetition here, which the
#: benchmark's time cap cannot fit three times per run on every
#: workload; 400 classes keep the object-graph layers dominant.
LARGE_CLASSES = 400
#: Classes in the served application (one release).  The first delta
#: of each release runs diff_packed on the gateway's own interpreter
#: (~0.3 s at this size, ~0.7 s at 60 classes); twenty of them per
#: 20 s window must leave that interpreter time to serve downloads.
APP_CLASSES = 24
#: Smoke scale, for every shaped corpus (CI sets the variable).
SMOKE_CLASSES = int(os.environ.get("REPRO_BENCH_SHAPE_CLASSES", "24"))
SMOKE_SUITES = ["Hanoi", "Hanoi_big", "Hanoi_jax", "db", "compress"]

#: Share of the application's classes each release changes.
RELEASE_CHURN = 0.02
ACC_FINAL, ACC_INTERFACE, ACC_ABSTRACT = 0x0010, 0x0200, 0x0400

#: Bump to orphan cached jars when the jar layout below changes.
JAR_FORMAT = 1


def specs_for(workload: str, smoke: bool):
    """``(jar stem, SuiteSpec)`` pairs for one workload's input."""
    if workload in ("large_archive", "budgeted_archive"):
        classes = SMOKE_CLASSES if smoke else LARGE_CLASSES
        return [("const_heavy", shape_spec("const_heavy", classes))]
    if workload == "paper_suites":
        names = SMOKE_SUITES if smoke else SUITE_ORDER
        return [(name, SUITE_SPECS[name]) for name in names]
    if workload == "serve_releases":
        classes = SMOKE_CLASSES if smoke else APP_CLASSES
        return [("app", shape_spec("interface_heavy", classes))]
    raise KeyError(workload)


def jar_of(entries) -> bytes:
    """A deterministic deflated jar of ``(class name, bytes)`` pairs,
    in the given order."""
    return make_jar((name + ".class", data) for name, data in entries)


def _generate(specs, target: Path) -> dict:
    """Generate, strip and jar every spec into ``target``.  Classes
    are ordered by internal name, which is also the order the served
    engine packs them in."""
    manifest = {"jars": [], "raw_bytes": {}, "classes": 0}
    for stem, spec in specs:
        classes = strip_classes(generate_from_spec(spec))
        entries = [(c.name, write_class(c))
                   for c in sorted(classes.values(), key=lambda c: c.name)]
        (target / f"{stem}.jar").write_bytes(jar_of(entries))
        manifest["jars"].append(f"{stem}.jar")
        manifest["raw_bytes"][f"{stem}.jar"] = sum(
            len(data) for _, data in entries)
        manifest["classes"] += len(entries)
    (target / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def ensure_corpus(workload: str, smoke: bool):
    """The cached corpus directory and manifest, generating on a miss.
    Returns ``(directory, manifest, generate seconds)``."""
    specs = specs_for(workload, smoke)
    key = hashlib.sha256(json.dumps(
        [JAR_FORMAT] + [[stem, dataclasses.astuple(spec)]
                        for stem, spec in specs]).encode()).hexdigest()
    directory = REPORTS / "corpus" / f"{specs[0][0]}-{key[:16]}"
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        return directory, json.loads(manifest_path.read_text()), 0.0
    start = time.perf_counter()
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=directory.parent))
    try:
        manifest = _generate(specs, staging)
        staging.rename(directory)
    except OSError:
        if not manifest_path.exists():  # lost no race: a real error
            raise
        manifest = json.loads(manifest_path.read_text())
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return directory, manifest, time.perf_counter() - start


def write_releases(app_jar: Path, seed: int, count: int,
                   out: Path) -> list:
    """The served release chain: release 0 is the application, and
    each later release toggles ACC_FINAL on ``RELEASE_CHURN`` of the
    concrete classes of the one before, chosen by ``seed``."""
    entries = [(name[:-len(".class")], data)
               for name, data in read_jar(app_jar.read_bytes())]
    concrete = [i for i, (_, data) in enumerate(entries)
                if not parse_class(data).access_flags
                & (ACC_INTERFACE | ACC_ABSTRACT)]
    churn = max(1, round(RELEASE_CHURN * len(entries)))
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    releases = []
    for index in range(count):
        if index:
            for i in rng.sample(concrete, min(churn, len(concrete))):
                classfile = parse_class(entries[i][1])
                classfile.access_flags ^= ACC_FINAL
                entries[i] = (entries[i][0], write_class(classfile))
        path = out / f"release-{index:03d}.jar"
        path.write_bytes(jar_of(entries))
        releases.append({"jar": path.name, "raw_bytes": sum(
            len(data) for _, data in entries)})
    return releases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--releases", type=int, default=0)
    parser.add_argument("--release-dir", type=Path)
    args = parser.parse_args()
    directory, manifest, seconds = ensure_corpus(args.workload,
                                                 args.smoke)
    result = {"dir": str(directory), "generate_s": seconds,
              "cached": seconds == 0.0, **manifest}
    if args.releases:
        result["releases"] = write_releases(
            directory / manifest["jars"][0], args.seed, args.releases,
            args.release_dir)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
