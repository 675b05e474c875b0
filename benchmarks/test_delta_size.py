"""Delta-size guard: incremental updates must beat re-shipping.

Not a paper table — this guards the economic claim of the
``repro.delta`` subsystem: when at most 10% of a corpus's classes
change between two builds, the delta container must cost **at most
30%** of the full packed archive (the acceptance bar; in practice it
lands near 10-17% on the medium suites).  Each scenario also
round-trips the delta through ``patch`` and checks byte-identity, so
the size being measured is the size of a *working* update.

The measurements are written as a JSON report
(``benchmarks/reports/delta_size.json`` by default,
``DELTA_SIZE_REPORT`` overrides) which CI uploads as a workflow
artifact, so the ratio's drift is visible across runs without
rerunning anything.  Each row also records the wall time of its one
``diff_packed`` and one ``patch_packed`` call (``diff_ms``,
``patch_ms``): single runs on whatever host ran the suite, for
spotting drift between runs, not a gate.
"""

import copy
import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.delta import diff_packed, patch_packed
from repro.pack import PackOptions, pack_archive

from conftest import print_table, suite_classfiles

#: The hard acceptance bar: delta <= 30% of the full pack when <= 10%
#: of the classes changed.
RATIO_CEILING = 0.30

#: Medium suites spanning class counts (12-27) and code shapes.
SUITES = ["javac", "jess", "jack"]

REPORT_PATH = Path(os.environ.get(
    "DELTA_SIZE_REPORT",
    Path(__file__).parent / "reports" / "delta_size.json"))


def _mutate(classes, count):
    """Copy the corpus with ``count`` classes semantically changed
    (ACC_FINAL toggled), spread across the archive."""
    mutated = [copy.deepcopy(classfile) for classfile in classes]
    n = len(mutated)
    for i in range(count):
        mutated[(i * 7) % n].access_flags ^= 0x0010
    return mutated


def _measure(suite):
    classes = suite_classfiles(suite)
    n = len(classes)
    options = PackOptions()
    base = pack_archive(classes, options)
    rows = []
    for label, changed in [("1-class", 1),
                           ("10pct", max(1, math.floor(n * 0.10)))]:
        target = pack_archive(_mutate(classes, changed), options)
        start = time.perf_counter()
        delta, summary = diff_packed(base, target, options)
        diff_s = time.perf_counter() - start
        start = time.perf_counter()
        patched, _ = patch_packed(base, delta)
        patch_s = time.perf_counter() - start
        assert patched == target, (
            f"{suite}/{label}: patched bytes differ from fresh pack")
        rows.append({
            "suite": suite, "scenario": label, "classes": n,
            "changed": summary.modified,
            "delta_bytes": len(delta), "full_bytes": len(target),
            "ratio": round(summary.ratio, 4),
            "diff_ms": round(diff_s * 1000, 1),
            "patch_ms": round(patch_s * 1000, 1),
        })
    return rows


@pytest.fixture(scope="module")
def measurements():
    rows = []
    for suite in SUITES:
        rows.extend(_measure(suite))
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps({
        "schema": "repro.benchmarks.delta_size/1",
        "ratio_ceiling": RATIO_CEILING,
        "rows": rows,
    }, indent=2) + "\n")
    return rows


def test_delta_is_fraction_of_full_pack(measurements):
    print_table(
        "Delta size vs. full pack (<= 10% of classes changed)",
        ["suite", "scenario", "classes", "changed", "delta", "full",
         "ratio", "diff ms", "patch ms"],
        [[r["suite"], r["scenario"], r["classes"], r["changed"],
          r["delta_bytes"], r["full_bytes"], f"{r['ratio']:.1%}",
          r["diff_ms"], r["patch_ms"]]
         for r in measurements])
    print(f"report written to {REPORT_PATH}")
    for row in measurements:
        assert row["ratio"] <= RATIO_CEILING, (
            f"{row['suite']}/{row['scenario']}: delta is "
            f"{row['ratio']:.1%} of the full pack "
            f"(ceiling {RATIO_CEILING:.0%})")


def test_single_class_change_on_standard_corpus(measurements):
    """The acceptance criterion verbatim: one changed class on the
    standard (javac) corpus stays under 30% of the full pack."""
    row = next(r for r in measurements
               if r["suite"] == "javac" and r["scenario"] == "1-class")
    assert row["changed"] == 1
    assert row["ratio"] < RATIO_CEILING
