"""Golden delta digests: the byte-identity guard for ``repro.delta``.

Every golden variant (``make_golden.golden_variants``) is diffed in
three release scenarios on ``make_golden.golden_corpus``: one class
modified, one added, one removed.  The SHA-256 of each
``diff_packed`` container is checked in as
``tests/fixtures/golden/deltas.json``.

``test_delta.py::TestGoldenDeltas`` asserts that both codec backends
and a memory budget reproduce those digests, and that ``patch_packed``
rebuilds every target from its delta.  Regenerate (only for a
deliberate, versioned delta-format change) with::

    PYTHONPATH=src python tests/make_golden_deltas.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from make_golden import (  # noqa: E402 - needs the path set above
    FIXTURE_DIR,
    golden_corpus,
    golden_variants,
)

DELTAS_PATH = FIXTURE_DIR / "deltas.json"

#: The release scenarios, each a change to one golden class.
SCENARIOS = ("modified", "added", "removed")

#: Which corpus class each scenario changes.
CHANGED_INDEX = 2


def scenario_corpora(corpus: List, scenario: str) -> Tuple[List, List]:
    """``(base classes, target classes)`` for one scenario."""
    without = corpus[:CHANGED_INDEX] + corpus[CHANGED_INDEX + 1:]
    if scenario == "modified":
        target = list(corpus)
        mutated = copy.deepcopy(corpus[CHANGED_INDEX])
        mutated.access_flags ^= 0x0010  # ACC_FINAL
        target[CHANGED_INDEX] = mutated
        return corpus, target
    if scenario == "added":
        return without, corpus
    if scenario == "removed":
        return corpus, without
    raise ValueError(f"unknown scenario {scenario!r}")


def scenario_packs(corpus: List, options, scenario: str
                   ) -> Tuple[bytes, bytes]:
    """``(base packed, target packed)`` for one variant and scenario."""
    from repro.pack import pack_archive

    base, target = scenario_corpora(corpus, scenario)
    return pack_archive(base, options), pack_archive(target, options)


def delta_digests() -> Dict[str, str]:
    """``"<variant>/<scenario>"`` -> SHA-256 hex of the delta bytes."""
    from repro.delta import diff_packed

    corpus = golden_corpus()
    digests = {}
    for name, options in sorted(golden_variants().items()):
        for scenario in SCENARIOS:
            base, target = scenario_packs(corpus, options, scenario)
            delta, _ = diff_packed(base, target, options)
            digests[f"{name}/{scenario}"] = \
                hashlib.sha256(delta).hexdigest()
    return digests


def load_digests(path: Path = DELTAS_PATH) -> Dict[str, str]:
    return json.loads(path.read_text())["digests"]


def generate(path: Path = DELTAS_PATH) -> int:
    digests = delta_digests()
    path.write_text(json.dumps({
        "schema": "repro.tests.golden_deltas/1",
        "scenarios": list(SCENARIOS),
        "changed_index": CHANGED_INDEX,
        "digests": digests,
    }, indent=2, sort_keys=True) + "\n")
    return len(digests)


if __name__ == "__main__":
    print(f"wrote {generate()} digests to {DELTAS_PATH}")
