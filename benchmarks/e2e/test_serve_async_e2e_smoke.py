"""Smoke run of the end-to-end benchmark: ``run.py --smoke``.

Every workload runs at tiny scale through the one command, which must
exit 0 with every output check passing and report every metric that
``BENCHMARK.json`` names; a traced serve run must report the whole
per-layer ledger.  ``REPRO_BENCH_SHAPE_CLASSES`` sets the shaped
corpus size, as for the other benchmark smoke tests.  The file name
matches the CI smoke job's ``serve_async`` filter.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parents[2] / "BENCHMARK.json").read_text())


def _run(tmp_path, *args):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=90)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0, line
    return json.loads(out.read_text())["runs"]


def test_serve_async_e2e_smoke(tmp_path):
    runs = _run(tmp_path)
    assert [run["workload"] for run in runs] == \
        [workload["name"] for workload in SPEC["workloads"]]
    for run in runs:
        assert run["correct"], run["problems"]
        assert set(run["end_to_end"]) == \
            {metric["name"] for metric in SPEC["end_to_end"]}

    traced = _run(tmp_path, "--workload", "serve_releases", "--trace", "1")
    assert set(traced[0]["per_layer"]) == \
        {metric["name"] for metric in SPEC["per_layer"]}
