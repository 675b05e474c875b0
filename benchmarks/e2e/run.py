"""End-to-end benchmark for pack, unpack and serve, with a per-layer
ledger.

One command runs seeded workloads against the program's public entry
points, checks every output, prints every metric by name with its
unit, and writes one JSON result::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py compare A B

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ledger.  Metric names, units and
regression bounds live in ``BENCHMARK.json`` at the repository root.
``compare`` judges two sets of result files (a file or a directory
each) metric by metric.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Tuple

import serve
from harness import (
    REPORTS,
    ROOT,
    SRC,
    ChildFailed,
    best_of,
    child_env,
    percentile,
    roundtrip_rep,
    spawn_json,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}

#: Memory budget of budgeted_archive (the spool window total).
BUDGET = 64 * 1024
#: Roundtrip repetitions: at least MIN_REPS fresh children, and more
#: while the run is shorter than --seconds.
MIN_REPS = 3
MAX_REPS = 50
#: Latency limit per workload (slo_ok_share): about twice the p99
#: measured when the benchmark was defined.  A roundtrip "request" is
#: one archive's pack plus unpack; a served one is an HTTP request.
LATENCY_LIMIT_MS = {
    "large_archive": 10000.0,
    "budgeted_archive": 10000.0,
    "paper_suites": 2500.0,
    "serve_releases": 500.0,
}
#: Ledger layers that are seconds inside pack_s / unpack_s.
PACK_LAYERS = ["classfile.parse_s", "ir.build_s", "codec.count_s",
               "codec.encode_s", "codec.serialize_s", "pack.other_s"]
UNPACK_LAYERS = ["codec.inflate_s", "codec.decode_s",
                 "ir.reconstruct_s", "classfile.write_s"]
REP_LAYERS = PACK_LAYERS + UNPACK_LAYERS + [
    "gc.pause_s", "gc.gen2_collections", "bytecode.instructions",
    "refs.mtf_hit_ratio", "spool.spilled_bytes"]
#: Serve ledger entries reported at their tail, not their median.
TAIL_LAYERS = {"client.wait_ms", "gen.lag_ms"}


def run_roundtrip(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool, corpus: dict, tmp: Path) -> dict:
    """Fresh-child repetitions of one roundtrip workload.

    Without tracing, repetitions run until the run has lasted
    ``seconds`` and at least ``MIN_REPS`` are done; the first also
    checks the output.  With tracing they alternate untraced and
    traced, so the ledger and its overhead come from one run.  Every
    child gets its own string-hash seed, so equal digests across
    repetitions also show the bytes do not depend on hash order.
    """
    jars = list(corpus["jars"])
    if workload == "paper_suites":
        random.Random(f"order:{seed}").shuffle(jars)
    budget = BUDGET if workload == "budgeted_archive" else 0
    min_reps = 1 if smoke or trace else MIN_REPS
    reps: List[dict] = []
    traced: List[dict] = []
    start = time.monotonic()
    while len(reps) + len(traced) < MAX_REPS:
        tracing = trace and len(reps) > len(traced)
        env = child_env(seed * 1000 + len(reps) + len(traced), tmp)
        rep = roundtrip_rep(corpus["dir"], jars, env, budget,
                            check=not reps, trace=tracing)
        (traced if tracing else reps).append(rep)
        if time.monotonic() - start >= seconds and len(reps) >= min_reps \
                and len(traced) >= trace:
            break
    problems = list(reps[0]["problems"])
    if any(rep["digests"] != reps[0]["digests"] for rep in reps + traced):
        problems.append("packed bytes differ between repetitions")
    raw = sum(corpus["raw_bytes"].values())
    # Per archive, the best of the repetitions (see best_of).
    per_archive = [best_of(times) for times in
                   zip(*[rep["archives_s"] for rep in reps])]
    return {
        "attempted": len(jars) * (len(reps) + len(traced)),
        "failed": 0,
        "problems": problems,
        "valid": True,
        "latencies_ms": [(pack + unpack) * 1000
                         for pack, unpack in per_archive],
        "slo_samples_ms": [sum(op) * 1000 for rep in reps + traced
                           for op in rep["archives_s"]],
        "reps": reps,
        "traced_reps": traced,
        "e2e": {
            "setup_s": median([rep["setup_s"] for rep in reps]),
            "pack_s": sum(pack for pack, _ in per_archive),
            "unpack_s": sum(unpack for _, unpack in per_archive),
            "packed_ratio": reps[0]["packed_bytes"] / raw,
            "peak_rss_mb": median([rep["maxrss_kb"] for rep in reps])
            / 1024,
        },
        "detail": {"archives": jars, "classes": corpus["classes"],
                   "raw_bytes": raw, "reps": len(reps),
                   "digests": reps[0]["digests"]},
    }


def ledger(record: dict) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Per-layer metrics of a traced run: medians over the traced
    repetitions (offline roundtrips on serve_releases), each with its
    share of the traced pack_s + unpack_s, plus the serve layers."""
    traced, untraced = record["traced_reps"], record["reps"]
    total = median([r["pack_s"] + r["unpack_s"] for r in traced])
    values: Dict[str, dict] = {}
    for name in REP_LAYERS:
        value = median([r["layers"][name] for r in traced])
        values[name] = {"value": value}
        if LAYERS[name]["unit"] == "s":
            values[name]["share"] = value / total
    values["trace.overhead_ratio"] = {"value": total / median(
        [r["pack_s"] + r["unpack_s"] for r in untraced])}
    service = record.get("service", {})
    for name in LAYERS:
        entry = service.get(name)
        if isinstance(entry, dict):
            value = entry.get("mean", entry.get(
                "p99" if name in TAIL_LAYERS else "p50"))
            values[name] = dict(entry, value=value)
        elif entry is not None:
            values[name] = {"value": entry}
        else:
            values.setdefault(name, {"value": 0.0, "note": "not exercised"})
    coverage = {
        "pack": sum(values[n]["value"] for n in PACK_LAYERS)
        / median([r["pack_s"] for r in traced]),
        "unpack": sum(values[n]["value"] for n in UNPACK_LAYERS)
        / median([r["unpack_s"] for r in traced]),
    }
    return {name: dict(values[name], unit=LAYERS[name]["unit"])
            for name in LAYERS}, coverage


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Generate (or load) the inputs, run, and assemble the run's
    result."""
    (REPORTS / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                dir=REPORTS / "tmp"))
    try:
        env = child_env(seed, tmp)
        corpus_args = ["--workload", workload] + ["--smoke"] * smoke
        if workload == "serve_releases":
            schedule = serve.schedule_for(seed, seconds, smoke)
            corpus_args += ["--seed", str(seed), "--releases",
                            str(serve.releases_needed(schedule)),
                            "--release-dir", str(tmp / "releases")]
        corpus = spawn_json("corpus.py", corpus_args, env, timeout=900)
        if workload == "serve_releases":
            record = serve.run_serve(schedule, trace, corpus["releases"],
                                     env, tmp)
        else:
            record = run_roundtrip(workload, seed, seconds, trace, smoke,
                                   corpus, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    latencies = record["latencies_ms"]
    limit = LATENCY_LIMIT_MS[workload]
    within = sum(ms <= limit for ms in
                 record.get("slo_samples_ms", latencies))
    values = dict(record["e2e"],
                  req_p50_ms=percentile(latencies, 0.50),
                  req_p99_ms=percentile(latencies, 0.99),
                  slo_ok_share=within / record["attempted"])
    end_to_end = {name: {"value": values[name], "unit": E2E[name]["unit"]}
                  for name in E2E}
    end_to_end["req_p99_ms"]["count"] = len(latencies)
    end_to_end["slo_ok_share"]["limit_ms"] = limit
    run = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": trace, "smoke": smoke,
        "correct": not record["problems"],
        "attempted": record["attempted"], "failed": record["failed"],
        "error_rate": record["failed"] / record["attempted"],
        "valid": record["valid"],
        "problems": record["problems"],
        "corpus": {"dir": str(Path(corpus["dir"]).relative_to(ROOT)),
                   **{key: corpus[key]
                      for key in ("generate_s", "cached", "classes")}},
        "end_to_end": end_to_end,
        "detail": record["detail"],
        "reps": [{key: rep[key] for key in
                  ("setup_s", "pack_s", "unpack_s", "maxrss_kb",
                   "archives_s") if key in rep}
                 for rep in record["reps"]],
    }
    if trace:
        run["per_layer"], run["ledger_coverage"] = ledger(record)
    return run


def print_run(run: dict) -> None:
    header = (f"== {run['workload']} seed={run['seed']} "
              f"{'traced ' if run['traced'] else ''}"
              f"correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']} "
              f"error_rate={run['error_rate']:.4f} "
              f"corpus_s={run['corpus']['generate_s']:.1f}")
    print(header + ("" if run["valid"] else "  INVALID (generator lag)"))
    for problem in run["problems"]:
        print(f"   problem: {problem}")
    for group in ("end_to_end", "per_layer"):
        for name, entry in run.get(group, {}).items():
            extra = {k: v for k, v in entry.items()
                     if k not in ("value", "unit")}
            print(f"   {name:<26} {entry['value']:>14.6g} "
                  f"{entry['unit']:<6} {json.dumps(extra) if extra else ''}")


def headline(runs: List[dict], trace: bool) -> dict:
    """The contract's last line: every end-to-end (or, traced, every
    per-layer) metric as ``{"value", "unit"}``."""
    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        for name, entry in run[group].items():
            metrics[prefix + name] = {"value": entry["value"],
                                      "unit": entry["unit"]}
    return {"correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


# -- compare -----------------------------------------------------------------


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced runs by workload, from a result file or a directory of
    them."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for file in files:
        for run in json.loads(file.read_text()).get("runs", []):
            if not run["traced"]:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def judge(a: List[float], b: List[float], lower_better: bool,
          bound: float, seeds_a: List[int], seeds_b: List[int]) -> str:
    """better / no worse / worse / unresolved for B against A.

    Pairs match by seed where both sides ran it, else every A run
    meets every B run.  A gain needs nine tenths of the pairs and a
    median gap wider than A's own quartile distance; a spread wider
    than the bound leaves the metric unresolved unless every B run
    beats every A run.
    """
    sign = 1.0 if lower_better else -1.0
    ma, mb = median(a), median(b)
    by_seed = dict(zip(seeds_a, a))
    pairs = [(by_seed[s], v) for s, v in zip(seeds_b, b) if s in by_seed]
    pairs = pairs or [(x, y) for x in a for y in b]
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    gap = sign * (ma - mb) / abs(ma)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    if all_better or (wins >= 0.9 and gap > spread(a)):
        return "better"
    return "worse" if -gap > bound else "no worse"


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path, help="baseline result file/dir")
    parser.add_argument("b", type=Path, help="candidate result file/dir")
    args = parser.parse_args(argv)
    sides = [load_runs(args.a), load_runs(args.b)]
    worse = 0
    print(f"{'workload':<18} {'metric':<14} {'median A':>12} "
          f"{'median B':>12} {'spread A':>9} {'spread B':>9}  verdict")
    for workload in WORKLOADS:
        runs = [[], []]
        for side, by_workload in zip(runs, sides):
            for run in by_workload.get(workload, []):
                if run["valid"]:
                    side.append(run)
                else:
                    print(f"{workload:<18} invalid run (seed "
                          f"{run['seed']}): generator lag p99 over "
                          f"{serve.MAX_GEN_LAG_P99_MS} ms")
        if not all(runs):
            print(f"{workload:<18} {'-':<14} {'':>12} {'':>12} "
                  f"{'':>9} {'':>9}  unresolved (no valid runs)")
            continue
        seeds = [[run["seed"] for run in side] for side in runs]
        for name, metric in E2E.items():
            a, b = ([run["end_to_end"][name]["value"] for run in side]
                    for side in runs)
            verdict = judge(a, b, metric["better"] == "lower",
                            metric["bound"], *seeds)
            worse += verdict == "worse"
            print(f"{workload:<18} {name:<14} {median(a):>12.6g} "
                  f"{median(b):>12.6g} {spread(a):>9.4f} "
                  f"{spread(b):>9.4f}  {verdict}")
    return 1 if worse else 0


# -- main --------------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the canonical run")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long one workload run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: produce the per-layer ledger")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale (REPRO_BENCH_SHAPE_CLASSES)")
    parser.add_argument("--out", type=Path,
                        help="result file (default: under "
                             "benchmarks/reports/e2e/results/)")
    args = parser.parse_args(argv)
    trace = bool(args.trace) or args.traced
    # A terminated run still stops its server children and removes
    # its temp files (the finally blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    seconds = 2.0 if args.smoke and args.seconds == SPEC["run_seconds"] \
        else args.seconds
    workloads = [args.workload] if args.workload else WORKLOADS
    try:
        runs = [run_workload(workload, args.seed, seconds, trace,
                             args.smoke) for workload in workloads]
    except (ChildFailed, subprocess.TimeoutExpired, RuntimeError,
            OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    out = args.out or REPORTS / "results" / (
        f"{args.workload or 'all'}-seed{args.seed}"
        f"{'-traced' if trace else ''}{'-smoke' if args.smoke else ''}"
        ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": "repro.bench.e2e/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
    }, indent=1) + "\n")
    for run in runs:
        print_run(run)
    print(f"result: {out}")
    line = headline(runs, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
