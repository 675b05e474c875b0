"""The serve_releases workload: the asyncio gateway under an open-loop
release-chain load.

Three kinds of process take part:

* the server child (``python serve.py server ...``) runs
  ``AsyncGateway(BatchEngine(workers=2, cache=ResultCache(...)))``;
  with ``--trace`` a BatchEngine subclass, a cache wrapper and a
  wrapped ``repro.delta.diff_packed`` time the service layers;
* the load generator, in the orchestrating process: a dispatcher
  releases requests on a seeded schedule into one queue per client
  (downloads, deltas, publishes), each drained by one thread over one
  keep-alive ``http.client`` connection.  The loop is open: a slow
  response delays the requests queued behind it, and every latency is
  timed from its due time;
* verification children: ``python serve.py verify PLAN`` applies each
  distinct delta with ``patch_packed``, and ``roundtrip.py`` repacks
  the first and last published releases offline.  Those offline
  roundtrips also give this workload its ``pack_s``/``unpack_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from harness import (
    HERE,
    GcClock,
    roundtrip_rep,
    spawn_json,
    summary,
)

#: Open-loop arrival rate.  Fixed so that one 25 s run issues 1300
#: requests (p99 then has thirteen samples above it); it stays fixed
#: while the generator's own lateness (gen.lag_ms p99) is at most
#: 50 ms.
RATE_RPS = 52.0
SMOKE_RATE_RPS = 10.0
MAX_GEN_LAG_P99_MS = 50.0
#: Request mix in percent: downloads, conditional downloads (304),
#: deltas, and publishes of the next release.  User requests are drawn
#: in shuffled blocks, so every run has the same counts.
MIX = {"get": 75, "inm": 10, "delta": 13, "publish": 2}
#: Share of downloads that fetch the newest release; the rest fetch
#: an older one, which has usually been evicted to the spill store.
NEWEST_SHARE = 0.8
#: In-memory cache budget: the ~230 KB of releases a run publishes are
#: about 3.5 times this, so older downloads are served from disk.
CACHE_BYTES = 64 * 1024
WORKERS = 2
#: Independent clients, each one thread with one keep-alive
#: connection: downloads, deltas, and the release publisher.  A shared
#: pool of connections would queue downloads behind slow deltas in the
#: client, and let two deltas for a new release diff it twice at once.
CLIENTS = {"get": "downloader", "inm": "downloader",
           "delta": "updater", "publish": "publisher"}
#: ``(load generator CPUs, server CPUs)``, or None on one CPU.  The
#: server (its threads and pool inherit this) and the generator run on
#: disjoint CPUs: left to migrate, the gateway's threads hand the GIL
#: across CPUs behind diff_packed, and in some runs 20% of downloads
#: queue behind such hand-offs instead of 3%.
_CPUS = sorted(os.sched_getaffinity(0)) \
    if hasattr(os, "sched_getaffinity") else []
SPLIT = (_CPUS[:1], _CPUS[1:]) if len(_CPUS) > 1 else None
#: Server set-ups per run (setup_s is their median); the middle one
#: serves the load.
SETUPS = 5
#: Offline roundtrip repetitions, alternating first and last release;
#: pack_s and unpack_s are their best (harness.best_of explains why).
OFFLINE_REPS = 6
REQUEST_TIMEOUT_S = 30.0


def make_schedule(seed: int, seconds: float, rate: float) -> list:
    """``(due offset, kind, u1, u2)`` per request, sorted by offset.

    User requests arrive as a Poisson process conditioned on its count
    (uniform order statistics over the window) with a stratified mix;
    the release pipeline publishes at evenly spaced times from a
    seeded phase, so one release's diff never queues the next.
    """
    rng = random.Random(f"serve:{seed}")
    count = max(1, round(rate * seconds))
    publishes = max(1, round(count * MIX["publish"] / sum(MIX.values())))
    kinds: List[str] = []
    while len(kinds) < count - publishes:
        block = [kind for kind, n in MIX.items() if kind != "publish"
                 for _ in range(n)]
        rng.shuffle(block)
        kinds.extend(block)
    offsets = sorted(rng.uniform(0.0, seconds)
                     for _ in range(count - publishes))
    phase = rng.random()
    requests = [(offset, kind, rng.random(), rng.random())
                for offset, kind in zip(offsets, kinds)]
    requests += [((i + phase) * seconds / publishes, "publish", 0.0, 0.0)
                 for i in range(publishes)]
    return sorted(requests)


def _request(conn, method: str, path: str, body: Optional[bytes] = None,
             headers: Optional[Dict[str, str]] = None):
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.headers, response.read()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LoadClient:
    """What the clients know: releases, samples, deltas.

    A release is published (``POST /pack``), then its first delta is
    requested by the publisher itself, and only then announced to the
    downloader and updater: the diff against the previous release runs
    once per release, as the first delta, and clients' deltas are
    served from the cache.
    """

    def __init__(self, address, jars: List[bytes]):
        self.address = address
        self.jars = jars
        self.lock = threading.Lock()
        #: release index -> (cache key, sha256, packed bytes)
        self.published: Dict[int, tuple] = {}
        #: announced release indices, oldest first
        self.announced: List[int] = []
        self.samples: List[dict] = []
        #: (base index, target index, delta sha) -> delta bytes
        self.deltas: Dict[tuple, bytes] = {}
        self.problems: List[str] = []

    def connect(self):
        return http.client.HTTPConnection(*self.address,
                                          timeout=REQUEST_TIMEOUT_S)

    def publish(self, conn, index: int) -> bool:
        status, headers, body = _request(conn, "POST", "/pack",
                                         self.jars[index])
        key = headers.get("X-Repro-Key")
        if status != 200 or key is None:  # None: a degraded fallback jar
            return False
        with self.lock:
            self.published[index] = (key, _sha(body), body)
        return True

    def announce(self, index: int) -> None:
        with self.lock:
            self.announced.append(index)

    def _pick(self, u1: float, u2: float) -> int:
        with self.lock:
            indices = list(self.announced)
        if u1 < NEWEST_SHARE or len(indices) == 1:
            return indices[-1]
        return indices[int(u2 * (len(indices) - 1))]

    def download(self, conn, u1: float, u2: float,
                 conditional: bool) -> bool:
        key, digest, _ = self.published[self._pick(u1, u2)]
        headers = {"If-None-Match": f'"{key}"'} if conditional else {}
        status, _, body = _request(conn, "GET", f"/pack/{key}",
                                   headers=headers)
        if status == 304:
            if body:
                self.problems.append(f"304 for {key} carried a body")
            return conditional and not body
        if status == 200 and _sha(body) != digest:
            self.problems.append(f"GET /pack/{key} returned other bytes")
            return False
        return status == 200 and not conditional

    def delta(self, conn, target: int, base: int) -> bool:
        """``POST /delta`` of release ``target`` advertising ``base``."""
        base_key = self.published[base][0]
        status, headers, body = _request(
            conn, "POST", "/delta", self.jars[target],
            {"X-Repro-Have": base_key})
        if status != 200:
            return False
        served = headers.get("X-Repro-Served")
        if served == "delta" and headers.get("X-Repro-Delta-Base") \
                == base_key:
            with self.lock:
                self.deltas[(base, target, _sha(body))] = body
            return True
        if served == "full" and _sha(body) == self.published[target][1]:
            return True
        self.problems.append(f"/delta {base}->{target} served "
                             f"{served!r} with unexpected bytes")
        return False

    def release(self, conn, index: int, due: float, lag: float):
        """One publisher operation: publish, first delta (due when the
        publish returns), announce.  Returns the connection."""
        conn = self.timed(conn, "publish", due, lag,
                          lambda c: self.publish(c, index))
        if index in self.published:
            with self.lock:
                previous = self.announced[-1]
            conn = self.timed(conn, "first_delta", time.monotonic(), 0.0,
                              lambda c: self.delta(c, index, previous))
            self.announce(index)
        return conn

    def newest_delta(self, conn) -> bool:
        with self.lock:
            base, target = self.announced[-2:]
        return self.delta(conn, target, base)

    def timed(self, conn, kind: str, due: float, lag: float, op):
        """Run ``op(conn)`` and record its sample; returns the
        connection to use next (a fresh one after a failure)."""
        sent = time.monotonic()
        try:
            ok = op(conn)
        except (OSError, http.client.HTTPException):
            ok = False  # timeout or dropped connection
            conn.close()
            conn = self.connect()
        end = time.monotonic()
        with self.lock:
            self.samples.append({
                "kind": kind, "ok": ok, "lag": lag, "wait": sent - due,
                "service": end - sent, "latency": end - due})
        return conn

    def run(self, schedule: list, first_release: int) -> float:
        """Drive the schedule open-loop; returns the window's wall
        seconds."""
        lanes = {lane: queue.Queue() for lane in set(CLIENTS.values())}
        # Daemons: an interrupted run must not wait on idle clients.
        threads = [threading.Thread(target=self._drain, args=(work,),
                                    daemon=True)
                   for work in lanes.values()]
        for thread in threads:
            thread.start()
        start = time.monotonic() + 0.05
        release = first_release
        for offset, kind, u1, u2 in schedule:
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            op = (kind, u1, u2, release)
            release += kind == "publish"
            lanes[CLIENTS[kind]].put((due, time.monotonic() - due, op))
        for work in lanes.values():
            work.put(None)
        for thread in threads:
            thread.join()
        return time.monotonic() - start

    def _drain(self, work: "queue.Queue") -> None:
        conn = self.connect()
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                due, lag, (kind, u1, u2, release) = item
                if kind == "publish":
                    conn = self.release(conn, release, due, lag)
                elif kind == "delta":
                    conn = self.timed(conn, kind, due, lag,
                                      self.newest_delta)
                else:
                    conn = self.timed(conn, kind, due, lag, lambda c: (
                        self.download(c, u1, u2, kind == "inm")))
        finally:
            conn.close()


# -- the server child, seen from the orchestrator -------------------------


class ServerProcess:
    """A server child: started on construction, stopped by
    :meth:`stop`, which returns its final report."""

    def __init__(self, spill_dir: Path, env: Dict[str, str],
                 trace: bool, log: Path):
        self.spawned = time.monotonic()
        self._log = open(log, "ab")
        cpus = ["--cpus", ",".join(map(str, SPLIT[1]))] if SPLIT else []
        # Its own process group, so kill() also reaps the pool workers.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "server",
             "--spill-dir", str(spill_dir)] + ["--trace"] * trace + cpus,
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"server child died at start; see {log}")
        self.address = ("127.0.0.1", json.loads(line)["port"])

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            conn = http.client.HTTPConnection(*self.address, timeout=5)
            try:
                if _request(conn, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            finally:
                conn.close()
            time.sleep(0.005)

    def reset_probes(self) -> None:
        """Start the server's timers afresh, so set-up traffic stays
        out of the window's per-layer numbers."""
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        if not self.proc.stdout.readline():
            raise RuntimeError("server child died at reset")

    def stop(self) -> dict:
        line = ""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if not line:
            raise RuntimeError("server child printed no report")
        return json.loads(line)

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group has already exited
        self.proc.wait()
        self._log.close()


def _publish_once(address, client: LoadClient, index: int) -> None:
    """An untimed publisher operation (set-up and priming)."""
    conn = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        if not client.publish(conn, index) or (
                client.announced and not client.delta(
                    conn, index, client.announced[-1])):
            raise RuntimeError(f"warm-up release {index} failed")
        client.announce(index)
    finally:
        conn.close()


def start_server(tmp: Path, env, trace: bool, jars, attempt: int):
    """Spawn, wait for /healthz, publish release 0.  Returns
    ``(server, client, setup seconds)``."""
    server = ServerProcess(tmp / f"spill-{attempt}", env, trace,
                           tmp / "server.log")
    try:
        server.wait_healthy()
        client = LoadClient(server.address, jars)
        _publish_once(server.address, client, 0)
    except BaseException:
        server.kill()
        raise
    return server, client, time.monotonic() - server.spawned


def verify_deltas(client: LoadClient, tmp: Path, env) -> List[str]:
    """Apply every distinct delta to its base, in two verify children
    (one per core)."""
    plans: List[list] = [[], []]
    for n, ((base, target, _), delta) in enumerate(
            sorted(client.deltas.items())):
        base_path = tmp / f"verify-{n}.base"
        delta_path = tmp / f"verify-{n}.delta"
        base_path.write_bytes(client.published[base][2])
        delta_path.write_bytes(delta)
        plans[n % 2].append([str(base_path), str(delta_path),
                             client.published[target][1],
                             f"{base}->{target}"])
    paths = []
    for i, plan in enumerate(filter(None, plans)):
        paths.append(tmp / f"verify-{i}.json")
        paths[-1].write_text(json.dumps(plan))
    with ThreadPoolExecutor(2) as pool:
        reports = list(pool.map(
            lambda path: spawn_json("serve.py", ["verify", str(path)],
                                    env), paths))
    return [problem for report in reports
            for problem in report["problems"]]


def schedule_for(seed: int, seconds: float, smoke: bool) -> list:
    return make_schedule(seed, seconds,
                         SMOKE_RATE_RPS if smoke else RATE_RPS)


def releases_needed(schedule: list) -> int:
    """Release 0 (set-up), release 1 (primed), one per publish."""
    return 2 + sum(kind == "publish" for _, kind, _, _ in schedule)


def run_serve(schedule: list, trace: bool, releases: List[dict],
              env, tmp: Path) -> dict:
    """One serve_releases run over release jars in ``tmp/releases``;
    returns the record run.py reports (see ``run_roundtrip``)."""
    release_dir = str(tmp / "releases")
    jars = [(tmp / "releases" / r["jar"]).read_bytes() for r in releases]

    def set_up_and_stop(attempt: int) -> float:
        server, _, setup_s = start_server(tmp, env, trace, jars, attempt)
        server.stop()
        return setup_s

    # Set-ups on both sides of the window: the host's slow periods last
    # from seconds to a minute, and set-ups taken back to back would
    # all fall in the same one.
    setups = [set_up_and_stop(attempt) for attempt in range(SETUPS // 2)]
    server, client, setup_s = start_server(tmp, env, trace, jars,
                                           SETUPS // 2)
    setups.append(setup_s)
    try:
        _publish_once(server.address, client, 1)
        server.reset_probes()
        if SPLIT:
            os.sched_setaffinity(0, SPLIT[0])
        window_s = client.run(schedule, first_release=2)
    finally:
        if SPLIT:
            os.sched_setaffinity(0, _CPUS)
        report = server.stop()
    setups += [set_up_and_stop(attempt)
               for attempt in range(SETUPS // 2 + 1, SETUPS)]

    problems = list(client.problems)
    problems += verify_deltas(client, tmp, env)
    first, last = min(client.published), max(client.published)
    offline, traced = [], []
    for n in range(OFFLINE_REPS * (1 + trace)):
        index = (first, last)[n % 2]
        rep = roundtrip_rep(release_dir, [releases[index]["jar"]], env,
                            check=n < 2, trace=n >= OFFLINE_REPS)
        problems += rep.get("problems", [])
        if rep["digests"][0] != client.published[index][1]:
            problems.append(f"release {index}: served bytes differ from "
                            "an offline pack_archive of the release")
        (traced if n >= OFFLINE_REPS else offline).append(rep)

    samples = client.samples
    scheduled = [s for s in samples if s["kind"] != "first_delta"]
    ok_ms = [s["latency"] * 1000 for s in samples if s["ok"]]
    last_packed = client.published[last][2]
    record = {
        "attempted": len(schedule) + len(samples) - len(scheduled),
        "failed": sum(not s["ok"] for s in samples)
        + len(schedule) - len(scheduled),
        "problems": problems,
        "reps": offline,
        "latencies_ms": ok_ms,
        "e2e": {
            "setup_s": median(setups),
            "pack_s": min(r["pack_s"] for r in offline),
            "unpack_s": min(r["unpack_s"] for r in offline),
            "packed_ratio": len(last_packed) / releases[last]["raw_bytes"],
            "peak_rss_mb": max(report["self_rss_kb"],
                               report["children_rss_kb"]) / 1024,
        },
        "detail": {
            "setups_s": setups,
            "requests": {kind: sum(s["kind"] == kind for s in samples)
                         for kind in [*MIX, "first_delta"]},
            "window_s": window_s,
            "releases_published": len(client.published),
            "distinct_deltas": len(client.deltas),
            "gen_lag_ms": summary([s["lag"] * 1000 for s in scheduled]),
            "client_wait_ms": summary([s["wait"] * 1000
                                       for s in scheduled]),
        },
    }
    lag_p99 = record["detail"]["gen_lag_ms"]["p99"]
    record["valid"] = lag_p99 <= MAX_GEN_LAG_P99_MS
    if trace:
        record["traced_reps"] = traced
        record["service"] = _service_layers(report["probes"], samples,
                                            record["detail"])
    return record


def _service_layers(probes: dict, samples: List[dict],
                    detail: dict) -> dict:
    """Serve per-layer metrics: server probes plus the client view.
    ``gateway.other_ms`` is the client-observed service time per
    request left after the engine's execute, cache gets and diffs:
    HTTP framing, event-loop and executor hand-offs, and transport."""
    service_ms = sum(s["service"] for s in samples) * 1000
    engine_ms = sum(probes["execute_hit_ms"]) \
        + sum(probes["execute_miss_ms"]) + sum(probes["diff_ms"]) \
        + sum(probes["outside_get_ms"])
    hits = probes["cache_hits"]
    return {
        "service.execute_hit_ms": summary(probes["execute_hit_ms"]),
        "service.cache_get_ms": summary(probes["cache_get_ms"]),
        "service.cache_hit_ratio": sum(hits) / len(hits) if hits else 0.0,
        "service.execute_miss_ms": summary(probes["execute_miss_ms"]),
        "delta.diff_ms": summary(probes["diff_ms"]),
        "gateway.other_ms": {"mean": (service_ms - engine_ms)
                             / len(samples), "count": len(samples)},
        "client.wait_ms": detail["client_wait_ms"],
        "gen.lag_ms": detail["gen_lag_ms"],
        "gc.pause_s": probes["gc_pause_s"],
        "gc.gen2_collections": probes["gc_gen2"],
    }


# -- child entry points ----------------------------------------------------


class Probes:
    """Service-layer timers of a traced server child: millisecond
    samples per probe name, and GC pauses."""

    NAMES = ("execute_hit_ms", "execute_miss_ms", "cache_get_ms",
             "outside_get_ms", "cache_hits", "diff_ms")

    def __init__(self):
        self.local = threading.local()
        self.samples: Dict[str, list] = {name: [] for name in self.NAMES}
        self.gc = GcClock()

    def reset(self) -> None:
        for values in self.samples.values():
            values.clear()
        self.gc.pause_s, self.gc.gen2 = 0.0, 0

    def install(self, cache_type, engine_type):
        """Timed subclasses of the cache and engine, a timed
        ``repro.delta.diff_packed`` (the gateway imports it per call),
        and the GC probe."""
        import gc

        import repro.delta

        local, samples = self.local, self.samples

        class TimedCache(cache_type):
            def get(self, key):
                start = time.perf_counter()
                data, from_disk = super().get(key)
                ms = (time.perf_counter() - start) * 1000
                samples["cache_get_ms"].append(ms)
                samples["cache_hits"].append(data is not None)
                if not getattr(local, "executing", False):
                    samples["outside_get_ms"].append(ms)
                return data, from_disk

        class TimedEngine(engine_type):
            def execute(self, job):
                local.executing = True
                start = time.perf_counter()
                try:
                    result = super().execute(job)
                finally:
                    local.executing = False
                samples["execute_hit_ms" if result.cached
                        else "execute_miss_ms"].append(
                    (time.perf_counter() - start) * 1000)
                return result

        diff_packed = repro.delta.diff_packed

        def timed_diff(*args, **kwargs):
            start = time.perf_counter()
            try:
                return diff_packed(*args, **kwargs)
            finally:
                samples["diff_ms"].append(
                    (time.perf_counter() - start) * 1000)

        repro.delta.diff_packed = timed_diff
        gc.callbacks.append(self.gc)
        return TimedCache, TimedEngine

    def report(self) -> dict:
        return dict(self.samples, gc_pause_s=self.gc.pause_s,
                    gc_gen2=self.gc.gen2)


def _commands():
    """Lines the orchestrator writes to this child, read from fd 0.

    Not through ``sys.stdin``: a pool worker forked while this thread
    blocks in ``sys.stdin.readline()`` inherits the held buffer lock
    and deadlocks when multiprocessing closes its stdin.
    """
    pending = b""
    while True:
        chunk = os.read(0, 256)
        if not chunk:
            yield "stop"
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode().strip()


def server_main(args) -> int:
    import resource

    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    from repro.gateway import AsyncGateway
    from repro.service import BatchEngine, ResultCache

    cache_type, engine_type, probes = ResultCache, BatchEngine, None
    if args.trace:
        probes = Probes()
        cache_type, engine_type = probes.install(cache_type, engine_type)
    engine = engine_type(workers=WORKERS, cache=cache_type(
        max_bytes=CACHE_BYTES, spill_dir=args.spill_dir))
    gateway = AsyncGateway(engine, port=0)
    try:
        _, port = gateway.start_background()
        print(json.dumps({"port": port}), flush=True)
        for command in _commands():
            if command != "reset":
                break
            if probes is not None:
                probes.reset()
            print(json.dumps({"reset": True}), flush=True)
    finally:
        gateway.shutdown()
        engine.close()
    report = {
        "self_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if probes is not None:
        report["probes"] = probes.report()
    print(json.dumps(report), flush=True)
    return 0


def verify_main(args) -> int:
    from repro.delta import patch_packed

    problems = []
    for base_path, delta_path, target_sha, label in json.loads(
            Path(args.plan).read_text()):
        patched, _ = patch_packed(Path(base_path).read_bytes(),
                                  Path(delta_path).read_bytes())
        if _sha(patched) != target_sha:
            problems.append(f"delta {label}: patch_packed does not "
                            "rebuild the target release")
    print(json.dumps({"problems": problems}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    server = sub.add_parser("server")
    server.add_argument("--spill-dir", type=Path, required=True)
    server.add_argument("--trace", action="store_true")
    server.add_argument("--cpus", help="comma-separated CPUs to run on")
    verify = sub.add_parser("verify")
    verify.add_argument("plan")
    args = parser.parse_args()
    return server_main(args) if args.command == "server" \
        else verify_main(args)


if __name__ == "__main__":
    sys.exit(main())
