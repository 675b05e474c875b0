"""Tests for the asyncio gateway (``repro serve --async``).

A real :class:`AsyncGateway` is bound to an ephemeral port and driven
with ``urllib``/``http.client`` — the same harness style as
``test_service_http.py``, so the two front ends are tested as clients
see them.
"""

import http.client
import json
import re
import socket
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from helpers import compile_shapes, compile_simple, compile_sink
from repro.classfile.classfile import write_class
from repro.corpus.suites import generate_suite
from repro.gateway import AsyncGateway, ShardedResultCache
from repro.jar.jarfile import make_jar
from repro.pack import archives_equal, pack_archive, unpack_archive
from repro.pack.options import PackOptions
from repro.service import AdmissionControl, BatchEngine

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "mtf_full.pack"


@pytest.fixture(scope="module")
def jar_bytes():
    suite = generate_suite("Hanoi_jax")
    classes = {name + ".class": write_class(c)
               for name, c in suite.items()}
    return make_jar(sorted(classes.items()))


@pytest.fixture(scope="module")
def originals():
    suite = generate_suite("Hanoi_jax")
    return [suite[name] for name in sorted(suite)]


@pytest.fixture(scope="module")
def golden_classfiles():
    classes = {}
    for compiled in (compile_simple(), compile_sink(),
                     compile_shapes()):
        classes.update(compiled)
    return classes


@pytest.fixture(scope="module")
def golden_classes(golden_classfiles):
    return {name + ".class": write_class(c)
            for name, c in golden_classfiles.items()}


@pytest.fixture()
def gateway():
    engine = BatchEngine(workers=0, cache=ShardedResultCache())
    with AsyncGateway(engine, port=0) as gw:
        gw.start_background()
        yield gw
    engine.close()


def _url(gateway, path):
    host, port = gateway.address
    return f"http://{host}:{port}{path}"


def _request(gateway, path, body=None, headers=None, method=None):
    request = urllib.request.Request(
        _url(gateway, path), data=body, headers=headers or {},
        method=method)
    return urllib.request.urlopen(request, timeout=30)


def _post(gateway, path, body, headers=None):
    return _request(gateway, path, body=body, headers=headers,
                    method="POST")


class TestEndpoints:
    def test_healthz(self, gateway):
        response = _request(gateway, "/healthz")
        assert response.status == 200
        assert response.read() == b"ok\n"

    def test_unknown_endpoint_is_404(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(gateway, "/nope")
        assert err.value.code == 404

    def test_bad_body_is_400(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(gateway, "/pack", b"this is not a jar")
        assert err.value.code == 400

    def test_pack_roundtrips(self, gateway, jar_bytes, originals):
        response = _post(gateway, "/pack", jar_bytes)
        assert response.status == 200
        assert response.headers["X-Repro-Status"] == "ok"
        assert response.headers["Content-Type"] == \
            "application/x-repro-pack"
        packed = response.read()
        assert archives_equal(unpack_archive(packed), originals)

    def test_pack_bytes_match_pack_archive(self, gateway,
                                           golden_classfiles,
                                           golden_classes):
        """Gateway-served bytes are byte-identical to
        ``pack_archive`` — cross-checked against the committed golden
        fixture."""
        jar = make_jar(sorted(golden_classes.items()))
        served = _post(gateway, "/pack", jar).read()
        corpus = [golden_classfiles[name]
                  for name in sorted(golden_classfiles)]
        direct = pack_archive(corpus, PackOptions())
        assert served == GOLDEN.read_bytes()
        assert served == direct

    def test_stats_shape(self, gateway, jar_bytes):
        _post(gateway, "/pack", jar_bytes).read()
        doc = json.loads(_request(gateway, "/stats").read())
        assert doc["counters"]["jobs"] == 1
        assert doc["cache"]["shards"] == 8
        assert len(doc["cache"]["shard_occupancy"]) == 8
        assert sum(s["entries"]
                   for s in doc["cache"]["shard_occupancy"]) == 1
        gw = doc["gateway"]
        assert gw["counters"]["pack.served"] == 1
        assert gw["routes"]["pack"]["count"] == 1
        assert "p99_ms" in gw["routes"]["pack"]
        assert gw["releases"]["releases"] == 1


class TestConditionalGet:
    def test_if_none_match_is_304(self, gateway, jar_bytes):
        first = _post(gateway, "/pack", jar_bytes)
        key = first.headers["X-Repro-Key"]
        first.read()
        assert first.headers["ETag"] == f'"{key}"'
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(gateway, "/pack", jar_bytes,
                  headers={"If-None-Match": f'"{key}"'})
        assert err.value.code == 304
        assert err.value.headers["X-Repro-Key"] == key
        assert err.value.read() == b""
        # No second job ran: the 304 short-circuited the engine.
        doc = json.loads(_request(gateway, "/stats").read())
        assert doc["counters"]["jobs"] == 1
        assert doc["gateway"]["counters"]["pack.not_modified"] == 1

    def test_stale_etag_still_packs(self, gateway, jar_bytes):
        first = _post(gateway, "/pack", jar_bytes)
        body = first.read()
        response = _post(gateway, "/pack", jar_bytes,
                         headers={"If-None-Match": '"deadbeef"'})
        assert response.status == 200
        assert response.read() == body
        assert response.headers["X-Repro-Cache"] == "hit"


class TestDownloadByKey:
    def test_get_pack_by_key(self, gateway, jar_bytes):
        first = _post(gateway, "/pack", jar_bytes)
        key = first.headers["X-Repro-Key"]
        body = first.read()
        response = _request(gateway, f"/pack/{key}")
        assert response.status == 200
        assert response.headers["Accept-Ranges"] == "bytes"
        assert response.read() == body

    def test_get_unknown_key_is_404(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(gateway, "/pack/" + "0" * 64)
        assert err.value.code == 404

    def test_range_resume(self, gateway, jar_bytes):
        first = _post(gateway, "/pack", jar_bytes)
        key = first.headers["X-Repro-Key"]
        body = first.read()
        response = _request(gateway, f"/pack/{key}",
                            headers={"Range": "bytes=0-99"})
        assert response.status == 206
        assert response.headers["Content-Range"] == \
            f"bytes 0-99/{len(body)}"
        head = response.read()
        assert head == body[:100]
        # Resume from byte 100 to the end (open-ended range).
        tail = _request(gateway, f"/pack/{key}",
                        headers={"Range": "bytes=100-"})
        assert tail.status == 206
        assert head + tail.read() == body

    def test_suffix_range(self, gateway, jar_bytes):
        first = _post(gateway, "/pack", jar_bytes)
        key = first.headers["X-Repro-Key"]
        body = first.read()
        response = _request(gateway, f"/pack/{key}",
                            headers={"Range": "bytes=-32"})
        assert response.status == 206
        assert response.read() == body[-32:]

    def test_unsatisfiable_range_is_416(self, gateway, jar_bytes):
        first = _post(gateway, "/pack", jar_bytes)
        key = first.headers["X-Repro-Key"]
        size = len(first.read())
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(gateway, f"/pack/{key}",
                     headers={"Range": f"bytes={size + 10}-"})
        assert err.value.code == 416
        assert err.value.headers["Content-Range"] == \
            f"bytes */{size}"


class TestChunkedUpload:
    def _post_chunked(self, gateway, path, body, chunk=512):
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            try:
                conn.request(
                    "POST", path,
                    body=(body[i:i + chunk]
                          for i in range(0, len(body), chunk)),
                    headers={"Transfer-Encoding": "chunked"},
                    encode_chunked=True)
            except (BrokenPipeError, ConnectionResetError):
                # The server rejected the stream mid-upload (413)
                # and closed its read side; its early response is
                # still waiting for us.
                pass
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), \
                response.read()
        finally:
            conn.close()

    def test_chunked_upload_packs(self, gateway, jar_bytes):
        whole = _post(gateway, "/pack", jar_bytes).read()
        status, headers, body = self._post_chunked(
            gateway, "/pack", jar_bytes)
        assert status == 200
        assert body == whole
        assert headers["X-Repro-Cache"] == "hit"

    def test_chunked_upload_respects_max_body(self, jar_bytes):
        engine = BatchEngine(workers=0, cache=ShardedResultCache())
        with AsyncGateway(engine, port=0, max_body=1024) as gw:
            gw.start_background()
            status, _, _ = self._post_chunked(gw, "/pack",
                                              b"x" * 4096)
            assert status == 413
        engine.close()

    def test_content_length_max_body_is_413(self, jar_bytes):
        engine = BatchEngine(workers=0, cache=ShardedResultCache())
        with AsyncGateway(engine, port=0, max_body=1024) as gw:
            gw.start_background()
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(gw, "/pack", b"x" * 4096)
            assert err.value.code == 413
        engine.close()


class TestReleaseChainDelta:
    @pytest.fixture()
    def two_releases(self, gateway, golden_classes):
        """Two consecutive 'releases' of the same codebase: v2 drops
        one class and the full jars for both."""
        v1 = dict(golden_classes)
        v2 = dict(golden_classes)
        del v2[sorted(v2)[0]]
        jar_v1 = make_jar(sorted(v1.items()))
        jar_v2 = make_jar(sorted(v2.items()))
        key_v1 = _post(gateway, "/pack", jar_v1) \
            .headers["X-Repro-Key"]
        return jar_v1, jar_v2, key_v1

    def test_delta_requires_advertised_bases(self, gateway,
                                             jar_bytes):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(gateway, "/delta", jar_bytes)
        assert err.value.code == 400

    def test_delta_smaller_than_full(self, gateway, two_releases):
        _, jar_v2, key_v1 = two_releases
        full = _post(gateway, "/pack", jar_v2)
        full_bytes = full.read()
        response = _post(gateway, "/delta", jar_v2,
                         headers={"X-Repro-Have": key_v1})
        assert response.status == 200
        assert response.headers["X-Repro-Served"] == "delta"
        assert response.headers["X-Repro-Delta-Base"] == key_v1
        assert response.headers["Content-Type"] == \
            "application/x-repro-dpack"
        delta = response.read()
        assert len(delta) < len(full_bytes)
        assert float(response.headers["X-Repro-Delta-Ratio"]) < 1.0

    def test_delta_cache_and_release_graph(self, gateway,
                                           two_releases):
        _, jar_v2, key_v1 = two_releases
        first = _post(gateway, "/delta", jar_v2,
                      headers={"X-Repro-Have": key_v1})
        delta = first.read()
        again = _post(gateway, "/delta", jar_v2,
                      headers={"X-Repro-Have": key_v1})
        assert again.read() == delta
        assert again.headers["X-Repro-Delta-Base"] == key_v1
        doc = json.loads(_request(gateway, "/stats").read())
        counters = doc["gateway"]["counters"]
        assert counters["delta.served_delta"] == 2
        assert counters["delta.cache_hits"] >= 1
        graph = doc["gateway"]["releases"]
        assert graph["releases"] >= 2
        assert graph["edges"] >= 1

    def test_unknown_bases_fall_back_to_full(self, gateway,
                                             golden_classes,
                                             jar_bytes):
        response = _post(gateway, "/delta", jar_bytes,
                         headers={"X-Repro-Have": "f" * 64})
        assert response.status == 200
        assert response.headers["X-Repro-Served"] == "full"
        assert response.headers["Content-Type"] == \
            "application/x-repro-pack"
        packed = _post(gateway, "/pack", jar_bytes).read()
        assert response.read() == packed

    def test_cheapest_of_many_bases_wins(self, gateway,
                                         golden_classes):
        """A client holding several releases gets the delta from the
        closest one."""
        v1 = dict(golden_classes)
        names = sorted(v1)
        far = {name: v1[name] for name in names[:2]}  # tiny, distant
        near = dict(v1)
        del near[names[0]]  # one class away from the target
        key_far = _post(gateway, "/pack",
                        make_jar(sorted(far.items()))) \
            .headers["X-Repro-Key"]
        key_near = _post(gateway, "/pack",
                         make_jar(sorted(near.items()))) \
            .headers["X-Repro-Key"]
        response = _post(
            gateway, "/delta", make_jar(sorted(v1.items())),
            headers={"X-Repro-Have": f"{key_far},{key_near}"})
        assert response.status == 200
        assert response.headers["X-Repro-Served"] == "delta"
        assert response.headers["X-Repro-Delta-Base"] == key_near
        response.read()

    def test_legacy_base_param_still_works(self, gateway,
                                           two_releases):
        _, jar_v2, key_v1 = two_releases
        response = _post(gateway, f"/delta?base={key_v1}", jar_v2)
        assert response.status == 200
        assert response.headers["X-Repro-Served"] == "delta"
        assert response.headers["X-Repro-Delta-Base"] == key_v1
        response.read()

    def test_backend_param_does_not_change_delta_bodies(
            self, golden_classes):
        """Regression: the delta container recorded the request's
        codec backend, and the delta cache is keyed on pack keys,
        which drop it — so the first request's ``backend=`` decided
        the bytes a key served.  Two fresh gateways, requests that
        differ only in ``backend=``, must return the same body."""
        v1 = dict(golden_classes)
        v2 = dict(golden_classes)
        del v2[sorted(v2)[0]]
        jar_v1 = make_jar(sorted(v1.items()))
        jar_v2 = make_jar(sorted(v2.items()))
        bodies = []
        for query in ("?backend=compiled", "?backend=interpreted"):
            engine = BatchEngine(workers=0, cache=ShardedResultCache())
            try:
                with AsyncGateway(engine, port=0) as gw:
                    gw.start_background()
                    key_v1 = _post(gw, "/pack" + query, jar_v1) \
                        .headers["X-Repro-Key"]
                    response = _post(gw, "/delta" + query, jar_v2,
                                     headers={"X-Repro-Have": key_v1})
                    assert response.headers["X-Repro-Served"] == "delta"
                    bodies.append(response.read())
            finally:
                engine.close()
        assert bodies[0] == bodies[1]


class TestHardening:
    def test_traversal_pack_get_is_404(self, tmp_path, jar_bytes):
        """A /pack/<key> shaped like a path must never reach the
        spill layer — with spill at depth 3, the traversal key below
        would resolve to the planted secret file."""
        secret = tmp_path / "secret.bin"
        secret.write_bytes(b"top secret")
        spill = tmp_path / "a" / "b" / "c"
        engine = BatchEngine(
            workers=0, cache=ShardedResultCache(spill_dir=spill))
        with AsyncGateway(engine, port=0) as gw:
            gw.start_background()
            host, port = gw.address
            conn = http.client.HTTPConnection(host, port,
                                              timeout=30)
            try:
                # Raw http.client: urllib would normalize ../ away.
                conn.request("GET", "/pack/../../secret.bin")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            assert response.status == 404
            assert b"top secret" not in body
            assert "malformed" in json.loads(body)["error"]
        engine.close()

    def test_traversal_have_keys_are_dropped(self, gateway,
                                             jar_bytes):
        # Malformed advertised bases are discarded; with nothing
        # valid left, /delta reports the missing-advertisement 400
        # instead of probing the cache with path text.
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(gateway, "/delta", jar_bytes,
                  headers={"X-Repro-Have":
                           "../../etc/passwd, ALSO-NOT-HEX"})
        assert err.value.code == 400

    def test_http10_gets_content_length_framing(self, gateway,
                                                jar_bytes):
        """An HTTP/1.0 client cannot parse chunked framing: the
        response must carry Content-Length and close the
        connection."""
        host, port = gateway.address
        head = (f"POST /pack HTTP/1.0\r\nHost: {host}\r\n"
                f"Content-Length: {len(jar_bytes)}\r\n\r\n").encode()
        with socket.create_connection((host, port),
                                      timeout=30) as sock:
            sock.sendall(head + jar_bytes)
            raw = b""
            while True:  # the server closes when done (HTTP/1.0)
                piece = sock.recv(65536)
                if not piece:
                    break
                raw += piece
        headers, _, body = raw.partition(b"\r\n\r\n")
        assert headers.startswith(b"HTTP/1.1 200")
        assert b"Transfer-Encoding" not in headers
        assert b"Connection: close" in headers
        length = int(re.search(rb"Content-Length: (\d+)",
                               headers).group(1))
        assert len(body) == length
        # The body is the archive itself, not chunk-size framing.
        whole = _post(gateway, "/pack", jar_bytes).read()
        assert body == whole

    def test_non_post_body_drained_on_keepalive(self, gateway):
        """A GET carrying a body must not desynchronize a keep-alive
        connection: the next request still parses cleanly."""
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz", body=b"stray body")
            first = conn.getresponse()
            assert first.status == 200
            first.read()
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert second.read() == b"ok\n"
        finally:
            conn.close()

    def test_handler_crash_is_500(self, gateway):
        async def boom(request):
            raise KeyError("handler bug")

        gateway._handle_healthz = boom  # shadow the bound method
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(gateway, "/healthz")
        assert err.value.code == 500
        assert json.loads(err.value.read())["error"] == \
            "internal server error"
        # The connection survived and the failure was counted.
        doc = json.loads(_request(gateway, "/stats").read())
        counters = doc["gateway"]["counters"]
        assert counters["errors.unhandled"] == 1
        assert counters["errors.5xx"] == 1


class TestAdmission:
    def test_saturated_queue_is_429(self, jar_bytes):
        engine = BatchEngine(workers=0, cache=ShardedResultCache())
        admission = AdmissionControl(1)
        with AsyncGateway(engine, port=0,
                          admission=admission) as gw:
            gw.start_background()
            assert admission.try_acquire()  # hold the only slot
            try:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(gw, "/pack", jar_bytes)
                assert err.value.code == 429
                assert int(err.value.headers["Retry-After"]) >= 1
            finally:
                admission.release()
            response = _post(gw, "/pack", jar_bytes)
            assert response.status == 200
            response.read()
            doc = json.loads(_request(gw, "/stats").read())
            admission_stats = doc["gateway"]["admission"]
            assert admission_stats["rejected"] == 1
            # our manual acquire + the successful POST
            assert admission_stats["admitted"] == 2
            assert doc["gateway"]["counters"]["rejected"] == 1
        engine.close()
