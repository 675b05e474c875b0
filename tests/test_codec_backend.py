"""Lockstep tests for the codec execution backends.

The compiled backend (:mod:`repro.pack.codec_core.compile`) is only
allowed to exist because it is *provably* byte-identical to the
interpreted reference drivers: same packed bytes, same decoded
archives, same reference counts, on every configuration the format
supports.  These tests are that proof — every golden variant (the
full Table 3 scheme matrix, with and without preload, plus the
no-stack-state and no-zlib configurations) is packed by both
backends and compared byte for byte, and each backend must decode
the other's output.
"""

import dataclasses
import json
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.coding.streams import StreamReader, StreamSet, concat_streams
from repro.delta.diff import replay_coders
from repro.errors import ReproError
from repro.ir.build import build_archive
from repro.ir.model import Interner
from repro.pack import (
    PackOptions,
    archives_equal,
    pack_archive,
    unpack_archive,
    wire,
)
from repro.pack.codec_core import (
    DECODE,
    CountDriver,
    DecodeDriver,
    EncodeDriver,
    class_definition,
    compiled_codec,
    count_classes,
    count_references,
    current_spec,
    decode_classes,
    encode_classes,
    make_space_coders,
    spec_for_version,
)
from repro.pack.options import CODEC_BACKENDS
from repro.pack.preload import preload_objects
from repro.service import BatchEngine, PackService

from make_golden import FIXTURE_DIR, golden_corpus, golden_variants

VARIANTS = golden_variants()


def _backend(options, backend):
    return dataclasses.replace(options, codec_backend=backend)


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus()


@pytest.fixture(scope="module")
def interpreted_packs(corpus):
    """Reference bytes: every golden variant, interpreted backend."""
    return {name: pack_archive(corpus,
                               _backend(options, "interpreted"))
            for name, options in VARIANTS.items()}


class TestLockstep:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_backends_byte_identical(self, name, corpus,
                                     interpreted_packs):
        compiled = pack_archive(corpus,
                                _backend(VARIANTS[name], "compiled"))
        assert compiled == interpreted_packs[name], (
            f"compiled backend diverged from the interpreted "
            f"reference on variant {name!r}")

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_backends_cross_decode(self, name, corpus,
                                   interpreted_packs):
        """Each backend decodes the other's bytes to an equal archive
        (the bytes are identical, so this pins the decoders too)."""
        data = interpreted_packs[name]
        via_compiled = unpack_archive(
            data, _backend(VARIANTS[name], "compiled"))
        via_interpreted = unpack_archive(
            data, _backend(VARIANTS[name], "interpreted"))
        assert archives_equal(corpus, via_compiled)
        assert archives_equal(corpus, via_interpreted)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_compiled_matches_golden_fixtures(self, name, corpus):
        """The compiled backend reproduces all checked-in fixtures
        (they predate it), and decodes them back to the corpus."""
        data = (FIXTURE_DIR / f"{name}.pack").read_bytes()
        options = _backend(VARIANTS[name], "compiled")
        assert pack_archive(corpus, options) == data
        assert archives_equal(corpus, unpack_archive(data, options))

    def test_count_pass_identical(self, corpus):
        """The counting pass feeds the freq/cache schemes; both
        backends must tally the exact same totals."""
        archive = build_archive(corpus)
        for options in VARIANTS.values():
            interpreted = count_references(
                archive, _backend(options, "interpreted"))
            compiled = count_references(
                archive, _backend(options, "compiled"))
            assert interpreted == compiled

    def test_observed_pack_identical(self, corpus):
        """Metrics recording must not perturb compiled output, and
        the shared bytecode/stack-state counters must agree with the
        interpreted drivers' (the skiplist.* family is interpreted-
        only; see docs/PERFORMANCE.md)."""
        from repro import observe

        shared = ("bytecode.instructions", "bytecode.pseudo_ldc",
                  "bytecode.collapsed", "stack_state.applied",
                  "stack_state.unknown", "mtf.new", "mtf.hit")
        counters = {}
        for backend in CODEC_BACKENDS:
            options = PackOptions(codec_backend=backend)
            baseline = pack_archive(corpus, options)
            with observe.recording() as recorder:
                observed = pack_archive(corpus, options)
            assert observed == baseline
            counters[backend] = recorder.metrics.counters
        for name in shared:
            assert counters["interpreted"].get(name, 0) == \
                counters["compiled"].get(name, 0), name

    @pytest.mark.parametrize("backend", CODEC_BACKENDS)
    def test_stack_state_counted_once(self, corpus, backend):
        """A traced pack reports one stack-state step per instruction:
        the encode pass reports its tracking, the count pass none."""
        from repro import observe

        with observe.recording() as recorder:
            pack_archive(corpus, PackOptions(codec_backend=backend))
        counters = recorder.metrics.counters
        assert counters["stack_state.applied"] == \
            counters["bytecode.instructions"] > 0

    @pytest.mark.parametrize("backend", CODEC_BACKENDS)
    def test_count_pass_same_under_recorder(self, corpus, backend):
        """Recording changes neither what the count pass returns nor
        the work it reports: no ``stack_state.*`` from counting."""
        from repro import observe

        archive = build_archive(corpus)
        for options in VARIANTS.values():
            options = _backend(options, backend)
            untraced = count_references(archive, options)
            with observe.recording() as recorder:
                traced = count_references(archive, options)
            assert traced == untraced
            assert not [name for name in recorder.metrics.counters
                        if name.startswith("stack_state.")]


def _seen(options):
    """First-occurrence sets seeded as the compressor seeds them."""
    seen = {space: set() for space in wire.SPACES}
    if options.preload:
        for space, values in preload_objects(Interner()).items():
            seen[space].update(values)
    return seen


class TestClassSequences:
    """The class-sequence entry points (``count_classes``,
    ``encode_classes``, ``decode_classes``) on both backends against
    the interpreted ``class_definition`` walk, one call per class: the
    same counts, the same streams created in the same order with the
    same bytes, and the same decoded classes."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_sequence_equals_class_definition_walk(self, name, corpus):
        classes = build_archive(corpus).classes
        reference = _backend(VARIANTS[name], "interpreted")
        counter = CountDriver(reference, seen=_seen(reference))
        for definition in classes:
            class_definition(counter, definition)
        expected = StreamSet()
        encoder = EncodeDriver(reference,
                               replay_coders(reference, counter.counts),
                               expected)
        for definition in classes:
            class_definition(encoder, definition)
        expected_streams = [(stream, expected.stream(stream).getvalue())
                            for stream in expected.names()]
        interner = Interner()
        decoder = DecodeDriver(
            reference, replay_coders(reference, counter.counts, interner),
            StreamReader(concat_streams(expected_streams),
                         compressed=False), interner)
        assert [class_definition(decoder, DECODE)
                for _ in classes] == classes

        for backend in CODEC_BACKENDS:
            options = _backend(VARIANTS[name], backend)
            counts = count_classes(classes, options, seen=_seen(options))
            assert counts == counter.counts, backend
            streams = StreamSet()
            encode_classes(classes, options, replay_coders(options, counts),
                           streams)
            written = [(stream, streams.stream(stream).getvalue())
                       for stream in streams.names()]
            assert written == expected_streams, backend
            interner = Interner()
            decoded = decode_classes(
                len(classes), options,
                replay_coders(options, counts, interner),
                StreamReader(concat_streams(written), compressed=False),
                interner)
            assert decoded == classes, backend

    def test_archive_is_count_plus_sequence(self, corpus):
        """The archive walk is the sequence walk behind its META class
        count — nothing else on any stream."""
        archive = build_archive(corpus)
        for backend in CODEC_BACKENDS:
            options = _backend(PackOptions(compress=False), backend)
            packed = pack_archive(corpus, options)
            sequence = StreamSet()
            sequence.stream(wire.META).uvarint(len(archive.classes))
            encode_classes(archive.classes, options,
                           replay_coders(options, count_classes(
                               archive.classes, options)), sequence)
            assert packed[6:] == sequence.serialize(compress=False)


class TestBackendSelection:
    def test_compiled_is_the_default(self):
        assert PackOptions().codec_backend == "compiled"

    def test_validate_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown codec backend"):
            PackOptions(codec_backend="turbo").validate()

    def test_registry_specs_are_warm(self):
        """Every registered archive-container spec compiled at
        registry-import time."""
        assert compiled_codec(current_spec()) is not None
        codec = compiled_codec(spec_for_version(current_spec().version))
        assert codec is compiled_codec(current_spec())

    def test_foreign_spec_falls_back_to_interpreted(self):
        """A spec the compiler cannot prove it matches must return
        None so callers take the reference path."""
        spec = current_spec()
        foreign = dataclasses.replace(
            spec, archive=lambda drv, value: None)
        assert compiled_codec(foreign) is None

    def test_fast_mtf_coders_selected_for_compiled_mtf(self):
        from repro.pack.codec_core.compile import (
            FastMtfDecoder,
            FastMtfEncoder,
        )

        coders = make_space_coders(PackOptions())
        for coder in coders.values():
            assert isinstance(coder.encoder, FastMtfEncoder)
            assert isinstance(coder.decoder, FastMtfDecoder)
        reference = make_space_coders(
            PackOptions(codec_backend="interpreted"))
        for coder in reference.values():
            assert not isinstance(coder.encoder, FastMtfEncoder)


class TestCli:
    def test_invalid_backend_exits_2_with_one_line(self, tmp_path,
                                                   capsys, corpus):
        from repro.classfile.classfile import write_class
        from repro.jar.jarfile import make_jar

        jar = tmp_path / "in.jar"
        jar.write_bytes(make_jar(
            [(c.name + ".class", write_class(c)) for c in corpus]))
        code = cli_main(["pack", str(jar),
                         "-o", str(tmp_path / "out.pack"),
                         "--codec-backend", "turbo"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown codec backend")

    def test_explicit_backends_match_via_cli(self, tmp_path, corpus):
        from repro.classfile.classfile import write_class
        from repro.jar.jarfile import make_jar

        jar = tmp_path / "in.jar"
        jar.write_bytes(make_jar(
            [(c.name + ".class", write_class(c)) for c in corpus]))
        a, b = tmp_path / "a.pack", tmp_path / "b.pack"
        assert cli_main(["pack", str(jar), "-o", str(a),
                         "--codec-backend", "interpreted"]) == 0
        assert cli_main(["pack", str(jar), "-o", str(b),
                         "--codec-backend", "compiled"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestService:
    def test_stats_reports_active_backend(self):
        engine = BatchEngine(workers=0)
        try:
            with PackService(engine, port=0) as service:
                host, port = service.start_background()
                doc = json.loads(urllib.request.urlopen(
                    f"http://{host}:{port}/stats",
                    timeout=10).read())
        finally:
            engine.close()
        assert doc["codec_backend"] == "compiled"

    def test_stats_reports_configured_backend(self):
        engine = BatchEngine(workers=0,
                             codec_backend="interpreted")
        try:
            with PackService(engine, port=0) as service:
                host, port = service.start_background()
                doc = json.loads(urllib.request.urlopen(
                    f"http://{host}:{port}/stats",
                    timeout=10).read())
        finally:
            engine.close()
        assert doc["codec_backend"] == "interpreted"

    def test_backend_does_not_split_cache_keys(self, corpus):
        from repro.classfile.classfile import write_class
        from repro.service.cache import cache_key

        classes = {c.name: write_class(c) for c in corpus}
        keys = {cache_key(classes, PackOptions(codec_backend=backend))
                for backend in CODEC_BACKENDS}
        assert len(keys) == 1, (
            "identical bytes must hit the same cache entry "
            "regardless of backend")
