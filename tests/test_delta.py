"""The delta subsystem: diff/patch byte-identity, manifest hashing,
error contracts, and adversarial corruption.

The load-bearing property is end-to-end: for every scheme in the
golden-fixture matrix, ``patch(base, diff(base, target))`` must be
**byte-identical** to a fresh ``pack`` of the target corpus — the
client that applies deltas forever must hold exactly the bytes a
full download would have given it.  The corruption contract matches
the decompressor's: a damaged delta either raises
:class:`~repro.errors.UnpackError` (or ``JobInputError`` when the
damage hits the base digest) or — if the flipped bit turns out to be
semantically inert — still reconstructs the exact target bytes.
Silently wrong output is the one forbidden outcome.
"""

import copy
import dataclasses
import hashlib
import json
import random

import pytest

from make_golden import golden_corpus, golden_variants
from make_golden_deltas import (
    SCENARIOS,
    load_digests,
    scenario_corpora,
    scenario_packs,
)
from repro.coding.streams import StreamSet
from repro.delta import (
    HASH_OPTIONS,
    HASH_PREFIX_BYTES,
    OP_UNCHANGED,
    DeltaSummary,
    archive_manifest,
    class_fingerprint,
    classify,
    diff_packed,
    patch_packed,
    verify_classes,
)
from repro.delta import diff as diff_mod
from repro.delta.diff import prefix_counts, replay_coders
from repro.errors import JobInputError, ReproError, UnpackError
from repro.ir.build import build_archive
from repro.pack import PackOptions, pack_archive, unpack_archive
from repro.pack.codec_core import (
    EncodeDriver,
    class_definition,
    encode_classes,
    make_space_coders,
)
from repro.pack.options import CODEC_BACKENDS, EXECUTION_ONLY_FIELDS

VARIANTS = golden_variants()
DIGESTS = load_digests()


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus()


def _mutated(classfile):
    """A semantically distinct copy: toggle ACC_FINAL on the class."""
    mutated = copy.deepcopy(classfile)
    mutated.access_flags ^= 0x0010
    return mutated


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_patch_equals_fresh_pack(self, name, corpus):
        options = VARIANTS[name]
        base_corpus = corpus[:4]
        target_corpus = corpus[:3] + corpus[4:] + [_mutated(corpus[3])]
        base = pack_archive(base_corpus, options)
        target = pack_archive(target_corpus, options)
        delta, summary = diff_packed(base, target, options)
        patched, _ = patch_packed(base, delta)
        assert patched == target
        assert summary.unchanged == 3
        assert summary.modified == 1
        assert summary.added == 1
        assert summary.removed == 0

    def test_pure_removal(self, corpus):
        options = PackOptions()
        base = pack_archive(corpus, options)
        target = pack_archive(corpus[:3], options)
        delta, summary = diff_packed(base, target, options)
        assert summary.removed == 2 and summary.added == 0
        patched, _ = patch_packed(base, delta)
        assert patched == target

    def test_empty_delta(self, corpus):
        options = PackOptions()
        base = pack_archive(corpus, options)
        delta, summary = diff_packed(base, base, options)
        assert summary.modified == summary.added == 0
        assert summary.unchanged == len(corpus)
        # Nothing changed, so no codec suffix travels: the container
        # is a small fraction of the full pack.
        assert len(delta) < len(base)
        patched, patch_summary = patch_packed(base, delta)
        assert patched == base
        assert patch_summary.unchanged == len(corpus)

    def test_reordering_is_not_free(self, corpus):
        # Same classes, different archive order: every class is
        # "unchanged" (fingerprints match) yet the output must still
        # be the *target* ordering, byte-exactly.
        options = PackOptions()
        base = pack_archive(corpus, options)
        target = pack_archive(list(reversed(corpus)), options)
        delta, summary = diff_packed(base, target, options)
        assert summary.unchanged == len(corpus)
        patched, _ = patch_packed(base, delta)
        assert patched == target


class TestGoldenDeltas:
    """Delta bytes are pinned: ``tests/fixtures/golden/deltas.json``
    holds the SHA-256 of every golden variant's delta in each release
    scenario (``tests/make_golden_deltas.py``).  Both backends and a
    memory budget must reproduce them, and each must patch back."""

    def test_every_case_is_pinned(self):
        assert set(DIGESTS) == {f"{name}/{scenario}"
                                for name in VARIANTS
                                for scenario in SCENARIOS}

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_digest_at_every_backend_and_budget(self, name, scenario,
                                                corpus):
        options = VARIANTS[name]
        base, target = scenario_packs(corpus, options, scenario)
        for knobs in ({"codec_backend": "compiled"},
                      {"codec_backend": "interpreted"},
                      {"memory_budget": 65536}):
            delta, _ = diff_packed(base, target,
                                   dataclasses.replace(options, **knobs))
            assert hashlib.sha256(delta).hexdigest() == \
                DIGESTS[f"{name}/{scenario}"], knobs
        patched, _ = patch_packed(base, delta)
        assert patched == target


class TestExecutionOnlyKnobs:
    """Regression: the options record once carried every
    ``PackOptions`` field, so one base/target pair gave a different
    delta per backend and per memory budget, and the gateway's delta
    cache served whichever bytes the first request computed.
    ``TestGoldenDeltas`` checks the bytes at each backend and budget;
    these pin the record itself."""

    def test_record_leaves_out_execution_fields(self):
        record = json.loads(diff_mod._canonical_options(
            PackOptions(codec_backend="interpreted", memory_budget=4096)))
        assert not set(EXECUTION_ONLY_FIELDS) & set(record)
        assert "seed" in record and "scheme" in record

    def test_old_records_still_patch(self, monkeypatch):
        """Containers written with the full record (backend and budget
        included) still parse and patch; no DELTA_VERSION bump."""
        base, target = scenario_packs(golden_corpus(), PackOptions(),
                                      "modified")

        def full_record(options):
            return json.dumps(dataclasses.asdict(options), sort_keys=True,
                              separators=(",", ":")).encode("utf-8")

        monkeypatch.setattr(diff_mod, "_canonical_options", full_record)
        old, _ = diff_packed(base, target,
                             PackOptions(codec_backend="interpreted"))
        monkeypatch.undo()
        new, _ = diff_packed(base, target, PackOptions())
        assert old != new
        for delta in (old, new):
            patched, _ = patch_packed(base, delta)
            assert patched == target


def _interpreted_fingerprint(definition):
    """The fingerprint's definition on the interpreted walk: the class
    alone through ``class_definition`` under ``HASH_OPTIONS``, streams
    hashed in sorted name order as ``name || u32_be(len) || payload``."""
    options = dataclasses.replace(HASH_OPTIONS,
                                  codec_backend="interpreted")
    streams = StreamSet()
    class_definition(EncodeDriver(options, make_space_coders(options),
                                  streams), definition)
    digest = hashlib.sha256()
    for name in sorted(streams.names()):
        payload = streams.stream(name).getvalue()
        digest.update(name.encode("utf-8"))
        digest.update(len(payload).to_bytes(4, "big"))
        digest.update(payload)
    return digest.digest()


class TestPrefixReplay:
    """The replay invariant a diff no longer re-checks at run time.

    A diff encodes once — the prefix, then the changed classes on the
    same coders — and ships each stream's bytes past the length it
    recorded in between.  It used to encode the prefix a second time
    and compare; these tests pin, on both backends, that the recorded
    lengths are where a standalone prefix encode ends."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_recorded_lengths_equal_standalone_prefix(self, name,
                                                      scenario, corpus):
        base_classes, target_classes = scenario_corpora(corpus, scenario)
        base = build_archive(base_classes)
        target = build_archive(target_classes)
        plan, _ = classify(archive_manifest(base),
                           archive_manifest(target))
        prefix = [base.classes[index] for op, index in plan
                  if op == OP_UNCHANGED]
        changed = [target.classes[position]
                   for position, (op, _) in enumerate(plan)
                   if op != OP_UNCHANGED]
        written = {}
        for backend in CODEC_BACKENDS:
            options = dataclasses.replace(VARIANTS[name],
                                          codec_backend=backend)
            counts = prefix_counts(prefix, options)
            coders = replay_coders(options, counts)
            streams = StreamSet()
            encode_classes(prefix, options, coders, streams)
            head = streams.raw_sizes()
            encode_classes(changed, options, coders, streams)
            alone = StreamSet()
            encode_classes(prefix, options,
                           replay_coders(options, counts), alone)
            assert head == alone.raw_sizes(), backend
            for stream in alone.names():
                assert streams.stream(stream).getvalue()[:head[stream]] \
                    == alone.stream(stream).getvalue(), (backend, stream)
            written[backend] = [(stream, streams.stream(stream).getvalue())
                                for stream in streams.names()]
        assert written["compiled"] == written["interpreted"]

    def test_compiled_fingerprint_equals_interpreted(self, corpus):
        assert HASH_OPTIONS.codec_backend == "compiled"
        classes = build_archive(corpus).classes + \
            build_archive([_mutated(c) for c in corpus]).classes
        for definition in classes:
            assert class_fingerprint(definition) == \
                _interpreted_fingerprint(definition), \
                definition.this_class.internal_name


class TestManifest:
    def test_fingerprint_is_position_independent(self, corpus):
        alone = build_archive([corpus[2]]).classes[0]
        in_context = build_archive(corpus).classes[2]
        assert class_fingerprint(alone) == class_fingerprint(in_context)

    def test_fingerprint_distinguishes_content(self, corpus):
        original = build_archive([corpus[0]]).classes[0]
        mutated = build_archive([_mutated(corpus[0])]).classes[0]
        assert class_fingerprint(original) != class_fingerprint(mutated)

    def test_manifest_names_and_order(self, corpus):
        archive = build_archive(corpus)
        manifest = archive_manifest(archive)
        assert [name for name, _ in manifest] == \
            [c.this_class.internal_name for c in archive.classes]
        assert all(len(fp) == 32 for _, fp in manifest)

    def test_verify_classes_catches_tampering(self, corpus):
        archive = build_archive(corpus)
        prefixes = [fp[:HASH_PREFIX_BYTES]
                    for _, fp in archive_manifest(archive)]
        verify_classes(archive.classes, prefixes)  # must not raise
        prefixes[1] = bytes(HASH_PREFIX_BYTES)
        with pytest.raises(UnpackError, match="manifest"):
            verify_classes(archive.classes, prefixes)
        with pytest.raises(UnpackError, match="covers"):
            verify_classes(archive.classes[:-1], prefixes)


class TestErrorContracts:
    @pytest.fixture(scope="class")
    def packs(self):
        corpus = golden_corpus()
        options = PackOptions()
        base = pack_archive(corpus[:4], options)
        target = pack_archive(corpus, options)
        delta, _ = diff_packed(base, target, options)
        return base, target, delta

    def test_wrong_base_is_job_input_error(self, packs):
        base, target, delta = packs
        with pytest.raises(JobInputError, match="does not match"):
            patch_packed(target, delta)

    def test_decompressor_rejects_delta_container(self, packs):
        _, _, delta = packs
        with pytest.raises(UnpackError, match="repro patch"):
            unpack_archive(delta)

    def test_patch_rejects_plain_archive(self, packs):
        base, target, _ = packs
        with pytest.raises(UnpackError, match="repro unpack"):
            patch_packed(base, target)

    def test_summary_ratio(self, packs):
        base, target, delta = packs
        summary = DeltaSummary(base_classes=4, target_classes=5,
                               unchanged=4, modified=0, added=1,
                               removed=0, delta_bytes=len(delta),
                               target_pack_bytes=len(target))
        assert 0 < summary.ratio <= 1
        assert summary.to_dict()["ratio"] == round(summary.ratio, 4)


class TestAdversarial:
    @pytest.fixture(scope="class")
    def packs(self):
        corpus = golden_corpus()
        options = PackOptions()
        base = pack_archive(corpus[:4], options)
        target = pack_archive(corpus, options)
        delta, _ = diff_packed(base, target, options)
        return base, target, delta

    def test_truncations_raise_unpack_error(self, packs):
        base, _, delta = packs
        for length in [0, 1, 4, 5, 6, len(delta) // 2, len(delta) - 1]:
            with pytest.raises(ReproError):
                patch_packed(base, delta[:length])

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_flips_never_yield_wrong_bytes(self, seed, packs):
        base, target, delta = packs
        rng = random.Random(seed)
        position = rng.randrange(len(delta))
        corrupted = bytearray(delta)
        corrupted[position] ^= 1 << rng.randrange(8)
        try:
            patched, _ = patch_packed(base, bytes(corrupted))
        except (UnpackError, JobInputError):
            return  # the expected outcome for a damaged container
        # A flip the format provably ignores must still reconstruct
        # the exact target (e.g. the legacy compressed-flag byte).
        assert patched == target

    def test_flipped_hash_prefix_is_caught(self, packs):
        # Surgical check that the manifest layer (not just the final
        # digest) trips: rebuild the delta with one hash bit off by
        # flipping inside the serialized container is not targeted,
        # so go through verify_classes semantics instead.
        base, _, delta = packs
        corrupted = bytearray(delta)
        corrupted[-1] ^= 0x80
        with pytest.raises((UnpackError, JobInputError)):
            patch_packed(base, bytes(corrupted))


class TestObservability:
    def test_delta_metrics_are_recorded(self, corpus):
        from repro import observe

        options = PackOptions()
        base = pack_archive(corpus[:4], options)
        target = pack_archive(corpus, options)
        with observe.recording() as recorder:
            delta, _ = diff_packed(base, target, options)
            patch_packed(base, delta)
        counters = recorder.metrics.counters
        assert counters["delta.diffs"] == 1
        assert counters["delta.patches"] == 1
        assert counters["delta.classes.unchanged"] == 4
        assert counters["delta.classes.added"] == 1
        histograms = recorder.metrics.histograms
        assert "delta.patch_ms" in histograms
        assert "delta.ratio_pct" in histograms

    def test_delta_traces_show_their_layers(self, corpus):
        from repro import observe

        options = PackOptions()
        base = pack_archive(corpus[:4], options)
        target = pack_archive(corpus, options)
        with observe.recording() as recorder:
            delta, _ = diff_packed(base, target, options)
            patch_packed(base, delta)
        diff = recorder.trace.find("delta.diff")
        assert [span.name for span in diff.children] == [
            "inflate", "decode", "inflate", "decode", "delta.manifest",
            "count", "encode", "serialize"]
        patch = recorder.trace.find("delta.patch")
        assert [span.name for span in patch.children] == [
            "inflate", "decode", "count", "encode", "decode", "verify"]
        verify = patch.children[-1]
        assert [span.name for span in verify.children] == [
            "delta.manifest", "count", "encode", "serialize"]


class TestCli:
    def test_diff_patch_roundtrip(self, tmp_path, corpus, capsys):
        from repro.cli import main

        options = PackOptions(scheme="basic", use_context=False,
                              transients=False)
        base_path = tmp_path / "base.pack"
        target_path = tmp_path / "target.pack"
        base_path.write_bytes(pack_archive(corpus[:4], options))
        target_path.write_bytes(pack_archive(corpus, options))
        delta_path = tmp_path / "update.dpack"
        out_path = tmp_path / "rebuilt.pack"

        assert main(["diff", str(base_path), str(target_path),
                     "-o", str(delta_path),
                     "--scheme", "basic", "--no-context",
                     "--no-transients"]) == 0
        assert "1 added" in capsys.readouterr().out
        assert main(["patch", str(base_path), str(delta_path),
                     "-o", str(out_path)]) == 0
        assert "verified" in capsys.readouterr().out
        assert out_path.read_bytes() == target_path.read_bytes()

    def test_patch_wrong_base_exits_2(self, tmp_path, corpus, capsys):
        from repro.cli import main

        options = PackOptions()
        base_path = tmp_path / "base.pack"
        target_path = tmp_path / "target.pack"
        base_path.write_bytes(pack_archive(corpus[:4], options))
        target_path.write_bytes(pack_archive(corpus, options))
        delta_path = tmp_path / "update.dpack"
        assert main(["diff", str(base_path), str(target_path),
                     "-o", str(delta_path)]) == 0
        capsys.readouterr()
        assert main(["patch", str(target_path), str(delta_path)]) == 2
        assert "error:" in capsys.readouterr().err
