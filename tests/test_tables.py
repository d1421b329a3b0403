import hashlib
import random

import pytest

from oracles import balls_into_bins_max, poisson_tail_bound
from revoca import ahibe
from revoca.primitives import check_bucket, index_from_ciphertext, seal
from revoca.tables import (
    CheckTableSnapshot,
    CorruptSnapshotError,
    IntegrityError,
    RevocationDocument,
    RevocationEntry,
    RevocationTableSnapshot,
    SegmentRangeError,
    TableParams,
    build_check_table,
    check_snapshot_filename,
    read_snapshot,
    revocation_associated_data,
    revocation_snapshot_filename,
    segment_for_digest,
    snapshot_from_bytes,
    snapshot_to_bytes,
    write_snapshot,
)

rng = random.Random(31337)
PARAMS = TableParams(d=64, c=1024, sigma=16, min_anonymity=1)


class TestTableParams:
    def test_sigma_must_divide_c(self):
        with pytest.raises(ValueError):
            TableParams(d=8, c=10, sigma=3, min_anonymity=1)
        with pytest.raises(ValueError):
            TableParams(d=0, c=8, sigma=2, min_anonymity=1)

    def test_round_trip(self):
        assert TableParams.from_record(PARAMS.to_record()) == PARAMS


class TestCheckTable:
    def test_empty_build(self):
        snap = build_check_table([], PARAMS, day=3)
        assert len(snap.buckets) == PARAMS.c
        assert all(len(b) == 0 for b in snap.buckets)

    def test_placement_and_dedup(self):
        zero_bucket = b"\x00" * 8 + rng.randbytes(24)
        snap = build_check_table([zero_bucket, zero_bucket], TableParams(d=4, c=4, sigma=2, min_anonymity=1), 0)
        assert snap.buckets[0] == (zero_bucket,)
        assert snap.entry_count() == 1

    def test_buckets_sorted(self):
        digests = [rng.randbytes(32) for _ in range(500)]
        snap = build_check_table(digests, PARAMS, 0)
        for bucket in snap.buckets:
            assert list(bucket) == sorted(bucket)

    def test_max_load_within_oracle_bound(self):
        digests = [rng.randbytes(32) for _ in range(10_000)]
        snap = build_check_table(digests, TableParams(d=1, c=1024, sigma=1, min_anonymity=1), 0)
        observed = max(len(b) for b in snap.buckets)
        assert observed <= 40  # far above any plausible max for 10k into 1024
        assert observed <= max(40, balls_into_bins_max(10_000, 1024, trials=5))

    def test_membership(self):
        digests = [rng.randbytes(32) for _ in range(200)]
        snap = build_check_table(digests, PARAMS, 0)
        for digest in digests:
            assert snap.contains(digest)
        assert not snap.contains(rng.randbytes(32))


class TestSegments:
    def test_segment_index_formula(self):
        lo = b"\x00" * 32
        assert segment_for_digest(lo, PARAMS) == 0
        hi = (PARAMS.c - 1).to_bytes(8, "big") + b"\x00" * 24
        assert check_bucket(hi, PARAMS.c) == PARAMS.c - 1
        assert segment_for_digest(hi, PARAMS) == PARAMS.sigma - 1

    def test_partition_reconstructs_membership(self):
        digests = [rng.randbytes(32) for _ in range(10_000)]
        snap = build_check_table(digests, PARAMS, 5)
        segments = [snap.segment(j) for j in range(PARAMS.sigma)]
        # every inserted digest is found via its own segment
        for digest in digests:
            assert segments[segment_for_digest(digest, PARAMS)].contains(digest, PARAMS)
        # segments tile the buckets exactly
        total = sum(len(b) for seg in segments for b in seg.buckets)
        assert total == snap.entry_count()
        # membership across all segments finds exactly the inserted set
        for probe in (rng.randbytes(32) for _ in range(500)):
            expected = snap.contains(probe)
            assert segments[segment_for_digest(probe, PARAMS)].contains(probe, PARAMS) == expected

    def test_wrong_segment_is_range_error(self):
        digests = [rng.randbytes(32) for _ in range(64)]
        snap = build_check_table(digests, PARAMS, 0)
        digest = digests[0]
        j = segment_for_digest(digest, PARAMS)
        other = snap.segment((j + 1) % PARAMS.sigma)
        with pytest.raises(SegmentRangeError):
            other.contains(digest, PARAMS)
        with pytest.raises(SegmentRangeError):
            snap.segment(PARAMS.sigma)

    def test_segment_serialization_round_trip(self):
        snap = build_check_table([rng.randbytes(32) for _ in range(100)], PARAMS, 2)
        segment = snap.segment(3)
        clone = snapshot_from_bytes(snapshot_to_bytes(segment))
        assert clone == segment


def _transparent_world():
    r = random.Random(17)
    rb = lambda n: r.randbytes(n)
    mpp, msk = ahibe.setup("test", rb)
    return mpp, msk, rb


def _entry_for(mpp, msk, rb, root, day, vc_id, doc):
    identity = ahibe.IdentityPath(root, day)
    header, key = ahibe.encap(mpp, identity, rb)
    sealed = seal(key, doc.to_bytes(), revocation_associated_data(root, day, vc_id), rb)
    return RevocationEntry(header=header, sealed_body=sealed)


class TestRevocationTable:
    def test_insert_and_chaining(self):
        params = TableParams(d=8, c=8, sigma=2, min_anonymity=1)
        table = RevocationTableSnapshot.empty(params, day=1)
        mpp, msk, rb = _transparent_world()
        doc = RevocationDocument(vc_id=rb(16), status="revoked", reason="", effective_from=1, sequence=0)
        e1 = _entry_for(mpp, msk, rb, "r", 1, doc.vc_id, doc)
        e2 = _entry_for(mpp, msk, rb, "r", 1, doc.vc_id, doc)
        t1 = table.insert(0, e1)
        t2 = t1.insert(0, e2)
        assert len(table.buckets[0]) == 0  # original untouched
        assert len(t1.buckets[0]) == 1
        assert t2.buckets[0] == (e1, e2)  # insertion order preserved
        with pytest.raises(IndexError):
            table.insert(params.d, e1)

    def test_insert_never_mutates_previous_snapshots(self):
        params = TableParams(d=4, c=4, sigma=1, min_anonymity=1)
        mpp, msk, rb = _transparent_world()
        doc = RevocationDocument(vc_id=rb(16), status="revoked", reason="", effective_from=0, sequence=0)
        table = RevocationTableSnapshot.empty(params, day=0)
        history = []
        for i in range(10):
            history.append((table, hashlib.sha256(snapshot_to_bytes(table)).hexdigest()))
            table = table.insert(i % params.d, _entry_for(mpp, msk, rb, "r", 0, doc.vc_id, doc))
        # re-serialize every retained value: digests unchanged by later inserts
        for old_table, digest in history:
            assert hashlib.sha256(snapshot_to_bytes(old_table)).hexdigest() == digest
        assert len({digest for _, digest in history}) == len(history)

    def test_scan_happy_and_empty(self):
        params = TableParams(d=8, c=8, sigma=2, min_anonymity=1)
        mpp, msk, rb = _transparent_world()
        vc_id = rb(16)
        doc = RevocationDocument(vc_id=vc_id, status="suspended", reason="stress", effective_from=2, sequence=0)
        entry = _entry_for(mpp, msk, rb, "holder", 2, vc_id, doc)
        table = RevocationTableSnapshot.empty(params, 2).insert(3, entry)
        dk = ahibe.delegate(ahibe.extract(msk, "holder", rb), 2, rb)
        assert table.scan(0, dk, "holder", 2, vc_id) == []
        found = table.scan(3, dk, "holder", 2, vc_id)
        assert [d.status for d in found] == ["suspended"]

    def test_scan_skips_other_identities(self):
        params = TableParams(d=2, c=8, sigma=2, min_anonymity=1)
        mpp, msk, rb = _transparent_world()
        table = RevocationTableSnapshot.empty(params, 5)
        my_vc = rb(16)
        # same bucket, foreign entries: other roots, other vc ids, other days
        for root, day, vc in (("other-1", 5, rb(16)), ("other-2", 5, rb(16)), ("holder", 6, my_vc)):
            doc = RevocationDocument(vc_id=vc, status="revoked", reason="", effective_from=day, sequence=0)
            table = table.insert(1, _entry_for(mpp, msk, rb, root, day, vc, doc))
        dk = ahibe.delegate(ahibe.extract(msk, "holder", rb), 5, rb)
        assert table.scan(1, dk, "holder", 5, my_vc) == []

    def test_scan_orders_by_sequence(self):
        params = TableParams(d=2, c=8, sigma=2, min_anonymity=1)
        mpp, msk, rb = _transparent_world()
        vc_id = rb(16)
        table = RevocationTableSnapshot.empty(params, 1)
        for sequence in (2, 0, 1):
            doc = RevocationDocument(vc_id=vc_id, status="revoked", reason=f"s{sequence}", effective_from=1, sequence=sequence)
            table = table.insert(0, _entry_for(mpp, msk, rb, "h", 1, vc_id, doc))
        dk = ahibe.delegate(ahibe.extract(msk, "h", rb), 1, rb)
        assert [d.sequence for d in table.scan(0, dk, "h", 1, vc_id)] == [0, 1, 2]

    def test_scan_flags_publisher_misbehavior(self):
        # a correctly-addressed envelope whose inner document names another
        # credential is an integrity violation, not a silent skip
        params = TableParams(d=2, c=8, sigma=2, min_anonymity=1)
        mpp, msk, rb = _transparent_world()
        vc_id = rb(16)
        wrong = RevocationDocument(vc_id=rb(16), status="revoked", reason="", effective_from=1, sequence=0)
        identity = ahibe.IdentityPath("h", 1)
        header, key = ahibe.encap(mpp, identity, rb)
        sealed = seal(key, wrong.to_bytes(), revocation_associated_data("h", 1, vc_id), rb)
        table = RevocationTableSnapshot.empty(params, 1).insert(0, RevocationEntry(header, sealed))
        dk = ahibe.delegate(ahibe.extract(msk, "h", rb), 1, rb)
        with pytest.raises(IntegrityError):
            table.scan(0, dk, "h", 1, vc_id)
        # garbage plaintext in a well-sealed envelope is equally flagged
        sealed2 = seal(key, b"\x00 not a document", revocation_associated_data("h", 1, vc_id), rb)
        table2 = RevocationTableSnapshot.empty(params, 1).insert(0, RevocationEntry(header, sealed2))
        with pytest.raises(IntegrityError):
            table2.scan(0, dk, "h", 1, vc_id)

    def test_load_factor_matches_poisson_oracle(self):
        params = TableParams(d=128, c=8, sigma=2, min_anonymity=1)
        mpp, msk, rb = _transparent_world()
        bound = poisson_tail_bound(lam=1.0, buckets=128 * 50, q=0.001)
        r = random.Random(8)
        for trial in range(50):
            table = RevocationTableSnapshot.empty(params, 0)
            for i in range(params.d):
                index = index_from_ciphertext(r.randbytes(40), params.d)
                doc = RevocationDocument(vc_id=r.randbytes(16), status="revoked", reason="", effective_from=0, sequence=0)
                table = table.insert(index, _entry_for(mpp, msk, rb, "h", 0, doc.vc_id, doc))
            mean, peak = table.load_stats()
            assert mean == params.d / params.d  # exactly n/m
            assert peak <= bound


class TestSnapshotFiles:
    def test_round_trip_empty_and_large(self, tmp_path):
        params = TableParams(d=16, c=16, sigma=4, min_anonymity=1)
        empty = RevocationTableSnapshot.empty(params, 9)
        path = tmp_path / revocation_snapshot_filename(9)
        write_snapshot(empty, path)
        assert read_snapshot(path) == empty

        mpp, msk, rb = _transparent_world()
        table = RevocationTableSnapshot.empty(params, 9)
        for i in range(1000):
            doc = RevocationDocument(vc_id=rb(16), status="revoked", reason=str(i), effective_from=9, sequence=0)
            table = table.insert(i % params.d, _entry_for(mpp, msk, rb, f"h{i}", 9, doc.vc_id, doc))
        write_snapshot(table, path)
        assert read_snapshot(path) == table

        check = build_check_table([rb(32) for _ in range(100)], params, 9)
        cpath = tmp_path / check_snapshot_filename(9)
        write_snapshot(check, cpath)
        assert read_snapshot(cpath) == check

    def test_flipped_byte_detected(self, tmp_path):
        params = TableParams(d=4, c=4, sigma=2, min_anonymity=1)
        snap = build_check_table([random.Random(3).randbytes(32)], params, 1)
        path = tmp_path / "check-1.snap"
        write_snapshot(snap, path)
        raw = bytearray(path.read_bytes())
        pos = raw.index(b'"buckets"') + 20
        raw[pos] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError):
            read_snapshot(path)

    def test_kind_confusion_rejected(self, tmp_path):
        params = TableParams(d=4, c=4, sigma=2, min_anonymity=1)
        snap = build_check_table([], params, 1)
        rec = snap.to_record()
        rec["kind"] = "revocation"
        from revoca.encoding import canonical_encode

        with pytest.raises(CorruptSnapshotError):
            snapshot_from_bytes(canonical_encode(rec))


class TestRevocationDocument:
    def test_round_trip_with_constraints(self):
        doc = RevocationDocument(
            vc_id=bytes(16),
            status="conditioned",
            reason="territorial limits",
            effective_from=12,
            sequence=3,
            constraints={"territory": "zone-b", "until_day": 40},
        )
        assert RevocationDocument.from_bytes(doc.to_bytes()) == doc

    def test_validation(self):
        with pytest.raises(ValueError):
            RevocationDocument(vc_id=bytes(16), status="vaporized", reason="", effective_from=0, sequence=0)
        with pytest.raises(ValueError):
            RevocationDocument(vc_id=bytes(16), status="revoked", reason="", effective_from=0, sequence=-1)
