import functools
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    balls_into_bins_max,
    poisson_tail_bound,
    rebuild_revocation_oracle,
    snapshot_from_bytes_v1,
    snapshot_to_bytes_v1,
)
from revoca import actors, ahibe
from revoca.primitives import check_bucket, generate_signing_key, index_from_ciphertext, seal, signing_public_key
from revoca.sim import CounterRng
from revoca.tables import (
    MAX_BUCKETS,
    REVOCATION_STATUSES,
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
        digest = random.Random(3).randbytes(32)
        snap = build_check_table([digest], params, 1)
        path = tmp_path / "check-1.snap"
        write_snapshot(snap, path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(digest) + 20] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError):
            read_snapshot(path)

    def test_kind_confusion_rejected(self):
        params = TableParams(d=4, c=4, sigma=2, min_anonymity=1)
        raw = bytearray(snapshot_to_bytes(build_check_table([], params, 1)))
        assert raw[KIND_AT] == 1
        raw[KIND_AT] = 3  # revocation
        with pytest.raises(CorruptSnapshotError):  # the digest covers the kind
            snapshot_from_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError):  # and a re-digested file is no revocation table
            snapshot_from_bytes(_redigest(bytes(raw)))


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


# snapshot codec v2: the file layout spelled out independently of the encoder

MAGIC = b"RVSN2"
KIND_AT = len(MAGIC) + 32  # the digest covers every byte from the kind on
SCHEMES = ("test", "standard")


def _redigest(raw: bytes) -> bytes:
    return raw[: len(MAGIC)] + hashlib.sha256(raw[KIND_AT:]).digest() + raw[KIND_AT:]


def _file(kind: int, day: int, fields: tuple, body: bytes) -> bytes:
    return _redigest(MAGIC + bytes(32) + struct.pack(f">BQ{len(fields)}I", kind, day, *fields) + body)


def _scheme(scheme_id: str) -> bytes:
    return bytes([len(scheme_id.encode())]) + scheme_id.encode()


def _entry_bytes(index: int, entry: RevocationEntry) -> bytes:
    values = b"".join(entry.header.fields.values())
    return struct.pack(">I", index) + values + struct.pack(">I", len(entry.sealed_body)) + entry.sealed_body


@functools.lru_cache(maxsize=None)
def _keys(level):
    r = random.Random(f"keys/{level}")
    return ahibe.setup(level, lambda n: r.randbytes(n))


def _random_tables(level: str, seed: int, entries: int) -> tuple:
    """A check table, one of its segments and a revocation table of
    `entries` documents for one day, all drawn from `seed`."""
    mpp, msk = _keys(level)
    r = random.Random(seed)
    rb = lambda n: r.randbytes(n)  # noqa: E731
    params = TableParams(d=r.choice((1, 5, 64)), c=16, sigma=r.choice((1, 4, 16)), min_anonymity=1)
    day = r.randrange(1000)
    check = build_check_table([rb(32) for _ in range(r.randrange(60))], params, day)
    table = RevocationTableSnapshot.empty(params, day)
    for _ in range(entries):
        doc = RevocationDocument(
            vc_id=rb(16), status=r.choice(REVOCATION_STATUSES), reason="r" * r.randrange(40),
            effective_from=day, sequence=r.randrange(5),
        )
        table = table.insert(r.randrange(params.d), _entry_for(mpp, msk, rb, f"h{r.randrange(3)}", day, doc.vc_id, doc))
    return check, check.segment(r.randrange(params.sigma)), table


class TestCodecV2:
    def test_layout(self):
        mpp, msk, rb = _transparent_world()
        params = TableParams(d=8, c=4, sigma=2, min_anonymity=3)
        doc = RevocationDocument(vc_id=rb(16), status="revoked", reason="", effective_from=7, sequence=0)
        e1, e2, e3 = (_entry_for(mpp, msk, rb, "h", 7, doc.vc_id, doc) for _ in range(3))
        table = RevocationTableSnapshot.empty(params, 7).insert(5, e1).insert(2, e2).insert(5, e3)
        body = _scheme("transparent-v1") + _entry_bytes(2, e2) + _entry_bytes(5, e1) + _entry_bytes(5, e3)
        assert snapshot_to_bytes(table) == _file(3, 7, (8, 4, 2, 3, 3), body)
        assert snapshot_to_bytes(RevocationTableSnapshot.empty(params, 7)) == _file(3, 7, (8, 4, 2, 3, 0), b"")

        check = build_check_table([b"\x00" * 7 + bytes([i]) + rb(24) for i in (1, 2, 2, 3)], params, 7)
        counts = struct.pack(">4I", *(len(b) for b in check.buckets))
        assert snapshot_to_bytes(check) == _file(1, 7, (8, 4, 2, 3, 4), counts + b"".join(sum(check.buckets, ())))
        segment = check.segment(1)
        assert snapshot_to_bytes(segment) == _file(
            2, 7, (1, 2, 2, len(sum(segment.buckets, ()))),
            struct.pack(">2I", *map(len, segment.buckets)) + b"".join(sum(segment.buckets, ())),
        )

    @pytest.mark.parametrize("level", SCHEMES)
    def test_round_trip_matches_v1_oracle(self, level):
        for seed in range(2 if level == "standard" else 25):
            for snapshot in _random_tables(level, seed, entries=2 if level == "standard" else 30):
                raw = snapshot_to_bytes(snapshot)
                decoded = snapshot_from_bytes(raw)
                assert decoded == snapshot_from_bytes_v1(snapshot_to_bytes_v1(snapshot)) == snapshot
                assert snapshot_to_bytes(decoded) == raw
                assert len(raw) < len(snapshot_to_bytes_v1(snapshot))

    @pytest.mark.parametrize("level", SCHEMES)
    def test_decoded_entries_keep_headers_and_kem_keys(self, level):
        mpp, msk = _keys(level)
        r = random.Random(5)
        rb = lambda n: r.randbytes(n)  # noqa: E731
        identity = ahibe.IdentityPath("h", 9)
        keys, table = [], RevocationTableSnapshot.empty(TableParams(d=4, c=4, sigma=1, min_anonymity=1), 9)
        for index in (3, 0, 3):
            header, key = ahibe.encap(mpp, identity, rb)
            keys.append(key)
            table = table.insert(index, RevocationEntry(header, rb(40)))
        decoded = snapshot_from_bytes(snapshot_to_bytes(table))
        dk = ahibe.delegate(ahibe.extract(msk, "h", rb), 9, rb)
        pairs = [(a, b) for old, new in zip(table.buckets, decoded.buckets) for a, b in zip(old, new)]
        assert len(pairs) == 3
        for (original, clone), key in zip(pairs, (keys[1], keys[0], keys[2])):
            assert clone.header.fields == original.header.fields
            assert clone.header.canonical_bytes() == original.header.canonical_bytes()
            assert ahibe.decap(dk, clone.header) == key

    @pytest.mark.parametrize("level", SCHEMES)
    def test_rollover_build_matches_insert_per_document(self, level):
        mpp, _ = _keys(level)
        params = TableParams(d=4 if level == "standard" else 8, c=4, sigma=1, min_anonymity=1)
        states = []
        for _ in range(2):
            rng = CounterRng(b"rollover-" + level.encode())
            issuer = actors.issuer_init(params, day=0, mpp=mpp, issuer_id="iss", rng=rng)
            for i in range(3 if level == "standard" else 24):
                expiry = 0 if i % 5 == 4 else 50  # some expire before the rollover day
                credential, _ = actors.issuer_issue(issuer, f"h{i % 7}", {}, expiry, signing_public_key(generate_signing_key(rng)))
                if i % 3 != 2:
                    for sequence in range(1 + i % 2):
                        doc = RevocationDocument(credential.vc_id, "suspended", f"{i}", 0, sequence)
                        actors.issuer_revoke(issuer, credential.vc_id, doc, 0)
            states.append(issuer)
        expected = rebuild_revocation_oracle(states[1], 1)
        actors.issuer_rollover(states[0], 1)
        assert states[0].revocation == expected
        assert snapshot_to_bytes(states[0].revocation) == snapshot_to_bytes(expected)
        assert expected.entry_count() > 0


def _revocation_case_bodies():
    """(name, fields, body) of re-digested revocation tables that must not
    decode; each differs from a valid two-entry table in one respect."""
    mpp, msk, rb = _transparent_world()
    doc = RevocationDocument(vc_id=rb(16), status="revoked", reason="", effective_from=4, sequence=0)
    e1, e2 = (_entry_for(mpp, msk, rb, "h", 4, doc.vc_id, doc) for _ in range(2))
    scheme = _scheme("transparent-v1")
    entries = _entry_bytes(1, e1) + _entry_bytes(3, e2)
    fields = (8, 8, 2, 1, 2)
    valid = _file(3, 4, fields, scheme + entries)
    assert snapshot_from_bytes(valid).buckets[3] == (e2,)
    return [
        ("unknown scheme, as the version-1 header", fields, _scheme("x") + entries),
        ("header fields of another scheme", fields, _scheme("bw2-bls381-v1") + entries),
        ("no scheme id at all", fields, entries),
        ("scheme id not UTF-8", fields, bytes([2, 0xC3, 0x28]) + entries),
        ("scheme id longer than the body", fields, bytes([200]) + b"transparent-v1"),
        ("truncated body", fields, scheme + entries[:-1]),
        ("truncated entry", fields, scheme + entries[:-len(e2.sealed_body) - 20]),
        ("truncated scheme id", fields, scheme[:5]),
        ("empty body", fields, b""),
        ("slot equal to d", fields, scheme + _entry_bytes(1, e1) + _entry_bytes(8, e2)),
        ("slot far beyond d", fields, scheme + _entry_bytes(2**32 - 1, e1) + _entry_bytes(3, e2)),
        ("out-of-order slot", fields, scheme + _entry_bytes(3, e2) + _entry_bytes(1, e1)),
        ("trailing bytes", fields, scheme + entries + b"\x00"),
        ("more entries counted than present", (8, 8, 2, 1, 3), scheme + entries),
        ("fewer entries counted than present", (8, 8, 2, 1, 1), scheme + entries),
        ("an empty table with a body", (8, 8, 2, 1, 0), scheme),
        ("sigma not dividing c", (8, 8, 3, 1, 2), scheme + entries),
        ("zero slots", (0, 8, 2, 1, 2), scheme + entries),
        ("d above the cap", (MAX_BUCKETS + 1, 8, 2, 1, 2), scheme + entries),
    ]


@pytest.mark.parametrize("fields, body", [pytest.param(f, b, id=name) for name, f, b in _revocation_case_bodies()])
def test_malformed_revocation_table_is_corrupt(fields, body):
    with pytest.raises(CorruptSnapshotError):
        snapshot_from_bytes(_file(3, 4, fields, body))


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"", id="empty"),
        pytest.param(MAGIC, id="magic only"),
        pytest.param(b"RVSN1" + bytes(40), id="another version"),
        pytest.param(_file(4, 1, (), b""), id="unknown kind"),
        pytest.param(_file(1, 1, (4, 4), b""), id="fixed fields cut short"),
        pytest.param(_file(1, 1, (4, 4, 2, 1, 1), struct.pack(">4I", 0, 1, 0, 0)), id="counted digest missing"),
        pytest.param(_file(1, 1, (4, 4, 2, 1, 1), struct.pack(">4I", 0, 2, 0, 0) + bytes(32)), id="counts off the total"),
        pytest.param(_file(1, 1, (4, 4, 2, 1, 0), struct.pack(">3I", 0, 0, 0)), id="one count short"),
        pytest.param(_file(1, 1, (4, 4, 2, 1, 0), struct.pack(">4I", 0, 0, 0, 0) + bytes(32)), id="uncounted digest"),
        pytest.param(_file(2, 1, (1, 3, 2, 0), struct.pack(">2I", 0, 0)), id="segment start off its index"),
        pytest.param(_file(2, 1, (0, 0, 2, 0), struct.pack(">2I", 0, 0) + b"\x01"), id="segment trailing byte"),
    ],
)
def test_malformed_check_snapshot_is_corrupt(raw):
    with pytest.raises(CorruptSnapshotError):
        snapshot_from_bytes(raw)


def test_segment_of_another_width_is_a_range_error():
    # a well-formed segment two buckets wide, where the params make segment 0
    # four buckets wide: a digest in bucket 3 lies outside it
    params = TableParams(d=4, c=8, sigma=2, min_anonymity=1)
    digest = b"\x00" * 7 + b"\x03" + bytes(24)
    narrow = snapshot_from_bytes(_file(2, 1, (0, 0, 2, 0), struct.pack(">2I", 0, 0)))
    with pytest.raises(SegmentRangeError):
        narrow.contains(digest, params)
    assert build_check_table([digest], params, 1).segment(0).contains(digest, params)


@functools.lru_cache(maxsize=None)
def _samples() -> tuple:
    """Encoded check tables, segments and revocation tables on both schemes."""
    return tuple(
        snapshot_to_bytes(snapshot)
        for level, seed, entries in (("test", 1, 6), ("test", 2, 0), ("standard", 3, 2))
        for snapshot in _random_tables(level, seed, entries)
    )


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_decoder_raises_only_corrupt_snapshot_error(data):
    """Random byte flips, truncations and splices, with the digest left as it
    is or recomputed over the mutated bytes: the decoder either raises
    CorruptSnapshotError or returns a snapshot that encodes to exactly those
    bytes."""
    samples = _samples()
    raw = bytearray(data.draw(st.sampled_from(samples)))
    mutation = data.draw(st.sampled_from(("flip", "truncate", "splice")))
    if mutation == "flip":
        for _ in range(data.draw(st.integers(1, 3))):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    elif mutation == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    else:
        other = data.draw(st.sampled_from(samples))
        raw = raw[: data.draw(st.integers(0, len(raw)))] + other[data.draw(st.integers(0, len(other))) :]
    raw = bytes(raw)
    if data.draw(st.booleans()):
        raw = _redigest(raw)
    try:
        snapshot = snapshot_from_bytes(raw)
    except CorruptSnapshotError:
        return
    assert snapshot_to_bytes(snapshot) == raw
