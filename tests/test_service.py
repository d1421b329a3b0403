import functools
import hashlib
import json
import os
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from oracles import RecordingTransport, check_buckets, rollover_publishing_each_day, snapshot_to_bytes_v1
from revoca import actors, ahibe, service
from revoca.encoding import CanonicalDecodeError, canonical_decode
from revoca.primitives import generate_signing_key, signing_public_key
from revoca.tables import (
    CorruptSnapshotError,
    RevocationDocument,
    RevocationTableSnapshot,
    TableParams,
    read_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)


def _rng(seed):
    r = random.Random(seed)
    return lambda n: r.randbytes(n)


PARAMS = TableParams(d=32, c=32, sigma=4, min_anonymity=1)


@pytest.fixture()
def world(tmp_path):
    rng = _rng(3)
    mpp, msk = ahibe.setup("test", rng)
    issuer = actors.issuer_init(PARAMS, day=10, mpp=mpp, issuer_id="iss", rng=rng)
    store = service.PublicationStore(tmp_path / "public")
    document = service.make_params_document(mpp, PARAMS, epoch=1000, granularity_seconds=86400, issuer_id="iss", signing_key=issuer.signing_key)
    store.write_params(document)
    pop = generate_signing_key(rng)
    wallet = actors.Wallet()
    hk = ahibe.extract(msk, "h-0", rng)
    credential, seed = actors.issuer_issue(issuer, "h-0", {}, 400, signing_public_key(pop))
    actors.holder_store(wallet, credential, seed, hk, pop, issuer.public_key)
    actors.issuer_publish(issuer, store)
    return {
        "rng": rng,
        "mpp": mpp,
        "issuer": issuer,
        "store": store,
        "document": document,
        "wallet": wallet,
        "credential": credential,
        "trust": actors.TrustStore({"iss": issuer.public_key}),
    }


class TestParamsDocument:
    def test_signature_and_round_trip(self, world):
        document = world["document"]
        assert document.verify_signature(world["issuer"].public_key)
        clone = service.PublicParamsDocument.from_bytes(document.to_bytes())
        assert clone == document
        assert not clone.verify_signature(signing_public_key(generate_signing_key(_rng(9))))

    def test_day_from_timestamp(self, world):
        document = world["document"]
        assert document.day_from_timestamp(1000) == 0
        assert document.day_from_timestamp(1000 + 86400 * 3 + 5) == 3
        with pytest.raises(ValueError):
            document.day_from_timestamp(999)

    def test_granularity_configurable_down_to_seconds(self, world):
        issuer = world["issuer"]
        fast = service.make_params_document(
            world["mpp"], PARAMS, epoch=500, granularity_seconds=1, issuer_id="iss", signing_key=issuer.signing_key
        )
        assert fast.day_from_timestamp(507) == 7
        assert fast.verify_signature(issuer.public_key)


@functools.lru_cache(maxsize=None)
def _params_record() -> dict:
    """The decoded record of a valid signed params document."""
    rng = _rng(21)
    mpp, _ = ahibe.setup("test", rng)
    document = service.make_params_document(mpp, PARAMS, 0, 86400, "iss", generate_signing_key(rng))
    return canonical_decode(document.to_bytes())


class _Answer:
    """A transport that answers every request with 200 and one body."""

    def __init__(self, body: bytes):
        self.body = body

    def get(self, path):
        return 200, None, self.body


@pytest.mark.parametrize("body", [
    b"{}", b"[]", b'"x"', b"1", b"null", b"", b"\xff", b"{",
    b'{"mpp":1,"table_params":{},"epoch":0,"granularity_seconds":1,"issuer_id":"i","signature":""}',
])
def test_params_decoder_raises_only_canonical_decode_error(body):
    with pytest.raises(CanonicalDecodeError):
        service.PublicParamsDocument.from_bytes(body)
    with pytest.raises(CanonicalDecodeError):  # as served over HTTP
        service.TableClient(_Answer(body)).params()


@pytest.mark.parametrize("target, key, value", [
    (None, "epoch", "x"), (None, "epoch", True), (None, "epoch", 1.5), (None, "epoch", None),
    (None, "granularity_seconds", 0), (None, "granularity_seconds", -86400),
    (None, "granularity_seconds", False), (None, "granularity_seconds", "86400"),
    (None, "issuer_id", 7), (None, "issuer_id", ["iss"]), (None, "issuer_id", None),
    ("table_params", "d", True), ("table_params", "c", "32"), ("table_params", "sigma", 4.0),
    ("table_params", "min_anonymity", False), ("table_params", "d", [32]),
])
def test_ill_typed_params_fields_raise_canonical_decode_error(target, key, value):
    rec = json.loads(json.dumps(_params_record()))
    (rec if target is None else rec[target])[key] = value
    body = json.dumps(rec).encode()
    with pytest.raises(CanonicalDecodeError):
        service.PublicParamsDocument.from_bytes(body)
    with pytest.raises(CanonicalDecodeError):
        service.TableClient(_Answer(body)).params()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_params_documents_decode_or_raise_canonical_decode_error(data):
    """A valid document with one field removed or replaced, at the top level
    or in the table parameters, or with its bytes flipped or cut: the decoder
    returns a document or raises CanonicalDecodeError, nothing else."""
    rec = json.loads(json.dumps(_params_record()))
    target = data.draw(st.sampled_from((rec, rec["table_params"])))
    key = data.draw(st.sampled_from(sorted(target)))
    if data.draw(st.booleans()):
        del target[key]
    else:
        target[key] = data.draw(_JSON)
    raw = bytearray(json.dumps(rec).encode())
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
    if data.draw(st.booleans()):
        del raw[data.draw(st.integers(0, len(raw))):]
    try:
        document = service.PublicParamsDocument.from_bytes(bytes(raw))
    except CanonicalDecodeError:
        return
    assert isinstance(document, service.PublicParamsDocument)
    document.day_from_timestamp(document.epoch)  # a decoded document is well typed


class TestRoutes:
    def test_endpoint_enumeration_has_no_credential_parameter(self):
        # the whole public surface: three templates, parameterized only by
        # day and segment index; nothing accepts a credential identifier
        assert service.ROUTES == (
            "/v1/params",
            "/v1/days/{day}/check/segments/{j}",
            "/v1/days/{day}/revocation",
        )
        for template in service.ROUTES:
            placeholders = set(re.findall(r"\{(\w+)\}", template))
            assert placeholders <= {"day", "j"}

    def test_resolve_known_paths(self, world):
        store = world["store"]
        status, reason, body = service.resolve_path(store, "/v1/params")
        assert status == 200 and body == store.params_bytes()
        status, _, body = service.resolve_path(store, "/v1/days/10/check/segments/0")
        assert status == 200 and snapshot_from_bytes(body).segment_index == 0
        status, _, body = service.resolve_path(store, "/v1/days/10/revocation")
        assert status == 200 and body == store.revocation_bytes(10)

    def test_not_found_reasons(self, world):
        store = world["store"]
        assert service.resolve_path(store, "/v1/days/99/revocation")[:2] == (404, "unknown-day")
        assert service.resolve_path(store, "/v1/days/10/check/segments/99")[:2] == (404, "unknown-segment")
        assert service.resolve_path(store, "/v1/bogus")[:2] == (404, "unknown-resource")
        assert service.resolve_path(store, "/v1/params?vc=123")[:2] == (404, "invalid-path")
        status, reason, body = service.resolve_path(store, "/v1/days/99/revocation")
        assert body == b""  # not-found is empty-body with a reason field

    def test_segment_bodies_tile_the_check_table(self, world):
        store = world["store"]
        seen = set()
        total = 0
        for j in range(PARAMS.sigma):
            segment = service.TableClient(service.InProcessTransport(store)).fetch_segment(10, j)[0]
            buckets = range(segment.start_bucket, segment.start_bucket + len(check_buckets(segment)))
            assert seen.isdisjoint(buckets)
            seen.update(buckets)
            total += sum(len(b) for b in check_buckets(segment))
        assert seen == set(range(PARAMS.c))
        assert total == 1  # the one issued credential


class TestTransports:
    def test_byte_identical_bodies_and_logs(self, world, tmp_path):
        store = world["store"]
        server, url = service.serve_in_thread(store.root)
        try:
            inproc = service.InProcessTransport(store)
            http = service.HttpTransport(url)
            for path in (
                "/v1/params",
                "/v1/days/10/check/segments/1",
                "/v1/days/10/revocation",
                "/v1/days/77/revocation",
                "/v1/not/a/route",
            ):
                assert inproc.get(path) == http.get(path)
        finally:
            server.shutdown()

    def test_http_rejects_writes(self, world):
        server, url = service.serve_in_thread(world["store"].root)
        try:
            import http.client

            conn = http.client.HTTPConnection(server.server_address[0], server.server_address[1])
            conn.request("POST", "/v1/params", body=b"{}")
            response = conn.getresponse()
            assert response.status == 405
            assert response.headers["X-Reason"] == "read-only"
            conn.close()
        finally:
            server.shutdown()

    @pytest.mark.parametrize("path", [
        "/v1/days/" + "9" * 5000 + "/revocation",
        "/v1/days/10/check/segments/" + "9" * 5000,
        "/v1/days/" + "1" * 21 + "/revocation",
        "/v1/days/10/check/segments/" + "1" * 21,
    ], ids=["day-5000-digits", "segment-5000-digits", "day-21-digits", "segment-21-digits"])
    def test_over_long_numbers_are_not_found(self, world, path):
        # a u64 day has at most 20 digits; a longer number is a 404 on both
        # transports, never a stray error that kills the handler thread
        server, url = service.serve_in_thread(world["store"].root)
        try:
            for transport in (service.InProcessTransport(world["store"]), service.HttpTransport(url)):
                assert transport.get(path) == (404, "unknown-resource", b"")
                assert transport.get("/v1/days/10/revocation")[0] == 200
        finally:
            server.shutdown()

    def test_only_ascii_digits_name_a_day(self, world):
        # int() reads other scripts' digits too: one resource, one path
        assert service.resolve_path(world["store"], "/v1/days/\u0661\u0660/revocation") == (404, "unknown-resource", b"")

    def test_serve_requires_params(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            service.serve(tmp_path / "empty", "127.0.0.1:0")


class TestClient:
    def test_fetch_log_counts_exact_bytes(self, world):
        transport = RecordingTransport(service.InProcessTransport(world["store"]))
        client = service.TableClient(transport)
        client.params()
        segment, seg_bytes = client.fetch_segment(10, 2)
        table, tbl_bytes = client.fetch_revocation_table(10)
        sizes = [nbytes for _, _, nbytes in transport.requests]
        assert sizes == [
            len(world["store"].params_bytes()),
            len(world["store"].segment_bytes(10, 2)),
            len(world["store"].revocation_bytes(10)),
        ]
        assert (seg_bytes, tbl_bytes) == (sizes[1], sizes[2])
        assert [path for path, _, _ in transport.requests] == [
            "/v1/params", "/v1/days/10/check/segments/2", "/v1/days/10/revocation",
        ]

    def test_table_cache_is_keyed_by_the_verified_envelope_digest(self, world, monkeypatch):
        # a new body is hashed once, when it is parsed, and a repeated one not
        # at all; other bytes under a cached digest get the table that digest
        # was verified for, never a parse of the new bytes
        issuer, store, vc_id = world["issuer"], world["store"], world["credential"].vc_id
        actors.issuer_revoke(issuer, vc_id, RevocationDocument(vc_id, "revoked", "", 10, 0), 10)
        actors.issuer_publish(issuer, store)
        covered = 5 + 32  # magic, version and the digest
        forged = store.revocation_bytes(10)[:covered] + snapshot_to_bytes(RevocationTableSnapshot(10, PARAMS))[covered:]
        client = service.TableClient(service.InProcessTransport(store))
        hashes, sha256 = [], hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashes.append(len(data)) or sha256(data))
        table, _ = client.fetch_revocation_table(10)
        assert len(table.slots) == 1 and len(hashes) == 1
        assert client.fetch_revocation_table(10)[0] is table and len(hashes) == 1
        store.revocation_path(10).write_bytes(forged)
        assert client.fetch_revocation_table(10) == (table, len(forged))
        assert len(hashes) == 1

    def test_missing_day_raises_lookup(self, world):
        client = service.TableClient(service.InProcessTransport(world["store"]))
        with pytest.raises(LookupError):
            client.fetch_revocation_table(99)
        with pytest.raises(LookupError):
            client.fetch_segment(99, 0)

    def test_corrupt_snapshot_detected(self, world):
        store = world["store"]
        path = store.revocation_path(10)
        raw = bytearray(path.read_bytes())
        day_at = 5 + 32 + 1  # after magic, version, digest and kind
        assert raw[day_at : day_at + 8] == (10).to_bytes(8, "big")
        raw[day_at + 7] = 99
        path.write_bytes(bytes(raw))
        client = service.TableClient(service.InProcessTransport(store))
        with pytest.raises(CorruptSnapshotError):
            client.fetch_revocation_table(10)

    def test_files_vanishing_before_the_read_are_not_found(self, world, monkeypatch):
        # a prune may remove a file after any existence test and before the
        # read: every route must still answer 404, never raise
        store = world["store"]
        store.params_path().unlink()
        monkeypatch.setattr(type(store.root), "exists", lambda self: True)
        for method, args in (("params_bytes", ()), ("check_bytes", (99,)), ("revocation_bytes", (99,))):
            with pytest.raises(service.ResourceNotFound):
                getattr(store, method)(*args)
        assert service.resolve_path(store, "/v1/params")[:2] == (404, "params-not-published")
        assert service.resolve_path(store, "/v1/days/99/revocation")[:2] == (404, "unknown-day")
        assert service.resolve_path(store, "/v1/days/99/check/segments/0")[:2] == (404, "unknown-day")

    def test_version_1_archive_is_a_classed_error(self, world):
        # archives written before snapshot version 2 are still on disk inside
        # the retention window: the server answers a classed status for a
        # check file it cannot read, and the client rejects the table
        store = world["store"]
        check, revocation = actors.issuer_export_day(world["issuer"])
        store.check_path(10).write_bytes(snapshot_to_bytes_v1(check))
        store.revocation_path(10).write_bytes(snapshot_to_bytes_v1(revocation))
        assert service.resolve_path(store, "/v1/days/10/check/segments/0") == (500, "unreadable-snapshot", b"")
        server, url = service.serve_in_thread(store.root)
        try:
            client = service.TableClient(service.HttpTransport(url))
            assert client.transport.get("/v1/days/10/check/segments/0")[:2] == (500, "unreadable-snapshot")
            with pytest.raises(service.ResourceNotFound):
                client.fetch_segment(10, 0)
            with pytest.raises(CorruptSnapshotError):
                client.fetch_revocation_table(10)
            rng = world["rng"]
            presentation = actors.holder_present(world["wallet"], world["credential"].vc_id, [10], rng(16), rng)
            with pytest.raises(actors.SnapshotUnavailable):
                actors.verifier_check(presentation, world["trust"], client, 10, rng)
        finally:
            server.shutdown()
            server.server_close()

    def test_alternating_days_parse_each_table_once(self, world, monkeypatch):
        # a past-day authorization fetches yesterday's table beside today's:
        # each body is parsed once, however the fetches interleave
        issuer, store = world["issuer"], world["store"]
        rollover_publishing_each_day(issuer, store, 11)
        parses = []

        def counting(body):
            parses.append(body)
            return snapshot_from_bytes(body)

        monkeypatch.setattr(service, "snapshot_from_bytes", counting)
        client = service.TableClient(service.InProcessTransport(store))
        for _ in range(3):
            for day in (10, 11):
                table, _ = client.fetch_revocation_table(day)
                assert table.day == day
        assert parses == [store.revocation_bytes(10), store.revocation_bytes(11)]
        actors.issuer_revoke(issuer, world["credential"].vc_id, RevocationDocument(
            world["credential"].vc_id, "revoked", "", 11, 0), 11)
        actors.issuer_publish(issuer, store)  # a new body for day 11 is parsed again
        assert len(client.fetch_revocation_table(11)[0].slots) == 1
        assert client.fetch_revocation_table(10)[0].day == 10
        assert len(parses) == 3
        for day in range(12, 12 + service.TABLE_CACHE_DAYS):  # the oldest day leaves the cache
            rollover_publishing_each_day(issuer, store, day)
            client.fetch_revocation_table(day)
        client.fetch_revocation_table(10)
        assert len(parses) == 3 + service.TABLE_CACHE_DAYS + 1

    def test_each_republish_serves_the_new_segment(self, world):
        # the serving process never runs publish_check: a republished day
        # must still answer with its new segment
        publisher = world["store"]
        server = service.PublicationStore(publisher.root)
        issuer, day = world["issuer"], 10
        for stamp in (1, 2, 3):
            actors.issuer_issue(issuer, f"h-{stamp}", {}, 400, signing_public_key(generate_signing_key(world["rng"])))
            actors.issuer_publish(issuer, publisher)
            os.utime(publisher.check_path(day), ns=(stamp * 10**9, stamp * 10**9))
            check, _ = actors.issuer_export_day(issuer)
            assert server.segment_bytes(day, 1) == snapshot_to_bytes(check.segment(1))

    def test_republish_with_an_equal_mtime_serves_the_new_segment(self, world):
        # mtime is a weak validator: a republish inside one timestamp tick
        # must not serve the segments of the file it replaced
        publisher, issuer, day = world["store"], world["issuer"], 10
        server = service.PublicationStore(publisher.root)
        stamp = publisher.check_path(day).stat().st_mtime_ns
        old = [server.segment_bytes(day, j) for j in range(PARAMS.sigma)]
        for i in range(8):
            actors.issuer_issue(issuer, f"h-new-{i}", {}, 400, signing_public_key(generate_signing_key(world["rng"])))
        actors.issuer_publish(issuer, publisher)
        os.utime(publisher.check_path(day), ns=(stamp, stamp))
        check, _ = actors.issuer_export_day(issuer)
        new = [snapshot_to_bytes(check.segment(j)) for j in range(PARAMS.sigma)]
        assert new != old
        assert [server.segment_bytes(day, j) for j in range(PARAMS.sigma)] == new

    def test_pruned_day_is_404_on_a_store_that_never_prunes(self, world):
        # a server on the same directory as the pruning store answers 404
        # for a pruned day's segments, however often it served them before
        publisher = world["store"]
        server = service.PublicationStore(publisher.root)
        for store in (publisher, server):
            for j in range(PARAMS.sigma):
                store.segment_bytes(10, j)
        rollover_publishing_each_day(world["issuer"], publisher, 40)
        publisher.prune(40, 25)
        assert not publisher.check_path(10).exists()
        for store in (publisher, server):
            for j in range(PARAMS.sigma):
                assert service.resolve_path(store, f"/v1/days/10/check/segments/{j}") == (404, "unknown-day", b"")
        assert service.resolve_path(server, "/v1/days/40/check/segments/0")[0] == 200

    def test_out_of_range_segment_is_refused_without_a_parse(self, world, monkeypatch):
        # the segment count comes from the check file's envelope, so a public
        # request for a missing segment cannot make the server parse the file
        store, parses = world["store"], []

        def counting(path):
            parses.append(path)
            return read_snapshot(path)

        service._segment_bytes.cache_clear()  # the memo is shared by the process
        monkeypatch.setattr(service, "read_snapshot", counting)
        for j in (PARAMS.sigma, 10**6):
            assert service.resolve_path(store, f"/v1/days/10/check/segments/{j}") == (404, "unknown-segment", b"")
        assert parses == []
        for _ in range(2):
            assert service.resolve_path(store, "/v1/days/10/check/segments/1")[0] == 200
        assert parses == [store.check_path(10)]

    def test_check_file_of_another_kind_is_a_classed_error(self, world):
        store = world["store"]
        _, revocation = actors.issuer_export_day(world["issuer"])
        store.check_path(10).write_bytes(snapshot_to_bytes(revocation))
        assert service.resolve_path(store, "/v1/days/10/check/segments/0") == (500, "unreadable-snapshot", b"")

    def test_serving_during_concurrent_prunes(self, world):
        # server threads share the memo while others serve and a publisher
        # prunes: a request gets the right bytes or a 404, never a stray
        # error, and the memo stays within its bound
        publisher = world["store"]
        rollover_publishing_each_day(world["issuer"], publisher, 30)
        expected = {
            (day, j): snapshot_to_bytes(read_snapshot(publisher.check_path(day)).segment(j))
            for day in range(10, 31)
            for j in range(PARAMS.sigma)
        }
        assert len(expected) > service.SEGMENT_MEMO_SIZE
        server = service.PublicationStore(publisher.root)
        failures = []

        def serve(seed):
            r = random.Random(seed)
            for _ in range(300):
                key = r.choice(list(expected))
                try:
                    if server.segment_bytes(*key) != expected[key]:
                        failures.append(("wrong bytes", key))
                except service.ResourceNotFound:
                    pass
                except Exception as exc:  # noqa: BLE001  (any other error is the failure under test)
                    failures.append((repr(exc), key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for keep in (15, 10, 5, 0):
                publisher.prune(30, keep)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert server.segment_bytes(30, 0) == expected[(30, 0)]
        with pytest.raises(service.ResourceNotFound):
            server.segment_bytes(10, 0)
        assert service._segment_bytes.cache_info().currsize <= service.SEGMENT_MEMO_SIZE

    def test_serving_is_pure_between_publications(self, world):
        client = service.TableClient(service.InProcessTransport(world["store"]))
        a = client._get("/v1/days/10/revocation")
        b = client._get("/v1/days/10/revocation")
        assert a == b


def test_revocation_table_cheaper_than_sigma_full_check_downloads(tmp_path):
    # with a realistic revoked fraction, one whole-revocation-table download
    # stays below sigma times the cost of pulling every check segment
    rng = _rng(12)
    params = TableParams(d=256, c=256, sigma=8, min_anonymity=1)
    mpp, msk = ahibe.setup("test", rng)
    issuer = actors.issuer_init(params, day=0, mpp=mpp, issuer_id="iss", rng=rng)
    store = service.PublicationStore(tmp_path / "public")
    store.write_params(service.make_params_document(mpp, params, 0, 86400, "iss", issuer.signing_key))
    credentials = []
    for i in range(200):
        pop = generate_signing_key(rng)
        credential, _ = actors.issuer_issue(issuer, f"h-{i}", {}, 400, signing_public_key(pop))
        credentials.append(credential)
    for credential in credentials[:10]:  # 5% revoked
        doc = RevocationDocument(vc_id=credential.vc_id, status="revoked", reason="", effective_from=0, sequence=0)
        actors.issuer_revoke(issuer, credential.vc_id, doc, 0)
    actors.issuer_publish(issuer, store)
    revocation_bytes = len(store.revocation_bytes(0))
    all_segments = sum(len(store.segment_bytes(0, j)) for j in range(params.sigma))
    assert revocation_bytes < params.sigma * all_segments


class TestRequestUniformity:
    def test_same_segment_vcs_have_identical_request_streams(self, tmp_path):
        # issue credentials until two land in the same check segment on the
        # same day, then compare the verifiers' request logs byte for byte
        rng = _rng(8)
        mpp, msk = ahibe.setup("test", rng)
        issuer = actors.issuer_init(PARAMS, day=10, mpp=mpp, issuer_id="iss", rng=rng)
        store = service.PublicationStore(tmp_path / "public")
        document = service.make_params_document(mpp, PARAMS, 0, 86400, "iss", issuer.signing_key)
        store.write_params(document)
        trust = actors.TrustStore({"iss": issuer.public_key})
        wallet = actors.Wallet()
        from revoca.primitives import compute_check_digest, derive_day_token
        from revoca.tables import segment_for_digest

        by_segment = {}
        pair = None
        for i in range(64):
            hk = ahibe.extract(msk, f"h-{i}", rng)
            pop = generate_signing_key(rng)
            credential, seed = actors.issuer_issue(issuer, f"h-{i}", {}, 400, signing_public_key(pop))
            actors.holder_store(wallet, credential, seed, hk, pop, issuer.public_key)
            digest = compute_check_digest(derive_day_token(seed, 0), credential.vc_id)
            j = segment_for_digest(digest, PARAMS)
            if j in by_segment:
                pair = (by_segment[j], credential)
                break
            by_segment[j] = credential
        assert pair is not None
        actors.issuer_publish(issuer, store)

        logs = []
        for credential in pair:
            transport = RecordingTransport(service.InProcessTransport(store))
            client = service.TableClient(transport)
            client.prime_params(document)
            presentation = actors.holder_present(wallet, credential.vc_id, [10], rng(16), rng)
            actors.verifier_check(presentation, trust, client, 10, rng)
            logs.append(transport.requests)
        assert logs[0] == logs[1]
