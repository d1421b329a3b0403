import os
import random
import re
import sys
import threading

import pytest

from revoca import actors, ahibe, service
from revoca.encoding import canonical_decode
from revoca.primitives import generate_signing_key, signing_public_key
from revoca.tables import CorruptSnapshotError, RevocationDocument, TableParams, read_snapshot, snapshot_to_bytes


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
        assert status == 200 and canonical_decode(body)["segment_index"] == 0
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
            buckets = range(segment.start_bucket, segment.start_bucket + len(segment.buckets))
            assert seen.isdisjoint(buckets)
            seen.update(buckets)
            total += sum(len(b) for b in segment.buckets)
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

    def test_serve_requires_params(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            service.serve(tmp_path / "empty", "127.0.0.1:0")


class TestClient:
    def test_fetch_log_counts_exact_bytes(self, world):
        client = service.TableClient(service.InProcessTransport(world["store"]))
        client.fetch_params()
        segment, seg_bytes = client.fetch_segment(10, 2)
        table, tbl_bytes = client.fetch_revocation_table(10)
        sizes = [record.nbytes for record in client.log]
        assert sizes == [
            len(world["store"].params_bytes()),
            len(world["store"].segment_bytes(10, 2)),
            len(world["store"].revocation_bytes(10)),
        ]
        assert (seg_bytes, tbl_bytes) == (sizes[1], sizes[2])
        assert [record.day for record in client.log] == [None, 10, 10]

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
        pos = raw.index(b'"day"') + 6
        raw[pos:pos+2] = b"99"
        path.write_bytes(bytes(raw))
        client = service.TableClient(service.InProcessTransport(store))
        with pytest.raises(CorruptSnapshotError):
            client.fetch_revocation_table(10)

    def test_server_segment_cache_keeps_one_entry_per_segment(self, world):
        # the serving process never runs publish_check, so each republish of
        # a day must replace its cached segment, not add a stale copy
        publisher = world["store"]
        server = service.PublicationStore(publisher.root)
        issuer, day = world["issuer"], 10
        for stamp in (1, 2, 3):
            actors.issuer_issue(issuer, f"h-{stamp}", {}, 400, signing_public_key(generate_signing_key(world["rng"])))
            actors.issuer_publish(issuer, publisher)
            os.utime(publisher.check_path(day), ns=(stamp * 10**9, stamp * 10**9))
            check, _ = actors.issuer_export_day(issuer)
            assert server.segment_bytes(day, 1) == snapshot_to_bytes(check.segment(1))
        assert [key for key in server._segment_cache if key[:2] == (day, 1)] == [(day, 1)]

    def test_pruned_days_leave_no_cached_segments(self, world):
        # the store that prunes drops a pruned day's segments at once; a server
        # on the same directory, which never prunes, drops them on its next
        # cache miss or 404
        publisher = world["store"]
        servers = [service.PublicationStore(publisher.root) for _ in range(2)]
        for store in (publisher, *servers):
            for j in range(PARAMS.sigma):
                store.segment_bytes(10, j)
        actors.issuer_rollover(world["issuer"], 40, publisher)
        publisher.prune(40, 25)
        assert not publisher.check_path(10).exists()
        assert [key for key in publisher._segment_cache if key[0] == 10] == []
        assert service.resolve_path(servers[0], "/v1/days/10/check/segments/0")[0] == 404
        servers[1].segment_bytes(40, 0)  # a cache miss
        for server in servers:
            assert [key for key in server._segment_cache if key[0] == 10] == []

    def test_segment_cache_survives_concurrent_requests_and_prunes(self, world):
        # server threads share the cache and drop pruned days while others
        # serve and a publisher prunes: a request gets the right bytes or a
        # 404, never a stray error
        publisher = world["store"]
        actors.issuer_rollover(world["issuer"], 30, publisher)
        expected = {
            (day, j): snapshot_to_bytes(read_snapshot(publisher.check_path(day)).segment(j))
            for day in range(10, 31)
            for j in range(PARAMS.sigma)
        }
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
        assert {key[0] for key in server._segment_cache} <= {30}

    def test_serving_is_pure_between_publications(self, world):
        client = service.TableClient(service.InProcessTransport(world["store"]))
        a = client._get("/v1/days/10/revocation", 10)
        b = client._get("/v1/days/10/revocation", 10)
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
            client = service.TableClient(service.InProcessTransport(store))
            client.prime_params(document)
            presentation = actors.holder_present(wallet, credential.vc_id, [10], rng(16), rng)
            actors.verifier_check(presentation, trust, client, 10, rng)
            logs.append([(r.path, r.nbytes, r.day) for r in client.log])
        assert logs[0] == logs[1]
