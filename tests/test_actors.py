import builtins
import dataclasses
import errno
import json
import os
import random
import stat

import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_buckets, rollover_publishing_each_day
from revoca import actors, ahibe, service
from revoca.encoding import CanonicalDecodeError, canonical_decode, canonical_encode
from revoca.primitives import (
    compute_check_digest,
    derive_day_token,
    generate_signing_key,
    index_from_ciphertext,
    signing_public_key,
)
from revoca.tables import (
    IntegrityError,
    RevocationDocument,
    RevocationEntry,
    RevocationTableSnapshot,
    TableParams,
    segment_for_digest,
    snapshot_to_bytes,
)


def _rng(seed):
    r = random.Random(seed)
    return lambda n: r.randbytes(n)


PARAMS = TableParams(d=64, c=64, sigma=4, min_anonymity=1)


class World:
    """One issuer, publication store, and a wallet with `n` credentials."""

    def __init__(self, tmp_path, n=3, day=100, rng_seed=5, level="test", params=PARAMS):
        self.rng = _rng(rng_seed)
        self.mpp, self.msk = ahibe.setup(level, self.rng)
        self.issuer = actors.issuer_init(params, day=day, mpp=self.mpp, issuer_id="iss", rng=self.rng)
        self.store = service.PublicationStore(tmp_path / "public")
        self.document = service.make_params_document(self.mpp, params, 0, 86400, "iss", self.issuer.signing_key)
        self.store.write_params(self.document)
        self.trust = actors.TrustStore({"iss": self.issuer.public_key})
        self.wallet = actors.Wallet()
        self.holder_keys = {}
        self.vcs = []
        for i in range(n):
            root = f"holder-{i}"
            hk = ahibe.extract(self.msk, root, self.rng)
            self.holder_keys[root] = hk
            pop_sk = generate_signing_key(self.rng)
            credential, seed = actors.issuer_issue(
                self.issuer, root, {"n": i}, expiry_day=day + 300, pop_public_key=signing_public_key(pop_sk)
            )
            actors.holder_store(self.wallet, credential, seed, hk, pop_sk, self.issuer.public_key)
            self.vcs.append(credential)
        actors.issuer_publish(self.issuer, self.store)

    def client(self):
        return service.TableClient(service.InProcessTransport(self.store))

    def check(self, presentation, current_day):
        return actors.verifier_check(presentation, self.trust, self.client(), current_day, self.rng)

    def present(self, credential, days, nonce=None):
        return actors.holder_present(self.wallet, credential.vc_id, days, nonce or self.rng(16), self.rng)

    def revoke(self, credential, status="revoked", sequence=0):
        document = RevocationDocument(
            vc_id=credential.vc_id,
            status=status,
            reason="test",
            effective_from=self.issuer.current_day,
            sequence=sequence,
        )
        actors.issuer_revoke(self.issuer, credential.vc_id, document, self.issuer.current_day)
        actors.issuer_publish(self.issuer, self.store)
        return document


@pytest.fixture()
def world(tmp_path):
    return World(tmp_path)


class TestPkgRole:
    def test_extract_empty_root_rejected(self, world):
        with pytest.raises(ahibe.IdentityError):
            ahibe.extract(world.msk, "", world.rng)

    def test_two_extracts_interchangeable(self, world):
        hk1 = ahibe.extract(world.msk, "holder-0", world.rng)
        hk2 = ahibe.extract(world.msk, "holder-0", world.rng)
        identity = ahibe.IdentityPath("holder-0", 100)
        header, key = ahibe.encap(world.mpp, identity, world.rng)
        assert ahibe.decap(ahibe.delegate(hk1, 100, world.rng), header) == key
        assert ahibe.decap(ahibe.delegate(hk2, 100, world.rng), header) == key


class TestIssuer:
    def test_init_exports_empty_tables(self, tmp_path):
        rng = _rng(1)
        mpp, _ = ahibe.setup("test", rng)
        state = actors.issuer_init(PARAMS, day=7, mpp=mpp, issuer_id="x", rng=rng)
        check, revocation = actors.issuer_export_day(state)
        buckets = check_buckets(check)
        assert sum(map(len, buckets)) == 0 and len(buckets) == PARAMS.c
        assert revocation.slots == () and len(revocation.buckets) == PARAMS.d
        assert check.day == revocation.day == 7

    def test_issue_contract(self, world):
        credential = world.vcs[0]
        assert credential.verify_signature(world.issuer.public_key)
        assert {vc.vc_id for vc in world.vcs}.__len__() == len(world.vcs)
        seeds = {world.wallet.records[vc.vc_id].seed for vc in world.vcs}
        assert len(seeds) == len(world.vcs)
        with pytest.raises(ValueError):
            actors.issuer_issue(world.issuer, "holder-0", {}, expiry_day=1, pop_public_key=b"\x00" * 32)

    def test_issued_digest_in_exported_check_table(self, world):
        check, _ = actors.issuer_export_day(world.issuer)
        for vc in world.vcs:
            record = world.wallet.records[vc.vc_id]
            token = derive_day_token(record.seed, world.issuer.current_day - vc.issued_day)
            digest = compute_check_digest(token, vc.vc_id)
            assert check.segment(segment_for_digest(digest, PARAMS)).contains(digest, PARAMS)

    def test_export_is_reproducible(self, world):
        check1, rev1 = actors.issuer_export_day(world.issuer)
        check2, rev2 = actors.issuer_export_day(world.issuer)
        assert snapshot_to_bytes(check1) == snapshot_to_bytes(check2)
        assert snapshot_to_bytes(rev1) == snapshot_to_bytes(rev2)

    def test_revoke_validations(self, world):
        credential = world.vcs[0]
        doc = RevocationDocument(vc_id=credential.vc_id, status="revoked", reason="", effective_from=100, sequence=0)
        with pytest.raises(actors.RegistryError):
            actors.issuer_revoke(world.issuer, b"\x00" * 16, doc, 100)
        with pytest.raises(actors.RegistryError):
            actors.issuer_revoke(world.issuer, credential.vc_id, doc, 101)
        other = dataclasses.replace(doc, vc_id=world.vcs[1].vc_id)
        with pytest.raises(actors.RegistryError):
            actors.issuer_revoke(world.issuer, credential.vc_id, other, 100)
        actors.issuer_revoke(world.issuer, credential.vc_id, doc, 100)
        with pytest.raises(actors.RegistryError):  # sequence must strictly increase
            actors.issuer_revoke(world.issuer, credential.vc_id, doc, 100)

    def test_insertion_index_agrees_with_verifier_recomputation(self, world):
        credential = world.vcs[1]
        record = world.wallet.records[credential.vc_id]
        world.revoke(credential)
        day = world.issuer.current_day
        token = derive_day_token(record.seed, day - credential.issued_day)
        digest = compute_check_digest(token, credential.vc_id)
        header, _ = ahibe.det_encap(world.mpp, ahibe.IdentityPath(credential.root, day), digest)
        index = index_from_ciphertext(header.canonical_bytes(), PARAMS.d)
        assert len(world.issuer.revocation.buckets[index]) == 1

    def test_rollover_contract(self, world):
        credential = world.vcs[0]
        world.revoke(credential)
        actors.issuer_rollover(world.issuer, 102)
        assert world.issuer.current_day == 102
        # a rollover publishes nothing: the caller publishes each day it commits
        assert world.store.archived_days() == [100] and not world.store.check_path(102).exists()
        actors.issuer_publish(world.issuer, world.store)
        presentation = world.present(credential, [102])
        result = world.check(presentation, 102)
        assert result.statuses[102]
        with pytest.raises(ValueError):
            actors.issuer_rollover(world.issuer, 102)

    def test_day_key_opens_nothing_on_other_days(self, world):
        credential = world.vcs[0]
        record = world.wallet.records[credential.vc_id]
        world.revoke(credential)
        rollover_publishing_each_day(world.issuer, world.store, 101)
        old_key = ahibe.delegate(record.holder_key, 100, world.rng)
        new_table = world.issuer.revocation
        assert new_table.day == 101
        hits = []
        for index in range(PARAMS.d):
            hits += new_table.scan(index, old_key, credential.root, 100, credential.vc_id)
            hits += new_table.scan(index, old_key, credential.root, 101, credential.vc_id)
        assert hits == []

    def test_expired_vc_leaves_tables(self, tmp_path):
        rng = _rng(9)
        mpp, msk = ahibe.setup("test", rng)
        state = actors.issuer_init(PARAMS, day=0, mpp=mpp, issuer_id="x", rng=rng)
        pop = signing_public_key(generate_signing_key(rng))
        credential, seed = actors.issuer_issue(state, "r", {}, expiry_day=2, pop_public_key=pop)
        doc = RevocationDocument(vc_id=credential.vc_id, status="revoked", reason="", effective_from=0, sequence=0)
        actors.issuer_revoke(state, credential.vc_id, doc, 0)
        actors.issuer_rollover(state, 2)
        check, revocation = actors.issuer_export_day(state)
        assert sum(map(len, check_buckets(check))) == 1 and len(revocation.slots) == 1
        actors.issuer_rollover(state, 3)
        check, revocation = actors.issuer_export_day(state)
        assert sum(map(len, check_buckets(check))) == 0 and revocation.slots == ()

    def test_state_round_trip(self, world, tmp_path):
        world.revoke(world.vcs[2])
        path = tmp_path / "issuer.state"
        actors.save_issuer_state(world.issuer, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        loaded = actors.load_issuer_state(path, world.rng)
        assert loaded.current_day == world.issuer.current_day
        assert loaded.registry.keys() == world.issuer.registry.keys()
        c1, r1 = actors.issuer_export_day(loaded)
        c2, r2 = actors.issuer_export_day(world.issuer)
        assert snapshot_to_bytes(c1) == snapshot_to_bytes(c2)
        assert snapshot_to_bytes(r1) == snapshot_to_bytes(r2)

    def test_state_of_another_version_is_refused(self, world):
        rec = canonical_decode(actors.issuer_state_to_bytes(world.issuer))
        rec["version"] = "1"
        with pytest.raises(ValueError, match="unsupported issuer state version '1'"):
            actors.issuer_state_from_bytes(canonical_encode(rec), world.rng)


class TestHolder:
    def test_store_rejections(self, world):
        credential = world.vcs[0]
        record = world.wallet.records[credential.vc_id]
        wallet = actors.Wallet()
        broken = dataclasses.replace(credential, issuer_signature=b"\x00" * 64)
        with pytest.raises(actors.WalletRejection):
            actors.holder_store(wallet, broken, record.seed, record.holder_key, record.pop_signing_key, world.issuer.public_key)
        wrong_root_key = world.holder_keys["holder-1"]
        with pytest.raises(actors.WalletRejection):
            actors.holder_store(wallet, credential, record.seed, wrong_root_key, record.pop_signing_key, world.issuer.public_key)
        wrong_pop = generate_signing_key(world.rng)
        with pytest.raises(actors.WalletRejection):
            actors.holder_store(wallet, credential, record.seed, record.holder_key, wrong_pop, world.issuer.public_key)

    def test_present_days_and_tokens(self, world):
        credential = world.vcs[0]
        record = world.wallet.records[credential.vc_id]
        presentation = world.present(credential, [97 + 3, 100 + 2, 100])  # mixed order allowed
        assert len(presentation.authorizations) == 3
        for auth in presentation.authorizations:
            assert auth.day_token == derive_day_token(record.seed, auth.day - credential.issued_day)
            assert auth.day_key.identity == ahibe.IdentityPath(credential.root, auth.day)
        with pytest.raises(ValueError):
            world.present(credential, [credential.issued_day - 1])
        with pytest.raises(ValueError):
            world.present(credential, [credential.expiry_day + 1])
        with pytest.raises(actors.WalletRejection):
            actors.holder_present(world.wallet, b"\xff" * 16, [100], world.rng(16), world.rng)

    def test_presentation_file_round_trip(self, world):
        presentation = world.present(world.vcs[0], [100])
        clone = actors.Presentation.from_bytes(presentation.to_bytes())
        assert clone.to_bytes() == presentation.to_bytes()

    def test_audit(self, world):
        credential = world.vcs[0]
        world.revoke(credential, status="conditioned")
        _, revocation = actors.issuer_export_day(world.issuer)
        docs = actors.holder_audit(world.wallet, credential.vc_id, 100, revocation, world.document, world.rng)
        assert [d.status for d in docs] == ["conditioned"]
        clean = world.vcs[1]
        assert actors.holder_audit(world.wallet, clean.vc_id, 100, revocation, world.document, world.rng) == []
        with pytest.raises(ValueError):
            actors.holder_audit(world.wallet, credential.vc_id, 99, revocation, world.document, world.rng)

    def test_wallet_round_trip(self, world, tmp_path):
        path = tmp_path / "wallet.store"
        world.wallet.save(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        loaded = actors.Wallet.load(path)
        assert loaded.records.keys() == world.wallet.records.keys()
        presentation = actors.holder_present(loaded, world.vcs[0].vc_id, [100], world.rng(16), world.rng)
        assert world.check(presentation, 100).statuses[100] == ()


class TestVerifier:
    def test_clean_and_revoked(self, world):
        credential = world.vcs[0]
        result = world.check(world.present(credential, [100]), 100)
        assert result.statuses == {100: ()}
        assert not result.statuses[100]
        document = world.revoke(credential)
        result = world.check(world.present(credential, [100]), 100)
        assert result.statuses[100]
        assert result.statuses[100][0] == document
        assert result.segment_bytes > 0 and result.table_bytes > result.segment_bytes

    def test_multiple_documents_sequence_ordered(self, world):
        credential = world.vcs[0]
        world.revoke(credential, status="suspended", sequence=0)
        world.revoke(credential, status="revoked", sequence=1)
        result = world.check(world.present(credential, [100]), 100)
        assert [d.sequence for d in result.statuses[100]] == [0, 1]
        assert [d.status for d in result.statuses[100]] == ["suspended", "revoked"]

    def test_unknown_issuer_and_bad_signature(self, world):
        presentation = world.present(world.vcs[0], [100])
        with pytest.raises(actors.BadSignature):
            actors.verifier_check(presentation, actors.TrustStore({}), world.client(), 100, world.rng)
        forged_vc = dataclasses.replace(presentation.credential, claims={"tampered": True})
        forged = dataclasses.replace(presentation, credential=forged_vc)
        with pytest.raises(actors.BadSignature):
            world.check(forged, 100)

    def test_bad_pop(self, world):
        presentation = world.present(world.vcs[0], [100])
        tampered = dataclasses.replace(presentation, pop_signature=b"\x11" * 64)
        with pytest.raises(actors.BadProofOfPossession):
            world.check(tampered, 100)
        replayed = dataclasses.replace(presentation, nonce=world.rng(16))
        with pytest.raises(actors.BadProofOfPossession):
            world.check(replayed, 100)

    def test_forged_token_classes(self, world):
        presentation = world.present(world.vcs[0], [100])
        random_token = dataclasses.replace(presentation.authorizations[0], day_token=world.rng(32))
        with pytest.raises(actors.CheckDigestNotFound):
            world.check(dataclasses.replace(presentation, authorizations=(random_token,)), 100)
        other_record = world.wallet.records[world.vcs[1].vc_id]
        other_token = dataclasses.replace(
            presentation.authorizations[0], day_token=derive_day_token(other_record.seed, 0)
        )
        with pytest.raises(actors.CheckDigestNotFound):
            world.check(dataclasses.replace(presentation, authorizations=(other_token,)), 100)

    def test_forged_key_classes(self, world):
        credential = world.vcs[0]
        record = world.wallet.records[credential.vc_id]
        presentation = world.present(credential, [100])
        other_day = dataclasses.replace(
            presentation.authorizations[0], day_key=ahibe.delegate(record.holder_key, 101, world.rng)
        )
        with pytest.raises(actors.KeyProbeFailed):
            world.check(dataclasses.replace(presentation, authorizations=(other_day,)), 100)
        other_holder = dataclasses.replace(
            presentation.authorizations[0], day_key=ahibe.delegate(world.holder_keys["holder-1"], 100, world.rng)
        )
        with pytest.raises(actors.KeyProbeFailed):
            world.check(dataclasses.replace(presentation, authorizations=(other_holder,)), 100)

    def test_future_day_deferred_then_checkable(self, world):
        credential = world.vcs[0]
        presentation = world.present(credential, [101])
        with pytest.raises(actors.DeferredFutureDay):
            world.check(presentation, 100)
        rollover_publishing_each_day(world.issuer, world.store, 101)
        result = world.check(presentation, 101)
        assert result.statuses == {101: ()}

    def test_missing_archive_is_snapshot_unavailable(self, world):
        credential = world.vcs[0]
        rollover_publishing_each_day(world.issuer, world.store, 140)
        world.store.prune(140, retention_days=10)
        presentation = world.present(credential, [105])
        with pytest.raises(actors.SnapshotUnavailable):
            world.check(presentation, 140)

    def test_day_outside_validity(self, world):
        credential = world.vcs[0]
        presentation = world.present(credential, [100])
        out_of_range = dataclasses.replace(presentation.authorizations[0], day=500)
        with pytest.raises(actors.CheckDigestNotFound):
            world.check(dataclasses.replace(presentation, authorizations=(out_of_range,)), 600)

    def test_completeness_and_soundness_randomized(self, world):
        schedule = random.Random(77)
        revoked_on = {}
        for day in range(101, 106):
            rollover_publishing_each_day(world.issuer, world.store, day)
            for vc in world.vcs:
                if vc.vc_id not in revoked_on and schedule.random() < 0.2:
                    world.revoke(vc, sequence=0)
                    revoked_on[vc.vc_id] = day
            for _ in range(20):
                vc = schedule.choice(world.vcs)
                query_day = schedule.randrange(100, day + 1)
                result = world.check(world.present(vc, [query_day]), day)
                expected = vc.vc_id in revoked_on and revoked_on[vc.vc_id] <= query_day
                assert bool(result.statuses[query_day]) == expected


def test_trust_store_round_trip(tmp_path, world):
    path = tmp_path / "trust.store"
    world.trust.save(path)
    loaded = actors.TrustStore.load(path)
    assert loaded.issuers == world.trust.issuers


class _FullDisk:
    """A file whose writes fail, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "no space left on device")


@pytest.mark.parametrize("save", [
    lambda world, path: world.wallet.save(path),
    lambda world, path: actors.save_issuer_state(world.issuer, path),
], ids=["wallet", "issuer-state"])
@pytest.mark.parametrize("leftover_tmp", [False, True])
def test_failed_secret_write_leaves_no_readable_tmp(world, tmp_path, monkeypatch, save, leftover_tmp):
    # a write that fails between creating the tmp file and the rename leaves
    # the tmp behind; it must never have held secrets readable by others,
    # also when it reuses a 0644 tmp left over from an earlier crash
    path = tmp_path / "secret"
    tmp = tmp_path / "secret.tmp"
    old_umask = os.umask(0o022)
    try:
        if leftover_tmp:
            tmp.write_bytes(b"")
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", lambda file, *a, **k: _FullDisk(real_open(file, *a, **k)))
        with pytest.raises(OSError):
            save(world, path)
    finally:
        monkeypatch.undo()
        os.umask(old_umask)
    assert not path.exists()
    assert not tmp.exists() or stat.S_IMODE(tmp.stat().st_mode) & 0o077 == 0


@pytest.fixture(scope="module")
def presentation_record(tmp_path_factory):
    world = World(tmp_path_factory.mktemp("presentation"), n=1)
    return canonical_decode(world.present(world.vcs[0], [100, 101]).to_bytes())


@pytest.mark.parametrize("raw", [
    b"{}", b"[]", b"null", b"7", b'"text"', b"\xff", b"[" * 100_000,
    b'{"credential": {}, "nonce": "", "pop_signature": "", "authorizations": []}',
], ids=["empty-map", "empty-list", "null", "int", "text", "not-utf8", "deep-nesting", "empty-fields"])
def test_presentation_decoder_rejects_garbage_with_classed_error(raw):
    with pytest.raises(CanonicalDecodeError):
        actors.Presentation.from_bytes(raw)


@pytest.mark.parametrize("mutate", [
    lambda rec: rec.pop("credential"),
    lambda rec: rec["credential"].pop("vc_id"),
    lambda rec: rec.update(nonce="AAAA"),
    lambda rec: rec.update(authorizations={}),
    lambda rec: rec.update(authorizations=[]),
    lambda rec: rec["authorizations"][0].update(day_key={}),
    lambda rec: rec["authorizations"][0].update(day_key=[1, 2, 3]),
    lambda rec: rec["authorizations"][0]["day_key"][1].update(root=5),
    lambda rec: rec["credential"].update(vc_id="zz"),
    lambda rec: rec["credential"].update(pop_public_key=17),
    # ill-typed fields that used to decode and then make verifier_check raise a stray error
    lambda rec: rec["credential"].update(claims=[1, 2]),
    lambda rec: rec["credential"].update(claims={"weight": 1.5}),
    lambda rec: rec["credential"].update(issuer_id=["i"]),
    lambda rec: rec["authorizations"][0].update(day="x"),
], ids=["no-credential", "no-vc-id", "short-nonce", "authorizations-map", "no-authorizations",
        "day-key-map", "day-key-ints", "root-int", "vc-id-not-hex", "pop-key-int",
        "claims-list", "claims-float", "issuer-id-list", "day-text"])
def test_presentation_decoder_rejects_mutations_with_classed_error(presentation_record, mutate):
    rec = json.loads(json.dumps(presentation_record))
    mutate(rec)
    with pytest.raises(CanonicalDecodeError):
        actors.Presentation.from_bytes(json.dumps(rec).encode())


@pytest.mark.parametrize("level", ["test", "standard"])
def test_day_key_without_material_fails_the_key_probe(tmp_path, level):
    world = World(tmp_path, n=1, level=level)
    rec = canonical_decode(world.present(world.vcs[0], [100]).to_bytes())
    rec["authorizations"][0]["day_key"][2] = {}
    presentation = actors.Presentation.from_bytes(canonical_encode(rec))
    with pytest.raises(actors.KeyProbeFailed):
        world.check(presentation, 100)


@pytest.mark.parametrize("level", ["test", "standard"])
def test_table_smaller_than_the_document_is_unavailable(tmp_path, level):
    world = World(tmp_path, n=1, level=level, params=TableParams(d=4, c=64, sigma=4, min_anonymity=1))
    small = RevocationTableSnapshot(100, TableParams(d=1, c=64, sigma=4, min_anonymity=1))
    world.store.publish_revocation(small)
    credential = world.vcs[0]
    with pytest.raises(actors.SnapshotUnavailable):
        world.check(world.present(credential, [100]), 100)
    with pytest.raises(actors.SnapshotUnavailable):
        actors.holder_audit(world.wallet, credential.vc_id, 100, small, world.document, world.rng)


def test_bw2_header_that_is_not_g1_points_is_an_integrity_error(tmp_path):
    world = World(tmp_path, n=1, level="standard")
    credential = world.vcs[0]
    world.revoke(credential)
    _, table = actors.issuer_export_day(world.issuer)
    ((index, entry),) = [(i, e) for i, bucket in enumerate(table.buckets) for e in bucket]
    header = dataclasses.replace(entry.header, fields={name: b"\x11" * 48 for name in entry.header.fields})
    # re-encoded, so the snapshot digest covers the altered header
    world.store.publish_revocation(
        RevocationTableSnapshot.from_entries(table.params, 100, [(index, RevocationEntry(header, entry.sealed_body))])
    )
    with pytest.raises(IntegrityError):
        world.check(world.present(credential, [100]), 100)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _subtrees(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _subtrees(item, path + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_presentation_decoder_raises_only_classed_errors(presentation_record, data):
    """Replace or delete one random subtree of a valid presentation: decoding
    either succeeds or raises CanonicalDecodeError, never a stray error."""
    rec = json.loads(json.dumps(presentation_record))
    path = data.draw(st.sampled_from(list(_subtrees(rec))[1:]))
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON)
    try:
        actors.Presentation.from_bytes(json.dumps(rec).encode())
    except CanonicalDecodeError:
        pass
