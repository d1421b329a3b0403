"""Acceptance criteria, one test per criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
verdict lines.
"""

import collections
import dataclasses
import random
import time

import pytest

from oracles import RecordingTransport, hkdf_oracle, hmac_sha256_oracle, load_stats, poisson_tail_bound, rollover_publishing_each_day
from revoca import actors, ahibe, service
from revoca.primitives import (
    AuthFailure,
    compute_check_digest,
    derive_day_token,
    generate_signing_key,
    hkdf_sha256,
    index_from_ciphertext,
    open_sealed,
    signing_public_key,
)
from revoca.sim import ScenarioConfig, run_scenario
from revoca.tables import RevocationDocument, TableParams, revocation_associated_data, segment_for_digest


def _ok(number: int, text: str):
    print(f"\nACCEPTANCE {number:02d} PASS  {text}")


def _rng(seed):
    r = random.Random(seed)
    return lambda n: r.randbytes(n)


class MiniWorld:
    """Transparent-scheme issuer + population, publishing into tmp_path."""

    def __init__(self, tmp_path, n_vcs, params, day=0, seed=1, expiry=500):
        self.rng = _rng(seed)
        self.params = params
        self.mpp, self.msk = ahibe.setup("test", self.rng)
        self.issuer = actors.issuer_init(params, day=day, mpp=self.mpp, issuer_id="iss", rng=self.rng)
        self.store = service.PublicationStore(tmp_path)
        self.document = service.make_params_document(self.mpp, params, 0, 86400, "iss", self.issuer.signing_key)
        self.store.write_params(self.document)
        self.trust = actors.TrustStore({"iss": self.issuer.public_key})
        self.wallet = actors.Wallet()
        self.holder_keys = {}
        self.vcs = []
        for i in range(n_vcs):
            root = f"holder-{i:04d}"
            hk = ahibe.extract(self.msk, root, self.rng)
            self.holder_keys[root] = hk
            pop = generate_signing_key(self.rng)
            credential, seed_bytes = actors.issuer_issue(self.issuer, root, {"i": i}, expiry, signing_public_key(pop))
            actors.holder_store(self.wallet, credential, seed_bytes, hk, pop, self.issuer.public_key)
            self.vcs.append(credential)
        actors.issuer_publish(self.issuer, self.store)

    def client(self):
        client = service.TableClient(RecordingTransport(service.InProcessTransport(self.store)))
        client.prime_params(self.document)
        return client

    def present(self, credential, days):
        return actors.holder_present(self.wallet, credential.vc_id, days, self.rng(16), self.rng)

    def revoke(self, credential, sequence=0):
        document = RevocationDocument(
            vc_id=credential.vc_id,
            status="revoked",
            reason="acceptance",
            effective_from=self.issuer.current_day,
            sequence=sequence,
        )
        actors.issuer_revoke(self.issuer, credential.vc_id, document, self.issuer.current_day)
        return document


SCENARIO = dict(
    holders=200,
    vcs_per_holder=2,
    days=10,
    daily_revocation_rate=0.05,
    presentations_per_day=100,  # 10 days x 100 = 1,000 presentations
    past_auth_probability=0.10,
    future_auth_probability=0.05,
    rng_seed=42,
    d=1024,
    c=1024,
    sigma=16,
    min_anonymity=1,
)


def test_criterion_01_end_to_end_correctness():
    started = time.perf_counter()
    full = run_scenario(ScenarioConfig(**SCENARIO, scheme="test"))
    full_elapsed = time.perf_counter() - started
    assert full.presentations_checked >= 1000
    assert full.false_positives == 0 and full.false_negatives == 0
    assert full_elapsed < 60.0

    tenth = dict(SCENARIO, holders=20, presentations_per_day=10)
    started = time.perf_counter()
    standard = run_scenario(ScenarioConfig(**tenth, scheme="standard"))
    standard_elapsed = time.perf_counter() - started
    transparent = run_scenario(ScenarioConfig(**tenth, scheme="test"))
    assert standard_elapsed < 600.0
    assert standard.false_positives == 0 and standard.false_negatives == 0
    for field in (
        "presentations_checked",
        "day_verdicts",
        "true_positives",
        "false_positives",
        "true_negatives",
        "false_negatives",
        "deferred_resolved",
    ):
        assert getattr(standard, field) == getattr(transparent, field), field
    _ok(
        1,
        f"1,000-presentation scenario: 0 FP / 0 FN in {full_elapsed:.1f}s (<60s); "
        f"1/10-scale public-key scheme: identical verdicts in {standard_elapsed:.1f}s (<600s)",
    )


def test_criterion_02_attack1_cross_day_decryption(tmp_path):
    params = TableParams(d=512, c=512, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=550, params=params, day=0)
    for credential in world.vcs:
        world.revoke(credential)
    actors.issuer_publish(world.issuer, world.store)          # day 0 tables (T-1)
    rollover_publishing_each_day(world.issuer, world.store, 1)  # day 1 (T)
    rollover_publishing_each_day(world.issuer, world.store, 2)  # day 2 (T+1)

    target = world.vcs[0]
    record = world.wallet.records[target.vc_id]
    day_t = 1
    auth_key = ahibe.delegate(record.holder_key, day_t, world.rng)

    client = world.client()
    attempts = 0
    successes = 0
    for other_day in (0, 2):
        table, _ = client.fetch_revocation_table(other_day)
        for bucket in table.buckets:
            for entry in bucket:
                attempts += 1
                key = ahibe.decap(auth_key, entry.header)
                for ad_day in (other_day, day_t):
                    try:
                        open_sealed(entry.sealed_body, key, revocation_associated_data(target.root, ad_day, target.vc_id))
                        successes += 1
                    except AuthFailure:
                        pass
    assert attempts >= 1000
    assert successes == 0

    # a day-T authorization succeeds only against day-T snapshots
    presentation = world.present(target, [day_t])
    result = actors.verifier_check(presentation, world.trust, world.client(), current_day=2, rng=world.rng)
    assert result.statuses[day_t]
    token = presentation.authorizations[0].day_token
    digest = compute_check_digest(token, target.vc_id)
    for other_day in (0, 2):
        check_bytes = world.store.check_bytes(other_day)
        from revoca.tables import snapshot_from_bytes

        other_check = snapshot_from_bytes(check_bytes)
        assert not other_check.segment(segment_for_digest(digest, params)).contains(digest, params)
    _ok(2, f"day-T key opened 0/{attempts} entries published for adjacent days; day-T token authenticates only in the day-T table")


def test_criterion_03_attack2_uniform_requests(tmp_path):
    params = TableParams(d=64, c=64, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=48, params=params, day=0)
    by_segment = {}
    pair = None
    for credential in world.vcs:
        record = world.wallet.records[credential.vc_id]
        digest = compute_check_digest(derive_day_token(record.seed, 0), credential.vc_id)
        j = segment_for_digest(digest, params)
        if j in by_segment:
            pair = (by_segment[j], credential)
            break
        by_segment[j] = credential
    assert pair is not None

    logs = []
    for credential in pair:
        client = world.client()
        presentation = world.present(credential, [0])
        actors.verifier_check(presentation, world.trust, client, 0, world.rng)
        logs.append(client.transport.requests)
    assert logs[0] == logs[1]

    import re

    for template in service.ROUTES:
        assert set(re.findall(r"\{(\w+)\}", template)) <= {"day", "j"}
    assert len(service.ROUTES) == 3
    _ok(3, "same-segment request streams byte-identical; endpoint surface admits no credential-identifying query")


def test_criterion_04_attack3_no_holder_issuer_channel(tmp_path):
    params = TableParams(d=64, c=64, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=4, params=params, day=0)
    credential = world.vcs[0]
    # presenting consumes only the wallet: no transport exists to call
    presentation = world.present(credential, [0])
    client = world.client()
    result = actors.verifier_check(presentation, world.trust, client, 0, world.rng)
    assert result.statuses == {0: ()}
    paths = [path for path, _, _ in client.transport.requests]
    assert paths == ["/v1/days/0/check/segments/" + paths[0].rsplit("/", 1)[1], "/v1/days/0/revocation"]
    assert credential.vc_id.hex() not in "".join(paths)
    assert credential.root not in "".join(paths)
    _ok(4, "presentation + check produce only bulk publication fetches; no holder-to-issuer message exists")


def test_criterion_05_attack4_forged_presentations(tmp_path):
    params = TableParams(d=128, c=128, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=40, params=params, day=5)
    client = world.client()
    schedule = random.Random(99)
    counts = {"check-digest-not-found": 0, "key-probe-failed": 0}
    total = 1000
    for trial in range(total):
        credential = schedule.choice(world.vcs)
        record = world.wallet.records[credential.vc_id]
        presentation = world.present(credential, [5])
        kind = trial % 4
        auth = presentation.authorizations[0]
        if kind == 0:  # random token
            forged = dataclasses.replace(auth, day_token=world.rng(32))
            expected = actors.CheckDigestNotFound
        elif kind == 1:  # another credential's genuine token
            other = schedule.choice([vc for vc in world.vcs if vc.vc_id != credential.vc_id])
            other_record = world.wallet.records[other.vc_id]
            forged = dataclasses.replace(auth, day_token=derive_day_token(other_record.seed, 5 - other.issued_day))
            expected = actors.CheckDigestNotFound
        elif kind == 2:  # key delegated for another day
            forged = dataclasses.replace(auth, day_key=ahibe.delegate(record.holder_key, 6, world.rng))
            expected = actors.KeyProbeFailed
        else:  # key delegated from another holder
            other_root = schedule.choice([r for r in world.holder_keys if r != credential.root])
            forged = dataclasses.replace(auth, day_key=ahibe.delegate(world.holder_keys[other_root], 5, world.rng))
            expected = actors.KeyProbeFailed
        tampered = dataclasses.replace(presentation, authorizations=(forged,))
        with pytest.raises(expected) as excinfo:
            actors.verifier_check(tampered, world.trust, client, 5, world.rng)
        counts[excinfo.value.code] += 1
    assert sum(counts.values()) == total
    assert counts["check-digest-not-found"] == 500 and counts["key-probe-failed"] == 500
    _ok(5, f"{total}/{total} forged presentations rejected, every one with the expected error class: {counts}")


def test_criterion_06_index_agreement(tmp_path):
    params = TableParams(d=2048, c=256, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=1000, params=params, day=3)
    lengths = collections.Counter()  # entries per slot
    agreements = 0
    for credential in world.vcs:
        world.revoke(credential)
        record = world.wallet.records[credential.vc_id]
        # verifier-side recomputation from presentable knowledge only
        token = derive_day_token(record.seed, 3 - credential.issued_day)
        digest = compute_check_digest(token, credential.vc_id)
        header, _ = ahibe.det_encap(world.mpp, ahibe.IdentityPath(credential.root, 3), digest)
        predicted = index_from_ciphertext(header.canonical_bytes(), params.d)
        new_lengths = collections.Counter(world.issuer.revocation.slots)
        changed = [i for i in set(lengths) | set(new_lengths) if new_lengths[i] != lengths[i]]
        assert changed == [predicted]
        lengths = new_lengths
        agreements += 1
    assert agreements == 1000
    _ok(6, "issuer insertion index equals verifier-recomputed index on 1,000/1,000 revocations")


def test_criterion_07_load_factor(tmp_path):
    params = TableParams(d=1024, c=1024, sigma=16, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=1024, params=params, day=0)
    for credential in world.vcs:
        world.revoke(credential)
    mean, peak = load_stats(world.issuer.revocation)
    assert 0.9 <= mean <= 1.1
    bound = poisson_tail_bound(lam=1024 / 1024, buckets=1024, q=0.001)
    assert peak <= bound
    _ok(7, f"1,024 revocations into d=1,024: mean overflow {mean:.3f} in [0.9,1.1], max {peak} <= Poisson bound {bound}")


def test_criterion_08_time_flexibility(tmp_path):
    params = TableParams(d=64, c=64, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=3, params=params, day=0)
    credential = world.vcs[0]
    rollover_publishing_each_day(world.issuer, world.store, 3)
    world.revoke(credential)  # published on day 3
    actors.issuer_publish(world.issuer, world.store)
    rollover_publishing_each_day(world.issuer, world.store, 6)

    presentation = world.present(credential, [2, 3, 5])
    result = actors.verifier_check(presentation, world.trust, world.client(), current_day=6, rng=world.rng)
    assert not result.statuses[2]   # absent on the day before publication
    assert result.statuses[3]       # found on the archived publication day
    assert result.statuses[5]       # re-inserted on later days

    future = world.present(credential, [8])
    with pytest.raises(actors.DeferredFutureDay):
        actors.verifier_check(future, world.trust, world.client(), current_day=6, rng=world.rng)
    rollover_publishing_each_day(world.issuer, world.store, 8)
    result = actors.verifier_check(future, world.trust, world.client(), current_day=8, rng=world.rng)
    assert result.statuses[8]
    _ok(8, "past-day auths verify against archives (revocation visible exactly from its publication day); future-day auth defers, then verifies on arrival")


def test_criterion_09_same_day_freshness(tmp_path):
    params = TableParams(d=64, c=64, sigma=4, min_anonymity=1)
    world = MiniWorld(tmp_path, n_vcs=3, params=params, day=9)
    credential = world.vcs[1]
    presentation = world.present(credential, [9])
    before = actors.verifier_check(presentation, world.trust, world.client(), 9, world.rng)
    assert not before.statuses[9]
    world.revoke(credential)
    actors.issuer_publish(world.issuer, world.store)  # same-day re-publication
    after = actors.verifier_check(presentation, world.trust, world.client(), 9, world.rng)
    assert after.statuses[9]
    _ok(9, "revocation published on day T is detected by a day-T check immediately after export")


def test_criterion_10_primitive_conformance():
    vectors = [
        (b"\x0b" * 20, b"Hi There", "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        (b"Jefe", b"what do ya want for nothing?", "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
        (b"\xaa" * 20, b"\xdd" * 50, "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    ]
    for key, message, expected in vectors:
        assert compute_check_digest(key, message).hex() == expected
        assert compute_check_digest(key, message) == hmac_sha256_oracle(key, message)
    ikm, salt, info = b"\x0b" * 22, bytes(range(13)), bytes(range(0xF0, 0xFA))
    okm = hkdf_sha256(ikm, info, 42, salt)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    )
    assert okm == hkdf_oracle(ikm, info, 42, salt)
    rng = random.Random(4)
    for _ in range(25):
        seed, k = rng.randbytes(32), rng.randrange(0, 10_000)
        assert derive_day_token(seed, k) == hkdf_oracle(seed, b"revoca/day-token/v1" + k.to_bytes(8, "big"))
    _ok(10, "HMAC matches RFC 4231 vectors and a from-scratch oracle; KDF matches RFC 5869 and the cryptography-library oracle")


def test_criterion_11_bandwidth_accounting(tmp_path):
    params = TableParams(d=256, c=256, sigma=8, min_anonymity=1)
    small = MiniWorld(tmp_path / "small", n_vcs=16, params=params, day=4, seed=21)
    large = MiniWorld(tmp_path / "large", n_vcs=256, params=params, day=4, seed=22)

    sizes = []
    for world in (small, large):
        credential = world.vcs[0]
        presentation = world.present(credential, [4])
        sizes.append(len(presentation.to_bytes()))
    assert sizes[0] == sizes[1]  # holder bytes independent of population

    client = large.client()
    presentation = large.present(large.vcs[1], [4])
    result = actors.verifier_check(presentation, large.trust, client, 4, large.rng)
    day_fetches = [request for request in client.transport.requests if request[0].startswith("/v1/days/4/")]
    assert len(day_fetches) == 2  # exactly one segment + one revocation table
    assert [status for _, status, _ in day_fetches] == [200, 200]
    assert result.segment_bytes == day_fetches[0][2]
    assert result.table_bytes == day_fetches[1][2]
    full_check_table = len(large.store.check_bytes(4))
    assert result.segment_bytes < full_check_table
    _ok(
        11,
        f"holder bytes constant across 16x population growth ({sizes[0]} B); verifier fetched one segment"
        f" ({result.segment_bytes} B < full check table {full_check_table} B) plus one revocation table ({result.table_bytes} B)",
    )
