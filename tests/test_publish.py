"""Publish only what changed: the check table depends only on the active set
and the day, so a publish rewrites the check file only when the file does
not carry the digest the issuer state names for it."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import check_file_oracle
from revoca import actors, ahibe, service
from revoca.actors import issuer as issuer_module
from revoca.primitives import generate_signing_key, signing_public_key
from revoca.tables import RevocationDocument, TableParams, build_check_table, snapshot_digest, snapshot_to_bytes

PARAMS = TableParams(d=32, c=32, sigma=4, min_anonymity=1)
DAY = 10


def _rng(seed):
    r = random.Random(seed)
    return lambda n: r.randbytes(n)


def _new_issuer(root: Path, rng):
    mpp, _ = ahibe.setup("test", rng)
    issuer = actors.issuer_init(PARAMS, day=DAY, mpp=mpp, issuer_id="iss", rng=rng)
    return issuer, service.PublicationStore(root / "public")


def _issue(issuer, rng, expiry_day=400):
    pop = signing_public_key(generate_signing_key(rng))
    credential, _ = actors.issuer_issue(issuer, "h-0", {}, expiry_day, pop)
    return credential.vc_id


def _revoke(issuer, vc_id):
    record = issuer.registry[vc_id]
    sequence = record.documents[-1].document.sequence + 1 if record.documents else 0
    document = RevocationDocument(vc_id, "revoked", "", issuer.current_day, sequence)
    actors.issuer_revoke(issuer, vc_id, document, issuer.current_day)


def assert_published(issuer, store):
    """Both files of the current day are the state's tables, and the state
    names the digest of the check file on disk."""
    check = store.check_path(issuer.current_day).read_bytes()
    assert check == check_file_oracle(issuer)
    assert issuer.check_digest == snapshot_digest(check)
    assert store.revocation_path(issuer.current_day).read_bytes() == snapshot_to_bytes(issuer.revocation)


def _file_version(path: Path) -> tuple:
    stat = path.stat()
    return path.read_bytes(), stat.st_mtime_ns, stat.st_ino


@pytest.fixture()
def world(tmp_path):
    rng = _rng(7)
    issuer, store = _new_issuer(tmp_path, rng)
    vc_ids = [_issue(issuer, rng) for _ in range(3)]
    actors.issuer_publish(issuer, store)
    return issuer, store, vc_ids, rng


def _counting_tokens(monkeypatch) -> list:
    calls = []
    real = issuer_module.derive_day_token

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(issuer_module, "derive_day_token", counted)
    return calls


def test_same_day_revoke_leaves_the_check_file_untouched(world, monkeypatch):
    issuer, store, vc_ids, _ = world
    check_path, revocation_path = store.check_path(DAY), store.revocation_path(DAY)
    before, revocation_before = _file_version(check_path), revocation_path.read_bytes()
    _revoke(issuer, vc_ids[0])
    tokens = _counting_tokens(monkeypatch)
    actors.issuer_publish(issuer, store)
    assert tokens == []  # no token derived: the check table is not rebuilt
    assert _file_version(check_path) == before  # bytes, st_mtime_ns, and no rename
    assert revocation_path.read_bytes() != revocation_before
    assert_published(issuer, store)


def test_issue_then_publish_rewrites_the_check_file(world):
    issuer, store, _, rng = world
    before = store.check_path(DAY).read_bytes()
    _issue(issuer, rng)
    assert issuer.check_digest is None
    actors.issuer_publish(issuer, store)
    assert store.check_path(DAY).read_bytes() != before
    assert_published(issuer, store)


def test_rollover_then_publish_writes_the_new_day(world):
    issuer, store, _, _ = world
    actors.issuer_rollover(issuer, DAY + 1)
    assert issuer.check_digest is None
    actors.issuer_publish(issuer, store)
    assert_published(issuer, store)


def _delete(store, issuer):
    store.check_path(DAY).unlink()


def _other_day(store, issuer):
    # an intact file whose table is another day's
    other = build_check_table([], PARAMS, DAY - 1)
    store.check_path(DAY).write_bytes(snapshot_to_bytes(other))


def _damaged_body(store, issuer):
    # the envelope, and so the digest it claims, are intact; the body is not
    path = store.check_path(DAY)
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    assert snapshot_digest(bytes(data)) == issuer.check_digest


def _truncated(store, issuer):
    path = store.check_path(DAY)
    path.write_bytes(path.read_bytes()[:50])


@pytest.mark.parametrize("damage", [_delete, _other_day, _damaged_body, _truncated])
def test_a_check_file_that_lost_its_table_is_rewritten(world, damage):
    issuer, store, vc_ids, _ = world
    damage(store, issuer)
    _revoke(issuer, vc_ids[1])
    actors.issuer_publish(issuer, store)
    assert_published(issuer, store)


def test_a_publish_that_fails_after_the_check_write_is_caught_up(world, monkeypatch):
    issuer, store, vc_ids, rng = world
    _issue(issuer, rng)

    def full(*args):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(service.PublicationStore, "publish_revocation", full)
        _revoke(issuer, vc_ids[0])
        with pytest.raises(OSError):
            actors.issuer_publish(issuer, store)
    _revoke(issuer, vc_ids[1])
    actors.issuer_publish(issuer, store)
    assert_published(issuer, store)
    assert len(issuer.revocation.slots) == 2


def test_state_round_trip_keeps_the_check_digest(world, tmp_path):
    issuer, store, _, _ = world
    path = tmp_path / "issuer.state"
    actors.save_issuer_state(issuer, path)
    loaded = actors.load_issuer_state(path)
    assert loaded.check_digest == issuer.check_digest == snapshot_digest(store.check_path(DAY).read_bytes())
    assert actors.issuer_state_to_bytes(loaded) == path.read_bytes()


def test_version_2_state_without_a_check_digest_loads_with_none(world, tmp_path, monkeypatch):
    # a state saved before the field existed: the next publish derives the
    # check table and records its digest
    issuer, store, vc_ids, _ = world
    issuer.check_digest = None
    loaded = actors.issuer_state_from_bytes(actors.issuer_state_to_bytes(issuer))
    assert loaded.check_digest is None
    _revoke(loaded, vc_ids[0])
    tokens = _counting_tokens(monkeypatch)
    actors.issuer_publish(loaded, store)
    assert len(tokens) == len(vc_ids)
    assert_published(loaded, store)


# the property: whatever happens between publishes, the check file after a
# publish is today's full derivation, and the state never names a digest
# other than that derivation's

_STEPS = ("issue", "revoke", "rollover", "publish", "stale", "delete", "truncate", "replace", "flip")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(_STEPS), st.integers(0, 2**16)), max_size=24))
def test_the_skip_never_hides_a_change(steps):
    rng = _rng(11)
    with tempfile.TemporaryDirectory() as tmp:
        issuer, store = _new_issuer(Path(tmp), rng)
        actors.issuer_publish(issuer, store)
        assert_published(issuer, store)
        for step, k in steps:
            day, check_path = issuer.current_day, store.check_path(issuer.current_day)
            if step == "issue":
                _issue(issuer, rng, expiry_day=day + k % 4)  # some expire at the next rollovers
            elif step == "revoke":
                active = [vc_id for vc_id, record in issuer.registry.items() if record.active_on(day)]
                if active:
                    _revoke(issuer, active[k % len(active)])
            elif step == "rollover":
                actors.issuer_rollover(issuer, day + 1 + k % 2)
            elif step == "publish":
                actors.issuer_publish(issuer, store)
                assert_published(issuer, store)
            elif step == "stale":  # an older day's intact file restored in today's place
                older = [d for d in range(day) if store.check_path(d).exists()]
                if older:
                    check_path.write_bytes(store.check_path(older[-1]).read_bytes())
            elif not check_path.exists():
                continue
            elif step == "delete":
                check_path.unlink()
            elif step == "truncate":
                check_path.write_bytes(check_path.read_bytes()[: k % 128])
            elif step == "replace":  # another intact table: fewer digests, or another day's
                other = build_check_table([rng(32) for _ in range(k % 3)], issuer.params, day - k % 2)
                check_path.write_bytes(snapshot_to_bytes(other))
            elif check_path.stat().st_size:  # flip one bit
                data = bytearray(check_path.read_bytes())
                data[k % len(data)] ^= 1 << (k % 8)
                check_path.write_bytes(bytes(data))
            assert issuer.check_digest in (None, snapshot_digest(check_file_oracle(issuer)))
        actors.issuer_publish(issuer, store)
        assert_published(issuer, store)
