"""Transparent scheme: test-only, explicitly insecure.

The "public" parameters embed the master secret, so encapsulation can walk
the same KDF path the key hierarchy uses. Every functional contract of the
real scheme holds (correctness, delegation containment as API shape,
identity-free headers), which makes whole-protocol tests run in
milliseconds. Never deploy it.
"""

from __future__ import annotations

import hmac

from ..primitives import RandomBytes, hkdf_sha256
# defined in the package before it imports the schemes
from . import DayKey, EncapHeader, HolderKey, MasterPublicParams, MasterSecret, det_randomness

SCHEME_ID = "transparent-v1"
HEADER_FIELDS = (("nonce", 32),)

_ROOT_CTX = b"revoca/transparent/root-key/v1"
_DAY_CTX = b"revoca/transparent/day-key/v1"
_KEM_CTX = b"revoca/transparent/kem/v1"


def setup(rng: RandomBytes):
    master = rng(32)
    return (
        MasterPublicParams(scheme_id=SCHEME_ID, fields={"master": master}),
        MasterSecret(scheme_id=SCHEME_ID, fields={"master": master}),
    )


def _root_key(master: bytes, root: str) -> bytes:
    return hkdf_sha256(master, _ROOT_CTX + root.encode("utf-8"), 32)


def _day_key(root_key: bytes, day: int) -> bytes:
    return hkdf_sha256(root_key, _DAY_CTX + day.to_bytes(8, "big"), 32)


def _shared_key(day_key: bytes, nonce: bytes) -> bytes:
    return hkdf_sha256(day_key, _KEM_CTX + nonce, 32)


def extract(msk, identity, rng: RandomBytes):
    return HolderKey(
        scheme_id=SCHEME_ID,
        identity=identity,
        key_material={"root_key": _root_key(msk.fields["master"], identity.root)},
    )


def delegate(hk, identity, rng: RandomBytes):
    return DayKey(
        scheme_id=SCHEME_ID,
        identity=identity,
        key_material={"day_key": _day_key(hk.key_material["root_key"], identity.day)},
    )


def _encap_with_nonce(mpp, identity, nonce: bytes):
    day_key = _day_key(_root_key(mpp.fields["master"], identity.root), identity.day)
    header = EncapHeader(scheme_id=SCHEME_ID, fields={"nonce": nonce})
    return header, _shared_key(day_key, nonce)


def encap(mpp, identity, rng: RandomBytes):
    return _encap_with_nonce(mpp, identity, rng(32))


def det_encap(mpp, identity, binding: bytes):
    return _encap_with_nonce(mpp, identity, det_randomness(identity, binding)[:32])


def probe_key(mpp, identity, dk) -> bool:
    expected = _day_key(_root_key(mpp.fields["master"], identity.root), identity.day)
    return hmac.compare_digest(dk.key_material["day_key"], expected)


def decap(dk, header) -> bytes:
    return _shared_key(dk.key_material["day_key"], header.fields["nonce"])
