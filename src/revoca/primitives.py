"""Deterministic cryptographic building blocks shared by every role.

Day tokens, check digests, bucket/index derivation, the authenticated
encryption envelope, signatures, and the key-derivation function they all
lean on. Everything here is a pure function of its inputs except `seal`
(fresh nonce) and key generation (fresh key material).
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from typing import Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

RandomBytes = Callable[[int], bytes]

SEED_LEN = 32
TOKEN_LEN = 32
VC_ID_LEN = 16
NONCE_LEN = 12

DAY_TOKEN_CONTEXT = b"revoca/day-token/v1"


class AuthFailure(Exception):
    """AEAD open failed: wrong key or wrong associated data."""


class SignatureDecodeError(ValueError):
    """Malformed signing key, public key, or signature encoding."""


def default_rng(n: int) -> bytes:
    return secrets.token_bytes(n)


def new_seed(rng: RandomBytes = default_rng) -> bytes:
    """Fresh 32-byte per-credential secret, shared Issuer <-> Holder only."""
    return rng(SEED_LEN)


def new_vc_id(rng: RandomBytes = default_rng) -> bytes:
    """Fresh 16-byte credential identifier (lowercase hex when displayed)."""
    return rng(VC_ID_LEN)


def vc_id_hex(vc_id: bytes) -> str:
    return vc_id.hex()


def vc_id_from_hex(text: str) -> bytes:
    raw = bytes.fromhex(text)
    if len(raw) != VC_ID_LEN:
        raise ValueError(f"VC id must be {VC_ID_LEN} bytes, got {len(raw)}")
    return raw


def hkdf_sha256(ikm: bytes, info: bytes, length: int = 32, salt: bytes = b"") -> bytes:
    """HKDF (RFC 5869) with SHA-256, extract-then-expand."""
    if length < 1 or length > 255 * 32:
        raise ValueError("invalid HKDF output length")
    if not salt:
        salt = b"\x00" * 32
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
        counter += 1
    return okm[:length]


def derive_day_token(seed: bytes, life_day: int) -> bytes:
    """Day-`life_day` token for a credential seed.

    Counter-mode derivation: each day's token is independent, so revealing
    one day's token leaks nothing about any other day (deliberately not a
    forward hash chain).
    """
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes")
    if life_day < 0:
        raise ValueError("life day must be non-negative")
    return hkdf_sha256(seed, DAY_TOKEN_CONTEXT + life_day.to_bytes(8, "big"), TOKEN_LEN)


def compute_check_digest(token: bytes, vc_id: bytes) -> bytes:
    """Published per-day digest: HMAC-SHA-256(key=day token, msg=vc id)."""
    return hmac.new(token, vc_id, hashlib.sha256).digest()


def check_bucket(digest: bytes, c: int) -> int:
    """Check-table bucket for a digest: first 8 bytes big-endian mod c."""
    if c < 1:
        raise ValueError("bucket count must be positive")
    return int.from_bytes(digest[:8], "big") % c


def index_from_ciphertext(ct: bytes, d: int) -> int:
    """Revocation-table index for a serialized deterministic header.

    Hashing before the mod keeps bucket occupancy uniform regardless of the
    header's internal structure.
    """
    if d < 1:
        raise ValueError("table size must be positive")
    return int.from_bytes(hashlib.sha256(ct).digest()[:16], "big") % d


def seal(key: bytes, plaintext: bytes, associated_data: bytes, rng: RandomBytes = default_rng) -> bytes:
    """AEAD envelope: nonce || body || tag, fresh nonce per call."""
    nonce = rng(NONCE_LEN)
    return nonce + ChaCha20Poly1305(key).encrypt(nonce, plaintext, associated_data)


def open_sealed(sealed: bytes, key: bytes, associated_data: bytes) -> bytes:
    """Open a sealed envelope; raises AuthFailure unless key and AD match."""
    if len(sealed) < NONCE_LEN + 16:
        raise AuthFailure("sealed payload too short")
    nonce, body = sealed[:NONCE_LEN], sealed[NONCE_LEN:]
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, body, associated_data)
    except Exception as exc:  # InvalidTag
        raise AuthFailure("authentication failed") from exc


def generate_signing_key(rng: RandomBytes = default_rng) -> bytes:
    """Fresh Ed25519 signing key, 32 raw bytes."""
    return rng(32)


def signing_public_key(signing_key: bytes) -> bytes:
    sk = _load_signing_key(signing_key)
    return sk.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def sign(signing_key: bytes, message: bytes) -> bytes:
    return _load_signing_key(signing_key).sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True exactly for signatures by the matching key over this message."""
    if len(signature) != 64:
        raise SignatureDecodeError("Ed25519 signature must be 64 bytes")
    try:
        pk = Ed25519PublicKey.from_public_bytes(public_key)
    except (ValueError, TypeError) as exc:
        raise SignatureDecodeError("malformed Ed25519 public key") from exc
    try:
        pk.verify(signature, message)
        return True
    except InvalidSignature:
        return False


def _load_signing_key(signing_key: bytes) -> Ed25519PrivateKey:
    try:
        return Ed25519PrivateKey.from_private_bytes(signing_key)
    except (ValueError, TypeError) as exc:
        raise SignatureDecodeError("malformed Ed25519 signing key") from exc
