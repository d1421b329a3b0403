"""Two-level anonymous hierarchical identity-based key encapsulation.

Identities are paths: a holder root (level 1) and an optional day index
(level 2). The master secret extracts holder keys; a holder key delegates
one-day keys; anyone holding the public parameters can encapsulate to a
(root, day) identity without learning anything about who else can decrypt.

Two interchangeable schemes sit behind the same interface:

* ``transparent-v1`` — test-only and deliberately insecure: the public
  parameters embed the master secret and every key is a KDF derivation down
  the identity path. It satisfies all functional contracts and runs in
  microseconds, which makes whole-protocol tests cheap.
* ``bw2-bls381-v1`` — the production scheme over BLS12-381 (see
  ``pairing_scheme``).

Encapsulation headers never contain the recipient identity; deterministic
encapsulation replaces all randomness with a KDF over (identity, binding) so
two parties derive bit-identical headers from shared knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..encoding import b64u_decode, canonical_decode, canonical_encode, CanonicalDecodeError
from ..primitives import (
    KEY_PROBE_CONTEXT,
    AuthFailure,
    RandomBytes,
    default_rng,
    hkdf_sha256,
    open_sealed,
    seal,
)

DET_ENCAP_CONTEXT = b"revoca/det-encap/v1"

LEVEL_BOUND = 2
MAX_ROOT_BYTES = 256


class IdentityError(ValueError):
    """Malformed identity component."""


class LevelError(ValueError):
    """Operation applied at the wrong hierarchy level."""


class SchemeError(ValueError):
    """Unknown scheme tag or material from a different scheme."""


@dataclass(frozen=True)
class IdentityPath:
    """A holder root, optionally narrowed to one day."""

    root: str
    day: Optional[int] = None

    def __post_init__(self):
        if not self.root:
            raise IdentityError("root identity must be non-empty")
        if len(self.root.encode("utf-8")) > MAX_ROOT_BYTES:
            raise IdentityError("root identity exceeds 256 UTF-8 bytes")
        if self.day is not None and self.day < 0:
            raise IdentityError("day index must be non-negative")

    @property
    def level(self) -> int:
        return 1 if self.day is None else 2

    def canonical_text(self) -> str:
        if self.day is None:
            return self.root
        return f"{self.root}/day:{self.day}"

    def to_record(self) -> dict:
        rec = {"root": self.root}
        if self.day is not None:
            rec["day"] = self.day
        return rec

    @classmethod
    def from_record(cls, rec: Mapping) -> "IdentityPath":
        return cls(root=rec["root"], day=rec.get("day"))


@dataclass(frozen=True)
class MasterPublicParams:
    scheme_id: str
    fields: Mapping[str, bytes]
    level_bound: int = LEVEL_BOUND


@dataclass(frozen=True)
class MasterSecret:
    scheme_id: str
    fields: Mapping[str, bytes]


@dataclass(frozen=True)
class HolderKey:
    scheme_id: str
    identity: IdentityPath
    key_material: Mapping[str, bytes]
    delegation: Mapping[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class DayKey:
    """Level-2 key: decapsulates exactly its own (root, day) and delegates nothing."""

    scheme_id: str
    identity: IdentityPath
    key_material: Mapping[str, bytes]


@dataclass(frozen=True)
class EncapHeader:
    scheme_id: str
    fields: Mapping[str, bytes]

    def canonical_bytes(self) -> bytes:
        return canonical_encode([self.scheme_id, dict(self.fields)])


def det_randomness(identity: IdentityPath, binding: bytes) -> bytes:
    """Shared randomness derivation for deterministic encapsulation."""
    ikm = canonical_encode({"binding": binding, "identity": identity.canonical_text()})
    return hkdf_sha256(ikm, DET_ENCAP_CONTEXT, 48)


from . import transparent, pairing_scheme  # noqa: E402

_SCHEMES = {
    transparent.SCHEME_ID: transparent,
    pairing_scheme.SCHEME_ID: pairing_scheme,
}

SECURITY_LEVELS = {
    "test": transparent.SCHEME_ID,
    "standard": pairing_scheme.SCHEME_ID,
}


def _scheme(scheme_id: str):
    try:
        return _SCHEMES[scheme_id]
    except KeyError:
        raise SchemeError(f"unknown scheme: {scheme_id!r}") from None


def setup(security_level: str = "test", rng: RandomBytes = default_rng):
    """Fresh (public params, master secret) for a 2-level hierarchy."""
    try:
        scheme_id = SECURITY_LEVELS[security_level]
    except KeyError:
        raise SchemeError(f"unknown security level: {security_level!r}") from None
    return _scheme(scheme_id).setup(rng)


def extract(msk: MasterSecret, root: str, rng: RandomBytes = default_rng) -> HolderKey:
    """Level-1 key for a holder root (PKG operation)."""
    identity = IdentityPath(root)  # validates
    return _scheme(msk.scheme_id).extract(msk, identity, rng)


def delegate(hk: HolderKey, day: int, rng: RandomBytes = default_rng) -> DayKey:
    """Derive the one-day key under a holder key; no PKG involvement."""
    if hk.identity.level != 1:
        raise LevelError("delegation requires a level-1 holder key")
    identity = IdentityPath(hk.identity.root, day)
    return _scheme(hk.scheme_id).delegate(hk, identity, rng)


def encap(mpp: MasterPublicParams, identity: IdentityPath, rng: RandomBytes = default_rng):
    """Randomized encapsulation to a level-2 identity: (header, 32-byte key)."""
    if identity.level != 2:
        raise LevelError("encapsulation targets level-2 identities")
    return _scheme(mpp.scheme_id).encap(mpp, identity, rng)


def det_encap(mpp: MasterPublicParams, identity: IdentityPath, binding: bytes):
    """Deterministic encapsulation: randomness replaced by KDF(identity, binding).

    Two parties who share (params, identity, binding) compute bit-identical
    headers; the stored-payload encryption stays randomized elsewhere.
    """
    if identity.level != 2:
        raise LevelError("encapsulation targets level-2 identities")
    if not binding:
        raise ValueError("binding must be non-empty")
    return _scheme(mpp.scheme_id).det_encap(mpp, identity, binding)


def decap(dk: DayKey, header: EncapHeader) -> bytes:
    """Recover the encapsulated key; a mismatched identity yields a key that
    fails downstream AEAD authentication rather than an error."""
    if header.scheme_id != dk.scheme_id:
        raise SchemeError(f"header scheme {header.scheme_id!r} does not match key scheme {dk.scheme_id!r}")
    return _scheme(dk.scheme_id).decap(dk, header)


def probe_key(mpp: MasterPublicParams, identity: IdentityPath, dk: DayKey, rng: RandomBytes = default_rng) -> bool:
    """Check that `dk` really opens ciphertexts for `identity`.

    Encapsulates fresh, seals a random probe under the produced key, and
    checks the day key recovers it. Mismatch is the False return, never an
    error.
    """
    if identity.level != 2:
        raise LevelError("key probing targets level-2 identities")
    header, key = encap(mpp, identity, rng)
    probe = rng(32)
    sealed = seal(key, probe, KEY_PROBE_CONTEXT, rng)
    try:
        recovered = open_sealed(sealed, decap(dk, header), KEY_PROBE_CONTEXT)
    except (AuthFailure, SchemeError, ValueError):
        return False
    return recovered == probe


# serialization: tagged canonical encoding, scheme tag first


def _bytes_map_record(fields: Mapping[str, bytes]) -> dict:
    return {k: bytes(v) for k, v in fields.items()}


def _bytes_map_from(rec: Mapping) -> dict:
    return {k: b64u_decode(v) for k, v in rec.items()}


def params_to_bytes(mpp: MasterPublicParams) -> bytes:
    return canonical_encode([mpp.scheme_id, {"level_bound": mpp.level_bound}, _bytes_map_record(mpp.fields)])


def params_from_bytes(data: bytes) -> MasterPublicParams:
    scheme_id, meta, fields = _load_tagged(data, 3)
    return MasterPublicParams(scheme_id=scheme_id, fields=_bytes_map_from(fields), level_bound=meta["level_bound"])


def master_secret_to_bytes(msk: MasterSecret) -> bytes:
    return canonical_encode([msk.scheme_id, _bytes_map_record(msk.fields)])


def master_secret_from_bytes(data: bytes) -> MasterSecret:
    scheme_id, fields = _load_tagged(data, 2)
    return MasterSecret(scheme_id=scheme_id, fields=_bytes_map_from(fields))


def holder_key_to_bytes(hk: HolderKey) -> bytes:
    return canonical_encode(
        [hk.scheme_id, hk.identity.to_record(), _bytes_map_record(hk.key_material), _bytes_map_record(hk.delegation)]
    )


def holder_key_from_bytes(data: bytes) -> HolderKey:
    scheme_id, ident, material, delegation = _load_tagged(data, 4)
    return HolderKey(
        scheme_id=scheme_id,
        identity=IdentityPath.from_record(ident),
        key_material=_bytes_map_from(material),
        delegation=_bytes_map_from(delegation),
    )


def day_key_to_record(dk: DayKey) -> list:
    return [dk.scheme_id, dk.identity.to_record(), _bytes_map_record(dk.key_material)]


def day_key_from_record(rec) -> DayKey:
    scheme_id, ident, material = rec
    return DayKey(scheme_id=scheme_id, identity=IdentityPath.from_record(ident), key_material=_bytes_map_from(material))


def header_to_record(header: EncapHeader) -> list:
    return [header.scheme_id, _bytes_map_record(header.fields)]


def header_from_record(rec) -> EncapHeader:
    scheme_id, fields = rec
    if scheme_id not in _SCHEMES:
        raise SchemeError(f"unknown scheme: {scheme_id!r}")
    return EncapHeader(scheme_id=scheme_id, fields=_bytes_map_from(fields))


def _load_tagged(data: bytes, arity: int):
    rec = canonical_decode(data)
    if not isinstance(rec, list) or len(rec) != arity or not isinstance(rec[0], str):
        raise CanonicalDecodeError("malformed tagged encoding")
    if rec[0] not in _SCHEMES:
        raise SchemeError(f"unknown scheme: {rec[0]!r}")
    return rec
