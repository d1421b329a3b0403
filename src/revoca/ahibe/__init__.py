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

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..encoding import b64u_decode, canonical_encode, CanonicalDecodeError
from ..primitives import RandomBytes, default_rng, hkdf_sha256
from ..primitives import seal, open_sealed  # noqa: F401 -- unused; perfbench/tracing.py hooks these names

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
        """Malformed input raises CanonicalDecodeError."""
        if type(rec.get("root")) is not str or type(rec.get("day", 0)) is not int or rec.keys() - {"root", "day"}:
            raise CanonicalDecodeError(f"malformed identity record: {rec!r}")
        try:
            return cls(root=rec["root"], day=rec.get("day"))
        except ValueError as exc:  # IdentityError, or a root that is not UTF-8 encodable
            raise CanonicalDecodeError(str(exc)) from exc


@dataclass(frozen=True)
class MasterPublicParams:
    scheme_id: str
    fields: Mapping[str, bytes]


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
        return canonical_encode(to_record(self))


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


def header_layout(scheme_id: str) -> tuple:
    """(name, byte width) of each field of the scheme's encapsulation
    headers, in a fixed order."""
    return _scheme(scheme_id).HEADER_FIELDS


def decap(dk: DayKey, header: EncapHeader) -> bytes:
    """Recover the encapsulated key; a mismatched identity yields a key that
    fails downstream AEAD authentication rather than an error."""
    if header.scheme_id != dk.scheme_id:
        raise SchemeError(f"header scheme {header.scheme_id!r} does not match key scheme {dk.scheme_id!r}")
    return _scheme(dk.scheme_id).decap(dk, header)


def probe_key(mpp: MasterPublicParams, identity: IdentityPath, dk: DayKey) -> bool:
    """Check that `dk` is a day key for `identity` under `mpp`, without
    randomness: the bw2 scheme checks its decapsulation identity on the key's
    G2-checked points, the transparent scheme re-derives the key. `identity`
    is the verifier's own (root, day), never `dk.identity`. A key of another
    scheme, or one with missing or malformed material, is the False return,
    never an error.
    """
    if identity.level != 2:
        raise LevelError("key probing targets level-2 identities")
    if dk.scheme_id != mpp.scheme_id:
        return False
    try:
        return _scheme(mpp.scheme_id).probe_key(mpp, identity, dk)
    except (LookupError, ValueError):
        return False


# serialization: one tagged record codec, scheme tag first

_PARAMS_META = {"level_bound": LEVEL_BOUND}


def _layout(cls) -> tuple:
    """(record index, field name) of each part after the scheme tag; public
    params carry the constant level-bound part first, at index 1."""
    names = [f.name for f in dataclasses.fields(cls)[1:]]
    return tuple(enumerate(names, 2 if cls is MasterPublicParams else 1))


_LAYOUTS = {cls: _layout(cls) for cls in (MasterPublicParams, MasterSecret, HolderKey, DayKey, EncapHeader)}


def to_record(obj) -> list:
    """`[scheme_id, *parts]`: the other fields in dataclass order, the
    identity as its record and every byte map as a map."""
    rec = [obj.scheme_id, _PARAMS_META] if type(obj) is MasterPublicParams else [obj.scheme_id]
    for _, name in _LAYOUTS[type(obj)]:
        rec.append(obj.identity.to_record() if name == "identity" else dict(getattr(obj, name)))
    return rec


def from_record(cls, rec):
    """Inverse of `to_record` on a decoded record. Malformed input raises
    CanonicalDecodeError, an unknown scheme tag SchemeError."""
    layout = _LAYOUTS[cls]
    if type(rec) is not list or len(rec) != layout[-1][0] + 1 or type(rec[0]) is not str:
        raise CanonicalDecodeError(f"malformed {cls.__name__} record")
    if rec[0] not in _SCHEMES:
        raise SchemeError(f"unknown scheme: {rec[0]!r}")
    if cls is MasterPublicParams and rec[1] != _PARAMS_META:
        raise CanonicalDecodeError(f"unsupported level bound: {rec[1]!r}")
    args = [rec[0]]
    for i, name in layout:
        part = rec[i]
        if type(part) is not dict:
            raise CanonicalDecodeError(f"malformed {cls.__name__} record")
        if name == "identity":
            args.append(IdentityPath.from_record(part))
        else:
            args.append({k: b64u_decode(v) for k, v in part.items()})
    return cls(*args)
