"""Credential, presentation, and trust-store data types shared by the roles."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Tuple

from .. import ahibe
from ..encoding import b64u_decode, canonical_decode, canonical_encode, decode_untrusted, record_field, write_atomic
from ..primitives import sign, vc_id_from_hex, vc_id_hex, verify

NONCE_LEN = 16


@dataclass(frozen=True)
class VerifiableCredential:
    """Issuer-signed credential binding a VC id to an opaque holder root,
    validity window, claims, and the holder's proof-of-possession key."""

    vc_id: bytes
    root: str
    issued_day: int
    expiry_day: int
    claims: Mapping
    pop_public_key: bytes
    issuer_id: str
    issuer_signature: bytes

    def __post_init__(self):
        if self.issued_day > self.expiry_day:
            raise ValueError("credential expires before it is issued")

    def signed_payload(self) -> bytes:
        """The record without its signature."""
        rec = self.to_record()
        del rec["issuer_signature"]
        return canonical_encode(rec)

    def verify_signature(self, issuer_public_key: bytes) -> bool:
        return verify(issuer_public_key, self.signed_payload(), self.issuer_signature)

    def to_record(self) -> dict:
        return {
            "vc_id": vc_id_hex(self.vc_id),
            "root": self.root,
            "issued_day": self.issued_day,
            "expiry_day": self.expiry_day,
            "claims": dict(self.claims),
            "pop_public_key": self.pop_public_key,
            "issuer_id": self.issuer_id,
            "issuer_signature": self.issuer_signature,
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "VerifiableCredential":
        claims = record_field(rec["claims"], "claims", dict)
        canonical_encode(claims)  # floats and nulls have no canonical form to sign
        return cls(
            vc_id=vc_id_from_hex(rec["vc_id"]),
            root=record_field(rec["root"], "root", str),
            issued_day=record_field(rec["issued_day"], "issued_day"),
            expiry_day=record_field(rec["expiry_day"], "expiry_day"),
            claims=claims,
            pop_public_key=b64u_decode(rec["pop_public_key"]),
            issuer_id=record_field(rec["issuer_id"], "issuer_id", str),
            issuer_signature=b64u_decode(rec["issuer_signature"]),
        )


def sign_credential(
    vc_id: bytes,
    root: str,
    issued_day: int,
    expiry_day: int,
    claims: Mapping,
    pop_public_key: bytes,
    issuer_id: str,
    signing_key: bytes,
) -> VerifiableCredential:
    unsigned = VerifiableCredential(
        vc_id=vc_id,
        root=root,
        issued_day=issued_day,
        expiry_day=expiry_day,
        claims=claims,
        pop_public_key=pop_public_key,
        issuer_id=issuer_id,
        issuer_signature=b"",
    )
    return replace(unsigned, issuer_signature=sign(signing_key, unsigned.signed_payload()))


@dataclass(frozen=True)
class TemporalAuthorization:
    """One day of revocation visibility: the day token proves the right to
    locate that day's check digest, the day key opens that day's entries."""

    day: int
    day_token: bytes
    day_key: ahibe.DayKey

    def to_record(self) -> dict:
        return {"day": self.day, "day_token": self.day_token, "day_key": ahibe.to_record(self.day_key)}

    @classmethod
    def from_record(cls, rec: Mapping) -> "TemporalAuthorization":
        return cls(
            day=record_field(rec["day"], "day"),
            day_token=b64u_decode(rec["day_token"]),
            day_key=ahibe.from_record(ahibe.DayKey, rec["day_key"]),
        )


def pop_payload(vc_id: bytes, nonce: bytes) -> bytes:
    return canonical_encode({"vc_id": vc_id_hex(vc_id), "nonce": nonce})


@dataclass(frozen=True)
class Presentation:
    credential: VerifiableCredential
    nonce: bytes
    pop_signature: bytes
    authorizations: Tuple[TemporalAuthorization, ...]

    def __post_init__(self):
        if len(self.nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        if not self.authorizations:
            raise ValueError("a presentation carries at least one authorization")

    def to_record(self) -> dict:
        return {
            "credential": self.credential.to_record(),
            "nonce": self.nonce,
            "pop_signature": self.pop_signature,
            "authorizations": [auth.to_record() for auth in self.authorizations],
        }

    def to_bytes(self) -> bytes:
        return canonical_encode(self.to_record())

    @classmethod
    def from_record(cls, rec: Mapping) -> "Presentation":
        return cls(
            credential=VerifiableCredential.from_record(rec["credential"]),
            nonce=b64u_decode(rec["nonce"]),
            pop_signature=b64u_decode(rec["pop_signature"]),
            authorizations=tuple(TemporalAuthorization.from_record(a) for a in rec["authorizations"]),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Presentation":
        """Decode untrusted bytes; every malformed shape is a CanonicalDecodeError."""
        return decode_untrusted(data, cls.from_record, "presentation")


class TrustStore:
    """Flat issuer_id -> signature public key map, standing in for a PKI."""

    def __init__(self, issuers: Mapping[str, bytes] | None = None):
        self.issuers = dict(issuers or {})

    def get(self, issuer_id: str) -> bytes | None:
        return self.issuers.get(issuer_id)

    def to_bytes(self) -> bytes:
        return canonical_encode({"version": "1", "issuers": self.issuers})

    @classmethod
    def from_bytes(cls, data: bytes) -> "TrustStore":
        rec = canonical_decode(data)
        return cls({issuer: b64u_decode(pk) for issuer, pk in rec["issuers"].items()})

    def save(self, path) -> None:
        write_atomic(path, self.to_bytes())

    @classmethod
    def load(cls, path) -> "TrustStore":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
