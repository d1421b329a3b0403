"""Holder wallet: credential storage, presentations, self-audit.

Presenting needs nothing from the issuer: the wallet derives day tokens from
its seed and delegates day keys from its holder key entirely offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from .. import ahibe
from ..encoding import b64u_decode, canonical_decode, canonical_encode, write_atomic
from ..primitives import (
    RandomBytes,
    compute_check_digest,
    default_rng,
    derive_day_token,
    sign,
    signing_public_key,
    vc_id_from_hex,
    vc_id_hex,
)
from ..tables import RevocationTableSnapshot, slot_for_digest
from .credentials import Presentation, TemporalAuthorization, VerifiableCredential, pop_payload
from .verifier import SnapshotUnavailable


class WalletRejection(ValueError):
    """The offered credential bundle fails a wallet admission check."""


@dataclass
class WalletRecord:
    credential: VerifiableCredential
    seed: bytes
    pop_signing_key: bytes
    holder_key: ahibe.HolderKey

    def to_record(self) -> dict:
        return {
            "credential": self.credential.to_record(),
            "seed": self.seed,
            "pop_signing_key": self.pop_signing_key,
            "holder_key": canonical_encode(ahibe.to_record(self.holder_key)),
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "WalletRecord":
        return cls(
            credential=VerifiableCredential.from_record(rec["credential"]),
            seed=b64u_decode(rec["seed"]),
            pop_signing_key=b64u_decode(rec["pop_signing_key"]),
            holder_key=ahibe.from_record(ahibe.HolderKey, canonical_decode(b64u_decode(rec["holder_key"]))),
        )


class Wallet:
    def __init__(self, records: Dict[bytes, WalletRecord] | None = None):
        self.records = dict(records or {})

    def get(self, vc_id: bytes) -> WalletRecord:
        record = self.records.get(vc_id)
        if record is None:
            raise WalletRejection(f"credential {vc_id_hex(vc_id)} is not in this wallet")
        return record

    def to_bytes(self) -> bytes:
        return canonical_encode(
            {"version": "1", "records": {vc_id_hex(k): rec.to_record() for k, rec in self.records.items()}}
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Wallet":
        rec = canonical_decode(data)
        return cls({vc_id_from_hex(h): WalletRecord.from_record(r) for h, r in rec["records"].items()})

    def save(self, path) -> None:
        write_atomic(path, self.to_bytes(), private=True)

    @classmethod
    def load(cls, path) -> "Wallet":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def holder_store(
    wallet: Wallet,
    credential: VerifiableCredential,
    seed: bytes,
    holder_key: ahibe.HolderKey,
    pop_signing_key: bytes,
    issuer_public_key: bytes,
) -> WalletRecord:
    """Admit a credential bundle after checking it is internally consistent."""
    if not credential.verify_signature(issuer_public_key):
        raise WalletRejection("issuer signature does not verify")
    if holder_key.identity.root != credential.root:
        raise WalletRejection("holder key root does not match the credential")
    if signing_public_key(pop_signing_key) != credential.pop_public_key:
        raise WalletRejection("proof-of-possession key does not match the credential")
    record = WalletRecord(credential=credential, seed=seed, pop_signing_key=pop_signing_key, holder_key=holder_key)
    wallet.records[credential.vc_id] = record
    return record


def holder_present(
    wallet: Wallet,
    vc_id: bytes,
    days: List[int],
    nonce: bytes,
    rng: RandomBytes = default_rng,
) -> Presentation:
    """Build a presentation carrying one temporal authorization per requested
    day; days may lie in the past or the future within the validity window."""
    record = wallet.get(vc_id)
    credential = record.credential
    if not days:
        raise ValueError("at least one day must be authorized")
    authorizations = []
    for day in days:
        if not credential.issued_day <= day <= credential.expiry_day:
            raise ValueError(
                f"day {day} outside credential validity [{credential.issued_day}, {credential.expiry_day}]"
            )
        token = derive_day_token(record.seed, day - credential.issued_day)
        day_key = ahibe.delegate(record.holder_key, day, rng)
        authorizations.append(TemporalAuthorization(day=day, day_token=token, day_key=day_key))
    signature = sign(record.pop_signing_key, pop_payload(vc_id, nonce))
    return Presentation(
        credential=credential, nonce=nonce, pop_signature=signature, authorizations=tuple(authorizations)
    )


def holder_audit(
    wallet: Wallet,
    vc_id: bytes,
    day: int,
    snapshot: RevocationTableSnapshot,
    document,
    rng: RandomBytes = default_rng,
) -> list:
    """Recompute this credential's slot and scan it with the wallet's own
    key: lets a holder see exactly what verifiers would see, so publisher
    misbehavior is detectable. `document` is the published params document;
    a snapshot without its table parameters is SnapshotUnavailable, as it is
    to a verifier."""
    if snapshot.day != day:
        raise ValueError(f"snapshot is for day {snapshot.day}, not {day}")
    if snapshot.params != document.table_params:
        raise SnapshotUnavailable(f"revocation table for day {day} does not have the published parameters")
    record = wallet.get(vc_id)
    credential = record.credential
    token = derive_day_token(record.seed, day - credential.issued_day)
    digest = compute_check_digest(token, vc_id)
    index = slot_for_digest(document.mpp, credential.root, day, digest, snapshot.params)
    day_key = ahibe.delegate(record.holder_key, day, rng)
    return snapshot.scan(index, day_key, credential.root, day, vc_id)
