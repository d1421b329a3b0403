"""Issuer role: credential registry, daily table builds, revocation publishing.

The registry is the single source of truth; every published snapshot is
reproducible from it. The check table depends only on the active credential
set and the day: it is derived from the registry after an issue or a
rollover, and the state keeps the digest of the one last derived, so a
publish rewrites the check file only when the file does not carry that
digest. The revocation table grows incrementally within a day (same-day
revocations are visible as soon as the day is re-published) and is rebuilt
from scratch at every rollover, re-encrypting each active document under the
new day's identities at freshly derived indices.

Only `issuer_publish` and `save_issuer_state` write. A caller commits a change
by deriving a missing check table (`issuer_check_table`), saving the state
and then publishing its day, one day at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .. import ahibe
from ..encoding import b64u_decode, canonical_decode, canonical_encode, write_atomic
from ..primitives import (
    RandomBytes,
    compute_check_digest,
    default_rng,
    derive_day_token,
    generate_signing_key,
    new_seed,
    new_vc_id,
    seal,
    signing_public_key,
    vc_id_from_hex,
    vc_id_hex,
)
from ..tables import (
    CheckTableSnapshot,
    RevocationDocument,
    RevocationEntry,
    RevocationTableSnapshot,
    TableParams,
    build_check_table,
    revocation_associated_data,
    slot_for_digest,
    snapshot_digest,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from .credentials import VerifiableCredential, sign_credential


class RegistryError(ValueError):
    """Unknown credential, day mismatch, or document constraint violation."""


@dataclass
class RegisteredDocument:
    published_day: int
    document: RevocationDocument

    def to_record(self) -> dict:
        return {"published_day": self.published_day, "document": self.document.to_record()}

    @classmethod
    def from_record(cls, rec: Mapping) -> "RegisteredDocument":
        return cls(published_day=rec["published_day"], document=RevocationDocument.from_record(rec["document"]))


@dataclass
class CredentialRecord:
    root: str
    seed: bytes
    issued_day: int
    expiry_day: int
    documents: List[RegisteredDocument] = field(default_factory=list)

    def active_on(self, day: int) -> bool:
        return self.issued_day <= day <= self.expiry_day

    def to_record(self) -> dict:
        return {
            "root": self.root,
            "seed": self.seed,
            "issued_day": self.issued_day,
            "expiry_day": self.expiry_day,
            "documents": [d.to_record() for d in self.documents],
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "CredentialRecord":
        return cls(
            root=rec["root"],
            seed=b64u_decode(rec["seed"]),
            issued_day=rec["issued_day"],
            expiry_day=rec["expiry_day"],
            documents=[RegisteredDocument.from_record(d) for d in rec["documents"]],
        )


@dataclass
class IssuerState:
    issuer_id: str
    signing_key: bytes
    mpp: ahibe.MasterPublicParams
    params: TableParams
    current_day: int
    registry: Dict[bytes, CredentialRecord]
    revocation: RevocationTableSnapshot
    # the content digest of the check table built for the current registry
    # and day; None until one is built, and again after an issue or a rollover
    check_digest: Optional[bytes] = None
    rng: RandomBytes = default_rng

    @property
    def public_key(self) -> bytes:
        return signing_public_key(self.signing_key)


def issuer_init(
    params: TableParams,
    day: int,
    mpp: ahibe.MasterPublicParams,
    issuer_id: str,
    rng: RandomBytes = default_rng,
) -> IssuerState:
    """Fresh issuer with empty registry and empty day-`day` tables."""
    if day < 0:
        raise ValueError("day index must be non-negative")
    return IssuerState(
        issuer_id=issuer_id,
        signing_key=generate_signing_key(rng),
        mpp=mpp,
        params=params,
        current_day=day,
        registry={},
        revocation=RevocationTableSnapshot(day, params),
        rng=rng,
    )


def issuer_issue(
    state: IssuerState,
    root: str,
    claims: Mapping,
    expiry_day: int,
    pop_public_key: bytes,
) -> Tuple[VerifiableCredential, bytes]:
    """Mint and sign a credential; the returned (credential, seed) pair is the
    only issuer-to-holder transfer the protocol ever needs afterwards."""
    if expiry_day < state.current_day:
        raise ValueError("expiry day lies in the past")
    ahibe.IdentityPath(root)  # validates the root shape
    vc_id = new_vc_id(state.rng)
    while vc_id in state.registry:
        vc_id = new_vc_id(state.rng)
    seed = new_seed(state.rng)
    credential = sign_credential(
        vc_id=vc_id,
        root=root,
        issued_day=state.current_day,
        expiry_day=expiry_day,
        claims=claims,
        pop_public_key=pop_public_key,
        issuer_id=state.issuer_id,
        signing_key=state.signing_key,
    )
    state.registry[vc_id] = CredentialRecord(
        root=root, seed=seed, issued_day=state.current_day, expiry_day=expiry_day
    )
    state.check_digest = None
    return credential, seed


def _build_entry(state: IssuerState, record: CredentialRecord, vc_id: bytes, document: RevocationDocument, day: int):
    """Index derivation plus payload encryption for one document on one day."""
    token = derive_day_token(record.seed, day - record.issued_day)
    digest = compute_check_digest(token, vc_id)
    index = slot_for_digest(state.mpp, record.root, day, digest, state.params)
    header, key = ahibe.encap(state.mpp, ahibe.IdentityPath(record.root, day), state.rng)
    sealed = seal(key, document.to_bytes(), revocation_associated_data(record.root, day, vc_id), state.rng)
    return index, RevocationEntry(header=header, sealed_body=sealed)


def issuer_revoke(state: IssuerState, vc_id: bytes, document: RevocationDocument, day: int) -> IssuerState:
    """Publish a revocation document for the current day and record it for
    re-insertion on every later day until the credential expires."""
    record = state.registry.get(vc_id)
    if record is None:
        raise RegistryError(f"unknown credential {vc_id_hex(vc_id)}")
    if day != state.current_day:
        raise RegistryError(f"revocations are published for the current day ({state.current_day}), got {day}")
    if document.vc_id != vc_id:
        raise RegistryError("document names a different credential")
    if day > record.expiry_day:
        raise RegistryError("credential already expired")
    if record.documents and document.sequence <= record.documents[-1].document.sequence:
        raise RegistryError("document sequence must strictly increase")
    index, entry = _build_entry(state, record, vc_id, document, day)
    state.revocation = state.revocation.insert(index, entry)
    record.documents.append(RegisteredDocument(published_day=day, document=document))
    return state


def _rebuild_revocation(state: IssuerState, day: int) -> RevocationTableSnapshot:
    entries = [
        _build_entry(state, record, vc_id, registered.document, day)
        for vc_id, record in state.registry.items()
        if record.active_on(day)
        for registered in record.documents
        if registered.published_day <= day
    ]
    return RevocationTableSnapshot.from_entries(state.params, day, entries)


def issuer_rollover(state: IssuerState, new_day: int) -> IssuerState:
    """Advance to `new_day` and rebuild its revocation table once, re-encrypting
    every active revocation. The caller saves the state, then publishes."""
    if new_day <= state.current_day:
        raise ValueError(f"rollover day must exceed the current day {state.current_day}")
    state.current_day = new_day
    state.check_digest = None
    state.revocation = _rebuild_revocation(state, new_day)
    return state


def issuer_export_day(state: IssuerState) -> Tuple[CheckTableSnapshot, RevocationTableSnapshot]:
    """Snapshots for the current day, reproducible from the registry."""
    digests = []
    day = state.current_day
    for vc_id, record in state.registry.items():
        if record.active_on(day):
            token = derive_day_token(record.seed, day - record.issued_day)
            digests.append(compute_check_digest(token, vc_id))
    return build_check_table(digests, state.params, day), state.revocation


def issuer_check_table(state: IssuerState) -> Optional[CheckTableSnapshot]:
    """The current day's check table, its digest recorded in the state, when
    the state names none; else None, and no token is derived."""
    if state.check_digest is not None:
        return None
    check, _ = issuer_export_day(state)
    state.check_digest = snapshot_digest(snapshot_to_bytes(check))
    return check


def issuer_publish(state: IssuerState, store, check: Optional[CheckTableSnapshot] = None) -> None:
    """Write the current day's tables. A check table not given (as by
    `issuer_check_table`) is derived and written only when the store's check
    file does not carry the state's check digest: a same-day revoke writes
    the revocation table alone, and a missing or damaged file is rewritten."""
    if check is None and (state.check_digest is None or store.check_file_digest(state.current_day) != state.check_digest):
        check, _ = issuer_export_day(state)
    if check is not None:
        state.check_digest = store.publish_check(check)
    store.publish_revocation(state.revocation)


# state persistence: saved before its day is published, so a failure leaves
# the saved state ahead of the publication, never behind it

# version 2 stores the revocation table as snapshot-v2 bytes; there is no
# read path for version 1. A version-2 state without `check_digest` loads
# with none, and its next publish derives the check table
STATE_VERSION = "2"


def issuer_state_to_bytes(state: IssuerState) -> bytes:
    return canonical_encode(
        {
            "version": STATE_VERSION,
            "issuer_id": state.issuer_id,
            "signing_key": state.signing_key,
            "mpp": canonical_encode(ahibe.to_record(state.mpp)),
            "params": state.params.to_record(),
            "current_day": state.current_day,
            "registry": {vc_id_hex(vc_id): rec.to_record() for vc_id, rec in state.registry.items()},
            "revocation": snapshot_to_bytes(state.revocation),
            **({} if state.check_digest is None else {"check_digest": state.check_digest}),
        }
    )


def issuer_state_from_bytes(data: bytes, rng: RandomBytes = default_rng) -> IssuerState:
    rec = canonical_decode(data)
    if rec.get("version") != STATE_VERSION:
        raise ValueError(f"unsupported issuer state version {rec.get('version')!r}: this release reads version {STATE_VERSION}")
    return IssuerState(
        issuer_id=rec["issuer_id"],
        signing_key=b64u_decode(rec["signing_key"]),
        mpp=ahibe.from_record(ahibe.MasterPublicParams, canonical_decode(b64u_decode(rec["mpp"]))),
        params=TableParams.from_record(rec["params"]),
        current_day=rec["current_day"],
        registry={vc_id_from_hex(h): CredentialRecord.from_record(r) for h, r in rec["registry"].items()},
        revocation=snapshot_from_bytes(b64u_decode(rec["revocation"])),
        check_digest=b64u_decode(rec["check_digest"]) if "check_digest" in rec else None,
        rng=rng,
    )


def save_issuer_state(state: IssuerState, path) -> None:
    write_atomic(path, issuer_state_to_bytes(state), private=True, durable=True)


def load_issuer_state(path, rng: RandomBytes = default_rng) -> IssuerState:
    with open(path, "rb") as fh:
        return issuer_state_from_bytes(fh.read(), rng)
