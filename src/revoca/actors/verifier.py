"""Verifier role: the revocation information check.

Per authorization the pipeline is fixed: verify signatures, check the day
key, authenticate the day token against the published check-table segment,
recompute the table index, download the whole revocation table, scan one
overflow list. It halts at the first failure with a classed error; a
StatusResult comes back only when every authorization checks out.

The key check is deterministic and needs no randomness. It is made for the
credential's root and the authorization's day, not for the identity the
day key names. Under the bw2 scheme it is the decapsulation identity on the
key's G2-checked points, whose prepared Miller-loop lines the scan's
`decap` calls then reuse (see `ahibe.pairing_scheme`).

The verifier's network behavior is deliberately uniform: one segment fetch
plus one whole-table fetch per authorization, never a per-credential query.
A revocation table whose parameters differ from the params document's is
unavailable, not scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .. import ahibe
from ..primitives import (
    RandomBytes,
    SignatureDecodeError,
    compute_check_digest,
    default_rng,
    verify,
)
from ..tables import SegmentRangeError, segment_for_digest, slot_for_digest
from .credentials import Presentation, TrustStore, pop_payload


class VerificationError(Exception):
    """Base of the classed rejection taxonomy; `code` is machine-readable."""

    code = "verification-error"


class BadSignature(VerificationError):
    code = "bad-signature"


class BadProofOfPossession(VerificationError):
    code = "bad-proof-of-possession"


class KeyProbeFailed(VerificationError):
    code = "key-probe-failed"


class CheckDigestNotFound(VerificationError):
    code = "check-digest-not-found"


class SnapshotUnavailable(VerificationError):
    code = "snapshot-unavailable"


class DeferredFutureDay(VerificationError):
    code = "deferred-future-day"


@dataclass(frozen=True)
class StatusResult:
    """Per authorized day: an empty tuple (no revocation found) or the
    sequence-ordered revocation documents; plus bytes fetched."""

    statuses: Dict[int, Tuple]
    segment_bytes: int
    table_bytes: int


def verifier_check(
    presentation: Presentation,
    trust_store: TrustStore,
    table_source,
    current_day: int,
    rng: RandomBytes = default_rng,  # unused; perfbench/workloads.py passes it
) -> StatusResult:
    """Run the full check against published tables; raises a classed
    VerificationError at the first failing step."""
    credential = presentation.credential
    issuer_key = trust_store.get(credential.issuer_id)
    if issuer_key is None:
        raise BadSignature(f"issuer {credential.issuer_id!r} is not in the trust store")
    try:
        if not credential.verify_signature(issuer_key):
            raise BadSignature("issuer signature does not verify")
    except SignatureDecodeError as exc:
        raise BadSignature(str(exc)) from exc
    try:
        if not _pop_valid(presentation):
            raise BadProofOfPossession("proof-of-possession signature does not verify")
    except SignatureDecodeError as exc:
        raise BadProofOfPossession(str(exc)) from exc

    document = table_source.params()
    mpp = document.mpp
    params = document.table_params

    statuses: Dict[int, Tuple] = {}
    segment_bytes = 0
    table_bytes = 0
    for auth in presentation.authorizations:
        day = auth.day
        if not credential.issued_day <= day <= credential.expiry_day:
            raise CheckDigestNotFound(f"authorization day {day} outside credential validity")
        identity = ahibe.IdentityPath(credential.root, day)
        if not ahibe.probe_key(mpp, identity, auth.day_key):
            raise KeyProbeFailed(f"day key does not open ciphertexts for day {day}")
        if day > current_day:
            raise DeferredFutureDay(f"day {day} has not arrived; re-check once it has")

        digest = compute_check_digest(auth.day_token, credential.vc_id)
        segment_index = segment_for_digest(digest, params)
        try:
            segment, fetched = table_source.fetch_segment(day, segment_index)
        except LookupError as exc:
            raise SnapshotUnavailable(f"no check snapshot for day {day}") from exc
        segment_bytes += fetched
        try:
            present = segment.contains(digest, params)
        except SegmentRangeError as exc:
            raise SnapshotUnavailable(str(exc)) from exc
        if not present:
            raise CheckDigestNotFound(f"day token does not authenticate for day {day}")

        index = slot_for_digest(mpp, credential.root, day, digest, params)
        try:
            table, fetched = table_source.fetch_revocation_table(day)
        except LookupError as exc:
            raise SnapshotUnavailable(f"no revocation snapshot for day {day}") from exc
        table_bytes += fetched
        if table.params != params:
            raise SnapshotUnavailable(f"revocation table for day {day} does not have the published parameters")
        documents = table.scan(index, auth.day_key, credential.root, day, credential.vc_id)
        statuses[day] = tuple(documents)

    return StatusResult(statuses=statuses, segment_bytes=segment_bytes, table_bytes=table_bytes)


def _pop_valid(presentation: Presentation) -> bool:
    return verify(
        presentation.credential.pop_public_key,
        pop_payload(presentation.credential.vc_id, presentation.nonce),
        presentation.pop_signature,
    )
