"""The two published per-day structures: check table and revocation table.

Both are hash tables with separate chaining. The check table holds one
32-byte digest per live credential and is fetched segment-wise; the
revocation table holds encrypted revocation documents in overflow lists and
is only ever fetched whole (a bucket-level fetch would tell the publisher
which slot a verifier cares about). Snapshots are immutable values; updates
return new snapshots. Files carry a version tag and a content digest.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

from . import ahibe
from .encoding import b64u_decode, canonical_decode, canonical_encode, CanonicalDecodeError, write_atomic
from .primitives import AuthFailure, check_bucket, index_from_ciphertext, open_sealed, vc_id_from_hex, vc_id_hex

SNAPSHOT_VERSION = "1"

REVOCATION_STATUSES = ("revoked", "suspended", "conditioned")


class SegmentRangeError(ValueError):
    """Digest's bucket lies outside the supplied segment."""


class CorruptSnapshotError(ValueError):
    """Snapshot bytes fail to parse or fail their content digest."""


class IntegrityError(ValueError):
    """An entry opened correctly but its plaintext is not a well-formed
    document for the queried credential: publisher misbehavior, distinct
    from the silent skip of non-matching entries."""


@dataclass(frozen=True)
class TableParams:
    """Published sizing: revocation table size d, check-table bucket count c,
    segment count sigma (divides c), and the minimum expected digests per
    segment that keeps a segment fetch anonymous."""

    d: int
    c: int
    sigma: int
    min_anonymity: int = 256

    def __post_init__(self):
        if self.d < 1 or self.c < 1 or self.sigma < 1 or self.min_anonymity < 1:
            raise ValueError("table parameters must be positive")
        if self.c < self.sigma or self.c % self.sigma != 0:
            raise ValueError("sigma must divide the check-table bucket count")

    @property
    def segment_width(self) -> int:
        return self.c // self.sigma

    def to_record(self) -> dict:
        return {"d": self.d, "c": self.c, "sigma": self.sigma, "min_anonymity": self.min_anonymity}

    @classmethod
    def from_record(cls, rec: Mapping) -> "TableParams":
        return cls(d=rec["d"], c=rec["c"], sigma=rec["sigma"], min_anonymity=rec["min_anonymity"])


def segment_for_digest(digest: bytes, params: TableParams) -> int:
    return check_bucket(digest, params.c) * params.sigma // params.c


def slot_for_digest(mpp: ahibe.MasterPublicParams, root: str, day: int, digest: bytes, params: TableParams) -> int:
    """Revocation-table slot of a credential on `day`: the index of its
    deterministic encapsulation bound to the day's check digest. Issuer,
    holder and verifier all derive it here, so they agree bit for bit."""
    header, _ = ahibe.det_encap(mpp, ahibe.IdentityPath(root, day), digest)
    return index_from_ciphertext(header.canonical_bytes(), params.d)


@dataclass(frozen=True)
class CheckSegment:
    day: int
    segment_index: int
    start_bucket: int
    buckets: tuple

    def contains(self, digest: bytes, params: TableParams) -> bool:
        if segment_for_digest(digest, params) != self.segment_index:
            raise SegmentRangeError("digest belongs to a different segment")
        bucket = self.buckets[check_bucket(digest, params.c) - self.start_bucket]
        pos = bisect_left(bucket, digest)
        return pos < len(bucket) and bucket[pos] == digest

    def to_record(self) -> dict:
        return _with_digest(
            {
                "version": SNAPSHOT_VERSION,
                "kind": "check-segment",
                "day": self.day,
                "segment_index": self.segment_index,
                "start_bucket": self.start_bucket,
                "buckets": [list(bucket) for bucket in self.buckets],
            }
        )

    @classmethod
    def from_record(cls, rec: Mapping) -> "CheckSegment":
        _check_digest_guard(rec, "check-segment")
        return cls(
            day=rec["day"],
            segment_index=rec["segment_index"],
            start_bucket=rec["start_bucket"],
            buckets=tuple(tuple(b64u_decode(d) for d in bucket) for bucket in rec["buckets"]),
        )


@dataclass(frozen=True)
class CheckTableSnapshot:
    day: int
    params: TableParams
    buckets: tuple  # c tuples of sorted digests

    def contains(self, digest: bytes) -> bool:
        return self.segment(segment_for_digest(digest, self.params)).contains(digest, self.params)

    def segment(self, segment_index: int) -> CheckSegment:
        if not 0 <= segment_index < self.params.sigma:
            raise SegmentRangeError(f"segment index {segment_index} out of range")
        width = self.params.segment_width
        start = segment_index * width
        return CheckSegment(
            day=self.day,
            segment_index=segment_index,
            start_bucket=start,
            buckets=self.buckets[start : start + width],
        )

    def entry_count(self) -> int:
        return sum(len(b) for b in self.buckets)

    def to_record(self) -> dict:
        return _with_digest(
            {
                "version": SNAPSHOT_VERSION,
                "kind": "check",
                "day": self.day,
                "params": self.params.to_record(),
                "buckets": [list(bucket) for bucket in self.buckets],
            }
        )

    @classmethod
    def from_record(cls, rec: Mapping) -> "CheckTableSnapshot":
        _check_digest_guard(rec, "check")
        return cls(
            day=rec["day"],
            params=TableParams.from_record(rec["params"]),
            buckets=tuple(tuple(b64u_decode(d) for d in bucket) for bucket in rec["buckets"]),
        )


def build_check_table(entries: Iterable[bytes], params: TableParams, day: int) -> CheckTableSnapshot:
    """Place every digest in its bucket, deduplicated, buckets sorted."""
    buckets = [[] for _ in range(params.c)]
    for digest in set(entries):
        buckets[check_bucket(digest, params.c)].append(digest)
    return CheckTableSnapshot(day=day, params=params, buckets=tuple(tuple(sorted(b)) for b in buckets))


@dataclass(frozen=True)
class RevocationDocument:
    """Content-flexible status document for one credential."""

    vc_id: bytes
    status: str
    reason: str
    effective_from: int
    sequence: int
    constraints: Optional[Mapping] = None

    def __post_init__(self):
        if self.status not in REVOCATION_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.sequence < 0 or self.effective_from < 0:
            raise ValueError("sequence and effective_from must be non-negative")

    def to_record(self) -> dict:
        rec = {
            "vc_id": vc_id_hex(self.vc_id),
            "status": self.status,
            "reason": self.reason,
            "effective_from": self.effective_from,
            "sequence": self.sequence,
        }
        if self.constraints is not None:
            rec["constraints"] = dict(self.constraints)
        return rec

    def to_bytes(self) -> bytes:
        return canonical_encode(self.to_record())

    @classmethod
    def from_record(cls, rec: Mapping) -> "RevocationDocument":
        return cls(
            vc_id=vc_id_from_hex(rec["vc_id"]),
            status=rec["status"],
            reason=rec["reason"],
            effective_from=rec["effective_from"],
            sequence=rec["sequence"],
            constraints=rec.get("constraints"),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RevocationDocument":
        return cls.from_record(canonical_decode(data))


@dataclass(frozen=True)
class RevocationEntry:
    """One overflow-list element: randomized encapsulation header plus the
    sealed document. The AEAD associated data is not stored; openers
    recompute it from (root, day, vc id)."""

    header: ahibe.EncapHeader
    sealed_body: bytes

    def to_record(self) -> dict:
        return {"header": ahibe.to_record(self.header), "body": self.sealed_body}

    @classmethod
    def from_record(cls, rec: Mapping) -> "RevocationEntry":
        return cls(header=ahibe.from_record(ahibe.EncapHeader, rec["header"]), sealed_body=b64u_decode(rec["body"]))


def revocation_associated_data(root: str, day: int, vc_id: bytes) -> bytes:
    return canonical_encode({"root": root, "day": day, "vc_id": vc_id_hex(vc_id)})


@dataclass(frozen=True)
class RevocationTableSnapshot:
    day: int
    params: TableParams
    buckets: tuple  # d tuples of RevocationEntry

    @classmethod
    def empty(cls, params: TableParams, day: int) -> "RevocationTableSnapshot":
        return cls(day=day, params=params, buckets=((),) * params.d)

    def insert(self, index: int, entry: RevocationEntry) -> "RevocationTableSnapshot":
        """Append to the overflow list at `index`, returning a new snapshot."""
        if not 0 <= index < self.params.d:
            raise IndexError(f"bucket index {index} out of range [0, {self.params.d})")
        buckets = self.buckets[:index] + (self.buckets[index] + (entry,),) + self.buckets[index + 1 :]
        return replace(self, buckets=buckets)

    def scan(self, index: int, dk: ahibe.DayKey, root: str, day: int, vc_id: bytes) -> list:
        """Try every entry in one overflow list against a day key.

        Entries sealed for other identities fail AEAD authentication and are
        skipped; opened entries must contain a well-formed document for the
        queried credential or the publisher misbehaved.
        """
        if not 0 <= index < self.params.d:
            raise IndexError(f"bucket index {index} out of range [0, {self.params.d})")
        associated = revocation_associated_data(root, day, vc_id)
        found = []
        for entry in self.buckets[index]:
            key = ahibe.decap(dk, entry.header)
            try:
                plaintext = open_sealed(entry.sealed_body, key, associated)
            except AuthFailure:
                continue
            try:
                doc = RevocationDocument.from_bytes(plaintext)
            except (ValueError, KeyError, TypeError) as exc:
                raise IntegrityError(f"undecodable revocation document in bucket {index}") from exc
            if doc.vc_id != vc_id:
                raise IntegrityError("revocation document names a different credential")
            found.append(doc)
        found.sort(key=lambda doc: doc.sequence)
        return found

    def entry_count(self) -> int:
        return sum(len(b) for b in self.buckets)

    def load_stats(self) -> tuple:
        """(mean, max) overflow-list length."""
        lengths = [len(b) for b in self.buckets]
        return (sum(lengths) / len(lengths), max(lengths))

    def to_record(self) -> dict:
        return _with_digest(
            {
                "version": SNAPSHOT_VERSION,
                "kind": "revocation",
                "day": self.day,
                "params": self.params.to_record(),
                "buckets": [[entry.to_record() for entry in bucket] for bucket in self.buckets],
            }
        )

    @classmethod
    def from_record(cls, rec: Mapping) -> "RevocationTableSnapshot":
        _check_digest_guard(rec, "revocation")
        return cls(
            day=rec["day"],
            params=TableParams.from_record(rec["params"]),
            buckets=tuple(tuple(RevocationEntry.from_record(e) for e in bucket) for bucket in rec["buckets"]),
        )


# file round trip with content-digest guard


def _record_digest(rec: Mapping) -> str:
    core = {k: v for k, v in rec.items() if k != "sha256"}
    return hashlib.sha256(canonical_encode(core)).hexdigest()


def _with_digest(rec: dict) -> dict:
    rec["sha256"] = _record_digest(rec)
    return rec


def _check_digest_guard(rec: Mapping, kind: str) -> None:
    try:
        if rec.get("version") != SNAPSHOT_VERSION or rec.get("kind") != kind:
            raise CorruptSnapshotError(f"not a version-{SNAPSHOT_VERSION} {kind} snapshot")
        if rec["sha256"] != _record_digest(rec):
            raise CorruptSnapshotError("content digest mismatch")
    except (KeyError, TypeError) as exc:
        raise CorruptSnapshotError("malformed snapshot record") from exc


def snapshot_to_bytes(snapshot) -> bytes:
    return canonical_encode(snapshot.to_record())


def snapshot_from_bytes(data: bytes):
    try:
        rec = canonical_decode(data)
        kind = rec.get("kind") if isinstance(rec, dict) else None
    except CanonicalDecodeError as exc:
        raise CorruptSnapshotError(str(exc)) from exc
    if kind == "check":
        return CheckTableSnapshot.from_record(rec)
    if kind == "revocation":
        return RevocationTableSnapshot.from_record(rec)
    if kind == "check-segment":
        return CheckSegment.from_record(rec)
    raise CorruptSnapshotError(f"unknown snapshot kind {kind!r}")


def write_snapshot(snapshot, path) -> None:
    write_atomic(path, snapshot_to_bytes(snapshot))


def read_snapshot(path):
    with open(path, "rb") as fh:
        return snapshot_from_bytes(fh.read())


def check_snapshot_filename(day: int) -> str:
    return f"check-{day}.snap"


def revocation_snapshot_filename(day: int) -> str:
    return f"revocation-{day}.snap"
