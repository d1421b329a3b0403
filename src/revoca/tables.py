"""The two published per-day structures: check table and revocation table.

Both are hash tables with separate chaining. The check table holds one
32-byte digest per live credential and is fetched segment-wise; the
revocation table holds encrypted revocation documents in overflow lists and
is only ever fetched whole (a bucket-level fetch would tell the publisher
which slot a verifier cares about). Snapshots are immutable values; updates
return new snapshots. All three are kept in memory in their file form; a
revocation table's overflow lists are decoded only when read.

Snapshot files are fixed-width binary. An envelope (magic, version, the
SHA-256 of every byte after it, kind, day, the kind's fixed fields) precedes
the body. Check tables and segments hold a per-bucket count array and then
the 32-byte digests in bucket order; revocation tables hold their entries in
slot order. Decoding checks the digest over the bytes as read, validates
every field and raises only CorruptSnapshotError.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left, bisect_right
from dataclasses import astuple, dataclass, field, replace
from itertools import chain
from typing import Iterable, Mapping, Optional

from . import ahibe
from .encoding import canonical_decode, canonical_encode, record_field, write_atomic
from .pairing import PointDecodeError
from .primitives import AuthFailure, check_bucket, index_from_ciphertext, open_sealed, vc_id_from_hex, vc_id_hex

SNAPSHOT_VERSION = "2"

# table sizes d and c arrive in untrusted params documents and snapshot
# envelopes: this caps them at 16 times the largest benchmarked table, and
# with c the per-bucket lists that `build_check_table` allocates
MAX_BUCKETS = 1 << 20

_DIGEST_LEN = 32  # a check digest is an HMAC-SHA-256 output

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
        if self.d > MAX_BUCKETS or self.c > MAX_BUCKETS:
            raise ValueError(f"table sizes are capped at {MAX_BUCKETS} buckets")
        if self.c < self.sigma or self.c % self.sigma != 0:
            raise ValueError("sigma must divide the check-table bucket count")

    @property
    def segment_width(self) -> int:
        return self.c // self.sigma

    def to_record(self) -> dict:
        return {"d": self.d, "c": self.c, "sigma": self.sigma, "min_anonymity": self.min_anonymity}

    @classmethod
    def from_record(cls, rec: Mapping) -> "TableParams":
        return cls(**{name: record_field(rec[name], name, minimum=1) for name in ("d", "c", "sigma", "min_anonymity")})


def segment_for_digest(digest: bytes, params: TableParams) -> int:
    return check_bucket(digest, params.c) * params.sigma // params.c


def slot_for_digest(mpp: ahibe.MasterPublicParams, root: str, day: int, digest: bytes, params: TableParams) -> int:
    """Revocation-table slot of a credential on `day`: the index of its
    deterministic encapsulation bound to the day's check digest. Issuer,
    holder and verifier all derive it here, so they agree bit for bit."""
    header, _ = ahibe.det_encap(mpp, ahibe.IdentityPath(root, day), digest)
    return index_from_ciphertext(header.canonical_bytes(), params.d)


@dataclass(frozen=True)
class SnapshotRecord:
    """A snapshot file between its envelope and its typed value: the day, the
    kind's fixed unsigned 32-bit fields (parameters and counts) and the raw
    body."""

    day: int
    fields: tuple
    body: bytes


def _check_body(counts: tuple, digests: bytes) -> bytes:
    """The body of a check table or segment: the per-bucket count array, then
    the digests."""
    if len(digests) != _DIGEST_LEN * sum(counts):
        raise ValueError(f"check digests must be {_DIGEST_LEN} bytes")
    return struct.pack(f">{len(counts)}I", *counts) + digests


def _split_body(body: bytes, width: int, count: int) -> tuple:
    """(counts, digests) of a check body of `width` buckets and `count` digests."""
    counts = struct.unpack_from(f">{width}I", body)
    if sum(counts) != count or len(body) != 4 * width + _DIGEST_LEN * count:
        raise CorruptSnapshotError("bucket counts do not match the digests")
    return counts, body[4 * width :]


@dataclass(frozen=True)
class CheckSegment:
    day: int
    segment_index: int
    start_bucket: int
    counts: tuple  # digests per bucket
    digests: bytes  # the digests bucket by bucket, sorted within each bucket

    def contains(self, digest: bytes, params: TableParams) -> bool:
        if segment_for_digest(digest, params) != self.segment_index or len(self.counts) != params.segment_width:
            raise SegmentRangeError("digest's bucket lies outside this segment")
        bucket = check_bucket(digest, params.c) - self.start_bucket
        start = _DIGEST_LEN * sum(self.counts[:bucket])
        end = start + _DIGEST_LEN * self.counts[bucket]
        return any(self.digests[i : i + _DIGEST_LEN] == digest for i in range(start, end, _DIGEST_LEN))

    def to_record(self) -> SnapshotRecord:
        fields = (self.segment_index, self.start_bucket, len(self.counts), sum(self.counts))
        return SnapshotRecord(self.day, fields, _check_body(self.counts, self.digests))

    @classmethod
    def from_record(cls, rec: SnapshotRecord) -> "CheckSegment":
        segment_index, start_bucket, width, count = rec.fields
        if start_bucket != segment_index * width:
            raise CorruptSnapshotError("segment start does not match its index")
        return cls(rec.day, segment_index, start_bucket, *_split_body(rec.body, width, count))


@dataclass(frozen=True)
class CheckTableSnapshot:
    day: int
    params: TableParams
    counts: tuple  # digests in each of the c buckets
    digests: bytes  # the digests bucket by bucket, sorted within each bucket

    def segment(self, segment_index: int) -> CheckSegment:
        if not 0 <= segment_index < self.params.sigma:
            raise SegmentRangeError(f"segment index {segment_index} out of range")
        width = self.params.segment_width
        start = segment_index * width
        counts = self.counts[start : start + width]
        offset = _DIGEST_LEN * sum(self.counts[:start])
        digests = self.digests[offset : offset + _DIGEST_LEN * sum(counts)]
        return CheckSegment(self.day, segment_index, start, counts, digests)

    def to_record(self) -> SnapshotRecord:
        fields = (*astuple(self.params), sum(self.counts))
        return SnapshotRecord(self.day, fields, _check_body(self.counts, self.digests))

    @classmethod
    def from_record(cls, rec: SnapshotRecord) -> "CheckTableSnapshot":
        *params, count = rec.fields
        params = TableParams(*params)
        return cls(rec.day, params, *_split_body(rec.body, params.c, count))


def build_check_table(entries: Iterable[bytes], params: TableParams, day: int) -> CheckTableSnapshot:
    """Place every digest in its bucket, deduplicated, buckets sorted."""
    buckets = [[] for _ in range(params.c)]
    for digest in set(entries):
        buckets[check_bucket(digest, params.c)].append(digest)
    for bucket in buckets:
        bucket.sort()
    return CheckTableSnapshot(day, params, tuple(map(len, buckets)), b"".join(chain.from_iterable(buckets)))


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
        record_field(self.effective_from, "effective_from", minimum=0)
        record_field(self.sequence, "sequence", minimum=0)
        if type(self.reason) is not str or not isinstance(self.constraints, (Mapping, type(None))):
            raise ValueError("a document's reason must be text and its constraints a map or absent")
        if self.constraints is not None:
            self.to_bytes()  # constraints holding a float or a null have no canonical form to seal

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


def revocation_associated_data(root: str, day: int, vc_id: bytes) -> bytes:
    return canonical_encode({"root": root, "day": day, "vc_id": vc_id_hex(vc_id)})


@dataclass(frozen=True)
class _Buckets:
    """A revocation table's d overflow lists, read-only: item i is the tuple
    of RevocationEntry in slot i, decoded from the body when read."""

    table: "RevocationTableSnapshot"

    def __len__(self) -> int:
        return self.table.params.d

    def __getitem__(self, index: int) -> tuple:
        if not 0 <= index < self.table.params.d:
            raise IndexError(f"bucket index {index} out of range [0, {self.table.params.d})")
        body, slots, sizes = self.table.body, self.table.slots, self.table.sizes
        lo, hi = bisect_left(slots, index), bisect_right(slots, index)
        if lo == hi:
            return ()
        scheme_id, widths, head = _entry_format(body)
        pos, entries = 1 + body[0] + sum(sizes[:lo]), []
        for size in sizes[lo:hi]:
            header = ahibe.EncapHeader(scheme_id, dict(zip(widths, head.unpack_from(body, pos)[1:-1])))
            entries.append(RevocationEntry(header, body[pos + head.size : pos + size]))
            pos += size
        return tuple(entries)


@dataclass(frozen=True)
class RevocationTableSnapshot:
    """A revocation table in its file form (`_entry_format`), empty by
    default. `slots` and `sizes` give each entry's slot and byte size in body
    order; sizes, not offsets, so that an insert only splices."""

    day: int
    params: TableParams
    body: bytes = b""
    slots: tuple = field(default=(), compare=False, repr=False)  # slots and sizes follow from the body
    sizes: tuple = field(default=(), compare=False, repr=False)

    buckets = property(_Buckets)

    @classmethod
    def from_entries(cls, params: TableParams, day: int, entries: Iterable) -> "RevocationTableSnapshot":
        """Table of (index, entry) pairs, each overflow list in the given
        order: sorted stably by slot and packed once."""
        entries = sorted(entries, key=lambda pair: pair[0])
        if not entries:
            return cls(day, params)
        raw_id = entries[0][1].header.scheme_id.encode("utf-8")
        prefix = bytes([len(raw_id)]) + raw_id
        scheme_id, widths, head = _entry_format(prefix)
        packed = []
        for index, entry in entries:
            fields = entry.header.fields
            if not 0 <= index < params.d:
                raise IndexError(f"bucket index {index} out of range [0, {params.d})")
            if entry.header.scheme_id != scheme_id or {n: len(v) for n, v in fields.items()} != widths:
                raise ValueError("entry header does not fit the table's header layout")
            packed.append(head.pack(index, *(fields[name] for name in widths), len(entry.sealed_body)) + entry.sealed_body)
        return cls(day, params, prefix + b"".join(packed), tuple(index for index, _ in entries), tuple(map(len, packed)))

    def insert(self, index: int, entry: RevocationEntry) -> "RevocationTableSnapshot":
        """Append to the overflow list at `index`, returning a new snapshot:
        the entry, packed and checked as a one-entry table, is spliced into
        the body at the end of the slot's run."""
        one = self.from_entries(self.params, self.day, [(index, entry)])
        start, k = len(one.body) - one.sizes[0], bisect_right(self.slots, index)
        if self.body and not self.body.startswith(one.body[:start]):
            raise ValueError("entry header does not fit the table's header layout")
        at, view = start + sum(self.sizes[:k]), memoryview(self.body or one.body[:start])  # a view's slices copy nothing
        return replace(
            self,
            body=b"".join((view[:at], one.body[start:], view[at:])),
            slots=self.slots[:k] + (index,) + self.slots[k:],
            sizes=self.sizes[:k] + one.sizes + self.sizes[k:],
        )

    def scan(self, index: int, dk: ahibe.DayKey, root: str, day: int, vc_id: bytes) -> list:
        """Try every entry in one overflow list against a day key.

        Entries sealed for other identities fail AEAD authentication and are
        skipped; a header that does not decode, or an opened entry that is not
        a well-formed document for the queried credential, means the
        publisher misbehaved.
        """
        associated = revocation_associated_data(root, day, vc_id)
        found = []
        for entry in self.buckets[index]:
            try:
                key = ahibe.decap(dk, entry.header)
            except PointDecodeError as exc:  # the day key is checked (verifier) or self-made (holder)
                raise IntegrityError(f"undecodable entry header in bucket {index}") from exc
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

    def to_record(self) -> SnapshotRecord:
        return SnapshotRecord(self.day, (*astuple(self.params), len(self.slots)), self.body)

    @classmethod
    def from_record(cls, rec: SnapshotRecord) -> "RevocationTableSnapshot":
        """One pass that checks the slot order and range and that the entries
        fill the body exactly; it decodes no entry."""
        *params, count = rec.fields
        params = TableParams(*params)
        body, pos, slots, sizes = rec.body, 0, [], []
        if count:
            head = _entry_format(body)[2]
            slot_and_size = struct.Struct(f">I{head.size - 8}xI")  # skips the header field values
            pos = 1 + body[0]
            for _ in range(count):
                slot, size = slot_and_size.unpack_from(body, pos)
                if not (slots[-1] if slots else 0) <= slot < params.d:
                    raise CorruptSnapshotError(f"entry index {slot} out of slot order or range")
                slots.append(slot)
                sizes.append(head.size + size)
                pos += head.size + size
        if pos != len(body):
            raise CorruptSnapshotError("the entries do not fill the body exactly")
        return cls(rec.day, params, body, tuple(slots), tuple(sizes))


def _entry_format(body: bytes) -> tuple:
    """(scheme id, header field widths by name, entry head) of a revocation
    body that holds entries: the scheme id (u8 length, UTF-8), then per entry
    its head (slot, header field values, sealed-body length) and sealed body."""
    scheme_id = body[1 : 1 + body[0]].decode("utf-8")
    widths = dict(ahibe.header_layout(scheme_id))  # an unknown scheme is a SchemeError
    return scheme_id, widths, struct.Struct(">I" + "".join(f"{width}s" for width in widths.values()) + "I")


# file envelope: magic and version, the SHA-256 of every byte after it, kind,
# day and the kind's fixed fields; then the body

_MAGIC = b"RVSN" + SNAPSHOT_VERSION.encode("ascii")
_COVERED = len(_MAGIC) + 32  # where the digested bytes begin

# kind byte -> (snapshot class, number of fixed fields after the day)
_KINDS = {1: (CheckTableSnapshot, 5), 2: (CheckSegment, 4), 3: (RevocationTableSnapshot, 5)}
_KIND_BYTES = {cls: kind for kind, (cls, _) in _KINDS.items()}


def snapshot_to_bytes(snapshot) -> bytes:
    rec = snapshot.to_record()
    covered = struct.pack(f">BQ{len(rec.fields)}I", _KIND_BYTES[type(snapshot)], rec.day, *rec.fields) + rec.body
    return _MAGIC + hashlib.sha256(covered).digest() + covered


def _envelope(data: bytes) -> tuple:
    """(snapshot class, day, fixed fields, body offset) from the envelope at
    the head of `data`, without the digest check."""
    if data[: len(_MAGIC)] != _MAGIC:
        raise CorruptSnapshotError(f"not a version-{SNAPSHOT_VERSION} snapshot")
    try:
        cls, nfields = _KINDS[data[_COVERED]]
        head = struct.Struct(f">BQ{nfields}I")
        _, day, *fields = head.unpack_from(data, _COVERED)
    except (LookupError, struct.error) as exc:
        raise CorruptSnapshotError(f"malformed snapshot: {exc}") from exc
    return cls, day, tuple(fields), _COVERED + head.size


def snapshot_digest(data: bytes) -> bytes:
    """The content digest the envelope of `data` claims, unchecked."""
    return data[len(_MAGIC) : _COVERED]


def _verify_content_digest(data: bytes) -> None:
    if hashlib.sha256(memoryview(data)[_COVERED:]).digest() != snapshot_digest(data):
        raise CorruptSnapshotError("content digest mismatch")


def snapshot_from_bytes(data: bytes):
    """Inverse of `snapshot_to_bytes`. The digest is checked over the bytes
    as read; any malformed input raises CorruptSnapshotError."""
    cls, day, fields, start = _envelope(data)
    _verify_content_digest(data)
    try:
        return cls.from_record(SnapshotRecord(day, fields, data[start:]))
    except (LookupError, ValueError, struct.error) as exc:  # CorruptSnapshotError is a ValueError
        raise CorruptSnapshotError(f"malformed snapshot: {exc}") from exc


def write_snapshot(snapshot, path) -> bytes:
    """Write the snapshot's file; returns its content digest."""
    data = snapshot_to_bytes(snapshot)
    write_atomic(path, data)
    return snapshot_digest(data)


def read_snapshot(path):
    with open(path, "rb") as fh:
        return snapshot_from_bytes(fh.read())


def read_check_envelope(path, whole: bool = False) -> tuple:
    """(fixed fields, content digest) of a check-table file. Only the
    envelope is read, and the digest is the one it claims; with `whole`, the
    file is read to its end and its covered bytes must hash to that digest.
    A file of another kind, or one that fails, raises CorruptSnapshotError."""
    with open(path, "rb") as fh:
        data = fh.read() if whole else fh.read(_COVERED + struct.calcsize(">BQ5I"))
    cls, _, fields, _ = _envelope(data)
    if cls is not CheckTableSnapshot:
        raise CorruptSnapshotError("not a check table")
    if whole:
        _verify_content_digest(data)
    return fields, snapshot_digest(data)


def check_snapshot_filename(day: int) -> str:
    return f"check-{day}.snap"


def revocation_snapshot_filename(day: int) -> str:
    return f"revocation-{day}.snap"
