"""Publication service: per-day snapshots and public parameters over HTTP,
plus a fetching client with byte-level accounting.

Endpoint grammar (read-only, no request bodies, no per-credential query by
design):

    GET /v1/params
    GET /v1/days/{day}/check/segments/{j}
    GET /v1/days/{day}/revocation

The in-process transport and the network transport share one path resolver,
so both return identical bytes for identical requests. Not-found responses
carry an empty body and a machine-readable reason in the metadata map (the
X-Reason header over HTTP).

The server caches only encoded check segments, in one process-wide LRU memo
of SEGMENT_MEMO_SIZE entries keyed by the check file's path, its version
(mtime and size, from the stat each request makes) and the segment index.
Nothing is invalidated: a republish changes the size even within one mtime
tick (a day's check table changes only by added digests), a pruned file
fails the stat before any lookup, and superseded entries age out.
"""

from __future__ import annotations

import functools
import http.client
import re
import threading
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple

from . import ahibe
from .encoding import b64u_decode, canonical_decode, canonical_encode, decode_untrusted, record_field, write_atomic
from .primitives import sign, verify
from .tables import (
    CheckSegment,
    CheckTableSnapshot,
    CorruptSnapshotError,
    RevocationTableSnapshot,
    TableParams,
    check_snapshot_filename,
    read_check_sigma,
    read_snapshot,
    revocation_snapshot_filename,
    snapshot_digest,
    snapshot_from_bytes,
    snapshot_to_bytes,
    write_snapshot,
)

PARAMS_FILENAME = "params.doc"

# parsed revocation tables a client keeps: today's and yesterday's, the days
# a check with a past-day authorization fetches (perfbench/workloads.py
# checks [day - 1, day])
TABLE_CACHE_DAYS = 2

SEGMENT_MEMO_SIZE = 64  # every segment of four days at the default sigma = 16

HTTP_TIMEOUT_SECONDS = 10.0

ROUTES = (
    "/v1/params",
    "/v1/days/{day}/check/segments/{j}",
    "/v1/days/{day}/revocation",
)


class ResourceNotFound(LookupError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class PublicParamsDocument:
    """Deployment-lifetime constants: encryption params, table sizing, the
    day-zero epoch and granularity, all signed by the issuer."""

    mpp: ahibe.MasterPublicParams
    table_params: TableParams
    epoch: int
    granularity_seconds: int
    issuer_id: str
    signature: bytes

    def signed_payload(self) -> bytes:
        """The record without its signature."""
        rec = self.to_record()
        del rec["signature"]
        return canonical_encode(rec)

    def verify_signature(self, issuer_public_key: bytes) -> bool:
        return verify(issuer_public_key, self.signed_payload(), self.signature)

    def day_from_timestamp(self, timestamp: int) -> int:
        if timestamp < self.epoch:
            raise ValueError("timestamp precedes the deployment epoch")
        return (timestamp - self.epoch) // self.granularity_seconds

    def to_record(self) -> dict:
        return {
            "mpp": canonical_encode(ahibe.to_record(self.mpp)),
            "table_params": self.table_params.to_record(),
            "epoch": self.epoch,
            "granularity_seconds": self.granularity_seconds,
            "issuer_id": self.issuer_id,
            "signature": self.signature,
        }

    def to_bytes(self) -> bytes:
        return canonical_encode(self.to_record())

    @classmethod
    def from_record(cls, rec) -> "PublicParamsDocument":
        return cls(
            mpp=ahibe.from_record(ahibe.MasterPublicParams, canonical_decode(b64u_decode(rec["mpp"]))),
            table_params=TableParams.from_record(rec["table_params"]),
            epoch=record_field(rec["epoch"], "epoch"),
            granularity_seconds=record_field(rec["granularity_seconds"], "granularity_seconds", minimum=1),
            issuer_id=record_field(rec["issuer_id"], "issuer_id", str),
            signature=b64u_decode(rec["signature"]),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicParamsDocument":
        """Decode untrusted bytes; every malformed shape is a CanonicalDecodeError."""
        return decode_untrusted(data, cls.from_record, "params document")


def make_params_document(
    mpp: ahibe.MasterPublicParams,
    table_params: TableParams,
    epoch: int,
    granularity_seconds: int,
    issuer_id: str,
    signing_key: bytes,
) -> PublicParamsDocument:
    if granularity_seconds < 1:
        raise ValueError("granularity must be positive")
    unsigned = PublicParamsDocument(
        mpp=mpp,
        table_params=table_params,
        epoch=epoch,
        granularity_seconds=granularity_seconds,
        issuer_id=issuer_id,
        signature=b"",
    )
    return replace(unsigned, signature=sign(signing_key, unsigned.signed_payload()))


class PublicationStore:
    """Directory of published artifacts: params.doc plus per-day
    check-<day>.snap / revocation-<day>.snap archives."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def params_path(self) -> Path:
        return self.root / PARAMS_FILENAME

    def check_path(self, day: int) -> Path:
        return self.root / check_snapshot_filename(day)

    def revocation_path(self, day: int) -> Path:
        return self.root / revocation_snapshot_filename(day)

    def write_params(self, document: PublicParamsDocument) -> None:
        write_atomic(self.params_path(), document.to_bytes())

    def params_bytes(self) -> bytes:
        return _read(self.params_path(), "params-not-published")

    def publish_check(self, snapshot: CheckTableSnapshot) -> None:
        write_snapshot(snapshot, self.check_path(snapshot.day))

    def publish_revocation(self, snapshot: RevocationTableSnapshot) -> None:
        write_snapshot(snapshot, self.revocation_path(snapshot.day))

    def check_bytes(self, day: int) -> bytes:
        return _read(self.check_path(day), "unknown-day")

    def revocation_bytes(self, day: int) -> bytes:
        return _read(self.revocation_path(day), "unknown-day")

    def segment_bytes(self, day: int, segment_index: int) -> bytes:
        path = self.check_path(day)
        try:
            stat = path.stat()
            return _segment_bytes(path, (stat.st_mtime_ns, stat.st_size), segment_index)
        except FileNotFoundError:  # also when a prune removes the file mid-request
            raise ResourceNotFound("unknown-day") from None

    def archived_days(self) -> list:
        days = []
        for path in self.root.glob("revocation-*.snap"):
            match = re.fullmatch(r"revocation-(\d+)\.snap", path.name)
            if match:
                days.append(int(match.group(1)))
        return sorted(days)

    def prune(self, current_day: int, retention_days: int) -> None:
        """Drop archives older than the retention window."""
        for day in self.archived_days():
            if day < current_day - retention_days:
                self.check_path(day).unlink(missing_ok=True)
                self.revocation_path(day).unlink(missing_ok=True)


@functools.lru_cache(maxsize=SEGMENT_MEMO_SIZE)
def _segment_bytes(path: Path, version: tuple, segment_index: int) -> bytes:
    """One encoded segment of a check file. `version` only keys the memo. An
    index outside the file's sigma is refused before the file is parsed."""
    if not 0 <= segment_index < read_check_sigma(path):
        raise ResourceNotFound("unknown-segment")
    return snapshot_to_bytes(read_snapshot(path).segment(segment_index))


def _read(path: Path, reason: str) -> bytes:
    """The file's bytes; a missing file, also one a prune removes between a
    request's arrival and the read, is ResourceNotFound."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ResourceNotFound(reason) from None


# at most 20 ASCII digits, as many as a u64 day has: any other number is a 404
_NUMBER = r"([0-9]{1,20})"
_SEGMENT_RE = re.compile(rf"/v1/days/{_NUMBER}/check/segments/{_NUMBER}")
_REVOCATION_RE = re.compile(rf"/v1/days/{_NUMBER}/revocation")


def resolve_path(store: PublicationStore, path: str) -> Tuple[int, Optional[str], bytes]:
    """Single route resolver shared by every transport: (status, reason, body)."""
    if "?" in path or "#" in path:
        return 404, "invalid-path", b""
    try:
        if path == "/v1/params":
            return 200, None, store.params_bytes()
        match = _SEGMENT_RE.fullmatch(path)
        if match:
            return 200, None, store.segment_bytes(int(match.group(1)), int(match.group(2)))
        match = _REVOCATION_RE.fullmatch(path)
        if match:
            return 200, None, store.revocation_bytes(int(match.group(1)))
    except ResourceNotFound as exc:
        return 404, exc.reason, b""
    except CorruptSnapshotError:  # a damaged check file, or one in an older snapshot version
        return 500, "unreadable-snapshot", b""
    return 404, "unknown-resource", b""


class InProcessTransport:
    """Same contract as the HTTP transport, straight from the store."""

    def __init__(self, store: PublicationStore):
        self.store = store

    def get(self, path: str) -> Tuple[int, Optional[str], bytes]:
        return resolve_path(self.store, path)


class HttpTransport:
    def __init__(self, base_url: str):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError("only plain http is supported")
        self.host = parsed.hostname
        self.port = parsed.port or 80

    def get(self, path: str) -> Tuple[int, Optional[str], bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_SECONDS)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            reason = response.headers.get("X-Reason")
            return response.status, reason, body
        finally:
            conn.close()


class TableClient:
    """Fetches published artifacts, verifying content digests and returning
    every transfer's exact body size."""

    def __init__(self, transport):
        self.transport = transport
        self._params: Optional[PublicParamsDocument] = None
        # day -> (envelope digest, parsed table), least recently used first;
        # a newer body for a day replaces the older one
        self._tables = OrderedDict()

    def _get(self, path: str) -> bytes:
        status, reason, body = self.transport.get(path)
        if status != 200:
            raise ResourceNotFound(reason or "not-found")
        return body

    def params(self) -> PublicParamsDocument:
        """Cached params document; immutable for the deployment lifetime."""
        if self._params is None:
            self._params = PublicParamsDocument.from_bytes(self._get("/v1/params"))
        return self._params

    def prime_params(self, document: PublicParamsDocument) -> None:
        """Install a params document obtained out of band (no fetch made)."""
        self._params = document

    def fetch_segment(self, day: int, segment_index: int) -> Tuple[CheckSegment, int]:
        body = self._get(f"/v1/days/{day}/check/segments/{segment_index}")
        segment = snapshot_from_bytes(body)
        if not isinstance(segment, CheckSegment) or segment.day != day:
            raise CorruptSnapshotError("response is not the requested check segment")
        return segment, len(body)

    def fetch_revocation_table(self, day: int) -> Tuple[RevocationTableSnapshot, int]:
        body = self._get(f"/v1/days/{day}/revocation")
        # parsing is cached by the envelope digest, verified when the cached
        # table was parsed; the transfer is still made and counted
        digest = snapshot_digest(body)
        cached, table = self._tables.pop(day, (None, None))
        if cached != digest:
            table = snapshot_from_bytes(body)
            if not isinstance(table, RevocationTableSnapshot) or table.day != day:
                raise CorruptSnapshotError("response is not the requested revocation table")
        self._tables[day] = (digest, table)
        if len(self._tables) > TABLE_CACHE_DAYS:
            self._tables.popitem(last=False)
        return table, len(body)


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802  (stdlib naming)
        status, reason, body = resolve_path(self.server.store, self.path)
        self.send_response(status)
        if reason:
            self.send_header("X-Reason", reason)
        self.send_header("Content-Type", "application/json" if self.path == "/v1/params" else "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.send_response(405)
        self.send_header("X-Reason", "read-only")
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_PUT = do_POST
    do_DELETE = do_POST

    def log_message(self, fmt, *args):
        pass  # quiet by default; operators front this with real logging


def serve(state_dir, bind_address: str = "127.0.0.1:0") -> ThreadingHTTPServer:
    """Start the read-only publication server; caller drives serve_forever."""
    store = PublicationStore(state_dir)
    if not store.params_path().exists():
        raise FileNotFoundError(f"{store.params_path()} missing: publish params before serving")
    host, _, port = bind_address.rpartition(":")
    server = ThreadingHTTPServer((host or "127.0.0.1", int(port)), _Handler)
    server.store = store
    return server


def serve_in_thread(state_dir):
    """Serve on a free loopback port in a daemon thread: returns (server,
    base_url)."""
    server = serve(state_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"
