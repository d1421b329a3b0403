"""Publication service: per-day snapshots and public parameters over HTTP,
plus a fetching client with byte-level accounting.

Endpoint grammar (read-only, no request bodies, no per-credential query by
design):

    GET /v1/params
    GET /v1/days/{day}/check/segments/{j}
    GET /v1/days/{day}/revocation

The in-process transport and the network transport share one path resolver,
so both return identical bytes for identical requests. Error responses carry
an empty body and a machine-readable reason in the metadata map (the
X-Reason header over HTTP).

Connections are persistent HTTP/1.1 (the server closes one after
HTTP_IDLE_SECONDS idle); a verifier makes the same requests as over fresh ones.
Snapshot fetches are conditional: the client names the envelope digest of the
copy it holds (If-None-Match, the ETag), and gets a body-less 304 while that
is still the current version, so a body is downloaded only when it changed.

The server caches only encoded check segments, in one process-wide LRU memo
of SEGMENT_MEMO_SIZE entries keyed by the check file's path, its version
(mtime and size, from the stat each request makes) and the segment index.
Nothing is invalidated. The issuer rewrites a check file only when the
active credential set or the day changes (or the file is damaged); within a
day that is an issue, which adds a digest and so changes the size even within
one mtime tick. A same-day revoke leaves the check file, and with it the
memo's entries, untouched. A pruned file fails the stat before any lookup,
and superseded entries age out.
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
    read_check_envelope,
    read_snapshot,
    revocation_snapshot_filename,
    snapshot_digest,
    snapshot_from_bytes,
    snapshot_to_bytes,
    write_snapshot,
)

PARAMS_FILENAME = "params.doc"

# days of parsed segments and revocation tables a client keeps: today's and
# yesterday's, the days a check with a past-day authorization fetches
# (perfbench/workloads.py checks [day - 1, day])
TABLE_CACHE_DAYS = 2

SEGMENT_MEMO_SIZE = 64  # every segment of four days at the default sigma = 16

HTTP_TIMEOUT_SECONDS = 10.0
HTTP_IDLE_SECONDS = 5.0  # the server closes a connection idle this long
SERVE_POLL_SECONDS = 0.05  # how long serve_in_thread's shutdown() may wait

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

    def publish_check(self, snapshot: CheckTableSnapshot) -> bytes:
        """Write the day's check file; returns its content digest."""
        return write_snapshot(snapshot, self.check_path(snapshot.day))

    def check_file_digest(self, day: int) -> Optional[bytes]:
        """The content digest of the day's check file when its bytes hash to
        the digest its envelope claims; None when the file is missing,
        damaged or unreadable."""
        try:
            return read_check_envelope(self.check_path(day), whole=True)[1]
        except (OSError, CorruptSnapshotError):
            return None

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
    if not 0 <= segment_index < read_check_envelope(path)[0][2]:  # d, c, sigma, ...
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


def resolve_path(store: PublicationStore, path: str, held: Optional[bytes] = None) -> Tuple[int, Optional[str], bytes]:
    """Single route resolver shared by every transport: (status, reason, body).
    A snapshot whose envelope claims the digest `held` is (304, None, b"")."""
    if "?" in path or "#" in path:
        return 404, "invalid-path", b""
    try:
        if path == "/v1/params":
            return 200, None, store.params_bytes()
        match = _SEGMENT_RE.fullmatch(path)
        if match:
            return _unless_held(store.segment_bytes(int(match.group(1)), int(match.group(2))), held)
        match = _REVOCATION_RE.fullmatch(path)
        if match:
            return _unless_held(store.revocation_bytes(int(match.group(1))), held)
    except ResourceNotFound as exc:
        return 404, exc.reason, b""
    except CorruptSnapshotError:  # a damaged check file, or one in an older snapshot version
        return 500, "unreadable-snapshot", b""
    except OSError:  # a published path the server cannot read: a directory, no permission
        return 500, "unreadable-file", b""
    return 404, "unknown-resource", b""


def _unless_held(body: bytes, held: Optional[bytes]) -> Tuple[int, Optional[str], bytes]:
    return (304, None, b"") if held == snapshot_digest(body) else (200, None, body)


class InProcessTransport:
    """Same contract as the HTTP transport, straight from the store."""

    def __init__(self, store: PublicationStore):
        self.store = store

    def get(self, path: str, held: Optional[bytes] = None) -> Tuple[int, Optional[str], bytes]:
        return resolve_path(self.store, path, held)


class HttpTransport:
    """One persistent HTTP/1.1 connection, reused; a transport is used from one thread."""

    def __init__(self, base_url: str):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError("only plain http is supported")
        self._conn = http.client.HTTPConnection(parsed.hostname, parsed.port or 80, timeout=HTTP_TIMEOUT_SECONDS)

    def get(self, path: str, held: Optional[bytes] = None) -> Tuple[int, Optional[str], bytes]:
        headers = {} if held is None else {"If-None-Match": f'"{held.hex()}"'}
        reused = self._conn.sock is not None
        try:
            return self._request(path, headers)
        except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
            if not reused:
                raise
            return self._request(path, headers)  # the server closed the idle connection; a GET is safe to repeat

    def _request(self, path: str, headers: dict) -> Tuple[int, Optional[str], bytes]:
        try:
            self._conn.request("GET", path, headers=headers)
            response = self._conn.getresponse()  # closes the connection if the response says it will
            return response.status, response.headers.get("X-Reason"), response.read()
        except BaseException:
            self._conn.close()  # never read a half-read response's bytes as the next one
            raise


class TableClient:
    """Fetches published artifacts, verifying content digests and returning
    every transfer's exact body size."""

    def __init__(self, transport):
        self.transport = transport
        self._params: Optional[PublicParamsDocument] = None
        # day -> {route path: (envelope digest, parsed snapshot)}, least
        # recently used day first; a newer body for a path replaces the older
        self._held = OrderedDict()

    def _get(self, path: str, held: Optional[bytes] = None) -> Optional[bytes]:
        """The body, or None when the server answers that `held` is current."""
        try:
            status, reason, body = self.transport.get(path, held)
        except (OSError, http.client.HTTPException) as exc:  # refused, timed out, cut short
            raise ResourceNotFound("transport-failed") from exc
        if status == 304 and held is not None:
            return None
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
        return self._fetch(day, f"/v1/days/{day}/check/segments/{segment_index}", CheckSegment)

    def fetch_revocation_table(self, day: int) -> Tuple[RevocationTableSnapshot, int]:
        return self._fetch(day, f"/v1/days/{day}/revocation", RevocationTableSnapshot)

    def _fetch(self, day: int, path: str, kind: type) -> tuple:
        """(snapshot, body bytes received). The request names the envelope
        digest of the copy held, verified when that copy was parsed; a 304
        returns the copy for 0 bytes. A body is parsed only under another
        digest, so a server that ignores the precondition costs no parse."""
        held = self._held.get(day, {})
        digest, snapshot = held.get(path, (None, None))
        body = self._get(path, digest)
        if body is not None and snapshot_digest(body) != digest:
            snapshot = snapshot_from_bytes(body)
            if not isinstance(snapshot, kind) or snapshot.day != day:
                raise CorruptSnapshotError(f"response is not the requested {kind.__name__}")
            held[path] = (snapshot_digest(body), snapshot)
        self._held[day] = held
        self._held.move_to_end(day)
        if len(self._held) > TABLE_CACHE_DAYS:
            self._held.popitem(last=False)
        return snapshot, 0 if body is None else len(body)


# the one If-None-Match form honoured: a single strong tag, a digest in lowercase hex
_ENTITY_TAG = re.compile(r'"([0-9a-f]{64})"')


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # persistent connections: every response sends Content-Length
    disable_nagle_algorithm = True  # or each body waits about 40 ms for the delayed ACK of its headers
    timeout = HTTP_IDLE_SECONDS  # an idle connection gives its thread back

    def do_GET(self):  # noqa: N802  (stdlib naming)
        tags = self.headers.get_all("If-None-Match", [])
        tag = _ENTITY_TAG.fullmatch(tags[0].strip(" \t")) if len(tags) == 1 else None  # any other form is ignored
        status, reason, body = resolve_path(self.server.store, self.path, tag and bytes.fromhex(tag[1]))
        self.send_response(status)
        if reason:
            self.send_header("X-Reason", reason)
        if self.headers.get("Content-Length", "0") != "0" or "Transfer-Encoding" in self.headers:
            self.send_header("Connection", "close")  # no route reads a request body
        if status == 304 or status == 200 and self.path != "/v1/params":  # a snapshot route
            self.send_header("ETag", tag[0] if status == 304 else f'"{snapshot_digest(body).hex()}"')
        if status != 304:  # a 304 has no body, and so no Content-Length
            self.send_header("Content-Type", "application/json" if self.path == "/v1/params" else "application/octet-stream")
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.send_response(405)
        self.send_header("X-Reason", "read-only")
        self.send_header("Content-Length", "0")
        self.send_header("Connection", "close")  # also sets close_connection: the body is never read
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
    thread = threading.Thread(target=server.serve_forever, args=(SERVE_POLL_SECONDS,), daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"
