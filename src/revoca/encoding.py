"""Deterministic canonical encoding.

Every byte string that gets signed, MACed, used as AEAD associated data, or
hashed into a table index is produced here, so both sides of the protocol
derive identical bytes from structurally equal values.

Rules: UTF-8 JSON, lexicographically sorted keys, no insignificant
whitespace, byte fields rendered as unpadded base64url text. Allowed value
shapes: maps with text keys, sequences, text, integers, booleans, and bytes.
Floats and None are rejected.

`write_atomic` is the one way encoded bytes reach a file.
"""

from __future__ import annotations

import base64
import json
import os
import secrets
from pathlib import Path
from typing import Any, Callable


class CanonicalEncodeError(ValueError):
    """The value contains a shape the canonical encoding does not admit."""


class CanonicalDecodeError(ValueError):
    """The byte sequence is not a canonical encoding of any value."""


def b64u(raw: bytes) -> str:
    """Unpadded base64url text for a byte field."""
    return base64.urlsafe_b64encode(bytes(raw)).rstrip(b"=").decode("ascii")


_FROM_URLSAFE = bytes.maketrans(b"-_", b"+/")


def b64u_decode(text: str) -> bytes:
    """The bytes whose `b64u` text is exactly `text`: padding, `+`, `/` and
    nonzero trailing bits are refused, so one byte string has one text."""
    try:
        padded = text.encode("ascii").translate(_FROM_URLSAFE) + b"=" * (-len(text) % 4)
        raw = base64.b64decode(padded, validate=True)
    except (ValueError, TypeError, AttributeError) as exc:  # AttributeError: not text
        raise CanonicalDecodeError(f"invalid base64url field: {text!r}") from exc
    if b64u(raw) != text:
        raise CanonicalDecodeError(f"non-canonical base64url field: {text!r}")
    return raw


def _normalize(value: Any) -> Any:
    # bool first: it is a subclass of int
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return b64u(bytes(value))
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CanonicalEncodeError(f"map keys must be text, got {type(key).__name__}")
            out[key] = _normalize(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    raise CanonicalEncodeError(f"unsupported value shape: {type(value).__name__}")


def canonical_encode(value: Any) -> bytes:
    """Encode `value` to its unique canonical byte sequence."""
    normalized = _normalize(value)
    text = json.dumps(normalized, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8")


def canonical_decode(data: bytes) -> Any:
    """Parse canonical bytes back into maps/sequences/text/ints/bools.

    Byte fields come back as their base64url text form; callers that know the
    schema convert them with `b64u_decode`.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer literal
        raise CanonicalDecodeError(str(exc)) from exc


_KIND_NAMES = {int: "an integer", str: "text", dict: "a map"}


def record_field(value, what: str, kind: type = int, minimum: int | None = None):
    """A field of a decoded record: exactly a `kind` (so a bool is not an
    int), and at least `minimum` when one is given."""
    if type(value) is not kind or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" of at least {minimum}"
        raise CanonicalDecodeError(f"{what} must be {_KIND_NAMES[kind]}{bound}, got {value!r}")
    return value


def decode_untrusted(data: bytes, from_record: Callable[[Any], Any], what: str) -> Any:
    """`from_record` of the canonical record in untrusted bytes; every
    malformed shape is a CanonicalDecodeError."""
    try:
        return from_record(canonical_decode(data))
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise CanonicalDecodeError(f"malformed {what}: {exc}") from exc


def write_atomic(path, data: bytes, private: bool = False, durable: bool = False) -> None:
    """Replace the file at `path` with `data` through a new, uniquely named
    sibling file and a rename, so a reader never sees a partly written file
    and two writers of one path never share a temporary file. A write that
    raises removes its own; one cut short by a crash or power loss leaves
    `<path>.<hex>.tmp` behind, and no later write removes it. A `private` file (secrets) is mode 0600 from its
    creation; other files get the umask's mode. A `durable` write fsyncs the
    file before the rename and its directory after it, so the new bytes
    survive a power loss once this returns."""
    parent = Path(path).parent
    parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL as in tempfile.mkstemp, but with this mode, where mkstemp's is 0600
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600 if private else 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if durable:
        dir_fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
