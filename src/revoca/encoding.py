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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CanonicalDecodeError(str(exc)) from exc


def record_int(value, what: str, minimum: int | None = None) -> int:
    """An integer field of a decoded record: an int that is not a bool, and
    at least `minimum` when one is given."""
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" of at least {minimum}"
        raise CanonicalDecodeError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def decode_untrusted(data: bytes, from_record: Callable[[Any], Any], what: str) -> Any:
    """`from_record` of the canonical record in untrusted bytes; every
    malformed shape is a CanonicalDecodeError."""
    try:
        return from_record(canonical_decode(data))
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise CanonicalDecodeError(f"malformed {what}: {exc}") from exc


def write_atomic(path, data: bytes, private: bool = False) -> None:
    """Replace the file at `path` with `data` through a sibling `.tmp` file and
    a rename, so a reader never sees a partly written file. A `private` file
    (secrets) is mode 0600 before its first byte is written; other files get
    the umask's mode."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600 if private else 0o666)
    with open(fd, "wb") as fh:
        if private:
            os.fchmod(fd, 0o600)  # a tmp left over from a crash keeps its old mode
        fh.write(data)
    os.replace(tmp, path)
