import os
import random

import pytest

from revoca import actors
from revoca.encoding import (
    CanonicalDecodeError,
    CanonicalEncodeError,
    b64u,
    b64u_decode,
    canonical_decode,
    canonical_encode,
    write_atomic,
)


def test_empty_map_is_two_bytes():
    assert canonical_encode({}) == b"{}"


def test_key_order_is_canonical():
    assert canonical_encode({"b": 1, "a": 2}) == canonical_encode({"a": 2, "b": 1}) == b'{"a":2,"b":1}'


def test_reencoding_decoded_value_is_stable():
    value = {"name": "héllo", "n": 12, "flag": True, "items": [1, 2, {"x": "y"}], "blob": b"\x00\xff"}
    encoded = canonical_encode(value)
    assert canonical_encode(canonical_decode(encoded)) == encoded


def test_bytes_render_as_unpadded_base64url():
    assert canonical_encode({"k": b"\xfb\xef\xff"}) == b'{"k":"--__"}'
    assert b64u_decode(b64u(b"\x01\x02\x03")) == b"\x01\x02\x03"


def test_rejects_floats_none_and_nontext_keys():
    for bad in ({"x": 1.5}, {"x": None}, {1: "x"}, {"x": object()}):
        with pytest.raises(CanonicalEncodeError):
            canonical_encode(bad)


def test_decode_rejects_garbage():
    with pytest.raises(CanonicalDecodeError):
        canonical_decode(b"\xff\xfe not json")
    with pytest.raises(CanonicalDecodeError):
        b64u_decode("!!!not-b64!!!")


OVER_LONG_INTEGER = b"1" * 5000  # beyond the interpreter's integer-string limit


def test_over_long_integer_is_a_decode_error():
    with pytest.raises(CanonicalDecodeError):
        canonical_decode(OVER_LONG_INTEGER)


@pytest.mark.parametrize("load", [
    lambda path: actors.TrustStore.load(path),
    lambda path: actors.Wallet.load(path),
    lambda path: actors.load_issuer_state(path),
], ids=["trust-store", "wallet", "issuer-state"])
def test_loaders_refuse_an_over_long_integer_with_a_decode_error(tmp_path, load):
    path = tmp_path / "file"
    path.write_bytes(OVER_LONG_INTEGER)
    with pytest.raises(CanonicalDecodeError):
        load(path)


def test_b64u_round_trip():
    rng = random.Random(5)
    for n in range(0, 40):
        raw = rng.randbytes(n)
        assert b64u_decode(b64u(raw)) == raw


@pytest.mark.parametrize("text", [
    "a+b/",  # the standard alphabet's spelling of "a-b_"
    "-+__", "AA/A",
    "AB",  # one byte with nonzero trailing bits: "AA" is its canonical text
    "AAB",  # two bytes, likewise: "AAA"
    "AA==", "AAA=",  # padding
    "A", "AAAAA",  # no byte string has this length
    " AA", "AA\n", "é", 7, b"AA", None,
])
def test_b64u_decode_refuses_noncanonical_text(text):
    with pytest.raises(CanonicalDecodeError):
        b64u_decode(text)


def _random_value(rng: random.Random, depth: int = 0):
    kinds = ["int", "text", "bool", "bytes"]
    if depth < 2:
        kinds += ["map", "list"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(-(2**40), 2**40)
    if kind == "text":
        return "".join(rng.choice("abcdefgh κλμ") for _ in range(rng.randrange(0, 8)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "bytes":
        return rng.randbytes(rng.randrange(0, 12))
    if kind == "list":
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    return {f"k{i}": _random_value(rng, depth + 1) for i in range(rng.randrange(0, 4))}


def test_injective_on_random_corpus():
    # 10,000 distinct-by-construction records -> 10,000 distinct encodings
    rng = random.Random(1234)
    encodings = set()
    for serial in range(10_000):
        value = {"payload": _random_value(rng), "serial": serial}
        encodings.add(canonical_encode(value))
    assert len(encodings) == 10_000


def test_structural_equality_gives_identical_bytes():
    rng = random.Random(99)
    for _ in range(200):
        value = _random_value(rng)
        clone = canonical_decode(canonical_encode(value))
        assert canonical_encode(clone) == canonical_encode(canonical_decode(canonical_encode(value)))


def test_overlapping_writes_of_one_path_both_complete(tmp_path, monkeypatch):
    # each write has its own temporary file: a second write of the path that
    # runs between the first one's write and its rename neither fails the
    # first nor is failed by it, and neither leaves a temporary file behind
    path, real_replace, inner = tmp_path / "doc", os.replace, []

    def replace(src, dst):
        if not inner:
            inner.append(src)
            write_atomic(path, b"inner")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    write_atomic(path, b"outer")
    monkeypatch.undo()
    assert path.read_bytes() == b"outer"
    assert [p.name for p in tmp_path.iterdir()] == ["doc"]
