import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import delegate_oracle, encap_with_scalar_oracle, probe_key_oracle
from test_pairing import G2_COFACTOR, _random_g2_curve_point, _torsion_point

from revoca import ahibe
from revoca.ahibe import pairing_scheme
from revoca.pairing import R, PointDecodeError, g2_mul, g2_to_bytes, gt_to_bytes
from revoca.pairing.fields import FQ12_ONE, P
from revoca.encoding import CanonicalDecodeError, canonical_decode, canonical_encode
from revoca.primitives import AuthFailure, open_sealed, seal
from revoca.sim import CounterRng

SCHEMES = ("test", "standard")
# the public-key scheme pays real pairing costs; property loops shrink accordingly
LOOPS = {"test": 200, "standard": 12}


def _rng(seed: int):
    r = random.Random(seed)
    return lambda n: r.randbytes(n)


@pytest.fixture(scope="module", params=SCHEMES)
def world(request):
    level = request.param
    rng = _rng(1000 + len(level))
    mpp, msk = ahibe.setup(level, rng)
    return level, mpp, msk, rng


class TestIdentityPath:
    def test_levels_and_canonical_text(self):
        root = ahibe.IdentityPath("alice")
        assert root.level == 1 and root.canonical_text() == "alice"
        day = ahibe.IdentityPath("alice", 12)
        assert day.level == 2 and day.canonical_text() == "alice/day:12"

    def test_no_concatenation_ambiguity(self):
        a = ahibe.IdentityPath("a1", 2).canonical_text()
        b = ahibe.IdentityPath("a", 12).canonical_text()
        assert a != b

    def test_rejects_malformed(self):
        with pytest.raises(ahibe.IdentityError):
            ahibe.IdentityPath("")
        with pytest.raises(ahibe.IdentityError):
            ahibe.IdentityPath("x" * 257)
        with pytest.raises(ahibe.IdentityError):
            ahibe.IdentityPath("ok", -1)


class TestSetup:
    def test_scheme_tags(self):
        mpp_t, _ = ahibe.setup("test", _rng(1))
        assert mpp_t.scheme_id == "transparent-v1"
        mpp_s, _ = ahibe.setup("standard", _rng(2))
        assert mpp_s.scheme_id == "bw2-bls381-v1"
        assert ahibe.to_record(mpp_t)[1] == ahibe.to_record(mpp_s)[1] == {"level_bound": 2}

    def test_fresh_master_secrets(self):
        _, msk1 = ahibe.setup("test", _rng(3))
        _, msk2 = ahibe.setup("test", _rng(4))
        assert msk1.fields != msk2.fields

    def test_unknown_level(self):
        with pytest.raises(ahibe.SchemeError):
            ahibe.setup("quantum")

    def test_omega_outside_target_group_rejected(self):
        # on an Fq12 element outside GT, gt_pow does not compute powers, and
        # Omega = 1 makes every KEM key a function of the header alone
        mpp, _ = ahibe.setup("standard", _rng(5))
        r = random.Random(6)
        random_fq12 = b"".join(r.randrange(P).to_bytes(48, "big") for _ in range(12))
        for omega in (random_fq12, gt_to_bytes(FQ12_ONE)):
            forged = dataclasses.replace(mpp, fields={**mpp.fields, "omega": omega})
            with pytest.raises(PointDecodeError):
                ahibe.det_encap(forged, ahibe.IdentityPath("h", 1), b"\x01" * 32)

    def test_public_point_at_infinity_rejected(self):
        # u11 = O makes F1 independent of the root, u21 = O F2 of the day
        rng = _rng(7)
        mpp, msk = ahibe.setup("standard", rng)
        identity = ahibe.IdentityPath("h", 1)
        dk = ahibe.delegate(ahibe.extract(msk, "h", rng), 1, rng)
        assert ahibe.probe_key(mpp, identity, dk)
        for name in ("u10", "u11", "u20", "u21"):
            forged = dataclasses.replace(mpp, fields={**mpp.fields, name: b"\xc0" + bytes(47)})
            with pytest.raises(PointDecodeError):
                ahibe.det_encap(forged, identity, b"\x01" * 32)
            assert not ahibe.probe_key(forged, identity, dk)


class TestKemCorrectness:
    def test_decap_recovers_encapsulated_key(self, world):
        level, mpp, msk, rng = world
        loops = LOOPS[level]
        for i in range(loops):
            root = f"holder-{i}"
            day = i * 3 + 1
            dk = ahibe.delegate(ahibe.extract(msk, root, rng), day, rng)
            identity = ahibe.IdentityPath(root, day)
            header, key = ahibe.encap(mpp, identity, rng)
            assert ahibe.decap(dk, header) == key
            det_header, det_key = ahibe.det_encap(mpp, identity, bytes([i % 256]) * 32)
            assert ahibe.decap(dk, det_header) == det_key

    def test_standard_det_encap_known_answer(self):
        # fixed by the affine Miller loop and the generic final exponentiation
        rng = _rng(2025)
        mpp, msk = ahibe.setup("standard", rng)
        identity = ahibe.IdentityPath("holder-kat", 3)
        header, key = ahibe.det_encap(mpp, identity, b"\x07" * 32)
        assert key.hex() == "f9543afae8255c9836caa524ff4a6c0c52f0f836f6620b7f3d6ceaee537926f4"
        dk = ahibe.delegate(ahibe.extract(msk, "holder-kat", rng), 3, rng)
        assert ahibe.decap(dk, header) == key

    def test_standard_encap_matches_variable_base_oracle(self):
        # the fixed-base tables give the bytes of s*F1, s*F2 and Omega^s
        mpp, _ = ahibe.setup("standard", _rng(8))
        r = random.Random(9)
        for _ in range(3):
            identity = ahibe.IdentityPath(f"holder-{r.randrange(2**32)}", r.randrange(2**20))
            binding = r.randbytes(32)
            s = 1 + int.from_bytes(ahibe.det_randomness(identity, binding), "big") % (R - 1)
            header, key = ahibe.det_encap(mpp, identity, binding)
            oracle_header, oracle_key = encap_with_scalar_oracle(mpp, identity, s)
            assert header.canonical_bytes() == oracle_header.canonical_bytes() and key == oracle_key
            seed = r.randbytes(8)
            header, key = ahibe.encap(mpp, identity, _rng(seed))
            s = pairing_scheme._rand_scalar(_rng(seed))
            oracle_header, oracle_key = encap_with_scalar_oracle(mpp, identity, s)
            assert header.canonical_bytes() == oracle_header.canonical_bytes() and key == oracle_key

    def test_randomized_encap_gives_fresh_headers(self, world):
        _, mpp, msk, rng = world
        identity = ahibe.IdentityPath("holder-r", 4)
        h1, _ = ahibe.encap(mpp, identity, rng)
        h2, _ = ahibe.encap(mpp, identity, rng)
        assert h1.canonical_bytes() != h2.canonical_bytes()

    def test_det_encap_bit_identical_and_binding_sensitive(self, world):
        _, mpp, msk, rng = world
        identity = ahibe.IdentityPath("holder-d", 9)
        binding = b"\x5a" * 32
        h1, k1 = ahibe.det_encap(mpp, identity, binding)
        h2, k2 = ahibe.det_encap(mpp, identity, binding)
        assert h1.canonical_bytes() == h2.canonical_bytes() and k1 == k2
        flipped = bytes([binding[0] ^ 1]) + binding[1:]
        h3, _ = ahibe.det_encap(mpp, identity, flipped)
        assert h3.canonical_bytes() != h1.canonical_bytes()

    def test_det_encap_injective_on_bindings(self, world):
        level, mpp, msk, rng = world
        identity = ahibe.IdentityPath("holder-i", 2)
        count = 10_000 if level == "test" else 200
        headers = {ahibe.det_encap(mpp, identity, i.to_bytes(4, "big"))[0].canonical_bytes() for i in range(count)}
        assert len(headers) == count

    def test_level_and_binding_preconditions(self, world):
        _, mpp, msk, rng = world
        with pytest.raises(ahibe.LevelError):
            ahibe.encap(mpp, ahibe.IdentityPath("level-one"), rng)
        with pytest.raises(ahibe.LevelError):
            ahibe.det_encap(mpp, ahibe.IdentityPath("level-one"), b"x")
        with pytest.raises(ValueError):
            ahibe.det_encap(mpp, ahibe.IdentityPath("ok", 1), b"")


class TestDelegation:
    def test_same_day_delegations_are_interchangeable(self, world):
        _, mpp, msk, rng = world
        hk = ahibe.extract(msk, "holder-x", rng)
        identity = ahibe.IdentityPath("holder-x", 30)
        dk1 = ahibe.delegate(hk, 30, rng)
        dk2 = ahibe.delegate(hk, 30, rng)
        header, key = ahibe.encap(mpp, identity, rng)
        assert ahibe.decap(dk1, header) == ahibe.decap(dk2, header) == key

    def test_wrong_day_or_root_fails_aead_downstream(self, world):
        _, mpp, msk, rng = world
        hk = ahibe.extract(msk, "holder-y", rng)
        identity = ahibe.IdentityPath("holder-y", 30)
        header, key = ahibe.encap(mpp, identity, rng)
        sealed = seal(key, b"payload", b"ad", rng)
        for bad in (
            ahibe.delegate(hk, 31, rng),
            ahibe.delegate(ahibe.extract(msk, "holder-z", rng), 30, rng),
        ):
            with pytest.raises(AuthFailure):
                open_sealed(sealed, ahibe.decap(bad, header), b"ad")

    def test_extract_requires_wellformed_root(self, world):
        _, mpp, msk, rng = world
        with pytest.raises(ahibe.IdentityError):
            ahibe.extract(msk, "", rng)

    def test_day_key_exposes_no_delegation_surface(self, world):
        _, mpp, msk, rng = world
        dk = ahibe.delegate(ahibe.extract(msk, "holder-w", rng), 5, rng)
        assert not hasattr(dk, "delegation")
        with pytest.raises((ahibe.LevelError, AttributeError)):
            ahibe.delegate(dk, 6, rng)

    def test_delegating_level2_identity_rejected(self, world):
        _, mpp, msk, rng = world
        hk = ahibe.extract(msk, "holder-v", rng)
        dk = ahibe.delegate(hk, 1, rng)
        with pytest.raises((ahibe.LevelError, AttributeError)):
            ahibe.delegate(dk, 2, rng)

    def test_standard_delegate_matches_variable_base_oracle(self):
        # the fixed-base tables of d20, d21 and ghat give the bytes of r2*F2(T) and r2*ghat
        mpp, msk = ahibe.setup("standard", _rng(12))
        hk = ahibe.extract(msk, "holder-d", _rng(13))
        r = random.Random(14)
        for day in (0, 1, r.randrange(2**20), r.randrange(2**40)):
            seed = r.randbytes(8)
            dk = ahibe.delegate(hk, day, _rng(seed))
            assert dk == delegate_oracle(hk, day, _rng(seed))
            assert ahibe.probe_key(mpp, ahibe.IdentityPath("holder-d", day), dk)

    def test_standard_keys_known_answer(self):
        # taken with the variable-base setup, extract and delegate
        rng = CounterRng(b"k" * 32)
        mpp, msk = ahibe.setup("standard", rng)
        hk = ahibe.extract(msk, "holder-k", rng)
        keys = hashlib.sha256(b"".join(canonical_encode(ahibe.to_record(obj)) for obj in (mpp, msk, hk)))
        assert keys.hexdigest() == "ee172f2b2abaa663a6155dc34124570ca15a8f02dec6065bdb131ccc6cb49ae9"
        day_keys = hashlib.sha256(b"".join(canonical_encode(ahibe.to_record(ahibe.delegate(hk, day, rng))) for day in range(4)))
        assert day_keys.hexdigest() == "9dac638839133892adad16b1a24fb3b221aba55930ccaa96b5b4f893c205bd11"

    def test_delegation_material_outside_g2_rejected(self):
        # a comb reduces its scalar mod R: delegation points must lie in G2,
        # and d21 = O would make F2 independent of the day
        rng = _rng(15)
        _, msk = ahibe.setup("standard", rng)
        hk = ahibe.extract(msk, "holder-t", rng)
        order13 = g2_to_bytes(_torsion_point(g2_mul, _random_g2_curve_point(random.Random(20)), G2_COFACTOR * R, 13))
        for name in ("d20", "d21"):
            for forged_point in (order13, b"\xc0" + bytes(95)):
                forged = dataclasses.replace(hk, delegation={**hk.delegation, name: forged_point})
                with pytest.raises(PointDecodeError):
                    ahibe.delegate(forged, 1, rng)


class TestProbe:
    def test_probe_matrix(self, world):
        _, mpp, msk, rng = world
        hk = ahibe.extract(msk, "holder-p", rng)
        identity = ahibe.IdentityPath("holder-p", 40)
        assert ahibe.probe_key(mpp, identity, ahibe.delegate(hk, 40, rng)) is True
        assert ahibe.probe_key(mpp, identity, ahibe.delegate(hk, 41, rng)) is False
        other = ahibe.extract(msk, "holder-q", rng)
        assert ahibe.probe_key(mpp, identity, ahibe.delegate(other, 40, rng)) is False

    def test_probe_agrees_with_randomized_oracle(self, world):
        level, mpp, msk, rng = world
        hk = ahibe.extract(msk, "holder-o", rng)
        dk = ahibe.delegate(hk, 50, rng)
        keys = {
            "honest": dk,
            "other-day": ahibe.delegate(hk, 51, rng),
            "other-holder": ahibe.delegate(ahibe.extract(msk, "holder-r", rng), 50, rng),
            "no-material": dataclasses.replace(dk, key_material={}),
        }
        if level == "standard":
            order13 = g2_to_bytes(_torsion_point(g2_mul, _random_g2_curve_point(random.Random(20)), G2_COFACTOR * R, 13))
            for name in ("b0", "b1", "b2"):
                keys[f"order-13-{name}"] = dataclasses.replace(dk, key_material={**dk.key_material, name: order13})
        else:
            keys["random-material"] = dataclasses.replace(dk, key_material={"day_key": rng(32)})
        # the check is made for the verifier's identity; the other-day key names its own day
        identity = ahibe.IdentityPath("holder-o", 50)
        for name, key in keys.items():
            verdict = ahibe.probe_key(mpp, identity, key)
            assert verdict == probe_key_oracle(mpp, identity, key, rng) == (name == "honest"), name

    def test_probe_swallows_scheme_mismatch(self):
        mpp_t, msk_t = ahibe.setup("test", _rng(7))
        mpp_s, msk_s = ahibe.setup("standard", _rng(8))
        dk_standard = ahibe.delegate(ahibe.extract(msk_s, "h", _rng(9)), 1, _rng(10))
        dk_test = ahibe.delegate(ahibe.extract(msk_t, "h", _rng(9)), 1, _rng(10))
        identity = ahibe.IdentityPath("h", 1)
        for mpp, dk in ((mpp_t, dk_standard), (mpp_s, dk_test)):
            assert ahibe.probe_key(mpp, identity, dk) is False
            assert probe_key_oracle(mpp, identity, dk, _rng(11)) is False


class TestAnonymity:
    def test_headers_identically_shaped_and_identity_free(self, world):
        level, mpp, msk, rng = world
        count = 1000 if level == "test" else 50
        identities = [ahibe.IdentityPath(f"holder-anon-{i % 2}", 100 + i % 3) for i in range(count)]
        lengths = set()
        field_names = set()
        for identity in identities:
            header, _ = ahibe.encap(mpp, identity, rng)
            raw = header.canonical_bytes()
            lengths.add(len(raw))
            field_names.add(tuple(sorted(header.fields)))
            assert identity.root.encode() not in raw
            assert identity.canonical_text().encode() not in raw
        assert len(lengths) == 1, "headers must not vary in length with the identity"
        assert len(field_names) == 1, "headers must not vary in structure with the identity"

    def test_det_headers_day_dependent_binding_hides_day_pattern(self, world):
        # deterministic headers for the same identity change with the binding,
        # so per-day bindings make them unlinkable across days
        _, mpp, msk, rng = world
        identity = ahibe.IdentityPath("holder-link", 7)
        h1, _ = ahibe.det_encap(mpp, identity, b"\x01" * 32)
        h2, _ = ahibe.det_encap(mpp, identity, b"\x02" * 32)
        assert h1.canonical_bytes() != h2.canonical_bytes()


class TestSerialization:
    def test_round_trips(self, world):
        _, mpp, msk, rng = world
        hk = ahibe.extract(msk, "holder-s", rng)
        dk = ahibe.delegate(hk, 77, rng)
        header, _ = ahibe.encap(mpp, ahibe.IdentityPath("holder-s", 77), rng)
        # every object crosses a trust boundary as its canonically encoded record
        for obj in (mpp, msk, hk, dk, header):
            raw = canonical_encode(ahibe.to_record(obj))
            assert ahibe.from_record(type(obj), canonical_decode(raw)) == obj
        assert header.canonical_bytes() == canonical_encode(ahibe.to_record(header))

    def test_scheme_tag_leads_the_encoding(self, world):
        _, mpp, msk, rng = world
        raw = canonical_encode(ahibe.to_record(mpp))
        assert raw.startswith(b'["' + mpp.scheme_id.encode())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ahibe.SchemeError):
            ahibe.from_record(ahibe.EncapHeader, ["martian-v9", {}])

    def test_decap_scheme_mismatch_is_decode_error(self):
        mpp_t, msk_t = ahibe.setup("test", _rng(21))
        dk = ahibe.delegate(ahibe.extract(msk_t, "h", _rng(22)), 1, _rng(23))
        mpp_s, msk_s = ahibe.setup("standard", _rng(24))
        header, _ = ahibe.encap(mpp_s, ahibe.IdentityPath("h", 1), _rng(25))
        with pytest.raises(ahibe.SchemeError):
            ahibe.decap(dk, header)


def _wire_records():
    """A decoded record of each of the five classes, keyed by class."""
    rng = _rng(31)
    mpp, msk = ahibe.setup("test", rng)
    hk = ahibe.extract(msk, "holder-w", rng)
    dk = ahibe.delegate(hk, 5, rng)
    header, _ = ahibe.encap(mpp, ahibe.IdentityPath("holder-w", 5), rng)
    return {type(obj): canonical_decode(canonical_encode(ahibe.to_record(obj))) for obj in (mpp, msk, hk, dk, header)}


WIRE = _wire_records()
DECODE_ERRORS = (CanonicalDecodeError, ahibe.SchemeError)


def _replaced(rec, path, value):
    rec = json.loads(json.dumps(rec))
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return rec


@pytest.mark.parametrize("cls, rec", [
    (ahibe.EncapHeader, _replaced(WIRE[ahibe.EncapHeader], [0], ["transparent-v1"])),
    (ahibe.EncapHeader, _replaced(WIRE[ahibe.EncapHeader], [1, "nonce"], "not*base64url")),
    (ahibe.EncapHeader, _replaced(WIRE[ahibe.EncapHeader], [1, "nonce"], 7)),
    (ahibe.EncapHeader, _replaced(WIRE[ahibe.EncapHeader], [1], ["AAAA"])),
    (ahibe.EncapHeader, WIRE[ahibe.EncapHeader] + [{}]),
    (ahibe.EncapHeader, {"scheme": "transparent-v1"}),
    (ahibe.MasterPublicParams, _replaced(WIRE[ahibe.MasterPublicParams], [1], {"level_bound": 3})),
    (ahibe.MasterPublicParams, WIRE[ahibe.MasterSecret]),
    (ahibe.MasterSecret, WIRE[ahibe.MasterSecret][:1]),
    (ahibe.HolderKey, _replaced(WIRE[ahibe.HolderKey], [1], {"day": 3})),
    (ahibe.HolderKey, _replaced(WIRE[ahibe.HolderKey], [1, "root"], "")),
    (ahibe.HolderKey, _replaced(WIRE[ahibe.HolderKey], [1, "root"], "x" * 257)),
    (ahibe.HolderKey, _replaced(WIRE[ahibe.HolderKey], [1, "extra"], 1)),
    (ahibe.DayKey, _replaced(WIRE[ahibe.DayKey], [1, "day"], -1)),
    (ahibe.DayKey, _replaced(WIRE[ahibe.DayKey], [1, "day"], "5")),
    (ahibe.DayKey, _replaced(WIRE[ahibe.DayKey], [1, "day"], True)),
    (ahibe.DayKey, _replaced(WIRE[ahibe.DayKey], [1, "root"], 5)),
], ids=["tag-list", "not-base64url", "value-int", "part-list", "arity-long", "not-a-list",
        "level-bound-3", "secret-as-params", "arity-short", "identity-without-root", "root-empty", "root-long",
        "identity-extra-key", "day-negative", "day-text", "day-bool", "root-int"])
def test_malformed_records_raise_decode_errors(cls, rec):
    with pytest.raises(CanonicalDecodeError):
        ahibe.from_record(cls, rec)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


@settings(max_examples=400, deadline=None)
@given(cls=st.sampled_from(sorted(WIRE, key=lambda c: c.__name__)), data=st.data())
def test_from_record_raises_only_decode_errors(cls, data):
    """A random value, random parts after a valid scheme tag, or a valid record
    with one subtree replaced or deleted either decodes to a `cls` or raises
    CanonicalDecodeError or SchemeError."""
    rec = json.loads(json.dumps(WIRE[cls]))
    how = data.draw(st.sampled_from(["random", "parts", "replace", "delete"]))
    if how == "random":
        rec = data.draw(_JSON)
    elif how == "parts":
        rec[1:] = data.draw(st.lists(_JSON | st.dictionaries(st.text(max_size=6), _JSON), max_size=len(rec)))
    else:
        path = data.draw(st.sampled_from(list(_paths(rec))[1:]))
        parent = rec
        for key in path[:-1]:
            parent = parent[key]
        if how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
    try:
        assert isinstance(ahibe.from_record(cls, rec), cls)
    except DECODE_ERRORS:
        pass
