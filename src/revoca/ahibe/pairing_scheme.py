"""Production scheme: two-level anonymous identity-based KEM over BLS12-381.

Structure (asymmetric-group variant of the commutative-blinding HIBE family,
anonymity via withheld G2 parameters, cf. Boyen-Waters anonymous HIBE and
Ducas, "Anonymity from Asymmetry", CT-RSA 2010):

* public params: g, u10, u11, u20, u21 in G1 and Omega = e(g, g2_hat)^alpha;
  the G2 copies of the level-1 bases never leave the key authority, so a
  header is untestable against a candidate root under DDH in G1.
* holder key for root H with hash h1: a0 = g2_hat^alpha * F1_hat(H)^r1,
  a1 = ghat^r1, plus the level-2 G2 bases as delegation material (they ship
  inside holder keys, not in the public params).
* day key for (H, T): b0 = a0 * F2_hat(T)^r2, b1 = a1, b2 = ghat^r2 with
  fresh r2. Stripping F2_hat(T)^r2 out of b0 to forge a sibling day is a
  computational Diffie-Hellman instance.
* encapsulation to (H, T): s fresh; header = (g^s, F1(H)^s, F2(T)^s); shared
  key = hash(Omega^s, header). Decapsulation pairs the header against
  (b0, b1, b2); any identity mismatch leaves an uncancelled pairing factor
  and thus a key that fails AEAD authentication downstream.
* key check for (H, T): the decapsulation identity at s = 1,

      e(g, b0) * e(-F1(H), b1) * e(-F2(T), b2) == Omega

  (Boyen-Waters, CRYPTO 2006). Decapsulation raises each pairing to s, so
  for points inside G2 a key passes exactly when it decapsulates every
  honest header for (H, T). It needs no randomness and no encapsulation.

Day-key points are untrusted input: they are decoded with the G2 membership
test psi(Q) == [x]Q (Scott, ePrint 2021/1130), outside of which the identity
above says nothing about decapsulation. Decoded once per day key, their
Miller-loop lines are prepared once too (`pairing.g2_lines`) and shared by
the key check and every `decap` of the scan that follows it. Only
`delegate` decodes a G2 point unchecked: a0, of the holder's own stored key.

Every power the KEM and the key check take has a fixed base: g, u10, u11,
u20, u21 or Omega, the last two factors through s*F1 = s*u10 + (h1*s)*u11
and s*F2 = s*u20 + (tau*s)*u21. `_decode_public` decodes and checks the
params once and builds a fixed-base table (`Comb`) of each of the six, so
`g1_mul` and `gt_pow` become table additions with no doubling or squaring.
The build takes about 100 ms (five G1 tables at about 14 ms, the GT table
at about 30 ms, on a CPython 3.11 host where one double-and-add `g1_mul`
takes 4.6 ms), once per process and params, and the tables hold about
1 MiB. The cache keeps at most four params, so tables cannot pile up.

The G2 products of `setup`, `extract` and `delegate` have fixed bases too:
ghat, d20 and d21, through r2*F2(T) = r2*d20 + (tau*r2)*d21. The table of
ghat is built once per process, those of d20 and d21 once per issuer (at
most four), after the G2 membership test that a comb needs. A G2 table takes
about 30 ms to build and holds about 0.28 MiB; a product from it takes 2 ms
against 11 ms by double-and-add, on the same kind of host.

A day-scoped header component is testable by anyone holding delegation
material; revocation tables are published per day, so the day is public
context anyway. The holder root is what the scheme hides.
"""

from __future__ import annotations

import functools
import hashlib

from ..pairing import (
    G1_GEN,
    G2_GEN,
    PointDecodeError,
    g1_add,
    g1_comb,
    g1_from_bytes,
    g1_mul,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_comb,
    g2_from_bytes,
    g2_lines,
    g2_mul,
    g2_to_bytes,
    gt_comb,
    gt_from_bytes,
    gt_pow,
    gt_to_bytes,
    pairing_product,
)
from ..pairing.fields import FQ12_ONE, R, fq12_frob2, fq12_mul, fq12_pow_cyclotomic
from ..primitives import RandomBytes, hkdf_sha256
# defined in the package before it imports the schemes
from . import DayKey, EncapHeader, HolderKey, MasterPublicParams, MasterSecret, det_randomness

SCHEME_ID = "bw2-bls381-v1"
HEADER_FIELDS = (("b", 48), ("c1", 48), ("c2", 48))  # compressed G1 points

_ROOT_ID_CTX = b"revoca/bw2/root-id/v1"
_DAY_ID_CTX = b"revoca/bw2/day-id/v1"
_KEM_CTX = b"revoca/bw2/kem/v1"

@functools.lru_cache(maxsize=1)
def _base_pairing():
    """e(g, ghat), computed once per process."""
    return pairing_product([(G1_GEN, g2_lines(G2_GEN))])


@functools.lru_cache(maxsize=1)
def _g2_gen_comb():
    """The fixed-base table of ghat, built once per process."""
    return g2_comb(G2_GEN)


@functools.lru_cache(maxsize=4)
def _delegation_combs(d20: bytes, d21: bytes):
    """The fixed-base tables of d20 and d21, decoded with the G2 membership
    test; d21 = O would make F2 independent of the day."""
    points = [g2_from_bytes(raw) for raw in (d20, d21)]
    if None in points:
        raise PointDecodeError("a delegation base is the point at infinity")
    return tuple(g2_comb(pt) for pt in points)


def _rand_scalar(rng: RandomBytes) -> int:
    return 1 + int.from_bytes(rng(48), "big") % (R - 1)


def _scalar_bytes(k: int) -> bytes:
    return k.to_bytes(32, "big")


def _root_exponent(root: str) -> int:
    return int.from_bytes(hkdf_sha256(root.encode("utf-8"), _ROOT_ID_CTX, 48), "big") % R


def _day_exponent(day: int) -> int:
    return int.from_bytes(hkdf_sha256(day.to_bytes(8, "big"), _DAY_ID_CTX, 48), "big") % R


def setup(rng: RandomBytes):
    alpha, z, x10, x11, x20, x21 = (_rand_scalar(rng) for _ in range(6))
    omega = gt_pow(_base_pairing(), alpha * z % R)
    mpp = MasterPublicParams(
        scheme_id=SCHEME_ID,
        fields={
            "u10": g1_to_bytes(g1_mul(G1_GEN, x10)),
            "u11": g1_to_bytes(g1_mul(G1_GEN, x11)),
            "u20": g1_to_bytes(g1_mul(G1_GEN, x20)),
            "u21": g1_to_bytes(g1_mul(G1_GEN, x21)),
            "omega": gt_to_bytes(omega),
        },
    )
    msk = MasterSecret(
        scheme_id=SCHEME_ID,
        fields={
            "alpha": _scalar_bytes(alpha),
            "z": _scalar_bytes(z),
            "x10": _scalar_bytes(x10),
            "x11": _scalar_bytes(x11),
            # level-2 bases go out inside holder keys as delegation material
            "d20": g2_to_bytes(g2_mul(_g2_gen_comb(), x20)),
            "d21": g2_to_bytes(g2_mul(_g2_gen_comb(), x21)),
        },
    )
    return mpp, msk


def extract(msk, identity, rng: RandomBytes):
    alpha = int.from_bytes(msk.fields["alpha"], "big")
    z = int.from_bytes(msk.fields["z"], "big")
    x10 = int.from_bytes(msk.fields["x10"], "big")
    x11 = int.from_bytes(msk.fields["x11"], "big")
    h1 = _root_exponent(identity.root)
    r1 = _rand_scalar(rng)
    a0 = g2_mul(_g2_gen_comb(), z * alpha + (x10 + x11 * h1) * r1)
    a1 = g2_mul(_g2_gen_comb(), r1)
    return HolderKey(
        scheme_id=SCHEME_ID,
        identity=identity,
        key_material={"a0": g2_to_bytes(a0), "a1": g2_to_bytes(a1)},
        delegation={"d20": msk.fields["d20"], "d21": msk.fields["d21"]},
    )


def delegate(hk, identity, rng: RandomBytes):
    a0 = g2_from_bytes(hk.key_material["a0"], check_subgroup=False)
    d20, d21 = _delegation_combs(hk.delegation["d20"], hk.delegation["d21"])
    r2 = _rand_scalar(rng)
    # r2*F2 = r2*d20 + (tau*r2)*d21: fixed bases only
    b0 = g2_add(a0, g2_add(g2_mul(d20, r2), g2_mul(d21, _day_exponent(identity.day) * r2)))
    return DayKey(
        scheme_id=SCHEME_ID,
        identity=identity,
        key_material={
            "b0": g2_to_bytes(b0),
            "b1": hk.key_material["a1"],
            "b2": g2_to_bytes(g2_mul(_g2_gen_comb(), r2)),
        },
    )


def _in_gt(x) -> bool:
    """x lies in the order-R target group and is not 1. The first test,
    x^(q^4+1) == x^(q^2), puts x in the cyclotomic subgroup, the only place
    where `fq12_pow_cyclotomic` (and so `gt_pow`) computes true powers."""
    x_q2 = fq12_frob2(x)
    return fq12_mul(fq12_frob2(x_q2), x) == x_q2 and fq12_pow_cyclotomic(x, R) == FQ12_ONE and x != FQ12_ONE


@functools.lru_cache(maxsize=4)
def _decode_public(u10: bytes, u11: bytes, u20: bytes, u21: bytes, omega: bytes):
    """The fixed-base tables of g, u10, u11, u20, u21 and Omega, decoded,
    checked and built once per params. The G1 bases must not be infinity:
    u11 = O would make F1 independent of the root, u21 = O F2 of the day."""
    omega_gt = gt_from_bytes(omega)
    if not _in_gt(omega_gt):
        raise PointDecodeError("Omega is not a target-group element other than 1")
    points = [g1_from_bytes(raw) for raw in (u10, u11, u20, u21)]
    if None in points:
        raise PointDecodeError("a public G1 base is the point at infinity")
    return (*(g1_comb(pt) for pt in (G1_GEN, *points)), gt_comb(omega_gt))


def _public_combs(mpp):
    fields = mpp.fields
    return _decode_public(*(fields[k] for k in ("u10", "u11", "u20", "u21", "omega")))


def _identity_points(mpp, identity):
    """(F1(root), F2(day), Omega) in G1, G1 and GT."""
    _, u10, u11, u20, u21, omega = _public_combs(mpp)
    # row 0 of a table starts with its base
    f1 = g1_add(u10[0][0], g1_mul(u11, _root_exponent(identity.root)))
    f2 = g1_add(u20[0][0], g1_mul(u21, _day_exponent(identity.day)))
    return f1, f2, omega[0][0]


def _encap_with_scalar(mpp, identity, s: int):
    # s*F1 = s*u10 + (h1*s)*u11 and s*F2 = s*u20 + (tau*s)*u21: fixed bases only
    g, u10, u11, u20, u21, omega = _public_combs(mpp)
    header = EncapHeader(
        scheme_id=SCHEME_ID,
        fields={
            "b": g1_to_bytes(g1_mul(g, s)),
            "c1": g1_to_bytes(g1_add(g1_mul(u10, s), g1_mul(u11, _root_exponent(identity.root) * s))),
            "c2": g1_to_bytes(g1_add(g1_mul(u20, s), g1_mul(u21, _day_exponent(identity.day) * s))),
        },
    )
    shared = gt_pow(omega, s)
    return header, _kem_key(shared, header)


def _kem_key(shared_gt, header) -> bytes:
    return hashlib.sha256(_KEM_CTX + gt_to_bytes(shared_gt) + header.canonical_bytes()).digest()


def encap(mpp, identity, rng: RandomBytes):
    return _encap_with_scalar(mpp, identity, _rand_scalar(rng))


def det_encap(mpp, identity, binding: bytes):
    s = 1 + int.from_bytes(det_randomness(identity, binding), "big") % (R - 1)
    return _encap_with_scalar(mpp, identity, s)


# one entry: a key check and the scan after it use the same day key
@functools.lru_cache(maxsize=1)
def _prepared_lines(b0: bytes, b1: bytes, b2: bytes) -> tuple:
    """The Miller-loop lines of a day key's (b0, b1, b2), each point decoded
    with the G2 membership test."""
    return tuple(g2_lines(g2_from_bytes(raw)) for raw in (b0, b1, b2))


def _day_key_lines(dk) -> tuple:
    material = dk.key_material
    return _prepared_lines(material["b0"], material["b1"], material["b2"])


def probe_key(mpp, identity, dk) -> bool:
    lines0, lines1, lines2 = _day_key_lines(dk)
    f1, f2, omega = _identity_points(mpp, identity)
    return pairing_product([(G1_GEN, lines0), (g1_neg(f1), lines1), (g1_neg(f2), lines2)]) == omega


def decap(dk, header) -> bytes:
    lines0, lines1, lines2 = _day_key_lines(dk)
    b = g1_from_bytes(header.fields["b"])
    c1 = g1_from_bytes(header.fields["c1"])
    c2 = g1_from_bytes(header.fields["c2"])
    shared = pairing_product([(b, lines0), (g1_neg(c1), lines1), (g1_neg(c2), lines2)])
    return _kem_key(shared, header)
