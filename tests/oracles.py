"""Independent oracles the tests check the package against.

Each oracle is implemented from a different source than the code under test:
the HMAC oracle builds the block construction directly on hashlib, the HKDF
oracle uses the `cryptography` library (the package's own HKDF is hand
written on stdlib hmac), and the statistical oracles are direct summations
and simulations. The pairing oracles are the package's earlier, slower
arithmetic: the Fq12 product, square, line product and cyclotomic square
built from Fq2 operations that each reduce their result, which the lazily
reduced routines must match bit for bit, an affine Miller loop with one
field inversion per step, the Jacobian Miller loop that walks the G2 points
themselves rather than their prepared lines, a final exponentiation by the
generic hard-part exponent with plain Fq12 squaring, the G1 and G2 subgroup
checks by multiplication with the group order, the affine chord-and-tangent
point additions, and the variable-base encapsulation, which multiplies the
identity points F1 and F2 by double-and-add and raises Omega by cyclotomic
square-and-multiply, and the variable-base delegation, which builds F2(T) in
G2 from the delegation points, decoded unchecked, and multiplies it and ghat
by double-and-add. The key-check oracle is the package's earlier randomized
probe: encapsulate fresh, seal a random probe and open it with the day key,
whose bw2 points are decoded unchecked. The table oracles are the package's
earlier table code: the version-1 snapshot codec (canonical JSON records
with a SHA-256 over their canonical re-encoding), the per-bucket digest
tuples a check table once held, the revocation table as a d-tuple of per-
slot entry tuples (built from per-slot lists, appended to by copying the
tuple, scanned slot by slot and packed entry by entry into its record), and
the rollover build that inserts one document at a time into it. The multi-
day rollover is the former `issuer_rollover(state, day, store=store)`, which
rebuilt and published every intermediate day itself. The check-file oracle
is what every publish once wrote: each active credential's day token derived
again and the check table built and encoded from scratch. The recording
transport witnesses what a verifier asks of the publisher: it sees every
request, answered or not, below the client. The serving helper runs a
publication server for one block and then closes its listening socket. """

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import struct
from dataclasses import astuple, dataclass, replace
from itertools import chain

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from revoca import ahibe, service
from revoca.actors.issuer import _build_entry, issuer_publish, issuer_rollover
from revoca.ahibe import pairing_scheme
from revoca.encoding import CanonicalDecodeError, b64u_decode, canonical_decode, canonical_encode
from revoca.pairing import (
    G1_GEN,
    G2_GEN,
    PointDecodeError,
    final_exponentiation,
    g1_add,
    g1_from_bytes,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_from_bytes,
    g2_to_bytes,
    gt_from_bytes,
    gt_pow,
)
from revoca.pairing.curves import g1_is_on_curve, g1_mul, g2_is_on_curve, g2_mul
from revoca.pairing.fields import (
    BLS_X,
    FQ12_ONE,
    FQ2_ZERO,
    P,
    R,
    fq2_add,
    fq2_inv,
    fq2_mul,
    fq2_mul_xi,
    fq2_neg,
    fq2_scalar,
    fq2_sqr,
    fq2_sub,
    fq6_mul_v,
    fq6_sub,
    fq12_conj,
    fq12_frob2,
    fq12_inv,
    fq_inv,
)
from revoca.primitives import AuthFailure, compute_check_digest, derive_day_token, open_sealed, seal
from revoca.tables import (
    CheckSegment,
    CheckTableSnapshot,
    CorruptSnapshotError,
    IntegrityError,
    RevocationDocument,
    RevocationEntry,
    RevocationTableSnapshot,
    SnapshotRecord,
    TableParams,
    build_check_table,
    revocation_associated_data,
    snapshot_to_bytes,
)

_BLOCK = 64


def hmac_sha256_oracle(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA-256 straight from the FIPS 198 block construction."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    inner = hashlib.sha256(bytes(k ^ 0x36 for k in key) + message).digest()
    return hashlib.sha256(bytes(k ^ 0x5C for k in key) + inner).digest()


def hkdf_oracle(ikm: bytes, info: bytes, length: int = 32, salt: bytes | None = None) -> bytes:
    """HKDF-SHA-256 via the cryptography library."""
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(ikm)


def poisson_tail_bound(lam: float, buckets: int, q: float = 0.001) -> int:
    """Smallest k such that with `buckets` independent Poisson(lam) loads,
    P(max load > k) <= q by the union bound."""
    pmf = math.exp(-lam)
    cdf = pmf
    k = 0
    while buckets * (1.0 - cdf) > q:
        k += 1
        pmf *= lam / k
        cdf += pmf
        if k > 10_000:
            raise RuntimeError("tail bound did not converge")
    return k


def balls_into_bins_max(n_balls: int, n_bins: int, trials: int, seed: int = 7) -> int:
    """Largest max-load observed over `trials` random placements."""
    rng = random.Random(seed)
    worst = 0
    for _ in range(trials):
        loads = [0] * n_bins
        for _ in range(n_balls):
            loads[rng.randrange(n_bins)] += 1
        worst = max(worst, max(loads))
    return worst


# eagerly reduced Fq12 arithmetic: every Fq2 result is reduced


def _fq6_add(x, y):
    return (fq2_add(x[0], y[0]), fq2_add(x[1], y[1]), fq2_add(x[2], y[2]))


def fq6_mul_oracle(x, y):
    a0, a1, a2 = x
    b0, b1, b2 = y
    t0 = fq2_mul(a0, b0)
    t1 = fq2_mul(a1, b1)
    t2 = fq2_mul(a2, b2)
    c0 = fq2_add(t0, fq2_mul_xi(fq2_sub(fq2_mul(fq2_add(a1, a2), fq2_add(b1, b2)), fq2_add(t1, t2))))
    c1 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a1), fq2_add(b0, b1)), fq2_add(t0, t1)), fq2_mul_xi(t2))
    c2 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a2), fq2_add(b0, b2)), fq2_add(t0, t2)), t1)
    return (c0, c1, c2)


def fq12_mul_oracle(x, y):
    a0, a1 = x
    b0, b1 = y
    t0 = fq6_mul_oracle(a0, b0)
    t1 = fq6_mul_oracle(a1, b1)
    c1 = fq6_sub(fq6_mul_oracle(_fq6_add(a0, a1), _fq6_add(b0, b1)), _fq6_add(t0, t1))
    return (_fq6_add(t0, fq6_mul_v(t1)), c1)


def fq12_sqr_oracle(x):
    a0, a1 = x
    t = fq6_mul_oracle(a0, a1)
    c0 = fq6_sub(fq6_sub(fq6_mul_oracle(_fq6_add(a0, a1), _fq6_add(a0, fq6_mul_v(a1))), t), fq6_mul_v(t))
    return (c0, _fq6_add(t, t))


def _fq6_mul_01(a, x0, x1):
    # a * (x0 + x1*v)
    a0, a1, a2 = a
    t0 = fq2_mul(a0, x0)
    t1 = fq2_mul(a1, x1)
    return (
        fq2_add(t0, fq2_mul_xi(fq2_mul(a2, x1))),
        fq2_sub(fq2_mul(fq2_add(a0, a1), fq2_add(x0, x1)), fq2_add(t0, t1)),
        fq2_add(t1, fq2_mul(a2, x0)),
    )


def fq12_mul_014_oracle(x, l0, l1, l4):
    """x * ((l0, l1, 0), (0, l4, 0)) by a sparse Karatsuba: 13 Fq2 products."""
    a, b = x
    t0 = _fq6_mul_01(a, l0, l1)
    b0, b1, b2 = b
    t1 = (fq2_mul_xi(fq2_mul(b2, l4)), fq2_mul(b0, l4), fq2_mul(b1, l4))  # b * l4*v
    c1 = fq6_sub(_fq6_mul_01(_fq6_add(a, b), l0, fq2_add(l1, l4)), _fq6_add(t0, t1))
    return (_fq6_add(t0, fq6_mul_v(t1)), c1)


def _fq4_sqr(x0, x1):
    """(x0 + x1*t)^2 in Fq4 = Fq2[t]/(t^2 - xi), coefficients left unreduced."""
    a, b = x0
    c, d = x1
    s = (c + d) * (c - d)  # x1^2 = (s, 2cd); xi * x1^2 = (s - 2cd, s + 2cd)
    cd = 2 * c * d
    ac = a * c
    bd = b * d
    return (
        ((a + b) * (a - b) + s - cd, 2 * a * b + s + cd),
        (2 * (ac - bd), 2 * ((a + b) * (c + d) - ac - bd)),
    )


def fq12_cyclotomic_sqr_oracle(x):
    """Granger-Scott squaring through Fq4 squares; wrong outside the
    cyclotomic subgroup."""
    (c00, c01, c02), (c10, c11, c12) = x
    a0, a1 = _fq4_sqr(c00, c11)  # A = c00 + c11*t
    b0, b1 = _fq4_sqr(c10, c02)  # B = c10 + c02*t
    d0, d1 = _fq4_sqr(c01, c12)  # C = c01 + c12*t
    return (
        (
            ((3 * a0[0] - 2 * c00[0]) % P, (3 * a0[1] - 2 * c00[1]) % P),
            ((3 * b0[0] - 2 * c01[0]) % P, (3 * b0[1] - 2 * c01[1]) % P),
            ((3 * d0[0] - 2 * c02[0]) % P, (3 * d0[1] - 2 * c02[1]) % P),
        ),
        (
            ((3 * (d1[0] - d1[1]) + 2 * c10[0]) % P, (3 * (d1[0] + d1[1]) + 2 * c10[1]) % P),
            ((3 * a1[0] + 2 * c11[0]) % P, (3 * a1[1] + 2 * c11[1]) % P),
            ((3 * b1[0] + 2 * c12[0]) % P, (3 * b1[1] + 2 * c12[1]) % P),
        ),
    )


# pairing

_X_BITS = bin(BLS_X)[3:]  # MSB handled by loop initialization
_HARD_EXP, _rem = divmod(P**4 - P**2 + 1, R)
assert _rem == 0


def _line(t, xp, yp, lam):
    """xi times the line of slope `lam` through twist point T, at G1 point P:
    a sparse Fq12 element with 1, v*w and v^2*w coefficients."""
    xt, yt = t
    c0 = (yp % P, yp % P)  # xi * yp = yp + yp*u
    c1 = fq2_sub(fq2_mul(lam, xt), yt)
    c2 = fq2_neg(fq2_scalar(lam, xp))
    return ((c0, FQ2_ZERO, FQ2_ZERO), (FQ2_ZERO, c1, c2))


def _double_step(t, xp, yp):
    xt, yt = t
    lam = fq2_mul(fq2_scalar(fq2_sqr(xt), 3), fq2_inv(fq2_scalar(yt, 2)))
    line = _line(t, xp, yp, lam)
    x3 = fq2_sub(fq2_sqr(lam), fq2_scalar(xt, 2))
    y3 = fq2_sub(fq2_mul(lam, fq2_sub(xt, x3)), yt)
    return (x3, y3), line


def _add_step(t, q, xp, yp):
    xt, yt = t
    xq, yq = q
    lam = fq2_mul(fq2_sub(yq, yt), fq2_inv(fq2_sub(xq, xt)))
    line = _line(t, xp, yp, lam)
    x3 = fq2_sub(fq2_sub(fq2_sqr(lam), xt), xq)
    y3 = fq2_sub(fq2_mul(lam, fq2_sub(xt, x3)), yt)
    return (x3, y3), line


def miller_loop_oracle(pairs):
    """Affine Miller loop: product of f_{|x|}(P_i, Q_i), conjugated for x < 0."""
    live = [((p[0] % P, p[1] % P), q) for p, q in pairs if p is not None and q is not None]
    if not live:
        return FQ12_ONE
    ts = [q for _, q in live]
    f = FQ12_ONE
    for bit in _X_BITS:
        f = fq12_sqr_oracle(f)
        for i, (pt, q) in enumerate(live):
            ts[i], line = _double_step(ts[i], pt[0], pt[1])
            f = fq12_mul_oracle(f, line)
        if bit == "1":
            for i, (pt, q) in enumerate(live):
                ts[i], line = _add_step(ts[i], q, pt[0], pt[1])
                f = fq12_mul_oracle(f, line)
    return fq12_conj(f)


def _jacobian_double_line(t, xp, yp):
    """2T in Jacobian coordinates, plus the tangent line at T evaluated at P."""
    X, Y, Z = t
    A = fq2_sqr(X)
    B = fq2_sqr(Y)
    C = fq2_sqr(B)
    D = fq2_scalar(fq2_sub(fq2_sqr(fq2_add(X, B)), fq2_add(A, C)), 2)
    E = fq2_scalar(A, 3)
    X3 = fq2_sub(fq2_sqr(E), fq2_scalar(D, 2))
    Y3 = fq2_sub(fq2_mul(E, fq2_sub(D, X3)), fq2_scalar(C, 8))
    Z3 = fq2_scalar(fq2_mul(Y, Z), 2)
    ZZ = fq2_sqr(Z)
    # slope 3X^2/(2YZ); the line is scaled by 2YZ^3 = Z3*ZZ
    line = (
        fq2_sub(fq2_mul(E, X), fq2_scalar(B, 2)),
        fq2_scalar(fq2_mul(E, ZZ), -xp),
        fq2_scalar(fq2_mul(Z3, ZZ), yp),
    )
    return (X3, Y3, Z3), line


def _jacobian_add_line(t, q, xp, yp):
    """T + Q (Q affine) in Jacobian coordinates, plus the chord through T and Q
    evaluated at P."""
    X1, Y1, Z1 = t
    xq, yq = q
    Z1Z1 = fq2_sqr(Z1)
    H = fq2_sub(fq2_mul(xq, Z1Z1), X1)
    rr = fq2_scalar(fq2_sub(fq2_mul(fq2_mul(yq, Z1), Z1Z1), Y1), 2)
    I = fq2_scalar(fq2_sqr(H), 4)
    J = fq2_mul(H, I)
    V = fq2_mul(X1, I)
    X3 = fq2_sub(fq2_sub(fq2_sqr(rr), J), fq2_scalar(V, 2))
    Y3 = fq2_sub(fq2_mul(rr, fq2_sub(V, X3)), fq2_scalar(fq2_mul(Y1, J), 2))
    Z3 = fq2_scalar(fq2_mul(Z1, H), 2)
    # slope rr/Z3; the line is scaled by Z3
    line = (
        fq2_sub(fq2_mul(rr, xq), fq2_mul(Z3, yq)),
        fq2_scalar(rr, -xp),
        fq2_scalar(Z3, yp),
    )
    return (X3, Y3, Z3), line


def miller_loop_points_oracle(pairs):
    """Jacobian Miller loop over raw (G1, G2) point pairs, each G2 point walked
    inside the loop; its Miller values equal the prepared-line loop's bit
    for bit."""
    live = [((p[0] % P, p[1] % P), q) for p, q in pairs if p is not None and q is not None]
    if not live:
        return FQ12_ONE
    ts = [(q[0], q[1], (1, 0)) for _, q in live]
    f = FQ12_ONE
    for bit in _X_BITS:
        f = fq12_sqr_oracle(f)
        for i, ((xp, yp), q) in enumerate(live):
            ts[i], line = _jacobian_double_line(ts[i], xp, yp)
            f = fq12_mul_014_oracle(f, *line)
        if bit == "1":
            for i, ((xp, yp), q) in enumerate(live):
                ts[i], line = _jacobian_add_line(ts[i], q, xp, yp)
                f = fq12_mul_014_oracle(f, *line)
    return fq12_conj(f)


def fq12_pow_oracle(x, e: int):
    """x^e by binary square-and-multiply with the generic Fq12 squaring."""
    result = FQ12_ONE
    for bit in bin(e)[2:]:
        result = fq12_sqr_oracle(result)
        if bit == "1":
            result = fq12_mul_oracle(result, x)
    return result


def final_exponentiation_oracle(f):
    """f^((q^12-1)/r): the easy part, then the hard part as one exponent."""
    f1 = fq12_mul_oracle(fq12_conj(f), fq12_inv(f))  # f^(q^6-1)
    f2 = fq12_mul_oracle(fq12_frob2(f1), f1)  # ^(q^2+1)
    return fq12_pow_oracle(f2, _HARD_EXP)


def pairing_product_oracle(pairs):
    return final_exponentiation_oracle(miller_loop_oracle(pairs))


def g1_in_subgroup_oracle(pt) -> bool:
    return g1_is_on_curve(pt) and g1_mul(pt, R) is None


def g2_in_subgroup_oracle(pt) -> bool:
    return g2_is_on_curve(pt) and g2_mul(pt, R) is None


def g1_add_oracle(p1, p2):
    """Affine chord-and-tangent addition on E/Fq, one inversion."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        lam = 3 * x1 * x1 % P * fq_inv(2 * y1 % P) % P
    else:
        lam = (y2 - y1) * fq_inv((x2 - x1) % P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


def g2_add_oracle(p1, p2):
    """Affine chord-and-tangent addition on the twist E'/Fq2, one inversion."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if fq2_add(y1, y2) == FQ2_ZERO:
            return None
        lam = fq2_mul(fq2_scalar(fq2_sqr(x1), 3), fq2_inv(fq2_scalar(y1, 2)))
    else:
        lam = fq2_mul(fq2_sub(y2, y1), fq2_inv(fq2_sub(x2, x1)))
    x3 = fq2_sub(fq2_sub(fq2_sqr(lam), x1), x2)
    return (x3, fq2_sub(fq2_mul(lam, fq2_sub(x1, x3)), y1))


# variable-base encapsulation


def encap_with_scalar_oracle(mpp, identity, s: int):
    """bw2 encapsulation to `identity` with scalar s: (s*g, s*F1, s*F2) and
    the key of Omega^s, every power taken of the raw decoded element."""
    u10, u11, u20, u21 = (g1_from_bytes(mpp.fields[k]) for k in ("u10", "u11", "u20", "u21"))
    f1 = g1_add(u10, g1_mul(u11, pairing_scheme._root_exponent(identity.root)))
    f2 = g1_add(u20, g1_mul(u21, pairing_scheme._day_exponent(identity.day)))
    header = ahibe.EncapHeader(
        scheme_id=pairing_scheme.SCHEME_ID,
        fields={
            "b": g1_to_bytes(g1_mul(G1_GEN, s)),
            "c1": g1_to_bytes(g1_mul(f1, s)),
            "c2": g1_to_bytes(g1_mul(f2, s)),
        },
    )
    shared = gt_pow(gt_from_bytes(mpp.fields["omega"]), s)
    return header, pairing_scheme._kem_key(shared, header)


def delegate_oracle(hk, day: int, rng):
    """bw2 delegation to `day`: b0 = a0 + r2*F2(day), b2 = r2*ghat, with F2
    built from the delegation points and every product taken of a point."""
    a0 = g2_from_bytes(hk.key_material["a0"], check_subgroup=False)
    d20 = g2_from_bytes(hk.delegation["d20"], check_subgroup=False)
    d21 = g2_from_bytes(hk.delegation["d21"], check_subgroup=False)
    tau = pairing_scheme._day_exponent(day)
    r2 = pairing_scheme._rand_scalar(rng)
    f2 = g2_add(d20, g2_mul(d21, tau))
    b0 = g2_add(a0, g2_mul(f2, r2))
    return ahibe.DayKey(
        scheme_id=pairing_scheme.SCHEME_ID,
        identity=ahibe.IdentityPath(hk.identity.root, day),
        key_material={"b0": g2_to_bytes(b0), "b1": hk.key_material["a1"], "b2": g2_to_bytes(g2_mul(G2_GEN, r2))},
    )


# randomized key probe

_KEY_PROBE_CONTEXT = b"revoca/key-probe/v1"


def _decap_oracle(dk, header) -> bytes:
    """`ahibe.decap`, with bw2 day-key points decoded unchecked and paired by
    the raw-point Miller loop."""
    if dk.scheme_id != pairing_scheme.SCHEME_ID:
        return ahibe.decap(dk, header)
    if header.scheme_id != dk.scheme_id:
        raise ahibe.SchemeError("header and key schemes differ")
    b, c1, c2 = (g1_from_bytes(header.fields[k]) for k in ("b", "c1", "c2"))
    b0, b1, b2 = (g2_from_bytes(dk.key_material[k], check_subgroup=False) for k in ("b0", "b1", "b2"))
    shared = final_exponentiation(miller_loop_points_oracle([(b, b0), (g1_neg(c1), b1), (g1_neg(c2), b2)]))
    return pairing_scheme._kem_key(shared, header)


def probe_key_oracle(mpp, identity, dk, rng) -> bool:
    """Encapsulate to `identity` fresh, seal a random probe under the key and
    check that the day key recovers it."""
    header, key = ahibe.encap(mpp, identity, rng)
    probe = rng(32)
    sealed = seal(key, probe, _KEY_PROBE_CONTEXT, rng)
    try:
        recovered = open_sealed(sealed, _decap_oracle(dk, header), _KEY_PROBE_CONTEXT)
    except (AuthFailure, LookupError, ValueError):
        return False
    return recovered == probe


# version-1 snapshot codec

_KIND_NAMES = {CheckTableSnapshot: "check", CheckSegment: "check-segment", RevocationTableSnapshot: "revocation"}


def _record_digest(rec) -> str:
    core = {k: v for k, v in rec.items() if k != "sha256"}
    return hashlib.sha256(canonical_encode(core)).hexdigest()


def _check_digest_guard(rec, kind: str) -> None:
    try:
        if rec.get("version") != "1" or rec.get("kind") != kind:
            raise CorruptSnapshotError(f"not a version-1 {kind} snapshot")
        if rec["sha256"] != _record_digest(rec):
            raise CorruptSnapshotError("content digest mismatch")
    except (KeyError, TypeError) as exc:
        raise CorruptSnapshotError("malformed snapshot record") from exc


def check_buckets(snapshot) -> tuple:
    """The per-bucket digest tuples of a check table or segment, rebuilt from
    its counts and digest string."""
    buckets, start = [], 0
    for count in snapshot.counts:
        end = start + 32 * count
        buckets.append(tuple(snapshot.digests[i : i + 32] for i in range(start, end, 32)))
        start = end
    return tuple(buckets)


def _counts_and_digests(buckets) -> tuple:
    return tuple(map(len, buckets)), b"".join(chain.from_iterable(buckets))


def snapshot_to_bytes_v1(snapshot) -> bytes:
    rec = {"version": "1", "kind": _KIND_NAMES[type(snapshot)], "day": snapshot.day}
    if type(snapshot) is CheckSegment:
        rec.update(segment_index=snapshot.segment_index, start_bucket=snapshot.start_bucket)
    else:
        rec["params"] = snapshot.params.to_record()
    if type(snapshot) is RevocationTableSnapshot:
        rec["buckets"] = [
            [{"header": ahibe.to_record(entry.header), "body": entry.sealed_body} for entry in bucket]
            for bucket in snapshot.buckets
        ]
    else:
        rec["buckets"] = [list(bucket) for bucket in check_buckets(snapshot)]
    rec["sha256"] = _record_digest(rec)
    return canonical_encode(rec)


def snapshot_from_bytes_v1(data: bytes):
    try:
        rec = canonical_decode(data)
        kind = rec.get("kind") if isinstance(rec, dict) else None
    except CanonicalDecodeError as exc:
        raise CorruptSnapshotError(str(exc)) from exc
    _check_digest_guard(rec, kind)
    if kind == "check-segment":
        buckets = tuple(tuple(b64u_decode(d) for d in bucket) for bucket in rec["buckets"])
        return CheckSegment(rec["day"], rec["segment_index"], rec["start_bucket"], *_counts_and_digests(buckets))
    params = TableParams.from_record(rec["params"])
    if kind == "check":
        buckets = tuple(tuple(b64u_decode(d) for d in bucket) for bucket in rec["buckets"])
        return CheckTableSnapshot(rec["day"], params, *_counts_and_digests(buckets))
    if kind == "revocation":
        entries = [
            (index, RevocationEntry(ahibe.from_record(ahibe.EncapHeader, e["header"]), b64u_decode(e["body"])))
            for index, bucket in enumerate(rec["buckets"])
            for e in bucket
        ]
        return RevocationTableSnapshot.from_entries(params, rec["day"], entries)
    raise CorruptSnapshotError(f"unknown snapshot kind {kind!r}")


# the tuple-of-buckets revocation table


def _entry_head(layout) -> struct.Struct:
    return struct.Struct(">I" + "".join(f"{width}s" for _, width in layout) + "I")


@dataclass(frozen=True)
class BucketTableOracle:
    """A revocation table held as d tuples of RevocationEntry."""

    day: int
    params: TableParams
    buckets: tuple

    @classmethod
    def empty(cls, params: TableParams, day: int) -> "BucketTableOracle":
        return cls(day=day, params=params, buckets=((),) * params.d)

    @classmethod
    def from_entries(cls, params: TableParams, day: int, entries) -> "BucketTableOracle":
        lists = {}
        for index, entry in entries:
            if not 0 <= index < params.d:
                raise IndexError(f"bucket index {index} out of range [0, {params.d})")
            lists.setdefault(index, []).append(entry)
        buckets = [()] * params.d
        for index, bucket in lists.items():
            buckets[index] = tuple(bucket)
        return cls(day=day, params=params, buckets=tuple(buckets))

    def insert(self, index: int, entry: RevocationEntry) -> "BucketTableOracle":
        if not 0 <= index < self.params.d:
            raise IndexError(f"bucket index {index} out of range [0, {self.params.d})")
        buckets = self.buckets[:index] + (self.buckets[index] + (entry,),) + self.buckets[index + 1 :]
        return replace(self, buckets=buckets)

    def scan(self, index: int, dk, root: str, day: int, vc_id: bytes) -> list:
        if not 0 <= index < self.params.d:
            raise IndexError(f"bucket index {index} out of range [0, {self.params.d})")
        associated = revocation_associated_data(root, day, vc_id)
        found = []
        for entry in self.buckets[index]:
            try:
                key = ahibe.decap(dk, entry.header)
            except PointDecodeError as exc:
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
        entries = [(index, entry) for index, bucket in enumerate(self.buckets) if bucket for entry in bucket]
        parts = []
        if entries:
            scheme_id = entries[0][1].header.scheme_id
            layout = ahibe.header_layout(scheme_id)
            widths, head = dict(layout), _entry_head(layout)
            raw_id = scheme_id.encode("utf-8")
            parts.append(bytes([len(raw_id)]) + raw_id)
            for index, entry in entries:
                fields = entry.header.fields
                if entry.header.scheme_id != scheme_id or {n: len(v) for n, v in fields.items()} != widths:
                    raise ValueError("entry header does not fit the table's header layout")
                parts += (head.pack(index, *(fields[name] for name in widths), len(entry.sealed_body)), entry.sealed_body)
        return SnapshotRecord(self.day, (*astuple(self.params), len(entries)), b"".join(parts))


def load_stats(table) -> tuple:
    """(mean, max) overflow-list length of a revocation table."""
    lengths = [len(bucket) for bucket in table.buckets]
    return sum(lengths) / len(lengths), max(lengths)


def rebuild_revocation_oracle(state, day: int) -> BucketTableOracle:
    """The rollover build that copies the table once per inserted document."""
    snapshot = BucketTableOracle.empty(state.params, day)
    for vc_id, record in state.registry.items():
        if not record.active_on(day):
            continue
        for registered in record.documents:
            if registered.published_day > day:
                continue
            index, entry = _build_entry(state, record, vc_id, registered.document, day)
            snapshot = snapshot.insert(index, entry)
    return snapshot


def check_file_oracle(state) -> bytes:
    """The check file of the state's current day, from a full derivation."""
    day = state.current_day
    digests = [
        compute_check_digest(derive_day_token(record.seed, day - record.issued_day), vc_id)
        for vc_id, record in state.registry.items()
        if record.active_on(day)
    ]
    return snapshot_to_bytes(build_check_table(digests, state.params, day))


def rollover_publishing_each_day(state, store, to_day: int) -> None:
    """Roll over one day at a time to `to_day`, publishing each day."""
    for day in range(state.current_day + 1, to_day + 1):
        issuer_rollover(state, day)
        issuer_publish(state, store)


class RecordingTransport:
    """Forwards to a transport and records every request as (path, status,
    body size), whether or not it was answered."""

    def __init__(self, transport):
        self.transport = transport
        self.requests = []

    def get(self, path: str):
        status, reason, body = self.transport.get(path)
        self.requests.append((path, status, len(body)))
        return status, reason, body


@contextlib.contextmanager
def serving(root):
    """A publication server on a free loopback port: yields (server, base
    URL), then stops it and closes its listening socket."""
    server, url = service.serve_in_thread(root)
    try:
        yield server, url
    finally:
        server.shutdown()
        server.server_close()
