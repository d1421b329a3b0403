"""Independent oracles the tests check the package against.

Each oracle is implemented from a different source than the code under test:
the HMAC oracle builds the block construction directly on hashlib, the HKDF
oracle uses the `cryptography` library (the package's own HKDF is hand
written on stdlib hmac), and the statistical oracles are direct summations
and simulations. The pairing oracles are the package's earlier, slower
arithmetic: an affine Miller loop with one field inversion per step, a final
exponentiation by the generic hard-part exponent with plain Fq12 squaring,
the G1 subgroup check by multiplication with the group order, and the affine
chord-and-tangent point additions.
"""

from __future__ import annotations

import hashlib
import math
import random

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from revoca.pairing.curves import g1_is_on_curve, g1_mul
from revoca.pairing.fields import (
    BLS_X,
    FQ12_ONE,
    FQ2_ZERO,
    P,
    R,
    fq2_add,
    fq2_inv,
    fq2_mul,
    fq2_neg,
    fq2_scalar,
    fq2_sqr,
    fq2_sub,
    fq12_conj,
    fq12_frob2,
    fq12_inv,
    fq12_mul,
    fq12_sqr,
    fq_inv,
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
        f = fq12_sqr(f)
        for i, (pt, q) in enumerate(live):
            ts[i], line = _double_step(ts[i], pt[0], pt[1])
            f = fq12_mul(f, line)
        if bit == "1":
            for i, (pt, q) in enumerate(live):
                ts[i], line = _add_step(ts[i], q, pt[0], pt[1])
                f = fq12_mul(f, line)
    return fq12_conj(f)


def fq12_pow_oracle(x, e: int):
    """x^e by binary square-and-multiply with the generic Fq12 squaring."""
    result = FQ12_ONE
    for bit in bin(e)[2:]:
        result = fq12_sqr(result)
        if bit == "1":
            result = fq12_mul(result, x)
    return result


def final_exponentiation_oracle(f):
    """f^((q^12-1)/r): the easy part, then the hard part as one exponent."""
    f1 = fq12_mul(fq12_conj(f), fq12_inv(f))  # f^(q^6-1)
    f2 = fq12_mul(fq12_frob2(f1), f1)  # ^(q^2+1)
    return fq12_pow_oracle(f2, _HARD_EXP)


def pairing_product_oracle(pairs):
    return final_exponentiation_oracle(miller_loop_oracle(pairs))


def g1_in_subgroup_oracle(pt) -> bool:
    return g1_is_on_curve(pt) and g1_mul(pt, R) is None


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
