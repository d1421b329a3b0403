"""BLS12-381 group arithmetic and compressed point serialization.

G1 lives on E/Fq: y^2 = x^3 + 4; G2 on the sextic twist E'/Fq2:
y^2 = x^3 + 4(1+u). Affine points are (x, y) tuples, None is the point at
infinity. Scalar multiplication runs in Jacobian coordinates. Compressed
encodings follow the common 48/96-byte convention (flag bits in the top of
the x coordinate, sign = lexicographically larger y).
"""

from __future__ import annotations

from .fields import (
    BLS_X,
    P,
    FQ2_ZERO,
    XI,
    fq2_add,
    fq2_conj,
    fq2_inv,
    fq2_mul,
    fq2_neg,
    fq2_pow,
    fq2_scalar,
    fq2_sqr,
    fq2_sqrt,
    fq2_sub,
    fq_inv,
    fq_sqrt,
)

B1 = 4
B2 = (4, 4)

G1_GEN = (
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
)
G2_GEN = (
    (
        0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
        0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
    ),
    (
        0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
        0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
    ),
)


class PointDecodeError(ValueError):
    """Byte sequence is not a valid compressed group element."""


# G1: ints mod P


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def g1_is_on_curve(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + B1)) % P == 0


def g1_add(p1, p2):
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    return _g1_jac_to_affine(_g1_jac_add((p1[0], p1[1], 1), p2[0], p2[1]))


def g1_mul(pt, k: int):
    """Scalar multiplication in Jacobian coordinates.

    The scalar is deliberately not reduced mod the group order: the subgroup
    membership check multiplies by the order itself and must see it.
    """
    if k < 0:
        return g1_neg(g1_mul(pt, -k))
    if pt is None or k == 0:
        return None
    X, Y, Z = pt[0], pt[1], 1
    acc = None  # (X, Y, Z) or None
    for bit in bin(k)[2:]:
        if acc is not None:
            acc = _g1_jac_double(acc)
        if bit == "1":
            acc = (X, Y, Z) if acc is None else _g1_jac_add(acc, X, Y)
    return _g1_jac_to_affine(acc)


def _g1_jac_double(pt):
    X, Y, Z = pt
    A = X * X % P
    B = Y * Y % P
    C = B * B % P
    D = 2 * ((X + B) * (X + B) - A - C) % P
    E = 3 * A % P
    F = E * E % P
    X3 = (F - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y * Z % P
    return (X3, Y3, Z3)


def _g1_jac_add(pt, x2, y2):
    # mixed addition with an affine point
    X1, Y1, Z1 = pt
    Z1Z1 = Z1 * Z1 % P
    U2 = x2 * Z1Z1 % P
    S2 = y2 * Z1 % P * Z1Z1 % P
    if U2 == X1 and S2 == Y1 % P:
        return _g1_jac_double(pt)
    H = (U2 - X1) % P
    if H == 0:
        return None  # infinity
    HH = H * H % P
    I = 4 * HH % P
    J = H * I % P
    rr = 2 * (S2 - Y1) % P
    V = X1 * I % P
    X3 = (rr * rr - J - 2 * V) % P
    Y3 = (rr * (V - X3) - 2 * Y1 * J) % P
    Z3 = 2 * Z1 * H % P
    return (X3, Y3, Z3)


def _g1_jac_to_affine(pt):
    if pt is None:
        return None
    X, Y, Z = pt
    if Z == 0:
        return None
    zi = fq_inv(Z)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 % P * zi % P)


# phi(x, y) = (beta*x, y) acts on G1 as multiplication by -x^2 mod R (x the
# BLS parameter) for one of the two primitive cube roots of unity beta in Fq
_OMEGA = pow(2, (P - 1) // 3, P)  # 2 is not a cube mod P
_BETA = next(
    b
    for b in (_OMEGA, _OMEGA * _OMEGA % P)
    if g1_mul(g1_mul(G1_GEN, BLS_X), BLS_X) == (b * G1_GEN[0] % P, -G1_GEN[1] % P)
)


def g1_in_subgroup(pt) -> bool:
    """Membership of an affine point in G1: on the curve and phi(P) == -[x^2]P,
    two multiplications by |x| (Scott, ePrint 2021/1130)."""
    if pt is None:
        return True
    if not g1_is_on_curve(pt):
        return False
    x, y = pt
    return g1_mul(g1_mul(pt, BLS_X), BLS_X) == (_BETA * x % P, -y % P)


# G2: Fq2 coordinate tuples


def g2_neg(pt):
    if pt is None:
        return None
    return (pt[0], fq2_neg(pt[1]))


def g2_is_on_curve(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    rhs = fq2_add(fq2_mul(fq2_sqr(x), x), B2)
    return fq2_sqr(y) == rhs


def g2_add(p1, p2):
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    return _g2_jac_to_affine(_g2_jac_add((p1[0], p1[1], (1, 0)), p2[0], p2[1]))


def g2_mul(pt, k: int):
    if k < 0:
        return g2_neg(g2_mul(pt, -k))
    if pt is None or k == 0:
        return None
    x, y = pt
    acc = None
    for bit in bin(k)[2:]:
        if acc is not None:
            acc = _g2_jac_double(acc)
        if bit == "1":
            acc = (x, y, (1, 0)) if acc is None else _g2_jac_add(acc, x, y)
    return _g2_jac_to_affine(acc)


def _g2_jac_double(pt):
    X, Y, Z = pt
    A = fq2_sqr(X)
    B = fq2_sqr(Y)
    C = fq2_sqr(B)
    D = fq2_scalar(fq2_sub(fq2_sub(fq2_sqr(fq2_add(X, B)), A), C), 2)
    E = fq2_scalar(A, 3)
    F = fq2_sqr(E)
    X3 = fq2_sub(F, fq2_scalar(D, 2))
    Y3 = fq2_sub(fq2_mul(E, fq2_sub(D, X3)), fq2_scalar(C, 8))
    Z3 = fq2_scalar(fq2_mul(Y, Z), 2)
    return (X3, Y3, Z3)


def _g2_jac_add(pt, x2, y2):
    X1, Y1, Z1 = pt
    Z1Z1 = fq2_sqr(Z1)
    U2 = fq2_mul(x2, Z1Z1)
    S2 = fq2_mul(fq2_mul(y2, Z1), Z1Z1)
    if U2 == X1 and S2 == Y1:
        return _g2_jac_double(pt)
    H = fq2_sub(U2, X1)
    if H == FQ2_ZERO:
        return None  # infinity
    HH = fq2_sqr(H)
    I = fq2_scalar(HH, 4)
    J = fq2_mul(H, I)
    rr = fq2_scalar(fq2_sub(S2, Y1), 2)
    V = fq2_mul(X1, I)
    X3 = fq2_sub(fq2_sub(fq2_sqr(rr), J), fq2_scalar(V, 2))
    Y3 = fq2_sub(fq2_mul(rr, fq2_sub(V, X3)), fq2_scalar(fq2_mul(Y1, J), 2))
    Z3 = fq2_scalar(fq2_mul(Z1, H), 2)
    return (X3, Y3, Z3)


def _g2_jac_to_affine(pt):
    if pt is None:
        return None
    X, Y, Z = pt
    if Z == FQ2_ZERO:
        return None
    zi = fq2_inv(Z)
    zi2 = fq2_sqr(zi)
    return (fq2_mul(X, zi2), fq2_mul(fq2_mul(Y, zi2), zi))


# psi(x, y) = (conj(x)*cx, conj(y)*cy), untwist-Frobenius-twist, acts on G2 as
# multiplication by x (the BLS parameter, negative) for one of the two
# candidate constant pairs: powers of xi = 1 + u or their inverses
_PSI = next(
    (cx, cy)
    for cx, cy in (
        (fq2_pow(XI, (P - 1) // 3), fq2_pow(XI, (P - 1) // 2)),
        (fq2_inv(fq2_pow(XI, (P - 1) // 3)), fq2_inv(fq2_pow(XI, (P - 1) // 2))),
    )
    if (fq2_mul(fq2_conj(G2_GEN[0]), cx), fq2_mul(fq2_conj(G2_GEN[1]), cy)) == g2_neg(g2_mul(G2_GEN, BLS_X))
)


def g2_in_subgroup(pt) -> bool:
    """Membership of an affine point in G2: on the twist and psi(Q) == -[|x|]Q,
    one multiplication by |x| (Scott, ePrint 2021/1130)."""
    if pt is None:
        return True
    if not g2_is_on_curve(pt):
        return False
    cx, cy = _PSI
    x, y = pt
    return g2_mul(pt, BLS_X) == (fq2_mul(fq2_conj(x), cx), fq2_neg(fq2_mul(fq2_conj(y), cy)))


# compressed serialization

_HALF = (P - 1) // 2


def g1_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([0xC0]) + bytes(47)
    x, y = pt
    raw = bytearray(x.to_bytes(48, "big"))
    raw[0] |= 0x80
    if y > _HALF:
        raw[0] |= 0x20
    return bytes(raw)


def g1_from_bytes(data: bytes):
    x, y_large, is_inf = _split_flags(data, 48)
    if is_inf:
        return None
    if x >= P:
        raise PointDecodeError("G1 x coordinate out of range")
    y = fq_sqrt((x * x % P * x + B1) % P)
    if y is None:
        raise PointDecodeError("G1 x coordinate not on curve")
    if (y > _HALF) != y_large:
        y = P - y
    pt = (x, y)
    if not g1_in_subgroup(pt):
        raise PointDecodeError("G1 point not in the prime-order subgroup")
    return pt


def g2_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([0xC0]) + bytes(95)
    (x0, x1), (y0, y1) = pt
    raw = bytearray(x1.to_bytes(48, "big") + x0.to_bytes(48, "big"))
    raw[0] |= 0x80
    if y1 > _HALF or (y1 == 0 and y0 > _HALF):
        raw[0] |= 0x20
    return bytes(raw)


def g2_from_bytes(data: bytes, check_subgroup: bool = True):
    """Decompress a G2 point; `check_subgroup=False` skips the order check
    for material read back from our own trusted storage."""
    packed, y_large, is_inf = _split_flags(data, 96)
    if is_inf:
        return None
    x1, x0 = divmod(packed, 1 << 384)
    if x0 >= P or x1 >= P:
        raise PointDecodeError("G2 x coordinate out of range")
    x = (x0, x1)
    y = fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), B2))
    if y is None:
        raise PointDecodeError("G2 x coordinate not on curve")
    larger = y[1] > _HALF or (y[1] == 0 and y[0] > _HALF)
    if larger != y_large:
        y = fq2_neg(y)
    pt = (x, y)
    if check_subgroup and not g2_in_subgroup(pt):
        raise PointDecodeError("G2 point not in the prime-order subgroup")
    return pt


def _split_flags(data: bytes, length: int):
    if len(data) != length:
        raise PointDecodeError(f"expected {length} bytes, got {len(data)}")
    first = data[0]
    if not first & 0x80:
        raise PointDecodeError("missing compression flag")
    is_inf = bool(first & 0x40)
    y_large = bool(first & 0x20)
    body = bytes([first & 0x1F]) + data[1:]
    value = int.from_bytes(body, "big")
    if is_inf and (value != 0 or y_large):
        raise PointDecodeError("malformed infinity encoding")
    return value, y_large, is_inf
