"""Optimal ate pairing on BLS12-381, including multi-pair products.

Miller loop: each G2 point walks the bits of |x| on the twist in Jacobian
coordinates (X, Y, Z) = (X/Z^2, Y/Z^3), so no step inverts. Every doubling
and addition step also returns its line through the untwist isomorphism
(x, y) -> (x/w^2, y/w^3), evaluated at the G1 point and scaled by w^3 and by
the step's denominator: l0 + l1*w^2 + l4*w^3, which `fq12_mul_014` multiplies
into the accumulator (Costello-Lange-Naehrig, PKC 2010). Those scale factors
lie in Fq2 or are w^3, and the final exponentiation maps them to 1, so the
pairing equals the one with affine lines bit for bit. `pairing_product`
shares one Miller accumulator and one final exponentiation across several
(G1, G2) pairs, which is what decapsulation wants.

Final exponentiation: the easy part (q^6-1)(q^2+1), then the hard part
Phi_12(q)/r by the exact BLS12 decomposition (Hayashida-Hayasaka-Teruya,
ePrint 2020/875)

    Phi_12(q)/r = lambda*(x+q)*(x^2+q^2-1) + 1,  lambda = (x-1)^2/3,

four cyclotomic exponentiations and three Frobenius maps instead of one
~1,270-bit exponent. It computes this exponent itself, not its triple, so
every target-group value is the same as with the generic exponent.
"""

from __future__ import annotations

from .fields import (
    BLS_X,
    P,
    R,
    FQ12_ONE,
    fq2_add,
    fq2_inv,  # unused; perfbench/tracing.py counts calls through this name
    fq2_mul,
    fq2_scalar,
    fq2_sqr,
    fq2_sub,
    fq12_conj,
    fq12_frob,
    fq12_frob2,
    fq12_inv,
    fq12_mul,
    fq12_mul_014,
    fq12_pow_cyclotomic,
    fq12_sqr,
    fq12_to_ints,
)

_X = -BLS_X  # the BLS parameter
_X_BITS = bin(BLS_X)[3:]  # MSB handled by loop initialization

# hard part of the final exponentiation, exactly Phi_12(q)/r
_LAMBDA, _rem = divmod((_X - 1) ** 2, 3)
assert _rem == 0
assert P**4 - P**2 + 1 == R * (_LAMBDA * (_X + P) * (_X**2 + P**2 - 1) + 1)


def _double_line(t, xp, yp):
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


def _add_line(t, q, xp, yp):
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


def miller_loop_product(pairs) -> tuple:
    """Product of Miller values f_{|x|}(P_i, Q_i), conjugated for x < 0."""
    live = [((p[0] % P, p[1] % P), q) for p, q in pairs if p is not None and q is not None]
    if not live:
        return FQ12_ONE
    ts = [(q[0], q[1], (1, 0)) for _, q in live]
    f = FQ12_ONE
    for bit in _X_BITS:
        f = fq12_sqr(f)
        for i, ((xp, yp), q) in enumerate(live):
            ts[i], line = _double_line(ts[i], xp, yp)
            f = fq12_mul_014(f, *line)
        if bit == "1":
            for i, ((xp, yp), q) in enumerate(live):
                ts[i], line = _add_line(ts[i], q, xp, yp)
                f = fq12_mul_014(f, *line)
    return fq12_conj(f)  # BLS parameter is negative


def final_exponentiation(f) -> tuple:
    f1 = fq12_mul(fq12_conj(f), fq12_inv(f))  # f^(q^6-1)
    f = fq12_mul(fq12_frob2(f1), f1)  # ^(q^2+1): now in the cyclotomic subgroup
    a = fq12_pow_cyclotomic(f, _LAMBDA)
    b = fq12_mul(fq12_pow_cyclotomic(a, _X), fq12_frob(a))  # a^(x+q)
    b_xx = fq12_pow_cyclotomic(fq12_pow_cyclotomic(b, _X), _X)
    c = fq12_mul(fq12_mul(b_xx, fq12_frob2(b)), fq12_conj(b))  # b^(x^2+q^2-1)
    return fq12_mul(c, f)


def pairing(p, q) -> tuple:
    """e(P, Q) for P in G1, Q in G2 (affine, subgroup members)."""
    return final_exponentiation(miller_loop_product([(p, q)]))


def pairing_product(pairs) -> tuple:
    """prod_i e(P_i, Q_i) with a shared loop and one final exponentiation."""
    return final_exponentiation(miller_loop_product(pairs))


def gt_pow(f, e: int) -> tuple:
    """Exponentiation in the pairing target group (cyclotomic subgroup)."""
    return fq12_pow_cyclotomic(f, e % R)


def gt_to_bytes(f) -> bytes:
    """Canonical 576-byte encoding of a target-group element."""
    return b"".join(c.to_bytes(48, "big") for c in fq12_to_ints(f))


def gt_from_bytes(data: bytes) -> tuple:
    if len(data) != 576:
        raise ValueError(f"target-group element must be 576 bytes, got {len(data)}")
    coeffs = [int.from_bytes(data[i * 48 : (i + 1) * 48], "big") for i in range(12)]
    if any(c >= P for c in coeffs):
        raise ValueError("target-group coefficient out of range")
    halves = []
    for h in range(2):
        base = h * 6
        halves.append(tuple((coeffs[base + 2 * j], coeffs[base + 2 * j + 1]) for j in range(3)))
    return (halves[0], halves[1])
