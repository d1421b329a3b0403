"""Optimal ate pairing on BLS12-381, including multi-pair products.

Miller loop: each G2 point walks the bits of |x| on the twist in Jacobian
coordinates (X, Y, Z) = (X/Z^2, Y/Z^3), so no step inverts. Every doubling
and addition step also yields its line through the untwist isomorphism
(x, y) -> (x/w^2, y/w^3), scaled by w^3 and by the step's denominator:
l0 + l1*w^2 + l4*w^3, which `fq12_mul_014` multiplies into the accumulator
(Costello-Lange-Naehrig, PKC 2010). Those scale factors lie in Fq2 or are
w^3, and the final exponentiation maps them to 1, so the pairing equals the
one with affine lines bit for bit. Only l1 and l4 depend on the G1 point
(xp, yp), and only as the factors xp and yp, so `g2_lines` walks a G2 point
once and stores its lines as evaluated at (1, 1); the Miller loop then only
scales them at each G1 point (Costello-Stebila, "Fixed argument pairings",
LATINCRYPT 2010). A day key's lines serve its key check and every entry a
scan opens. `pairing_product` shares one Miller accumulator and one final
exponentiation across several (G1, G2) pairs, which is what decapsulation
wants.

Final exponentiation: the easy part (q^6-1)(q^2+1), then the hard part
Phi_12(q)/r by the exact BLS12 decomposition (Hayashida-Hayasaka-Teruya,
ePrint 2020/875)

    Phi_12(q)/r = lambda*(x+q)*(x^2+q^2-1) + 1,  lambda = (x-1)^2/3,

four cyclotomic exponentiations and three Frobenius maps instead of one
~1,270-bit exponent. It computes this exponent itself, not its triple, so
every target-group value is the same as with the generic exponent.

`gt_pow` on a `Comb` of a fixed target-group element (`gt_comb`) multiplies
in one table entry per nonzero signed digit of the exponent, with
conjugation (the inverse in GT) for a negative digit, and no squaring.
"""

from __future__ import annotations

from .fields import (
    BLS_X,
    COMB_ROWS,
    P,
    R,
    FQ12_ONE,
    Comb,
    comb_digits,
    fq2_add,
    fq2_inv,  # unused; perfbench/tracing.py counts calls through this name
    fq2_mul,
    fq2_scalar,
    fq2_sqr,
    fq2_sub,
    fq12_conj,
    fq12_cyclotomic_sqr,
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


def _double_line(t):
    """2T in Jacobian coordinates, plus the tangent line at T as evaluated at
    the point (1, 1)."""
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
        fq2_scalar(fq2_mul(E, ZZ), -1),
        fq2_mul(Z3, ZZ),
    )
    return (X3, Y3, Z3), line


def _add_line(t, q):
    """T + Q (Q affine) in Jacobian coordinates, plus the chord through T and Q
    as evaluated at the point (1, 1)."""
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
        fq2_scalar(rr, -1),
        Z3,
    )
    return (X3, Y3, Z3), line


def g2_lines(q):
    """The Miller loop's lines for a fixed G2 point: per step, doublings and
    additions in loop order, the coefficients (l0, l1, l4) of the line as
    evaluated at (1, 1). At a G1 point (xp, yp) that line is (l0, xp*l1,
    yp*l4). None (the point at infinity) has no lines."""
    if q is None:
        return None
    t = (q[0], q[1], (1, 0))
    lines = []
    for bit in _X_BITS:
        t, line = _double_line(t)
        lines.append(line)
        if bit == "1":
            t, line = _add_line(t, q)
            lines.append(line)
    return tuple(lines)


# per Miller-loop step: whether the accumulator is squared first (a doubling)
_SQUARE_FIRST = tuple(square for bit in _X_BITS for square in ((True, False) if bit == "1" else (True,)))


def miller_loop_product(pairs) -> tuple:
    """Product of Miller values f_{|x|}(P_i, Q_i), conjugated for x < 0, over
    (G1 point, `g2_lines(Q_i)`) pairs."""
    live = [(p[0] % P, p[1] % P, lines) for p, lines in pairs if p is not None and lines is not None]
    f = FQ12_ONE
    if not live:
        return f
    for step, square in enumerate(_SQUARE_FIRST):
        if square:
            f = fq12_sqr(f)
        for xp, yp, lines in live:
            l0, l1, l4 = lines[step]
            f = fq12_mul_014(f, l0, fq2_scalar(l1, xp), fq2_scalar(l4, yp))
    return fq12_conj(f)  # BLS parameter is negative


def final_exponentiation(f) -> tuple:
    f1 = fq12_mul(fq12_conj(f), fq12_inv(f))  # f^(q^6-1)
    f = fq12_mul(fq12_frob2(f1), f1)  # ^(q^2+1): now in the cyclotomic subgroup
    a = fq12_pow_cyclotomic(f, _LAMBDA)
    b = fq12_mul(fq12_pow_cyclotomic(a, _X), fq12_frob(a))  # a^(x+q)
    b_xx = fq12_pow_cyclotomic(fq12_pow_cyclotomic(b, _X), _X)
    c = fq12_mul(fq12_mul(b_xx, fq12_frob2(b)), fq12_conj(b))  # b^(x^2+q^2-1)
    return fq12_mul(c, f)


def pairing(p, lines) -> tuple:
    """e(P, Q) for P in G1 (affine) and the lines `g2_lines(Q)` of Q in G2."""
    return final_exponentiation(miller_loop_product([(p, lines)]))


def pairing_product(pairs) -> tuple:
    """prod_i e(P_i, Q_i) over (P_i, `g2_lines(Q_i)`) pairs, with a shared
    loop and one final exponentiation."""
    return final_exponentiation(miller_loop_product(pairs))


def gt_pow(f, e: int) -> tuple:
    """Exponentiation in the pairing target group (cyclotomic subgroup), of an
    element or of a `gt_comb` table; the exponent is reduced mod R."""
    if type(f) is Comb:  # fixed bases ride on this name, which perfbench times as pairing.gt_pow
        acc = FQ12_ONE
        for row, d in zip(f, comb_digits(e)):
            if d:
                entry = row[abs(d) - 1]
                acc = fq12_mul(acc, entry if d > 0 else fq12_conj(entry))
        return acc
    return fq12_pow_cyclotomic(f, e % R)


def gt_comb(f) -> Comb:
    """The fixed-base table of a target-group element: per row the even
    powers of the row's base by cyclotomic squaring, the odd ones by a
    product, and the 16th power, the next row's base, by one more square."""
    rows = []
    base = f
    for _ in range(COMB_ROWS):
        row = [base]
        for j in range(2, 9):
            row.append(fq12_cyclotomic_sqr(row[j // 2 - 1]) if j % 2 == 0 else fq12_mul(row[-1], base))
        rows.append(tuple(row))
        base = fq12_cyclotomic_sqr(row[-1])
    return Comb(rows)


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
