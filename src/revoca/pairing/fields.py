"""Tower-field arithmetic for BLS12-381.

Fq2 = Fq[u]/(u^2+1), Fq6 = Fq2[v]/(v^3 - (1+u)), Fq12 = Fq6[w]/(w^2 - v).
Elements are plain ints (Fq) and nested tuples (Fq2/Fq6/Fq12); everything is
a free function. Tuples keep the hot loops fast under CPython while staying
obvious to read.

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


def fq6_add(x, y):
    return (fq2_add(x[0], y[0]), fq2_add(x[1], y[1]), fq2_add(x[2], y[2]))


def fq6_sub(x, y):
    return (fq2_sub(x[0], y[0]), fq2_sub(x[1], y[1]), fq2_sub(x[2], y[2]))


def fq6_neg(x):
    return (fq2_neg(x[0]), fq2_neg(x[1]), fq2_neg(x[2]))


def fq6_mul(x, y):
    a0, a1, a2 = x
    b0, b1, b2 = y
    t0 = fq2_mul(a0, b0)
    t1 = fq2_mul(a1, b1)
    t2 = fq2_mul(a2, b2)
    c0 = fq2_add(t0, fq2_mul_xi(fq2_sub(fq2_mul(fq2_add(a1, a2), fq2_add(b1, b2)), fq2_add(t1, t2))))
    c1 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a1), fq2_add(b0, b1)), fq2_add(t0, t1)), fq2_mul_xi(t2))
    c2 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a2), fq2_add(b0, b2)), fq2_add(t0, t2)), t1)
    return (c0, c1, c2)


def fq6_sqr(x):
    return fq6_mul(x, x)


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
    a0, a1 = x
    b0, b1 = y
    t0 = fq6_mul(a0, b0)
    t1 = fq6_mul(a1, b1)
    c1 = fq6_sub(fq6_mul(fq6_add(a0, a1), fq6_add(b0, b1)), fq6_add(t0, t1))
    return (fq6_add(t0, fq6_mul_v(t1)), c1)


def fq12_sqr(x):
    a0, a1 = x
    t = fq6_mul(a0, a1)
    c0 = fq6_sub(fq6_sub(fq6_mul(fq6_add(a0, a1), fq6_add(a0, fq6_mul_v(a1))), t), fq6_mul_v(t))
    return (c0, fq6_add(t, t))


def fq12_inv(x):
    a0, a1 = x
    t = fq6_inv(fq6_sub(fq6_sqr(a0), fq6_mul_v(fq6_sqr(a1))))
    return (fq6_mul(a0, t), fq6_neg(fq6_mul(a1, t)))


def fq12_conj(x):
    # f^(q^6): negate the w half
    return (x[0], fq6_neg(x[1]))


def fq12_mul_014(x, l0, l1, l4):
    """x * l for the sparse l = ((l0, l1, 0), (0, l4, 0)), a Miller-loop line.

    Karatsuba over Fq12 = Fq6[w] with both halves of l sparse: 13 Fq2
    products instead of the 18 of `fq12_mul`.
    """
    a, b = x
    t0 = _fq6_mul_01(a, l0, l1)
    b0, b1, b2 = b
    t1 = (fq2_mul_xi(fq2_mul(b2, l4)), fq2_mul(b0, l4), fq2_mul(b1, l4))  # b * l4*v
    c1 = fq6_sub(_fq6_mul_01(fq6_add(a, b), l0, fq2_add(l1, l4)), fq6_add(t0, t1))
    return (fq6_add(t0, fq6_mul_v(t1)), c1)


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


def fq12_cyclotomic_sqr(x):
    """x^2 for x in the cyclotomic subgroup (Granger-Scott, PKC 2010).

    With t = w^3, x = A + B*w + C*w^2 over Fq4 = Fq2[t], and then
    x^2 = (3A^2 - 2conj(A)) + (3t*C^2 + 2conj(B))*w + (3B^2 - 2conj(C))*w^2,
    where conj negates the t part: three Fq4 squares in place of a full
    Fq12 square. Wrong for elements outside the subgroup.
    """
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
