import dataclasses
import hashlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    final_exponentiation_oracle,
    fq6_mul_oracle,
    fq12_cyclotomic_sqr_oracle,
    fq12_mul_014_oracle,
    fq12_mul_oracle,
    fq12_sqr_oracle,
    g1_add_oracle,
    g1_in_subgroup_oracle,
    g2_add_oracle,
    g2_in_subgroup_oracle,
    miller_loop_oracle,
    miller_loop_points_oracle,
    pairing_product_oracle,
)

from revoca import ahibe
from revoca.pairing import (
    BLS_X,
    G1_GEN,
    G2_GEN,
    P,
    R,
    PointDecodeError,
    final_exponentiation,
    g1_add,
    g1_comb,
    g1_from_bytes,
    g1_in_subgroup,
    g1_mul,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_comb,
    g2_from_bytes,
    g2_in_subgroup,
    g2_lines,
    g2_mul,
    g2_neg,
    g2_to_bytes,
    gt_comb,
    gt_from_bytes,
    gt_pow,
    gt_to_bytes,
    pairing_product,
)
from revoca.pairing.curves import g1_is_on_curve
from revoca.pairing.fields import (
    COMB_ROWS,
    FQ12_ONE,
    FQ2_ONE,
    FQ2_ZERO,
    comb_digits,
    fq_sqrt,
    fq2_add,
    fq2_inv,
    fq2_mul,
    fq2_scalar,
    fq2_sqrt,
    fq2_sqr,
    fq6_mul,
    fq12_conj,
    fq12_cyclotomic_sqr,
    fq12_frob,
    fq12_inv,
    fq12_mul,
    fq12_mul_014,
    fq12_frob2,
    fq12_sqr,
)
from revoca.pairing.pairing import miller_loop_product

rng = random.Random(2024)

# sha256 of gt_to_bytes(e(G1_GEN, G2_GEN)), fixed by the affine Miller loop and
# the generic final exponentiation; a chain computing the cube would differ
E_GEN_SHA256 = "4b4c07e7d5136bb2947bab11cf26a740cd2aeef4baf3e6f773bfadb5e505f8b4"
# |E(Fq)| = G1_COFACTOR * R and |E'(Fq2)| = G2_COFACTOR * R
G1_COFACTOR = (BLS_X + 1) ** 2 // 3
G2_COFACTOR = 0x5D543A95414E7F1091D50792876A202CD91DE4547085ABAA68A205B2E5A7DDFA628F1CB4D9E82EF21537E293A6691AE1616EC6E786F0C70CF1C38E31C7238E5
GEN_LINES = g2_lines(G2_GEN)


def _lined(pairs):
    """(G1 point, G2 point) pairs as the pairing takes them: G2 points as lines."""
    return [(p, g2_lines(q)) for p, q in pairs]


def _random_fq12(r):
    return tuple(tuple((r.randrange(P), r.randrange(P)) for _ in range(3)) for _ in range(2))


def _random_g1_curve_point(r):
    """A uniformly random point of E(Fq); almost never in G1."""
    while True:
        x = r.randrange(P)
        y = fq_sqrt((x * x * x + 4) % P)
        if y is not None:
            return (x, y)


def _random_g2_curve_point(r):
    while True:
        x = (r.randrange(P), r.randrange(P))
        y = fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), (4, 4)))
        if y is not None:
            return (x, y)


def _torsion_point(mul, pt, order, ell):
    """A point of order exactly `ell` in the group generated by `pt`, or None."""
    while order % ell == 0:
        order //= ell
    q = mul(pt, order)
    for _ in range(3):  # ell^2 is the highest power of 11 or 13 in the cofactors
        if q is None or mul(q, ell) is None:
            return q
        q = mul(q, ell)
    return None


def test_curve_relations():
    # p and r satisfy the BLS12 parameterization by x
    x = -BLS_X
    assert R == x**4 - x**2 + 1
    assert P == (x - 1) ** 2 * R // 3 + x


def test_field_inverses():
    for _ in range(20):
        a = (rng.randrange(1, P), rng.randrange(P))
        assert fq2_mul(a, fq2_inv(a)) == FQ2_ONE


def test_fq2_sqrt_round_trip():
    for _ in range(40):
        a = (rng.randrange(P), rng.randrange(P))
        square = fq2_sqr(a)
        root = fq2_sqrt(square)
        assert root is not None
        assert fq2_sqr(root) == square


def test_fq12_inverse_and_frobenius():
    e = pairing_product([(G1_GEN, GEN_LINES)])
    assert fq12_mul(e, fq12_inv(e)) == FQ12_ONE
    # phi^2 iterated six times is the identity
    f = e
    for _ in range(6):
        f = fq12_frob2(f)
    assert f == e
    x = _random_fq12(random.Random(11))
    assert fq12_frob(fq12_frob(x)) == fq12_frob2(x)
    assert fq12_frob(e) == gt_pow(e, P)


def test_sparse_line_product_matches_dense():
    r = random.Random(12)
    for _ in range(5):
        f = _random_fq12(r)
        l0, l1, l4 = ((r.randrange(P), r.randrange(P)) for _ in range(3))
        dense = ((l0, l1, FQ2_ZERO), (FQ2_ZERO, l4, FQ2_ZERO))
        assert fq12_mul_014(f, l0, l1, l4) == fq12_mul(f, dense)


def test_cyclotomic_square_matches_generic_square_on_gt():
    r = random.Random(13)
    e = pairing_product([(G1_GEN, GEN_LINES)])
    for _ in range(5):
        g = gt_pow(e, r.randrange(1, R))
        assert fq12_cyclotomic_sqr(g) == fq12_sqr(g)
    # any element after the easy part of the final exponentiation qualifies
    x = _random_fq12(r)
    x = fq12_mul(fq12_conj(x), fq12_inv(x))
    x = fq12_mul(fq12_frob2(x), x)
    assert fq12_cyclotomic_sqr(x) == fq12_sqr(x)


# the lazily reduced Fq12 routines against the eagerly reduced oracles, on
# random elements and on coefficients 0, 1 and P-1
EDGE_COEFFS = (0, 1, P - 1)
FQ12_ZERO = ((FQ2_ZERO,) * 3,) * 2
_coeffs = st.one_of(st.sampled_from(EDGE_COEFFS), st.integers(0, P - 1))
_fq2s = st.tuples(_coeffs, _coeffs)
_fq12s = st.tuples(st.tuples(_fq2s, _fq2s, _fq2s), st.tuples(_fq2s, _fq2s, _fq2s))


def _edge_fq12(r):
    return tuple(tuple((r.choice(EDGE_COEFFS), r.choice(EDGE_COEFFS)) for _ in range(3)) for _ in range(2))


def _operands(seed, n):
    """n random elements, n with every coefficient 0, 1 or P-1, and the
    constant ones: zero, one, and every coefficient 1 or P-1."""
    r = random.Random(seed)
    fixed = [FQ12_ZERO, FQ12_ONE] + [((((c, c),) * 3),) * 2 for c in (1, P - 1)]
    return fixed + [_random_fq12(r) for _ in range(n)] + [_edge_fq12(r) for _ in range(n)]


def _to_cyclotomic(x):
    """x^((q^6-1)(q^2+1)) for x != 0, in the cyclotomic subgroup."""
    x = fq12_mul_oracle(fq12_conj(x), fq12_inv(x))
    return fq12_mul_oracle(fq12_frob2(x), x)


def test_fq12_mul_and_sqr_match_eager_oracles():
    xs = _operands(31, 30)
    for x, y in [*zip(xs, _operands(32, 30)), *zip(xs, xs[::-1])]:  # like with like, then random with edge
        assert fq12_mul(x, y) == fq12_mul_oracle(x, y)
        assert fq6_mul(x[1], y[0]) == fq6_mul_oracle(x[1], y[0])
        assert fq12_sqr(x) == fq12_sqr_oracle(x)


def test_line_product_matches_eager_oracles():
    # lines as the Miller loop passes them: a G2 point's prepared lines,
    # scaled by the G1 point's (xp, yp)
    r = random.Random(33)
    points = [(g1_mul(G1_GEN, r.randrange(1, R)), g2_lines(g2_mul(G2_GEN, r.randrange(1, R)))) for _ in range(2)]
    points.append((G1_GEN, GEN_LINES))
    for f in _operands(34, 8):
        (xp, yp), lines = r.choice(points)
        l0, l1, l4 = r.choice(lines)
        line = (l0, fq2_scalar(l1, xp), fq2_scalar(l4, yp))
        dense = ((line[0], line[1], FQ2_ZERO), (FQ2_ZERO, line[2], FQ2_ZERO))
        assert fq12_mul_014(f, *line) == fq12_mul_014_oracle(f, *line) == fq12_mul_oracle(f, dense)
        edge_line = tuple((r.choice(EDGE_COEFFS), r.choice(EDGE_COEFFS)) for _ in range(3))
        assert fq12_mul_014(f, *edge_line) == fq12_mul_014_oracle(f, *edge_line)


def test_cyclotomic_square_matches_eager_oracles():
    r = random.Random(35)
    e = pairing_product([(G1_GEN, GEN_LINES)])
    subgroup = [FQ12_ONE, e, fq12_conj(e)] + [gt_pow(e, r.randrange(1, R)) for _ in range(4)]
    subgroup += [_to_cyclotomic(x) for x in _operands(36, 8) if x != FQ12_ZERO]
    for g in subgroup:
        assert fq12_cyclotomic_sqr(g) == fq12_cyclotomic_sqr_oracle(g) == fq12_sqr_oracle(g)
    # off the subgroup the square is wrong, but the same polynomial as the oracle's
    for x in _operands(37, 8):
        assert fq12_cyclotomic_sqr(x) == fq12_cyclotomic_sqr_oracle(x)


@settings(max_examples=200, deadline=None)
@given(_fq12s, _fq12s)
def test_fq12_mul_property(x, y):
    assert fq12_mul(x, y) == fq12_mul_oracle(x, y)


@settings(max_examples=200, deadline=None)
@given(_fq12s)
def test_fq12_sqr_property(x):
    assert fq12_sqr(x) == fq12_sqr_oracle(x)


@settings(max_examples=200, deadline=None)
@given(_fq12s, _fq2s, _fq2s, _fq2s)
def test_fq12_mul_014_property(x, l0, l1, l4):
    assert fq12_mul_014(x, l0, l1, l4) == fq12_mul_014_oracle(x, l0, l1, l4)


@settings(max_examples=200, deadline=None)
@given(_fq12s)
def test_fq12_cyclotomic_sqr_property(x):
    assume(x != FQ12_ZERO)
    g = _to_cyclotomic(x)
    assert fq12_cyclotomic_sqr(g) == fq12_cyclotomic_sqr_oracle(g) == fq12_sqr_oracle(g)


class TestGroups:
    def test_generators_have_order_r(self):
        assert g1_in_subgroup(G1_GEN) and g1_mul(G1_GEN, R) is None
        assert g2_in_subgroup(G2_GEN) and g2_mul(G2_GEN, R) is None

    def test_group_laws(self):
        a, b = rng.randrange(1, R), rng.randrange(1, R)
        assert g1_mul(G1_GEN, a + b) == g1_add(g1_mul(G1_GEN, a), g1_mul(G1_GEN, b))
        assert g2_mul(G2_GEN, a + b) == g2_add(g2_mul(G2_GEN, a), g2_mul(G2_GEN, b))
        assert g1_add(g1_mul(G1_GEN, a), g1_neg(g1_mul(G1_GEN, a))) is None

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_additions_match_affine_oracles(self, group):
        add, oracle, mul, neg, gen = {
            "g1": (g1_add, g1_add_oracle, g1_mul, g1_neg, G1_GEN),
            "g2": (g2_add, g2_add_oracle, g2_mul, g2_neg, G2_GEN),
        }[group]
        r = random.Random(13)
        points = [mul(gen, r.randrange(1, R)) for _ in range(6)]
        cases = list(zip(points, points[1:]))  # random sums
        cases += [(p, p) for p in points[:2]] + [(p, neg(p)) for p in points[:2]]  # P + P, P + (-P)
        cases += [(None, points[0]), (points[0], None), (None, None)]
        for p, q in cases:
            assert add(p, q) == oracle(p, q)
        assert add(points[0], neg(points[0])) is None and add(None, None) is None

    def test_serialization_round_trips(self):
        for _ in range(10):
            k = rng.randrange(1, R)
            p1 = g1_mul(G1_GEN, k)
            q2 = g2_mul(G2_GEN, k)
            assert g1_from_bytes(g1_to_bytes(p1)) == p1
            assert g2_from_bytes(g2_to_bytes(q2)) == q2
        assert g1_from_bytes(g1_to_bytes(None)) is None
        assert g2_from_bytes(g2_to_bytes(None)) is None

    def test_g1_known_compressed_generator(self):
        # standard compressed encoding of the G1 generator
        assert g1_to_bytes(G1_GEN).hex().startswith("97f1d3a73197d794")

    def test_g1_subgroup_check_matches_oracle(self):
        r = random.Random(14)
        points = [_random_g1_curve_point(r) for _ in range(12)]
        points += [g1_mul(G1_GEN, r.randrange(1, R)) for _ in range(3)]
        points.append(g1_add(points[0], points[-1]))
        for pt in points:
            assert g1_is_on_curve(pt)
            assert g1_in_subgroup(pt) == g1_in_subgroup_oracle(pt)
        assert sum(map(g1_in_subgroup, points)) == 3

    def test_g2_subgroup_check_matches_oracle(self):
        # psi(Q) == [x]Q against the order multiplication [R]Q == O
        r = random.Random(18)
        points = [_random_g2_curve_point(r) for _ in range(8)]
        points += [g2_mul(G2_GEN, r.randrange(1, R)) for _ in range(3)]
        points.append(_torsion_point(g2_mul, _random_g2_curve_point(r), G2_COFACTOR * R, 13))
        points.append(None)
        for pt in points:
            assert g2_in_subgroup(pt) == g2_in_subgroup_oracle(pt)
        assert sum(map(g2_in_subgroup, points)) == 4

    def test_small_order_points_rejected(self):
        r = random.Random(15)
        order3 = (0, 2)
        assert g1_mul(order3, 3) is None and g1_mul(order3, 4) == order3
        order11 = _torsion_point(g1_mul, _random_g1_curve_point(r), G1_COFACTOR * R, 11)
        order13 = _torsion_point(g2_mul, _random_g2_curve_point(r), G2_COFACTOR * R, 13)
        assert order11 is not None and order13 is not None
        for pt in (order3, g1_neg(order3), order11):
            assert not g1_in_subgroup(pt) and not g1_in_subgroup_oracle(pt)
            with pytest.raises(PointDecodeError):
                g1_from_bytes(g1_to_bytes(pt))
        assert g2_mul(order13, 14) == order13
        assert not g2_in_subgroup(order13)
        with pytest.raises(PointDecodeError):
            g2_from_bytes(g2_to_bytes(order13))
        # a small-order day-key point fails the G2 check inside the key
        # probe, which returns False rather than raise
        rb = random.Random(16).randbytes
        mpp, msk = ahibe.setup("standard", rb)
        dk = ahibe.delegate(ahibe.extract(msk, "holder-t", rb), 3, rb)
        for name in ("b0", "b1", "b2"):
            forged = dataclasses.replace(dk, key_material={**dk.key_material, name: g2_to_bytes(order13)})
            assert not ahibe.probe_key(mpp, ahibe.IdentityPath("holder-t", 3), forged)

    def test_decode_rejects_garbage(self):
        with pytest.raises(PointDecodeError):
            g1_from_bytes(b"\x00" * 48)  # missing compression flag
        with pytest.raises(PointDecodeError):
            g1_from_bytes(b"\x80" + b"\xff" * 47)  # x out of range
        with pytest.raises(PointDecodeError):
            g2_from_bytes(b"\x80" + b"\x00" * 94)  # wrong length
        # x coordinate without a curve point
        raw = bytearray(g1_to_bytes(G1_GEN))
        raw[-1] ^= 1
        with pytest.raises(PointDecodeError):
            g1_from_bytes(bytes(raw))


# the edge scalars of the comb path: zero, small, the top digit, and the
# multiples and neighbours of R it reduces away
EDGE_SCALARS = (0, 1, 8, -1, R - 1, R, R + 1, 2**255 - 1, -(2**200 + 12345))


@given(st.integers(min_value=-(2**300), max_value=2**300))
def test_comb_digits_recode_the_scalar_mod_r(k):
    digits = comb_digits(k)
    assert sum(d * 16**i for i, d in enumerate(digits)) % R == k % R
    assert all(-8 <= d < 8 for d in digits)
    assert len(digits) <= COMB_ROWS


class TestFixedBase:
    def test_g1_comb_matches_double_and_add(self):
        r = random.Random(19)
        base = g1_mul(G1_GEN, r.randrange(1, R))
        comb = g1_comb(base)
        assert comb[0][0] == base
        for k in EDGE_SCALARS + tuple(r.randrange(-(2**256), 2**256) for _ in range(6)):
            assert g1_mul(comb, k) == g1_mul(base, k % R)

    def test_g1_comb_sum_through_infinity(self):
        # on a point of order 11 the running sum of table entries returns to
        # infinity whenever a prefix of the digits is 0 mod 11; the comb path
        # must restart there (and double where an entry equals the sum)
        r = random.Random(20)
        order11 = _torsion_point(g1_mul, _random_g1_curve_point(r), G1_COFACTOR * R, 11)
        comb = g1_comb(order11)
        ks = [r.randrange(R) for _ in range(8)]
        passes = 0
        for k in ks:
            digits = comb_digits(k)
            prefixes = [sum(d * 16**i for i, d in enumerate(digits[:j])) for j in range(1, len(digits))]
            passes += any(s != 0 and s % 11 == 0 for s in prefixes)
            assert g1_mul(comb, k) == g1_mul(order11, k)
        assert passes > 0

    def test_g2_comb_matches_double_and_add(self):
        r = random.Random(22)
        # the generator, and a random point of G2: a twist point times the cofactor
        random_point = g2_mul(_random_g2_curve_point(r), G2_COFACTOR)
        assert random_point is not None and g2_in_subgroup(random_point)
        for base in (G2_GEN, random_point):
            comb = g2_comb(base)
            assert comb[0][0] == base
            for k in (16**63,) + EDGE_SCALARS + tuple(r.randrange(-(2**256), 2**256) for _ in range(4)):
                assert g2_mul(comb, k) == g2_mul(base, k % R), k

    def test_gt_comb_matches_square_and_multiply(self):
        r = random.Random(21)
        f = gt_pow(pairing_product([(G1_GEN, GEN_LINES)]), r.randrange(1, R))
        comb = gt_comb(f)
        assert comb[0][0] == f
        for e in EDGE_SCALARS + tuple(r.randrange(-(2**256), 2**256) for _ in range(3)):
            assert gt_pow(comb, e) == gt_pow(f, e)


class TestPairing:
    def test_known_answer(self):
        e = pairing_product([(G1_GEN, GEN_LINES)])
        assert hashlib.sha256(gt_to_bytes(e)).hexdigest() == E_GEN_SHA256

    def test_final_exponentiation_matches_oracle(self):
        r = random.Random(16)
        inputs = [_random_fq12(r) for _ in range(3)]
        pairs = [(g1_mul(G1_GEN, r.randrange(1, R)), g2_mul(G2_GEN, r.randrange(1, R)))]
        inputs += [miller_loop_oracle(pairs), miller_loop_product(_lined(pairs))]
        for f in inputs:
            assert final_exponentiation(f) == final_exponentiation_oracle(f)

    def test_pairing_product_matches_oracle(self):
        r = random.Random(17)
        g1 = [g1_mul(G1_GEN, r.randrange(1, R)) for _ in range(3)]
        g2 = [g2_mul(G2_GEN, r.randrange(1, R)) for _ in range(3)]
        cases = [
            list(zip(g1, g2)),
            [(g1[0], g2[0]), (None, g2[1]), (g1_neg(g1[2]), g2[2])],
            [(g1[1], None), (G1_GEN, G2_GEN)],
            [(None, g2[0])],
            # a twist point outside G2, as an unchecked day key can be
            [(g1[0], _random_g2_curve_point(r)), (g1[1], g2[1])],
        ]
        for pairs in cases:
            assert pairing_product(_lined(pairs)) == pairing_product_oracle(pairs)

    def test_prepared_lines_match_raw_point_loop(self):
        # Miller values, before the final exponentiation, are bit-identical
        r = random.Random(19)
        g1 = [g1_mul(G1_GEN, r.randrange(1, R)) for _ in range(3)]
        g2 = [g2_mul(G2_GEN, r.randrange(1, R)) for _ in range(3)]
        cases = [
            list(zip(g1, g2)),
            [(g1[0], g2[0]), (None, g2[1]), (g1_neg(g1[2]), None)],
            [(None, None)],
            [(g1[0], _random_g2_curve_point(r)), (g1[1], g2[1])],  # a twist point outside G2
        ]
        for pairs in cases:
            assert miller_loop_product(_lined(pairs)) == miller_loop_points_oracle(pairs)

    def test_nondegenerate_and_order_r(self):
        e = pairing_product([(G1_GEN, GEN_LINES)])
        assert e != FQ12_ONE
        assert gt_pow(e, R) == FQ12_ONE

    def test_bilinearity(self):
        e = pairing_product([(G1_GEN, GEN_LINES)])
        for _ in range(3):
            a, b = rng.randrange(2, R), rng.randrange(2, R)
            qb = g2_lines(g2_mul(G2_GEN, b))
            assert pairing_product([(g1_mul(G1_GEN, a), GEN_LINES)]) == gt_pow(e, a)
            assert pairing_product([(G1_GEN, qb)]) == gt_pow(e, b)
            assert pairing_product([(g1_mul(G1_GEN, a), qb)]) == gt_pow(e, a * b % R)

    def test_product_collapses(self):
        a = rng.randrange(2, R)
        pa = g1_mul(G1_GEN, a)
        qb = g2_lines(g2_mul(G2_GEN, rng.randrange(2, R)))
        assert pairing_product([(pa, qb), (g1_neg(pa), qb)]) == FQ12_ONE
        lhs = pairing_product([(pa, GEN_LINES), (G1_GEN, qb)])
        rhs = fq12_mul(pairing_product([(pa, GEN_LINES)]), pairing_product([(G1_GEN, qb)]))
        assert lhs == rhs

    def test_infinity_contributes_nothing(self):
        pa = g1_mul(G1_GEN, 5)
        assert pairing_product([(None, GEN_LINES), (pa, GEN_LINES)]) == pairing_product([(pa, GEN_LINES)])
        assert pairing_product([(None, GEN_LINES)]) == FQ12_ONE
        assert g2_lines(None) is None and pairing_product([(pa, None)]) == FQ12_ONE

    def test_gt_serialization_round_trip(self):
        e = pairing_product([(g1_mul(G1_GEN, 3), g2_lines(g2_mul(G2_GEN, 5)))])
        assert gt_from_bytes(gt_to_bytes(e)) == e
        with pytest.raises(ValueError):
            gt_from_bytes(b"\x00" * 100)

    def test_final_exponentiation_lands_in_order_r_subgroup(self):
        f = pairing_product([(g1_mul(G1_GEN, 7), g2_lines(g2_mul(G2_GEN, 11)))])
        assert gt_pow(f, R) == FQ12_ONE
        assert final_exponentiation(FQ12_ONE) == FQ12_ONE
