"""Integer-numerator cyclotomic arithmetic against the Fraction-tuple reference.

Seeded random elements of Q(zeta_m) go through every operation of `CycloNum`
and of `reference_cyclo`; the results must agree coefficient by coefficient,
stay canonical, and compare and hash like the reference values.  Every
cosine polynomial the series weigh by goes through `cospoly_to_cyclo` and
must equal both the reference element and its value from `math.cos`.
"""

import cmath
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

import reference_cyclo as ref
from torusloop.arith import divisors, gamma_dm_cospoly, lambda_fsz_cospoly
from torusloop.cyclo import CycloField, CycloNum, cospoly_to_cyclo, cyclotomic_poly

ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15)
SCALARS = (0, 1, -3, 7, F(0), F(-2, 7), F(5, 3), F(1, 12))


def _draw(rng, length):
    """A coefficient list of the given length: small Fractions and zeros, and
    sometimes only a rational part."""
    if rng.random() < 0.2:
        return [F(rng.randint(-9, 9), rng.randint(1, 6))] + [0] * (length - 1)
    return [F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0
            for _ in range(length)]


def _element(field, vec):
    """sum_k vec[k] zeta^k as a CycloNum: the numerators over their least common
    denominator, reduced mod Phi_m by the field."""
    den = math.lcm(*(F(c).denominator for c in vec))
    return CycloNum(field, field._reduce([int(F(c) * den) for c in vec]), den)


def _elements(m, count=10):
    """(CycloNum, reference tuple) pairs of Q(zeta_m); some from vectors
    longer than the degree, so the reduction mod Phi_m is exercised."""
    rng = random.Random(1800 + m)
    field = CycloField(m)
    n = field.degree
    out = []
    for i in range(count):
        vec = _draw(rng, n if i % 2 else rng.randint(n, 2 * n + 1))
        out.append((_element(field, vec), ref.reduce(vec, m)))
    return out


def _canonical(x):
    return (len(x.nums) == x.field.degree and x.den > 0
            and math.gcd(x.den, *x.nums) == 1
            and all(type(a) is int for a in x.nums) and type(x.den) is int)


@pytest.mark.parametrize("m", ORDERS)
def test_phi_matches_the_reference(m):
    assert cyclotomic_poly(m) == ref.phi(m)
    assert all(type(c) is int for c in cyclotomic_poly(m))


@pytest.mark.parametrize("m", ORDERS)
def test_arithmetic_matches_the_reference(m):
    """+, -, unary - and scaling by an int or a Fraction agree with the
    Fraction-tuple reference, and every result is canonical."""
    elements = _elements(m)
    for x, rx in elements:
        assert x.coeffs == rx and _canonical(x)
        assert all(type(c) is F for c in x.coeffs)
        got = -x
        assert got.coeffs == ref.neg(rx) and _canonical(got)
        for k in SCALARS:
            for got in (x * k, k * x):
                assert got.coeffs == ref.scale(rx, k) and _canonical(got)
            for got in (x + k, k + x):
                assert got.coeffs == ref.add(rx, ref.reduce([k], m)) and _canonical(got)
    for (x, rx), (y, ry) in product(elements, repeat=2):
        for got, want in ((x + y, ref.add(rx, ry)),
                          (x - y, ref.add(rx, ref.neg(ry)))):
            assert got.coeffs == want and _canonical(got)
        with pytest.raises(TypeError):
            x * y  # a Q-vector: no form multiplies two field elements


@pytest.mark.parametrize("m", ORDERS)
def test_equality_and_hash_match_the_reference(m):
    """== agrees with the reference, equal values hash alike and have equal
    (nums, den), and a rational element hashes like its Fraction."""
    elements = _elements(m)
    # the same values again, each rebuilt another way
    elements += [((x * 3 + x) * F(1, 4), rx) for x, rx in elements[:4]]
    elements += [(x + y - y, rx) for (x, rx), (y, _) in zip(elements, elements[1:5])]
    for (x, rx), (y, ry) in product(elements, repeat=2):
        assert (x == y) == (rx == ry)
        if rx == ry:
            assert (x.nums, x.den) == (y.nums, y.den)
            assert hash(x) == hash(y)
    for x, rx in elements:
        if not any(rx[1:]):
            assert x == rx[0] and hash(x) == hash(rx[0])
        else:
            assert x != rx[0]


def test_equality_across_fields_matches_the_reference():
    """Across fields only rational elements compare, by value, as in the reference."""
    drawn = [(m, x, rx) for m in ORDERS for x, rx in _elements(m, 6)]
    for (m, x, rx), (n, y, ry) in product(drawn, repeat=2):
        assert (x == y) == ref.equal(rx, m, ry, n)
        if x == y:
            assert hash(x) == hash(y)


# the weights of the full partition function and of the O(n) form
COS_POLYS = ([gamma_dm_cospoly(d, g) for d in range(1, 31) for g in divisors(d)]
             + [lambda_fsz_cospoly(M, N) for M in range(1, 25) for N in divisors(M)])


@pytest.mark.parametrize("b", range(1, 13))
def test_cospoly_to_cyclo_matches_the_reference_and_math_cos(b):
    """Every Gamma_{d,g} (d <= 30) and Lambda(M, N)/2 (M <= 24) at gamma = pi
    a/b, |a| <= b (every residue mod 2b), is the reference element
    sum_k c_k (zeta^(ka) + zeta^(-ka))/2, and sum_k c_k cos(k pi a/b) by
    `math.cos` within 1e-12."""
    m = 2 * b
    zeta = [ref.reduce([0] * j + [1], m) for j in range(m)]
    powers = [cmath.exp(1j * math.pi * j / b) for j in range(m)]
    for a in range(-b, b + 1):
        # the reference 2 cos(k pi a/b): integral, since Phi_m is monic
        twice_cos = {}
        for poly in COS_POLYS:
            got = cospoly_to_cyclo(poly, a, b)
            assert got.field is CycloField(m)
            L = math.lcm(*(c.denominator for c in poly.values()))
            want = [0] * len(zeta[0])
            for k, c in poly.items():
                if k not in twice_cos:
                    vec = ref.add(zeta[k * a % m], zeta[-k * a % m])
                    assert all(x.denominator == 1 for x in vec)
                    twice_cos[k] = [int(x) for x in vec]
                w = c.numerator * (L // c.denominator)
                want = [x + w * y for x, y in zip(want, twice_cos[k])]
            # got = want / 2L, by cross-multiplication
            assert [x * 2 * L for x in got.nums] == [x * got.den for x in want], (poly, a)
            value = sum(x * z for x, z in zip(got.nums, powers)) / got.den
            expected = sum(c * math.cos(k * math.pi * a / b) for k, c in poly.items())
            assert abs(value - expected) < 1e-12, (poly, a)
