"""Arithmetic kernel: winding weights, divisor identities, cyclotomic exactness."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest
import reference_cyclo as ref_cyclo

from torusloop.arith import (
    chebyshev_T,
    divisors,
    gamma_dm_cospoly,
    gamma_v,
    gcd_conv,
    lambda_fsz_cospoly,
    lambda_prime_form,
    mobius,
    ramanujan_sum,
    totient,
    verify_master,
    verify_s1_s2,
)
from torusloop.cyclo import CycloField, CycloNum, cospoly_to_cyclo, gamma_dm_sum


def cos_combination(*weighted) -> dict:
    """sum_i w_i p_i of cosine polynomials p_i = {k: c_k}, zero terms dropped."""
    out: dict = {}
    for w, poly in weighted:
        for k, c in poly.items():
            out[k] = out.get(k, 0) + w * c
    return {k: c for k, c in out.items() if c}


def test_gcd_conventions():
    assert gcd_conv(4, 6) == 2
    assert gcd_conv(5, 0) == 5
    assert gcd_conv(0, 5) == 5
    assert gcd_conv(0, 0) == 0


def test_arith_cache_definitional():
    """The cached mobius, totient and divisors against their definitions."""
    for n in range(1, 61):
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % k for k in range(2, p))]
        squarefree = all(n % (p * p) for p in primes)
        assert mobius(n) == ((-1) ** len(primes) if squarefree else 0)
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_chebyshev_small():
    assert chebyshev_T(0, F(7, 3)) == 1
    assert chebyshev_T(1, F(7, 3)) == F(7, 3)
    # T_3(x) = 4x^3 - 3x at x = 1/2 gives -1 = cos(pi)
    assert chebyshev_T(3, F(1, 2)) == 4 * F(1, 2) ** 3 - 3 * F(1, 2) == -1
    for k in range(8):
        theta = 0.8347
        assert math.isclose(chebyshev_T(k, math.cos(theta)), math.cos(k * theta),
                            abs_tol=1e-12)


def test_ramanujan_sum_definition():
    for q in range(1, 13):
        for m in range(-6, 13):
            direct = sum(cmath.exp(2j * math.pi * k * m / q)
                         for k in range(1, q + 1) if math.gcd(k, q) == 1)
            assert abs(direct.imag) < 1e-9
            assert round(direct.real) == ramanujan_sum(q, m)
            assert abs(direct.real - ramanujan_sum(q, m)) < 1e-9


def test_gamma_v_single_term():
    alpha = 1.37
    assert math.isclose(gamma_v(1, alpha, 0)[0], alpha / 2, abs_tol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
@pytest.mark.parametrize("v", [0, 1])
def test_gamma_v_even_in_d(d, v):
    alpha = 0.62
    for m in range(0, 2 * d):
        assert math.isclose(gamma_v(d, alpha, v)[m], gamma_v(-d, alpha, v)[m],
                            abs_tol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("v", [0, 1])
def test_resummation_identity_on_synthetic_data(d, v):
    """sum_x (1+(-1)^{x+v}) T_{gcd(d,x)}(a/2) M_x = sum_m gamma_v(d)[m] Y_m
    with Y_m = sum_x w^{-x} M_x, w = exp(i pi m / d), for arbitrary M_x."""
    rng = random.Random(20240 + d + 10 * v)
    alpha = 1.234
    M = [rng.uniform(-2, 2) for _ in range(2 * d)]
    lhs = sum((1 + (-1) ** ((x + v) % 2)) * chebyshev_T(gcd_conv(d, x), alpha / 2) * M[x]
              for x in range(2 * d))
    rhs = 0j
    for m in range(2 * d):
        Y = sum(cmath.exp(-1j * math.pi * m * x / d) * M[x] for x in range(2 * d))
        rhs += gamma_v(d, alpha, v)[m] * Y
    assert abs(lhs - rhs) < 1e-10


def test_gamma_dm_hand_values():
    # Gamma_{1,0} = cos g, Gamma_{2,1} = (cos 2g - cos g)/2
    for form in (gamma_dm_sum, gamma_dm_cospoly):
        assert form(1, 0) == {1: 1}
        assert form(2, 1) == {2: F(1, 2), 1: F(-1, 2)}


def test_gamma_dm_depends_on_gcd_of_m():
    for d in range(1, 16):
        for m in range(1, 2 * d):
            assert gamma_dm_sum(d, m) == gamma_dm_sum(d, math.gcd(m, d))


def test_gamma_dm_cospoly_matches_the_definition():
    for d in range(1, 21):
        for m in range(0, d + 1):
            assert gamma_dm_cospoly(d, m) == gamma_dm_sum(d, m)


def test_gamma_dm_sum_refuses_roots_that_do_not_sum_to_an_integer(monkeypatch):
    """Grouped by j in place of gcd(d, j), each group is one root of unity,
    irrational for d = 5: the definition raises instead of dropping it."""
    from torusloop import cyclo
    monkeypatch.setattr(cyclo, "gcd_conv", lambda d, j: j)
    with pytest.raises(ArithmeticError, match="not an integer"):
        gamma_dm_sum(5, 1)


def test_lambda_hand_values():
    # Lambda(1,1)/2 = cos g, Lambda(2,2)/2 = (cos 2g - cos g)/2
    for form in (lambda_fsz_cospoly, lambda_prime_form):
        assert form(1, 1) == {1: 1}
        assert form(2, 2) == {2: F(1, 2), 1: F(-1, 2)}


def test_lambda_two_forms_agree():
    for M in range(1, 25):
        for N in divisors(M):
            assert lambda_fsz_cospoly(M, N) == lambda_prime_form(M, N)


def test_s1_s2_small_and_medium():
    assert verify_s1_s2(1, 10)
    assert verify_s1_s2(6, 20)
    for d in range(1, 13):
        assert verify_s1_s2(d, 25)


def test_master_identity():
    assert verify_master(1, 1)
    assert verify_master(2, 4)
    assert verify_master(6, 35)
    for a in range(1, 11):
        for l in range(1, 51):
            assert verify_master(a, l)


def test_sum_lambda_restructuring():
    # sum_{k=1..n} Gamma_{k d/n, d} = sum_{r|n} phi(n/r) Gamma_{r d/n, d}
    for d in (4, 6, 12, 18):
        for n in divisors(d):
            lhs = cos_combination(*((1, gamma_dm_sum(d, k * d // n)) for k in range(1, n + 1)))
            rhs = cos_combination(*((totient(n // r), gamma_dm_sum(d, r * d // n))
                                    for r in divisors(n)))
            assert lhs == rhs


def gamma_via_mobius_inversion(d: int, n: int) -> dict:
    """Gamma_{d/n, d} from the Moebius-inverted divisor form, for n | d.

    phi(n) Gamma_{d/n, d} = sum_{a|n} mu(a) (n/(a d)) sum_{l=1..a d/n}
                            cos(gcd(a d/n, l) * (n/a) * gamma).
    """
    if d % n:
        raise ValueError("n must divide d")
    terms = []
    for a in divisors(n):
        top = a * d // n
        weight = F(mobius(a) * n, a * d * totient(n))
        terms += [(weight, {math.gcd(top, l) * (n // a): 1}) for l in range(1, top + 1)]
    return cos_combination(*terms)


def gamma_via_totient_form(d: int, n: int) -> dict:
    """Gamma_{d/n, d} from the fully reduced divisor/totient form, for n | d."""
    if d % n:
        raise ValueError("n must divide d")
    terms = []
    for a in divisors(n):
        top = a * d // n
        weight = F(mobius(a) * n, a * totient(n) * d)
        terms += [(weight * totient(top // r), {n * r // a: 1}) for r in divisors(top)]
    return cos_combination(*terms)


def test_mobius_inversion_forms_reproduce_gamma():
    for d in range(1, 31):
        for n in divisors(d):
            ref = gamma_dm_sum(d, d // n)
            assert gamma_via_mobius_inversion(d, n) == ref
            assert gamma_via_totient_form(d, n) == ref


def test_cyclotomic_polys():
    assert cyclo_coeffs(1) == (F(-1), F(1))
    assert cyclo_coeffs(2) == (F(1), F(1))
    assert cyclo_coeffs(6) == (F(1), F(-1), F(1))
    assert cyclo_coeffs(10) == (F(1), F(-1), F(1), F(-1), F(1))


def cyclo_coeffs(m):
    from torusloop.cyclo import cyclotomic_poly
    return cyclotomic_poly(m)


def test_cyclo_cosine_arithmetic():
    c1 = cospoly_to_cyclo({1: 1}, 2, 5)  # cos(2 pi/5)
    c2 = cospoly_to_cyclo({2: 1}, 2, 5)  # cos(4 pi/5)
    # cos(2pi/5) + cos(4pi/5) = -1/2, cos(2pi/5)*cos(4pi/5) = -1/4
    assert c1 + c2 == F(-1, 2)
    assert ref_cyclo.mul(c1.coeffs, c2.coeffs, 10) == ref_cyclo.reduce([F(-1, 4)], 10)
    assert math.isclose(float(c1), math.cos(2 * math.pi / 5), abs_tol=1e-12)


def test_cospoly_to_cyclo_degenerate_angles():
    # gamma = 0: every cosine is 1
    val = cospoly_to_cyclo({1: F(2), 3: F(-1, 2)}, 0, 1)
    assert val == F(3, 2)
    # gamma = pi/3: cos k gamma cycles through 1/2, -1/2, -1 ...
    val = cospoly_to_cyclo({1: F(1), 2: F(1)}, 1, 3)
    assert val == 0


@pytest.mark.parametrize("m, den", [(10, 5), (12, 3)])
def test_cospoly_to_cyclo_equals_fresh_reduction(m, den):
    """cos(pi num/den) in Q(zeta_m), as the monomial cos(k gamma) with
    k = m/(2 den) at gamma = pi num/(m/2), equals (zeta^k + zeta^-k)/2 of the
    unreduced angle index k = num m/(2 den), reduced in the field."""
    fld = CycloField(m)
    step = m // (2 * den)
    for num in range(-3 * den - 1, 5 * den + 2):
        k = num * step  # the unreduced angle index
        fresh = CycloNum(fld, fld._reduce([0] * (k % m) + [1])) \
            + CycloNum(fld, fld._reduce([0] * (-k % m) + [1]))
        assert cospoly_to_cyclo({step: 1}, num, m // 2) == fresh * F(1, 2)


@pytest.mark.parametrize("scalar", [3, 0, -1, F(-2, 7), F(5, 3)])
def test_cyclo_scalar_product_matches_field_product(scalar):
    """Scaling by an int or Fraction equals the reference scaling, zero
    coefficients included, and keeps Fractions."""
    fld = CycloField(12)
    x = CycloNum(fld, (1, 0, -6, 0), 2)  # 1/2 - 3 zeta^2
    for got in (x * scalar, scalar * x):
        assert got.coeffs == ref_cyclo.scale(x.coeffs, scalar)
        assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("value", [3, 0, -1, F(-2, 7), F(5, 3)])
def test_cyclo_rational_hashes_like_its_value(value):
    """A rational element equals its int or Fraction, so sets and dicts
    must find one through the other."""
    for m in (10, 14):
        x = CycloField(m).rational(value)
        assert x == value and hash(x) == hash(value)
        assert value in {x} and x in {value}
        assert {x: 1}[value] == 1
    irrational = cospoly_to_cyclo({1: 1}, 2, 5)
    assert irrational != F(irrational.coeffs[0])
    assert irrational in {irrational + 0}


def test_cyclo_rationals_of_different_fields_are_one_set_element():
    """Equality agrees with the hash: a rational value is one set element
    whichever field, or none, it comes from, in every insertion order."""
    from itertools import permutations
    values = (CycloField(10).rational(3), CycloField(14).rational(3), 3)
    for order in permutations(values):
        assert len(set(order)) == 1, order
    assert CycloField(10).rational(F(1, 2)) != CycloField(14).rational(3)
    # irrational elements of different fields stay unequal
    i4, i8 = CycloNum(CycloField(4), (0, 1)), CycloNum(CycloField(8), (0, 0, 1, 0))
    assert complex(i4) == pytest.approx(complex(i8))
    assert i4 != i8
