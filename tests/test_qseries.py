"""Exact series layer: multiplication contract, Euler products, eta."""

import cmath
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_series import dedekind_eta, euler_product
from torusloop.characters import TauPoint
from torusloop.qseries import (
    BiSeries,
    CutoffMismatchError,
    QSeries,
    euler_inverse,
    eta_inverse,
)


def brute_partitions(n):
    """Count integer partitions of n by explicit recursion."""
    def rec(remaining, maxpart):
        if remaining == 0:
            return 1
        return sum(rec(remaining - k, k) for k in range(1, min(remaining, maxpart) + 1))
    return rec(n, n)


def poly_product(factors, order):
    """Multiply integer-exponent polynomials given as {exp: coeff} dicts."""
    out = {0: F(1)}
    for fac in factors:
        new = {}
        for e1, c1 in out.items():
            for e2, c2 in fac.items():
                if e1 + e2 > order:
                    continue
                new[e1 + e2] = new.get(e1 + e2, F(0)) + c1 * c2
        out = new
    return {e: c for e, c in out.items() if c}


# Both classes implement one truncation contract.  A BiSeries on the
# diagonal q^e qbar^e multiplies, truncates and tracks `valid` exactly as the
# QSeries q^e, so each contract test runs on both through `key`.
KINDS = [(QSeries, lambda e: e), (BiSeries, lambda e: (e, e))]
kinds = pytest.mark.parametrize("cls, key", KINDS, ids=["QSeries", "BiSeries"])


def series(cls, key, terms, cutoff, valid=None):
    """A `cls` series with the terms {key(e): c for e, c in terms}."""
    return cls({key(F(e)): F(c) for e, c in terms.items()}, cutoff, valid)


def test_mul_polynomial_identity():
    cutoff = F(5)
    for cls, key in KINDS:
        a = series(cls, key, {0: 1, 1: 1}, cutoff)   # 1 + q
        b = series(cls, key, {0: 1, 1: -1}, cutoff)  # 1 - q
        prod = a * b
        assert dict(prod.sorted_terms()) == {key(F(0)): F(1), key(F(2)): F(-1)}


def test_mul_identity_element():
    for cls, key in KINDS:
        a = series(cls, key, {F(1, 2): 3, 2: F(-7, 3)}, F(4))
        one = series(cls, key, {0: 1}, F(4))
        assert dict(one.sorted_terms()) == {key(F(0)): F(1)}
        assert (a * one).sorted_terms() == a.sorted_terms()


def test_mul_cutoff_mismatch():
    for cls, key in KINDS:
        a = series(cls, key, {0: 1}, F(3))
        b = series(cls, key, {0: 1}, F(4))
        for combine in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(CutoffMismatchError):
                combine(a, b)


@pytest.mark.parametrize("n, expected", [(4, 5), (5, 7), (10, 42)])
def test_euler_inverse_partition_numbers(n, expected):
    assert brute_partitions(n) == expected  # oracle agrees with frozen value
    inv = euler_inverse(F(12))
    assert inv.coeff(F(n)) == F(expected)


def test_euler_inverse_cutoff_zero():
    assert dict(euler_inverse(F(0)).sorted_terms()) == {F(0): F(1)}


def test_euler_inverse_times_product_is_one():
    K = F(20)
    prod = euler_inverse(K) * euler_product(K)
    assert dict(prod.sorted_terms()) == {F(0): F(1)}


def test_euler_product_against_direct_multiplication():
    # (1-q)(1-q^2)...(1-q^6), multiplied out by a separate routine
    order = 6
    factors = [{0: F(1), n: F(-1)} for n in range(1, order + 1)]
    direct = poly_product(factors, order)
    pent = euler_product(F(order))
    assert {int(e): c for e, c in pent.sorted_terms()} == direct


def test_dedekind_eta_leading_and_low_orders():
    eta = dedekind_eta(F(8))
    assert eta.min_exponent() == F(1, 24)
    assert eta.coeff(F(1, 24)) == F(1)
    assert eta.coeff(F(1, 24) + 1) == F(-1)
    # order-5 coefficient from the direct product (1-q)...(1-q^5)
    factors = [{0: F(1), n: F(-1)} for n in range(1, 6)]
    direct = poly_product(factors, 5)
    assert eta.coeff(F(1, 24) + 5) == direct.get(5, F(0)) == F(1)


def test_eta_inverse_matches_series_inverse():
    K = F(6)
    prod = eta_inverse(K) * dedekind_eta(K)
    # valid order shrinks by the eta-inverse pole at -1/24
    assert prod.coeff(F(0)) == F(1)
    for e, c in prod.sorted_terms():
        if e != 0 and e <= prod.valid:
            assert c == 0


def test_valid_order_tracking_with_negative_exponents():
    K = F(4)
    for cls, key in KINDS:
        a = series(cls, key, {F(-1, 2): 1}, K)    # q^{-1/2}
        b = series(cls, key, {0: 1, 4: 1}, K)
        prod = a * b
        # exact only through K - 1/2: the q^{4} term of b paired with any term
        # of a beyond the window could be missing
        assert prod.valid == K - F(1, 2)
        assert dict(prod.sorted_terms())[key(F(7, 2))] == F(1)


def test_shift_and_truncate():
    a = QSeries({F(0): F(1), F(3): F(2)}, F(4))
    shifted = a.shift(F(2))
    assert dict(shifted.sorted_terms()) == {F(2): F(1)}  # 3+2 exceeds the cutoff
    for cls, key in KINDS:
        a = series(cls, key, {0: 1, 3: 2}, F(4), valid=3)
        tr = a.truncate(F(2))
        assert dict(tr.sorted_terms()) == {key(F(0)): F(1)}
        assert (tr.cutoff, tr.valid) == (2, 2)
        assert a.truncate(F(7, 2)).valid == 3
        with pytest.raises(CutoffMismatchError):
            a.truncate(F(9))


@kinds
def test_add_cancels_terms(cls, key):
    K = F(4)
    a = series(cls, key, {0: 1, 1: 2}, K, valid=3)
    b = series(cls, key, {1: -2, 2: 3}, K)
    total = a + b
    assert dict(total.sorted_terms()) == {key(F(0)): F(1), key(F(2)): F(3)}
    assert total.valid == 3
    assert not a + (-a)


@kinds
def test_neg_sub_and_scale(cls, key):
    K = F(4)
    a = series(cls, key, {0: 1, F(1, 2): -3}, K, valid=2)
    b = series(cls, key, {F(1, 2): 1, 3: 5}, K)
    assert dict((-a).sorted_terms()) == {key(F(0)): F(-1), key(F(1, 2)): F(3)}
    assert (-a).valid == 2
    # negation keeps the keys, so it keeps a least den
    assert -a == series(cls, key, {0: -1, F(1, 2): 3}, K) and (-a).den == a.den == 2
    diff = a - b
    assert dict(diff.sorted_terms()) == {key(F(0)): F(1), key(F(1, 2)): F(-4), key(F(3)): F(-5)}
    assert diff.valid == 2
    assert not a - a
    scaled = a.scale(F(2, 3))
    assert dict(scaled.sorted_terms()) == {key(F(0)): F(2, 3), key(F(1, 2)): F(-2)}
    assert scaled.valid == 2
    assert not a.scale(0)


def test_qseries_never_equals_biseries():
    K = F(3)
    assert QSeries({}, K) != BiSeries({}, K)
    assert QSeries({0: 1}, K) != BiSeries({(0, 0): 1}, K)
    assert QSeries({0: 1}, K) == QSeries({0: 1}, K)
    assert BiSeries({(0, 0): 1}, K) == BiSeries({(0, 0): 1}, K)


def test_evaluate_takes_one_value_per_nome():
    tau = TauPoint(complex(0.7, 0.4))
    q = cmath.exp(2j * math.pi * tau.tau)
    assert cmath.isclose(QSeries({F(1): F(3)}, F(2)).evaluate(tau), 3 * q)
    bi = BiSeries({(F(1), F(2)): F(3)}, F(2))
    assert cmath.isclose(bi.evaluate(tau), 3 * q * q.conjugate() ** 2)
    # one modular point carries both nomes: a second value is refused
    with pytest.raises(TypeError):
        bi.evaluate(tau, tau)
    with pytest.raises(TypeError):
        QSeries({0: 1}, F(2)).evaluate(q, q.conjugate())


def test_coeff_takes_one_exponent_per_nome():
    with pytest.raises(TypeError):
        QSeries({0: 1}, F(2)).coeff(0, 0)
    with pytest.raises(TypeError):
        BiSeries({(0, 0): 1}, F(2)).coeff(0)


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_mul_commutative_associative(ta, tb, tc):
    K = F(8)
    for cls, key in KINDS:
        a, b, c = (series(cls, key, t, K) for t in (ta, tb, tc))
        assert (a * b).sorted_terms() == (b * a).sorted_terms()
        assert ((a * b) * c).sorted_terms() == (a * (b * c)).sorted_terms()


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_mul_matches_brute_convolution(ta, tb):
    K = F(8)
    brute = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            brute[ea + eb] = brute.get(ea + eb, F(0)) + ca * cb
    brute = {e: c for e, c in brute.items() if c and e <= K}
    for cls, key in KINDS:
        prod = series(cls, key, ta, K) * series(cls, key, tb, K)
        assert dict(prod.sorted_terms()) == {key(e): c for e, c in brute.items()}


def test_biseries_product_and_swap():
    K = F(3)
    left = QSeries({F(0): F(1), F(1): F(2)}, K)
    right = QSeries({F(1, 2): F(1)}, K)
    bi = BiSeries.from_product(left, right)
    assert bi.coeff(F(1), F(1, 2)) == F(2)
    assert bi.swap().coeff(F(1, 2), F(1)) == F(2)
    # the swap keeps the key integers, so it keeps a least den
    assert bi.swap() == BiSeries({(F(1, 2), F(0)): F(1), (F(1, 2), F(1)): F(2)}, K)
    assert bi.swap().den == bi.den == 2
    sq = bi * bi
    assert sq.coeff(F(2), F(1)) == F(4)


def test_biseries_window_truncation():
    K = F(2)
    bi = BiSeries({(F(1), F(5)): F(1), (F(1), F(2)): F(3)}, K)
    # the (1,5) term falls outside the square window
    assert dict(bi.sorted_terms()) == {(F(1), F(2)): F(3)}


def _partly_valid(cls, key, K, tail):
    """A series valid through 1 with terms at 1/2, K - 1 and `tail`."""
    return cls({key(F(1, 2)): F(3), key(K - 1): F(5), key(tail): F(7)}, K, valid=1)


@pytest.mark.parametrize("cls, key", [(QSeries, lambda e: e),
                                      (BiSeries, lambda e: (e, F(1, 3)))])
def test_matches_compares_through_smaller_valid(cls, key):
    K = F(4)
    a = _partly_valid(cls, key, K, F(2))
    assert a.valid == 1 < a.cutoff
    # differ only above valid: still a match
    assert a.matches(_partly_valid(cls, key, K, F(5, 2)))
    assert a.matches(cls({key(F(1, 2)): F(3)}, K))
    # differ at or below valid: no match
    assert not a.matches(_partly_valid(cls, key, K, F(1)))
    assert not a.matches(cls({key(F(1, 2)): F(2), key(K - 1): F(5)}, K, valid=1))
    # fully valid with equal terms: a match, and unequal terms anywhere: none
    terms = dict(a.sorted_terms())
    full = cls(terms, K)
    assert full.valid == full.cutoff
    assert full.matches(cls(dict(terms), K))
    assert not full.matches(cls({**terms, key(K): F(1)}, K))


def test_json_serialization_sorted_exact():
    bi = BiSeries({(F(1, 2), F(0)): F(-3, 7), (F(0), F(1)): F(2)}, F(2))
    obj = bi.to_json_obj()
    assert obj == [
        {"qexp": "0/1", "qbarexp": "1/1", "coeff": "2/1"},
        {"qexp": "1/2", "qbarexp": "0/1", "coeff": "-3/7"},
    ]
    assert QSeries({F(1, 2): F(-3, 7)}, F(2)).to_json_obj() == [
        {"qexp": "1/2", "coeff": "-3/7"}]


def test_cyclotomic_coefficients_serialize_to_json():
    """A cyclotomic coefficient is written as its field order and its
    coefficients as "n/d" strings, which read back exactly."""
    from torusloop.conformal import full_Z_series

    full = full_Z_series(1, 2, F(2, 5), 1)
    obj = json.loads(json.dumps(full.to_json_obj()))
    assert len(obj) == len(full.terms)
    for row, ((a, b), c) in zip(obj, full.sorted_terms()):
        assert (F(row["qexp"]), F(row["qbarexp"])) == (a, b)
        assert row["coeff"]["m"] == c.field.m == 10
        assert tuple(F(x) for x in row["coeff"]["coeffs"]) == c.coeffs


@pytest.mark.parametrize("cls, keys", [
    (QSeries, ("1/2", F(1, 2))),
    (QSeries, (1, "2/2")),
    (BiSeries, ((F(1, 2), 0), ("1/2", F(0)))),
])
def test_two_keys_naming_one_exponent_are_refused(cls, keys):
    with pytest.raises(ValueError, match="two keys"):
        cls({keys[0]: F(1), keys[1]: F(2)}, F(2))


def test_rerun_bit_identical():
    a = euler_inverse(F(15))
    b = euler_inverse(F(15))
    assert a == b and a.to_json_obj() == b.to_json_obj()
