"""Exact series layer: multiplication contract, Euler products, eta."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloop.qseries import (
    BiSeries,
    CutoffMismatchError,
    QSeries,
    dedekind_eta,
    euler_inverse,
    euler_product,
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


def test_mul_polynomial_identity():
    cutoff = F(5)
    a = QSeries({F(0): F(1), F(1): F(1)}, cutoff)   # 1 + q
    b = QSeries({F(0): F(1), F(1): F(-1)}, cutoff)  # 1 - q
    prod = a * b
    assert prod.terms == {F(0): F(1), F(2): F(-1)}


def test_mul_identity_element():
    a = QSeries({F(1, 2): F(3), F(2): F(-7, 3)}, F(4))
    one = QSeries.one(F(4))
    assert (a * one).terms == a.terms


def test_mul_cutoff_mismatch():
    a = QSeries.one(F(3))
    b = QSeries.one(F(4))
    with pytest.raises(CutoffMismatchError):
        a * b


@pytest.mark.parametrize("n, expected", [(4, 5), (5, 7), (10, 42)])
def test_euler_inverse_partition_numbers(n, expected):
    assert brute_partitions(n) == expected  # oracle agrees with frozen value
    inv = euler_inverse(F(12))
    assert inv.coeff(F(n)) == F(expected)


def test_euler_inverse_cutoff_zero():
    assert euler_inverse(F(0)).terms == {F(0): F(1)}


def test_euler_inverse_times_product_is_one():
    K = F(20)
    prod = euler_inverse(K) * euler_product(K)
    assert prod.terms == {F(0): F(1)}


def test_euler_product_against_direct_multiplication():
    # (1-q)(1-q^2)...(1-q^6), multiplied out by a separate routine
    order = 6
    factors = [{0: F(1), n: F(-1)} for n in range(1, order + 1)]
    direct = poly_product(factors, order)
    pent = euler_product(F(order))
    assert {int(e): c for e, c in pent.terms.items()} == direct


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
    prod = eta_inverse(K) * QSeries(dedekind_eta(K + 1).terms, K)
    # valid order shrinks by the eta-inverse pole at -1/24
    assert prod.coeff(F(0)) == F(1)
    for e, c in prod.terms.items():
        if e != 0 and e <= prod.valid:
            assert c == 0


def test_valid_order_tracking_with_negative_exponents():
    K = F(4)
    a = QSeries({F(-1, 2): F(1)}, K)    # q^{-1/2}
    b = QSeries({F(0): F(1), F(4): F(1)}, K)
    prod = a * b
    # exact only through K - 1/2: the q^{4} term of b paired with any term of a
    # beyond the window could be missing
    assert prod.valid == K - F(1, 2)
    assert prod.coeff(F(7, 2)) == F(1)


def test_shift_and_truncate():
    a = QSeries({F(0): F(1), F(3): F(2)}, F(4))
    shifted = a.shift(F(2))
    assert shifted.terms == {F(2): F(1)}  # 3+2 exceeds the cutoff
    tr = a.truncate(F(2))
    assert tr.terms == {F(0): F(1)}
    with pytest.raises(CutoffMismatchError):
        a.truncate(F(9))


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_mul_commutative_associative(ta, tb, tc):
    K = F(8)
    a, b, c = QSeries(ta, K), QSeries(tb, K), QSeries(tc, K)
    assert (a * b).terms == (b * a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_mul_matches_brute_convolution(ta, tb):
    K = F(8)
    prod = QSeries(ta, K) * QSeries(tb, K)
    brute = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            brute[ea + eb] = brute.get(ea + eb, F(0)) + ca * cb
    brute = {e: c for e, c in brute.items() if c and e <= K}
    assert prod.terms == brute


def test_biseries_product_and_swap():
    K = F(3)
    left = QSeries({F(0): F(1), F(1): F(2)}, K)
    right = QSeries({F(1, 2): F(1)}, K)
    bi = BiSeries.from_product(left, right)
    assert bi.coeff(F(1), F(1, 2)) == F(2)
    assert bi.swap().coeff(F(1, 2), F(1)) == F(2)
    sq = bi * bi
    assert sq.coeff(F(2), F(1)) == F(4)


def test_biseries_window_truncation():
    K = F(2)
    bi = BiSeries({(F(1), F(5)): F(1), (F(1), F(2)): F(3)}, K)
    # the (1,5) term falls outside the square window
    assert bi.terms == {(F(1), F(2)): F(3)}


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
    full = cls(a.terms, K)
    assert full.valid == full.cutoff
    assert full.matches(cls(dict(a.terms), K))
    assert not full.matches(cls({**a.terms, key(K): F(1)}, K))


def test_json_serialization_sorted_exact():
    bi = BiSeries({(F(1, 2), F(0)): F(-3, 7), (F(0), F(1)): F(2)}, F(2))
    obj = bi.to_json_obj()
    assert obj == [
        {"qexp": "0/1", "qbarexp": "1/1", "coeff": "2/1"},
        {"qexp": "1/2", "qbarexp": "0/1", "coeff": "-3/7"},
    ]


def test_rerun_bit_identical():
    a = euler_inverse(F(15))
    b = euler_inverse(F(15))
    assert a == b and a.to_json_obj() == b.to_json_obj()
