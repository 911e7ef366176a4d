"""Integer-keyed series arithmetic against the Fraction-keyed reference.

Seeded random series, with exponents over the denominators 1, 2, 3, 7, 8 and
24 and some exact only below their cutoff, go through every operation of
`QSeries` and `BiSeries` and of `reference_series`.  The results must agree
term by term through the Fraction view, keep integer keys over the least
common denominator, and compare and hash by value whatever denominator they
were built at.
"""

import math
import random
from fractions import Fraction as F
from itertools import chain, product

import pytest

import reference_series as ref
from torusloop.qseries import BiSeries, QSeries

DENOMINATORS = (1, 2, 3, 7, 8, 24)
CUTOFFS = (F(3), F(7, 3), F(17, 8))


def _exponent(rng, cutoff):
    """An exponent from -1/2 to a little past the cutoff, over one of DENOMINATORS."""
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(-den // 2, math.ceil((cutoff + 1) * den)), den)


def _terms(rng, nomes, cutoff, count):
    terms = {}
    for _ in range(count):
        key = tuple(_exponent(rng, cutoff) for _ in range(nomes))
        terms[key[0] if nomes == 1 else key] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return terms


def _pair(rng, nomes, cutoff, count=6):
    """(package series, reference series) with the same random terms; every
    third one is exact only through a random order below its cutoff."""
    terms = _terms(rng, nomes, cutoff, rng.randint(0, count))
    valid = cutoff - F(rng.randint(1, 12), 4) if rng.random() < 0.35 else None
    cls = QSeries if nomes == 1 else BiSeries
    return cls(terms, cutoff, valid), ref.RefSeries(terms, cutoff, valid, nomes)


def _samples(nomes, seed, count=40):
    rng = random.Random(seed)
    return [_pair(rng, nomes, rng.choice(CUTOFFS)) for _ in range(count)]


def _canonical(s):
    """Integer keys over an int den that is the least common denominator."""
    coords = list(chain.from_iterable(map(s._split, s.terms)))
    return (type(s.den) is int and s.den > 0
            and all(type(x) is int for x in coords)
            and math.gcd(s.den, *coords) == (1 if coords else s.den)
            and all(s.terms.values()))


def _agrees(got, want):
    return (_canonical(got) and got.sorted_terms() == want.sorted_terms()
            and got.valid == want.valid and got.cutoff == want.cutoff)


def _same_cutoff(pairs):
    """Pairs of samples that share a cutoff, so that they may be combined."""
    return [(x, y) for x, y in product(pairs, repeat=2) if x[0].cutoff == y[0].cutoff]


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_construction_and_reads_match_the_reference(nomes):
    rng = random.Random(1900 + nomes)
    for s, r in _samples(nomes, 1910 + nomes):
        assert _agrees(s, r)
        assert s.min_exponent() == r.min_exponent()
        for key, _ in r.sorted_terms():
            exps = (key,) if nomes == 1 else key
            assert s.coeff(*exps) == r.coeff(*exps)
        for _ in range(5):
            exps = tuple(_exponent(rng, s.cutoff) for _ in range(nomes))
            assert s.coeff(*exps) == r.coeff(*exps)


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_add_mul_and_matches_match_the_reference(nomes):
    pairs = _same_cutoff(_samples(nomes, 1920 + nomes, count=24))
    outcomes = set()
    for (a, ra), (b, rb) in pairs:
        assert _agrees(a + b, ra + rb)
        assert _agrees(a * b, ra * rb)
        # b and a + b agree with a wherever their extra terms lie above valid
        for other, rother in ((b, rb), (a + b, ra + rb)):
            assert a.matches(other) == ra.matches(rother)
            outcomes.add(ra.matches(rother))
    assert outcomes == {True, False}


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_matches_across_denominators(nomes):
    """A term over 24 just above valid changes the denominator but not the
    match; the same term at or below valid breaks it."""
    for s, r in _samples(nomes, 1930 + nomes):
        if s.valid == s.cutoff:
            continue
        for e in (s.valid + F(1, 24), s.valid):
            key = e if nomes == 1 else (e, e)
            terms = {**dict(r.sorted_terms()), key: F(1)}
            cls = QSeries if nomes == 1 else BiSeries
            other = cls(terms, s.cutoff, s.valid)
            want = r.matches(ref.RefSeries(terms, s.cutoff, s.valid, nomes))
            assert s.matches(other) == other.matches(s) == want
            assert want == (e > s.valid or r.coeff(*((e,) * nomes)) == 1)


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_truncate_matches_the_reference(nomes):
    for s, r in _samples(nomes, 1940 + nomes):
        for cutoff in (s.cutoff, s.cutoff - F(1, 3), F(1, 8), F(-1, 7)):
            assert _agrees(s.truncate(cutoff), r.truncate(cutoff))


def test_shift_matches_the_reference():
    for s, r in _samples(1, 1950):
        for delta in (F(0), F(1, 24), F(-5, 7), F(2, 3), F(3)):
            assert _agrees(s.shift(delta), r.shift(delta))


def test_swap_and_from_product_match_the_reference():
    for s, r in _samples(2, 1960):
        assert _agrees(s.swap(), r.swap())
        assert s.swap().swap() == s
    qs = _samples(1, 1961, count=16)
    for (a, ra), (b, rb) in product(qs, repeat=2):
        for cutoff in (min(a.cutoff, b.cutoff), F(5, 4)):
            assert _agrees(BiSeries.from_product(a, b, cutoff), ref.from_product(ra, rb, cutoff))


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_one_value_at_two_denominators_is_equal_and_hashes_alike(nomes):
    """A series, and the same series reached through a denominator 24 term
    added and taken away, are one value: equal den, equal terms, equal hash."""
    cls = QSeries if nomes == 1 else BiSeries
    for s, _ in _samples(nomes, 1970 + nomes):
        key = F(1, 24) if nomes == 1 else (F(1, 24), F(-1, 24))
        bump = cls({key: F(1)}, s.cutoff)
        lifted = s + bump
        assert lifted.den % 24 == 0
        back = lifted - bump
        assert back == s and hash(back) == hash(s)
        assert (back.den, back.terms) == (s.den, s.terms)
    one = QSeries({0: 1}, F(2))
    assert one.shift(F(1, 24)).shift(F(-1, 24)) == one


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_coeff_off_the_lattice_is_zero(nomes):
    cls = QSeries if nomes == 1 else BiSeries
    s = cls({(e if nomes == 1 else (e, e)): c for e, c in ((F(0), F(5)), (F(1, 2), F(3)))},
            F(2))
    assert s.den == 2
    assert s.coeff(*((F(1, 2),) * nomes)) == 3
    for e in (F(1, 3), F(1, 4), F(3, 2) + F(1, 7)):
        assert s.coeff(*((e,) * nomes)) == 0


@pytest.mark.parametrize("nomes", [1, 2], ids=["QSeries", "BiSeries"])
def test_same_integers_over_another_denominator_differ(nomes):
    """q and q^(1/2) store the same integer key, over 1 and over 2."""
    cls = QSeries if nomes == 1 else BiSeries
    whole, half = (cls({(e if nomes == 1 else (e, e)): F(1)}, F(2)) for e in (F(1), F(1, 2)))
    assert whole.terms == half.terms and (whole.den, half.den) == (1, 2)
    assert whole != half
    assert not whole.matches(half) and not half.matches(whole)
