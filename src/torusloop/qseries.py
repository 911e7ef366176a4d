"""Exact truncated power series in the modular nome(s).

Series in q (`QSeries`) and in q, qbar (`BiSeries`) with rational exponents
and exact coefficients.  These carry every conformal object in the package:
eta-function prefactors, theta sums, affine characters and the sesquilinear
partition functions built from them.

Truncation contract
-------------------
A series stores only the terms whose exponents are all <= ``cutoff`` (in two
nomes, the square window a <= cutoff and b <= cutoff); the ``valid``
attribute is the order through which the stored terms are guaranteed exact.
For freshly built series ``valid == cutoff``.  A product of series with
minimal exponents e_a, e_b that are exact through v_a, v_b is exact through
``min(v_a + e_b, v_b + e_a)``: below that order every contributing term pair
was available.  Comparisons between series only look at exponents up to the
smaller ``valid``.

The contract has one implementation, `_Series`, over an exponent key: a
Fraction for `QSeries`, a pair of Fractions for `BiSeries`.  Each class says
only how to build a key from its exponents, read them back and add two keys.

Coefficients are usually ``fractions.Fraction`` but any exact commutative
ring element works (addition, multiplication, bool for zero-testing); the
full-partition-function pipeline uses real cyclotomic numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

_BIG = Fraction(10**9)  # stands in for "no constraint" when a factor is zero


class CutoffMismatchError(ValueError):
    """Raised when combining series truncated at different cutoffs."""


def exact(value, what: str) -> Fraction:
    """`value` as a Fraction, the one exactness rule of every exact entry point.

    A float is refused, not read as its binary value: its denominator 2^k
    would size the cyclotomic field, the Kac lattice and the summation window.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, complex)):
        raise TypeError(f"exact series need a rational {what}; "
                        f"use the numeric route for generic values")
    return Fraction(value)


class _Series:
    """Truncated series sum_k c_k (nome monomial of k), every exponent <= cutoff.

    A subclass names its nomes and defines the exponent key: `_key` builds a
    normalised key from exponents, `_parts` reads them back in nome order and
    `_add` adds two keys (the exponents of a product of monomials).
    """

    __slots__ = ("terms", "cutoff", "valid")
    _nomes: tuple = ()

    def __init__(self, terms: Mapping, cutoff, valid=None):
        cutoff = exact(cutoff, "cutoff")
        clean = {}
        for k, c in terms.items():
            k = self._key(*self._parts(k))
            if max(self._parts(k)) <= cutoff and c:
                clean[k] = c
        self.terms = clean
        self.cutoff = cutoff
        self.valid = cutoff if valid is None else min(exact(valid, "order"), cutoff)

    @classmethod
    def _trusted(cls, terms: dict, cutoff: Fraction, valid: Fraction):
        """Adopt terms already known to be clean, skipping the per-term checks.

        Every key must be a normalised key with all exponents <= cutoff, no
        coefficient may be zero, and valid <= cutoff must be a Fraction.
        """
        out = object.__new__(cls)
        out.terms = terms
        out.cutoff = cutoff
        out.valid = valid
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cutoff):
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff):
        return cls({cls._key(*(0,) * len(cls._nomes)): Fraction(1)}, cutoff)

    # -- inspection --------------------------------------------------------

    def coeff(self, *exponents):
        return self.terms.get(self._key(*exponents), Fraction(0))

    def min_exponent(self) -> Fraction:
        """The smallest exponent of any stored term in any nome."""
        if not self.terms:
            return _BIG
        return min(min(self._parts(k)) for k in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def matches(self, other) -> bool:
        """Exact equality of all terms up to the smaller guaranteed order."""
        if self.valid == self.cutoff == other.valid == other.cutoff:
            return self.terms == other.terms  # no stored term lies above the bound
        bound = min(self.valid, other.valid)
        a, b = ({k: c for k, c in s.terms.items() if max(s._parts(k)) <= bound}
                for s in (self, other))
        return a == b

    # -- arithmetic --------------------------------------------------------

    def _check_cutoff(self, other):
        if self.cutoff != other.cutoff:
            raise CutoffMismatchError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other):
        self._check_cutoff(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return type(self)(terms, self.cutoff, min(self.valid, other.valid))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()},
                          self.cutoff, self.valid)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return type(self)({k: factor * c for k, c in self.terms.items()},
                          self.cutoff, self.valid)

    def __mul__(self, other):
        self._check_cutoff(other)
        cutoff = self.cutoff
        valid = min(self.valid + other.min_exponent(),
                    other.valid + self.min_exponent(),
                    cutoff)
        add, parts = self._add, self._parts
        terms: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = add(ka, kb)
                if max(parts(k)) > cutoff:
                    continue
                s = terms.get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return type(self)(terms, cutoff, valid)

    def truncate(self, cutoff):
        cutoff = exact(cutoff, "cutoff")
        if cutoff > self.cutoff:
            raise CutoffMismatchError("cannot extend a truncated series")
        return type(self)(self.terms, cutoff, min(self.valid, cutoff))

    # -- numerics / io -----------------------------------------------------

    def evaluate(self, *nomes) -> complex:
        """The series at numeric nome values, given in the order of `_nomes`."""
        if len(nomes) != len(self._nomes):
            raise TypeError(f"{type(self).__name__}.evaluate takes the nomes "
                            f"{', '.join(self._nomes)}")
        return sum(complex(c) * math.prod(x ** float(e) for x, e in zip(nomes, self._parts(k)))
                   for k, c in self.terms.items())

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def to_json_obj(self) -> list:
        return [{**{f"{n}exp": _frac_str(e) for n, e in zip(self._nomes, self._parts(k))},
                 "coeff": _frac_str(c)}
                for k, c in self.sorted_terms()]

    def __repr__(self):
        parts = ["*".join([str(c)] + [f"{n}^({e})" for n, e in zip(self._nomes, self._parts(k))])
                 for k, c in self.sorted_terms()[:6]]
        more = " + ..." if len(self.terms) > 6 else ""
        return (f"{type(self).__name__}({' + '.join(parts) or '0'}{more}; "
                f"cutoff={self.cutoff})")


class QSeries(_Series):
    """Truncated series sum_e c_e q^e with rational exponents e <= cutoff."""

    __slots__ = ()
    _nomes = ("q",)

    @staticmethod
    def _key(e) -> Fraction:
        return exact(e, "exponent")

    @staticmethod
    def _parts(e) -> tuple:
        return (e,)

    @staticmethod
    def _add(x: Fraction, y: Fraction) -> Fraction:
        return x + y

    def shift(self, delta) -> "QSeries":
        """Multiply by the monomial q^delta (cutoff unchanged)."""
        delta = exact(delta, "exponent")
        return QSeries({e + delta: c for e, c in self.terms.items()},
                       self.cutoff, min(self.valid + delta, self.cutoff))


class BiSeries(_Series):
    """Truncated bivariate series sum c_{a,b} q^a qbar^b, both exponents <= cutoff.

    Keys are the pairs (a, b); the truncation window is the square
    a <= cutoff and b <= cutoff.
    """

    __slots__ = ()
    _nomes = ("q", "qbar")

    @staticmethod
    def _key(a, b) -> tuple:
        return (exact(a, "exponent"), exact(b, "exponent"))

    @staticmethod
    def _parts(key) -> tuple:
        return key

    @staticmethod
    def _add(x: tuple, y: tuple) -> tuple:
        return (x[0] + y[0], x[1] + y[1])

    @classmethod
    def from_product(cls, left: QSeries, right: QSeries, cutoff=None) -> "BiSeries":
        """Outer product f(q) * g(qbar)."""
        if cutoff is None:
            if left.cutoff != right.cutoff:
                raise CutoffMismatchError("cutoff mismatch in outer product")
            cutoff = left.cutoff
        terms: dict = {}
        cutoff = exact(cutoff, "cutoff")
        for ea, ca in left.terms.items():
            if ea > cutoff:
                continue
            for eb, cb in right.terms.items():
                if eb > cutoff:
                    continue
                c = ca * cb
                if c:
                    terms[(ea, eb)] = terms.get((ea, eb), 0) + c
        return cls(terms, cutoff, min(left.valid, right.valid, cutoff))

    def swap(self) -> "BiSeries":
        """Exchange q and qbar."""
        return BiSeries._trusted({(b, a): c for (a, b), c in self.terms.items()},
                                 self.cutoff, self.valid)


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def euler_product(cutoff) -> QSeries:
    """(q)_inf = prod_{n>=1} (1 - q^n), by Euler's pentagonal number theorem."""
    cutoff = exact(cutoff, "cutoff")
    terms = {}
    k = 0
    while True:
        placed = False
        for kk in ((k, -k) if k else (0,)):
            e = Fraction(kk * (3 * kk - 1), 2)
            if e <= cutoff:
                terms[e] = Fraction((-1) ** (kk % 2))
                placed = True
        if not placed and k > 0:
            break
        k += 1
    return QSeries(terms, cutoff)


def euler_inverse(cutoff) -> QSeries:
    """1/(q)_inf; the coefficient of q^n is the partition number p(n)."""
    cutoff = exact(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    nmax = int(cutoff)
    p = [0] * (nmax + 1)
    p[0] = 1
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            p[n] += p[n - part]
    return QSeries({Fraction(n): Fraction(p[n]) for n in range(nmax + 1)}, cutoff)


def dedekind_eta(cutoff) -> QSeries:
    """eta(q) = q^{1/24} (q)_inf as an exact series."""
    cutoff = exact(cutoff, "cutoff")
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff must be >= 1/24")
    return euler_product(cutoff - Fraction(1, 24)).shift(Fraction(1, 24))


def eta_inverse(cutoff) -> QSeries:
    """1/eta(q) = q^{-1/24} / (q)_inf, exact through `cutoff`."""
    cutoff = exact(cutoff, "cutoff")
    inv = euler_inverse(cutoff + Fraction(1, 24))
    return QSeries(inv.shift(Fraction(-1, 24)).terms, cutoff)
