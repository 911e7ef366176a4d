"""Exact truncated power series in the modular nome(s).

Series in q (and in the bivariate case q, qbar) with rational exponents and
exact coefficients.  These carry every conformal object in the package:
eta-function prefactors, theta sums, affine characters and the sesquilinear
partition functions built from them.

Truncation contract
-------------------
A series stores only the terms whose exponent(s) are <= ``cutoff``; the
``valid`` attribute is the order through which the stored terms are
guaranteed exact.  For freshly built series ``valid == cutoff``.  A product
of series with minimal exponents e_a, e_b that are exact through v_a, v_b is
exact through ``min(v_a + e_b, v_b + e_a)``: below that order every
contributing term pair was available.  Comparisons between series only look
at exponents up to the smaller ``valid``.

Coefficients are usually ``fractions.Fraction`` but any exact commutative
ring element works (addition, multiplication, bool for zero-testing); the
full-partition-function pipeline uses real cyclotomic numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction

_BIG = Fraction(10**9)  # stands in for "no constraint" when a factor is zero


class CutoffMismatchError(ValueError):
    """Raised when combining series truncated at different cutoffs."""


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


class QSeries:
    """Truncated series sum_e c_e q^e with rational exponents e <= cutoff."""

    __slots__ = ("terms", "cutoff", "valid")

    def __init__(self, terms: Mapping[Fraction, object], cutoff, valid=None):
        cutoff = _as_rational(cutoff)
        clean = {}
        for e, c in terms.items():
            e = _as_rational(e)
            if e <= cutoff and c:
                clean[e] = c
        self.terms = clean
        self.cutoff = cutoff
        self.valid = cutoff if valid is None else min(_as_rational(valid), cutoff)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cutoff) -> "QSeries":
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff) -> "QSeries":
        return cls({Fraction(0): Fraction(1)}, cutoff)

    # -- inspection --------------------------------------------------------

    def coeff(self, exponent):
        return self.terms.get(_as_rational(exponent), Fraction(0))

    def min_exponent(self) -> Fraction:
        return min(self.terms) if self.terms else _BIG

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def matches(self, other: "QSeries") -> bool:
        """Exact equality of all terms up to the smaller guaranteed order."""
        if self.valid == self.cutoff == other.valid == other.cutoff:
            return self.terms == other.terms  # no stored term lies above the bound
        bound = min(self.valid, other.valid)
        a = {e: c for e, c in self.terms.items() if e <= bound}
        b = {e: c for e, c in other.terms.items() if e <= bound}
        return a == b

    # -- arithmetic --------------------------------------------------------

    def _check_cutoff(self, other):
        if self.cutoff != other.cutoff:
            raise CutoffMismatchError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check_cutoff(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return QSeries(terms, self.cutoff, min(self.valid, other.valid))

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.terms.items()},
                       self.cutoff, self.valid)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, factor) -> "QSeries":
        return QSeries({e: factor * c for e, c in self.terms.items()},
                       self.cutoff, self.valid)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check_cutoff(other)
        cutoff = self.cutoff
        valid = min(self.valid + other.min_exponent(),
                    other.valid + self.min_exponent(),
                    cutoff)
        terms: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                if e > cutoff:
                    continue
                s = terms.get(e, 0) + ca * cb
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return QSeries(terms, cutoff, valid)

    def shift(self, delta) -> "QSeries":
        """Multiply by the monomial q^delta (cutoff unchanged)."""
        delta = _as_rational(delta)
        return QSeries({e + delta: c for e, c in self.terms.items()},
                       self.cutoff, min(self.valid + delta, self.cutoff))

    def truncate(self, cutoff) -> "QSeries":
        cutoff = _as_rational(cutoff)
        if cutoff > self.cutoff:
            raise CutoffMismatchError("cannot extend a truncated series")
        return QSeries(self.terms, cutoff, min(self.valid, cutoff))

    # -- numerics / io -----------------------------------------------------

    def evaluate(self, q: complex) -> complex:
        return sum(complex(c) * q ** float(e) for e, c in self.terms.items())

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def to_json_obj(self) -> list:
        return [{"qexp": _frac_str(e), "coeff": _frac_str(c)}
                for e, c in self.sorted_terms()]

    def __repr__(self):
        parts = [f"{c}*q^({e})" for e, c in self.sorted_terms()[:6]]
        more = " + ..." if len(self.terms) > 6 else ""
        return f"QSeries({' + '.join(parts) or '0'}{more}; cutoff={self.cutoff})"


class BiSeries:
    """Truncated bivariate series sum c_{a,b} q^a qbar^b, both exponents <= cutoff.

    The truncation window is the square a <= cutoff and b <= cutoff; ``valid``
    bounds the window through which terms are guaranteed exact.
    """

    __slots__ = ("terms", "cutoff", "valid")

    def __init__(self, terms: Mapping, cutoff, valid=None):
        cutoff = _as_rational(cutoff)
        clean = {}
        for (a, b), c in terms.items():
            a = _as_rational(a)
            b = _as_rational(b)
            if a <= cutoff and b <= cutoff and c:
                clean[(a, b)] = c
        self.terms = clean
        self.cutoff = cutoff
        self.valid = cutoff if valid is None else min(_as_rational(valid), cutoff)

    @classmethod
    def _trusted(cls, terms: dict, cutoff: Fraction, valid: Fraction) -> "BiSeries":
        """Adopt terms already known to be clean, skipping the per-term checks.

        Every key must be a pair of Fractions <= cutoff, no coefficient may
        be zero, and valid <= cutoff must be a Fraction.
        """
        out = object.__new__(cls)
        out.terms = terms
        out.cutoff = cutoff
        out.valid = valid
        return out

    @classmethod
    def zero(cls, cutoff) -> "BiSeries":
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff) -> "BiSeries":
        return cls({(Fraction(0), Fraction(0)): Fraction(1)}, cutoff)

    @classmethod
    def from_product(cls, left: QSeries, right: QSeries, cutoff=None) -> "BiSeries":
        """Outer product f(q) * g(qbar)."""
        if cutoff is None:
            if left.cutoff != right.cutoff:
                raise CutoffMismatchError("cutoff mismatch in outer product")
            cutoff = left.cutoff
        terms: dict = {}
        cutoff = _as_rational(cutoff)
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

    def coeff(self, a, b):
        return self.terms.get((_as_rational(a), _as_rational(b)), Fraction(0))

    def min_exponent(self) -> Fraction:
        if not self.terms:
            return _BIG
        return min(min(a, b) for a, b in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def matches(self, other: "BiSeries") -> bool:
        """Exact equality of all terms up to the smaller guaranteed order."""
        if self.valid == self.cutoff == other.valid == other.cutoff:
            return self.terms == other.terms  # no stored term lies above the bound
        bound = min(self.valid, other.valid)
        a = {e: c for e, c in self.terms.items() if e[0] <= bound and e[1] <= bound}
        b = {e: c for e, c in other.terms.items() if e[0] <= bound and e[1] <= bound}
        return a == b

    def _check_cutoff(self, other):
        if self.cutoff != other.cutoff:
            raise CutoffMismatchError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check_cutoff(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return BiSeries(terms, self.cutoff, min(self.valid, other.valid))

    def __neg__(self) -> "BiSeries":
        return BiSeries({e: -c for e, c in self.terms.items()},
                        self.cutoff, self.valid)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def scale(self, factor) -> "BiSeries":
        return BiSeries({e: factor * c for e, c in self.terms.items()},
                        self.cutoff, self.valid)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._check_cutoff(other)
        cutoff = self.cutoff
        valid = min(self.valid + other.min_exponent(),
                    other.valid + self.min_exponent(),
                    cutoff)
        terms: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                a = a1 + a2
                b = b1 + b2
                if a > cutoff or b > cutoff:
                    continue
                s = terms.get((a, b), 0) + c1 * c2
                if s:
                    terms[(a, b)] = s
                else:
                    terms.pop((a, b), None)
        return BiSeries(terms, cutoff, valid)

    def swap(self) -> "BiSeries":
        """Exchange q and qbar."""
        return BiSeries._trusted({(b, a): c for (a, b), c in self.terms.items()},
                                 self.cutoff, self.valid)

    def truncate(self, cutoff) -> "BiSeries":
        cutoff = _as_rational(cutoff)
        if cutoff > self.cutoff:
            raise CutoffMismatchError("cannot extend a truncated series")
        return BiSeries(self.terms, cutoff, min(self.valid, cutoff))

    def evaluate(self, q: complex, qbar: complex) -> complex:
        return sum(complex(c) * q ** float(a) * qbar ** float(b)
                   for (a, b), c in self.terms.items())

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def to_json_obj(self) -> list:
        return [{"qexp": _frac_str(a), "qbarexp": _frac_str(b),
                 "coeff": _frac_str(c)}
                for (a, b), c in self.sorted_terms()]

    def __repr__(self):
        parts = [f"{c}*q^({a})*qb^({b})" for (a, b), c in self.sorted_terms()[:4]]
        more = " + ..." if len(self.terms) > 4 else ""
        return f"BiSeries({' + '.join(parts) or '0'}{more}; cutoff={self.cutoff})"


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def euler_product(cutoff) -> QSeries:
    """(q)_inf = prod_{n>=1} (1 - q^n), by Euler's pentagonal number theorem."""
    cutoff = _as_rational(cutoff)
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
    cutoff = _as_rational(cutoff)
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
    cutoff = _as_rational(cutoff)
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff must be >= 1/24")
    return euler_product(cutoff - Fraction(1, 24)).shift(Fraction(1, 24))


def eta_inverse(cutoff) -> QSeries:
    """1/eta(q) = q^{-1/24} / (q)_inf, exact through `cutoff`."""
    cutoff = _as_rational(cutoff)
    inv = euler_inverse(cutoff + Fraction(1, 24))
    return QSeries(inv.shift(Fraction(-1, 24)).terms, cutoff)
