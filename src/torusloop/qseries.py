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

Exponents are integers over one denominator
-------------------------------------------
The contract has one implementation, `_Series`.  Its ``terms`` map integer
keys to coefficients: an int x for `QSeries`, the term q^(x/den), and a pair
(x, y) for `BiSeries`, the term q^(x/den) qbar^(y/den).  ``den`` is the
least common denominator of the stored exponents (1 when there are none),
so equal series have equal ``(terms, den)``.  Sums, products, comparisons,
truncation, shifts and swaps work on ints: two series over different
denominators are lifted to their lcm by one integer factor per key, and a
key is in the window when its integers are <= floor(cutoff den).  The
public constructor takes Fraction exponents; `coeff`, `min_exponent`,
`sorted_terms`, `to_json_obj` and ``repr`` read them back as Fractions, and
`evaluate` as floats.  Each class says only how to split a key into its
integers, join them back and rescale the keys of a term dict.

Coefficients are ints, ``fractions.Fraction`` or, in the full partition
function and the O(n) form, real cyclotomic numbers (`cyclo.CycloNum`).
`_Series` uses +, unary -, == and bool (zero-testing) on them, complex()
in `evaluate`, and a product in `__mul__`, `scale` and `from_product` with
at most one cyclotomic factor: a CycloNum scales by an int or a Fraction,
and cyclotomic series are never multiplied together.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
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


def _floor(x: Fraction, den: int) -> int:
    """floor(x den): the largest key numerator over den at or below x."""
    return x.numerator * den // x.denominator


class _Series:
    """Truncated series sum_k c_k (nome monomial of k), every exponent <= cutoff.

    Keys are integer numerators over `den`.  A subclass names its nomes and
    says how a key splits into one integer per nome (`_split`), how such
    integers join back into a key (`_join`) and how every key of a term dict
    is rescaled, x -> x mul // div (`_rescaled`).  Public exponent keys
    (Fractions and pairs of them) split and join the same way.
    """

    __slots__ = ("terms", "cutoff", "valid", "den")
    _nomes: tuple = ()

    def __init__(self, terms: Mapping, cutoff, valid=None):
        cutoff = exact(cutoff, "cutoff")
        exps = [([exact(e, "exponent") for e in self._split(k)], c) for k, c in terms.items()]
        den = math.lcm(*(e.denominator for es, _ in exps for e in es))
        top = _floor(cutoff, den)
        seen: set = set()
        clean = {}
        for es, c in exps:
            key = self._join([e.numerator * (den // e.denominator) for e in es])
            if key in seen:
                raise ValueError(f"two keys name the exponents "
                                 f"({', '.join(map(str, es))})")
            seen.add(key)
            if c and max(self._split(key)) <= top:
                clean[key] = c
        self._adopt(clean, cutoff,
                    cutoff if valid is None else min(exact(valid, "order"), cutoff), den)

    @classmethod
    def _trusted(cls, terms: dict, cutoff: Fraction, valid: Fraction, den: int):
        """Adopt integer keys over den that are already clean, skipping the
        per-term checks.

        Every key must have all its integers <= floor(cutoff den), no
        coefficient may be zero, and valid <= cutoff must be a Fraction.
        den need not be the least one: `_adopt` reduces it.  A caller that
        can prove den least uses `_least` instead.
        """
        out = object.__new__(cls)
        out._adopt(terms, cutoff, valid, den)
        return out

    @classmethod
    def _least(cls, terms: dict, cutoff: Fraction, valid: Fraction, den: int):
        """`_trusted` for keys already over their least denominator: den is
        kept as given, with no gcd over the keys.

        The caller proves gcd(den, every key integer) = 1; `_dress`, the
        one caller, does so by its choice of step.
        """
        out = object.__new__(cls)
        out.terms, out.cutoff, out.valid, out.den = terms, cutoff, valid, den
        return out

    def _adopt(self, terms: dict, cutoff: Fraction, valid: Fraction, den: int):
        """Set the slots, dividing keys and den by their common factor: one
        gcd over every key integer, so den is least after `__init__` and
        `_trusted`."""
        if den > 1:
            g = math.gcd(den, *chain.from_iterable(map(self._split, terms)))
            if g > 1:
                terms = self._rescaled(terms, 1, g)
                den //= g
        self.terms = terms
        self.cutoff = cutoff
        self.valid = valid
        self.den = den

    def _common(self, other) -> tuple:
        """(den, terms of self, terms of other), both over one den: the lcm."""
        if self.den == other.den:
            return self.den, self.terms, other.terms
        den = math.lcm(self.den, other.den)
        return (den, self._rescaled(self.terms, den // self.den, 1),
                self._rescaled(other.terms, den // other.den, 1))

    def _exponents(self, key) -> list:
        """The Fraction exponents of an integer key, in nome order."""
        return [Fraction(x, self.den) for x in self._split(key)]

    # -- inspection --------------------------------------------------------

    def coeff(self, *exponents):
        """The coefficient at the given exponents; 0 off the stored lattice."""
        if len(exponents) != len(self._nomes):
            raise TypeError(f"{type(self).__name__}.coeff takes one exponent per nome")
        xs = []
        for e in exponents:
            e = exact(e, "exponent")
            if self.den % e.denominator:
                return Fraction(0)
            xs.append(e.numerator * (self.den // e.denominator))
        return self.terms.get(self._join(xs), Fraction(0))

    def min_exponent(self) -> Fraction:
        """The smallest exponent of any stored term in any nome."""
        if not self.terms:
            return _BIG
        return Fraction(min(min(self._split(k)) for k in self.terms), self.den)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.den == other.den and self.terms == other.terms
                and self.cutoff == other.cutoff)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den, self.cutoff))

    def matches(self, other) -> bool:
        """Exact equality of all terms up to the smaller guaranteed order."""
        if self.valid == self.cutoff == other.valid == other.cutoff:
            # no stored term lies above the bound, and both dens are least
            return self.den == other.den and self.terms == other.terms
        den, a, b = self._common(other)
        bound = _floor(min(self.valid, other.valid), den)
        split = self._split
        a, b = ({k: c for k, c in t.items() if max(split(k)) <= bound} for t in (a, b))
        return a == b

    # -- arithmetic --------------------------------------------------------

    def _check_cutoff(self, other):
        if self.cutoff != other.cutoff:
            raise CutoffMismatchError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other):
        self._check_cutoff(other)
        den, a, b = self._common(other)
        terms = dict(a)
        for k, c in b.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return self._trusted(terms, self.cutoff, min(self.valid, other.valid), den)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.terms.items()},
                             self.cutoff, self.valid, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        terms = {k: s for k, c in self.terms.items() if (s := factor * c)}
        return self._trusted(terms, self.cutoff, self.valid, self.den)

    def __mul__(self, other):
        self._check_cutoff(other)
        cutoff = self.cutoff
        valid = min(self.valid + other.min_exponent(),
                    other.valid + self.min_exponent(),
                    cutoff)
        den, a, b = self._common(other)
        top = _floor(cutoff, den)
        split, join = self._split, self._join
        b = [(split(k), c) for k, c in b.items()]
        terms: dict = {}
        for ka, ca in a.items():
            xa = split(ka)
            for xb, cb in b:
                xs = [x + y for x, y in zip(xa, xb)]
                if max(xs) > top:
                    continue
                k = join(xs)
                s = terms.get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return self._trusted(terms, cutoff, valid, den)

    def truncate(self, cutoff):
        cutoff = exact(cutoff, "cutoff")
        if cutoff > self.cutoff:
            raise CutoffMismatchError("cannot extend a truncated series")
        top = _floor(cutoff, self.den)
        terms = {k: c for k, c in self.terms.items() if max(self._split(k)) <= top}
        return self._trusted(terms, cutoff, min(self.valid, cutoff), self.den)

    # -- numerics / io -----------------------------------------------------

    def evaluate(self, tau) -> complex:
        """The series at a modular point: anything with the `nome_sum` of a
        `characters.TauPoint`.  A QSeries key (x,) is read as the pair (x, 0)."""
        keys = [self._split(k) + (0,) for k in self.terms]
        return tau.nome_sum([x[0] / self.den for x in keys], [x[1] / self.den for x in keys],
                            [complex(c) for c in self.terms.values()])

    def sorted_terms(self) -> list:
        """(Fraction exponent key, coefficient) pairs in increasing key order."""
        return [(self._join(self._exponents(k)), c) for k, c in sorted(self.terms.items())]

    def to_json_obj(self) -> list:
        return [{**{f"{n}exp": _frac_str(e) for n, e in zip(self._nomes, self._split(k))},
                 "coeff": _coeff_json(c)}
                for k, c in self.sorted_terms()]

    def __repr__(self):
        parts = ["*".join([str(c)] + [f"{n}^({e})" for n, e in zip(self._nomes, self._split(k))])
                 for k, c in self.sorted_terms()[:6]]
        more = " + ..." if len(self.terms) > 6 else ""
        return (f"{type(self).__name__}({' + '.join(parts) or '0'}{more}; "
                f"cutoff={self.cutoff})")


class QSeries(_Series):
    """Truncated series sum_e c_e q^e with rational exponents e <= cutoff.

    A key is one integer x, the exponent x/den.
    """

    __slots__ = ()
    _nomes = ("q",)

    @staticmethod
    def _split(key) -> tuple:
        return (key,)

    @staticmethod
    def _join(xs):
        return xs[0]

    @staticmethod
    def _rescaled(terms: dict, mul: int, div: int) -> dict:
        return {x * mul // div: c for x, c in terms.items()}

    def shift(self, delta) -> "QSeries":
        """Multiply by the monomial q^delta (cutoff unchanged)."""
        delta = exact(delta, "exponent")
        den = math.lcm(self.den, delta.denominator)
        lift, step = den // self.den, delta.numerator * (den // delta.denominator)
        top = _floor(self.cutoff, den)
        terms = {x: c for k, c in self.terms.items() if (x := k * lift + step) <= top}
        return QSeries._trusted(terms, self.cutoff, min(self.valid + delta, self.cutoff), den)


class BiSeries(_Series):
    """Truncated bivariate series sum c_{a,b} q^a qbar^b, both exponents <= cutoff.

    A key is the integer pair (x, y), the exponents (x/den, y/den); the
    truncation window is the square a <= cutoff and b <= cutoff.
    """

    __slots__ = ()
    _nomes = ("q", "qbar")

    @staticmethod
    def _split(key) -> tuple:
        return key

    @staticmethod
    def _join(xs) -> tuple:
        return tuple(xs)

    @staticmethod
    def _rescaled(terms: dict, mul: int, div: int) -> dict:
        return {(x * mul // div, y * mul // div): c for (x, y), c in terms.items()}

    @classmethod
    def from_product(cls, left: QSeries, right: QSeries, cutoff=None) -> "BiSeries":
        """Outer product f(q) * g(qbar)."""
        if cutoff is None:
            if left.cutoff != right.cutoff:
                raise CutoffMismatchError("cutoff mismatch in outer product")
            cutoff = left.cutoff
        cutoff = exact(cutoff, "cutoff")
        den, a, b = left._common(right)
        top = _floor(cutoff, den)
        b = [(y, cb) for y, cb in b.items() if y <= top]
        terms = {(x, y): c for x, ca in a.items() if x <= top
                 for y, cb in b if (c := ca * cb)}
        return cls._trusted(terms, cutoff, min(left.valid, right.valid, cutoff), den)

    def swap(self) -> "BiSeries":
        """Exchange q and qbar."""
        return BiSeries._trusted({(y, x): c for (x, y), c in self.terms.items()},
                                 self.cutoff, self.valid, self.den)


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _coeff_json(c):
    """A rational coefficient as "n/d"; a cyclotomic one as its field order
    m and its coefficients of 1, zeta_m, ..., each as "n/d"."""
    field = getattr(c, "field", None)
    if field is None:
        return _frac_str(c)
    return {"m": field.m, "coeffs": [_frac_str(x) for x in c.coeffs]}


def euler_inverse(cutoff) -> QSeries:
    """1/(q)_inf; the coefficient of q^n is the partition number p(n)."""
    cutoff = exact(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    nmax = math.floor(cutoff)
    p = [0] * (nmax + 1)
    p[0] = 1
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            p[n] += p[n - part]
    return QSeries._trusted({n: Fraction(p[n]) for n in range(nmax + 1)}, cutoff, cutoff, 1)


def eta_inverse(cutoff) -> QSeries:
    """1/eta(q) = q^{-1/24} / (q)_inf, exact through `cutoff`."""
    cutoff = exact(cutoff, "cutoff")
    return euler_inverse(cutoff + Fraction(1, 24)).shift(Fraction(-1, 24)).truncate(cutoff)
