"""Reference truncated series, independent of the package's qseries module.

A series is a dict from exponent keys to coefficients, with a cutoff and the
order `valid` through which it is exact: a key is one Fraction for a series
in q and a pair of Fractions for a series in q and qbar.  This is the
Fraction-keyed arithmetic the package used before it stored exponents as
integers over one denominator; kept deliberately plain, and used to certify
that representation.
"""

from fractions import Fraction

BIG = Fraction(10**9)  # the minimal exponent of an empty series


class RefSeries:
    """sum_k c_k (nome monomial of k) with every exponent <= cutoff."""

    def __init__(self, terms, cutoff, valid=None, nomes=1):
        self.nomes = nomes
        self.cutoff = Fraction(cutoff)
        self.valid = self.cutoff if valid is None else min(Fraction(valid), self.cutoff)
        self.terms = {}
        for k, c in terms.items():
            k = self.key(k)
            if c and max(self.parts(k)) <= self.cutoff:
                self.terms[k] = c

    def key(self, k):
        if self.nomes == 1:
            return Fraction(k)
        return (Fraction(k[0]), Fraction(k[1]))

    def parts(self, k):
        return (k,) if self.nomes == 1 else k

    def new(self, terms, cutoff, valid):
        return RefSeries(terms, cutoff, valid, self.nomes)

    def coeff(self, *exponents):
        k = exponents[0] if self.nomes == 1 else exponents
        return self.terms.get(self.key(k), Fraction(0))

    def min_exponent(self):
        if not self.terms:
            return BIG
        return min(min(self.parts(k)) for k in self.terms)

    def matches(self, other):
        bound = min(self.valid, other.valid)
        a, b = ({k: c for k, c in s.terms.items() if max(s.parts(k)) <= bound}
                for s in (self, other))
        return a == b

    def __add__(self, other):
        assert self.cutoff == other.cutoff
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self.new(terms, self.cutoff, min(self.valid, other.valid))

    def __mul__(self, other):
        assert self.cutoff == other.cutoff
        valid = min(self.valid + other.min_exponent(),
                    other.valid + self.min_exponent(), self.cutoff)
        terms = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(self.parts(ka), self.parts(kb)))
                if max(k) <= self.cutoff:
                    k = k[0] if self.nomes == 1 else k
                    terms[k] = terms.get(k, 0) + ca * cb
        return self.new(terms, self.cutoff, valid)

    def truncate(self, cutoff):
        cutoff = Fraction(cutoff)
        return self.new(self.terms, cutoff, min(self.valid, cutoff))

    def shift(self, delta):
        delta = Fraction(delta)
        return self.new({e + delta: c for e, c in self.terms.items()},
                        self.cutoff, min(self.valid + delta, self.cutoff))

    def swap(self):
        return self.new({(b, a): c for (a, b), c in self.terms.items()},
                        self.cutoff, self.valid)

    def sorted_terms(self):
        return sorted(self.terms.items())


def from_product(left, right, cutoff):
    """The outer product f(q) g(qbar) of two one-nome series."""
    cutoff = Fraction(cutoff)
    terms = {(a, b): ca * cb for a, ca in left.terms.items() if a <= cutoff
             for b, cb in right.terms.items() if b <= cutoff}
    return RefSeries(terms, cutoff, min(left.valid, right.valid, cutoff), nomes=2)
