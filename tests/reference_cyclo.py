"""Reference cyclotomic arithmetic, independent of the package's cyclo module.

An element of Q(zeta_m) is a tuple of Fractions, the coefficients of
1, zeta, ..., zeta^(deg - 1), reduced modulo the cyclotomic polynomial Phi_m.
Phi_m is built here by dividing x^m - 1 by Phi_d for the proper divisors d,
with Fraction arithmetic throughout.  Kept deliberately plain; used to
certify the package's integer-numerator representation.
"""

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def phi(m):
    """Coefficients (ascending) of Phi_m, as Fractions."""
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            div = phi(d)
            quot = [Fraction(0)] * (len(poly) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                c = poly[i + len(div) - 1] / div[-1]
                quot[i] = c
                for j, dc in enumerate(div):
                    poly[i + j] -= c * dc
            if any(poly):
                raise ArithmeticError("non-exact polynomial division")
            poly = quot
    return tuple(poly)


def reduce(vec, m):
    """Any coefficient vector, reduced modulo Phi_m to a tuple of deg Fractions."""
    p = phi(m)
    n = len(p) - 1
    vec = [Fraction(c) for c in vec] + [Fraction(0)] * max(0, n - len(vec))
    for i in range(len(vec) - 1, n - 1, -1):
        c = vec[i] / p[-1]
        for j in range(n + 1):
            vec[i - n + j] -= c * p[j]
    return tuple(vec[:n])


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def neg(x):
    return tuple(-a for a in x)


def mul(x, y, m):
    prod = [Fraction(0)] * (len(x) + len(y))
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return reduce(prod, m)


def scale(x, k):
    return tuple(a * k for a in x)


def equal(x, m, y, n):
    """Equality of reference elements: within one field by coefficients,
    across fields only for rational elements, by value."""
    if m == n:
        return x == y
    return not any(x[1:]) and not any(y[1:]) and x[0] == y[0]
