"""Exact arithmetic with cosines of rational angles.

Series coefficients in the full-partition-function identity are rational
combinations of cos(k*gamma) with gamma a rational multiple of pi.  For
gamma = pi*a/b these live in the real subfield of Q(zeta_{2b}); representing
them as polynomials in zeta reduced modulo the cyclotomic polynomial makes
equality testing exact, so the identity can be checked with zero tolerance.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .arith import _real_part
from .qseries import exact


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial, exact."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # x^m - 1 divided by the product of Phi_d for proper divisors d
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _polydiv_exact(num: list, den: list) -> list:
    """Exact polynomial division (remainder must vanish)."""
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1] / den[-1]
        out[i] = coeff
        if coeff:
            for j, dc in enumerate(den):
                num[i + j] -= coeff * dc
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


class CycloField:
    """The field Q(zeta_m), elements as coefficient tuples mod Phi_m."""

    _instances: dict = {}

    def __new__(cls, m: int):
        if m not in cls._instances:
            inst = super().__new__(cls)
            inst.m = m
            inst.phi = cyclotomic_poly(m)
            inst.degree = len(inst.phi) - 1
            inst._cos = {}
            cls._instances[m] = inst
        return cls._instances[m]

    def element(self, coeffs) -> "CycloNum":
        vec = [exact(c, "coefficient") for c in coeffs]
        return CycloNum(self, self._reduce(vec))

    def zero(self) -> "CycloNum":
        return CycloNum(self, (Fraction(0),) * self.degree)

    def rational(self, x) -> "CycloNum":
        vec = [Fraction(0)] * self.degree
        if self.degree:
            vec[0] = exact(x, "coefficient")
        return CycloNum(self, tuple(vec))

    def zeta_power(self, k: int) -> "CycloNum":
        """zeta^k as a field element."""
        k %= self.m
        vec = [Fraction(0)] * (k + 1)
        vec[k] = Fraction(1)
        return CycloNum(self, self._reduce(vec))

    def cos_pi_multiple(self, num: int, den: int) -> "CycloNum":
        """cos(pi * num / den) as a field element; needs 2*den to divide m.

        Memoised per field on k = (num mod 2 den) m / (2 den), the angle in
        units of 2 pi / m, so equal angles share one cached element.
        """
        if self.m % (2 * den):
            raise ValueError(f"cos(pi*{num}/{den}) does not live in Q(zeta_{self.m})")
        k = (num % (2 * den)) * (self.m // (2 * den))
        if k not in self._cos:
            z = self.zeta_power(k) + self.zeta_power(-k)
            self._cos[k] = z * Fraction(1, 2)
        return self._cos[k]

    def _reduce(self, vec: list) -> tuple:
        """Reduce a coefficient vector modulo Phi_m."""
        vec = list(vec)
        n = self.degree
        phi = self.phi
        for i in range(len(vec) - 1, n - 1, -1):
            c = vec[i]
            if c:
                for j in range(n + 1):
                    vec[i - n + j] -= c * phi[j]
        vec = vec[:n]
        vec += [Fraction(0)] * (n - len(vec))
        return tuple(vec)

    def __repr__(self):
        return f"CycloField(zeta_{self.m})"


class CycloNum:
    """An element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNum(self.field,
                        tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # every coefficient is a Fraction, so a * other stays one
            return CycloNum(self.field, tuple(a * other if a else a for a in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloNum(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        """Equal elements of one field are equal; across fields only rational
        elements compare, by value, like the int or Fraction they equal.  An
        irrational element never equals one of another field, even where
        both are the same complex number (zeta_4 and zeta_8^2)."""
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.field is other.field:
            return self.coeffs == other.coeffs
        return not any(self.coeffs[1:]) and not any(other.coeffs[1:]) \
            and self.coeffs[0] == other.coeffs[0]

    def __hash__(self):
        # a rational element equals its value, so it hashes like it
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.m, self.coeffs))

    def __complex__(self):
        zeta = cmath.exp(2j * math.pi / self.field.m)
        return sum(complex(c) * zeta**k for k, c in enumerate(self.coeffs))

    def __float__(self):
        return _real_part(complex(self))

    def __repr__(self):
        return f"CycloNum({self.coeffs}, zeta_{self.field.m})"


def cospoly_to_cyclo(cospoly: dict, a: int, b: int, field: CycloField | None = None) -> CycloNum:
    """Evaluate {k: c_k} meaning sum c_k cos(k*gamma) exactly at gamma = pi*a/b."""
    if field is None:
        field = CycloField(2 * b)
    out = field.zero()
    for k, c in cospoly.items():
        out = out + field.cos_pi_multiple(k * a, b) * Fraction(c)
    return out


def cospoly_eval(cospoly: dict, gamma: float) -> float:
    """Float evaluation of {k: c_k} at a real angle gamma."""
    return sum(float(c) * math.cos(k * gamma) for k, c in cospoly.items())
