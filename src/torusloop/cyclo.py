"""Exact arithmetic with cosines of rational angles.

Series coefficients in the full-partition-function identity are rational
combinations of cos(k*gamma) with gamma a rational multiple of pi.  For
gamma = pi*a/b these live in the real subfield of Q(zeta_{2b}); representing
them as polynomials in zeta reduced modulo the cyclotomic polynomial makes
equality testing exact, so the identity can be checked with zero tolerance.

`cospoly_to_cyclo` sums a cosine polynomial as one integer vector of powers
of zeta and reduces it once; Phi_m is monic with integer coefficients, so the
reduction never divides.  `CycloNum` is the Q-vector the forms build: integer
numerators over one positive denominator, in lowest terms, with +, -, scaling
by an int or a Fraction, and ==.  No form multiplies two field elements.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .arith import _real_part, gcd_conv
from .qseries import exact


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # x^m - 1 divided by the product of Phi_d for proper divisors d
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _polydiv_exact(num: list, den: tuple) -> list:
    """Exact division of integer polynomials by a monic den (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = out[i] = num[i + len(den) - 1]
        if coeff:
            for j, dc in enumerate(den):
                num[i + j] -= coeff * dc
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


class CycloField:
    """The field Q(zeta_m); an element is integer numerators mod Phi_m over one
    denominator."""

    _instances: dict = {}

    def __new__(cls, m: int):
        if type(m) is not int:
            raise TypeError(f"the cyclotomic order m must be an int, not {m!r}")
        if m not in cls._instances:
            inst = super().__new__(cls)
            inst.m = m
            inst.phi = cyclotomic_poly(m)
            inst.degree = len(inst.phi) - 1
            cls._instances[m] = inst
        return cls._instances[m]

    def rational(self, x) -> "CycloNum":
        x = exact(x, "coefficient")
        return CycloNum(self, (x.numerator,) + (0,) * (self.degree - 1), x.denominator)

    def _reduce(self, vec: list) -> tuple:
        """Reduce an integer coefficient vector modulo the monic Phi_m."""
        vec = list(vec)
        n = self.degree
        phi = self.phi
        for i in range(len(vec) - 1, n - 1, -1):
            c = vec[i]
            if c:
                for j in range(n + 1):
                    vec[i - n + j] -= c * phi[j]
        vec = vec[:n]
        vec += [0] * (n - len(vec))
        return tuple(vec)

    def __repr__(self):
        return f"CycloField(zeta_{self.m})"


class CycloNum:
    """An element of Q(zeta_m): integer numerators `nums`, reduced mod Phi_m,
    over one denominator `den` > 0, with gcd(den, *nums) = 1.

    The constructor takes reduced nums, exactly field.degree of them, and a
    positive den, raising ValueError otherwise, and brings them to lowest
    terms, so equal elements of one field have equal (nums, den).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CycloField, nums: tuple, den: int = 1):
        if den <= 0 or len(nums) != field.degree:
            raise ValueError(f"a CycloNum of {field} needs {field.degree} numerators "
                             f"over a positive denominator, not {nums!r} / {den!r}")
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(a // g for a in nums)
            den //= g
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coefficients of 1, zeta, ..., zeta^(degree-1), as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

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
        den = math.lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        return CycloNum(self.field,
                        tuple(a * f1 + b * f2 for a, b in zip(self.nums, other.nums)), den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scaling by an int or a Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return CycloNum(self.field, tuple(a * other.numerator for a in self.nums),
                        self.den * other.denominator)

    __rmul__ = __mul__

    def _rational_value(self):
        """The Fraction this element equals, or None if it is irrational."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        """Equal elements of one field are equal; across fields only rational
        elements compare, by value, like the int or Fraction they equal.  An
        irrational element never equals one of another field, even where
        both are the same complex number (zeta_4 and zeta_8^2)."""
        if isinstance(other, CycloNum) and self.field is other.field:
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, CycloNum):
            other = other._rational_value()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        value = self._rational_value()
        return value is not None and other is not None and value == other

    def __hash__(self):
        # a rational element equals its value, so it hashes like it
        value = self._rational_value()
        if value is not None:
            return hash(value)
        return hash((self.field.m, self.nums, self.den))

    def __complex__(self):
        zeta = cmath.exp(2j * math.pi / self.field.m)
        return sum(complex(c) * zeta**k for k, c in enumerate(self.coeffs))

    def __float__(self):
        return _real_part(complex(self))

    def __repr__(self):
        return f"CycloNum({self.coeffs}, zeta_{self.field.m})"


def cospoly_to_cyclo(cospoly: dict, a: int, b: int) -> CycloNum:
    """sum_k c_k cos(k*gamma) of {k: c_k} exactly at gamma = pi*a/b, b > 0, in
    CycloField(2b): cos(k*gamma) = (zeta^(ka) + zeta^(-ka))/2, zeta = exp(i pi/b),
    so c_k L, L the lcm of the c_k's denominators, goes to the indices +-k*a
    mod 2b of one int vector, reduced mod Phi_2b once and taken over 2L."""
    if b <= 0:
        raise ValueError(f"gamma = pi*{a}/{b} needs a positive denominator")
    coeffs = [(k, exact(c, "coefficient")) for k, c in cospoly.items()]
    L = math.lcm(*(c.denominator for _, c in coeffs))
    field = CycloField(2 * b)
    vec = [0] * field.m
    for k, c in coeffs:
        for i in (k * a, -k * a):
            vec[i % field.m] += c.numerator * (L // c.denominator)
    return CycloNum(field, field._reduce(vec), 2 * L)


def gamma_dm_sum(d: int, m: int) -> dict:
    """Gamma_{d,m} = (1/d) sum_{j=1..d} zeta_d^{jm} cos(gcd(d, j) gamma) as {k: Fraction}
    in cos(k*gamma), from the roots of each gcd g summed as one element of
    Q(zeta_d); ArithmeticError if that element is not an integer."""
    if d <= 0:
        raise ValueError("d must be positive")
    field = CycloField(d)
    groups: dict = {}  # g -> how often each power of zeta_d occurs
    for j in range(1, d + 1):
        groups.setdefault(gcd_conv(d, j), [0] * d)[j * m % d] += 1
    out = {}
    for g, counts in groups.items():
        total = field._reduce(counts)
        if any(total[1:]):
            raise ArithmeticError(f"gcd {g}: roots sum to {total} in Q(zeta_{d}), not an integer")
        if total[0]:
            out[g] = Fraction(total[0], d)
    return out
