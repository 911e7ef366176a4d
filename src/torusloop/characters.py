"""Kac data, modular nome bookkeeping, and affine u(1) characters.

The central objects are the level-n characters

    kappa^n_j(z, q) = q^{-1/24}/(q)_inf * sum_k z^k q^{(j + 2kn)^2 / 4n},

for z = +1 or -1 and j integer or half-integer, exact as truncated series.
They satisfy periodicity and folding relations in j (period 2n at z = +1 and
4n at z = -1, reflections at n and 2n) and the Z_2 intertwining with the
level-4n characters; all of these are exercised in the test-suite and the
acceptance run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import ModelSpec, check_pair, check_ratio
from .qseries import QSeries, eta_inverse, exact

# every numeric sum drops the terms whose size falls below this, relative to 1
NUMERIC_TAIL = 1e-18


@dataclass(frozen=True)
class KacData:
    """Central charge and conformal weights of the (p, p') model."""

    p: int
    pq: int

    def __post_init__(self):
        check_pair(self.p, self.pq)

    @property
    def c(self) -> Fraction:
        return 1 - Fraction(6 * (self.p - self.pq) ** 2, self.p * self.pq)

    def delta(self, r, s) -> Fraction:
        return self.delta_exp(r, s) + (self.c - 1) / 24

    def delta_exp(self, r, s) -> Fraction:
        """delta(r, s) - c/24 + 1/24 = (p' r - p s)^2 / (4 p p')."""
        r, s = exact(r, "label r"), exact(s, "label s")
        return (self.pq * r - self.p * s) ** 2 / Fraction(4 * self.p * self.pq)


def delta_from_ratio(g: Fraction, r, s) -> Fraction:
    """Conformal weight written through the ratio g = p/p' > 0 alone."""
    check_ratio(g)
    g = exact(g, "g = p/p'")
    r, s = exact(r, "label r"), exact(s, "label s")
    return ((r - g * s) ** 2 - (1 - g) ** 2) / (4 * g)


@dataclass(frozen=True)
class TauPoint:
    """A modular parameter with its nome pair.

    q = exp(2 pi i tau) and qbar = exp(-2 pi i conj(tau)); Im tau > 0.
    """

    tau: complex

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")

    @classmethod
    def from_lattice(cls, spec: ModelSpec, delta: float) -> "TauPoint":
        """tau from the aspect ratio delta = M/N and the anisotropy angle.

        q = exp(-2 pi i delta e^{-i theta}) gives tau = -delta e^{-i theta};
        theta = pi u / lambda (dense) or pi u / (3 lambda) (dilute).
        """
        theta = math.pi * spec.u / spec.lam
        if spec.kind == "dilute":
            theta /= 3.0
        return cls(-delta * cmath.exp(-1j * theta))

    @property
    def q(self) -> complex:
        return cmath.exp(2j * math.pi * self.tau)

    @property
    def qbar(self) -> complex:
        return cmath.exp(-2j * math.pi * self.tau.conjugate())

    def q_power(self, x: float) -> complex:
        return cmath.exp(2j * math.pi * self.tau * float(x))

    def qbar_power(self, x: float) -> complex:
        return cmath.exp(-2j * math.pi * self.tau.conjugate() * float(x))

    @property
    def tail_order(self) -> float:
        """The x beyond which |q|^x = |qbar|^x = e^{-2 pi x Im tau} < NUMERIC_TAIL."""
        return -math.log(NUMERIC_TAIL) / (2 * math.pi * self.tau.imag)

    def shift(self) -> "TauPoint":
        return TauPoint(self.tau + 1)

    def invert(self) -> "TauPoint":
        return TauPoint(-1 / self.tau)


def theta_series(j: Fraction, n: int, z: int, cutoff: Fraction) -> QSeries:
    """Theta-like sum sum_k z^k q^{(j + 2kn)^2/4n} truncated at `cutoff`.

    With j = a/b the exponents are the integers (a + 2knb)^2 over 4 n b^2.
    """
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    j, cutoff = exact(j, "label"), exact(cutoff, "cutoff")
    terms: dict = {}
    if cutoff < 0:
        return QSeries(terms, cutoff)
    a, b = j.numerator, j.denominator
    den = 4 * n * b * b
    # |a + 2knb| <= reach bounds the summation index exactly
    reach = math.isqrt(math.floor(cutoff * den))
    for k in range(-((reach + a) // (2 * n * b)), (reach - a) // (2 * n * b) + 1):
        e = (a + 2 * k * n * b) ** 2
        terms[e] = terms.get(e, 0) + (-1 if z == -1 and k % 2 else 1)
    return QSeries._trusted({e: Fraction(c) for e, c in terms.items() if c},
                            cutoff, cutoff, den)


def u1_char(n: int, j, z: int, cutoff) -> QSeries:
    """Affine u(1) character kappa^n_j(z, q), exact through `cutoff`.

    j may be any rational (the physical labels are integers and
    half-integers); no folding is applied, the theta sum handles every j.
    Both factors are built through cutoff + 1/24.  The theta sum has no
    exponent below 0 and 1/eta none below -1/24, so by the product rule the
    product is exact through cutoff.
    """
    cutoff = exact(cutoff, "cutoff")
    work = cutoff + Fraction(1, 24)
    product = eta_inverse(work) * theta_series(j, n, z, work)
    if product.valid < cutoff:
        raise ArithmeticError(f"character exact only through {product.valid} < {cutoff}")
    return product.truncate(cutoff)


def u1_char_numeric(n: int, j, z: int, tau: TauPoint) -> complex:
    """kappa^n_j(z, q) evaluated at the nome q of `tau`."""
    j = float(j)
    # terms q^x with x beyond tau.tail_order fall below NUMERIC_TAIL
    reach = math.sqrt(tau.tail_order * 4 * n)
    k_lo = math.floor((-reach - j) / (2 * n)) - 1
    k_hi = math.ceil((reach - j) / (2 * n)) + 1
    total = 0.0 + 0.0j
    for k in range(k_lo, k_hi + 1):
        sign = -1.0 if (z == -1 and k % 2) else 1.0
        total += sign * tau.q_power((j + 2 * k * n) ** 2 / (4 * n))
    # 1/(q^{1/24} (q)_inf) = 1/eta
    return total / eta_numeric(tau, "q")


@lru_cache(maxsize=512)
def eta_numeric(tau: TauPoint, side: str = "q") -> complex:
    power = tau.q_power if side == "q" else tau.qbar_power
    out = power(Fraction(1, 24))
    nmax = 1
    while abs(power(nmax)) > NUMERIC_TAIL:
        nmax += 1
    for k in range(1, nmax + 1):
        out *= 1 - power(k)
    return out


def level_weight(n: int, j: Fraction) -> Fraction:
    """Affine conformal weight min(j^2, (2n - j)^2) / 4n for 0 <= j <= 2n."""
    j = exact(j, "label")
    return min(j ** 2, (2 * n - j) ** 2) / Fraction(4 * n)


def t_sign_exact(n4: int, j: int) -> int:
    """exp(2 pi i (Delta^{4n}_j - Delta^{4n}_{4n-j})) for integer j, exactly.

    The weight difference is j/2 - n, so the phase is (-1)^j; verified by
    exact rational arithmetic before returning the sign.
    """
    n = n4 // 4
    if n4 % 4:
        raise ValueError("level must be a multiple of 4")
    dj = level_weight(n4, Fraction(j)) - level_weight(n4, Fraction(4 * n - j))
    if (dj - Fraction(j, 2)) .denominator != 1:
        raise ArithmeticError("phase is not a half-integer multiple")
    return -1 if j % 2 else 1


def modular_S_residual(n: int, tau: TauPoint) -> float:
    """Numeric residual of the character S-transformation at level n.

    kappa^n_j(-1/tau) = (1/sqrt(2n)) sum_k exp(-pi i j k / n) kappa^n_k(tau).
    """
    stau = tau.invert()
    worst = 0.0
    values = [u1_char_numeric(n, k, 1, tau) for k in range(2 * n)]
    for j in range(2 * n):
        lhs = u1_char_numeric(n, j, 1, stau)
        rhs = sum(cmath.exp(-1j * math.pi * j * k / n) * values[k]
                  for k in range(2 * n)) / math.sqrt(2 * n)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst
