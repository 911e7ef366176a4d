"""Modular nome bookkeeping and affine u(1) characters.

The central objects are the level-n characters

    kappa^n_j(z, q) = q^{-1/24}/(q)_inf * sum_k z^k q^{(j + 2kn)^2 / 4n},

for z = +1 or -1 and j integer or half-integer, exact as truncated series.
They satisfy periodicity and folding relations in j (period 2n at z = +1 and
4n at z = -1, reflections at n and 2n) and the Z_2 intertwining with the
level-4n characters; all of these are exercised in the test-suite and the
acceptance run.

Every float theta sum goes through `TauPoint.nome_sum`, which reads tau, never
a nome, and keeps the terms within `tail_order` of the sum's leading term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .model import ModelSpec, check_character
from .qseries import QSeries, eta_inverse, exact

# every numeric sum drops the terms whose size falls below this, relative to
# the sum's leading term
NUMERIC_TAIL = 1e-18


@dataclass(frozen=True)
class TauPoint:
    """A modular parameter tau, Im tau > 0, with q = exp(2 pi i tau) and qbar = conj(q)."""

    tau: complex

    def __post_init__(self):
        if not cmath.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau!r}")
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")

    @classmethod
    def from_lattice(cls, spec: ModelSpec, delta: float) -> "TauPoint":
        """tau = delta e^{i theta} from the aspect ratio delta = M/N and the
        anisotropy angle theta = pi u / lambda (dense) or pi u / (3 lambda) (dilute).

        The orientation is the one in which the transfer coefficients follow the
        Coulomb-gas blocks with the same labels: C_{d,j} / C_{0,0} of
        `transfer.C_coefficients` tends to Zmm(p/4p', d, j, tau) / Zmm(p/4p', 0, 0, tau),
        not to the (d, -j) block, which the mirror tau -> -conj(tau) would give.
        """
        theta = math.pi * spec.u / spec.lam
        if spec.kind == "dilute":
            theta /= 3.0
        return cls(delta * cmath.exp(1j * theta))

    def nome_sum(self, a, b, w) -> complex:
        """sum w q^a qbar^b over real exponents a, b and weights w that broadcast,
        each term exp(2 pi i (tau a - conj(tau) b)): no nome power, so no branch."""
        c = 2j * math.pi * self.tau
        exps = c * np.asarray(a, dtype=float) + c.conjugate() * np.asarray(b, dtype=float)
        return complex(np.sum(np.asarray(w) * np.exp(exps)))

    @property
    def tail_order(self) -> float:
        """The x beyond which e^{-2 pi x Im tau} < NUMERIC_TAIL: a numeric sum keeps
        the terms q^a qbar^b whose a + b is within x of its leading term's."""
        return -math.log(NUMERIC_TAIL) / (2 * math.pi * self.tau.imag)

    def shift(self) -> "TauPoint":
        return TauPoint(self.tau + 1)

    def invert(self) -> "TauPoint":
        return TauPoint(-1 / self.tau)


def theta_series(j: Fraction, n: int, z: int, cutoff: Fraction) -> QSeries:
    """Theta-like sum sum_k z^k q^{(j + 2kn)^2/4n} truncated at `cutoff`.

    With j = a/b the exponents are the integers (a + 2knb)^2 over 4 n b^2.
    """
    check_character(n, z)
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
    """kappa^n_j(z, q) at `tau`: the terms z^k q^{(j + 2kn)^2/4n}, the leading
    one at |j + 2kn| = min(j mod 2n, 2n - j mod 2n), as one `nome_sum`."""
    check_character(n, z)
    j = float(j)
    r = j % (2 * n)
    reach = math.sqrt(min(r, 2 * n - r) ** 2 + 4 * n * tau.tail_order)
    k = np.arange(math.ceil((-reach - j) / (2 * n)), math.floor((reach - j) / (2 * n)) + 1)
    signs = np.where(k % 2, z, 1)
    # 1/(q^{1/24} (q)_inf) = 1/eta
    return tau.nome_sum((j + 2 * n * k) ** 2 / (4 * n), 0.0, signs) / eta_numeric(tau)


@lru_cache(maxsize=512)
def eta_numeric(tau: TauPoint) -> complex:
    """eta(tau) = q^{1/24} prod_{k >= 1} (1 - q^k), keeping the factors k <= tau.tail_order."""
    c = 2j * math.pi * tau.tau
    k = np.arange(1, math.floor(tau.tail_order) + 1)
    return cmath.exp(c / 24) * complex(np.prod(1 - np.exp(c * k)))


def level_weight(n: int, j: Fraction) -> Fraction:
    """Affine conformal weight min(j^2, (2n - j)^2) / 4n for 0 <= j <= 2n."""
    j = exact(j, "label")
    return min(j ** 2, (2 * n - j) ** 2) / Fraction(4 * n)


def modular_S_residual(n: int, tau: TauPoint) -> float:
    """Numeric residual of the character S-transformation at level n.

    kappa^n_j(-1/tau) = (1/sqrt(2n)) sum_k exp(-pi i j k / n) kappa^n_k(tau), whose
    kernel is the 2n-point DFT: the right side is one `np.fft.fft`.
    """
    check_character(n, 1)
    labels = range(2 * n)
    rhs = np.fft.fft([u1_char_numeric(n, k, 1, tau) for k in labels]) / math.sqrt(2 * n)
    lhs = np.array([u1_char_numeric(n, j, 1, tau.invert()) for j in labels])
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
