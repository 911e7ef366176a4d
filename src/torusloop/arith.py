"""Arithmetic kernel: gcd conventions, multiplicative functions, Chebyshev
polynomials, and the winding-weight functions that attach Chebyshev loop
fugacities to lattice winding sectors.

Two families of weights appear.  The sector-resolved weights of a row are one
inverse DFT of its parity-projected Chebyshev sequence; the sector-summed
weights reduce to rational combinations of cos(k*gamma) with Ramanujan-sum
integer coefficients, which is what makes the exact series pipeline possible.
The divisor-sum weight Lambda/2 and its prime decomposition are exact cosine
polynomials too; criterion 4 holds all equal to the sum `cyclo.gamma_dm_sum`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

IMAG_TOL = 1e-12


class ImaginaryResidueError(ArithmeticError):
    """A quantity that must be real came out with a large imaginary part."""


gcd_conv = math.gcd  # gcd(i, 0) = |i|, gcd(0, 0) = 0 for windings; the bench reads this name


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple:
    """Sorted (prime, multiplicity) pairs of n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    fac = prime_factors(n)
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    out = n
    for p, _ in prime_factors(n):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple:
    out = [1]
    for p, k in prime_factors(n):
        out = [d * p**j for d in out for j in range(k + 1)]
    return tuple(sorted(out))


def chebyshev_T(k: int, x):
    """T_k(x) of the first kind via the recurrence; exact on exact inputs."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return x * 0 + 1
    prev, cur = x * 0 + 1, x
    for _ in range(k - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


@lru_cache(maxsize=None)
def ramanujan_sum(q: int, m: int) -> int:
    """c_q(m) = sum over residues k coprime to q of exp(2*pi*i*k*m/q)."""
    g = math.gcd(q, abs(m))
    return mobius(q // g) * totient(q) // totient(q // g)


def _real_part(z):
    """The real part of a complex number (as a float) or numpy array, by the
    one realness rule: an imaginary part above IMAG_TOL relative to
    max(1, |real part|) raises ImaginaryResidueError."""
    residue = np.abs(np.imag(z))
    if np.any(residue > IMAG_TOL * np.maximum(1.0, np.abs(np.real(z)))):
        raise ImaginaryResidueError(f"imaginary residue up to {float(np.max(residue))!r}")
    return np.real(z) if np.ndim(z) else float(np.real(z))


def gamma_v(d: int, alpha: float, v: int) -> np.ndarray:
    """The 2|d| sector-resolved winding weights of a row d != 0, indexed by m.

    Entry m is (1/2|d|) sum_{j mod 2|d|} [j = v mod 2] 2 T_{gcd(d,j)}(alpha/2)
    e^{i pi j m / |d|}: one inverse DFT of that 2|d|-periodic sequence.  The
    sequence is even in j, so the weights are even in m and depend on |d|
    only.  Real by construction; the imaginary residue is certified.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    j = np.arange(2 * abs(d))
    # T_k(x) = cos(k arccos x) for every real x, with the complex arccos beyond |x| = 1
    cheb = np.cos(np.gcd(d, j) * cmath.acos(alpha / 2.0))
    return _real_part(np.fft.ifft(np.where((j - v) % 2, 0.0, 2.0 * cheb)))


@lru_cache(maxsize=None)
def gamma_dm_cospoly(d: int, m: int) -> Mapping:
    """Gamma_{d,m} of `cyclo.gamma_dm_sum` as an exact map {k: Fraction} meaning
    sum_k c_k cos(k*gamma).

    Grouping j by g = gcd(d, j) turns the residue sum into a Ramanujan sum:
    (1/d) sum_{g | d} c_{d/g}(m) cos(g*gamma).  Cached, so the map is read-only.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    out = {g: Fraction(ramanujan_sum(d // g, m), d) for g in divisors(d)}
    return MappingProxyType({g: c for g, c in out.items() if c})


def lambda_fsz_cospoly(M: int, N: int) -> dict:
    """Half of the divisor-sum weight Lambda(M, N), exact as {k: Fraction} in cos(k*gamma).

    (1/2) Lambda(d, n) = sum_{r | d/n} (1/(n r)) sum_{a | n r} mu(a) cos((n r / a) gamma),
    here with d = M and n = N, requiring N | M.
    """
    if M <= 0 or N <= 0 or M % N:
        raise ValueError("need positive M, N with N | M")
    out: dict = {}
    for r in divisors(M // N):
        nr = N * r
        for a in divisors(nr):
            mu = mobius(a)
            if mu:
                k = nr // a
                out[k] = out.get(k, Fraction(0)) + Fraction(mu, nr)
    return {k: v for k, v in out.items() if v}


def lambda_prime_form(M: int, N: int) -> dict:
    """Half of Lambda(M, N) from its prime-decomposition form, exact as
    {k: Fraction} in cos(k*gamma), like `lambda_fsz_cospoly`.

    With M = prod p_i^{alpha_i} and N = prod p_i^{beta_i}, sum over exponent
    vectors beta_i <= gamma_i <= alpha_i and deletion flags delta_i in
    {0, min(gamma_i, 1)} of
        (-1)^{sum delta_i} / prod p_i^{gamma_i} * cos(gamma prod p_i^{gamma_i - delta_i}).
    """
    if M <= 0 or N <= 0 or M % N:
        raise ValueError("need positive M, N with N | M")
    fac = prime_factors(M)
    # beta_i, the exponent of p_i in N
    betas = [next(b for b in itertools.count() if N % p ** (b + 1)) for p, _ in fac]
    n = len(fac)
    out: dict = {}
    for choice in itertools.product(*(range(b, a + 1) for b, (_, a) in zip(betas, fac)),
                                    *[(0, 1)] * n):
        gammas, deltas = choice[:n], choice[n:]
        if any(delta > g for g, delta in zip(gammas, deltas)):
            continue
        denom = math.prod(p ** g for (p, _), g in zip(fac, gammas))
        k = math.prod(p ** (g - delta) for (p, _), g, delta in zip(fac, gammas, deltas))
        out[k] = out.get(k, Fraction(0)) + Fraction((-1) ** sum(deltas), denom)
    return {k: v for k, v in out.items() if v}


def s1_elements(d: int, window: int) -> list:
    """The pairs ((m - l*d)/gcd(m,d), d/gcd(m,d)) with |first| <= window.

    Returned with multiplicity: one entry per generating (m, l), so the
    caller can certify the set is degeneracy-free.
    """
    out = []
    for m in range(1, d + 1):
        g = math.gcd(m, d)
        for l in range(-window - 1, window + 2):
            if (m - l * d) % g:
                raise ArithmeticError("gcd does not divide m - l*d")
            P = (m - l * d) // g
            if abs(P) <= window:
                out.append((P, d // g))
    return out


def s2_elements(d: int, window: int) -> set:
    """The pairs (P, N) with N | d, gcd(P, N) = 1 and |P| <= window."""
    return {(P, N) for N in divisors(d)
            for P in range(-window, window + 1) if math.gcd(P, N) == 1}


def verify_s1_s2(d: int, window: int = 25) -> bool:
    """Windowed equality of the two index sets plus inverse-map roundtrip."""
    s1_list = s1_elements(d, window)
    if len(s1_list) != len(set(s1_list)):
        return False  # a degenerate (m, l) pair would break the bijection
    if set(s1_list) != s2_elements(d, window):
        return False
    # (P, N) -> (m, l) -> (P, N) must be the identity
    for (P, N) in set(s1_list):
        t = P * d // N
        m = (t - 1) % d + 1
        l = (m - t) // d
        if m - l * d != t or not 1 <= m <= d:
            return False
        g = math.gcd(m, d)
        if (m - l * d) // g != P or d // g != N:
            return False
    return True


def verify_master(a: int, l: int) -> bool:
    """Exact rational check of (a*l/phi(a*l)) sum_{k|l} mu(a*k)/(a*k) = mu(a)/phi(a)."""
    if a <= 0 or l <= 0:
        raise ValueError("a and l must be positive")
    lhs = Fraction(a * l, totient(a * l)) * sum(
        Fraction(mobius(a * k), a * k) for k in divisors(l))
    return lhs == Fraction(mobius(a), totient(a))
