"""Reference numeric q-sums, independent of the package's nome handling.

The loop versions of the u(1) character, the Dedekind eta function on either
nome and the generalized Coulomb sum that the package used before every float
theta sum went through one numpy sum.  Each term is a separate power of a
nome, q^x = exp(2 pi i tau x) or qbar^x = exp(-2 pi i conj(tau) x), and the
sums are truncated where a term falls below NUMERIC_TAIL relative to 1, with
ad-hoc margins on the index ranges.  Kept deliberately plain, and valid only
where that absolute tail reaches below the sum's leading term (moderate
Im tau); used to certify the package's sums there.

`conformal_Z_grid` is the sector sum the package made in the magnetic frame,
on the integer grid of Gaussian blocks `Zmm`, before it summed the electric
frame.  At alpha = 2 every weight is positive and it is accurate at every
tau; for alpha < 2 its weights oscillate and it cancels away from Im tau ~ 1.
"""

import cmath
import math

import numpy as np

from torusloop.arith import chebyshev_T
from torusloop.conformal import Zmm
from torusloop.model import check_ratio, check_sector

NUMERIC_TAIL = 1e-18


def q_power(tau, x):
    return cmath.exp(2j * math.pi * tau.tau * float(x))


def qbar_power(tau, x):
    return cmath.exp(-2j * math.pi * tau.tau.conjugate() * float(x))


def tail_order(tau):
    return -math.log(NUMERIC_TAIL) / (2 * math.pi * tau.tau.imag)


def eta(tau, side="q"):
    """eta on the nome q (side "q") or qbar (any other side), one factor at a time."""
    power = (lambda x: q_power(tau, x)) if side == "q" else (lambda x: qbar_power(tau, x))
    out = power(1 / 24)
    nmax = 1
    while abs(power(nmax)) > NUMERIC_TAIL:
        nmax += 1
    for k in range(1, nmax + 1):
        out *= 1 - power(k)
    return out


def u1_char(n, j, z, tau):
    """kappa^n_j(z, q) at the nome q of tau."""
    j = float(j)
    reach = math.sqrt(tail_order(tau) * 4 * n)
    k_lo = math.floor((-reach - j) / (2 * n)) - 1
    k_hi = math.ceil((reach - j) / (2 * n)) + 1
    total = 0.0 + 0.0j
    for k in range(k_lo, k_hi + 1):
        sign = -1.0 if (z == -1 and k % 2) else 1.0
        total += sign * q_power(tau, (j + 2 * k * n) ** 2 / (4 * n))
    return total / eta(tau, "q")


def coulomb_Z_hv(g, h, v, tau):
    """The generalized Coulomb sum (complex; its imaginary part is round-off)."""
    g = float(g)
    etas = eta(tau, "q") * eta(tau, "qbar")
    xmax = tail_order(tau)
    rmax = int(math.sqrt(xmax * 4 * g)) + 2
    smax = int(math.sqrt(xmax * 4 / g)) + 2
    total = 0.0 + 0.0j
    for r in range(-rmax, rmax + 1):
        for ss in range(-2 * smax, 2 * smax + 1):
            s = ss + h / 2.0
            a = (r / math.sqrt(g) - s * math.sqrt(g)) ** 2 / 4.0
            b = (r / math.sqrt(g) + s * math.sqrt(g)) ** 2 / 4.0
            if min(a, b) > xmax:
                continue
            total += (-1) ** (v * r) * q_power(tau, a) * qbar_power(tau, b)
    return total / etas


def conformal_Z_grid(g, alpha, h, v, tau):
    """Sector partition function sum 2 T_{gcd(d,j)}(alpha/2) Z_{d,j}(g/4).

    g is the model ratio p/p'; the Gaussian coupling is g/4.  d runs over the
    integers of parity h (so d = 0 enters only for h = 0) and j over those of
    parity v.  The sum keeps every (d, j) whose Gaussian factor
    exp(-pi (g/4) |d tau - j|^2 / tau_i) is at least NUMERIC_TAIL times that of
    (d, j) = (h, v).  That point lies in the sector, so the tail is measured
    from the sector's own leading term or below it, however small the whole
    sector is.  The bound holds only while |T_k(alpha/2)| <= 1, so
    |alpha| > 2 is refused.
    """
    check_sector((h, v))
    if abs(alpha) > 2:
        raise ValueError("the numeric sector sum needs |alpha| <= 2")
    check_ratio(g)
    g4 = float(g) / 4.0
    tr, ti = tau.tau.real, tau.tau.imag
    # |d tau - j|^2 = (d tr - j)^2 + d^2 ti^2 <= reach^2 inside the tail
    reach = math.sqrt(abs(h * tau.tau - v) ** 2
                      - math.log(NUMERIC_TAIL) * ti / (math.pi * g4))
    dmax = int(reach / ti)
    d = np.arange((dmax + h) % 2 - dmax, dmax + 1, 2)[:, None]
    # each row's j of parity v: the nearest to d tr, and reach + 1 either side of it
    half = math.ceil((reach + 1) / 2)
    j = v + 2 * (np.rint((d * tr - v) / 2).astype(int) + np.arange(-half, half + 1))
    k = np.gcd(d, j)
    cheb = np.array([2.0 * chebyshev_T(n, alpha / 2.0) for n in range(k.max(initial=0) + 1)])
    return float(np.sum(cheb[k] * Zmm(g4, d, j, tau)))
