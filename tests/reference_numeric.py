"""Reference numeric q-sums, independent of the package's nome handling.

The loop versions of the u(1) character, the Dedekind eta function on either
nome and the generalized Coulomb sum that the package used before every float
theta sum went through one numpy sum.  Each term is a separate power of a
nome, q^x = exp(2 pi i tau x) or qbar^x = exp(-2 pi i conj(tau) x), and the
sums are truncated where a term falls below NUMERIC_TAIL relative to 1, with
ad-hoc margins on the index ranges.  Kept deliberately plain, and valid only
where that absolute tail reaches below the sum's leading term (moderate
Im tau); used to certify the package's sums there.
"""

import cmath
import math

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
