"""Bridges between the three representations at the continuum level.

The twist-Fourier coefficients of the conjectured scaling form of the
transfer traces are the Gaussian blocks Z_{d,j} at coupling p/(4p') (with an
extra parity projector for the dense model), and the exact alpha = 2 sector
series sum to the same values as the Gaussian sector sums.
"""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from reference_kac import KacData
from torusloop.characters import TauPoint, eta_numeric
from torusloop.conformal import Z_hv_direct, Zmm, conformal_Z_numeric
from torusloop.model import ModelSpec
from torusloop.transfer import C_coefficients

TAU = TauPoint(complex(0.2, 1.1))


def scaled_trace(kind, p, pq, d, gamma, eps, tau, lmax=60):
    """Numeric evaluation of the conjectured scaling form at a real twist."""
    kac = KacData(p, pq)
    c = float(kac.c)
    # (q qbar)^{-c/24} / (eta etabar (q qbar)^{-1/24})
    pref = tau.nome_sum((1 - c) / 24, (1 - c) / 24, 1) / abs(eta_numeric(tau)) ** 2
    step = 1 if kind == "dense" else 2
    l = np.arange(-lmax, lmax + 1)
    r = gamma / math.pi - step * l
    a = ((pq * r - p * d / 2) ** 2 - (p - pq) ** 2) / (4 * p * pq)
    b = ((pq * r + p * d / 2) ** 2 - (p - pq) ** 2) / (4 * p * pq)
    signs = np.where(l % 2, -1, 1) if (kind == "dense" and eps) else 1
    return pref * tau.nome_sum(a, b, signs)


def fourier_coefficient(kind, p, pq, d, j, eps, npts=256):
    total = 0j
    for k in range(npts):
        g = 2 * math.pi * k / npts
        total += cmath.exp(1j * g * j) * scaled_trace(kind, p, pq, d, g, eps, TAU)
    return total / npts


@pytest.mark.parametrize("d, j", [(0, 0), (0, 1), (1, 0), (1, -1), (2, 3)])
def test_dilute_trace_fourier_gives_gaussian(d, j):
    got = fourier_coefficient("dilute", 2, 3, d, j, 0)
    ref = Zmm(F(2, 12), d, j, TAU)
    assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))
    assert abs(got.imag) < 1e-10


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("d, j", [(0, 0), (0, 1), (2, 2), (2, -1)])
def test_dense_trace_fourier_gives_projected_gaussian(eps, d, j):
    got = fourier_coefficient("dense", 2, 3, d, j, eps)
    ref = (1 + (-1) ** (eps + j)) * Zmm(F(2, 12), d, j, TAU)
    assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("hv", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_exact_series_sums_to_gaussian_sectors(hv):
    s = Z_hv_direct(2, 3, hv[0], hv[1], F(26))
    val = s.evaluate(TAU).real
    gauss = conformal_Z_numeric(F(2, 3), 2.0, hv[0], hv[1], TAU)
    assert abs(val - gauss) < 1e-8 * max(1.0, abs(gauss))


@pytest.mark.parametrize("frac", [0.3, 0.7])
@pytest.mark.parametrize("kind, N", [("dilute", 5), ("dense", 8)])
def test_lattice_tau_pairs_C_with_the_gaussian_of_the_same_labels(kind, N, frac):
    """At anisotropy angle theta = frac pi on the N x N torus, the large one of
    C_{2,+-2} / C_{0,0} is within 10% of Zmm(p/4p', 2, j) / Zmm(p/4p', 0, 0) at
    `TauPoint.from_lattice`'s tau, and over 100 times the (2, -j) block, which
    the mirror tau -> -conj(tau) would pair it with."""
    lam = ModelSpec(kind, 2, 3, 0.0).lam
    spec = ModelSpec(kind, 2, 3, frac * lam * (3 if kind == "dilute" else 1))
    tau = TauPoint.from_lattice(spec, 1.0)
    assert cmath.isclose(tau.tau, cmath.exp(1j * math.pi * frac))
    C0, C2 = C_coefficients(spec, N, N, 0), C_coefficients(spec, N, N, 2)
    j = max((2, -2), key=C2.__getitem__)
    assert j == (2 if frac < 0.5 else -2)
    lattice = C2[j] / C0[0]

    def gaussian(d, jj):
        return Zmm(F(2, 12), d, jj, tau) / Zmm(F(2, 12), 0, 0, tau)

    assert abs(lattice / gaussian(2, j) - 1) < 0.1
    assert lattice > 100 * gaussian(2, -j)
