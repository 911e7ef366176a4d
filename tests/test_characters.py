"""Affine u(1) characters: series content, foldings, modular data."""

import cmath
import math
from fractions import Fraction as F

import pytest

from reference_kac import KacData, delta_from_ratio
from reference_series import dedekind_eta
from torusloop.characters import (
    TauPoint,
    eta_numeric,
    level_weight,
    modular_S_residual,
    theta_series,
    u1_char,
    u1_char_numeric,
)
from torusloop.model import ModelSpec


def test_kac_data_values():
    kac = KacData(2, 3)
    assert kac.c == 0
    assert kac.delta(1, 1) == F(1, 24) - F(1, 24)
    assert kac.delta(0, 0) == F(-1, 24)
    kac = KacData(3, 4)
    assert kac.c == F(1, 2)
    assert kac.delta(F(1, 2), 0) == (F(2) ** 2 - 1) / 48


def test_delta_from_ratio_matches_kac():
    for (p, pq) in [(1, 2), (2, 3), (3, 5)]:
        kac = KacData(p, pq)
        g = F(p, pq)
        for r in (F(0), F(1), F(-2), F(1, 3)):
            for s in (F(0), F(1, 2), F(3, 2), F(-1)):
                assert kac.delta(r, s) == delta_from_ratio(g, r, s)


def test_tau_point_nomes():
    tau = TauPoint(complex(0.3, 1.1))
    q = cmath.exp(2j * math.pi * tau.tau)
    assert abs(tau.nome_sum(1, 0, 1) - q) < 1e-15
    assert abs(tau.nome_sum(0, 1, 1) - q.conjugate()) < 1e-15
    with pytest.raises(ValueError):
        TauPoint(complex(0.3, -0.2))


@pytest.mark.parametrize("tau", [complex(math.nan, 1), complex(0, math.nan),
                                 complex(math.inf, 1), complex(0, math.inf)])
def test_tau_point_refuses_non_finite_tau(tau):
    # NaN fails the half-plane test silently, and eta at an infinite tau is nan+nanj
    with pytest.raises(ValueError, match="tau must be finite"):
        TauPoint(tau)


def test_tau_from_lattice_anisotropy():
    dense = ModelSpec("dense", 2, 3, 0.0)
    tau = TauPoint.from_lattice(dense.isotropic(), delta=1.5)
    # isotropic point: theta = pi/2, tau purely imaginary
    assert abs(tau.tau.real) < 1e-15 and abs(tau.tau.imag - 1.5) < 1e-15
    dilute = ModelSpec("dilute", 2, 3, 0.0).isotropic()
    tau2 = TauPoint.from_lattice(dilute, delta=1.0)
    assert abs(tau2.tau.real) < 1e-15


def test_theta_series_small():
    th = theta_series(F(0), 1, 1, F(5))
    # exponents k^2 for k in Z: 0, 1, 4 with doubled coefficients off 0
    assert th.coeff(F(0)) == 1 and th.coeff(F(1)) == 2 and th.coeff(F(4)) == 2
    th = theta_series(F(1), 1, -1, F(5))
    # (1+2k)^2/4: k=0 and k=-1 both give 1/4 with signs +1, -1: cancel
    assert not th


def test_u1_char_leading_terms():
    n = 2
    k = u1_char(n, 1, 1, F(4))
    # leading exponent j^2/4n - 1/24 = 1/8 - 1/24 = 1/12
    assert k.min_exponent() == F(1, 12)
    assert k.coeff(F(1, 12)) == 1


def test_u1_char_energy_grading():
    # affine weight of the leading term matches level_weight
    for n in (2, 3, 6):
        for j in range(0, 2 * n + 1):
            k = u1_char(n, j, 1, F(6))
            expected = level_weight(n, F(j)) - F(1, 24)
            assert k.min_exponent() == expected


IDENTITY_LEVELS = (2, 6, 12)


@pytest.mark.parametrize("n", IDENTITY_LEVELS)
def test_character_foldings_exact(n):
    K = F(8)
    labels = [F(j2, 2) for j2 in range(0, 4 * n + 1, max(1, n // 2))]
    for j in labels:
        plus = u1_char(n, j, 1, K)
        minus = u1_char(n, j, -1, K)
        assert u1_char(n, j + 2 * n, 1, K).matches(plus)            # period 2n
        assert u1_char(n, j + 4 * n, -1, K).matches(minus)          # period 4n
        assert u1_char(n, 2 * n - j, 1, K).matches(plus)            # fold no sign
        assert u1_char(n, 2 * n - j, -1, K).matches(minus.scale(F(-1)))
        assert u1_char(n, 4 * n - j, -1, K).matches(minus)
        # z-periodicity with sign: kappa_{j+2n}(-1) = -kappa_j(-1)
        assert u1_char(n, j + 2 * n, -1, K).matches(minus.scale(F(-1)))


@pytest.mark.parametrize("n", IDENTITY_LEVELS)
def test_character_intertwining(n):
    K = F(8)
    for j2 in range(0, 2 * n + 1, max(1, n // 2)):
        j = F(j2, 2)
        for z in (1, -1):
            lhs = u1_char(n, j, z, K)
            a = u1_char(4 * n, 2 * j, 1, K)
            b = u1_char(4 * n, 4 * n - 2 * j, 1, K)
            rhs = a + b if z == 1 else a - b
            assert lhs.matches(rhs)


@pytest.mark.parametrize("n", IDENTITY_LEVELS)
def test_character_vanishing_at_n(n):
    assert not u1_char(n, n, -1, F(10))


def test_numeric_character_agrees_with_series():
    # at Re tau = 0.7 a principal-branch power q^x of the nome q = exp(2 pi i tau)
    # would not be exp(2 pi i tau x)
    for tau in (TauPoint(complex(0.2, 1.0)), TauPoint(complex(0.7, 1.0))):
        for n in (2, 3, 6):
            for j in (0, 1, F(3, 2), n):
                for z in (1, -1):
                    series_val = u1_char(n, j, z, F(30)).evaluate(tau)
                    direct = u1_char_numeric(n, j, z, tau)
                    assert abs(series_val - direct) < 1e-12 * max(1.0, abs(direct))


def test_eta_numeric_matches_series():
    tau = TauPoint(complex(0.17, 0.83))
    series_val = dedekind_eta(F(40)).evaluate(tau)
    assert abs(series_val - eta_numeric(tau)) < 1e-13


def test_modular_S_small_levels():
    tau = TauPoint(complex(0.1, 0.9))
    for n in (2, 3):
        assert modular_S_residual(n, tau) < 1e-8


def test_u1_char_index_normalization():
    # a label reduces modulo the period: 4n = 24 at z = -1, 2n = 12 at z = +1
    assert u1_char(6, F(1, 2), -1, F(4)).matches(u1_char(6, F(49, 2), -1, F(4)))
    assert u1_char(6, 2, 1, F(4)).matches(u1_char(6, 14, 1, F(4)))
