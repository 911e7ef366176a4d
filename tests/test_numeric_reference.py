"""The numpy q-sums against the loop and grid references of `reference_numeric`.

`TauPoint.nome_sum` carries every float theta sum: the u(1) characters and
the electric sector sums, besides the eta product.  A seeded sweep over
modular points with Im tau in [0.04, 40] and |Re tau| <= 1/2, where the
reference's tail, absolute with margins, reaches below every sum's leading
term, holds them to the reference at 1e-12.  Characters are compared relative
to |kappa(z = +1)|, because kappa^n_n(-1, q) vanishes.  The sector sums are
compared relative to |Z(alpha = 2)| of the same sector: against the grid sum
at alpha = 2 over the whole sweep, and, below alpha = 2, only where the grid
does not cancel, Im tau and Im(-1/tau) both in [1/2, 2].  The loop Coulomb
sum is read relative to |Z^{(h,0)}|, because its v = 1 sums cancel at small
Im tau.
"""

import math
import random
from fractions import Fraction as F

import pytest

import reference_numeric as ref
from torusloop.acceptance import SERIES_PQ
from torusloop.characters import TauPoint, eta_numeric, u1_char_numeric
from torusloop.conformal import conformal_Z_numeric

LEVELS = (2, 3, 6, 12)
RATIOS = tuple(F(p, pq) for p, pq in SERIES_PQ) + (F(1, 8), F(3, 8))


def _taus(seed=20, count=6):
    """The four corners of the sweep, then seeded points with log-uniform Im tau."""
    rng = random.Random(seed)
    corners = [complex(0, 0.04), complex(0.5, 0.04), complex(-0.5, 40), complex(0, 40)]
    drawn = [complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.04), math.log(40))))
             for _ in range(count)]
    return [TauPoint(t) for t in corners + drawn]


TAUS = _taus()


@pytest.mark.parametrize("tau", TAUS, ids=lambda t: f"{t.tau:.4g}")
def test_eta_matches_reference(tau):
    eta = ref.eta(tau)
    assert abs(eta_numeric(tau) - eta) <= 1e-12 * abs(eta)
    # |eta|^2 is the two-sided product eta(q) eta(qbar)
    assert abs(abs(eta_numeric(tau)) ** 2 - ref.eta(tau, "qbar") * eta) <= 1e-12 * abs(eta) ** 2


@pytest.mark.parametrize("tau", TAUS, ids=lambda t: f"{t.tau:.4g}")
def test_characters_match_reference(tau):
    for n in LEVELS:
        for J in range(4 * n + 1):
            j = F(J, 2)
            scale = abs(ref.u1_char(n, j, 1, tau))
            for z in (1, -1):
                got = u1_char_numeric(n, j, z, tau)
                assert abs(got - ref.u1_char(n, j, z, tau)) <= 1e-12 * scale, (n, j, z)


@pytest.mark.parametrize("tau", TAUS, ids=lambda t: f"{t.tau:.4g}")
def test_coulomb_sectors_match_reference(tau):
    for g in RATIOS:
        for h in (0, 1):
            coulomb_scale = abs(ref.coulomb_Z_hv(g, h, 0, tau))
            for v in (0, 1):
                got = conformal_Z_numeric(g, 2.0, h, v, tau)
                grid = ref.conformal_Z_grid(g, 2.0, h, v, tau)
                assert isinstance(got, float)
                assert abs(got - grid) <= 1e-12 * abs(grid), (g, h, v)
                coulomb = ref.coulomb_Z_hv(g, h, v, tau)
                assert abs(got - coulomb) <= 1e-12 * coulomb_scale, (g, h, v)


def _grid_taus(seed=21, count=6):
    """Seeded points with Im tau and Im(-1/tau) both in [1/2, 2]."""
    rng = random.Random(seed)
    taus = []
    while len(taus) < count:
        t = complex(rng.uniform(-1, 1), math.exp(rng.uniform(math.log(0.5), math.log(2))))
        if 0.5 <= (-1 / t).imag <= 2:
            taus.append(TauPoint(t))
    return taus


@pytest.mark.parametrize("tau", _grid_taus(), ids=lambda t: f"{t.tau:.4g}")
def test_sector_sums_match_grid_below_alpha_2(tau):
    for g in RATIOS:
        for h, v in ((0, 0), (0, 1), (1, 0), (1, 1)):
            scale = abs(ref.conformal_Z_grid(g, 2.0, h, v, tau))
            for alpha in (1.2, 0.6, 0.0, -1.0):
                got = conformal_Z_numeric(g, alpha, h, v, tau)
                grid = ref.conformal_Z_grid(g, alpha, h, v, tau)
                assert abs(got - grid) <= 1e-12 * scale, (g, h, v, alpha)
