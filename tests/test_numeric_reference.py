"""The numpy q-sums against the loop reference of `reference_numeric`.

`TauPoint.nome_sum` carries every float theta sum: the u(1) characters and
the generalized Coulomb sum, besides the eta product.  A seeded sweep over
modular points with Im tau in [0.04, 40] and |Re tau| <= 1/2, where the
reference's tail, absolute with margins, reaches below every sum's leading
term, holds them to the reference at 1e-12.  Characters are compared relative
to |kappa(z = +1)|, because kappa^n_n(-1, q) vanishes; Coulomb sectors
relative to |Z^{(h,0)}|, because the v = 1 sums cancel at small Im tau.
"""

import math
import random
from fractions import Fraction as F

import pytest

import reference_numeric as ref
from torusloop.acceptance import SERIES_PQ
from torusloop.characters import TauPoint, eta_numeric, u1_char_numeric
from torusloop.conformal import coulomb_Z_hv

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
            scale = abs(ref.coulomb_Z_hv(g, h, 0, tau))
            for v in (0, 1):
                got = coulomb_Z_hv(g, h, v, tau)
                assert isinstance(got, float)
                assert abs(got - ref.coulomb_Z_hv(g, h, v, tau)) <= 1e-12 * scale, (g, h, v)
