"""Conformal partition functions: series identities, worked-example forms,
Gaussian numerics and modular covariance."""

import itertools
import math
from fractions import Fraction as F

import pytest

import reference_numeric as ref
from reference_kac import KacData
from torusloop.acceptance import MODULAR_RATIOS, MODULAR_TAUS, SERIES_PQ, modular_ok
from torusloop.characters import TauPoint
from torusloop.conformal import (
    MODULAR_S4,
    MODULAR_T4,
    SesquiTerm,
    Z_hv_bezout,
    Z_hv_direct,
    Z_hv_u1,
    Zmm,
    appendix_c_form,
    conformal_Z_numeric,
    expand_terms,
    full_Z_series,
    modular_rep_check,
    on_series,
    render_appendix_form,
    verma_trace_series,
)

ALL_HV = [(0, 0), (0, 1), (1, 0), (1, 1)]
PAIRS = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]


# -- scaling-limit trace series ---------------------------------------------

def test_verma_leading_exponent():
    # dense (1,2), d=0, gamma = pi/2, eps=0: the l=0 term sets the leading
    # exponent pair (Delta_{1/2,0} - c/24, same); at this symmetric point the
    # l=1 image Delta_{-1/2,0} is exactly degenerate with it
    kac = KacData(1, 2)
    series = verma_trace_series("dense", 1, 2, 0, F(1, 2), 0, F(3))
    lead = kac.delta(F(1, 2), 0) - kac.c / 24
    assert series.min_exponent() == lead
    assert series.coeff(lead, lead) == 2
    assert kac.delta(F(1, 2), 0) == kac.delta(F(-1, 2), 0)


def test_verma_dilute_gamma_shift_invariance():
    a = verma_trace_series("dilute", 2, 3, 1, F(1, 3), 0, F(4))
    b = verma_trace_series("dilute", 2, 3, 1, F(1, 3) + 2, 0, F(4))
    assert a.matches(b)


@pytest.mark.parametrize("eps", [0, 1])
def test_verma_dense_gamma_pi_shift_sign(eps):
    a = verma_trace_series("dense", 2, 3, 2, F(1, 5), eps, F(4))
    b = verma_trace_series("dense", 2, 3, 2, F(1, 5) + 1, eps, F(4))
    expected = a if eps == 0 else a.scale(F(-1))
    assert b.matches(expected)


@pytest.mark.parametrize("eps", [2, 3, -1])
def test_verma_dense_sign_reads_eps_mod_2(eps):
    """The sign (-1)^{eps l} depends on eps mod 2 only: eps = 2 is eps = 0
    and eps = 3 (or -1) is eps = 1, and the two parities differ."""
    series = {e: verma_trace_series("dense", 2, 3, 2, F(1, 5), e, F(4)) for e in (eps, 0, 1)}
    assert series[eps].matches(series[eps % 2])
    assert not series[eps].matches(series[1 - eps % 2])


def test_verma_depends_on_ratio_only():
    """The series is a function of g = p/p' alone: rebuild from delta(g)."""
    from reference_kac import delta_from_ratio
    from torusloop.qseries import BiSeries
    p, pq, d, g0 = 2, 3, 1, F(1, 3)
    K = F(4)
    direct = verma_trace_series("dilute", p, pq, d, g0, 0, K)

    g = F(p, pq)
    work = K + 2
    c_over_24 = (1 - 6 * (1 - g) ** 2 / g) / 24
    theta = {}
    for l in range(-12, 13):
        r = g0 - 2 * l
        a = delta_from_ratio(g, r, F(d, 2)) - c_over_24
        b = delta_from_ratio(g, r, F(-d, 2)) - c_over_24
        if a <= work and b <= work:
            theta[(a, b)] = theta.get((a, b), F(0)) + 1
    from reference_series import double_eta_inverse
    rebuilt = (double_eta_inverse(work) * BiSeries(theta, work)).truncate(K)
    assert direct.matches(rebuilt)


def test_verma_rejects_irrational_twist():
    with pytest.raises(TypeError):
        verma_trace_series("dilute", 2, 3, 0, 0.123, 0, F(3))


@pytest.mark.parametrize("kind", ["dense", "dilute"])
def test_verma_rejects_a_negative_d(kind):
    """Standard modules have d >= 0, as `link_states` demands."""
    with pytest.raises(ValueError, match="d >= 0"):
        verma_trace_series(kind, 2, 3, -2, 0, 0, 2)


# -- the shared theta-sum kernel ----------------------------------------------

def _fraction_theta(work):
    """Sector (1, 1) theta sum of (2, 3): Fraction coefficients of both signs."""
    kac = KacData(2, 3)
    theta = {}
    for r in range(-8, 9):
        for s2 in range(-11, 12, 2):
            s = F(s2, 2)
            a, b = kac.delta_exp(r, s), kac.delta_exp(r, -s)
            if a <= work and b <= work:
                theta[(a, b)] = theta.get((a, b), F(0)) + (-1) ** (r % 2)
    return theta


def _cyclo_theta(work):
    """d > 0 blocks of full_Z_series(3, 4, 2/5): cyclotomic coefficients."""
    from torusloop.arith import gamma_dm_cospoly
    from torusloop.cyclo import CycloField, cospoly_to_cyclo
    kac = KacData(3, 4)
    field = CycloField(10)
    theta = {}
    for d in (1, 2, 3):
        for t in range(-4 * d, 4 * d + 1):
            w = cospoly_to_cyclo(gamma_dm_cospoly(d, t % d), 2, 5)
            a = kac.delta_exp(F(2 * t, d), F(d, 2))
            b = kac.delta_exp(F(2 * t, d), F(-d, 2))
            if a <= work and b <= work:
                theta[(a, b)] = theta.get((a, b), field.rational(0)) + 2 * w
    return theta


def _coprime_theta(work):
    """Exponents over the coprime denominators 7, 11, ..., 47 (D near 5e17),
    one zero coefficient among them."""
    dens = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    theta = {}
    for i, n in enumerate(dens):
        a = F(i + 1, n) + i % 3
        b = F(2 * i + 1, dens[-1 - i])
        if a <= work and b <= work:
            theta[(a, b)] = F(i - 5, 3)
    return theta


def _cancelling_theta(one, work):
    """(1 - q)(1 - qbar) plus zero entries: the dressed coefficient
    (p(a) - p(a-1)) (p(b) - p(b-1)) cancels wherever a or b is 1."""
    return {(F(0), F(0)): one, (F(1), F(0)): -one, (F(0), F(1)): -one,
            (F(1), F(1)): one, (F(1, 3), F(2, 3)): 0 * one,
            (F(1, 2), F(0)): one - one, (work + 1, F(0)): one}


def _cancelling_fraction_theta(work):
    return _cancelling_theta(F(1), work)


def _cancelling_cyclo_theta(work):
    from torusloop.cyclo import CycloField
    return _cancelling_theta(CycloField(10).rational(1), work)


def _integer_keys(theta):
    """theta over integer numerators, with D the lcm of its denominators."""
    D = math.lcm(*(x.denominator for ab in theta for x in ab))
    return {(int(a * D), int(b * D)): c for (a, b), c in theta.items()}, D


@pytest.mark.parametrize("make_theta", [_fraction_theta, _cyclo_theta, _coprime_theta,
                                        _cancelling_fraction_theta,
                                        _cancelling_cyclo_theta])
@pytest.mark.parametrize("K", [F(4), F(7, 3), F(17, 7)])
def test_dress_matches_product_reference(make_theta, K):
    """_dress equals the eta-inverse product on the padded window, truncated,
    and keeps no zero coefficient."""
    from reference_series import double_eta_inverse
    from torusloop.conformal import _dress
    from torusloop.qseries import BiSeries
    work = K + 2
    theta = make_theta(work)
    shifted = {(a - F(1, 24), b - F(1, 24)): c for (a, b), c in theta.items()}
    reference = (double_eta_inverse(work) * BiSeries(shifted, work)).truncate(K)
    dressed = _dress(*_integer_keys(theta), K)
    assert reference.terms
    assert all(dressed.terms.values())
    assert dressed.sorted_terms() == reference.sorted_terms()
    assert dressed.valid == reference.valid
    assert dressed.cutoff == reference.cutoff


SERIES_FORMS = [
    lambda K: verma_trace_series("dense", 2, 3, 0, F(1, 3), 0, K),
    lambda K: Z_hv_direct(2, 3, 0, 0, K),
    lambda K: Z_hv_u1(2, 3, 0, 0, K),
    lambda K: Z_hv_bezout(2, 3, 0, 0, K),
    lambda K: expand_terms(appendix_c_form(2, 3, 0, 0), K),
    lambda K: full_Z_series(2, 3, F(1, 3), K),
    lambda K: on_series(F(2, 3), F(1, 3), K),
]


@pytest.mark.parametrize("form", SERIES_FORMS)
@pytest.mark.parametrize("K", [F(4), F(7, 3), F(0), F(-1, 48)])
def test_series_window_holds_every_needed_term(form, K):
    """A form at cutoff K equals the same form at K + 2 truncated to K."""
    z = form(K)
    wide = form(K + 2).truncate(K)
    assert z.sorted_terms() == wide.sorted_terms()
    assert z.valid == wide.valid


@pytest.mark.parametrize("form", SERIES_FORMS)
@pytest.mark.parametrize("K", [F(-3), F(-1, 23)])
def test_series_forms_reject_cutoff_below_eta_pole(form, K):
    with pytest.raises(ValueError, match="cutoff must be >= -1/24"):
        form(K)


@pytest.mark.parametrize("form", SERIES_FORMS[1:5])
@pytest.mark.parametrize("K", [F(-1, 24), F(-1, 48)])
def test_series_cutoff_at_eta_pole_keeps_leading_term(form, K):
    z = form(K)
    assert dict(z.sorted_terms()) == {(F(-1, 24), F(-1, 24)): 1}
    assert z.cutoff == z.valid == K


def _dress_inputs(monkeypatch, build) -> list:
    """The (theta, D, cutoff) of every `_dress` call that build() makes."""
    import torusloop.conformal as conformal
    real, calls = conformal._dress, []

    def spy(theta, D, cutoff):
        calls.append((theta, D, cutoff))
        return real(theta, D, cutoff)

    monkeypatch.setattr(conformal, "_dress", spy)
    build()
    monkeypatch.undo()
    assert calls
    return calls


def _assert_dress_matches_dict(theta, D, cutoff):
    from reference_series import dress_dict
    from torusloop.conformal import _dress
    got, want = _dress(theta, D, cutoff), dress_dict(theta, D, cutoff)
    assert (got.terms, got.den, got.cutoff, got.valid) \
        == (want.terms, want.den, want.cutoff, want.valid)
    assert [type(c) for c in got.terms.values()] == [type(want.terms[k]) for k in got.terms]


DRESS_BUILDS = [(form, K) for form in SERIES_FORMS for K in (F(4), F(7, 3), F(-1, 24))] + [
    (lambda K: full_Z_series(3, 4, F(2, 5), K), F(8)),
    (lambda K: on_series(F(3, 4), F(2, 5), K), F(8)),
]


@pytest.mark.parametrize("build, K", DRESS_BUILDS)
def test_dress_matches_dict_reference_on_the_forms(monkeypatch, build, K):
    """The block product equals the per-coordinate dict convolution on the
    theta sum of every series form, down to the one block of K = 0."""
    for call in _dress_inputs(monkeypatch, lambda: build(K)):
        _assert_dress_matches_dict(*call)


def _cyclo(nums, den=1, m=10):
    from torusloop.cyclo import CycloField, CycloNum
    return CycloNum(CycloField(m), tuple(nums), den)


@pytest.mark.parametrize("theta, D, K", [
    ({}, 24, F(4)),                                        # nothing to dress
    ({(200, 0): 1, (0, 97): F(1, 2), (99, 99): 3}, 24, F(3)),  # every key above the window
    ({(0, 0): 1, (1, 0): -2, (0, 5): F(1, 3)}, 24, F(-1, 24)),  # K = 0
    ({(0, 0): F(3 ** 50, 7), (24, 48): -1, (5, 29): 2}, 24, F(4)),  # past int64 itself
    ({(0, 0): 2 ** 60, (24, 0): -(2 ** 60), (5, 29): 1}, 24, F(4)),  # past int64 once dressed
    ({(0, 0): _cyclo((2 ** 70 + 1, -(2 ** 69), 3, 0), 5),
      (7, 31): _cyclo((1, 2, 0, -1)), (48, 24): _cyclo((0, 0, 2 ** 69, 1))}, 24, F(7, 3)),
    # Q(zeta_2) has degree 1, so its rows are single coordinates like a Fraction's
    ({(0, 0): _cyclo((5,), 3, m=2), (24, 48): _cyclo((-1,), m=2), (5, 29): 2}, 24, F(4)),
    ({(0, 0): _cyclo((3 ** 45,), 7, m=2), (24, 48): _cyclo((-1,), m=2), (5, 29): 2}, 24, F(4)),
    ({(0, 0): 1, (1, 5): F(-1, 2), (2 ** 64 + 1, 0): 3}, 2 ** 64 + 1, F(2)),  # keys past int64
])
def test_dress_matches_dict_reference_at_the_edges(theta, D, K):
    """Empty and out-of-window theta sums, the single block of K = 0,
    coefficients whose dressed entries need more than int64, the one
    coordinate of a degree-1 field, and exponent keys past int64."""
    _assert_dress_matches_dict(theta, D, K)


def test_dress_refuses_negative_exponents():
    from torusloop.conformal import _dress
    with pytest.raises(ValueError, match="theta exponents must be >= 0"):
        _dress({(0, 0): 1, (-24, 5): 1}, 24, F(4))


# -- one object per coefficient value -----------------------------------------

@pytest.mark.parametrize("i, pair", enumerate(SERIES_PQ))
def test_three_forms_share_their_coefficients(i, pair):
    """Equal terms of the three alpha = 2 forms are one object, so `matches`
    compares them by identity."""
    (p, pq), (h, v) = pair, ALL_HV[i % len(ALL_HV)]
    zd = Z_hv_direct(p, pq, h, v, F(4))
    for form in (Z_hv_u1, Z_hv_bezout):
        z = form(p, pq, h, v, F(4))
        assert z.terms.keys() == zd.terms.keys()
        assert all(c is zd.terms[k] for k, c in z.terms.items())


def test_full_and_on_series_share_their_coefficients():
    full = full_Z_series(2, 3, F(2, 5), F(4))
    on = on_series(F(2, 3), F(2, 5), F(4)).swap()
    assert on.terms.keys() == full.terms.keys()
    assert all(c is full.terms[k] for k, c in on.terms.items())


def test_shared_coefficients_are_keyed_by_field_and_reduced_value():
    from torusloop.conformal import _dress
    from torusloop.cyclo import CycloField
    lead = (F(-1, 24), F(-1, 24))

    def dressed(theta):
        return _dress(theta, 24, F(0)).coeff(*lead)

    # 3 is the integer vector (3, 0, 0, 0) in both Q(zeta_10) and Q(zeta_12),
    # and these elements compare equal across fields; each keeps its own field
    threes = [dressed({(0, 0): CycloField(m).rational(3)}) for m in (10, 12, 14)]
    assert [c.field.m for c in threes] == [10, 12, 14]
    assert len({id(c) for c in threes}) == 3
    assert all(c == 3 for c in threes)
    # the 3 of a sum over denominator 2 is 6/2, the same Fraction as a lone 3
    alone, halves = dressed({(0, 0): 3}), dressed({(0, 0): 3, (1, 0): F(1, 2)})
    assert type(alone) is F and alone == 3
    assert halves is alone


def test_series_digest_holds_with_the_coefficient_cache_cold_and_warm():
    """Both coefficient caches, the values and the raw-row tables over them,
    start empty, fill on the first digest and serve the second."""
    from test_series_digest import PINNED, series_digest
    from torusloop.conformal import _by_row, _coefficient
    caches = (_coefficient, _by_row)
    for cache in caches:
        cache.cache_clear()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    assert series_digest() == PINNED
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    assert series_digest() == PINNED


# -- route 3's trace lines ----------------------------------------------------

def _assert_same_theta(monkeypatch, build, reference):
    """The one theta sum that build() dresses equals reference, with its D,
    its keys, its values and the type of every coefficient."""
    (theta, D, _), = _dress_inputs(monkeypatch, build)
    want, want_D = reference
    assert D == want_D
    assert theta == want
    assert [type(c) for c in theta.values()] == [type(want[k]) for k in theta]


@pytest.mark.parametrize("p, pq", SERIES_PQ)
@pytest.mark.parametrize("hv", ALL_HV)
def test_direct_lines_match_double_loop(monkeypatch, p, pq, hv):
    """`Z_hv_direct`'s Markov sum of dilute lines collects the theta sum of
    the double loop over S and r."""
    from reference_series import direct_theta
    for K in (F(-1, 24), F(0), F(7, 3), F(10)):
        _assert_same_theta(monkeypatch, lambda: Z_hv_direct(p, pq, *hv, K),
                           direct_theta(p, pq, *hv, K))


def _theta_values(theta: dict, D: int) -> dict:
    """A theta sum as a map from exponent pairs (A/D, B/D) to its nonzero values."""
    return {(F(a, D), F(b, D)): c for (a, b), c in theta.items() if c}


@pytest.mark.parametrize("p, pq", [(1, 2), (2, 3), (3, 4), (3, 5)])
@pytest.mark.parametrize("e0", [F(0), F(1, 3), F(2, 5), F(-3, 7), F(7, 5), F(1, 4)])
def test_full_lines_match_block_loop(monkeypatch, p, pq, e0):
    """`full_Z_series`'s Markov sum of dilute lines collects the theta sum of
    the d = 0 block and the d > 0 blocks: the same exponents with the same
    nonzero values, of the same types, whatever denominator keys them."""
    from reference_series import full_theta
    for K in (F(0), F(5), F(8)):
        (theta, D, _), = _dress_inputs(monkeypatch, lambda: full_Z_series(p, pq, e0, K))
        got, want = _theta_values(theta, D), _theta_values(*full_theta(p, pq, e0, K))
        assert got == want
        assert [type(c) for c in got.values()] == [type(want[k]) for k in got]


def _sector_sum(p: int, pq: int, h: int, v: int, e0: F, K):
    """Z^(h,v)(alpha = 2 cos pi e0) through K, exact: `_markov_sum` with the pair
    (1, (-1)^v) on d = h (mod 2) and cyclotomic weights."""
    from torusloop.conformal import _markov_sum
    from torusloop.cyclo import cospoly_to_cyclo
    pair = [(1, (-1) ** v) if d == h else (0, 0) for d in (0, 1)]
    return _markov_sum(p, pq, e0, K,
                       lambda poly: cospoly_to_cyclo(poly, e0.numerator, e0.denominator), pair)


@pytest.mark.parametrize("p, pq", SERIES_PQ)
@pytest.mark.parametrize("hv", ALL_HV)
def test_dense_markov_sum_is_twice_the_dilute_one(monkeypatch, p, pq, hv):
    """The dense = dilute identity at alpha = 2 cos pi e0, exactly.  The lines
    that `_markov_sum` adds for sector (h, v), rebuilt as dense lines with
    eps = v, sum to twice the dilute sum; at e0 = 0 that sum is `Z_hv_direct`."""
    import torusloop.conformal as conformal
    h, v = hv
    real, lines = conformal._trace_line, []

    def spy(theta, kind, p, pq, root, den, start, d, eps, weight):
        lines.append((root, den, start, d, weight))
        real(theta, kind, p, pq, root, den, start, d, eps, weight)

    for e0, K in itertools.product((F(0), F(1, 3), F(2, 5), F(1, 4)), (F(7, 3), F(10))):
        lines.clear()
        monkeypatch.setattr(conformal, "_trace_line", spy)
        dilute = _sector_sum(p, pq, h, v, e0, K)
        monkeypatch.undo()
        theta = {}
        for root, den, start, d, weight in lines:
            real(theta, "dense", p, pq, root, den, start, d, v, weight)
        (den,) = {line[1] for line in lines}
        cutoff, work = conformal._window(K)
        dense = conformal._dress(theta, conformal._kac_window(p, pq, den, work)[0], cutoff)
        twice = dilute.scale(2)
        # Z^(0,0) of (1, 3) vanishes at alpha = 1, as the numeric sector sum does
        assert dense.terms or (p, pq, hv, e0) == (1, 3, (0, 0), F(1, 3))
        assert (dense, dense.valid) == (twice, twice.valid)
        if e0 == 0:
            assert dilute == Z_hv_direct(p, pq, h, v, K)


@pytest.mark.parametrize("p, pq", [(2, 3), (3, 4)])
@pytest.mark.parametrize("e0", [F(0), F(1, 3), F(2, 5)])
def test_exact_sector_sum_matches_numeric_route_3(p, pq, e0):
    """Route 3 exact against route 3 numeric away from alpha = 2: each sector
    sum at alpha = 2 cos pi e0 through cutoff 12, read at tau, equals the
    electric-frame `conformal_Z_numeric` to 1e-12 relative."""
    tau = TauPoint(complex(0.13, 0.9))
    alpha = 2 * math.cos(math.pi * e0)
    for h, v in ALL_HV:
        series = _sector_sum(p, pq, h, v, e0, F(12)).evaluate(tau)
        numeric = conformal_Z_numeric(p / pq, alpha, h, v, tau)
        assert abs(series - numeric) <= 1e-12 * abs(numeric)


# -- Gaussian numerics -------------------------------------------------------

TAU = TauPoint(complex(0.1, 0.9))


def test_Zmm_special_value():
    from torusloop.characters import eta_numeric
    val = Zmm(0.25, 0, 0, TAU)
    expected = math.sqrt(0.25 / TAU.tau.imag) / abs(eta_numeric(TAU)) ** 2
    assert math.isclose(val, expected, rel_tol=1e-12)


def test_Zmm_modular_identities():
    for g in (0.125, 0.3, 0.75):
        for (m, mp) in ((1, 0), (2, 1), (3, -2)):
            assert math.isclose(Zmm(g, m, mp, TAU.shift()), Zmm(g, m, mp - m, TAU),
                                rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(Zmm(g, m, mp, TAU.invert()), Zmm(g, mp, -m, TAU),
                                rel_tol=1e-12, abs_tol=1e-15)


# Im tau = 0.04 needs Gaussian rows far beyond |d| = 40
SMALL_TAU = TauPoint(complex(0.3, 0.04))


def test_conformal_numeric_alpha2_equals_coulomb():
    """At alpha = 2 every weight of the grid reference is positive, so it is
    accurate even where a sector lies far below the others: (4, 5), sector
    (0, 1) at 0.02i, about 5e-14 of sector (0, 0)."""
    for tau in (TAU, SMALL_TAU, TauPoint(0.02j)):
        for (p, pq) in [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]:
            for (h, v) in ALL_HV:
                a = conformal_Z_numeric(F(p, pq), 2.0, h, v, tau)
                b = ref.conformal_Z_grid(F(p, pq), 2.0, h, v, tau)
                assert abs(b.imag) < 1e-12
                assert math.isclose(a, b.real, rel_tol=1e-10)
    assert math.isclose(conformal_Z_numeric(F(4, 5), 2.0, 0, 1, TauPoint(0.02j)),
                        0.0106431309576011, rel_tol=1e-12)


def test_conformal_numeric_below_alpha2_far_from_im_tau_1():
    """(2, 3), alpha = 1.2, sector (0, 0) against an 80-digit sum of the
    Gaussian grid: the grid's oscillating weights cancel in float64 there."""
    for tau, want in ((40j, 91.9753931595761), (1j / 40, 91.9753931595761),
                      (118j, 620628.015803191), (1j / 118, 620628.015803191)):
        got = conformal_Z_numeric(F(2, 3), 1.2, 0, 0, TauPoint(tau))
        assert math.isclose(got, want, rel_tol=1e-12), tau


# |q| underflows to 0.0 from Im tau = 119 on
LARGE_TAUS = (TauPoint(119j), TauPoint(complex(3, 200)))


def test_numeric_sums_past_nome_underflow():
    from torusloop.characters import u1_char_numeric
    for tau in LARGE_TAUS:
        # only the leading term q^{j^2/4n - 1/24} of kappa^3_1 is left
        kappa = u1_char_numeric(3, 1, 1, tau)
        lead = math.exp(-2 * math.pi * tau.tau.imag * (F(1, 12) - F(1, 24)))
        assert math.isclose(abs(kappa), lead, rel_tol=1e-12)
        # the h = 1 sectors lie a factor e^{-pi g tau_i / 4} below (0, 0), under a tail taken from 1
        for g in (F(1, 2), F(2, 3), F(3, 4)):
            for (h, v) in ALL_HV:
                a = conformal_Z_numeric(g, 2.0, h, v, tau)
                b = ref.conformal_Z_grid(g, 2.0, h, v, tau)
                assert math.isfinite(a) and math.isfinite(abs(b))
                assert abs(b.imag) < 1e-12 * abs(b)
                assert math.isclose(a, b.real, rel_tol=1e-10)


def test_conformal_numeric_keeps_sectors_far_below_the_tail():
    """The h = 1 sectors of (2, 3) are O(1) where (0, 0) is ~e^{pi tau_i / 3}."""
    g = F(2, 3)
    assert math.isclose(conformal_Z_numeric(g, 2.0, 1, 0, TauPoint(80j)),
                        conformal_Z_numeric(g, 2.0, 0, 1, TauPoint(1j / 80)),
                        rel_tol=1e-10)
    assert math.isclose(conformal_Z_numeric(g, 2.0, 1, 1, TauPoint(118j)), 2.0,
                        rel_tol=1e-10)


def test_conformal_numeric_refuses_alpha_beyond_two():
    with pytest.raises(ValueError):
        conformal_Z_numeric(F(1, 2), 2.5, 0, 0, TAU)


def test_sector_sum_alpha2_is_twice_coulomb_quarter_coupling():
    for tau in (TAU, SMALL_TAU):
        for (p, pq) in [(1, 2), (2, 3)]:
            total = sum(conformal_Z_numeric(F(p, pq), 2.0, h, v, tau)
                        for (h, v) in ALL_HV)
            want = 2 * ref.conformal_Z_grid(F(p, 4 * pq), 2.0, 0, 0, tau)
            assert math.isclose(total, want, rel_tol=1e-10)


def test_modular_report():
    rep = modular_rep_check(MODULAR_TAUS, MODULAR_RATIOS)
    assert modular_ok(rep)
    assert rep["Zmm_covariance_residual"] < 1e-12


def test_modular_matrices_are_permutations():
    assert MODULAR_S4[1][2] == MODULAR_S4[2][1] == 1
    assert MODULAR_T4[2][3] == MODULAR_T4[3][2] == 1
    # the sector maps the numeric covariance check reads off the matrices
    from torusloop.conformal import _sector_map
    assert _sector_map(MODULAR_T4) == {(0, 0): (0, 0), (0, 1): (0, 1),
                                       (1, 0): (1, 1), (1, 1): (1, 0)}
    assert _sector_map(MODULAR_S4) == {(0, 0): (0, 0), (0, 1): (1, 0),
                                       (1, 0): (0, 1), (1, 1): (1, 1)}


# -- the exact triple identity ------------------------------------------------

@pytest.mark.parametrize("p, pq", [(1, 2), (2, 3)])
@pytest.mark.parametrize("hv", ALL_HV)
def test_triple_identity_small(p, pq, hv):
    K = F(8)
    zd = Z_hv_direct(p, pq, hv[0], hv[1], K)
    assert zd.matches(Z_hv_u1(p, pq, hv[0], hv[1], K))
    assert zd.matches(Z_hv_bezout(p, pq, hv[0], hv[1], K))


def test_direct_leading_term():
    # r = s = 0 gives the constant 1/(eta etabar) leading behaviour
    zd = Z_hv_direct(1, 2, 0, 0, F(4))
    assert zd.coeff(F(-1, 24), F(-1, 24)) == 1


def _char_product(n, jl, jr, z, work):
    """kappa^n_jl(z, q) kappa^n_jr(z, qbar) from u1_char: the reference path."""
    from torusloop.characters import u1_char
    from torusloop.qseries import BiSeries
    return BiSeries.from_product(u1_char(n, jl, z, work), u1_char(n, jr, z, work), work)


def test_u1_half_range_reduction():
    """Summing s over [0, 4p') halves onto the s in [0, 2p') grid."""
    from torusloop.qseries import BiSeries
    p, pq, h, v = 3, 4, 1, 1
    n = p * pq
    z = -1
    K = F(5)
    work = K + 2
    total = BiSeries({}, work)
    for r in range(p):
        for s in range(4 * pq):
            jl = F(2 * pq * r - p * (2 * s + h), 2)
            jr = F(2 * pq * r + p * (2 * s + h), 2)
            term = _char_product(n, jl, jr, z, work)
            if v and r % 2:
                term = -term
            total = total + term
    assert total.scale(F(1, 2)).truncate(K).matches(
        Z_hv_u1(p, pq, h, v, K))


def test_zrs_symmetries():
    """Character products repeat under r -> r + 2p, s -> s + 2p', (r,s) -> (-r,-s-h)."""
    p, pq, h, v = 3, 4, 1, 0
    n, z, K = p * pq, 1, F(4)

    def block(r, s):
        jl = F(2 * pq * r - p * (2 * s + h), 2)
        jr = F(2 * pq * r + p * (2 * s + h), 2)
        return _char_product(n, jl, jr, z, K)

    for (r, s) in [(0, 1), (1, 2), (2, 3)]:
        base = block(r, s)
        assert base.matches(block(r + 2 * p, s))
        assert base.matches(block(r, s + 2 * pq))
        assert base.matches(block(-r, -s - h))
        # conjugation: s -> 2p' - s - h swaps q and qbar
        assert base.swap().matches(block(r, 2 * pq - s - h))


def test_positive_coefficients_in_v0_sectors():
    for (p, pq) in [(2, 3), (3, 4)]:
        for h in (0, 1):
            z = Z_hv_direct(p, pq, h, 0, F(8))
            assert all(c > 0 for c in z.terms.values())
            zneg = Z_hv_direct(p, pq, h, 1, F(8))
            assert any(c < 0 for c in zneg.terms.values())


# -- appendix-style folded forms ---------------------------------------------

def _parse_golden(level, z, spec):
    out = []
    for item in spec.split(","):
        coeff, labels = item.strip().split(":")
        lft, rgt = labels.split("|")
        out.append(SesquiTerm(int(coeff), F(lft), F(rgt), z, level))
    return out


# folded sesquilinear forms as printed in the worked examples; labels are
# exact (half-integers written as fractions)
GOLDEN_FORMS = {
    (1, 2, 0, 0): (2, 1, "1:0|0, 2:1|1, 1:2|2"),
    (1, 2, 0, 1): (2, -1, "1:0|0, 2:1|1, 1:2|2"),
    (1, 2, 1, 0): (2, 1, "2:1/2|1/2, 2:3/2|3/2"),
    (1, 2, 1, 1): (2, -1, "2:1/2|1/2, 2:3/2|3/2"),
    (1, 3, 0, 0): (3, 1, "1:0|0, 2:1|1, 2:2|2, 1:3|3"),
    (1, 3, 0, 1): (3, -1, "1:0|0, 2:1|1, 2:2|2, 1:3|3"),
    (1, 3, 1, 0): (3, 1, "2:1/2|1/2, 2:3/2|3/2, 2:5/2|5/2"),
    (1, 3, 1, 1): (3, -1, "2:1/2|1/2, 2:3/2|3/2, 2:5/2|5/2"),
    (2, 3, 0, 0): (6, 1, "1:0|0, 2:1|5, 2:2|2, 2:3|3, 2:4|4, 2:5|1, 1:6|6"),
    (2, 3, 0, 1): (6, 1, "1:0|0, -2:1|5, 2:2|2, -2:3|3, 2:4|4, -2:5|1, 1:6|6"),
    (2, 3, 1, 0): (6, 1, "1:0|6, 2:1|1, 2:2|4, 2:3|3, 2:4|2, 2:5|5, 1:6|0"),
    (2, 3, 1, 1): (6, 1, "-1:0|6, 2:1|1, -2:2|4, 2:3|3, -2:4|2, 2:5|5, -1:6|0"),
    (3, 4, 0, 0): (12, 1, "1:0|0, 2:1|7, 2:2|10, 2:3|3, 2:4|4, 2:5|11, 2:6|6,"
                          "2:7|1, 2:8|8, 2:9|9, 2:10|2, 2:11|5, 1:12|12"),
    (3, 4, 0, 1): (12, -1, "1:0|0, -2:1|7, -2:2|10, 2:3|3, -2:4|4, 2:5|11,"
                           "2:6|6, -2:7|1, 2:8|8, 2:9|9, -2:10|2, 2:11|5,"
                           "1:12|12"),
    (3, 4, 1, 0): (12, 1, "2:1/2|17/2, 2:3/2|3/2, 2:5/2|11/2, 2:7/2|23/2,"
                          "2:9/2|9/2, 2:11/2|5/2, 2:13/2|19/2, 2:15/2|15/2,"
                          "2:17/2|1/2, 2:19/2|13/2, 2:21/2|21/2, 2:23/2|7/2"),
    (3, 4, 1, 1): (12, -1, "-2:1/2|17/2, 2:3/2|3/2, -2:5/2|11/2, -2:7/2|23/2,"
                           "2:9/2|9/2, -2:11/2|5/2, 2:13/2|19/2, 2:15/2|15/2,"
                           "-2:17/2|1/2, 2:19/2|13/2, 2:21/2|21/2, -2:23/2|7/2"),
    (3, 5, 0, 0): (15, 1, "1:0|0, 2:1|11, 2:2|8, 2:3|3, 2:4|14, 2:5|5, 2:6|6,"
                          "2:7|13, 2:8|2, 2:9|9, 2:10|10, 2:11|1, 2:12|12,"
                          "2:13|7, 2:14|4, 1:15|15"),
    (3, 5, 0, 1): (15, -1, "1:0|0, -2:1|11, -2:2|8, 2:3|3, -2:4|14, -2:5|5,"
                           "2:6|6, 2:7|13, -2:8|2, 2:9|9, 2:10|10, -2:11|1,"
                           "2:12|12, 2:13|7, -2:14|4, 1:15|15"),
    (3, 5, 1, 0): (15, 1, "2:1/2|19/2, 2:3/2|3/2, 2:5/2|25/2, 2:7/2|13/2,"
                          "2:9/2|9/2, 2:11/2|29/2, 2:13/2|7/2, 2:15/2|15/2,"
                          "2:17/2|23/2, 2:19/2|1/2, 2:21/2|21/2, 2:23/2|17/2,"
                          "2:25/2|5/2, 2:27/2|27/2, 2:29/2|11/2"),
    (3, 5, 1, 1): (15, -1, "-2:1/2|19/2, 2:3/2|3/2, -2:5/2|25/2, -2:7/2|13/2,"
                           "2:9/2|9/2, 2:11/2|29/2, -2:13/2|7/2, 2:15/2|15/2,"
                           "2:17/2|23/2, -2:19/2|1/2, 2:21/2|21/2, 2:23/2|17/2,"
                           "-2:25/2|5/2, 2:27/2|27/2, 2:29/2|11/2"),
    (4, 5, 0, 0): (20, 1, "1:0|0, 2:1|9, 2:2|18, 2:3|13, 2:4|4, 2:5|5, 2:6|14,"
                          "2:7|17, 2:8|8, 2:9|1, 2:10|10, 2:11|19, 2:12|12,"
                          "2:13|3, 2:14|6, 2:15|15, 2:16|16, 2:17|7, 2:18|2,"
                          "2:19|11, 1:20|20"),
    (4, 5, 0, 1): (20, 1, "1:0|0, -2:1|9, 2:2|18, -2:3|13, 2:4|4, -2:5|5,"
                          "2:6|14, -2:7|17, 2:8|8, -2:9|1, 2:10|10, -2:11|19,"
                          "2:12|12, -2:13|3, 2:14|6, -2:15|15, 2:16|16,"
                          "-2:17|7, 2:18|2, -2:19|11, 1:20|20"),
    (4, 5, 1, 0): (20, 1, "1:0|20, 2:1|11, 2:2|2, 2:3|7, 2:4|16, 2:5|15,"
                          "2:6|6, 2:7|3, 2:8|12, 2:9|19, 2:10|10, 2:11|1,"
                          "2:12|8, 2:13|17, 2:14|14, 2:15|5, 2:16|4, 2:17|13,"
                          "2:18|18, 2:19|9, 1:20|0"),
    (4, 5, 1, 1): (20, 1, "1:0|20, -2:1|11, 2:2|2, -2:3|7, 2:4|16, -2:5|15,"
                          "2:6|6, -2:7|3, 2:8|12, -2:9|19, 2:10|10, -2:11|1,"
                          "2:12|8, -2:13|17, 2:14|14, -2:15|5, 2:16|4,"
                          "-2:17|13, 2:18|18, -2:19|9, 1:20|0"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_FORMS))
def test_appendix_forms_match_paper(key):
    p, pq, h, v = key
    level, z, spec = GOLDEN_FORMS[key]
    golden = _parse_golden(level, z, spec)
    computed = appendix_c_form(p, pq, h, v)
    assert computed == golden


@pytest.mark.parametrize("key", [(1, 2, 1, 0), (2, 3, 1, 1), (3, 4, 0, 1),
                                 (4, 5, 1, 0)])
def test_appendix_forms_expand_to_direct_series(key):
    p, pq, h, v = key
    K = F(6)
    expansion = expand_terms(appendix_c_form(p, pq, h, v), K)
    assert expansion.matches(Z_hv_direct(p, pq, h, v, K))


def test_expand_terms_rejects_labels_off_the_half_integers():
    with pytest.raises(ValueError, match="integers or half-integers"):
        expand_terms([SesquiTerm(1, F(1, 3), F(0), 1, 2)], F(2))


def test_appendix_form_rendering():
    text = render_appendix_form(appendix_c_form(1, 2, 1, 0))
    assert text.splitlines() == [
        "+ 2 k[2,1/2](q) k[2,1/2](q~)",
        "+ 2 k[2,3/2](q) k[2,3/2](q~)",
    ]
    text = render_appendix_form(appendix_c_form(2, 3, 1, 1))
    assert text.splitlines()[0] == "- 1 k[6,0](q) k[6,6](q~)"


def test_appendix_positive_coefficients_at_v0():
    assert all(t.coeff > 0 for t in appendix_c_form(3, 4, 1, 0))
    assert any(t.coeff < 0 for t in appendix_c_form(3, 4, 1, 1))


# -- full partition function vs the O(n) model --------------------------------

@pytest.mark.parametrize("p, pq", [(1, 2), (2, 3)])
@pytest.mark.parametrize("e0", [F(0), F(1, 3), F(2, 5)])
def test_full_pf_equals_on_model(p, pq, e0):
    K = F(5)
    full = full_Z_series(p, pq, e0, K)
    on = on_series(F(p, pq), e0, K)
    assert full.matches(on.swap())


def test_full_pf_d0_block():
    """At gamma/pi irrationality-free points the d = 0 block is the diagonal part."""
    kac = KacData(1, 2)
    K = F(3)
    full = full_Z_series(1, 2, F(1, 3), K)
    lead = kac.delta(F(1, 3), 0) - kac.c / 24
    coeff = full.coeff(lead, lead)
    assert complex(coeff).real == 1.0


def test_full_pf_halves_the_sector_sum():
    K = F(5)
    for (p, pq) in [(1, 2), (2, 3)]:
        full = full_Z_series(p, pq, F(0), K)
        total = Z_hv_direct(p, pq, 0, 0, K)
        for hv in [(0, 1), (1, 0), (1, 1)]:
            total = total + Z_hv_direct(p, pq, hv[0], hv[1], K)
        half = total.scale(F(1, 2))
        full_terms, half_terms = dict(full.sorted_terms()), dict(half.sorted_terms())
        assert set(full_terms) == set(half_terms)
        for k, c in half_terms.items():
            z = complex(full_terms[k])
            assert z.imag == 0 and z.real == float(c)
