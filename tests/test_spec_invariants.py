"""Cross-cutting invariants that tie the modules together."""

import ast
import functools
import importlib
import math
import re
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from reference_enum import _valid
from reference_kac import KacData, delta_from_ratio
import torusloop
from torusloop.arith import ImaginaryResidueError, gamma_v
from torusloop.bezout import BezoutContext
from torusloop.characters import (TauPoint, level_weight, modular_S_residual, theta_series,
                                  u1_char, u1_char_numeric)
from torusloop.conformal import (SesquiTerm, Z_hv_bezout, Z_hv_direct, Z_hv_u1, Zmm,
                                 appendix_c_form, conformal_Z_numeric,
                                 expand_terms, full_Z_series, on_series, verma_trace_series)
from torusloop.cyclo import CycloField, CycloNum, cospoly_to_cyclo
from torusloop.lattice import census_counter, enumerate_configs, lattice_Z
from torusloop.model import KIND_TILES, ModelSpec, Weights, defect_numbers, torus_sectors
from torusloop.transfer import link_states, markov_Z
from torusloop.qseries import QSeries, euler_inverse


@pytest.mark.parametrize("kind, M, N", [("dense", 3, 3), ("dilute", 2, 3)])
def test_enumerator_output_revalidated_edge_by_edge(kind, M, N):
    """Fast enumerator output passes the independent adjacency check."""
    spec = ModelSpec(kind, 2, 3, 0.4)
    count = 0
    for grid, _ in enumerate_configs(spec, M, N):
        rows = [list(grid.tiles[r * N:(r + 1) * N]) for r in range(M)]
        assert _valid(rows, M, N)
        count += 1
    assert count > 0


@pytest.mark.parametrize("kind, M, N", [
    ("dense", 2, 3), ("dilute", 2, 2), ("dilute", 1, 3), ("dilute", 3, 1),
])
def test_enumeration_is_complete_and_ordered(kind, M, N):
    """Exactly the assignments that pass the independent adjacency check,
    each once, in strictly increasing lexicographic order."""
    spec = ModelSpec(kind, 2, 3, 0.4)
    got = [grid.tiles for grid, _ in enumerate_configs(spec, M, N)]
    want = {a for a in product(KIND_TILES[spec.kind], repeat=M * N)
            if _valid([a[r * N:(r + 1) * N] for r in range(M)], M, N)}
    assert set(got) == want
    assert all(a < b for a, b in zip(got, got[1:]))


SPEC = ModelSpec("dilute", 2, 3, 0.4)
TAU = TauPoint(complex(0.1, 0.9))
SECTOR_TAKERS = {
    "lattice_Z": lambda h, v: lattice_Z(SPEC, 2, 2, sector=(h, v), alpha=1.0),
    "markov_Z": lambda h, v: markov_Z(SPEC, 2, 2, h, v, alpha=1.0),
    "Z_hv_direct": lambda h, v: Z_hv_direct(2, 3, h, v, F(2)),
    "Z_hv_u1": lambda h, v: Z_hv_u1(2, 3, h, v, F(2)),
    "conformal_Z_numeric": lambda h, v: conformal_Z_numeric(F(2, 3), 2.0, h, v, TAU),
    "appendix_c_form": lambda h, v: appendix_c_form(2, 3, h, v),
}


@pytest.mark.parametrize("hv", [(2, 0), (0, 2), (-1, 0)])
@pytest.mark.parametrize("name", sorted(SECTOR_TAKERS))
def test_sector_outside_the_four_raises(name, hv):
    """Every function that takes a sector refuses one outside {0, 1}^2 in
    place of reading it modulo 2 or as an empty sector."""
    with pytest.raises(ValueError, match="is not one of"):
        SECTOR_TAKERS[name](*hv)


PAIR_TAKERS = {
    "ModelSpec": lambda p, pq: ModelSpec("dilute", p, pq, 0.4),
    "KacData": lambda p, pq: KacData(p, pq),
    "BezoutContext": lambda p, pq: BezoutContext(p, pq, 0, 0),
    "verma_trace_series": lambda p, pq: verma_trace_series("dense", p, pq, 0, F(0), 0, F(2)),
    "Z_hv_direct": lambda p, pq: Z_hv_direct(p, pq, 0, 0, F(2)),
    "Z_hv_u1": lambda p, pq: Z_hv_u1(p, pq, 0, 0, F(2)),
    "Z_hv_bezout": lambda p, pq: Z_hv_bezout(p, pq, 0, 0, F(2)),
    "appendix_c_form": lambda p, pq: appendix_c_form(p, pq, 0, 0),
    "full_Z_series": lambda p, pq: full_Z_series(p, pq, F(0), F(2)),
}


@pytest.mark.parametrize("pair", [(2, 4), (3, 2), (0, 3)])
@pytest.mark.parametrize("name", sorted(PAIR_TAKERS))
def test_pair_outside_the_coprime_rule_raises(name, pair):
    """Every function that takes (p, p') refuses a pair that is not coprime
    0 < p < p', with the one message of `check_pair`."""
    with pytest.raises(ValueError, match=re.escape(f"(p, p') = {pair} is not a coprime pair")):
        PAIR_TAKERS[name](*pair)


@pytest.mark.parametrize("g", [F(3, 2), F(0), F(1)])
def test_on_series_refuses_a_ratio_outside_the_pair_rule(g):
    """on_series reads (p, p') from g = p/p' and applies the same rule."""
    with pytest.raises(ValueError, match="is not a coprime pair"):
        on_series(g, F(0), F(2))


KIND_TAKERS = {
    "ModelSpec": lambda kind: ModelSpec(kind, 2, 3, 0.4),
    "Weights": lambda kind: Weights(kind, (1,) * 9, 2),
    "verma_trace_series": lambda kind: verma_trace_series(kind, 2, 3, 0, F(0), 0, F(2)),
    "torus_sectors": lambda kind: torus_sectors(kind, 2, 2),
    "defect_numbers": lambda kind: defect_numbers(kind, 4),
    "census_counter": lambda kind: census_counter(kind, 2, 2),
    "link_states": lambda kind: link_states(kind, 4, 1),
}


@pytest.mark.parametrize("name", sorted(KIND_TAKERS))
def test_unknown_kind_raises(name):
    """Every function that takes a model kind refuses one that is not dense or
    dilute, in place of reading it as dilute."""
    with pytest.raises(ValueError, match="unknown model kind 'Dense': need one of dense, dilute"):
        KIND_TAKERS[name]("Dense")


def test_exact_forms_refuse_a_float_twist():
    """The three exact twisted forms raise one TypeError for a float gamma/pi,
    before a binary denominator sizes their cyclotomic field; on_series
    refuses a float ratio g the same way, in place of reading 0.4 as
    3602879701896397/2^53."""
    forms = (lambda: verma_trace_series("dilute", 1, 2, 0, 0.4, 0, F(2)),
             lambda: full_Z_series(1, 2, 0.4, F(2)),
             lambda: on_series(F(1, 2), 0.4, F(2)))
    messages = set()
    for form in forms:
        with pytest.raises(TypeError, match="rational gamma/pi") as info:
            form()
        messages.add(str(info.value))
    assert len(messages) == 1
    with pytest.raises(TypeError, match="rational g = p/p'") as info:
        on_series(0.4, F(0), F(2))
    assert str(info.value) == messages.pop().replace("gamma/pi", "g = p/p'")


# every exact entry point: (call with one value, what the message names)
EXACT_TAKERS = {
    "QSeries cutoff": (lambda x: QSeries({}, x), "cutoff"),
    "QSeries exponent": (lambda x: QSeries({x: 1}, F(2)), "exponent"),
    "euler_inverse": (lambda x: euler_inverse(x), "cutoff"),
    "Z_hv_direct": (lambda x: Z_hv_direct(2, 3, 0, 0, x), "cutoff"),
    "expand_terms label": (lambda x: expand_terms([SesquiTerm(1, x, F(0), 1, 2)], F(2)),
                           "label"),
    "u1_char cutoff": (lambda x: u1_char(2, 1, 1, x), "cutoff"),
    "u1_char label": (lambda x: u1_char(2, x, 1, F(2)), "label"),
    "theta_series": (lambda x: theta_series(x, 2, 1, F(2)), "label"),
    "level_weight": (lambda x: level_weight(2, x), "label"),
    "KacData.delta": (lambda x: KacData(2, 3).delta(x, 1), "label r"),
    "KacData.delta_exp": (lambda x: KacData(2, 3).delta_exp(1, x), "label s"),
    "delta_from_ratio": (lambda x: delta_from_ratio(x, 2, 1), "g = p/p'"),
    "on_series": (lambda x: on_series(x, F(0), F(2)), "g = p/p'"),
    "verma_trace_series": (lambda x: verma_trace_series("dense", 2, 3, 0, x, 0, F(2)),
                           "gamma/pi"),
    "CycloField.rational": (lambda x: CycloField(4).rational(x), "coefficient"),
    "cospoly_to_cyclo": (lambda x: cospoly_to_cyclo({1: x}, 1, 5), "coefficient"),
}


@pytest.mark.parametrize("name", sorted(EXACT_TAKERS))
def test_exact_entry_points_refuse_a_float(name):
    """Every exact entry point refuses a float with the one message of
    `qseries.exact`, in place of reading 0.1 as 3602879701896397/2^55."""
    call, what = EXACT_TAKERS[name]
    with pytest.raises(TypeError, match=re.escape(
            f"exact series need a rational {what}; use the numeric route for generic values")):
        call(0.1)


@pytest.mark.parametrize("m", [2.0, F(4), "6", True])
def test_cyclo_field_refuses_a_non_int_order(m):
    """CycloField(m) refuses any m that is not an int with one message, in
    place of a TypeError from inside the polynomial arithmetic, or of
    returning the field of the equal int."""
    CycloField(2)
    with pytest.raises(TypeError, match=re.escape(
            f"the cyclotomic order m must be an int, not {m!r}")):
        CycloField(m)


@pytest.mark.parametrize("nums, den", [((1, 0, 0, 0), -2), ((1, 0, 0, 0), 0),
                                       ((1, 2, 3), 1), ((1, 2, 3, 4, 5), 1), ((), 1)])
def test_cyclo_num_refuses_a_bad_denominator_or_length(nums, den):
    """A CycloNum holds field.degree numerators over a positive den.  A
    negative den made -1/2 unequal to itself with the same hash, and a short
    nums was truncated by the zip of `__add__`."""
    field = CycloField(10)
    with pytest.raises(ValueError, match=re.escape(
            f"a CycloNum of {field} needs 4 numerators over a positive denominator, "
            f"not {nums!r} / {den!r}")):
        CycloNum(field, nums, den)
    half = CycloNum(field, (-1, 0, 0, 0), 2)
    assert half == field.rational(F(-1, 2)) == F(-1, 2)


@pytest.mark.parametrize("den", [0, -5])
def test_cos_pi_multiple_refuses_a_non_positive_denominator(den):
    """`cospoly_to_cyclo` needs b > 0 in gamma = pi a/b: b = 0 would divide
    by zero, and b < 0 ask for a field of negative order."""
    with pytest.raises(ValueError, match=re.escape(
            f"gamma = pi*1/{den} needs a positive denominator")):
        cospoly_to_cyclo({1: 1}, 1, den)


RATIO_TAKERS = {
    "Zmm": lambda g: Zmm(g, 0, 1, TAU),
    "conformal_Z_numeric": lambda g: conformal_Z_numeric(g, 2.0, 0, 0, TAU),
    "delta_from_ratio": lambda g: delta_from_ratio(g, 1, 1),
}


@pytest.mark.parametrize("g", [F(0), F(-1), -0.5, math.inf])
@pytest.mark.parametrize("name", sorted(RATIO_TAKERS))
def test_ratio_outside_the_positive_rule_raises(name, g):
    """The numeric Coulomb layer refuses g <= 0 and g = inf with one ValueError,
    in place of a ZeroDivisionError, a math domain error, an OverflowError, a
    silent 0 or a silent nan."""
    with pytest.raises(ValueError, match=re.escape(f"the ratio g = {g} must be positive")):
        RATIO_TAKERS[name](g)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_numeric_sector_sum_refuses_a_non_finite_fugacity(alpha):
    """A NaN alpha fails |alpha| > 2 silently and returned nan; it is refused
    with the infinite ones."""
    with pytest.raises(ValueError, match=re.escape("the numeric sector sum needs |alpha| <= 2")):
        conformal_Z_numeric(F(1, 2), alpha, 0, 0, TAU)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_model_spec_refuses_a_non_finite_spectral_parameter(u):
    """A NaN u made every tile weight nan; it is refused with the infinite ones."""
    with pytest.raises(ValueError, match=re.escape(f"the spectral parameter u = {u} must be finite")):
        ModelSpec("dilute", 2, 3, u)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weights_refuse_a_non_finite_weight(bad):
    """A NaN tile weight made Z nan on routes 1 and 2, and beta = inf made
    the lattice Z inf; a Weights is finite, like the u of a ModelSpec."""
    with pytest.raises(ValueError, match=re.escape(f"the weight rho_9 = {bad} must be finite")):
        Weights("dilute", (1.0,) * 8 + (bad,), 2.0)
    with pytest.raises(ValueError, match=re.escape(f"the weight beta = {bad} must be finite")):
        Weights("dilute", (1.0,) * 9, bad)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", ["lattice_Z", "markov_Z"])
def test_lattice_and_markov_sums_refuse_a_non_finite_fugacity(route, alpha):
    """`sector_sum`, shared by routes 1 and 2, refuses a NaN or infinite alpha
    where it returned nan or inf."""
    call = {"lattice_Z": lambda: lattice_Z(SPEC, 2, 2, sector=(0, 0), alpha=alpha),
            "markov_Z": lambda: markov_Z(SPEC, 2, 2, 0, 0, alpha=alpha)}[route]
    with pytest.raises(ValueError, match=re.escape(f"the fugacity alpha = {alpha} must be finite")):
        call()


CHARACTER_TAKERS = {
    "modular_S_residual": lambda n, z: modular_S_residual(n, TAU),
    "theta_series": lambda n, z: theta_series(F(1), n, z, F(2)),
    "u1_char": lambda n, z: u1_char(n, 1, z, F(2)),
    "u1_char_numeric": lambda n, z: u1_char_numeric(n, 1, z, TAU),
}
CHARACTER_INPUTS = [(0, 1), (-2, 1), (2.0, 1), (2, 5), (2, 0)]


# modular_S_residual reads the z = +1 characters only, so it takes no z
@pytest.mark.parametrize("name, n, z", [
    (name, n, z) for name in sorted(CHARACTER_TAKERS) for n, z in CHARACTER_INPUTS
    if z == 1 or name != "modular_S_residual"])
def test_character_outside_the_input_rule_raises(name, n, z):
    """Every character refuses a level that is not an int >= 1 or a z other
    than +1 and -1 with one ValueError, in place of reading z = 5 as +1, a
    ZeroDivisionError or a math domain error."""
    with pytest.raises(ValueError, match=re.escape(
            f"a u(1) character needs an int level n >= 1 and z = +1 or -1, "
            f"not n = {n!r}, z = {z!r}")):
        CHARACTER_TAKERS[name](n, z)


def test_fugacity_is_an_argument():
    """alpha is passed where loops are weighed, never read from the model."""
    with pytest.raises(TypeError):
        lattice_Z(SPEC, 2, 2, sector=(0, 0))
    with pytest.raises(TypeError):
        markov_Z(SPEC, 2, 2, 0, 0)


# module invariant: the triple identity holds for every coprime pair with
# p p' <= 30; the acceptance gate pins the six listed pairs at cutoff 10,
# this sweep covers further pairs at a lighter cutoff
EXTRA_PAIRS = [(1, 4), (1, 5), (2, 5), (4, 7), (5, 6)]


@pytest.mark.parametrize("p, pq", EXTRA_PAIRS)
def test_triple_identity_extra_pairs(p, pq):
    assert p * pq <= 30
    for (h, v) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        K = F(4)
        zd = Z_hv_direct(p, pq, h, v, K)
        assert zd.matches(Z_hv_u1(p, pq, h, v, K))
        assert zd.matches(Z_hv_bezout(p, pq, h, v, K))


@pytest.mark.slow
def test_triple_identity_every_pair_up_to_30():
    pairs = [(p, q) for q in range(2, 31) for p in range(1, q)
             if math.gcd(p, q) == 1 and p * q <= 30]
    assert len(pairs) == 44
    for (p, pq) in pairs:
        for (h, v) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            K = F(3)
            zd = Z_hv_direct(p, pq, h, v, K)
            assert zd.matches(Z_hv_u1(p, pq, h, v, K)), (p, pq, h, v)
            assert zd.matches(Z_hv_bezout(p, pq, h, v, K)), (p, pq, h, v)


def test_exponent_denominators_bounded():
    """All stored exponents share a denominator within the 96 p p' bound."""
    for (p, pq) in [(2, 3), (3, 4)]:
        n = p * pq
        z = Z_hv_direct(p, pq, 1, 1, F(5))
        bound = 24 * 4 * n
        lcm = 1
        for (a, b), _ in z.sorted_terms():
            for x in (a, b):
                lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        assert lcm <= bound


def test_gamma_v_imaginary_residue_guard():
    """A deliberately non-symmetrized sum trips the imaginary-part certificate."""
    with pytest.raises(ImaginaryResidueError):
        # bypass the projector structure by feeding an inconsistent weight sum
        from torusloop.arith import _real_part
        _real_part(complex(1.0, 1.0))
    # the genuine weights never trip it across a sweep
    for d in (1, 2, 5, 8):
        for v in (0, 1):
            assert gamma_v(d, 1.3, v).shape == (2 * d,)


def test_one_realness_rule():
    """Numbers and numpy arrays pass one rule: an imaginary part above
    IMAG_TOL relative to max(1, |real part|) raises; a number comes back as
    a float.  A cyclotomic number that is not real is refused by it too."""
    from torusloop.arith import IMAG_TOL, _real_part
    assert _real_part(np.array([1 + 0.5 * IMAG_TOL * 1j, 4 + 3 * IMAG_TOL * 1j])).tolist() \
        == [1.0, 4.0]
    with pytest.raises(ImaginaryResidueError):
        _real_part(np.array([[1 + 0j], [2 + 3 * IMAG_TOL * 1j]]))
    assert type(_real_part(np.complex128(3))) is float
    with pytest.raises(ImaginaryResidueError):
        float(CycloNum(CycloField(4), (0, 1)))


def test_euler_inverse_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        euler_inverse(F(-1))


def test_series_lattice_sums_are_range_stable():
    """Widening the internal summation windows must not change the series."""
    from reference_series import double_eta_inverse
    from torusloop.qseries import BiSeries

    p, pq, h, v = 3, 4, 1, 1
    kac = KacData(p, pq)
    K = F(5)
    work = K + 2
    theta = {}
    for r in range(-60, 61):
        for s2 in range(-120 - h, 121, 2):
            s = F(s2, 2)
            a = kac.delta_exp(r, s)
            b = kac.delta_exp(r, -s)
            if a > work or b > work:
                continue
            key = (a - F(1, 24), b - F(1, 24))
            theta[key] = theta.get(key, F(0)) + (-1 if (v and r % 2) else 1)
    brute = (double_eta_inverse(work)
             * BiSeries({k: c for k, c in theta.items() if c}, work)).truncate(K)
    assert Z_hv_direct(p, pq, h, v, K).sorted_terms() == brute.sorted_terms()


# e0 and g0 over denominators 1, 5 and 7, negative and above 1.  The cutoffs
# put different denominators into the window: at 7/3 the blocks of (4, 5) stop
# at d = 6, so the denominator 7 of e0 is not among 1..d_max, and the window
# top 17/7 + 1/24 has a denominator that does not divide 24.
BRUTE_ANGLES = (F(2), F(-3, 5), F(9, 7))
BRUTE_CUTOFFS = (F(4), F(7, 3), F(17, 7))


def _brute_dress(theta: dict, K):
    """The product reference: 1/((q)(qbar)) times the theta sum shifted by
    -1/24, on the window K + 2, truncated to K."""
    from reference_series import double_eta_inverse
    from torusloop.qseries import BiSeries

    work = K + 2
    shifted = {(a - F(1, 24), b - F(1, 24)): c for (a, b), c in theta.items() if c}
    return (double_eta_inverse(work) * BiSeries(shifted, work)).truncate(K)


def _add(theta: dict, key, c) -> None:
    theta[key] = theta[key] + c if key in theta else c


@pytest.mark.parametrize("kind, eps", [("dense", 0), ("dense", 1), ("dilute", 0)])
@pytest.mark.parametrize("g0", BRUTE_ANGLES)
@pytest.mark.parametrize("K", BRUTE_CUTOFFS)
def test_verma_series_matches_delta_exp_reference(kind, eps, g0, K):
    from torusloop.conformal import verma_trace_series

    p, pq = 2, 3
    kac = KacData(p, pq)
    step = 1 if kind == "dense" else 2
    for d in (0, 1, 2):
        theta = {}
        for ell in range(-40, 41):
            r = g0 - step * ell
            sign = -1 if kind == "dense" and eps and ell % 2 else 1
            _add(theta, (kac.delta_exp(r, F(d, 2)), kac.delta_exp(r, F(-d, 2))), F(sign))
        series = verma_trace_series(kind, p, pq, d, g0, eps, K)
        assert series.sorted_terms() == _brute_dress(theta, K).sorted_terms()
        assert series.valid == series.cutoff == K


@pytest.mark.parametrize("e0", BRUTE_ANGLES)
@pytest.mark.parametrize("K", BRUTE_CUTOFFS)
def test_full_series_matches_delta_exp_reference(e0, K):
    from torusloop.arith import gamma_dm_cospoly
    from torusloop.conformal import full_Z_series
    from torusloop.cyclo import CycloField, cospoly_to_cyclo

    p, pq = 4, 5
    kac = KacData(p, pq)
    field = CycloField(2 * e0.denominator)
    theta = {}
    for ell in range(-40, 41):
        a = kac.delta_exp(e0 - 2 * ell, 0)
        _add(theta, (a, a), field.rational(1))
    for d in range(1, 20):
        weights = [2 * cospoly_to_cyclo(gamma_dm_cospoly(d, m), e0.numerator, e0.denominator)
                   for m in range(d)]
        for t in range(-8 * d, 8 * d + 1):
            r = F(2 * t, d)
            _add(theta, (kac.delta_exp(r, F(d, 2)), kac.delta_exp(r, F(-d, 2))), weights[t % d])
    series = full_Z_series(p, pq, e0, K)
    assert series.sorted_terms() == _brute_dress(theta, K).sorted_terms()
    assert series.valid == series.cutoff == K


@pytest.mark.parametrize("e0", BRUTE_ANGLES)
@pytest.mark.parametrize("K", BRUTE_CUTOFFS)
def test_on_series_matches_delta_exp_reference(e0, K):
    """h_{r,s} = (r + g s)^2 / 4g is delta_exp(r, -s) of (g.numerator, g.denominator)."""
    from torusloop.arith import lambda_fsz_cospoly
    from torusloop.conformal import on_series
    from torusloop.cyclo import CycloField, cospoly_to_cyclo

    g = F(4, 5)
    kac = KacData(g.numerator, g.denominator)
    field = CycloField(2 * e0.denominator)
    theta = {}
    for P in range(-40, 41):
        a = kac.delta_exp(e0 + 2 * P, 0)
        _add(theta, (a, a), field.rational(1))
    for M in range(1, 20):
        for N in (N for N in range(1, M + 1) if M % N == 0):
            lam = cospoly_to_cyclo({k: 2 * c for k, c in lambda_fsz_cospoly(M, N).items()},
                                   e0.numerator, e0.denominator)
            for Pn in range(-8 * N, 8 * N + 1):
                if math.gcd(Pn, N) == 1:
                    r = F(2 * Pn, N)
                    _add(theta, (kac.delta_exp(r, F(-M, 2)), kac.delta_exp(r, F(M, 2))), lam)
    series = on_series(g, e0, K)
    assert series.sorted_terms() == _brute_dress(theta, K).sorted_terms()
    assert series.valid == series.cutoff == K


def _package_imports(module: str) -> set:
    """Modules of the package that `module` imports, relatively or by name."""
    tree = ast.parse((Path(torusloop.__file__).parent / f"{module}.py")
                     .read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"torusloop.{node.module or ''}".rstrip(".") if node.level \
                else node.module or ""
            dotted = [f"{base}.{a.name}" for a in node.names] if base == "torusloop" \
                else [base]
        else:
            continue
        found |= {name.split(".")[1] for name in dotted if name.startswith("torusloop.")}
    return found


def test_routes_stay_independent():
    """The lattice oracle borrows no transfer or series machinery, and the
    transfer route reads nothing from the lattice enumerator."""
    assert _package_imports("lattice") == {"model"}
    assert "lattice" not in _package_imports("transfer")
    assert "model" in _package_imports("transfer")  # relative imports are seen


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = getattr(node.exc, "func", node.exc)  # `raise E(...)` or `raise E`
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    """Invariants raise real exceptions: `python -O` strips assert statements,
    and a broken invariant raises ArithmeticError, not AssertionError."""
    sources = sorted(Path(torusloop.__file__).parent.rglob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert not found, found


def test_every_public_name_resolves():
    """Each name of `torusloop.__all__` is an attribute of the package, once,
    and `from torusloop import *` binds them all."""
    assert [name for name in torusloop.__all__ if not hasattr(torusloop, name)] == []
    assert len(set(torusloop.__all__)) == len(torusloop.__all__)
    namespace: dict = {}
    exec("from torusloop import *", namespace)
    assert set(torusloop.__all__) <= namespace.keys()


def test_model_binds_no_loop_variable():
    """The tile tables of `torusloop.model` are built in comprehensions, so
    no loop variable stays bound on the module or leaks through `import *`."""
    model = importlib.import_module("torusloop.model")
    assert [name for name in ("part", "a", "b", "_t", "_links") if hasattr(model, name)] == []


# the functions, methods and classes of the package that no package code
# reads, each with the reason it stays in the package (ROADMAP items)
UNCALLED_ALLOWED = {
    "conformal_Z_numeric": "item 1: the route 2 <-> route 3 criterion sums it at from_lattice's tau",
    "enumerate_configs": "shares the census search; the exhaustive reference of the orbit census",
    "evaluate": "item 13: sums verma_trace_series at a modular point",
    "from_lattice": "item 15: the tau at which each C_{d,j} meets its Gaussian block",
    "from_product": "the bench wraps it, and the tests build their product references with it",
    "trace_TM": "the bench wraps it; the exact Laurent trace that C_coefficients is held to",
    "verma_trace_series": "item 13: the conjectured scaling form of each module's twisted trace",
}


def test_every_uncalled_definition_is_allowed():
    """A definition whose name no package code reads is on the allow-list.  A
    function or class is read as a name or an attribute, a method only as an
    attribute (`.name`): a local variable of the same name does not call it.
    An import and an `__all__` entry are not reads: the one binds a name and
    the other is a string, and so is a docstring that mentions the name."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(torusloop.__file__).parent.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    methods = {id(node) for cls in nodes if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    names = {node.id for node in nodes if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unread = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("__") and node.name not in attributes
              and (id(node) in methods or node.name not in names)}
    assert unread == UNCALLED_ALLOWED.keys()


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _resolves(obj, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split("."), obj)
    except AttributeError:
        return False
    return True


def test_every_name_the_bench_reads_exists():
    """The bench reaches the package through names: the workloads read
    `tl.<name>` attributes at call time, the tracer wraps the `(module, name)`
    pairs of `WRAPPED` (inherited methods count) and reads `matrix` off the
    transfer operators, whose `to_numeric` the workloads call.  Each must
    resolve, so a move out of `src/` cannot silently zero a bench metric."""
    importlib.import_module("torusloop.acceptance")  # the workloads read tl.acceptance
    reads = set()
    for node in ast.walk(_bench_tree("workloads.py")):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "tl":
            reads.add(".".join(chain))
    assert {"lattice_Z", "markov_Z", "acceptance.ORACLE_TOL", "arith.gcd_conv"} <= reads
    assert sorted(name for name in reads if not _resolves(torusloop, name)) == []

    tracer = _bench_tree("tracer.py")
    wrapped = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "WRAPPED")
    assert ("transfer", "trace_TM") in wrapped
    assert [pair for pair in wrapped
            if not _resolves(importlib.import_module(f"torusloop.{pair[0]}"), pair[1])] == []

    attrs = {node.attr for name in ("workloads.py", "tracer.py")
             for node in ast.walk(_bench_tree(name)) if isinstance(node, ast.Attribute)}
    assert {"matrix", "to_numeric"} <= attrs
    assert all(hasattr(torusloop.TransferOperator, a) for a in ("matrix", "to_numeric"))
