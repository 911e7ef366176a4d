"""Conformal torus partition functions of the loop models.

Everything in the continuum: the conjectured scaling form of transfer
traces as Verma-type sesquilinear series, the Gaussian building blocks
Z_{m,m'}(g) with their modular covariance, the alpha = 2 partition functions
in three equivalent guises (direct double theta sum, the p x 2p' grid of
affine u(1) character products, and the Bezout-indexed single sum), the
folded sesquilinear forms printed in the worked examples, the Coulomb sums,
and the full partition function compared against the O(n) form.

All series are exact; the only floats appear in the explicitly numeric
checks (Gaussian sums and modular covariance at sampled tau).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import chebyshev_T, gamma_dm_cospoly, gcd_conv, lambda_fsz_cospoly
from .bezout import BezoutContext, index_pairs
from .characters import (KacData, TauPoint, eta_numeric,
                         modular_S_residual, t_sign_exact, theta_series,
                         u1_char)
from .cyclo import CycloField, cospoly_to_cyclo
from .qseries import BiSeries, euler_inverse


def _window(cutoff) -> tuple:
    """(cutoff, work) of a series form: its theta sum is collected through work.

    work = cutoff + 1/24 is exactly the window `_dress` reads; a theta term
    with an exponent above it only feeds exponents above cutoff.
    """
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(-1, 24):
        raise ValueError("cutoff must be >= -1/24")
    return cutoff, cutoff + Fraction(1, 24)


def _spread_swap(grid: dict, steps: list, lim: int, D: int) -> dict:
    """Convolve the first exponent of each key with the steps (k D, p(k)).

    Keys are integer exponent numerators (x, y) with x <= lim; zero terms
    are dropped, only x + k D <= lim is kept, and every key comes back
    swapped, so two passes spread both axes.
    """
    spread: dict = {}
    for (x, y), c in grid.items():
        if not c:
            continue
        for s, p in steps[:(lim - x) // D + 1]:
            t = c if p == 1 else c * p
            key = (y, x + s)
            old = spread.get(key)
            spread[key] = t if old is None else old + t
    return spread


def _dress(theta: dict, cutoff: Fraction) -> BiSeries:
    """(q qbar)^{-1/24} / ((q)_inf (qbar)_inf) times the theta sum {(a, b): c}.

    The exponents a, b are >= 0 and theta must hold every term with both of
    them <= top = cutoff + 1/24; the result is exact through cutoff.  Every
    exponent is carried as an integer numerator over one common denominator
    D = lcm(24, denominators of top and of every a, b), so 1/(q)_inf is a
    convolution with the partition numbers p(k) in integer steps k D along
    each axis in turn.  Keys become Fractions (A - D/24) / D only at the end.
    """
    top = cutoff + Fraction(1, 24)
    D = math.lcm(24, top.denominator, *(x.denominator for ab in theta for x in ab))
    lim = top.numerator * (D // top.denominator)
    inv = euler_inverse(top)
    steps = [(k * D, inv.coeff(k).numerator) for k in range(math.floor(top) + 1)]
    grid = {}
    for (a, b), c in theta.items():
        A = a.numerator * (D // a.denominator)
        B = b.numerator * (D // b.denominator)
        if A <= lim and B <= lim:
            grid[(A, B)] = c
    grid = _spread_swap(_spread_swap(grid, steps, lim, D), steps, lim, D)
    shift = D // 24
    exps = {x: Fraction(x - shift, D) for ab in grid for x in ab}
    return BiSeries({(exps[A], exps[B]): c for (A, B), c in grid.items()}, cutoff)


def _double_eta_inverse(cutoff: Fraction) -> BiSeries:
    """1/((q)_inf (qbar)_inf) as a BiSeries: the product reference for `_dress`."""
    one_sided = euler_inverse(cutoff)
    return BiSeries.from_product(one_sided, one_sided, cutoff)


# ---------------------------------------------------------------------------
# scaling limit of the transfer traces


def verma_trace_series(kind: str, p: int, pq: int, d: int, gamma_over_pi,
                       eps: int, cutoff) -> BiSeries:
    """Conjectured scaling form of tr T^M on the d-defect module.

    dense:  (q qbar)^{-c/24}/((q)(qbar)) sum_l (-1)^{eps l}
            q^{Delta(g0 - l, d/2)} qbar^{Delta(g0 - l, -d/2)},
    dilute: the same with l restricted to even steps and no sign.

    gamma_over_pi is the twist angle in units of pi and must be rational for
    the exact series (the numeric route handles arbitrary twists).
    """
    if kind not in ("dense", "dilute"):
        raise ValueError("kind must be dense or dilute")
    if isinstance(gamma_over_pi, float):
        raise TypeError("exact series need a rational gamma/pi; "
                        "use the numeric route for generic twists")
    g0 = Fraction(gamma_over_pi)
    kac = KacData(p, pq)
    cutoff, work = _window(cutoff)
    step = 1 if kind == "dense" else 2
    theta: dict = {}
    l = 0
    while True:
        hit = False
        for ell in ((l, -l) if l else (0,)):
            r = g0 - step * ell
            a = kac.delta_exp(r, Fraction(d, 2))
            b = kac.delta_exp(r, Fraction(-d, 2))
            if a <= work and b <= work:
                hit = True
                sign = 1
                if kind == "dense" and eps and ell % 2:
                    sign = -1
                theta[(a, b)] = theta.get((a, b), Fraction(0)) + sign
        if not hit and l > abs(g0) / step + 1:
            break
        l += 1
    return _dress(theta, cutoff)


# ---------------------------------------------------------------------------
# Gaussian partition functions (numeric)


def Zmm(g, m: int, mp: int, tau: TauPoint) -> float:
    """Coulomb-gas Gaussian Z_{m,m'}(g) = sqrt(g/tau_i) e^{-pi g |m tau - m'|^2 / tau_i} / (eta etabar)."""
    g = float(g)
    ti = tau.tau.imag
    etas = eta_numeric(tau, "q") * eta_numeric(tau, "qbar")
    w = m * tau.tau - mp
    val = math.sqrt(g / ti) * cmath.exp(-math.pi * g * abs(w) ** 2 / ti) / etas
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ArithmeticError("Z_{m,m'} should be real")
    return val.real


def conformal_Z_numeric(g, alpha: float, h: int, v: int, tau: TauPoint,
                        D_cutoff: int = 40) -> float:
    """Sector partition function sum 2 T_{gcd(d,j)}(alpha/2) Z_{d,j}(g/4).

    g is the model ratio p/p'; the Gaussian coupling is g/4.  The d = 0 row
    enters only for h = 0.
    """
    g4 = float(g) / 4.0
    half = alpha / 2.0
    total = 0.0
    for d in range(-D_cutoff, D_cutoff + 1):
        if (d - h) % 2:
            continue
        for j in range(-D_cutoff, D_cutoff + 1):
            if (j - v) % 2:
                continue
            total += 2.0 * chebyshev_T(gcd_conv(abs(d), abs(j)), half) \
                * Zmm(g4, d, j, tau)
    return total


def coulomb_Z_hv(g, h: int, v: int, tau: TauPoint, tol: float = 1e-18) -> complex:
    """Generalized Coulomb partition function as a truncated double theta sum."""
    g = float(g)
    etas = eta_numeric(tau, "q") * eta_numeric(tau, "qbar")
    xmax = math.log(tol) / math.log(abs(tau.q_power(1.0)))
    rmax = int(math.sqrt(max(xmax, 0.0) * 4 * g)) + 2
    smax = int(math.sqrt(max(xmax, 0.0) * 4 / g)) + 2
    total = 0.0 + 0.0j
    for r in range(-rmax, rmax + 1):
        for ss in range(-2 * smax, 2 * smax + 1):
            s = ss + h / 2.0 if h else float(ss)
            if h == 0 and ss != int(s):
                continue
            a = (r / math.sqrt(g) - s * math.sqrt(g)) ** 2 / 4.0
            b = (r / math.sqrt(g) + s * math.sqrt(g)) ** 2 / 4.0
            if min(a, b) > xmax:
                continue
            total += (-1) ** (v * r) * tau.q_power(a) * tau.qbar_power(b)
    return total / etas


MODULAR_S4 = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
MODULAR_T4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
SECTOR_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def _mat_mul(A, Bm):
    return tuple(tuple(sum(A[i][k] * Bm[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


def _mat_eq_identity(A):
    return all(A[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))


def modular_rep_check(taus=None, levels=(2, 6), g_values=(Fraction(1, 2),),
                      alphas=(2.0, 1.2), D_cutoff: int = 40) -> dict:
    """Verify the modular structure; returns a report of exact and numeric checks.

    * the 4-dimensional S, T permutation matrices satisfy
      S^2 = (S T)^3 = T^2 = I exactly;
    * Z_{d,j}(tau+1) = Z_{d,j-d}(tau) and Z_{d,j}(-1/tau) = Z_{j,-d}(tau);
    * the sector functions transform under S and T by the stated permutations;
    * the character-level S transform holds numerically and the T-phase on
      odd level-4n labels is the sign (-1)^j, exactly.
    """
    if taus is None:
        taus = (TauPoint(complex(0.1, 0.9)), TauPoint(complex(-0.4, 1.3)))
    report: dict = {}
    S2 = _mat_mul(MODULAR_S4, MODULAR_S4)
    T2 = _mat_mul(MODULAR_T4, MODULAR_T4)
    ST = _mat_mul(MODULAR_S4, MODULAR_T4)
    ST3 = _mat_mul(_mat_mul(ST, ST), ST)
    report["S2_is_identity"] = _mat_eq_identity(S2)
    report["T2_is_identity"] = _mat_eq_identity(T2)
    report["ST3_is_identity"] = _mat_eq_identity(ST3)

    worst_gauss = 0.0
    for tau in taus:
        for (d, j) in ((0, 2), (1, 1), (2, -1), (3, 2)):
            for g in (0.125, 0.3):
                t_lhs = Zmm(g, d, j, tau.shift())
                t_rhs = Zmm(g, d, j - d, tau)
                s_lhs = Zmm(g, d, j, tau.invert())
                s_rhs = Zmm(g, j, -d, tau)
                worst_gauss = max(
                    worst_gauss,
                    abs(t_lhs - t_rhs) / max(1.0, abs(t_rhs)),
                    abs(s_lhs - s_rhs) / max(1.0, abs(s_rhs)))
    report["Zmm_covariance_residual"] = worst_gauss

    worst_sector = 0.0
    for tau in taus:
        for g in g_values:
            for alpha in alphas:
                vals = {hv: conformal_Z_numeric(g, alpha, hv[0], hv[1], tau, D_cutoff)
                        for hv in SECTOR_ORDER}
                t_vals = {hv: conformal_Z_numeric(g, alpha, hv[0], hv[1],
                                                  tau.shift(), D_cutoff)
                          for hv in SECTOR_ORDER}
                s_vals = {hv: conformal_Z_numeric(g, alpha, hv[0], hv[1],
                                                  tau.invert(), D_cutoff)
                          for hv in SECTOR_ORDER}
                t_perm = {(0, 0): (0, 0), (0, 1): (0, 1),
                          (1, 0): (1, 1), (1, 1): (1, 0)}
                s_perm = {(0, 0): (0, 0), (0, 1): (1, 0),
                          (1, 0): (0, 1), (1, 1): (1, 1)}
                for hv in SECTOR_ORDER:
                    scale = max(1.0, abs(vals[t_perm[hv]]))
                    worst_sector = max(worst_sector,
                                       abs(t_vals[hv] - vals[t_perm[hv]]) / scale)
                    scale = max(1.0, abs(vals[s_perm[hv]]))
                    worst_sector = max(worst_sector,
                                       abs(s_vals[hv] - vals[s_perm[hv]]) / scale)
    report["sector_covariance_residual"] = worst_sector

    report["character_S_residual"] = max(
        modular_S_residual(n, taus[0]) for n in levels)
    report["T_sign_checks"] = all(
        t_sign_exact(4 * n, j) == (-1) ** j
        for n in levels for j in range(0, 2 * n + 1))
    return report


# ---------------------------------------------------------------------------
# alpha = 2 partition functions as exact series, three ways


def Z_hv_direct(p: int, pq: int, h: int, v: int, cutoff) -> BiSeries:
    """Direct double sum (1/eta etabar) sum_{r, s+h/2} (-1)^{vr} q^... qbar^...."""
    kac = KacData(p, pq)
    cutoff, work = _window(cutoff)
    n = p * pq
    theta: dict = {}
    # (p' r)^2 / (2n) <= a + b <= 2*work bounds r; likewise s
    rmax = math.isqrt(int(4 * n * work)) // pq + 2
    smax = (math.isqrt(int(4 * n * work)) + abs(p)) // p + 2
    for r in range(-rmax, rmax + 1):
        # s runs over Z + h/2: keep the doubled index at parity h
        for s2 in range(-2 * smax - h, 2 * smax + 1, 2):
            s = Fraction(s2, 2)
            a = kac.delta_exp(r, s)
            b = kac.delta_exp(r, -s)
            if a > work or b > work:
                continue
            sign = Fraction(-1 if (v and r % 2) else 1)
            theta[(a, b)] = theta.get((a, b), Fraction(0)) + sign
    return _dress(theta, cutoff)


def _char_product(n: int, jl, jr, z: int, work: Fraction) -> BiSeries:
    """kappa^n_jl(z, q) kappa^n_jr(z, qbar) from u1_char: the reference path."""
    left = u1_char(n, jl, z, work)
    right = u1_char(n, jr, z, work)
    return BiSeries.from_product(left, right, work)


def _pairs_theta(pairs, work: Fraction) -> dict:
    """Theta sum of sum coeff kappa^n_jl(z, q) kappa^n_jr(z, qbar).

    `pairs` yields (n, jl, jr, z, coeff); each product contributes
    coeff * theta_series(jl)(q) * theta_series(jr)(qbar) through work.
    """
    theta: dict = {}
    for n, jl, jr, z, coeff in pairs:
        right = theta_series(jr, n, z, work).terms
        for a, ca in theta_series(jl, n, z, work).terms.items():
            for b, cb in right.items():
                theta[(a, b)] = theta.get((a, b), 0) + coeff * ca * cb
    return theta


def _u1_pairs(p: int, pq: int, h: int, v: int):
    """(n, jl, jr, z, sign) over the p x 2p' character grid of sector (h, v)."""
    n = p * pq
    z = -1 if (p * v) % 2 else 1
    for r in range(p):
        sign = -1 if (v and r % 2) else 1
        for s in range(2 * pq):
            yield (n, Fraction(2 * pq * r - p * (2 * s + h), 2),
                   Fraction(2 * pq * r + p * (2 * s + h), 2), z, sign)


def Z_hv_u1(p: int, pq: int, h: int, v: int, cutoff) -> BiSeries:
    """Grid of affine character products over 0 <= r < p, 0 <= s < 2p'."""
    cutoff, work = _window(cutoff)
    return _dress(_pairs_theta(_u1_pairs(p, pq, h, v), work), cutoff)


def Z_hv_bezout(p: int, pq: int, h: int, v: int, cutoff) -> BiSeries:
    """Bezout-indexed single sum (1/kappa) sum_j (-1)^{v rho_j} kappa kappa-bar."""
    cutoff, work = _window(cutoff)
    ctx = BezoutContext(p, pq, h, v)
    weight = Fraction(1, ctx.kappa)
    pairs = ((ctx.n, jval, conj, ctx.zsign, -weight if v and rho % 2 else weight)
             for jval, conj, rho in index_pairs(ctx))
    return _dress(_pairs_theta(pairs, work), cutoff)


# ---------------------------------------------------------------------------
# folded sesquilinear forms (the worked-example presentation)


@dataclass(frozen=True)
class SesquiTerm:
    """One term coeff * kappa^n_{left}(z, q) kappa^n_{right}(z, qbar)."""

    coeff: int
    left: Fraction
    right: Fraction
    z: int
    level: int

    def render(self) -> str:
        def lab(x: Fraction) -> str:
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/2"
        zpart = "" if self.z == 1 else "-1,"
        sign = "+" if self.coeff >= 0 else "-"
        mag = abs(self.coeff)
        left = f"k[{self.level},{lab(self.left)}]({zpart}q)"
        right = f"k[{self.level},{lab(self.right)}]({zpart}q~)"
        return f"{sign} {mag} {left} {right}"


def _fold_label(x: Fraction, n: int, z: int) -> tuple:
    """Reduce a label into [0, n] by the folding relations; returns (label, sign)."""
    sign = 1
    if z == -1:
        x %= 4 * n
        if x > 2 * n:
            x = 4 * n - x
        if x > n:
            x = 2 * n - x
            sign = -sign
    else:
        x %= 2 * n
        if x > n:
            x = 2 * n - x
    return x, sign


def appendix_c_form(p: int, pq: int, h: int, v: int) -> list:
    """The folded sesquilinear form of Z^{(h,v)}(p, p') as a sorted term list.

    Starts from the p x 2p' character grid and reduces all labels into
    [0, n] with the sign-carrying folding at z = -1.
    """
    n = p * pq
    z = -1 if (p * v) % 2 else 1
    collected: dict = {}
    for _, jl, jr, _, coeff in _u1_pairs(p, pq, h, v):
        fl, sl = _fold_label(jl, n, z)
        fr, sr = _fold_label(jr, n, z)
        key = (fl, fr)
        collected[key] = collected.get(key, 0) + coeff * sl * sr
    terms = [SesquiTerm(c, lft, rgt, z, n)
             for (lft, rgt), c in collected.items() if c]
    return sorted(terms, key=lambda t: (t.left, t.right))


def expand_terms(terms: list, cutoff) -> BiSeries:
    """Expand a folded term list back into an exact BiSeries."""
    cutoff, work = _window(cutoff)
    pairs = ((t.level, t.left, t.right, t.z, t.coeff) for t in terms)
    return _dress(_pairs_theta(pairs, work), cutoff)


def render_appendix_form(terms: list) -> str:
    return "\n".join(t.render() for t in terms)


# ---------------------------------------------------------------------------
# full partition function vs the O(n) form


def full_Z_series(p: int, pq: int, gamma_over_pi, cutoff,
                  use_lambda: bool = False) -> BiSeries:
    """Full (sector-summed) partition function as an exact sesquilinear series.

    Coefficients are exact cyclotomic numbers: the winding weights are
    rational combinations of cos(k gamma) evaluated at gamma = pi * e0.
    With use_lambda the divisor-sum weight (1/2) Lambda(d, d/gcd(m,d))
    replaces the residue-sum weight; the series must be unchanged.
    """
    e0 = Fraction(gamma_over_pi)
    field = CycloField(2 * e0.denominator)
    kac = KacData(p, pq)
    cutoff, work = _window(cutoff)
    one = field.rational(1)

    theta: dict = {}

    # d = 0 block: sum_l (q qbar)^{Delta(e0 - 2l, 0)}
    l = 0
    while True:
        hit = False
        for ell in ((l, -l) if l else (0,)):
            a = kac.delta_exp(e0 - 2 * ell, 0)
            if a <= work:
                hit = True
                theta[(a, a)] = theta.get((a, a), field.zero()) + one
        if not hit and l > abs(e0) / 2 + 1:
            break
        l += 1

    # d > 0 blocks: 2 sum_t Gamma_{d, t mod d} q^{Delta(2t/d, d/2)} qbar^{Delta(2t/d, -d/2)}
    d = 1
    while True:
        s_half = Fraction(d, 2)
        # both window exponents <= work forces (p d/2)^2 / (2 p p') <= 2 work
        if Fraction(p * d * d, 8 * pq) > 2 * work:
            break
        weights = {}
        for m in range(d):
            if use_lambda:
                poly = lambda_fsz_cospoly(d, d // gcd_conv(m, d))
            else:
                poly = gamma_dm_cospoly(d, m)
            weights[m] = cospoly_to_cyclo(poly, e0.numerator, e0.denominator, field)
        tmax = d * (math.isqrt(int(4 * p * pq * work)) + p * d) // (2 * pq) + 2 * d
        for t in range(-tmax, tmax + 1):
            r = Fraction(2 * t, d)
            a = kac.delta_exp(r, s_half)
            b = kac.delta_exp(r, -s_half)
            if a > work or b > work:
                continue
            theta[(a, b)] = theta.get((a, b), field.zero()) + 2 * weights[t % d]
        d += 1

    return _dress(theta, cutoff)


def on_series(g, e0, cutoff) -> BiSeries:
    """The O(n)-model torus partition function as an exact sesquilinear series.

    (1/eta etabar) [ sum_P (q qbar)^{h_{e0+2P,0}} + sum_{M,N|M,P coprime N}
    Lambda(M,N) q^{h_{2P/N, M/2}} qbar^{hbar_{2P/N, M/2}} ],
    with h_{r,s} = (r + g s)^2/(4g) and hbar its reflection.
    """
    g = Fraction(g)
    e0 = Fraction(e0)
    field = CycloField(2 * e0.denominator)
    cutoff, work = _window(cutoff)

    def h_exp(r: Fraction, s: Fraction) -> Fraction:
        return (r + g * s) ** 2 / (4 * g)

    theta: dict = {}
    one = field.rational(1)
    P = 0
    while True:
        hit = False
        for pp in ((P, -P) if P else (0,)):
            a = h_exp(e0 + 2 * pp, Fraction(0))
            if a <= work:
                hit = True
                theta[(a, a)] = theta.get((a, a), field.zero()) + one
        if not hit and P > abs(e0) / 2 + 1:
            break
        P += 1

    M = 1
    while True:
        # both window exponents <= work forces g M^2 / 8 <= 2 work
        if g * M * M / 8 > 2 * work:
            break
        for N in (N for N in range(1, M + 1) if M % N == 0):
            lam = cospoly_to_cyclo(
                {k: 2 * c for k, c in lambda_fsz_cospoly(M, N).items()},
                e0.numerator, e0.denominator, field)
            if not lam:
                continue
            pmax = N * (math.isqrt(int(work * 4 * g.numerator * g.denominator))
                        // (2 * g.denominator) + abs(M) + 2)
            for Pn in range(-pmax, pmax + 1):
                if math.gcd(Pn, N) != 1:
                    continue
                r = Fraction(2 * Pn, N)
                a = h_exp(r, Fraction(M, 2))
                b = h_exp(r, Fraction(-M, 2))  # hbar_{r, M/2} = h_{r, -M/2}
                if a > work or b > work:
                    continue
                theta[(a, b)] = theta.get((a, b), field.zero()) + lam
        M += 1

    return _dress(theta, cutoff)
