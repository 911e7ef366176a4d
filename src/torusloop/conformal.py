"""Conformal torus partition functions of the loop models.

Everything in the continuum.  Route 3's exact series are Markov sums of the
d-defect trace lines, the scaling forms of the transfer traces: one
`_markov_sum` gives the sector Z^(h,v)(alpha) at any rational twist, the
alpha = 2 sectors of `Z_hv_direct` and the full partition function, compared
against the O(n) form.  The alpha = 2 sectors come also as the p x 2p' grid of
u(1) character products, the Bezout single sum and the worked examples' folds.

All series are exact.  Floats appear only in the numeric layer: the Gaussian
blocks Z_{m,m'}(g) on integer grids; the sector sums, each one `nome_sum` in
the electric (Poisson-dual) frame at tau carried into the fundamental domain
by S and T, two sector permutations; and modular covariance at sampled tau.

Every exact form collects its theta sum as integer exponent numerators over
one denominator D known before the sum starts: D = 4 p p' den^2 for the
Kac-lattice forms, whose exponents are delta_exp(R/den, S/den) =
(p' R - p S)^2 / D, and D = 16 n for the u(1) character forms, whose doubled
labels J = 2j give (J + 4kn)^2 / 16n.  The one kernel `_dress` dresses those
keys with the eta factors, one integer block product per residue class of
keys; the exponents arrive over their least denominator, and each coefficient
is the one Fraction or CycloNum of its value that every form shares, so equal
terms of two forms compare by identity.  The tests rebuild the Kac-lattice
forms from the reference `KacData.delta_exp` (tests/reference_kac.py) and hold
the character-product forms to products of `u1_char`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .arith import _real_part, divisors, gamma_dm_cospoly, gamma_v, lambda_fsz_cospoly
from .bezout import BezoutContext, index_pairs
from .characters import TauPoint, eta_numeric, level_weight, modular_S_residual
from .cyclo import CycloField, CycloNum, cospoly_to_cyclo
from .model import SECTORS, check_kind, check_pair, check_ratio, check_sector
from .qseries import BiSeries, euler_inverse, exact


def _window(cutoff) -> tuple:
    """(cutoff, work) of a series form: its theta sum is collected through work.

    work = cutoff + 1/24 is exactly the window `_dress` reads; a theta term
    with an exponent above it only feeds exponents above cutoff.
    """
    cutoff = exact(cutoff, "cutoff")
    if cutoff < Fraction(-1, 24):
        raise ValueError("cutoff must be >= -1/24")
    return cutoff, cutoff + Fraction(1, 24)


def _run(start: int, step: int, reach: int) -> range:
    """The integers k with |start + k step| <= reach, for step > 0."""
    return range(-((reach + start) // step), (reach - start) // step + 1)


def _kac_run(p: int, pq: int, root: int, start: int, step: int, S: int):
    """(k, A, B) for every lattice point R = start + k step of a Kac line.

    A = (p' R - p S)^2 and B = (p' R + p S)^2 are the numerators of
    delta_exp(R/den, S/den) and delta_exp(R/den, -S/den) over
    D = 4 p p' den^2.  Only points with A and B <= root^2 are yielded, that
    is p'|R| + p|S| <= root.
    """
    for k in _run(start, step, (root - p * abs(S)) // pq):
        R = start + k * step
        yield k, (pq * R - p * S) ** 2, (pq * R + p * S) ** 2


def _kac_window(p: int, pq: int, den: int, work: Fraction) -> tuple:
    """(D, root) of the Kac lattice with labels over den: D = 4 p p' den^2,
    and root = isqrt(floor(work D)) bounds |p' R -+ p S| inside the window."""
    D = 4 * p * pq * den * den
    return D, math.isqrt(math.floor(work * D))


def _dress(theta: dict, D: int, cutoff: Fraction) -> BiSeries:
    """(q qbar)^{-1/24} / ((q)_inf (qbar)_inf) times the theta sum.

    theta maps integer pairs (A, B) >= 0 to int, Fraction or CycloNum
    coefficients (cyclotomic ones all of one field), for the term
    q^{A/D} qbar^{B/D}; it must hold every term with both exponents <=
    top = cutoff + 1/24, and the result is exact through cutoff.  Keys are
    lifted to L = lcm(D, 24, denominator of top).  1/(q)_inf only adds
    exponents k L, so each residue class (r_A, r_B) = (A mod L, B mod L) is
    one block X[class, coordinate, a, b] over (A div L, B div L) in 0..K,
    K = floor(top), holding each coefficient as integer coordinates over one
    denominator Q (one for a rational coefficient, field.degree for a
    cyclotomic one).  Both eta products are P X P^T, P the lower-triangular
    Toeplitz matrix of p(0..K), read once per K (`_partitions`); P is
    triangular, so one mask at the end, a <= (lim - r_A) div L and
    b <= (lim - r_B) div L, keeps the window.
    An output entry becomes the key (r_A + a L - L/24, r_B + b L - L/24)
    divided by g = gcd(L, r - L/24 over the residues r of the output), over
    step = L/g.  The product and the keys run in one dtype: int64 when
    max|X| (p(0) + ... + p(K))^2, lim and L are all < 2^62, which bounds
    every entry and every key integer, else Python ints (object dtype).
    step is least: each key integer is (r - L/24)/g + a step, so
    gcd(step, every key integer) = gcd(step, (r - L/24)/g over the output's
    residues) = gcd(L, r - L/24, ...)/g = 1, and the BiSeries takes
    den = step with no gcd over its keys (`_least`).
    An output row is its coordinates: an int when width is 1 (rationals,
    and Q(zeta_2)), which saves building and hashing a 1-tuple per term,
    else a tuple.  `_by_row(field, Q)` maps each row to the one Fraction or
    CycloNum of its value, kept across calls, so `matches` finds equal terms
    of two dressed series identical.  Every key lies in the window by
    construction, so the BiSeries skips its per-term checks.
    """
    top = cutoff + Fraction(1, 24)
    L = math.lcm(D, 24, top.denominator)
    lift = L // D
    lim = top.numerator * (L // top.denominator)
    K = math.floor(top)
    field = next((c.field for c in theta.values() if isinstance(c, CycloNum)), None)
    width = field.degree if field else 1
    classes: dict = {}
    cells = []
    for (A, B), c in theta.items():
        A *= lift
        B *= lift
        if A <= lim and B <= lim:
            a, rA = divmod(A, L)
            b, rB = divmod(B, L)
            cells.append((classes.setdefault((rA, rB), len(classes)), a, b)
                         + _coordinates(c, field, width))
    if not cells:
        return BiSeries._least({}, cutoff, cutoff, 1)
    Q = math.lcm(*(den for *_, den in cells))
    coords = [[x * (Q // den) for x in nums] for *_, nums, den in cells]
    parts = _partitions(K)
    big = max(abs(x) for row in coords for x in row) * sum(parts) ** 2
    dtype = np.int64 if max(big, lim, L) < 2 ** 62 else object
    idx = np.arange(K + 1)
    P = np.tril(np.array(parts, dtype)[np.subtract.outer(idx, idx)])
    X = np.zeros((len(classes), width, K + 1, K + 1), dtype)
    at, a, b = (np.array(col) for col in zip(*(cell[:3] for cell in cells)))
    if min(a.min(), b.min()) < 0:  # a negative index would wrap silently
        raise ValueError("theta exponents must be >= 0")
    X[at, :, a, b] = np.array(coords, dtype)
    Z = P @ X @ P.T
    reach = np.array([((lim - rA) // L, (lim - rB) // L) for rA, rB in classes])
    keep = (idx[:, None] <= reach[:, None, None, 0]) & (idx <= reach[:, None, None, 1])
    at, a, b = np.nonzero((Z != 0).any(axis=1) & keep)
    found = Z[at, :, a, b]
    rows = found[:, 0].tolist() if width == 1 else list(zip(*found.T.tolist()))
    residues = list(classes)
    shift = L // 24
    g = math.gcd(L, *(r - shift for i in set(at.tolist()) for r in residues[i]))
    step = L // g
    bx, by = (np.array([(r - shift) // g for r in axis], dtype) for axis in zip(*residues))
    kx = (bx[at] + a.astype(dtype) * step).tolist()
    ky = (by[at] + b.astype(dtype) * step).tolist()
    terms = dict(zip(zip(kx, ky), map(_by_row(field, Q).__getitem__, rows)))
    return BiSeries._least(terms, cutoff, cutoff, step)


@lru_cache(maxsize=None)
def _partitions(K: int) -> tuple:
    """The partition numbers p(0..K), the coefficients of `euler_inverse`."""
    inv = euler_inverse(K)
    return tuple(inv.coeff(k).numerator for k in range(K + 1))


@lru_cache(maxsize=None)
def _by_row(field, Q: int) -> "_Rows":
    """The one table of field (None for Fraction) and Q, kept for the process,
    so a row that any earlier `_dress` call met costs one dict lookup."""
    return _Rows(field, Q)


class _Rows(dict):
    """Raw row -> the one coefficient of its value: an int row (one
    coordinate) or a tuple of field.degree ints, numerators over Q.  A row
    met for the first time is reduced by h = gcd(Q, *row) and stored as
    `_coefficient(field, row / h, Q / h)`."""

    def __init__(self, field, Q: int):
        super().__init__()
        self.field = field
        self.Q = Q

    def __missing__(self, row):
        nums = row if isinstance(row, tuple) else (row,)
        h = math.gcd(self.Q, *nums)
        c = self[row] = _coefficient(self.field, tuple(x // h for x in nums), self.Q // h)
        return c


@lru_cache(maxsize=None)
def _coefficient(field, nums: tuple, den: int):
    """The one Fraction (field None) or CycloNum of field with the value
    nums / den.  `_Rows` passes it in lowest terms, so the key is the value
    and every dressed series shares one object per value, whatever Q its
    raw row came over; the cache keeps each value dressed in the process
    (2,478 after `torusloop accept`)."""
    return Fraction(nums[0], den) if field is None else CycloNum(field, nums, den)


def _coordinates(c, field, width: int) -> tuple:
    """(integer numerators, denominator) of an int, Fraction or CycloNum of field."""
    if isinstance(c, CycloNum):
        if c.field is not field:
            raise ValueError("mixed cyclotomic fields")
        return c.nums, c.den
    return (c.numerator,) + (0,) * (width - 1), c.denominator


# ---------------------------------------------------------------------------
# scaling limit of the transfer traces


def _trace_line(theta: dict, kind: str, p: int, pq: int, root: int, den: int,
                start: int, d: int, eps: int, weight) -> None:
    """Add weight times the d-defect trace line at twist g0 = start/den to theta.

    Labels are over den: R = start + k step and S = d den / 2, so R/den = g0 - l;
    dense steps by den with the sign (-1)^{eps k}, dilute by 2 den unsigned.
    Keys are numerators over D = 4 p p' den^2 within root (`_kac_window`).
    """
    dense = kind == "dense"
    for k, a, b in _kac_run(p, pq, root, start, den if dense else 2 * den, d * den // 2):
        c = -weight if dense and eps % 2 and k % 2 else weight
        theta[(a, b)] = theta[(a, b)] + c if (a, b) in theta else c


def verma_trace_series(kind: str, p: int, pq: int, d: int, gamma_over_pi,
                       eps: int, cutoff) -> BiSeries:
    """Conjectured scaling form of tr T^M on the d-defect module.

    dense:  (q qbar)^{-c/24}/((q)(qbar)) sum_l (-1)^{eps l}
            q^{Delta(g0 - l, d/2)} qbar^{Delta(g0 - l, -d/2)},
    dilute: the same with l restricted to even steps and no sign.

    One `_trace_line` over den = 2 g0.denominator; gamma_over_pi, the twist in
    units of pi, must be rational here (the numeric route takes any twist).
    A d below 0 raises ValueError: standard modules have d >= 0.
    """
    check_kind(kind)
    check_pair(p, pq)
    if d < 0:
        raise ValueError("need d >= 0")
    g0 = exact(gamma_over_pi, "gamma/pi")
    cutoff, work = _window(cutoff)
    den = 2 * g0.denominator
    D, root = _kac_window(p, pq, den, work)
    theta: dict = {}
    _trace_line(theta, kind, p, pq, root, den, 2 * g0.numerator, d, eps, 1)
    return _dress(theta, D, cutoff)


def _markov_sum(p: int, pq: int, e0: Fraction, cutoff, weigh, pair) -> BiSeries:
    """sum_{d >= 0} mult(d) sum_{k < max(d, 1)} Gamma_{d,k} [a_d Z_d(g) + b_d Z_d(g + 1)]
    of dilute trace lines Z_d through cutoff; (a_d, b_d) = pair[d % 2], mult(0) = 1
    and mult(d > 0) = 2, as row S = -d repeats S = d at R -> -R.

    At d = 0 the twist is g = e0 and Gamma_{0,0} = 1; at d > 0 it is g = 2k/d, and
    Gamma_{d,k} = `gamma_dm_cospoly(d, gcd(k, d))`, which `weigh` evaluates at
    gamma = pi e0 once per (d, gcd) (Gamma_{0,0} as {0: 1}).  Lines of weight zero
    are dropped; the rest go over the least even den their twists need.

    pair[h] = (1, (-1)^v), pair[1 - h] = (0, 0) gives the sector Z^(h,v)(2 cos pi e0):
    `gamma_v`'s weights are Gamma^v_{d,m} = [m even] Gamma_{d,m/2} + (-1)^v [m + d even]
    Gamma_{d,(m+d)/2}, and a dilute line has period 2 in g.  (1, 0) on every d gives
    half the four-sector sum.  Dense lines with eps = v give twice a sector: a dense
    line steps by 1 in g where a dilute one steps by 2, so Z^dense_d(g) = Z_d(g) +
    (-1)^v Z_d(g + 1) = (-1)^v Z^dense_d(g + 1), and each dense pair is twice the dilute one.
    """
    check_pair(p, pq)
    cutoff, work = _window(cutoff)
    lines = []  # (twist, d, weight); line d reaches the window iff p d^2 / 16 p' <= work
    top = math.isqrt(math.floor(16 * pq * work / p))
    for d in (d for d in range(top + 1) if any(pair[d % 2])):
        if d:
            by_gcd = {g: 2 * weigh(gamma_dm_cospoly(d, g)) for g in divisors(d)}  # mult(d) = 2
            twists = [(Fraction(2 * k, d), w) for k in range(d) if (w := by_gcd[math.gcd(k, d)])]
        else:
            twists = [(e0, weigh({0: 1}))]
        lines += [(g + s, d, w * c) for g, w in twists for s, c in zip((0, 1), pair[d % 2]) if c]
    den = math.lcm(2, *(g.denominator for g, _, _ in lines))
    D, root = _kac_window(p, pq, den, work)
    theta: dict = {}
    for g, d, w in lines:
        _trace_line(theta, "dilute", p, pq, root, den, int(g * den), d, 0, w)
    return _dress(theta, D, cutoff)


# ---------------------------------------------------------------------------
# Gaussian partition functions (numeric)


def Zmm(g, m, mp, tau: TauPoint):
    """Coulomb-gas Gaussian Z_{m,m'}(g) = sqrt(g/tau_i) e^{-pi g |m tau - m'|^2 / tau_i} / (eta etabar).

    Integers m, mp give a float; integer numpy arrays that broadcast together,
    an array."""
    check_ratio(g)
    g = float(g)
    ti = tau.tau.imag
    w = m * tau.tau - mp
    val = math.sqrt(g / ti) * np.exp(-math.pi * g * np.abs(w) ** 2 / ti)
    return _real_part(val / abs(eta_numeric(tau)) ** 2)


# the modular S and T as permutations of the sectors (h, v)
MODULAR_S = {(h, v): (v, h) for h, v in SECTORS}
MODULAR_T = {(h, v): (h, (h + v) % 2) for h, v in SECTORS}
# the least Im of every tau `modular_rep_check` sums at: 0.064 on the imaginary axis,
# rounded up; below it some `_electric` sums are not real, and its arrays grow as 1/Im
MODULAR_MIN_IM = 0.07


def _electric(g, alpha: float, h: int, v: int, tau: TauPoint) -> float:
    """Sector (h, v) in the electric frame, (1/|eta|^2) sum w q^D qbar^Dbar, one `nome_sum`.

    With g' = g/4 and d = h mod 2, D, Dbar = (n/sqrt g' +- d sqrt g')^2/4; n runs
    over -m/(2d) + Z with weight gamma_v(d, alpha, v)[m] for d != 0, and over
    (+-gamma + s pi)/(2 pi) + Z with weight (-1)^{sv}/2 for d = 0, s in {0, 1} and
    alpha = 2 cos gamma.  The least D + Dbar over all cosets is at most g'/2 for h = 1
    and min(1/(32 g'), 2 g') for h = 0; every term within tail_order of that is kept.
    """
    g4 = float(g) / 4.0
    top = 2 * ((g4 / 2 if h else min(1 / (32 * g4), 2 * g4)) + tau.tail_order)
    # one row (d, shift, weight) per coset n = shift + Z; every shift lies in [-1, 1]
    cosets = []
    if h == 0:
        s = np.array([0, 0, 1, 1])
        shifts = (np.array([1, -1, 1, -1]) * math.acos(alpha / 2.0) / math.pi + s) / 2
        cosets.append((np.zeros(4), shifts, np.where(s * v, -0.5, 0.5)))
    for d in range(2 - h, math.isqrt(math.floor(top / g4)) + 1, 2):
        m = np.arange(2 * d)
        for sd in (d, -d):
            cosets.append((np.full(2 * d, sd), -m / (2 * sd), gamma_v(d, alpha, v)))
    d, shift, w = (np.concatenate(column)[:, None] for column in zip(*cosets))
    reach = math.ceil(math.sqrt(top * g4)) + 1
    d, w, n = np.broadcast_arrays(d, w, shift + np.arange(-reach, reach + 1))
    keep = n * n / g4 + d * d * g4 <= top
    x, y = n[keep] / math.sqrt(g4), d[keep] * math.sqrt(g4)
    total = tau.nome_sum((x + y) ** 2 / 4, (x - y) ** 2 / 4, w[keep])
    return _real_part(total / abs(eta_numeric(tau)) ** 2)


def conformal_Z_numeric(g, alpha: float, h: int, v: int, tau: TauPoint) -> float:
    """Sector partition function sum 2 T_{gcd(d,j)}(alpha/2) Z_{d,j}(g/4).

    g is the model ratio p/p'; d runs over the integers of parity h and j over
    those of parity v.  tau is carried into |Re tau| <= 1/2, |tau| >= 1 by T and
    S, each step moving (h, v) by the permutation MODULAR_T or MODULAR_S, and
    the sector is summed there by `_electric`, whose terms fall off at least as
    e^{-pi sqrt 3 (D + Dbar)}: accurate at every tau, however small the sector.
    |alpha| > 2 is refused, and so is a NaN alpha: gamma is real and the weights
    bounded only within it.
    """
    check_sector((h, v))
    if not abs(alpha) <= 2:
        raise ValueError("the numeric sector sum needs |alpha| <= 2")
    check_ratio(g)
    t, hv = tau.tau, (h, v)
    while True:
        k = round(t.real)
        t, hv = t - k, MODULAR_T[hv] if k % 2 else hv
        # the margin keeps a point on the unit circle from being inverted back and forth
        if abs(t) >= 1 - 1e-12:
            return _electric(g, alpha, *hv, TauPoint(t))
        t, hv = -1 / t, MODULAR_S[hv]


def modular_rep_check(taus, g_values) -> dict:
    """Verify the modular structure; returns a report of exact and numeric checks.

    * the sector permutations MODULAR_S and MODULAR_T, composed, satisfy
      S^2 = (S T)^3 = T^2 = 1 exactly;
    * Z_{d,j}(tau+1) = Z_{d,j-d}(tau) and Z_{d,j}(-1/tau) = Z_{j,-d}(tau), one
      array `Zmm` per side, tau, g and image;
    * the electric sums at alpha = 2 and 1.2, at tau and its images unreduced
      (a Poisson identity, not the reduction), transform under S and T by the
      two permutations, for each ratio g in g_values (criterion 6 and
      `torusloop modular` pass `acceptance.MODULAR_RATIOS`);
    * the character-level S transform holds numerically at levels 2 and 6,
      and the exact weights of the level-4n labels j and 4n - j differ by j/2
      plus an integer, so their T phases by (-1)^j: a wrong weight reads False.

    A tau with Im tau or Im(-1/tau) below MODULAR_MIN_IM raises ValueError before
    any sum; tau + 1 has the Im of tau, so the rule bounds every point summed at.
    """
    for tau in taus:
        if min(tau.tau.imag, tau.invert().tau.imag) < MODULAR_MIN_IM:
            raise ValueError(f"need Im tau >= MODULAR_MIN_IM = {MODULAR_MIN_IM} "
                             f"at tau and at -1/tau, got tau = {tau.tau}")

    def fixes_every_sector(*perms) -> bool:
        return all(reduce(lambda x, perm: perm[x], perms, hv) == hv for hv in SECTORS)

    report = {"S2_is_identity": fixes_every_sector(MODULAR_S, MODULAR_S),
              "T2_is_identity": fixes_every_sector(MODULAR_T, MODULAR_T),
              "ST3_is_identity": fixes_every_sector(*(MODULAR_S, MODULAR_T) * 3)}

    d, j = np.array([0, 1, 2, 3]), np.array([2, 1, -1, 2])
    worst_gauss = 0.0
    for tau in taus:
        for g in (0.125, 0.3):
            for image, (m, mp) in ((tau.shift(), (d, j - d)), (tau.invert(), (j, -d))):
                ref = Zmm(g, m, mp, tau)
                worst_gauss = max(worst_gauss, float(np.max(
                    np.abs(Zmm(g, d, j, image) - ref) / np.maximum(1.0, np.abs(ref)))))
    report["Zmm_covariance_residual"] = worst_gauss

    worst_sector = 0.0
    for tau in taus:
        for g in g_values:
            for alpha in (2.0, 1.2):
                vals = {hv: _electric(g, alpha, *hv, tau) for hv in SECTORS}
                for image, perm in ((tau.shift(), MODULAR_T), (tau.invert(), MODULAR_S)):
                    for hv in SECTORS:
                        ref = vals[perm[hv]]
                        err = abs(_electric(g, alpha, *hv, image) - ref) / max(1.0, abs(ref))
                        worst_sector = max(worst_sector, err)
    report["sector_covariance_residual"] = worst_sector

    report["character_S_residual"] = max(
        modular_S_residual(n, taus[0]) for n in (2, 6))
    report["T_sign_checks"] = all(
        (level_weight(4 * n, j) - level_weight(4 * n, 4 * n - j) - Fraction(j, 2)).denominator == 1
        for n in (2, 6) for j in range(2 * n + 1))
    return report


# ---------------------------------------------------------------------------
# alpha = 2 partition functions as exact series, three ways


def Z_hv_direct(p: int, pq: int, h: int, v: int, cutoff) -> BiSeries:
    """Direct double sum (1/eta etabar) sum_{r, s+h/2} (-1)^{vr} q^... qbar^....

    `_markov_sum` at e0 = 0 with the pair (1, (-1)^v) on d = h (mod 2): there
    Gamma_{d,k} = [k = 0] is the sum of its coefficients, and the weights stay ints;
    ArithmeticError for a sum that is not whole.
    """
    check_sector((h, v))
    pair = [(1, (-1) ** v) if d == h else (0, 0) for d in (0, 1)]

    def weigh(poly) -> int:
        total = sum(poly.values())
        if total.denominator != 1:
            raise ArithmeticError(f"Gamma at e0 = 0 is {total}, not whole")
        return int(total)

    return _markov_sum(p, pq, Fraction(0), cutoff, weigh, pair)


def _doubled(label) -> int:
    """2 j for an integer or half-integer u(1) label j."""
    twice = 2 * exact(label, "label")
    if twice.denominator != 1:
        raise ValueError("labels are integers or half-integers")
    return twice.numerator


def _label_theta(n: int, J: int, z: int, lift: int, lim: int) -> dict:
    """sum_k z^k q^{(J + 4kn)^2 / 16n} for the doubled label J = 2j.

    Keys are the numerators (J + 4kn)^2 lift <= lim over D = 16 n lift;
    cancelled terms are dropped.
    """
    terms: dict = {}
    for k in _run(J, 4 * n, math.isqrt(lim // lift)):
        e = (J + 4 * k * n) ** 2 * lift
        terms[e] = terms.get(e, 0) + (-1 if z == -1 and k % 2 else 1)
    return {e: c for e, c in terms.items() if c}


def _pairs_theta(pairs, work: Fraction) -> tuple:
    """Theta sum of sum coeff kappa^n_jl(z, q) kappa^n_jr(z, qbar), as (theta, D).

    `pairs` yields (n, JL, JR, z, coeff) with the doubled labels JL = 2 jl
    and JR = 2 jr; each product contributes coeff times the theta sums of
    jl in q and jr in qbar, through work.  Exponents are numerators over
    D = 16 lcm(n), and each label's theta sum is built once.
    """
    pairs = list(pairs)
    D = 16 * math.lcm(*(n for n, *_ in pairs))
    lim = math.floor(work * D)
    labels = {(n, J, z) for n, JL, JR, z, _ in pairs for J in (JL, JR)}
    sums = {key: _label_theta(*key, D // (16 * key[0]), lim) for key in labels}
    theta: dict = {}
    for n, JL, JR, z, coeff in pairs:
        right = sums[(n, JR, z)]
        for a, ca in sums[(n, JL, z)].items():
            for b, cb in right.items():
                theta[(a, b)] = theta.get((a, b), 0) + coeff * ca * cb
    return theta, D


def _u1_pairs(p: int, pq: int, h: int, v: int):
    """(n, JL, JR, z, sign) over the p x 2p' character grid of sector (h, v).

    JL and JR are `BezoutContext.doubled_pair(r, s)`, the doubled labels mod 2P.
    """
    ctx = BezoutContext(p, pq, h, v)
    for r in range(p):
        sign = -1 if (v and r % 2) else 1
        for s in range(2 * pq):
            yield (ctx.n, *ctx.doubled_pair(r, s), ctx.zsign, sign)


def Z_hv_u1(p: int, pq: int, h: int, v: int, cutoff) -> BiSeries:
    """Grid of affine character products over 0 <= r < p, 0 <= s < 2p'."""
    cutoff, work = _window(cutoff)
    theta, D = _pairs_theta(_u1_pairs(p, pq, h, v), work)
    return _dress(theta, D, cutoff)


def Z_hv_bezout(p: int, pq: int, h: int, v: int, cutoff) -> BiSeries:
    """Bezout-indexed single sum (1/kappa) sum_j (-1)^{v rho_j} kappa kappa-bar."""
    cutoff, work = _window(cutoff)
    ctx = BezoutContext(p, pq, h, v)
    pairs = ((ctx.n, a, b, ctx.zsign, -1 if v and rho % 2 else 1)
             for a, b, rho in index_pairs(ctx))
    theta, D = _pairs_theta(pairs, work)
    if ctx.kappa > 1:
        theta = {ab: Fraction(c, ctx.kappa) for ab, c in theta.items()}
    return _dress(theta, D, cutoff)


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
    collected: dict = {}
    for n, JL, JR, z, coeff in _u1_pairs(p, pq, h, v):
        fl, sl = _fold_label(Fraction(JL, 2), n, z)
        fr, sr = _fold_label(Fraction(JR, 2), n, z)
        key = (fl, fr)
        collected[key] = collected.get(key, 0) + coeff * sl * sr
    terms = [SesquiTerm(c, lft, rgt, z, n)
             for (lft, rgt), c in collected.items() if c]
    return sorted(terms, key=lambda t: (t.left, t.right))


def expand_terms(terms: list, cutoff) -> BiSeries:
    """Expand a folded term list back into an exact BiSeries."""
    cutoff, work = _window(cutoff)
    pairs = ((t.level, _doubled(t.left), _doubled(t.right), t.z, t.coeff) for t in terms)
    theta, D = _pairs_theta(pairs, work)
    return _dress(theta, D, cutoff)


def render_appendix_form(terms: list) -> str:
    return "\n".join(t.render() for t in terms)


# ---------------------------------------------------------------------------
# full partition function vs the O(n) form


def full_Z_series(p: int, pq: int, gamma_over_pi, cutoff) -> BiSeries:
    """Full (sector-summed) partition function as an exact sesquilinear series.

    Half the four-sector sum, `_markov_sum` with the pair (1, 0) on every d:
    Z_0(e0) + sum_{d >= 1, k < d} 2 Gamma_{d,k} Z_d(2k/d), with exact cyclotomic
    weights, rational combinations of cos(k gamma) at gamma = pi * e0.
    """
    e0 = exact(gamma_over_pi, "gamma/pi")
    return _markov_sum(p, pq, e0, cutoff,
                       lambda poly: cospoly_to_cyclo(poly, e0.numerator, e0.denominator),
                       ((1, 0), (1, 0)))


def on_series(g, e0, cutoff) -> BiSeries:
    """The O(n)-model torus partition function as an exact sesquilinear series.

    (1/eta etabar) [ sum_P (q qbar)^{h_{e0+2P,0}} + sum_{M,N|M,P coprime N}
    Lambda(M,N) q^{h_{2P/N, M/2}} qbar^{hbar_{2P/N, M/2}} ],
    with h_{r,s} = (r + g s)^2/(4g) and hbar its reflection.  g = p/p' must
    be a rational (a float raises TypeError) that reduces to a coprime pair
    0 < p < p'.
    """
    g = exact(g, "g = p/p'")
    # h_{r,s} is delta_exp(r, -s) of (p, p') = (g.numerator, g.denominator)
    gp, gq = g.numerator, g.denominator
    check_pair(gp, gq)
    e0 = exact(e0, "gamma/pi")
    field = CycloField(2 * e0.denominator)
    cutoff, work = _window(cutoff)
    # the M-block reaches the window iff g M^2 / 16 <= work
    M_max = math.isqrt(math.floor(16 * work / g))
    # r = e0 + 2P and r = 2P/N, s = M/2 over den = lcm(2, e0.denominator, 1..M_max)
    den = math.lcm(2, e0.denominator, *range(1, M_max + 1))
    D, root = _kac_window(gp, gq, den, work)
    one = field.rational(1)
    theta: dict = {}
    for _, a, _ in _kac_run(gp, gq, root, e0.numerator * (den // e0.denominator), 2 * den, 0):
        theta[(a, a)] = theta[(a, a)] + one if (a, a) in theta else one

    for M in range(1, M_max + 1):
        for N in (N for N in range(1, M + 1) if M % N == 0):
            lam = cospoly_to_cyclo(
                {k: 2 * c for k, c in lambda_fsz_cospoly(M, N).items()},
                e0.numerator, e0.denominator)
            if not lam:
                continue
            # S = -M den / 2: a = h_{r, M/2} and b = hbar_{r, M/2} = h_{r, -M/2}
            for Pn, a, b in _kac_run(gp, gq, root, 0, 2 * den // N, -M * den // 2):
                if math.gcd(Pn, N) == 1:
                    theta[(a, b)] = theta[(a, b)] + lam if (a, b) in theta else lam

    return _dress(theta, D, cutoff)
