"""Reference truncated series and references of the dressing kernel.

`RefSeries` is independent of the package's qseries module.  A series is a dict from exponent keys to coefficients, with a cutoff and the
order `valid` through which it is exact: a key is one Fraction for a series
in q and a pair of Fractions for a series in q and qbar.  This is the
Fraction-keyed arithmetic the package used before it stored exponents as
integers over one denominator; kept deliberately plain, and used to certify
that representation.

The module also keeps the references of the dressing kernel
`conformal._dress`: `double_eta_inverse`, the eta-inverse product built from
the package's own series, and `dress_dict`, the kernel as it was before it
became one block product per residue class, which convolves each integer
coordinate with the partition numbers in dict steps.

Then the theta sums of two route-3 forms as their own Kac loops built them
before both became Markov sums of `conformal._trace_line`: `direct_theta`,
the double loop over S and r of `Z_hv_direct`, and `full_theta`, the d = 0
block and the d > 0 blocks of `full_Z_series`.

Last, the Euler product (q)_inf by the pentagonal number theorem and the
Dedekind eta built on it, exact series that the package's `euler_inverse`,
`eta_inverse` and `characters.eta_numeric` are held to.
"""

import math
from fractions import Fraction

from torusloop.arith import gamma_dm_cospoly
from torusloop.conformal import _coordinates, _kac_run, _kac_window, _run, _window
from torusloop.cyclo import CycloField, CycloNum, cospoly_to_cyclo
from torusloop.model import check_pair, check_sector
from torusloop.qseries import BiSeries, QSeries, euler_inverse, exact

BIG = Fraction(10**9)  # the minimal exponent of an empty series


class RefSeries:
    """sum_k c_k (nome monomial of k) with every exponent <= cutoff."""

    def __init__(self, terms, cutoff, valid=None, nomes=1):
        self.nomes = nomes
        self.cutoff = Fraction(cutoff)
        self.valid = self.cutoff if valid is None else min(Fraction(valid), self.cutoff)
        self.terms = {}
        for k, c in terms.items():
            k = self.key(k)
            if c and max(self.parts(k)) <= self.cutoff:
                self.terms[k] = c

    def key(self, k):
        if self.nomes == 1:
            return Fraction(k)
        return (Fraction(k[0]), Fraction(k[1]))

    def parts(self, k):
        return (k,) if self.nomes == 1 else k

    def new(self, terms, cutoff, valid):
        return RefSeries(terms, cutoff, valid, self.nomes)

    def coeff(self, *exponents):
        k = exponents[0] if self.nomes == 1 else exponents
        return self.terms.get(self.key(k), Fraction(0))

    def min_exponent(self):
        if not self.terms:
            return BIG
        return min(min(self.parts(k)) for k in self.terms)

    def matches(self, other):
        bound = min(self.valid, other.valid)
        a, b = ({k: c for k, c in s.terms.items() if max(s.parts(k)) <= bound}
                for s in (self, other))
        return a == b

    def __add__(self, other):
        assert self.cutoff == other.cutoff
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self.new(terms, self.cutoff, min(self.valid, other.valid))

    def __mul__(self, other):
        assert self.cutoff == other.cutoff
        valid = min(self.valid + other.min_exponent(),
                    other.valid + self.min_exponent(), self.cutoff)
        terms = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(self.parts(ka), self.parts(kb)))
                if max(k) <= self.cutoff:
                    k = k[0] if self.nomes == 1 else k
                    terms[k] = terms.get(k, 0) + ca * cb
        return self.new(terms, self.cutoff, valid)

    def truncate(self, cutoff):
        cutoff = Fraction(cutoff)
        return self.new(self.terms, cutoff, min(self.valid, cutoff))

    def shift(self, delta):
        delta = Fraction(delta)
        return self.new({e + delta: c for e, c in self.terms.items()},
                        self.cutoff, min(self.valid + delta, self.cutoff))

    def swap(self):
        return self.new({(b, a): c for (a, b), c in self.terms.items()},
                        self.cutoff, self.valid)

    def sorted_terms(self):
        return sorted(self.terms.items())


def from_product(left, right, cutoff):
    """The outer product f(q) g(qbar) of two one-nome series."""
    cutoff = Fraction(cutoff)
    terms = {(a, b): ca * cb for a, ca in left.terms.items() if a <= cutoff
             for b, cb in right.terms.items() if b <= cutoff}
    return RefSeries(terms, cutoff, min(left.valid, right.valid, cutoff), nomes=2)


# ---------------------------------------------------------------------------
# references of the dressing kernel


def double_eta_inverse(cutoff: Fraction) -> BiSeries:
    """1/((q)_inf (qbar)_inf) as a BiSeries: the product reference for `_dress`."""
    one_sided = euler_inverse(cutoff)
    return BiSeries.from_product(one_sided, one_sided, cutoff)


def _spread_swap(grid: dict, steps: list, lim: int, D: int) -> dict:
    """Convolve the first exponent of each key with the steps (k D, p(k)).

    Keys are integer exponent numerators (x, y) with x <= lim and values are
    ints; zero terms are dropped, only x + k D <= lim is kept, and every key
    comes back swapped, so two passes spread both axes.
    """
    spread: dict = {}
    for (x, y), c in grid.items():
        if c:
            for s, p in steps[:(lim - x) // D + 1]:
                key = (y, x + s)
                spread[key] = spread.get(key, 0) + c * p
    return spread


def dress_dict(theta: dict, D: int, cutoff: Fraction) -> BiSeries:
    """(q qbar)^{-1/24} / ((q)_inf (qbar)_inf) times the theta sum.

    theta maps integer pairs (A, B) >= 0 to int, Fraction or CycloNum
    coefficients (cyclotomic ones all of one field), for the term
    q^{A/D} qbar^{B/D}; it must hold every term with both exponents <=
    top = cutoff + 1/24, and the result is exact through cutoff.  D is
    lifted to L = lcm(D, 24, denominator of top) by one integer factor per
    key, so 1/(q)_inf is a convolution with the partition numbers p(k) in
    integer steps k L along each axis in turn.  Each coefficient is read as
    integer coordinates over one common denominator Q: one coordinate for a
    rational coefficient, field.degree for a cyclotomic one.  The integer
    `_spread_swap` runs twice per coordinate.  At the end each output key
    (A, B) becomes the BiSeries key (A - L/24, B - L/24) over L, which the
    BiSeries reduces to its least denominator, and each distinct output
    coordinate vector v becomes the Fraction v / Q or one CycloNum once.
    Every key lies in the window by construction, so the BiSeries skips its
    per-term checks.
    """
    top = cutoff + Fraction(1, 24)
    L = math.lcm(D, 24, top.denominator)
    lift = L // D
    lim = top.numerator * (L // top.denominator)
    inv = euler_inverse(top)
    steps = [(k * L, inv.coeff(k).numerator) for k in range(math.floor(top) + 1)]
    field = next((c.field for c in theta.values() if isinstance(c, CycloNum)), None)
    width = field.degree if field else 1
    grid = {}
    for (A, B), c in theta.items():
        A *= lift
        B *= lift
        if A <= lim and B <= lim:
            grid[(A, B)] = _coordinates(c, field, width)
    Q = math.lcm(*(den for _, den in grid.values()))
    spread = [_spread_swap(_spread_swap({key: nums[i] * (Q // den)
                                         for key, (nums, den) in grid.items()},
                                        steps, lim, L), steps, lim, L)
              for i in range(width)]
    shift = L // 24
    keys = dict.fromkeys(key for coordinate in spread for key in coordinate)
    columns = [[coordinate.get(key, 0) for key in keys] for coordinate in spread]
    make = (lambda v: Fraction(v[0], Q)) if field is None else (lambda v: CycloNum(field, v, Q))
    built: dict = {}
    terms = {}
    for (A, B), v in zip(keys, zip(*columns)):
        if any(v):
            c = built.get(v)
            if c is None:
                c = built[v] = make(v)
            terms[(A - shift, B - shift)] = c
    return BiSeries._trusted(terms, cutoff, cutoff, L)


# ---------------------------------------------------------------------------
# references of the route-3 theta sums


def direct_theta(p: int, pq: int, h: int, v: int, cutoff) -> tuple:
    """(theta, D) that `Z_hv_direct` dresses, from the double loop over S and r."""
    check_pair(p, pq)
    check_sector((h, v))
    cutoff, work = _window(cutoff)
    # over den = 2: R = 2 r and S = 2 s runs over the integers of parity h
    D, root = _kac_window(p, pq, 2, work)
    theta: dict = {}
    for S in (h + 2 * m for m in _run(h, 2, root // p)):
        for r, a, b in _kac_run(p, pq, root, 0, 2, S):
            sign = -1 if v and r % 2 else 1
            theta[(a, b)] = theta.get((a, b), 0) + sign
    return theta, D


def full_theta(p: int, pq: int, gamma_over_pi, cutoff) -> tuple:
    """(theta, D) that `full_Z_series` dresses, from its d = 0 and d > 0 blocks."""
    check_pair(p, pq)
    e0 = exact(gamma_over_pi, "gamma/pi")
    field = CycloField(2 * e0.denominator)
    cutoff, work = _window(cutoff)
    # the d-block reaches the window iff (p d/2)^2 / (4 p p') <= work
    d_max = math.isqrt(math.floor(16 * pq * work / p))
    # r = e0 - 2l and r = 2t/d, s = d/2 over den = lcm(2, e0.denominator, 1..d_max)
    den = math.lcm(2, e0.denominator, *range(1, d_max + 1))
    D, root = _kac_window(p, pq, den, work)
    one = field.rational(1)
    theta: dict = {}

    # d = 0 block: sum_l (q qbar)^{Delta(e0 - 2l, 0)}
    for _, a, _ in _kac_run(p, pq, root, e0.numerator * (den // e0.denominator), 2 * den, 0):
        theta[(a, a)] = theta.get((a, a), field.rational(0)) + one

    # d > 0 blocks: 2 sum_t Gamma_{d, t mod d} q^{Delta(2t/d, d/2)} qbar^{Delta(2t/d, -d/2)}
    for d in range(1, d_max + 1):
        weights = [2 * cospoly_to_cyclo(gamma_dm_cospoly(d, m), e0.numerator, e0.denominator)
                   for m in range(d)]
        for t, a, b in _kac_run(p, pq, root, 0, 2 * den // d, d * den // 2):
            theta[(a, b)] = theta.get((a, b), field.rational(0)) + weights[t % d]

    return theta, D


# ---------------------------------------------------------------------------
# references of the Euler product and eta


def euler_product(cutoff) -> QSeries:
    """(q)_inf = prod_{n>=1} (1 - q^n), by Euler's pentagonal number theorem."""
    cutoff = exact(cutoff, "cutoff")
    top = math.floor(cutoff)
    terms = {}
    k = 0
    while True:
        placed = False
        for kk in ((k, -k) if k else (0,)):
            e = kk * (3 * kk - 1) // 2
            if e <= top:
                terms[e] = Fraction((-1) ** (kk % 2))
                placed = True
        if not placed and k > 0:
            break
        k += 1
    return QSeries._trusted(terms, cutoff, cutoff, 1)


def dedekind_eta(cutoff) -> QSeries:
    """eta(q) = q^{1/24} (q)_inf, exact through `cutoff`."""
    cutoff = exact(cutoff, "cutoff")
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff must be >= 1/24")
    return euler_product(cutoff).shift(Fraction(1, 24))
