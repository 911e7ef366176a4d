"""Loop-model definition: tile set, model parameters and configuration weights.

Faces of the square lattice are decorated with one of nine tiles.  A tile is
a non-crossing pairing of a subset of its four edge midpoints; the dense
model uses only the two fully packed tiles, the dilute model all nine.

Tile catalogue (edge ids B, T, L, R):

    1  empty                     6  horizontal segment L-R
    2  lower-left corner B-L     7  vertical segment B-T
    3  upper-right corner T-R    8  double arc {B-L, T-R}
    4  lower-right corner B-R    9  double arc {B-R, T-L}
    5  upper-left corner T-L

Within the weight-degenerate pairs (2,3), (4,5), (6,7) the labels are fixed
by requiring the transfer matrix at u = 0 to reduce to a lattice shift,
which pins tiles 2, 3 to the B-L / T-R corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

B, T, L, R = 0, 1, 2, 3

TILE_LINKS: dict[int, tuple] = {
    1: (),
    2: ((B, L),),
    3: ((T, R),),
    4: ((B, R),),
    5: ((T, L),),
    6: ((L, R),),
    7: ((B, T),),
    8: ((B, L), (T, R)),
    9: ((B, R), (T, L)),
}

TILE_EDGES: dict[int, frozenset] = {
    t: frozenset(e for pair in links for e in pair) for t, links in TILE_LINKS.items()
}

DENSE_TILES = (8, 9)
DILUTE_TILES = (1, 2, 3, 4, 5, 6, 7, 8, 9)
# the model kinds and the tiles their faces may hold
KIND_TILES = {"dense": DENSE_TILES, "dilute": DILUTE_TILES}

# tile partner lookup: TILE_PARTNER[t][e] is the edge connected to e, or None
TILE_PARTNER: dict[int, dict] = {
    t: {e: f for a, b in links for e, f in ((a, b), (b, a))} for t, links in TILE_LINKS.items()
}


# the boundary sectors (h, v): the parities of the loop crossings of a horizontal
# resp. vertical cut line, in the row order of the modular S and T matrices
SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


def torus_sectors(kind: str, M: int, N: int) -> tuple:
    """The sectors an M x N torus of this kind can lie in.

    Dense tiles occupy all four edges, so N strands cross each horizontal
    cut line and M each vertical one: a dense torus lies in (N mod 2, M mod 2)
    alone.  A dilute torus reaches all four sectors.
    """
    check_kind(kind)
    return ((N % 2, M % 2),) if kind == "dense" else SECTORS


def defect_numbers(kind: str, N: int) -> range:
    """The defect numbers d of the standard modules on N sites.

    A dense site is always occupied, so the N - d sites that are not defects
    pair into arcs: d = N mod 2.  A dilute module has every 0 <= d <= N.
    """
    check_kind(kind)
    return range(N % 2, N + 1, 2) if kind == "dense" else range(N + 1)


def check_sector(hv: tuple, sectors: tuple = SECTORS) -> None:
    """Raise ValueError unless the pair hv = (h, v) is one of `sectors`."""
    if tuple(hv) not in sectors:
        raise ValueError(f"sector {tuple(hv)} is not one of {', '.join(map(str, sectors))}")


def check_size(*sizes) -> None:
    """Raise ValueError unless every lattice dimension in `sizes` is at least 1."""
    if min(sizes) < 1:
        raise ValueError("lattice dimensions must be positive")


def sector_sum(polys, sector: tuple | None, alpha) -> float:
    """sum_n c_n alpha^n of polys = {(h, v): {n: c_n}} in `sector`, or in all when
    None; a NaN or infinite alpha raises ValueError."""
    if not math.isfinite(alpha):
        raise ValueError(f"the fugacity alpha = {alpha} must be finite")
    total = 0.0
    for hv, poly in polys.items():
        if sector is None or hv == sector:
            for n, c in poly.items():
                total += c * alpha ** n
    return total


def check_kind(kind: str) -> None:
    """Raise ValueError unless `kind` is one of the model kinds of KIND_TILES."""
    if kind not in KIND_TILES:
        raise ValueError(f"unknown model kind {kind!r}: need one of {', '.join(KIND_TILES)}")


def check_pair(p: int, pq: int) -> None:
    """Raise ValueError unless p, pq are coprime integers 0 < p < p'."""
    if not (0 < p < pq and math.gcd(p, pq) == 1):
        raise ValueError(f"(p, p') = ({p}, {pq}) is not a coprime pair 0 < p < p'")


def check_ratio(g) -> None:
    """Raise ValueError unless the ratio g = p/p' (the Coulomb coupling) is
    positive and finite; a NaN fails both comparisons."""
    if not 0 < g < math.inf:
        raise ValueError(f"the ratio g = {g} must be positive and finite")


def check_character(n, z) -> None:
    """Raise ValueError unless n is an int level >= 1 and z is +1 or -1: the
    input rule of the affine u(1) characters kappa^n_j(z, q)."""
    if type(n) is not int or n < 1 or z not in (1, -1):
        raise ValueError(f"a u(1) character needs an int level n >= 1 and z = +1 or -1, "
                         f"not n = {n!r}, z = {z!r}")


@dataclass(frozen=True)
class Weights:
    """A weighting of the configurations of one model kind.

    A configuration with n_t faces of tile t and n_beta contractible loops
    weighs beta^n_beta prod_t rho_t^n_t (times the fugacities of its
    non-contractible loops, passed where loops are weighed).  The lattice and
    transfer routes read only `kind`, `rho` and `beta`, so both compute the
    same polynomial in these values: `ModelSpec` supplies the physical ones,
    and a Weights any others, such as integers at which the two routes must
    agree exactly.  A dense weighting reads only rho_8 and rho_9.  A NaN or
    infinite weight raises ValueError.
    """

    kind: str
    rho: tuple      # the tile weights rho_1..rho_9
    beta: float
    types: tuple = field(init=False, repr=False)  # of rho and beta, so ints != floats

    def __post_init__(self):
        check_kind(self.kind)
        rho = tuple(self.rho)
        if len(rho) != 9:
            raise ValueError(f"need nine tile weights rho_1..rho_9, got {len(rho)}")
        names = [f"rho_{t}" for t in range(1, 10)] + ["beta"]
        for name, w in zip(names, rho + (self.beta,)):
            if not math.isfinite(w):
                raise ValueError(f"the weight {name} = {w} must be finite")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "types", tuple(map(type, rho + (self.beta,))))


@dataclass(frozen=True)
class ModelSpec:
    """A loop model at a root-of-unity point.

    kind is "dense" or "dilute"; p, pq are the coprime integers p < p' with
    crossing parameter lambda = pi (p'-p)/p' (dense) or pi (2p'-p)/(4p')
    (dilute), and contractible-loop fugacity beta = 2 cos(pi (p'-p)/p').
    rho holds the nine tile weights rho_1..rho_9 at the spectral parameter u;
    with kind and beta they are the physical `Weights` of the model.
    The non-contractible fugacity alpha is not part of the model: neither the
    lattice census nor the transfer traces depend on it, so it is passed
    where loops are weighed (`lattice_Z`, `markov_Z`).
    """

    kind: str
    p: int
    pq: int
    u: float
    lam: float = field(init=False)
    beta: float = field(init=False)
    # a function of (kind, lam, u): kept out of repr, == and the hash
    rho: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_kind(self.kind)
        check_pair(self.p, self.pq)
        if not math.isfinite(self.u):
            raise ValueError(f"the spectral parameter u = {self.u} must be finite")
        p, pq = self.p, self.pq
        if self.kind == "dense":
            lam = math.pi * (pq - p) / pq
        else:
            lam = math.pi * (2 * pq - p) / (4 * pq)
        beta = 2.0 * math.cos(math.pi * (pq - p) / pq)
        if self.kind == "dilute":
            # same beta from the dilute parameterisation, as a consistency guard
            if abs(beta + 2.0 * math.cos(4 * lam)) >= 1e-12:
                raise ArithmeticError("dilute parameterisation disagrees on beta")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "rho", _tile_weights(self.kind, lam, self.u))

    def isotropic(self) -> "ModelSpec":
        """The same model at its isotropic point u = lambda/2 resp. 3 lambda/2."""
        u = self.lam / 2 if self.kind == "dense" else 3 * self.lam / 2
        return ModelSpec(self.kind, self.p, self.pq, u)


def _tile_weights(kind: str, lam: float, u: float) -> tuple:
    """The nine tile weights rho_1..rho_9 at crossing parameter lam and
    spectral parameter u."""
    sl = math.sin(lam)
    if abs(sl) < 1e-15:
        raise ValueError("crossing parameter is a multiple of pi")

    def s(x: float) -> float:
        return math.sin(x) / sl

    if kind == "dense":
        return (0.0,) * 7 + (s(lam - u), s(u))
    r1 = s(2 * lam) * s(3 * lam) + s(u) * s(3 * lam - u)
    r23 = s(2 * lam) * s(3 * lam - u)
    r45 = s(2 * lam) * s(u)
    r67 = s(u) * s(3 * lam - u)
    r8 = s(2 * lam - u) * s(3 * lam - u)
    r9 = -s(u) * s(lam - u)
    return (r1, r23, r23, r45, r45, r67, r67, r8, r9)
