"""Exhaustive enumeration of loop configurations on small M x N tori.

A configuration is a stack of M periodic rows of N tiles, each tile agreeing
with its left neighbour on their shared vertical edge (the wrap-around pair
included).  The rows are built once per call and grouped by bottom
occupancy; a row sits on another when its bottom occupancy equals the
other's top occupancy, and the last row must close the torus against the
first row's bottom occupancy.  A one-row torus takes its rows straight from
the tiles whose top and bottom edges agree.  Rows come in lexicographic
order, so the tile assignments do too.

Loops are traced face by face over the 2MN lattice edges, numbered as
integers: the horizontal edge below face (r, c) is r*N + c and the vertical
edge left of it is MN + r*N + c.  A loop's homology winding (i, j) counts its
net rightward crossings of the column seam (between columns N-1 and 0) and
upward crossings of the row seam (between rows M-1 and 0), signed along the
loop and then oriented so that j > 0, or j = 0 and i > 0.  Loops are counted
into a census; partition functions follow by weighting the census.

Boundary sectors: a configuration lies in sector (h, v) = (H mod 2, V mod 2)
where H and V count loop-segment crossings of the dual cut lines between
rows 0/1 and columns 0/1.  Equivalently the (i, j)-parity of the (common)
winding class of its non-contractible loops decides the sector; both
classifications are implemented and must agree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from .model import (B, DENSE_TILES, DILUTE_TILES, L, R, T, TILE_EDGES, TILE_PARTNER,
                    ModelSpec, face_weights)

SIZE_GUARD = {"dense": 36, "dilute": 20}


class SizeGuardError(ValueError):
    """Lattice too large for exhaustive enumeration."""


@dataclass(frozen=True)
class TileGrid:
    """Tile labels of an M x N torus, rows bottom to top."""

    M: int
    N: int
    tiles: tuple  # flattened row-major, face (r, c) at index r*N + c


@dataclass(frozen=True)
class LoopCensus:
    """Loop content of one configuration."""

    n_beta: int                 # contractible loops
    windings: tuple             # sorted ((i, j), count) pairs, j >= 0
    tile_counts: tuple          # occurrences of tiles 1..9
    H: int                      # crossings of the horizontal cut line
    V: int                      # crossings of the vertical cut line

    @property
    def n_noncontractible(self) -> int:
        return sum(n for _, n in self.windings)

    def sector_from_cuts(self) -> tuple:
        return (self.H % 2, self.V % 2)

    def sector_from_windings(self) -> tuple:
        """Sector from the homology class and multiplicity of the loops."""
        if not self.windings:
            return (0, 0)
        (i, j), n = self.windings[0]
        return ((j * n) % 2, (i * n) % 2)


def _rows(tiles: tuple, N: int, row: tuple = ()) -> Iterator[tuple]:
    """Periodic rows of N `tiles` that extend `row`, in lexicographic order.

    Each tile's left edge must agree with its left neighbour's right edge;
    the wrap-around pair (columns N-1 and 0) is checked once the row is full.
    """
    if len(row) == N:
        if (L in TILE_EDGES[row[0]]) == (R in TILE_EDGES[row[-1]]):
            yield row
        return
    for t in tiles:
        if not row or (L in TILE_EDGES[t]) == (R in TILE_EDGES[row[-1]]):
            yield from _rows(tiles, N, row + (t,))


def _occupancy(row: tuple, edge: int) -> tuple:
    return tuple(edge in TILE_EDGES[t] for t in row)


def _enumerate_grids(kind: str, M: int, N: int) -> Iterator[tuple]:
    """Every no-free-end tile assignment, in lexicographic order."""
    tiles = DENSE_TILES if kind == "dense" else DILUTE_TILES
    if M == 1:
        # each tile's top edge is its own bottom edge; filtering the tiles
        # avoids building every periodic row when few of them close
        yield from _rows(tuple(t for t in tiles
                               if (B in TILE_EDGES[t]) == (T in TILE_EDGES[t])), N)
        return
    rows = list(_rows(tiles, N))
    above: dict = {}  # bottom occupancy -> [(row, top occupancy)]
    for row in rows:
        above.setdefault(_occupancy(row, B), []).append((row, _occupancy(row, T)))

    def stack(grid: tuple, top: tuple, closing: tuple, m: int) -> Iterator[tuple]:
        """Grids that extend the m stacked rows of `grid` to M rows."""
        for row, row_top in above.get(top, ()):
            if m + 1 < M:
                yield from stack(grid + row, row_top, closing, m + 1)
            elif row_top == closing:
                yield grid + row

    for row in rows:
        yield from stack(row, _occupancy(row, T), _occupancy(row, B), 1)


@lru_cache(maxsize=64)
def _moves(M: int, N: int) -> tuple:
    """Strand steps on the M x N torus, indexed by 4 f + e.

    A strand leaving face f through its edge e enters the returned face
    through the returned entry edge, crossing the returned lattice edge and
    di column-seam and dj row-seam crossings (each 0 or +-1).
    """
    MN = M * N
    out = []
    for f in range(MN):
        r, c = divmod(f, N)
        up, down = (r + 1) % M * N + c, (r - 1) % M * N + c
        right, left = r * N + (c + 1) % N, r * N + (c - 1) % N
        step = {B: (down, T, f, 0, -(r == 0)),
                T: (up, B, up, 0, int(r == M - 1)),
                L: (left, R, MN + f, -(c == 0), 0),
                R: (right, L, MN + right, int(c == N - 1), 0)}
        out.extend(step[e] for e in sorted(step))
    return tuple(out)


def _trace_census(M: int, N: int, tiles: tuple) -> LoopCensus:
    """Trace every loop of a configuration and collect its census."""
    MN = M * N
    moves = _moves(M, N)
    seen = bytearray(2 * MN)
    n_beta = 0
    windings: Counter = Counter()
    for start in range(2 * MN):
        f, entry = (start, B) if start < MN else (start - MN, L)
        if seen[start] or entry not in TILE_EDGES[tiles[f]]:
            continue
        i = j = 0
        edge = -1
        while edge != start:
            f, entry, edge, di, dj = moves[4 * f + TILE_PARTNER[tiles[f]][entry]]
            i += di
            j += dj
            seen[edge] = 1
        if not (i or j):
            n_beta += 1
            continue
        if j < 0 or (j == 0 and i < 0):
            i, j = -i, -j
        if math.gcd(i, j) != 1:
            raise ArithmeticError(f"non-primitive winding class {(i, j)}")
        windings[(i, j)] += 1

    if len(windings) > 1:
        raise ArithmeticError(f"mixed winding classes {set(windings)}")
    cut = (1 % M) * N
    return LoopCensus(
        n_beta=n_beta,
        windings=tuple(sorted(windings.items())),
        tile_counts=tuple(tiles.count(t) for t in range(1, 10)),
        H=sum(B in TILE_EDGES[t] for t in tiles[cut:cut + N]),
        V=sum(L in TILE_EDGES[t] for t in tiles[1 % N::N]),
    )


def enumerate_configs(spec: ModelSpec, M: int, N: int) -> Iterator[tuple]:
    """Yield (TileGrid, LoopCensus) for every valid configuration."""
    _check_size(spec.kind, M, N)
    for tiles in _enumerate_grids(spec.kind, M, N):
        yield TileGrid(M, N, tiles), _trace_census(M, N, tiles)


def _check_size(kind: str, M: int, N: int):
    if M < 1 or N < 1:
        raise ValueError("lattice dimensions must be positive")
    if M * N > SIZE_GUARD[kind]:
        raise SizeGuardError(
            f"{kind} lattice {M}x{N} exceeds the enumeration guard "
            f"({SIZE_GUARD[kind]} faces)")


def _census_key(census: LoopCensus) -> tuple:
    return (census.n_beta, census.windings, census.tile_counts,
            census.H % 2, census.V % 2)


@lru_cache(maxsize=64)
def census_counter(kind: str, M: int, N: int) -> tuple:
    """Collapsed census multiset of all configurations, cached per geometry."""
    _check_size(kind, M, N)
    counts = Counter(_census_key(_trace_census(M, N, tiles))
                     for tiles in _enumerate_grids(kind, M, N))
    return tuple(sorted(counts.items()))


def lattice_Z(spec: ModelSpec, M: int, N: int, sector: tuple | None = None,
              alpha: float | None = None, alphas: Mapping | None = None) -> float:
    """Partition function, optionally restricted to a boundary sector (h, v).

    Per-configuration weight: beta^{#contractible} * prod alpha_{i,j}^{n_{i,j}}
    * prod rho_t^{n_t}.  Non-contractible loops of class (i, j) take their
    weight from `alphas` when given, else the uniform alpha.
    """
    if spec.kind == "dense" and sector is not None:
        forced = (N % 2, M % 2)
        if tuple(sector) != forced:
            raise ValueError(
                f"dense {M}x{N} torus lies in sector {forced}, not {tuple(sector)}")
    if alpha is None:
        alpha = spec.alpha
    rho = face_weights(spec)
    total = 0.0
    for (n_beta, winds, counts, h, v), mult in census_counter(spec.kind, M, N):
        if sector is not None and (h, v) != tuple(sector):
            continue
        w = spec.beta ** n_beta
        for cls, n in winds:
            a = alphas.get(cls, alpha) if alphas is not None else alpha
            if a is None:
                raise ValueError("no fugacity given for non-contractible loops")
            w *= a ** n
        for t in range(9):
            n = counts[t]
            if n:
                w *= rho[t] ** n
        total += mult * w
    return total
