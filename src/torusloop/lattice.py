"""Exhaustive enumeration of loop configurations on small M x N tori.

Row-major DFS over faces with immediate edge-compatibility pruning generates
every no-free-end tile assignment exactly once.  Loops are traced through
the periodic identifications, classified by homology winding (i, j), and
counted into a census; partition functions follow by weighting the census.

Boundary sectors: a configuration lies in sector (h, v) = (H mod 2, V mod 2)
where H and V count loop-segment crossings of the dual cut lines between
rows 0/1 and columns 0/1.  Equivalently the (i, j)-parity of the (common)
winding class of its non-contractible loops decides the sector; both
classifications are implemented and must agree.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from .model import B, EDGE_MID, L, R, T, TILE_EDGES, TILE_PARTNER, ModelSpec, face_weights

SIZE_GUARD = {"dense": 36, "dilute": 20}

# doubled-integer edge midpoints keep winding displacements exact
_MID2 = {e: (int(2 * x), int(2 * y)) for e, (x, y) in EDGE_MID.items()}


class SizeGuardError(ValueError):
    """Lattice too large for exhaustive enumeration."""


@dataclass(frozen=True)
class TileGrid:
    """Tile labels of an M x N torus, rows bottom to top."""

    M: int
    N: int
    tiles: tuple  # flattened row-major, face (r, c) at index r*N + c

    def tile(self, r: int, c: int) -> int:
        return self.tiles[r * self.N + c]


@dataclass(frozen=True)
class LoopCensus:
    """Loop content of one configuration."""

    n_beta: int                 # contractible loops
    windings: tuple             # sorted ((i, j), count) pairs, j >= 0
    tile_counts: tuple          # occurrences of tiles 1..9
    H: int                      # crossings of the horizontal cut line
    V: int                      # crossings of the vertical cut line

    @property
    def winding_class(self):
        return self.windings[0][0] if self.windings else None

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


def _valid_tiles(kind: str) -> tuple:
    return (8, 9) if kind == "dense" else (1, 2, 3, 4, 5, 6, 7, 8, 9)


def _enumerate_grids(kind: str, M: int, N: int, prefix: tuple = ()) -> Iterator[tuple]:
    """DFS over no-free-end tile assignments, optionally below a fixed prefix."""
    total = M * N
    tiles = [0] * total
    tiles[: len(prefix)] = prefix
    options = _valid_tiles(kind)

    def compatible(idx: int, t: int) -> bool:
        r, c = divmod(idx, N)
        occ = TILE_EDGES[t]
        if r > 0 and ((B in occ) != (T in TILE_EDGES[tiles[idx - N]])):
            return False
        if c > 0 and ((L in occ) != (R in TILE_EDGES[tiles[idx - 1]])):
            return False
        if c == N - 1:
            left0 = tiles[r * N] if c != 0 else t
            if (R in occ) != (L in TILE_EDGES[left0]):
                return False
        if r == M - 1:
            below0 = tiles[c] if r != 0 else t
            if (T in occ) != (B in TILE_EDGES[below0]):
                return False
        return True

    for i, t in enumerate(prefix):
        if not compatible(i, t):
            return

    def rec(idx: int):
        if idx == total:
            yield tuple(tiles)
            return
        for t in options:
            if compatible(idx, t):
                tiles[idx] = t
                yield from rec(idx + 1)
        tiles[idx] = 0

    yield from rec(len(prefix))


def _trace_census(kind: str, M: int, N: int, tiles: tuple) -> LoopCensus:
    """Trace every loop of a configuration and collect its census."""
    def tile(r, c):
        return tiles[r * N + c]

    def occ_h(r, c):  # horizontal edge below face (r, c)
        return B in TILE_EDGES[tile(r, c)]

    def occ_v(r, c):  # vertical edge left of face (r, c)
        return L in TILE_EDGES[tile(r, c)]

    visited = set()
    n_beta = 0
    windings: Counter = Counter()

    def walk(start_edge, r, c, entry):
        """Follow the strand entering face (r, c) via edge id `entry`."""
        nonlocal n_beta
        dx = dy = 0
        while True:
            t = tile(r, c)
            exit_edge = TILE_PARTNER[t][entry]
            dx += _MID2[exit_edge][0] - _MID2[entry][0]
            dy += _MID2[exit_edge][1] - _MID2[entry][1]
            if exit_edge == T:
                r2, c2, entry2 = (r + 1) % M, c, B
                edge = ("h", r2, c2)
            elif exit_edge == B:
                r2, c2, entry2 = (r - 1) % M, c, T
                edge = ("h", r, c)
            elif exit_edge == R:
                r2, c2, entry2 = r, (c + 1) % N, L
                edge = ("v", r, c2)
            else:
                r2, c2, entry2 = r, (c - 1) % N, R
                edge = ("v", r, c)
            if edge == start_edge:
                break
            visited.add(edge)
            r, c, entry = r2, c2, entry2
        if dx == 0 and dy == 0:
            n_beta += 1
            return
        i_num, j_num = dx, dy
        if i_num % (2 * N) or j_num % (2 * M):
            raise ArithmeticError(f"loop displacement ({dx}, {dy}) is not a torus period")
        i, j = i_num // (2 * N), j_num // (2 * M)
        if j < 0 or (j == 0 and i < 0):
            i, j = -i, -j
        if math.gcd(abs(i), j) != 1:
            raise ArithmeticError(f"non-primitive winding class {(i, j)}")
        windings[(i, j)] += 1

    for r in range(M):
        for c in range(N):
            edge = ("h", r, c)
            if occ_h(r, c) and edge not in visited:
                visited.add(edge)
                walk(edge, r, c, B)
            edge = ("v", r, c)
            if occ_v(r, c) and edge not in visited:
                visited.add(edge)
                walk(edge, r, c, L)

    classes = set(windings)
    if len(classes) > 1:
        raise ArithmeticError(f"mixed winding classes {classes}")
    counts = Counter(tiles)
    H = sum(occ_h(1 % M, c) for c in range(N))
    V = sum(occ_v(r, 1 % N) for r in range(M))
    return LoopCensus(
        n_beta=n_beta,
        windings=tuple(sorted(windings.items())),
        tile_counts=tuple(counts.get(t, 0) for t in range(1, 10)),
        H=H,
        V=V,
    )


def enumerate_configs(spec: ModelSpec, M: int, N: int) -> Iterator[tuple]:
    """Yield (TileGrid, LoopCensus) for every valid configuration."""
    _check_size(spec.kind, M, N)
    for tiles in _enumerate_grids(spec.kind, M, N):
        yield TileGrid(M, N, tiles), _trace_census(spec.kind, M, N, tiles)


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


def _census_for_prefix(kind: str, M: int, N: int, prefix: tuple) -> Counter:
    out: Counter = Counter()
    for tiles in _enumerate_grids(kind, M, N, prefix):
        out[_census_key(_trace_census(kind, M, N, tiles))] += 1
    return out


@lru_cache(maxsize=64)
def census_counter(kind: str, M: int, N: int, workers: int = 1) -> tuple:
    """Collapsed census multiset of all configurations, cached per geometry."""
    _check_size(kind, M, N)
    if workers > 1 and M * N > 2:
        prefixes = [(t1, t2) for t1 in _valid_tiles(kind) for t2 in _valid_tiles(kind)]
        total: Counter = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_census_for_prefix, [kind] * len(prefixes),
                                 [M] * len(prefixes), [N] * len(prefixes), prefixes):
                total.update(part)
        return tuple(sorted(total.items()))
    return tuple(sorted(_census_for_prefix(kind, M, N, ()).items()))


def lattice_Z(spec: ModelSpec, M: int, N: int, sector: tuple | None = None,
              alpha: float | None = None, alphas: Mapping | None = None,
              workers: int = 1) -> float:
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
    for (n_beta, winds, counts, h, v), mult in census_counter(spec.kind, M, N, workers):
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
