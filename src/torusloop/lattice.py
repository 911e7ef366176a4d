"""Exhaustive enumeration of loop configurations on small M x N tori.

A configuration is a stack of M periodic rows of N tiles, each tile agreeing
with its left neighbour on their shared vertical edge (the wrap-around pair
included).  Rows come in lexicographic order, so the tile assignments do too.

Each row is reduced once to a strand table.  Its ends are numbered c for the
bottom edge of column c and N + c for the top edge.  A strand entering the
row at one end leaves it at another, and the table records where it enters
the neighbouring row and how often it crossed the column seam (between
columns N-1 and 0) on the way.  The table also holds the row's closed loops
(only a row whose every tile links L to R has one, of class (1, 0)), its tile
counts and column-1 L bit packed into one integer that adds over rows, and
its occupied bottom ends.

For M >= 2 the rows are grouped by bottom occupancy; a row sits on another
when its bottom occupancy equals the other's top occupancy, and the last
row must close the torus against the first row's bottom occupancy.  A row's
table is made when a yielded stack first holds it and kept to the end of
the call.  A one-row torus takes its rows straight from the tiles whose top
and bottom edges agree and makes a row's table only when the row is
yielded, keeping none, so that tori like 1 x 12 stay lazy.

The census is invariant under the 4 M N maps of the torus's translations
(row shifts times column turns) times its point group {1, lr, bt, lr bt}:
lr mirrors left and right, bt bottom and top, and both map each tile set
onto itself.  Each maps rows to rows (lr reverses a row and mirrors its
tiles, bt mirrors the tiles and reverses the order of the rows), so
`census_counter` traces one configuration per orbit, the least among its
images, weights it by the orbit size 4 M N / |stabiliser| and adds the
census keys of its four point-group images in equal shares.  The stacking
search serves both: rows are numbered in lexicographic order, each row's
class is the set of its turns and mirror images, the first row must be the
least of its class and every later row's class least at least the first
row.  The search drops a branch as soon as a forward image that starts with
the first row undercuts the rows placed so far, and a comparison with the
other images that start with the first row decides each full candidate
and gives its stabiliser.  A one-row torus compares a row with the N turns
of it and of its mirror images.  Without orbits the same search yields
every configuration in lexicographic order: `enumerate_configs` is the
exhaustive reference the orbit census is tested against.  Quarter turns
map rows to columns and are not used.

Loops are traced from row to row across the MN horizontal edges only, adding
each row's column-seam crossings and counting the row seam (between rows M-1
and 0) as the walk wraps.  A loop's homology winding (i, j) is its net count
of rightward column-seam and upward row-seam crossings, oriented so that
j > 0, or j = 0 and i > 0.  Loops are counted into a census; partition
functions follow by weighting the census.

One guard, `_check_size`, refuses a torus with more than CENSUS_GUARD
configurations, counted over the short side's periodic rows before any row
table is built, and quotes the count.

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
from itertools import compress
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .model import (KIND_TILES, B, L, R, T, TILE_EDGES, TILE_PARTNER, ModelSpec, Weights,
                    check_kind, check_sector, check_size, sector_sum, torus_sectors)

# Configurations a census may count: about 3-5 us each on a one-row torus,
# at most 1 us on a taller one.  Cold census_counter on 2 cores, one run
# each: dense 1x21 (2,097,152) 9.0 s, dilute 1x13 (1,602,515) 5.3 s, dilute
# 2x8 (2,070,243; 90 MB) 1.9 s, dense 7x3 0.7 s, dilute 4x4 0.34 s, dense 4x5
# 0.18 s.  Refused: the search and traces of dilute 1x14 (4,799,353) take
# 14.6 s and those of dense 1x22 18.1 s.
CENSUS_GUARD = 2 ** 21
# the two dense tiles fill any face, so a torus of more faces than this has
# over CENSUS_GUARD configurations and is refused without counting
_GUARD_FACES = CENSUS_GUARD.bit_length() - 1

# bits per count in a row's packed tile code; no count exceeds M N <= 21
_FIELD = _GUARD_FACES.bit_length()
_MASK = (1 << _FIELD) - 1
_V_SHIFT = 9 * _FIELD   # the column-1 L bit sits above the nine tile counts
_PARITY = (1 << _V_SHIFT + 1) - 1   # keeps the tile counts and V mod 2
_CODE = {t: 1 << _FIELD * (t - 1) for t in TILE_EDGES}
# per tile: the edges linked to its L and R edges (None if unoccupied), and
# whether it links B to T
_SWEEP = {t: (part.get(L), part.get(R), part.get(B) == T) for t, part in TILE_PARTNER.items()}
# per edge, whether each tile holds it; column c's bit in an occupancy
_HOLDS = {edge: {t: edge in edges for t, edges in TILE_EDGES.items()} for edge in (B, T)}
_BITS = tuple(1 << c for c in range(_GUARD_FACES))
# the tiles' mirror images: lr swaps the L and R edges, bt the B and T edges
_LR = dict(zip(range(1, 10), (1, 4, 5, 2, 3, 6, 7, 9, 8)))
_BT = dict(zip(range(1, 10), (1, 5, 4, 3, 2, 6, 7, 9, 8)))
# a census key's tile counts 1..9 as its configuration's lr or bt image has them
_LR_COUNTS = itemgetter(*(_LR[t] - 1 for t in range(1, 10)))
_BT_COUNTS = itemgetter(*(_BT[t] - 1 for t in range(1, 10)))


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

    def sector_from_cuts(self) -> tuple:
        return (self.H % 2, self.V % 2)

    def sector_from_windings(self) -> tuple:
        """Sector from the homology class and multiplicity of the loops."""
        if not self.windings:
            return (0, 0)
        (i, j), n = self.windings[0]
        return ((j * n) % 2, (i * n) % 2)


class _RowTable(NamedTuple):
    """The strands of one periodic row, with ends numbered as in the module doc."""

    tiles: tuple
    link: bytes     # per end: the end entered in the neighbouring row, 255 if unoccupied
    cross: tuple    # per end: the strand's signed column-seam crossings, shared
    starts: tuple   # occupied bottom ends
    loops: int      # closed loops inside the row, each of class (1, 0)
    code: int       # tile counts and column-1 L bit, packed in _FIELD-bit fields


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


def _row_table(row: tuple) -> _RowTable:
    """Sweep `row` left to right, pairing the ends of each strand.

    The strand on the vertical edge left of the current face started at end
    `origin`, or came through the column seam while `origin` is -1.
    """
    N = len(row)
    strands = []      # (a, b): the two ends of each strand
    origin = seam_end = -1
    for c, t in enumerate(row):
        left, right, vertical = _SWEEP[t]
        if left == B or left == T:   # the strand from the left leaves here
            end = c if left == B else N + c
            if origin < 0:
                seam_end = end
            else:
                strands.append((origin, end))
        if right == B or right == T:  # a strand starts here, heading right
            origin = c if right == B else N + c
        if vertical:
            strands.append((c, N + c))
    loops, seam = 0, (-1, -1)              # the strand across the column seam
    if _SWEEP[row[-1]][1] is not None:
        if seam_end < 0:
            loops = 1                        # every tile links L to R
        else:
            seam = (origin, seam_end)
            strands.append(seam)
    link = bytearray(b"\xff") * (2 * N)
    for a, b in strands:
        # a strand leaving through bottom end c enters the row below at top
        # end N + c, and one leaving through top end N + c the row above at c
        link[a] = b + N if b < N else b - N
        link[b] = a + N if a < N else a - N
    return _RowTable(row, bytes(link), _cross(N, *seam),
                     tuple(compress(range(N), map(_HOLDS[B].__getitem__, row))), loops,
                     sum(map(_CODE.__getitem__, row))
                     + ((L in TILE_EDGES[row[1 % N]]) << _V_SHIFT))


@lru_cache(maxsize=None)
def _cross(N: int, a: int, b: int) -> tuple:
    """Column-seam crossings per end when the strand from end a to end b
    crosses the seam rightward (a = b = -1: no strand does); shared by rows."""
    cross = [0] * (2 * N)
    if a >= 0:
        cross[a], cross[b] = 1, -1
    return tuple(cross)


def _occupancy(row: tuple, edge: int) -> int:
    """The columns c whose tile holds `edge`, as the bits 1 << c."""
    return sum(compress(_BITS, map(_HOLDS[edge].__getitem__, row)))


def _enumerate_grids(kind: str, M: int, N: int, orbits: bool) -> Iterator[tuple]:
    """Configurations as (stack of M row tables, bottom to top, weight).

    With `orbits` false: every no-free-end configuration, weight 1, in
    lexicographic order of the tile assignments.  With `orbits` true: one
    configuration per orbit of the M N torus translations times the point
    group, the one least among its images, weighted by the orbit size
    4 M N / |stabiliser|.
    """
    tiles = KIND_TILES[kind]
    if M == 1:
        # each tile's top edge is its own bottom edge; filtering the tiles
        # avoids building every periodic row when few of them close
        for row in _rows(tuple(t for t in tiles
                               if (B in TILE_EDGES[t]) == (T in TILE_EDGES[t])), N):
            weight = _row_weight(row) if orbits else 1
            if weight:
                yield (_row_table(row),), weight
        return
    rows = list(_rows(tiles, N))
    tables = [None] * len(rows)   # made as the yielded stacks need them
    tops = [_occupancy(row, T) for row in rows]
    above: dict = {}  # bottom occupancy -> the indices of the rows with it
    for j, row in enumerate(rows):
        above.setdefault(_occupancy(row, B), []).append(j)
    # turns[s][j]: the index of row j turned s columns; lr[j], bt[j]: the
    # index of its mirror image; least, lead and period as _row_classes
    # makes them.  Without orbits every row is its own class.
    least = range(len(rows))
    if orbits:
        index = {row: j for j, row in enumerate(rows)}
        turn = [index[row[1:] + row[:1]] for row in rows]
        lr = [index[tuple(map(_LR.__getitem__, reversed(row)))] for row in rows]
        bt = [index[tuple(map(_BT.__getitem__, row))] for row in rows]
        del index
        turns = [least, turn][:N]
        for _ in range(2, N):
            turns.append([turn[j] for j in turns[-1]])
        least, lead, period = _row_classes(turns, lr, bt)
        # the row maps of the point group, and whether each reverses the stack
        mirrors = ((turns[0], False), (lr, False), (bt, True), ([lr[j] for j in bt], True))

    def weight(stack: tuple, fixed: int) -> int:
        """4 M N / |stabiliser| if `stack` is least among its images, else 0.

        Every row's class least is at least stack[0] (the search keeps only
        such rows), so only an image whose first row is stack[0] can tie or
        undercut `stack`: one read from a row of stack[0]'s class, upward
        (1, lr) or downward (bt, lr bt), turned so that row is stack[0].
        The search has compared those read upward from stack[0] itself, and
        `fixed` counts the ones equal to `stack`; the rest are compared
        here, translations first, each on its second row before the whole.
        """
        first, second = stack[0], stack[1]
        p = period[first]
        starts = [a for a, j in enumerate(stack) if least[j] == first]
        for mirror, down in mirrors:
            for a in starts:
                s = lead[mirror[stack[a]]]
                if s < 0 or not (a or down):
                    continue  # no turn of it is stack[0], or the search compared it
                after = mirror[stack[a - 1] if down else stack[a + 1 - M]]
                for turned in turns[s::p]:
                    row = turned[after]
                    if row < second:
                        return 0
                    if row == second:
                        seq = stack[a::-1] + stack[:a:-1] if down else stack[a:] + stack[:a]
                        image = tuple(map(turned.__getitem__, map(mirror.__getitem__, seq)))
                        if image < stack:
                            return 0
                        fixed += image == stack
        return 4 * M * N // fixed

    def stack(grid: tuple, top: int, closing: int, floor: int, ties: list) -> Iterator[tuple]:
        """(stack, ties) for the stacks that extend `grid` to M rows, each
        further row's class at least `floor`.

        `ties` holds the maps (turned, mirror) other than the identity that
        take `grid` to itself: each takes a stack to a forward image that
        starts at its first row.  A further row that such a map lowers makes
        that image less than the stack and cuts the branch; one it raises
        drops the map; the maps that fix every row come with the stack.
        """
        m = len(grid)
        for j in above.get(top, ()):
            if least[j] < floor:
                continue
            kept = ties
            if ties:
                images = [turned[mirror[j]] for turned, mirror in ties]
                if min(images) < j:
                    continue
                kept = [tie for tie, image in zip(ties, images) if image == j]
            if m + 1 < M:
                yield from stack(grid + (j,), tops[j], closing, floor, kept)
            elif tops[j] == closing:
                yield grid + (j,), kept

    for i, row in enumerate(rows):
        if least[i] != i:
            continue  # an image starting with a smaller row exists
        ties = [] if not orbits else [
            (turned, mirror) for mirror in (turns[0], lr) if lead[mirror[i]] >= 0
            for turned in turns[lead[mirror[i]]::period[i]]
            if turned is not turns[0] or mirror is not turns[0]]
        for grid, kept in stack((i,), tops[i], _occupancy(row, B),
                                i if orbits else 0, ties):
            w = weight(grid, 1 + len(kept)) if orbits else 1
            if w:
                for j in grid:
                    if tables[j] is None:
                        tables[j] = _row_table(rows[j])
                yield tuple(map(tables.__getitem__, grid)), w


def _row_classes(turns: list, lr: list, bt: list) -> tuple:
    """(least, lead, period) for the rows that `turns`, `lr` and `bt` map.

    least[j] is the least index in row j's class under all of them.
    lead[j] is the least s with turns[s][j] == least[j], or -1 if no turn
    of row j is its class least.  period[i], for each class least i, is
    the number of distinct turns of row i.
    """
    maps, back = (turns[1 % len(turns)], lr, bt), turns[-1]   # back: one turn backward
    least, lead, period = [-1] * len(lr), [-1] * len(lr), {}
    for i in range(len(lr)):
        if least[i] >= 0:
            continue
        least[i], todo = i, [i]  # i is the least of a class not met yet
        while todo:
            j = todo.pop()
            for m in maps:
                if least[m[j]] < 0:
                    least[m[j]] = i
                    todo.append(m[j])
        j, s = i, 0
        while lead[j] < 0:  # walk the turns of row i backward
            lead[j] = s
            j, s = back[j], s + 1
        period[i] = s
    return least, lead, period


def _row_weight(row: tuple) -> int:
    """4 N / |stabiliser| if the one-row torus `row` is least among the N
    turns of it and of its three mirror images, else 0.  The mirror images
    are made only for a row that no turn undercuts."""
    fixed = _turns_equal(row, row)
    if fixed < 0:
        return 0
    lr = tuple(map(_LR.__getitem__, reversed(row)))
    for image in (lr, tuple(map(_BT.__getitem__, row)), tuple(map(_BT.__getitem__, lr))):
        equal = _turns_equal(image, row)
        if equal < 0:
            return 0
        fixed += equal
    return 4 * len(row) // fixed


def _turns_equal(image: tuple, row: tuple) -> int:
    """How many turns of `image` equal `row`, or -1 if one is less; only
    the turns that start with row[0] are compared whole."""
    first, N, equal = row[0], len(row), 0
    if min(image) < first:
        return -1
    doubled = image + image
    for s in compress(range(N), map(first.__eq__, image)):
        turned = doubled[s:s + N]
        if turned < row:
            return -1
        equal += turned == row
    return equal


def _trace(N: int, grid: tuple) -> tuple:
    """Packed census key (n_beta, windings, code, H mod 2) of the configuration
    whose row tables are `grid`, bottom to top; `code` packs the tile counts
    and V mod 2 as _unpack reads them.

    Each loop is walked across the horizontal edges it crosses: a strand
    entering row r at an end leaves it at the end its table names, adding
    the row's column-seam crossings, and crosses the row seam when it steps
    from row M-1 up to row 0 or from row 0 down to row M-1.
    """
    M = len(grid)
    seen = bytearray(M * N)  # horizontal edge below face (r, c) at r*N + c
    n_beta = n_wind = code = 0
    cls = None
    for r0, table in enumerate(grid):
        code += table.code
        if table.loops:
            if n_wind and cls != (1, 0):
                raise ArithmeticError(f"mixed winding classes {{{cls}, (1, 0)}}")
            cls, n_wind = (1, 0), n_wind + table.loops
        for c0 in table.starts:
            if seen[r0 * N + c0]:
                continue
            r, e, i, j = r0, c0, 0, 0  # enter row r0 upward at bottom end c0
            while True:
                here = grid[r]
                i += here.cross[e]
                e = here.link[e]
                if e < N:      # up into row r + 1 at its bottom end e
                    r += 1
                    if r == M:
                        r, j = 0, j + 1
                    if e == c0 and r == r0:
                        break
                    seen[r * N + e] = 1
                else:          # down into row r - 1 at its top end e
                    seen[r * N + e - N] = 1
                    if r == 0:
                        r, j = M, j - 1
                    r -= 1
            if not (i or j):
                n_beta += 1
                continue
            if j < 0 or (j == 0 and i < 0):
                i, j = -i, -j
            if math.gcd(i, j) != 1:
                raise ArithmeticError(f"non-primitive winding class {(i, j)}")
            if n_wind and (i, j) != cls:
                raise ArithmeticError(f"mixed winding classes {{{cls}, {(i, j)}}}")
            cls = (i, j)
            n_wind += 1
    return (n_beta, ((cls, n_wind),) if n_wind else (), code & _PARITY,
            len(grid[1 % M].starts) % 2)


def _unpack(code: int) -> tuple:
    """Tile counts 1..9 and V from a sum of row codes (V mod 2 once the sum
    is masked with _PARITY)."""
    return (tuple(code >> _FIELD * k & _MASK for k in range(9)),
            code >> _V_SHIFT & _MASK)


def enumerate_configs(spec: ModelSpec, M: int, N: int) -> Iterator[tuple]:
    """Yield (TileGrid, LoopCensus) for every valid configuration."""
    _check_size(spec.kind, M, N)
    for grid, _ in _enumerate_grids(spec.kind, M, N, orbits=False):
        n_beta, windings, _, _ = _trace(N, grid)
        counts, V = _unpack(sum(table.code for table in grid))
        yield (TileGrid(M, N, sum((table.tiles for table in grid), ())),
               LoopCensus(n_beta, windings, counts, len(grid[1 % M].starts), V))


def _config_count(kind: str, M: int, N: int) -> int:
    """Configurations of an M x N torus: trace(W^L), where W[b][t] counts the
    periodic rows of the short side S by bottom and top occupancy and L is
    the long side (a quarter turn maps each tile set onto itself)."""
    S, L = sorted((M, N))
    W = [[0] * (1 << S) for _ in range(1 << S)]
    for row in _rows(KIND_TILES[kind], S):
        W[_occupancy(row, B)][_occupancy(row, T)] += 1
    P, columns = W, list(zip(*W))
    for _ in range(L - 1):
        P = [[sum(map(int.__mul__, line, col)) for col in columns] for line in P]
    return sum(P[b][b] for b in range(1 << S))


def _check_size(kind: str, M: int, N: int):
    """Refuse a torus with more than CENSUS_GUARD configurations."""
    check_kind(kind)
    check_size(M, N)
    if M * N > _GUARD_FACES:
        count = f"at least 2^{M * N}"
    elif (n := _config_count(kind, M, N)) > CENSUS_GUARD:
        count = f"{n:,}"
    else:
        return
    raise SizeGuardError(f"{kind} lattice {M}x{N} has {count} configurations, "
                         f"more than the enumeration guard ({CENSUS_GUARD:,})")


@lru_cache(maxsize=64)
def census_counter(kind: str, M: int, N: int) -> tuple:
    """Collapsed census multiset of all configurations, cached per geometry.

    A traced orbit's configurations carry the census keys of its four point
    group images in equal shares: the mirror images lr and bt permute the
    tile counts and turn a winding (i, j) with j != 0 into (-i, j), and
    keep n_beta, h and v.  Each distinct traced key is mapped once, and a
    multiplicity that does not come out whole raises ArithmeticError.  Both
    sector classifications are compared once per distinct traced key; a
    disagreement raises ArithmeticError.
    """
    _check_size(kind, M, N)
    traced: Counter = Counter()
    for grid, weight in _enumerate_grids(kind, M, N, orbits=True):
        traced[_trace(N, grid)] += weight
    census: Counter = Counter()
    while traced:
        (n_beta, windings, code, h), mult = traced.popitem()
        tile_counts, v = _unpack(code)
        loops = LoopCensus(n_beta, windings, tile_counts, h, v)
        if loops.sector_from_cuts() != loops.sector_from_windings():
            raise ArithmeticError(
                f"cut-line sector {(h, v)} disagrees with the sector "
                f"{loops.sector_from_windings()} of the windings {windings}")
        mirrored = tuple(((-i, j) if j else (i, j), n) for (i, j), n in windings)
        lr_counts = _LR_COUNTS(tile_counts)
        for counts, winds in ((tile_counts, windings), (lr_counts, mirrored),
                              (_BT_COUNTS(tile_counts), mirrored),
                              (_BT_COUNTS(lr_counts), windings)):
            census[n_beta, winds, counts, h, v] += mult
    for key, mult in census.items():
        if mult % 4:
            raise ArithmeticError(f"census key {key} has {mult}/4 configurations")
    return tuple(sorted((key, mult // 4) for key, mult in census.items()))


@lru_cache(maxsize=256)
def _sector_polynomials(spec: ModelSpec | Weights, M: int, N: int) -> Mapping:
    """{(h, v): {n: c_n}}, c_n the summed weight beta^n_beta prod rho_t^n_t
    of the configurations of sector (h, v) with n non-contractible loops;
    cached and read-only per weighting and torus, like `transfer._markov_polynomials`."""
    rho, beta = spec.rho, spec.beta
    polys: dict = {}
    for (n_beta, winds, counts, h, v), mult in census_counter(spec.kind, M, N):
        poly = polys.setdefault((h, v), {})
        n = sum(k for _, k in winds)
        w = mult * beta ** n_beta * math.prod(map(pow, rho, counts))
        poly[n] = poly.get(n, 0) + w
    return MappingProxyType({hv: MappingProxyType(poly) for hv, poly in polys.items()})


def lattice_Z(spec: ModelSpec | Weights, M: int, N: int, sector: tuple | None = None, *,
              alpha: float) -> float:
    """Partition function, optionally restricted to a boundary sector (h, v).

    Per-configuration weight: beta^{#contractible} * alpha^{#non-contractible}
    * prod rho_t^{n_t}, with kind, rho and beta read from `spec`, a
    `ModelSpec` (the physical weights) or any `Weights`; summed as
    sum_n c_n alpha^n over the sector polynomials of `_sector_polynomials`.
    A sector outside `torus_sectors(spec.kind, M, N)` raises ValueError, and so
    does a NaN or infinite alpha.
    """
    if sector is not None:
        sector = tuple(sector)
        check_sector(sector, torus_sectors(spec.kind, M, N))
    return sector_sum(_sector_polynomials(spec, M, N), sector, alpha)
