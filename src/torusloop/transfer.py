"""Transfer matrices on standard modules of the periodic Temperley-Lieb
algebra (dense model) and its dilute enlargement.

Link states live on N sites around the periodic row.  Each site carries a
defect "|", a vacancy "." (dilute only), an arc opener "(" or an arc closer
")"; arcs pair openers to closers by the unique non-crossing cyclic matching
and may pass across the periodic seam between sites N-1 and 0.  With d > 0
defects every defect gap must be balanced.  The dimension of the dense
module is binom(N, (N-d)/2).

The one-row transfer matrix acts by stacking a row of faces on a link state
and reading off the top.  Scalars produced while contracting:

  * each face contributes its tile weight rho_t and each contractible closed
    loop beta, both read from the model value: a ``ModelSpec`` or any
    ``Weights``;
  * for d = 0, each loop closing around the periodic direction contributes
    omega + 1/omega (the twist-parameterised non-contractible fugacity);
  * each defect strand contributes omega^{+1} per rightward crossing of the
    seam and omega^{-1} per leftward crossing;
  * a row that joins two defects annihilates the state.

Each row of tiles is reduced once, for every module, to its row diagram:
the other end of each strand among its bottom and top edges, the strand's
signed seam crossings, and the loops closed inside the row.  Stacking a row
on a link state is then a join: one walk alternates row strands with the
state's arcs, so each defect reaches a new defect (or a second defect, which
annihilates the state), the remaining top ends pair into the new arcs, and
what is left closes into loops.  The new word is checked once, against the
arcs of the basis word it names.

The row is homogeneous, so T commutes with rotating the row by one site,
rot(w) = w[-1] + w[:-1], up to the twist: with D_r(w) the number of defects
in w[N-r:], the ones that rot^r carries across the seam, the omega^k
coefficient of T[i, j] is the omega^(k + D_r(i) - D_r(j)) coefficient of
T[rot^r i, rot^r j].  ``build_transfer`` therefore joins only the first
basis word of each rotation orbit and fills the orbit's other columns by
rotating its rows and shifting its powers of omega; a column that its
orbit's period does not map onto itself raises.

Weights are Laurent polynomials in omega, with Python int coefficients when
every rho_t and beta is an int and float ones otherwise.  An operator holds
them as one omega-coefficient tensor, which the build writes directly;
``matrix`` is a view derived from it on first use, each entry a {power of
omega: coefficient} dict, and every Laurent polynomial of this module is
such a mapping.  Traces of transfer-matrix powers decompose as sum_j
omega^{-j} C_{d,j} (the twisted sectors of Di Francesco, Saleur and Zuber,
J. Stat. Phys. 49 (1987) 57).  The Markov trace of a sector, the lattice
enumeration's polynomial in alpha, is Z^{(h,v)} = sum_{d = h mod 2} mult(d)
sum_{j = v mod 2} T_{gcd(d,|j|)}(alpha/2) C_{d,j}: mult(d) = 2 counts the
modules d and -d > 0 (C_{-d,j} = C_{d,-j}) and clears the halves of
T_g(alpha/2), which C_{0,j} = C_{0,-j} clears for mult(0) = 1.

Two paths compute the C_{d,j}.  ``C_coefficients``, which ``markov_Z`` and
the CLI read, multiplies numpy slices of the tensor and is cached per
(spec, N, M, d).  ``trace_TM`` multiplies the ``matrix`` views entry by
entry with one ``math.fsum`` per power, in pure Python; it is the correctly
rounded reference that the tests hold the fast path to.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .arith import _real_part, chebyshev_T, gcd_conv
from .model import (KIND_TILES, B, L, R, T, TILE_EDGES, TILE_LINKS, TILE_PARTNER,
                    ModelSpec, Weights, check_sector, defect_numbers, sector_sum, torus_sectors)

TRANSFER_SITE_GUARD = {"dense": 12, "dilute": 8}

_SORT_ORDER = {"|": 0, "(": 1, ")": 2, ".": 3}


class TransferSizeError(ValueError):
    """Module too large for dense matrix powering."""


# ---------------------------------------------------------------------------
# link states


def match_word(word: str):
    """Non-crossing cyclic matching of a link word.

    Returns a list of (opener, closer) site pairs, or None when the word is
    not a valid link state (a defect gap fails to balance).  Arcs cross the
    periodic seam exactly when closer < opener.
    """
    N = len(word)
    if word.count("(") != word.count(")"):
        return None
    if "|" in word:
        starts = [word.index("|") + 1]
    else:
        starts = range(N)
    for rot in starts:
        stack: list = []
        pairs = []
        ok = True
        for t in range(N):
            i = (rot + t) % N
            ch = word[i]
            if ch == "(":
                stack.append(i)
            elif ch == ")":
                if not stack:
                    ok = False
                    break
                pairs.append((stack.pop(), i))
            elif ch == "|":
                if stack:
                    ok = False
                    break
        if ok and not stack:
            return pairs
    return None


def _word_sort_key(word: str) -> tuple:
    return tuple(_SORT_ORDER[ch] for ch in word)


@lru_cache(maxsize=None)
def link_states(kind: str, N: int, d: int) -> tuple:
    """All canonical link words with d defects, sorted defects-leftmost first."""
    allowed = defect_numbers(kind, N)  # refuses an unknown kind
    if not 0 <= d <= N:
        raise ValueError("need 0 <= d <= N")
    if d not in allowed:
        raise ValueError("dense model needs d = N mod 2")
    found = []
    for defects in combinations(range(N), d):
        rest = [i for i in range(N) if i not in defects]
        # dense: every other site ends an arc; dilute: any even number of them
        ends = (len(rest),) if kind == "dense" else range(0, len(rest) + 1, 2)
        for m in ends:
            for arc_ends in combinations(rest, m):
                for openers in combinations(arc_ends, m // 2):
                    word = ["."] * N
                    for sites, ch in ((defects, "|"), (arc_ends, ")"), (openers, "(")):
                        for i in sites:
                            word[i] = ch
                    w = "".join(word)
                    if match_word(w) is not None:
                        found.append(w)
    return tuple(sorted(found, key=_word_sort_key))


def arc_crossings(word: str) -> dict:
    """Per-site arc data: site -> (partner, signed crossing when leaving site)."""
    out = {}
    for opener, closer in match_word(word):
        cross = 1 if closer < opener else 0
        out[opener] = (closer, +cross)
        out[closer] = (opener, -cross)
    return out


# ---------------------------------------------------------------------------
# one-row action


@lru_cache(maxsize=32)
def _row_diagrams(N: int, tiles: tuple) -> Mapping:
    """Connectivity of every horizontally compatible row of N `tiles`.

    Rows come in lexicographic order, grouped by bottom occupancy (a tuple
    of bools, one per site).  Each row is (tiles, ends, crosses, loops): the
    row ends are numbered c for the bottom edge and N + c for the top edge
    of column c; ``ends[e]`` is the other end of the strand at e (e itself
    when e is unoccupied) and ``crosses[e]`` the signed seam crossings from
    e to it; ``loops`` holds the seam crossings of the loops closed in the
    row.  ``ends`` is stored as bytes and equal ``crosses`` are shared, which
    keeps the tens of thousands of dilute rows at N = 7 small.
    """
    rows = [()]
    for _ in range(N):
        rows = [row + (t,) for row in rows for t in tiles
                if not row or (L in TILE_EDGES[t]) == (R in TILE_EDGES[row[-1]])]
    groups: dict = {}
    shared: dict = {}
    for row in rows:
        if (L in TILE_EDGES[row[0]]) != (R in TILE_EDGES[row[-1]]):
            continue
        ends = list(range(2 * N))
        crosses = [0] * (2 * N)
        for start in range(2 * N):
            col, edge = start % N, (B if start < N else T)
            if ends[start] != start or edge not in TILE_EDGES[row[col]]:
                continue
            cross = 0
            while True:
                edge = TILE_PARTNER[row[col]][edge]
                if edge == R:
                    col, edge = (col + 1) % N, L
                    cross += col == 0
                elif edge == L:
                    cross -= col == 0
                    col, edge = (col - 1) % N, R
                else:
                    break
            end = col if edge == B else N + col
            ends[start], ends[end] = end, start
            crosses[start], crosses[end] = cross, -cross
        # a strand meeting neither edge runs L-R through every tile, so only
        # the all-horizontal row closes a loop, once around the seam
        loops = (1,) if all(TILE_LINKS[t] == ((L, R),) for t in row) else ()
        occupancy = tuple(B in TILE_EDGES[t] for t in row)
        crosses = tuple(crosses)
        groups.setdefault(occupancy, []).append(
            (row, bytes(ends), shared.setdefault(crosses, crosses), loops))
    return MappingProxyType({k: tuple(v) for k, v in groups.items()})


def _join(word: str, rows: tuple, weights: tuple, arcs_of: Mapping) -> Iterator[tuple]:
    """Stack each row diagram of `rows` on the link state `word`.

    Yields (row_weight, omega_power, n_alpha_loops, n_beta_loops, new_word)
    per row, in the order of `rows`; ``weights[i]`` is the product of the
    tile weights of ``rows[i]``.  A row that joins two defects acts as zero
    on the standard module and yields nothing.  `arcs_of` maps every basis
    word to its ``arc_crossings``.

    Each walk starts at a row end and alternates row strands with the arcs
    of `word`.  Row strands and arcs pair their ends, so every walk is a
    path between two of the terminals (defects and top ends) or a closed
    loop.  Walks start from the defects, then from the unseen top ends, so
    whatever is left unseen lies on a closed loop.
    """
    N = len(word)
    arcs = arcs_of[word]
    defects = [s for s, ch in enumerate(word) if ch == "|"]
    starts = defects + list(range(N, 2 * N)) + list(arcs)
    # per row end: (partner, signed crossing) of the arc of `word` there
    arc_at = [arcs.get(e) for e in range(N)] + [None] * N
    for (_, ends, crosses, loops), weight in zip(rows, weights, strict=True):
        seen = [False] * (2 * N)
        letters = ["."] * N
        top_arcs: dict = {}
        omega_power = 0
        n_alpha = sum(c % 2 for c in loops)
        n_beta = len(loops) - n_alpha
        for start in starts:
            if seen[start] or ends[start] == start:
                continue
            e, cross = start, 0
            while True:
                f = ends[e]
                cross += crosses[e]
                seen[e] = seen[f] = True
                arc = arc_at[f]
                if arc is None:
                    break
                e, dc = arc
                cross += dc
                if e == start:
                    break
            if start >= N:
                # a < b: the top ends left of a are seen before a is walked
                a, b, winds = start - N, f - N, cross % 2
                opener, closer = (b, a) if winds else (a, b)
                letters[opener], letters[closer] = "(", ")"
                top_arcs[opener], top_arcs[closer] = (closer, winds), (opener, -winds)
            elif arc_at[start]:
                n_alpha += cross % 2
                n_beta += 1 - cross % 2
            elif f < N:
                break  # two defects joined
            else:
                letters[f - N] = "|"
                omega_power += cross
        else:
            new_word = "".join(letters)
            if arcs_of.get(new_word) != top_arcs:
                raise ArithmeticError(
                    f"inconsistent composite diagram {word} -> {new_word}")
            if n_alpha and defects:
                raise ArithmeticError(
                    "non-contractible loop in a module with defects")
            yield weight, omega_power, n_alpha, n_beta, new_word


class TransferOperator:
    """One-row transfer matrix on the standard module with d defects.

    ``tensor[k - kmin, i, j]`` is the omega^k coefficient of the weight of
    basis[j] -> basis[i] for every k in [kmin, kmin + len(tensor) - 1]; the
    operator marks it read-only.  ``matrix`` is a view derived from it on
    first use.
    """

    def __init__(self, spec: ModelSpec | Weights, N: int, d: int, basis: tuple, kmin: int,
                 tensor: np.ndarray):
        tensor.setflags(write=False)
        self.spec, self.N, self.d, self.basis = spec, N, d, basis
        self.kmin, self.tensor = kmin, tensor

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def matrix(self) -> list:
        """``matrix[i][j]``: the weight of basis[j] -> basis[i] as a
        {power of omega: coefficient} dict of its nonzero coefficients, None
        where every coefficient is zero."""
        nonzero = np.nonzero(self.tensor)
        out: list = [[None] * self.dim for _ in range(self.dim)]
        for n, i, j, c in zip(*(a.tolist() for a in nonzero), self.tensor[nonzero].tolist(),
                              strict=True):
            if out[i][j] is None:
                out[i][j] = {}
            out[i][j][self.kmin + n] = c
        return out

    def to_numeric(self, omega: complex) -> np.ndarray:
        powers = np.arange(self.kmin, self.kmin + len(self.tensor))
        return np.tensordot(complex(omega) ** powers, np.asarray(self.tensor, float), axes=1)


@lru_cache(maxsize=256)
def build_transfer(spec: ModelSpec | Weights, N: int, d: int) -> TransferOperator:
    """Assemble the transfer operator of `spec` on the (N, d) standard module.

    Of `spec`, a `ModelSpec` (the physical weights) or any `Weights`, only
    kind, rho and beta are read; the operator is cached per value.  Tiles of
    weight zero are left out of the rows.  Only the first word of each
    rotation orbit is joined; the other columns of the orbit are its
    rotations (see the module docstring).
    """
    if (d - N) % defect_numbers(spec.kind, N).step:  # parity; link_states checks 0 <= d <= N
        raise ValueError("dense model needs d = N mod 2")
    if N > TRANSFER_SITE_GUARD[spec.kind]:
        raise TransferSizeError(
            f"{spec.kind} transfer matrix limited to N <= {TRANSFER_SITE_GUARD[spec.kind]}")
    basis = link_states(spec.kind, N, d)
    dim = len(basis)
    index = {w: i for i, w in enumerate(basis)}
    arcs_of = {w: arc_crossings(w) for w in basis}
    rho, beta = spec.rho, spec.beta
    dtype = object if all(type(x) is int for x in rho + (beta,)) else float  # exact ints
    diagrams = _row_diagrams(N, tuple(t for t in KIND_TILES[spec.kind] if rho[t - 1] != 0.0))
    # one rotation w -> w[-1] + w[:-1] as an index map, and the defect it
    # carries across the seam
    rot = np.array([index[w[-1] + w[:-1]] for w in basis], dtype=np.intp)
    seam = np.array([w[-1] == "|" for w in basis], dtype=np.int64)
    weights: dict = {}  # bottom occupancy -> weight of each row of the group
    done = bytearray(dim)
    parts: list = []  # (k, i, j, coefficient) arrays, one per filled column
    for j, word in enumerate(basis):
        if done[j]:
            continue
        occupancy = tuple(ch != "." for ch in word)
        rows = diagrams.get(occupancy, ())
        if occupancy not in weights:
            weights[occupancy] = tuple(math.prod(rho[t - 1] for t in tiles)
                                       for tiles, *_ in rows)
        column: dict = {}  # (k, i) -> omega^k coefficient of entry (i, j)
        for row_weight, k, n_alpha, n_beta, new_word in _join(word, rows, weights[occupancy],
                                                              arcs_of):
            i = index[new_word]
            c = row_weight * beta ** n_beta
            # (omega + 1/omega)^n_alpha
            for m in range(n_alpha + 1):
                key = (k + n_alpha - 2 * m, i)
                column[key] = column.get(key, 0) + c * math.comb(n_alpha, m)
        powers = np.array([k for k, _ in column], dtype=np.int64)
        targets = np.array([i for _, i in column], dtype=np.intp)
        coeffs = np.array(list(column.values()), dtype=dtype)
        jr = j
        while True:
            parts.append((powers, targets, np.full(len(coeffs), jr), coeffs))
            done[jr] = 1
            powers = powers + seam[targets] - seam[jr]
            targets, jr = rot[targets], rot[jr]
            if jr == j:
                break
        # rot^P fixes `word` (P its orbit's length), so it must map this
        # column onto itself
        if set(zip(powers.tolist(), targets.tolist())) != set(column):
            raise ArithmeticError(f"column of {word} is not invariant under its "
                                  f"rotation period")
    k, i, j, c = (np.concatenate(a) for a in zip(*parts, strict=True))
    keep = c != 0.0
    k, i, j, c = k[keep], i[keep], j[keep], c[keep]
    kmin, kmax = (int(k.min()), int(k.max())) if len(k) else (0, 0)
    tensor = np.zeros((kmax - kmin + 1, dim, dim), dtype)
    tensor[k - kmin, i, j] = c
    return TransferOperator(spec, N, d, basis, kmin, tensor)


def _fsum_nonzero(buckets: dict) -> dict:
    """{power: math.fsum of its terms} for each power of `buckets`, exact
    zeros dropped."""
    sums = {k: math.fsum(v) for k, v in buckets.items()}
    return {k: c for k, c in sums.items() if c != 0.0}


def _matmul(A: list, Bm: list, dim: int) -> list:
    """Product of two ``matrix`` views with correctly rounded per-power sums."""
    out: list = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        Ai = A[i]
        for j in range(dim):
            buckets: dict = {}
            for k in range(dim):
                a = Ai[k]
                b = Bm[k][j]
                if a is None or b is None:
                    continue
                for ka, ca in a.items():
                    for kb, cb in b.items():
                        buckets.setdefault(ka + kb, []).append(ca * cb)
            out[i][j] = _fsum_nonzero(buckets) or None
    return out


def matrix_power_trace(op: TransferOperator, M: int) -> Mapping:
    """Trace of the M-th power as a read-only {power of omega: coefficient}
    mapping of its nonzero coefficients."""
    dim = op.dim
    if M == 0:
        return MappingProxyType({0: float(dim)})
    P = op.matrix
    for _ in range(M - 1):
        P = _matmul(P, op.matrix, dim)
    buckets: dict = {}
    for i in range(dim):
        entry = P[i][i]
        if entry is not None:
            for k, c in entry.items():
                buckets.setdefault(k, []).append(c)
    return MappingProxyType(_fsum_nonzero(buckets))


def trace_TM(spec: ModelSpec | Weights, N: int, M: int, d: int) -> Mapping:
    """tr T(u)^M on the (N, d) standard module: sum_j omega^{-j} C_{d,j},
    as the mapping {-j: C_{d,j}} of its nonzero coefficients."""
    return matrix_power_trace(build_transfer(spec, N, d), M)


def _slice_product(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Coefficient slices of the product of two operators' omega tensors:
    out[k] = sum_r P[k - r] @ A[r], so out[0] sits at the sum of the
    factors' lowest powers."""
    dim = A.shape[-1]
    out = np.zeros((len(P) + len(A) - 1, dim, dim), A.dtype)
    flat = P.reshape(-1, dim)
    for r, slab in enumerate(A):
        out[r:r + len(P)] += (flat @ slab).reshape(P.shape)
    return out


@lru_cache(maxsize=1024)
def C_coefficients(spec: ModelSpec | Weights, N: int, M: int, d: int) -> Mapping:
    """The coefficients C_{d,j} for j in [-M, M], as a read-only mapping.

    tr T^M = sum_j omega^{-j} C_{d,j} is formed on the coefficient slices
    A[r] of the operator tensor: P'[k] = sum_r P[k - r] @ A[r] builds
    T^{M-1}, and the last factor enters through its trace only, in the
    tensor's type.  A power that no closed walk reaches stays exactly zero.
    ``trace_TM`` is the correctly rounded reference for the same numbers.
    """
    if M < 0:
        raise ValueError("need M >= 0")
    op = build_transfer(spec, N, d)
    A = op.tensor
    zero = 0 if A.dtype == object else 0.0
    if M == 0:
        return MappingProxyType({0: zero + op.dim})
    P = np.eye(op.dim, dtype=A.dtype)[None]
    for _ in range(M - 1):
        P = _slice_product(P, A)
    trace = np.zeros(len(P) + len(A) - 1, A.dtype)
    for r, slab in enumerate(A):
        trace[r:r + len(P)] += np.einsum("kij,ji->k", P, slab)
    # trace[n] is the omega^(M kmin + n) coefficient, i.e. C_{d,-(M kmin + n)}
    C = dict.fromkeys(range(-M, M + 1), zero)
    for n, c in enumerate(trace.tolist()):
        j = -(M * op.kmin + n)
        if j in C:
            C[j] = c
        elif c != 0.0:
            raise ArithmeticError(
                f"trace support exceeds [-M, M]: omega^{-j} coefficient {c!r}")
    return MappingProxyType(C)


@lru_cache(maxsize=None)
def _twice_chebyshev(g: int) -> tuple:
    """The int coefficients of 2 T_g(alpha/2), ascending in alpha.

    Their sizes sum to at most 2^(g+1), so at alpha = B = 2^(g+3) the exact
    value 2 T_g(B/2) holds them as its base-B digits taken in [-B/2, B/2)."""
    B = 2 ** (g + 3)
    rest, digits = 2 * chebyshev_T(g, B // 2), []
    while rest:
        digits.append((rest + B // 2) % B - B // 2)
        rest = (rest - digits[-1]) // B
    return tuple(digits)


@lru_cache(maxsize=256)
def _markov_polynomials(spec: ModelSpec | Weights, M: int, N: int) -> Mapping:
    """{(h, v): {n: c_n}}, each sector's nonzero Markov sum as sum_n c_n alpha^n,
    cached and read-only per weighting and torus like `lattice._sector_polynomials`.
    It is summed on the int coefficients of 2 T_g(alpha/2) and halved: at integer
    weights every c_n is an int, and one that is not whole raises ArithmeticError."""
    polys = {}
    for h, v in torus_sectors(spec.kind, M, N):
        twice: dict = {}  # n -> 2 c_n
        for d in range(h, N + 1, 2):  # dense: h = N mod 2, the parity of d
            C = C_coefficients(spec, N, M, d)
            for j in range((M + v) % 2 - M, M + 1, 2):  # j = v mod 2
                for n, t in enumerate(_twice_chebyshev(gcd_conv(d, abs(j)))):
                    twice[n] = twice.get(n, 0) + (1 if d == 0 else 2) * C[j] * t
        if any(type(c) is int and c % 2 for c in twice.values()):
            raise ArithmeticError(f"sector {(h, v)}: a c_n is not whole (2 c_n: {twice})")
        poly = {n: c // 2 if type(c) is int else c / 2 for n, c in twice.items() if c}
        if poly:
            polys[h, v] = MappingProxyType(poly)
    return MappingProxyType(polys)


def markov_Z(spec: ModelSpec | Weights, M: int, N: int, h: int, v: int, alpha: float) -> float:
    """Torus partition function in sector (h, v) via the Markov trace: the
    polynomial of `_markov_polynomials` at `alpha`, read like `lattice_Z`.  A
    sector outside `torus_sectors(spec.kind, M, N)` raises ValueError."""
    check_sector((h, v), torus_sectors(spec.kind, M, N))
    return sector_sum(_markov_polynomials(spec, M, N), (h, v), alpha)


def leading_eigenvalue(spec: ModelSpec, N: int, d: int = 0, omega: complex = 1.0) -> float:
    """Largest-magnitude transfer eigenvalue at a fixed twist."""
    mat = build_transfer(spec, N, d).to_numeric(omega)
    eigs = np.linalg.eigvals(mat)
    return _real_part(eigs[np.argmax(np.abs(eigs))])


def effective_central_charge(spec: ModelSpec) -> float:
    """Finite-size estimate of c_eff from -ln Lambda_N / N = f - pi c_eff / (6 N^2).

    The sizes N = 6, 8, 10 give one c_eff estimate per consecutive pair; the
    two estimates are Richardson-extrapolated in 1/N^2, at the midpoint scale
    1/(n1 n2) of each pair.
    """
    sizes = (6, 8, 10)
    fs = {N: -math.log(leading_eigenvalue(spec.isotropic(), N, d=0, omega=1.0)) / N
          for N in sizes}
    (c1, x1), (c2, x2) = ((6 * (fs[n2] - fs[n1]) / (math.pi * (1 / n1**2 - 1 / n2**2)),
                           1.0 / (n1 * n2)) for n1, n2 in zip(sizes, sizes[1:]))
    return c2 + (c2 - c1) * x2 / (x1 - x2)
