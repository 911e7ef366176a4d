"""Transfer matrices on standard modules of the periodic Temperley-Lieb
algebra (dense model) and its dilute enlargement.

Link states live on N sites around the periodic row.  Each site carries a
defect "|", a vacancy "." (dilute only), an arc opener "(" or an arc closer
")"; arcs pair openers to closers by the unique non-crossing cyclic matching
and may pass across the periodic seam between sites N-1 and 0.  A word is a
link state when its running height, the count of "(" minus ")", returns to 0
and every defect sits at the word's lowest height (the cycle lemma of
Dvoretzky and Motzkin, Duke Math. J. 14 (1947) 305).  The dimension of the
dense module is binom(N, (N-d)/2).

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

A row is stacked on a link state one face at a time (Bloete and Nightingale,
Physica A 112 (1982) 405).  The sweep's state holds one link per port: a port
per bottom site and per top site, one per side edge of the face being
crossed, and a glue port for the far side of the seam edge.  A link is the other end
of the port's strand and its signed seam crossings, or None; a bottom defect
is a terminal.  The sweep starts with the seam edge empty and with it
occupied, edge and glue linked at crossing -1.  Face k uses up bottom site k
and its left edge and makes top site k and its right edge: a tile strand
joins two used-up ends (closing a loop, alpha at an odd crossing and beta at
an even one, or joining two defects, which annihilates the state), extends a
used-up end to a new one, or pairs the two new ends.  Equal states merge,
with a weight per number of alpha loops.  At the end the right edge is glued
to the glue port by the same join, and the top links give the new word, its
arcs, their winds and the power of omega.  Each final state's new word is
checked once, against the arcs of the basis word it names.  All the words
to be swept go through the faces together: a state's weights are kept per
column (the word it came from) and per number of alpha loops, so a partial
state that several words reach is advanced, glued and read once.  A bottom
site's occupancy is read from its port, which holds a link until face k
uses it.

The row is homogeneous, so T commutes with rotating the row by one site,
rot(w) = w[-1] + w[:-1], up to the twist: with D_r(w) the number of defects
in w[N-r:], the ones that rot^r carries across the seam, the omega^k
coefficient of T[i, j] is the omega^(k + D_r(i) - D_r(j)) coefficient of
T[rot^r i, rot^r j].  ``build_transfer`` therefore sweeps only the first
basis word of each rotation orbit, all of them in one sweep, and fills the
orbit's other columns by rotating its rows and shifting its powers of omega;
a column that its orbit's period does not map onto itself raises.

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
the CLI read, climbs one ladder of slice products to two half powers and
keeps no cache of its own.  ``trace_TM`` multiplies the ``matrix`` views
entry by entry with one ``math.fsum`` per power, in pure Python; it is the
correctly rounded reference that the tests hold the fast path to.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .arith import _real_part, chebyshev_T, gcd_conv
from .model import (KIND_TILES, B, L, R, T, TILE_EDGES, TILE_LINKS, ModelSpec, Weights,
                    check_sector, check_size, defect_numbers, sector_sum, torus_sectors)

TRANSFER_SITE_GUARD = {"dense": 12, "dilute": 8}

_SORT_ORDER = {"|": 0, "(": 1, ")": 2, ".": 3}


class TransferSizeError(ValueError):
    """Module too large for dense matrix powering."""


# ---------------------------------------------------------------------------
# link states


def match_word(word: str):
    """Non-crossing cyclic matching of a link word: a list of (opener, closer)
    site pairs, or None when the word is not a valid link state.  One pass
    matches from just after the first lowest point of the running height and
    fails at a defect inside an arc; arcs cross the seam when closer < opener.
    """
    heights = [0, *accumulate((ch == "(") - (ch == ")") for ch in word)]
    if heights[-1]:
        return None
    start = heights.index(min(heights))
    stack, pairs = [], []
    for i in [*range(start, len(word)), *range(start)]:
        if word[i] == "(":
            stack.append(i)
        elif word[i] == ")":
            pairs.append((stack.pop(), i))
        elif word[i] == "|" and stack:
            return None
    return pairs


def _word_sort_key(word: str) -> tuple:
    return tuple(_SORT_ORDER[ch] for ch in word)


@lru_cache(maxsize=None)
def link_states(kind: str, N: int, d: int) -> tuple:
    """All canonical link words with d defects, sorted defects-leftmost first.
    One walk over the sites per floor, the defects' height (none when d = 0),
    builds them: a defect goes only at the floor, and no height drops below it."""
    check_size(N)
    allowed = defect_numbers(kind, N)  # refuses an unknown kind
    if not 0 <= d <= N:
        raise ValueError("need 0 <= d <= N")
    if d not in allowed:
        raise ValueError("dense model needs d = N mod 2")
    letters = "|()" if kind == "dense" else "|()."
    found = []

    def walk(word: str, height: int, floor: int, defects: int) -> None:
        if len(word) == N:
            found.append(word)
        for ch in letters:  # |height| + defects left must fit the sites left
            h, k = height + (ch == "(") - (ch == ")"), defects - (ch == "|")
            if (0 <= k and floor <= h and abs(h) + k < N - len(word)
                    and (ch != "|" or h == floor)):
                walk(word + ch, h, floor, k)

    for floor in range(-(N // 2), 1) if d else (-N,):
        walk("", 0, floor, d)
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


_DEFECT = -1  # the other end of a strand that runs down to a bottom defect

# each tile's strands as sweep steps (n, a, b), used-up end a first: n = 0 joins
# the used-up ends B and L, 1 extends a to the new end b (T or R), 2 pairs T, R
_SWEEP_STEPS = {t: sorted((sum(e in (T, R) for e in link),
                           *sorted(link, key=lambda e: e in (T, R))) for link in links)
                for t, links in TILE_LINKS.items()}


def _tie(links: list, x: int, y: int) -> tuple | None:
    """Join the used-up ends x and y of `links` by a strand that does not
    cross the seam.  Returns the (alpha, beta) loops this closes, or None
    when it joins two defects."""
    (qx, cx), (qy, cy) = links[x], links[y]
    links[x] = links[y] = None
    if qx == y:
        return (1, 0) if cx % 2 else (0, 1)
    if qx == qy == _DEFECT:
        return None
    if qx != _DEFECT:
        links[qx] = (qy, cy - cx)
    if qy != _DEFECT:
        links[qy] = (qx, cx - cy)
    return 0, 0


def _face_steps(N: int, tiles: tuple) -> tuple:
    """Per face k and bottom occupancy, then per occupancy of the left edge,
    the (rho_t, steps) of the fitting `tiles`, ((t, rho_t), ...), their edges
    as `_sweep`'s ports."""
    out, cur = [], (2 * N + 1, 2 * N + 2)
    for k in range(N):
        port = (k, N + k, cur[k % 2], cur[1 - k % 2])  # of B, T, L and R
        face: tuple = (([], []), ([], []))
        for t, rho_t in tiles:
            face[B in TILE_EDGES[t]][L in TILE_EDGES[t]].append(
                (rho_t, tuple((n, port[a], port[b]) for n, a, b in _SWEEP_STEPS[t])))
        out.append(face)
    return tuple(out)


def _sweep(words: tuple, faces: tuple, beta, arcs_of: Mapping) -> Iterator[tuple]:
    """Stack every row of tiles on the link states `words` together, one face
    at a time (see the module docstring); `faces` is their `_face_steps`.
    Each state maps (column, n_alpha) to its weight, so a state that several
    words reach is advanced, glued and read once.

    Yields (column, weight, omega_power, n_alpha, new_word) per word
    words[column] and reachable top word, power and count of non-contractible
    loops; `weight` holds the tile weights and beta per contractible loop.
    `arcs_of` maps every basis word to its ``arc_crossings``.
    """
    N = len(words[0])
    glue, cur = 2 * N, (2 * N + 1, 2 * N + 2)  # the left and right edge of face k
    states: dict = {}
    for column, word in enumerate(words):
        start: list = [None] * (2 * N + 3)
        for s, link in arcs_of[word].items():
            start[s] = link
        for s in (s for s, ch in enumerate(word) if ch == "|"):
            start[s] = (_DEFECT, 0)
        states[tuple(start)] = {(column, 0): 1}
        start[cur[0]], start[glue] = (glue, -1), (cur[0], 1)
        states[tuple(start)] = {(column, 0): 1}
    for k, face in enumerate(faces):
        left = cur[k % 2]
        after: dict = {}
        for state, value in states.items():
            for weight, steps in face[state[k] is not None][state[left] is not None]:
                links = list(state)
                n_alpha = 0
                for n, x, y in steps:
                    if n == 0:
                        tied = _tie(links, x, y)
                        if tied is None:
                            break
                        n_alpha += tied[0]
                        weight *= beta ** tied[1]
                    elif n == 1:
                        q, c = links[y] = links[x]
                        links[x] = None
                        if q != _DEFECT:
                            links[q] = (y, -c)
                    else:
                        links[x], links[y] = (y, 0), (x, 0)
                else:
                    merged = after.setdefault(tuple(links), {})
                    for key, c in value.items():
                        if n_alpha:
                            key = (key[0], key[1] + n_alpha)
                        merged[key] = merged.get(key, 0) + c * weight
        states = after
    right = cur[N % 2]
    for state, value in states.items():
        links, tied = list(state), (0, 0)
        if (links[right] is None) != (links[glue] is None):
            continue
        if links[right] is not None and (tied := _tie(links, right, glue)) is None:
            continue
        letters = ["."] * N
        top_arcs: dict = {}
        omega_power = 0
        for a, link in enumerate(links[N:2 * N]):
            if link is None:
                continue
            q, c = link
            if q == _DEFECT:
                letters[a] = "|"
                omega_power -= c
            elif q > N + a:
                b, winds = q - N, c % 2
                opener, closer = (b, a) if winds else (a, b)
                letters[opener], letters[closer] = "(", ")"
                top_arcs[opener], top_arcs[closer] = (closer, winds), (opener, -winds)
        new_word = "".join(letters)
        if arcs_of.get(new_word) != top_arcs:
            word = words[next(iter(value))[0]]
            raise ArithmeticError(f"inconsistent composite diagram {word} -> {new_word}")
        loop_weight = beta ** tied[1]
        for (column, n), c in value.items():
            if n + tied[0] and "|" in words[column]:
                raise ArithmeticError("non-contractible loop in a module with defects")
            yield column, c * loop_weight, omega_power, n + tied[0], new_word


class TransferOperator:
    """One-row transfer matrix on a standard module, as its basis, kmin and
    tensor alone: `build_transfer(spec, N, d)` builds it, and its dim,
    matrix, numeric form and traces read nothing else.

    ``tensor[k - kmin, i, j]`` is the omega^k coefficient of the weight of
    basis[j] -> basis[i] for every k in [kmin, kmin + len(tensor) - 1]; the
    operator marks it read-only.  ``matrix`` is a view derived from it on
    first use.
    """

    def __init__(self, basis: tuple, kmin: int, tensor: np.ndarray):
        tensor.setflags(write=False)
        self.basis, self.kmin, self.tensor = basis, kmin, tensor

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
    weight zero are left out of the sweep.  Only the first word of each
    rotation orbit is swept, all of them together; the other columns of the
    orbit are its rotations (see the module docstring).
    """
    check_size(N)
    if N > TRANSFER_SITE_GUARD[spec.kind]:
        raise TransferSizeError(
            f"{spec.kind} transfer matrix limited to N <= {TRANSFER_SITE_GUARD[spec.kind]}")
    basis = link_states(spec.kind, N, d)  # refuses a d outside 0..N or of the wrong parity
    dim = len(basis)
    index = {w: i for i, w in enumerate(basis)}
    arcs_of = {w: arc_crossings(w) for w in basis}
    rho, beta = spec.rho, spec.beta
    dtype = object if all(type(x) is int for x in rho + (beta,)) else float  # exact ints
    faces = _face_steps(N, tuple((t, rho[t - 1]) for t in KIND_TILES[spec.kind]
                                 if rho[t - 1] != 0.0))
    # one rotation w -> w[-1] + w[:-1] as an index map, and the defect it
    # carries across the seam
    rot = np.array([index[w[-1] + w[:-1]] for w in basis], dtype=np.intp)
    seam = np.array([w[-1] == "|" for w in basis], dtype=np.int64)
    reps, done = [], bytearray(dim)  # the first word of each rotation orbit
    for j in range(dim):
        if not done[j]:
            reps.append(j)
            jr = j
            while not done[jr]:
                done[jr] = 1
                jr = rot[jr]
    columns: list = [{} for _ in reps]  # per rep, (k, i) -> omega^k coefficient of (i, j)
    for r, c, k, n_alpha, new_word in _sweep(tuple(basis[j] for j in reps), faces, beta,
                                              arcs_of):
        column, i = columns[r], index[new_word]
        # (omega + 1/omega)^n_alpha
        for m in range(n_alpha + 1):
            key = (k + n_alpha - 2 * m, i)
            column[key] = column.get(key, 0) + c * math.comb(n_alpha, m)
    parts: list = []  # (k, i, j, coefficient) arrays, one per filled column
    for j in reps:
        column = columns.pop(0)  # dropped once its orbit is filled
        powers = np.array([k for k, _ in column], dtype=np.int64)
        targets = np.array([i for _, i in column], dtype=np.intp)
        coeffs = np.array(list(column.values()), dtype=dtype)
        jr = j
        while True:
            parts.append((powers, targets, np.full(len(coeffs), jr), coeffs))
            powers = powers + seam[targets] - seam[jr]
            targets, jr = rot[targets], rot[jr]
            if jr == j:
                break
        # rot^P fixes basis[j] (P its orbit's length), so it must map this
        # column onto itself
        if set(zip(powers.tolist(), targets.tolist())) != set(column):
            raise ArithmeticError(f"column of {basis[j]} is not invariant under its "
                                  f"rotation period")
    k, i, j, c = (np.concatenate(a) for a in zip(*parts, strict=True))
    keep = c != 0.0
    k, i, j, c = k[keep], i[keep], j[keep], c[keep]
    kmin, kmax = (int(k.min()), int(k.max())) if len(k) else (0, 0)
    tensor = np.zeros((kmax - kmin + 1, dim, dim), dtype)
    tensor[k - kmin, i, j] = c
    return TransferOperator(basis, kmin, tensor)


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


def C_coefficients(spec: ModelSpec | Weights, N: int, M: int, d: int) -> dict:
    """The coefficients C_{d,j} for j in [-M, M], as a dict.

    tr T^M = sum_j omega^{-j} C_{d,j} is formed on the coefficient slices
    A[r] of the operator tensor: P'[k] = sum_r P[k - r] @ A[r] climbs from
    T^0 to H = T^floor(M/2) and R = T^ceil(M/2) in ceil(M/2) - 1 products
    (none at M = 0), and tr(H R) is summed in the tensor's type.  A power that
    no closed walk reaches stays exactly zero.  ``trace_TM`` is the correctly
    rounded reference for the same numbers.  With this sign of j, C_{d,j} /
    C_{0,0} tends to the Coulomb-gas ratio Zmm(p/4p', d, j, tau) / Zmm(p/4p',
    0, 0, tau) at tau = `TauPoint.from_lattice(spec, M/N)`, the block of
    (d, j) and not of (d, -j).
    """
    if M < 0:
        raise ValueError("need M >= 0")
    op = build_transfer(spec, N, d)
    A = op.tensor
    H = R = np.eye(op.dim, dtype=A.dtype)[None]
    for m in range(M):  # an even step raises R by one power, an odd one lets H catch up
        if m % 2:
            H = R
        else:
            R = _slice_product(R, A) if m else A
    trace = np.zeros(len(H) + len(R) - 1, A.dtype)
    for r, slab in enumerate(R):
        trace[r:r + len(H)] += np.einsum("kij,ji->k", H, slab)
    # trace[n] is the omega^(M kmin + n) coefficient, i.e. C_{d,-(M kmin + n)}
    C = dict.fromkeys(range(-M, M + 1), 0 if A.dtype == object else 0.0)
    for n, c in enumerate(trace.tolist()):
        j = -(M * op.kmin + n)
        if j in C:
            C[j] = c
        elif c != 0.0:
            raise ArithmeticError(
                f"trace support exceeds [-M, M]: omega^{-j} coefficient {c!r}")
    return C


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
    sums: dict = {hv: {} for hv in torus_sectors(spec.kind, M, N)}  # n -> 2 c_n
    # each module is read once and feeds the sectors of h = d mod 2; every
    # sector sums its floats in the order d ascending, then j ascending
    for d in defect_numbers(spec.kind, N):
        C = C_coefficients(spec, N, M, d)
        for (h, v), twice in sums.items():
            if h != d % 2:
                continue
            for j in range((M + v) % 2 - M, M + 1, 2):  # j = v mod 2
                for n, t in enumerate(_twice_chebyshev(gcd_conv(d, abs(j)))):
                    twice[n] = twice.get(n, 0) + (1 if d == 0 else 2) * C[j] * t
    polys = {}
    for hv, twice in sums.items():
        if any(type(c) is int and c % 2 for c in twice.values()):
            raise ArithmeticError(f"sector {hv}: a c_n is not whole (2 c_n: {twice})")
        poly = {n: c // 2 if type(c) is int else c / 2 for n, c in twice.items() if c}
        if poly:
            polys[hv] = MappingProxyType(poly)
    return MappingProxyType(polys)


def markov_Z(spec: ModelSpec | Weights, M: int, N: int, h: int, v: int, alpha: float) -> float:
    """Torus partition function in sector (h, v) via the Markov trace: the
    polynomial of `_markov_polynomials` at `alpha`, read like `lattice_Z`.  A
    sector outside `torus_sectors(spec.kind, M, N)` raises ValueError, and so
    do a dimension M or N below 1 and a NaN or infinite alpha."""
    check_size(M, N)
    check_sector((h, v), torus_sectors(spec.kind, M, N))
    return sector_sum(_markov_polynomials(spec, M, N), (h, v), alpha)


def leading_eigenvalue(spec: ModelSpec, N: int) -> float:
    """Largest-magnitude eigenvalue of the untwisted d = 0 transfer matrix."""
    mat = build_transfer(spec, N, 0).to_numeric(1.0)
    eigs = np.linalg.eigvals(mat)
    return _real_part(eigs[np.argmax(np.abs(eigs))])


def effective_central_charge(spec: ModelSpec) -> float:
    """Finite-size estimate of c_eff from -ln Lambda_N / N = f - pi c_eff / (6 N^2).

    The sizes N = 6, 8, 10 give one c_eff estimate per consecutive pair; the
    two estimates are Richardson-extrapolated in 1/N^2, at the midpoint scale
    1/(n1 n2) of each pair.
    """
    sizes = (6, 8, 10)
    fs = {N: -math.log(leading_eigenvalue(spec.isotropic(), N)) / N for N in sizes}
    (c1, x1), (c2, x2) = ((6 * (fs[n2] - fs[n1]) / (math.pi * (1 / n1**2 - 1 / n2**2)),
                           1.0 / (n1 * n2)) for n1, n2 in zip(sizes, sizes[1:]))
    return c2 + (c2 - c1) * x2 / (x1 - x2)
