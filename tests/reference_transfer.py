"""Reference link states, row diagrams and row join for the transfer build:
the plain ways that the height rule and the face-by-face sweep of
`torusloop.transfer` are held to.

`match_word` tries every rotation of a word without defects and starts just
after the first defect otherwise; `link_states` places defects, arc ends and
openers with `combinations` and keeps the placements `match_word` accepts.

`_row_diagrams` enumerates every horizontally compatible row of tiles once
and reduces it to its strand ends, seam crossings and closed loops; `_join`
stacks each row of an occupancy on one link state by walking row strands and
the state's arcs in turn.  Together they build a transfer column row by row.
"""

from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterator, Mapping

from torusloop.model import B, L, R, T, TILE_EDGES, TILE_LINKS, TILE_PARTNER, defect_numbers
from torusloop.transfer import _word_sort_key


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
