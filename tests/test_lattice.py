"""Lattice enumeration: censuses, sectors, and partition functions."""

import math
import re
import time
from collections import Counter
from dataclasses import fields

import pytest

from reference_enum import slow_partition_functions
from torusloop import lattice
from torusloop.acceptance import DENSE_SIZES, DILUTE_SIZES, ORACLE_PQ, integer_weights
from torusloop.lattice import (
    SizeGuardError,
    _check_size,
    _config_count,
    _enumerate_grids,
    census_counter,
    enumerate_configs,
    lattice_Z,
)
from torusloop.model import TILE_LINKS, B, L, ModelSpec, R, T, Weights, torus_sectors


def spec_dense(p=2, pq=3, u=0.37):
    return ModelSpec("dense", p, pq, u)


def spec_dilute(p=2, pq=3, u=0.37):
    return ModelSpec("dilute", p, pq, u)


def test_face_weights_dense_special_points():
    s = ModelSpec("dense", 2, 3, 0.0)
    w = s.rho
    assert w[:7] == (0.0,) * 7
    assert math.isclose(w[7], 1.0) and w[8] == 0.0
    iso = s.isotropic()
    wi = iso.rho
    assert math.isclose(wi[7], wi[8])


def test_face_weights_dilute_u0():
    s = ModelSpec("dilute", 2, 3, 0.0)
    w = s.rho
    assert w[8] == 0.0 and w[5] == w[6] == 0.0 and w[3] == w[4] == 0.0
    # the empty tile and both lower/upper corners 2,3 survive, plus tile 8
    assert w[0] != 0.0 and w[1] == w[2] != 0.0 and w[7] != 0.0


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec("dense", 2, 4, 0.1)
    with pytest.raises(ValueError):
        ModelSpec("sparse", 1, 2, 0.1)
    # the non-contractible fugacity is not part of the model
    assert [f.name for f in fields(ModelSpec) if f.init] == ["kind", "p", "pq", "u"]


def test_weights_validation():
    with pytest.raises(ValueError, match="need nine tile weights rho_1..rho_9, got 8"):
        Weights("dilute", (1,) * 8, 2)
    # a list of weights is held as a tuple, so the value stays hashable
    w = Weights("dilute", [1] * 9, 2)
    assert w.rho == (1,) * 9 and hash(w) == hash(Weights("dilute", (1,) * 9, 2))


def test_int_weights_and_their_float_twin_are_cached_apart():
    """An int weighting and its float twin are equal numbers but distinct cache
    keys: each sums its sector polynomials in its own type, whichever came first."""
    from torusloop.acceptance import integer_weights
    from torusloop.lattice import _sector_polynomials
    draw = integer_weights("dilute")[0]
    twin = Weights("dilute", tuple(map(float, draw.rho)), float(draw.beta))
    assert draw != twin
    for weights, kind in ((twin, float), (draw, int), (twin, float)):
        lattice_Z(weights, 2, 3, alpha=2.0)
        polys = _sector_polynomials(weights, 2, 3)
        assert {type(c) for poly in polys.values() for c in poly.values()} == {kind}


@pytest.mark.parametrize("M, N", [(1, 3), (2, 3), (3, 3), (3, 4)])
def test_corner_tiles_come_in_pairs(M, N):
    """Occupied edges pair up (L with R, B with T), which forces n_2 = n_3 and
    n_4 = n_5 in every configuration: Z reads rho_2 rho_3 and rho_4 rho_5."""
    for (_, _, counts, _, _), _ in census_counter("dilute", M, N):
        assert counts[1] == counts[2] and counts[3] == counts[4]


def test_dense_2x2_has_16_configs():
    configs = list(enumerate_configs(spec_dense(), 2, 2))
    assert len(configs) == 16
    for grid, census in configs:
        assert set(grid.tiles) <= {8, 9}
        assert sum(census.tile_counts[:7]) == 0


def test_dense_2x2_all_tile9_census():
    for grid, census in enumerate_configs(spec_dense(), 2, 2):
        if grid.tiles == (9, 9, 9, 9):
            # hand-traced: two loops, each winding once around both periods
            assert census.n_beta == 0
            assert census.windings == (((1, 1), 2),)
            assert (census.H, census.V) == (2, 2)
            break
    else:
        pytest.fail("all-9 configuration not enumerated")


def test_dense_2x2_all_tile8_census():
    for grid, census in enumerate_configs(spec_dense(), 2, 2):
        if grid.tiles == (8, 8, 8, 8):
            assert census.windings == (((-1, 1), 2),)
            break
    else:
        pytest.fail("all-8 configuration not enumerated")


def test_dilute_1x1_vacuum():
    for grid, census in enumerate_configs(spec_dilute(), 1, 1):
        if grid.tiles == (1,):
            assert census.n_beta == 0 and census.windings == ()
            assert census.sector_from_cuts() == (0, 0)
            break
    else:
        pytest.fail("vacuum configuration not enumerated")


def test_dilute_1x1_sectors():
    by_tile = {grid.tiles[0]: census
               for grid, census in enumerate_configs(spec_dilute(), 1, 1)}
    assert set(by_tile) == {1, 6, 7, 8, 9}
    assert by_tile[6].sector_from_cuts() == (0, 1)   # horizontal loop
    assert by_tile[7].sector_from_cuts() == (1, 0)   # vertical loop
    assert by_tile[8].sector_from_cuts() == (1, 1)
    assert by_tile[9].sector_from_cuts() == (1, 1)
    assert by_tile[8].windings == (((-1, 1), 1),)
    assert by_tile[9].windings == (((1, 1), 1),)


@pytest.mark.parametrize("kind, M, N", [
    ("dense", 2, 2), ("dense", 3, 3), ("dense", 2, 4),
    ("dilute", 1, 2), ("dilute", 2, 2), ("dilute", 2, 3), ("dilute", 3, 3),
])
def test_sector_classifications_agree(kind, M, N):
    """Cut-line parity and winding-class parity give the same sector."""
    spec = spec_dense() if kind == "dense" else spec_dilute()
    for _, census in enumerate_configs(spec, M, N):
        assert census.sector_from_cuts() == census.sector_from_windings()
        if census.windings:
            (i, j), _ = census.windings[0]
            assert math.gcd(abs(i), j) == 1 and j >= 0


def test_census_counter_refuses_disagreeing_sectors(monkeypatch):
    """A census key whose cut-line h contradicts its windings raises."""
    from torusloop import lattice
    trace = lattice._trace

    def flipped_h(N, grid):
        n_beta, windings, code, h = trace(N, grid)
        return n_beta, windings, code, 1 - h

    monkeypatch.setattr(lattice, "_trace", flipped_h)
    with pytest.raises(ArithmeticError):
        lattice.census_counter.__wrapped__("dilute", 1, 2)  # past the cache


def test_dense_sector_forced_by_parity():
    spec = spec_dense()
    for _, census in enumerate_configs(spec, 3, 2):
        assert census.sector_from_cuts() == (0, 1)
    with pytest.raises(ValueError):
        lattice_Z(spec, 3, 2, sector=(0, 0), alpha=1.0)


def test_sectors_partition_the_configurations():
    spec = spec_dilute(u=0.53)
    total = lattice_Z(spec, 2, 3, alpha=0.8)
    sectors = sum(lattice_Z(spec, 2, 3, sector=hv, alpha=0.8)
                  for hv in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert math.isclose(total, sectors, rel_tol=1e-12)


def test_beta_zero_kills_contractible_loops():
    # (1,2): beta = 0; configurations with a contractible loop must not count
    spec, alpha = ModelSpec("dense", 1, 2, 0.4), 1.0
    assert spec.beta == pytest.approx(0.0, abs=1e-15)
    z = lattice_Z(spec, 2, 2, alpha=alpha)
    by_hand = 0.0
    rho = spec.rho
    for grid, census in enumerate_configs(spec, 2, 2):
        if census.n_beta:
            continue
        w = 1.0 * alpha ** sum(n for _, n in census.windings)
        for t, n in zip(range(1, 10), census.tile_counts):
            w *= rho[t - 1] ** n
        by_hand += w
    assert math.isclose(z, by_hand, rel_tol=1e-12)


def test_dilute_2x2_fixture_against_slow_reference():
    """Frozen golden values from the in-tree slow enumerator (lambda = pi/3 branch)."""
    spec = spec_dilute().isotropic()   # u = 3 lam / 2, lam = pi/3
    golden = {
        (0, 0): 19.753086419753124,
        (0, 1): 19.753086419753107,
        (1, 0): 19.753086419753107,
        (1, 1): 19.75308641975311,
    }
    slow = slow_partition_functions("dilute", 2, 2, spec.beta, 1.0, spec.rho)
    for hv, val in golden.items():
        assert math.isclose(slow[hv], val, rel_tol=1e-12)
        assert math.isclose(lattice_Z(spec, 2, 2, sector=hv, alpha=1.0), val, rel_tol=1e-10)
    assert math.isclose(sum(slow.values()), 79.01234567901244, rel_tol=1e-12)


REFERENCE_CASES = [  # kind, M, N, u, alpha, (p, p')
    ("dense", 2, 4, 0.37, 0.6, (2, 3)),
    ("dilute", 2, 2, 0.37, 1.0, (2, 3)),
    ("dilute", 1, 2, 0.61, 2.0, (2, 3)),
    ("dense", 3, 2, 0.37, 1.3, (2, 3)),
    ("dilute", 3, 1, 0.53, 0.8, (2, 3)),
    # beta = sqrt(2) at (3, 4), so a miscounted n_beta shows
    ("dense", 2, 4, 0.29, 0.7, (3, 4)),
    ("dense", 3, 2, 0.41, 1.6, (3, 4)),
    ("dilute", 1, 2, 0.33, 0.45, (3, 4)),
    ("dilute", 2, 2, 0.52, 1.3, (3, 4)),
    ("dilute", 2, 3, 0.21, 0.8, (3, 4)),
    ("dilute", 3, 1, 0.47, 1.9, (3, 4)),
]


@pytest.mark.parametrize("kind, M, N, u, alpha, pq", [
    pytest.param(*case, id="-".join(map(str, case[:5]))
                 + ("" if case[5] == (2, 3) else "-pq{}{}".format(*case[5])))
    for case in REFERENCE_CASES])
def test_fast_matches_slow_reference(kind, M, N, u, alpha, pq):
    spec = ModelSpec(kind, *pq, u)
    slow = slow_partition_functions(kind, M, N, spec.beta, alpha, spec.rho)
    for hv, val in slow.items():
        if kind == "dense" and hv != (N % 2, M % 2):
            assert val == 0.0
            continue
        assert math.isclose(lattice_Z(spec, M, N, sector=hv, alpha=alpha), val,
                            rel_tol=1e-11, abs_tol=1e-13)


def test_size_guard():
    """A torus with more than CENSUS_GUARD configurations is refused, its
    count (or the bound 2^(M N)) quoted, before any row table is built; the
    tori at the guard whose cold census finishes in seconds are admitted."""
    for kind, M, N, count in (("dense", 6, 6, "at least 2^36"),
                              ("dilute", 1, 20, "3,487,832,977"),
                              ("dilute", 1, 14, "4,799,353"),
                              ("dense", 1, 22, "at least 2^22"),
                              ("dilute", 2, 9, "12,030,823")):
        for call in (lambda: census_counter(kind, M, N),
                     lambda: next(enumerate_configs(ModelSpec(kind, 2, 3, 0.37), M, N))):
            start = time.perf_counter()
            message = f"{kind} lattice {M}x{N} has {count} configurations"
            with pytest.raises(SizeGuardError, match=re.escape(message)):
                call()
            assert time.perf_counter() - start < 0.1
    for kind, M, N in (("dense", 1, 21), ("dilute", 2, 8), ("dilute", 4, 4), ("dense", 4, 5)):
        _check_size(kind, M, N)


def test_config_count_closed_forms():
    """2^(M N) dense configurations (either dense tile fills any face), and
    3^N + 2^N dilute 1 x N ones: a one-row torus admits the tiles whose top
    and bottom edges agree, and a periodic row of them leaves every L and R
    edge empty (tiles 1, 7) or fills every one (tiles 6, 8, 9).  The count is
    symmetric in M and N."""
    for M in range(1, 6):
        for N in range(1, 21 // M + 1):
            assert _config_count("dense", M, N) == 2 ** (M * N)
            assert _config_count("dilute", M, N) == _config_count("dilute", N, M)
    for N in range(1, 14):
        assert _config_count("dilute", 1, N) == 3 ** N + 2 ** N


def census_key(census):
    """The census key of one enumerated configuration, as census_counter keys it."""
    return (census.n_beta, census.windings, census.tile_counts, census.H % 2, census.V % 2)


@pytest.mark.parametrize("kind, M, N", [
    ("dense", 3, 3), ("dilute", 2, 3), ("dilute", 1, 4), ("dilute", 4, 1),
    ("dilute", 2, 2), ("dense", 2, 2), ("dense", 2, 4), ("dilute", 1, 6),
    ("dilute", 5, 1), ("dilute", 3, 4),
])
def test_census_counter_collapses_enumerate_configs(kind, M, N):
    """The orbit census equals the exhaustive enumeration; dilute 2x2 has
    in-row horizontal loops, and the small tori have large stabilisers."""
    spec = spec_dense() if kind == "dense" else spec_dilute()
    census = [c for _, c in enumerate_configs(spec, M, N)]
    assert Counter(census_key(c) for c in census) == dict(census_counter(kind, M, N))
    assert sum(w for _, w in _enumerate_grids(kind, M, N, orbits=True)) == len(census)
    if (kind, M, N) == ("dilute", 2, 2):
        assert any(c.windings == (((1, 0), 2),) for c in census)


def _mirror(swap: dict) -> dict:
    """The tile map of a reflection that swaps the edges as `swap` does."""
    links = {t: {frozenset(pair) for pair in pairs} for t, pairs in TILE_LINKS.items()}
    return {t: next(s for s, other in links.items()
                    if other == {frozenset(swap.get(e, e) for e in pair) for pair in pairs})
            for t, pairs in links.items()}


MIRROR_LR, MIRROR_BT = _mirror({L: R, R: L}), _mirror({B: T, T: B})


@pytest.mark.parametrize("kind, M, N, orbits", [
    ("dense", 2, 2, 5), ("dense", 3, 4, 120), ("dilute", 3, 3, 182), ("dilute", 1, 6, 65),
])
def test_orbit_census_traces_one_configuration_per_orbit(kind, M, N, orbits):
    """The orbit census yields the least image of each orbit of translations
    times the point group {1, lr, bt, lr bt} once, as canonicalising every
    enumerated configuration finds them."""
    spec = spec_dense() if kind == "dense" else spec_dilute()

    def images(tiles):
        rows = [tiles[r * N:(r + 1) * N] for r in range(M)]
        lr = [tuple(MIRROR_LR[t] for t in reversed(row)) for row in rows]
        for grid in (rows, lr):
            for mirrored in (grid, [tuple(MIRROR_BT[t] for t in row) for row in grid[::-1]]):
                for a in range(M):
                    for s in range(N):
                        yield sum((row[s:] + row[:s] for row in mirrored[a:] + mirrored[:a]), ())

    least = {min(images(grid.tiles)) for grid, _ in enumerate_configs(spec, M, N)}
    got = [sum((table.tiles for table in grid), ())
           for grid, _ in _enumerate_grids(kind, M, N, orbits=True)]
    assert len(least) == orbits
    assert sorted(got) == sorted(least)


def _reflect_diagonal(key):
    """A census key of the M x N torus as the N x M torus reads its mirror
    image across the diagonal (B <-> L, T <-> R)."""
    n_beta, windings, counts, h, v = key
    reflected = []
    for (i, j), n in windings:
        i, j = j, i
        if j < 0 or (j == 0 and i < 0):  # _trace's orientation convention
            i, j = -i, -j
        reflected.append(((i, j), n))
    c = list(counts)
    c[3], c[4], c[5], c[6] = c[4], c[3], c[6], c[5]  # tiles 4 <-> 5, 6 <-> 7
    return (n_beta, tuple(reflected), tuple(c), v, h)


@pytest.mark.parametrize("kind, M, N", [
    ("dense", 2, 3), ("dense", 3, 4), ("dilute", 2, 3), ("dilute", 1, 4),
    ("dilute", 3, 4),
])
def test_census_diagonal_reflection(kind, M, N):
    """Reflection across the diagonal maps the M x N census onto the N x M
    one: windings (i, j) -> (j, i), tiles 4 <-> 5 and 6 <-> 7, H <-> V."""
    reflected = Counter()
    for key, mult in census_counter(kind, M, N):
        reflected[_reflect_diagonal(key)] += mult
    assert reflected == dict(census_counter(kind, N, M))


def per_key_lattice_Z(spec, M, N, sector, alpha):
    """lattice_Z as a loop over the census keys, each weighed on its own:
    the reference the cached sector polynomials are held to."""
    rho, beta = spec.rho, spec.beta
    total = 0.0
    for (n_beta, winds, counts, h, v), mult in census_counter(spec.kind, M, N):
        if sector is not None and (h, v) != sector:
            continue
        w = beta ** n_beta
        for _, n in winds:
            w *= alpha ** n
        for t in range(9):
            n = counts[t]
            if n:
                w *= rho[t] ** n
        total += mult * w
    return total


def per_key_polynomials(spec, M, N):
    """The sector polynomials {(h, v): {n: c_n}} as a loop over the census
    keys, each weighed on its own: the coefficient-wise reference."""
    rho, beta = spec.rho, spec.beta
    polys = {}
    for (n_beta, winds, counts, h, v), mult in census_counter(spec.kind, M, N):
        w = mult * beta ** n_beta
        for t in range(9):
            w *= rho[t] ** counts[t]
        n = sum(k for _, k in winds)
        poly = polys.setdefault((h, v), {})
        poly[n] = poly.get(n, 0) + w
    return polys


ORACLE_TORI = [("dense", M, N) for M, N in DENSE_SIZES] + [("dilute", M, N) for M, N in DILUTE_SIZES]


@pytest.mark.parametrize("kind, M, N", ORACLE_TORI)
def test_sector_polynomials_equal_the_per_key_sum_at_integer_weights(kind, M, N):
    """At integer weights both weightings sum integers: every coefficient of
    every sector polynomial agrees exactly, as an int."""
    for weights in integer_weights(kind):
        polys = lattice._sector_polynomials(weights, M, N)
        reference = per_key_polynomials(weights, M, N)
        assert set(polys) == set(reference) <= set(torus_sectors(kind, M, N))
        for hv, poly in reference.items():
            assert dict(polys[hv]) == poly, hv
            assert {type(c) for c in polys[hv].values()} == {int}


@pytest.mark.parametrize("kind, M, N", ORACLE_TORI)
def test_sector_polynomials_match_the_per_key_sum_at_physical_weights(kind, M, N):
    for p, pq in ORACLE_PQ:
        spec = ModelSpec(kind, p, pq, 0.37)
        for sector in torus_sectors(kind, M, N) + (None,):
            for alpha in (1.0, 2.0, 0.6):
                assert math.isclose(lattice_Z(spec, M, N, sector=sector, alpha=alpha),
                                    per_key_lattice_Z(spec, M, N, sector, alpha), rel_tol=1e-13)


def test_census_counter_refuses_a_fractional_multiplicity(monkeypatch):
    """The four images of a traced key share its multiplicity; an orbit
    weight off by one leaves a key a fraction of a configuration and raises."""
    grids = lattice._enumerate_grids

    def off_by_one(kind, M, N, orbits):
        for grid, weight in grids(kind, M, N, orbits):
            yield grid, weight + 1

    monkeypatch.setattr(lattice, "_enumerate_grids", off_by_one)
    with pytest.raises(ArithmeticError, match="/4 configurations"):
        lattice.census_counter.__wrapped__("dilute", 2, 2)  # past the cache
