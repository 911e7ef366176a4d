"""Bezout conjugate tables against frozen reference values."""

import pytest

from torusloop.bezout import (
    BezoutContext,
    bezout_conjugator,
    bezout_table,
    index_pairs,
    kac_table_text,
    mu_shift,
)

ALL_HV = [(0, 0), (0, 1), (1, 0), (1, 1)]


def ctx34(h, v):
    return BezoutContext(3, 4, h, v)


def test_context_derived_quantities():
    c = BezoutContext(3, 4, 1, 1)
    assert (c.n, c.hprime, c.P, c.kappa) == (12, 1, 48, 2)
    c = BezoutContext(3, 4, 1, 0)
    assert (c.n, c.hprime, c.P, c.kappa) == (12, 1, 24, 1)
    c = BezoutContext(4, 5, 1, 1)
    assert (c.n, c.hprime, c.P, c.kappa) == (20, 0, 40, 1)
    with pytest.raises(ValueError):
        BezoutContext(2, 4, 0, 0)


# reference conjugator values; v chosen so that the half-integer panels
# (p odd, h = 1) use the extended period P = 4n
CONJUGATORS = [
    (3, 4, 0, 0, 7),
    (3, 4, 1, 1, 31),
    (3, 5, 0, 0, 19),
    (3, 5, 1, 1, 19),
    (4, 5, 0, 0, 9),
    (4, 5, 1, 0, 29),
]


@pytest.mark.parametrize("p, pq, h, v, w0", CONJUGATORS)
def test_reference_conjugators(p, pq, h, v, w0):
    got, _ = bezout_conjugator(BezoutContext(p, pq, h, v))
    assert got == w0


# sampled reference cells per panel: (r, s) -> (label, conjugate) as
# doubled integers
TABLE_CELLS = {
    (3, 4, 0, 0): {  # P = 24, integer labels
        (0, 0): (0, 0), (1, 0): (8, 8), (2, 0): (16, 16),
        (1, 1): (2, 14), (0, 1): (42, 6), (2, 1): (10, 22),
        (0, 2): (36, 12), (1, 2): (44, 20), (2, 2): (4, 28),
        (0, 7): (6, 42), (1, 7): (14, 2), (2, 7): (22, 10),
    },
    (3, 4, 1, 1): {  # P = 48, half-integer labels (doubled values shown)
        (0, 0): (93, 3), (1, 0): (5, 11), (2, 0): (13, 19),
        (0, 1): (87, 9), (1, 1): (95, 17), (2, 1): (7, 25),
        (0, 2): (81, 15), (1, 2): (89, 23), (2, 2): (1, 31),
        (0, 8): (45, 51), (1, 8): (53, 59), (2, 8): (61, 67),
    },
    (3, 5, 0, 0): {  # P = 30
        (0, 1): (54, 6), (1, 1): (4, 16), (2, 1): (14, 26),
        (0, 2): (48, 12), (1, 2): (58, 22), (2, 2): (8, 32),
        (2, 9): (26, 14), (0, 5): (30, 30), (1, 3): (52, 28),
    },
    (3, 5, 1, 1): {  # P = 60
        (0, 0): (117, 3), (1, 0): (7, 13), (2, 0): (17, 23),
        (0, 1): (111, 9), (1, 1): (1, 19), (2, 1): (11, 29),
        (1, 4): (103, 37), (2, 6): (101, 59), (0, 9): (63, 57),
    },
    (4, 5, 0, 0): {  # P = 40
        (0, 1): (72, 8), (1, 1): (2, 18), (2, 1): (12, 28), (3, 1): (22, 38),
        (0, 0): (0, 0), (1, 0): (10, 10), (3, 9): (38, 22), (1, 9): (18, 2),
    },
    (4, 5, 1, 0): {  # P = 40, h = 1 but integer labels since p is even
        (0, 0): (76, 4), (1, 0): (6, 14), (2, 0): (16, 24), (3, 0): (26, 34),
        (2, 1): (8, 32), (1, 2): (70, 30),
        (2, 7): (40, 0), (3, 6): (58, 2),
    },
}


@pytest.mark.parametrize("key", sorted(TABLE_CELLS))
def test_reference_table_cells(key):
    p, pq, h, v = key
    ctx = BezoutContext(p, pq, h, v)
    table = bezout_table(ctx)
    for (r, s), (a, b) in TABLE_CELLS[key].items():
        assert table[(r, s)] == (a % (2 * ctx.P), b % (2 * ctx.P)), (r, s)


def test_zero_cell_maps_to_zero():
    for (p, pq) in [(3, 4), (3, 5), (4, 5), (2, 3)]:
        ctx = BezoutContext(p, pq, 0, 0)
        assert bezout_table(ctx)[(0, 0)] == (0, 0)


def test_cached_table_is_read_only():
    """The cached table cannot be edited, so no caller can change what a later
    `index_pairs` of the same context reads."""
    ctx = BezoutContext(3, 4, 0, 0)
    before = index_pairs(ctx)
    with pytest.raises(TypeError):
        bezout_table(ctx)[(0, 0)] = (999, 999)
    assert index_pairs(BezoutContext(3, 4, 0, 0)) == before


@pytest.mark.parametrize("p, pq", [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                                   (4, 5), (5, 6), (5, 7), (6, 7), (7, 9)])
@pytest.mark.parametrize("hv", ALL_HV)
def test_bijection_and_conjugator_sweep(p, pq, hv):
    ctx = BezoutContext(p, pq, hv[0], hv[1])
    table = bezout_table(ctx)          # raises internally if not bijective
    assert len(table) == ctx.P
    labels = {a for a, _ in table.values()}
    assert len(labels) == ctx.P        # pairwise distinct, no degeneracy
    w0, _ = bezout_conjugator(ctx)
    assert w0 % 2 == 1
    assert (w0 * w0) % ctx.P == 1 % ctx.P


def check_shift_conjugation(ctx: BezoutContext) -> bool:
    """Entry-wise: conj(j + h'/2) = w0 (j + h'/2) + mu P/2 mod P."""
    w0, _ = bezout_conjugator(ctx)
    for (r, s), (a, b) in bezout_table(ctx).items():
        mu = mu_shift(ctx, r, s)
        if (w0 * a + mu * ctx.P) % (2 * ctx.P) != b:
            return False
    return True


@pytest.mark.parametrize("p, pq", [(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
@pytest.mark.parametrize("hv", ALL_HV)
def test_shift_conjugation_identity(p, pq, hv):
    assert check_shift_conjugation(BezoutContext(p, pq, hv[0], hv[1]))


def test_mu_table_cases():
    # p odd, v = 0: always zero
    ctx = BezoutContext(3, 4, 1, 0)
    assert all(mu_shift(ctx, r, s) == 0 for r in range(3) for s in range(8))
    # p even, h = 1: parity of r - r0
    ctx = BezoutContext(4, 5, 1, 1)
    _, (r0, _) = bezout_conjugator(ctx)
    for r in range(4):
        for s in range(10):
            assert mu_shift(ctx, r, s) == (r - r0) % 2


def test_conjugation_involution():
    for p, pq in [(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]:
        for hv in ALL_HV:
            ctx = BezoutContext(p, pq, hv[0], hv[1])
            conj = dict(bezout_table(ctx).values())
            assert sorted(conj) == [2 * j + ctx.hprime for j in range(ctx.P)]
            assert all(conj[conj[a]] == a for a in conj)


def test_rho_j_values_and_sign_equivalence():
    ctx = BezoutContext(3, 4, 0, 0)
    # reference cell (r, s) = (1, 1) is {1, 7}: rho = (1+7)/8 = 1 = r
    assert bezout_table(ctx)[(1, 1)] == (2, 14)
    rhos = {a: rho for a, _, rho in index_pairs(ctx)}
    assert (rhos[2], rhos[0]) == (1, 0)
    for p, pq in [(2, 3), (3, 4), (3, 5), (4, 5)]:
        for hv in ALL_HV:
            c = BezoutContext(p, pq, hv[0], hv[1])
            rhos = {a: rho for a, _, rho in index_pairs(c)}
            for (r, s), (a, b) in bezout_table(c).items():
                assert (rhos[a] - r) % (c.p * c.kappa) == 0
                if hv[1] == 1:
                    assert (-1) ** (rhos[a] % 2) == (-1) ** (r % 2)


def test_kac_table_text_layout():
    ctx = BezoutContext(3, 4, 0, 0)
    text = kac_table_text(ctx)
    lines = text.splitlines()
    assert len(lines) == 1 + ctx.s_range  # header + p x (P/n) p' grid rows
    assert "0,0" in lines[1]
    assert "1,7" in lines[2]
    # half-integer rendering
    ctx = BezoutContext(3, 4, 1, 1)
    text = kac_table_text(ctx)
    assert "93/2,3/2" in text
    # separator marks the framed fundamental domain
    assert any(set(line.strip()) == {"-"} for line in text.splitlines())


def test_index_pairs_consistency():
    for hv in ALL_HV:
        ctx = BezoutContext(2, 3, hv[0], hv[1])
        pairs = index_pairs(ctx)
        assert [a for a, _, _ in pairs] == [2 * j + ctx.hprime for j in range(ctx.P)]
        assert {(a, b) for a, b, _ in pairs} == set(bezout_table(ctx).values())
        for a, b, rho in pairs:
            assert all(type(x) is int for x in (a, b, rho))
            assert 4 * ctx.pq * rho == a + b
