"""Standard modules, transfer traces and the Markov-trace oracle test."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
import reference_transfer as ref_rows

from torusloop import transfer
from torusloop.acceptance import ORACLE_TOL, integer_weights, scaled_error
from torusloop.arith import chebyshev_T, gcd_conv
from torusloop.lattice import _sector_polynomials, lattice_Z
from torusloop.model import KIND_TILES, ModelSpec, Weights, defect_numbers, torus_sectors
from torusloop.transfer import (
    TRANSFER_SITE_GUARD,
    C_coefficients,
    TransferOperator,
    TransferSizeError,
    _slice_product,
    build_transfer,
    effective_central_charge,
    leading_eigenvalue,
    link_states,
    markov_Z,
    match_word,
    trace_TM,
)


def commutator_residual(spec_a: ModelSpec, spec_b: ModelSpec, N: int, d: int) -> float:
    """Largest coefficient of [T(u), T(u')] on the (N, d) module."""
    Ta = build_transfer(spec_a, N, d).tensor
    Tb = build_transfer(spec_b, N, d).tensor
    return float(np.abs(_slice_product(Ta, Tb) - _slice_product(Tb, Ta)).max())


def comb(n, k):
    return math.comb(n, k)


def evaluate(laurent, omega):
    """Value at `omega` of a {power of omega: coefficient} mapping."""
    return sum(c * omega**k for k, c in laurent.items())


# -- link states -----------------------------------------------------------

def test_match_word_basics():
    assert match_word("()") == [(0, 1)]
    assert match_word(")(") == [(1, 0)]
    assert match_word("(|)") is None       # arc would cross the defect
    assert match_word(")|(") is not None
    assert match_word("))((") is not None
    assert match_word("(().") is None      # unbalanced
    # the height rule: every defect at the lowest running height
    assert sorted(match_word("()|()")) == [(0, 1), (3, 4)]
    assert match_word(")(|") is None       # the defect sits above the lowest height


def test_match_word_equals_the_reference_on_every_short_word():
    """Over every word of N <= 7 on the four letters, the height rule accepts
    the words that the rotation matcher of the reference accepts, with the
    same pairs."""
    from itertools import product
    count = 0
    for N in range(1, 8):
        for letters in product("|().", repeat=N):
            w = "".join(letters)
            expected = ref_rows.match_word(w)
            got = match_word(w)
            assert (got is None) == (expected is None), w
            if got is not None:
                assert sorted(got) == sorted(expected), w
            count += 1
    assert count == 21_844


@pytest.mark.parametrize("kind", ["dense", "dilute"])
def test_link_states_equal_the_reference_placements(kind):
    """The walk builds the tuple that the reference's placement filter keeps,
    for every N up to the transfer guard and every allowed d."""
    for N in range(1, TRANSFER_SITE_GUARD[kind] + 1):
        for d in defect_numbers(kind, N):
            assert link_states(kind, N, d) == ref_rows.link_states(kind, N, d), (N, d)


@pytest.mark.parametrize("kind", ["dense", "dilute"])
@pytest.mark.parametrize("N", [0, -1])
def test_link_states_refuse_a_row_of_no_sites(kind, N):
    with pytest.raises(ValueError, match="lattice dimensions must be positive"):
        link_states(kind, N, 0)


@pytest.mark.parametrize("kind, N, d, message", [
    ("dense", 4, -1, "need 0 <= d <= N"), ("dense", 4, 5, "need 0 <= d <= N"),
    ("dense", 4, 6, "need 0 <= d <= N"), ("dense", 4, 1, "dense model needs d = N mod 2"),
    ("dense", 5, 2, "dense model needs d = N mod 2"),
    ("dilute", 3, -1, "need 0 <= d <= N"), ("dilute", 3, 4, "need 0 <= d <= N")])
def test_a_defect_number_outside_the_module_rule_raises(kind, N, d, message):
    """`link_states` is route 2's one refusal of a bad d: the build and the
    traces reach it.  A dense d above N of the wrong parity is out of range first."""
    spec = ModelSpec(kind, 2, 3, 0.37)
    for call in (lambda: link_states(kind, N, d), lambda: build_transfer(spec, N, d),
                 lambda: C_coefficients(spec, N, 2, d)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_C_coefficients_refuses_a_negative_power():
    with pytest.raises(ValueError, match=re.escape("need M >= 0")):
        C_coefficients(ModelSpec("dense", 2, 3, 0.37), 4, -1, 0)


@pytest.mark.parametrize("N, d", [(2, 0), (2, 2), (3, 1), (4, 0), (4, 2), (4, 4),
                                  (5, 1), (6, 0), (6, 2)])
def test_dense_module_dimensions(N, d):
    assert len(link_states("dense", N, d)) == comb(N, (N - d) // 2)


def test_dense_4_0_dimension_is_six():
    assert len(link_states("dense", 4, 0)) == 6


def test_dilute_small_modules():
    assert link_states("dilute", 1, 0) == (".",)
    assert link_states("dilute", 1, 1) == ("|",)
    # one defect on three sites: three arc placements + three vacancy fillings
    assert len(link_states("dilute", 3, 1)) == 6


@pytest.mark.parametrize("kind, N", [("dense", N) for N in range(1, 11)]
                         + [("dilute", N) for N in range(1, 8)])
def test_link_states_equal_the_full_word_filter(kind, N):
    """The walk gives the same tuple as filtering every word over the
    alphabet with the reference's match_word."""
    from itertools import product
    by_d = {}
    for word in product("|()" if kind == "dense" else "|().", repeat=N):
        w = "".join(word)
        if ref_rows.match_word(w) is not None:
            by_d.setdefault(w.count("|"), []).append(w)
    for d in range(N + 1):
        if kind == "dense" and (N - d) % 2:
            continue
        expected = tuple(sorted(by_d.get(d, []), key=transfer._word_sort_key))
        assert link_states(kind, N, d) == expected


# -- single-row fixtures (hand-composed) ------------------------------------

def test_dense_two_defect_scalar_row():
    spec = ModelSpec("dense", 2, 3, 0.37)
    rho = spec.rho
    op = build_transfer(spec, 2, 2)
    assert op.dim == 1
    entry = op.matrix[0][0]
    assert entry == pytest.approx({-1: rho[7] ** 2, 1: rho[8] ** 2})


def test_dense_n2_d0_trace():
    spec = ModelSpec("dense", 2, 3, 0.37)
    rho = spec.rho
    tr = trace_TM(spec, 2, 1, 0)
    # the omega^0 coefficient is exactly zero and left out
    assert tr == pytest.approx({-1: 2 * rho[7] * rho[8], 1: 2 * rho[7] * rho[8]})
    with pytest.raises(TypeError):
        tr[0] = 1.0


def test_dilute_n1_rows():
    spec = ModelSpec("dilute", 2, 3, 0.37)
    rho = spec.rho
    tr0 = trace_TM(spec, 1, 1, 0)
    assert tr0 == pytest.approx({0: rho[0], 1: rho[5], -1: rho[5]})
    tr1 = trace_TM(spec, 1, 1, 1)
    assert tr1 == pytest.approx({0: rho[6], -1: rho[7], 1: rho[8]})


def test_dilute_vacuum_tile_only():
    # at u = 0 only the empty tile closes a single empty site, weight rho_1;
    # away from u = 0 the horizontal-segment tile also closes (as a
    # non-contractible loop), certified against the lattice by the oracle
    spec = ModelSpec("dilute", 3, 4, 0.0)
    rho = spec.rho
    op = build_transfer(spec, 1, 0)
    assert op.matrix[0][0] == pytest.approx({0: rho[0]})
    spec2 = ModelSpec("dilute", 3, 4, 0.42)
    rho2 = spec2.rho
    entry = build_transfer(spec2, 1, 0).matrix[0][0]
    assert entry == pytest.approx({0: rho2[0], 1: rho2[5], -1: rho2[5]})


@pytest.mark.parametrize("kind, Nmax", [("dense", 7), ("dilute", 5)])
@pytest.mark.parametrize("p, pq", [(1, 2), (2, 3), (3, 4)])
def test_u0_transfer_is_one_site_shift(kind, Nmax, p, pq):
    """At u = 0 the row is the lattice shift w -> w[1:] + w[0] (the tile
    labelling fixed in model.py): one entry per column, rho_8^N times
    omega^-1 when the defect at site 0 crosses the seam."""
    spec = ModelSpec(kind, p, pq, 0.0)
    rho8 = spec.rho[7]
    for N, d in _modules(kind, Nmax):
        op = build_transfer(spec, N, d)
        for j, w in enumerate(op.basis):
            column = [i for i in range(op.dim) if op.matrix[i][j] is not None]
            assert column == [op.basis.index(w[1:] + w[0])], (N, d, w)
            k = -1 if w[0] == "|" else 0
            assert op.matrix[column[0]][j] == pytest.approx({k: rho8 ** N}, rel=1e-13)


def test_join_rejects_word_outside_given_basis():
    # the shift row sends "()" to ")(", which the join is not told about
    rows = ref_rows._row_diagrams(2, (8,))[(True, True)]
    arcs_of = {"()": transfer.arc_crossings("()")}
    with pytest.raises(ArithmeticError):
        list(ref_rows._join("()", rows, (1.0,) * len(rows), arcs_of))


def test_sweep_rejects_word_outside_given_basis():
    # the same shift row, swept face by face
    arcs_of = {"()": transfer.arc_crossings("()")}
    with pytest.raises(ArithmeticError, match="inconsistent composite diagram"):
        list(transfer._sweep(("()",), transfer._face_steps(2, ((8, 1.0),)), 1.0, arcs_of))



def _swept(words, faces, beta, arcs_of) -> list:
    """Per word of `words`, its {(omega power, n_alpha, top word): weight}
    summed over one `_sweep` of all of them."""
    out: list = [{} for _ in words]
    for column, c, k, n_alpha, new_word in transfer._sweep(words, faces, beta, arcs_of):
        key = (k, n_alpha, new_word)
        out[column][key] = out[column].get(key, 0) + c
    return out


@pytest.mark.parametrize("kind, Nmax", [("dense", 6), ("dilute", 4)])
def test_shared_sweep_keeps_every_column_apart(kind, Nmax):
    """Sweeping every basis word together gives each word what a sweep of it
    alone gives, exactly at integer weights: states that several words reach
    merge, but their columns stay apart."""
    for spec in (ModelSpec(kind, 2, 3, 0.29),) + integer_weights(kind):
        tiles = tuple((t, spec.rho[t - 1]) for t in KIND_TILES[kind] if spec.rho[t - 1] != 0)
        for N, d in _modules(kind, Nmax):
            basis = link_states(kind, N, d)
            faces = transfer._face_steps(N, tiles)
            arcs_of = {w: transfer.arc_crossings(w) for w in basis}
            for word, together in zip(basis, _swept(basis, faces, spec.beta, arcs_of),
                                      strict=True):
                [alone] = _swept((word,), faces, spec.beta, arcs_of)
                if isinstance(spec, Weights):
                    assert together == alone, (spec, word)
                else:
                    assert together == pytest.approx(alone, rel=1e-13, abs=0.0), word

# -- trace properties --------------------------------------------------------

def test_trace_power_zero_is_dimension():
    spec = ModelSpec("dilute", 2, 3, 0.42)
    for d in range(0, 4):
        tr = trace_TM(spec, 3, 0, d)
        assert tr == {0: float(len(link_states("dilute", 3, d)))}


@pytest.mark.parametrize("N, M", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
def test_dense_parity_rule(N, M):
    """C_{d,j} = 0 whenever j + M is odd, for the dense model."""
    spec = ModelSpec("dense", 3, 4, 0.61)
    for d in range(N % 2, N + 1, 2):
        C = C_coefficients(spec, N, M, d)
        for j, c in C.items():
            if (j + M) % 2:
                assert c == 0.0


def test_trace_support_within_row_count():
    spec = ModelSpec("dilute", 1, 2, 0.50)
    for d in (0, 1, 2):
        for M in (1, 2, 3):
            tr = trace_TM(spec, 2, M, d)
            assert all(abs(k) <= M for k in tr)


def test_laurent_trace_matches_numeric_matrix_path():
    """Evaluate the Laurent trace at omega = 1 against a float matrix power."""
    spec = ModelSpec("dilute", 2, 3, 0.37)
    op = build_transfer(spec, 2, 1)
    mat = op.to_numeric(1.0)
    for M in (1, 2, 3):
        direct = np.trace(np.linalg.matrix_power(mat, M))
        laurent = evaluate(trace_TM(spec, 2, M, 1), 1.0)
        assert abs(direct - laurent) < 1e-10


def test_trace_basis_permutation_bit_identical():
    spec = ModelSpec("dilute", 2, 3, 0.37)
    op = build_transfer(spec, 3, 1)
    perm = (3, 0, 5, 2, 4, 1)
    shuffled = tuple(op.basis[i] for i in perm)
    permuted = op.tensor[:, perm][:, :, perm]
    t_ref = trace_TM(spec, 3, 2, 1)
    from torusloop.transfer import matrix_power_trace
    t_perm = matrix_power_trace(TransferOperator(shuffled, op.kmin, permuted), 2)
    assert t_ref == t_perm  # bit-for-bit


def test_to_numeric_matches_entrywise_evaluation():
    spec = ModelSpec("dilute", 2, 3, 0.37)
    omega = complex(math.cos(0.7), math.sin(0.7))
    for d in (0, 1, 2):
        op = build_transfer(spec, 3, d)
        ref = np.array([[evaluate(e, omega) if e is not None else 0.0 for e in row]
                        for row in op.matrix])
        assert np.allclose(op.to_numeric(omega), ref, rtol=1e-14, atol=1e-15)


def _modules(kind, Nmax):
    for N in range(1, Nmax + 1):
        step = 2 if kind == "dense" else 1
        for d in range(N % 2 if kind == "dense" else 0, N + 1, step):
            yield N, d


@pytest.mark.parametrize("kind, Nmax", [("dense", 6), ("dilute", 4)])
def test_tensor_coefficients_match_fsum_reference(kind, Nmax):
    """C_coefficients (numpy slices) against trace_TM (exact fsum Laurent path):
    agreement to 1e-12 of the largest coefficient, same exact-zero pattern."""
    for spec in (ModelSpec(kind, 2, 3, 0.29), ModelSpec(kind, 3, 4, 0.0).isotropic()):
        for N, d in _modules(kind, Nmax):
            for M in range(0, 5):
                C = C_coefficients(spec, N, M, d)
                tr = trace_TM(spec, N, M, d)
                ref = {j: tr.get(-j, 0.0) for j in range(-M, M + 1)}
                assert set(C) == set(ref)
                scale = max(abs(c) for c in ref.values())
                for j, c in ref.items():
                    assert abs(C[j] - c) <= 1e-12 * scale, (N, M, d, j)
                    assert (C[j] == 0.0) == (c == 0.0), (N, M, d, j)


def test_markov_polynomials_reads_each_module_once(monkeypatch):
    """A cold Markov sum at a dilute torus reads each module's C_{d,j} once,
    though each d feeds the two sectors of h = d mod 2."""
    reads = []

    def spy(spec, N, M, d):
        reads.append((spec, N, M, d))
        return C_coefficients(spec, N, M, d)

    monkeypatch.setattr(transfer, "C_coefficients", spy)
    spec = ModelSpec("dilute", 2, 3, 0.37)
    polys = transfer._markov_polynomials.__wrapped__(spec, 3, 3)
    assert set(polys) == set(torus_sectors("dilute", 3, 3))
    assert reads == [(spec, 3, 3, d) for d in defect_numbers("dilute", 3)]


def test_C_coefficients_cached_and_read_only():
    spec = ModelSpec("dilute", 2, 3, 0.41)
    C = C_coefficients(spec, 3, 2, 1)
    assert C_coefficients(spec, 3, 2, 1) is C
    with pytest.raises(TypeError):
        C[0] = 1.0


def test_C_coefficients_rejects_support_beyond_M(monkeypatch):
    spec = ModelSpec("dilute", 1, 7, 0.123)
    op = TransferOperator((".",), 2, np.ones((1, 1, 1)))
    monkeypatch.setattr(transfer, "build_transfer", lambda *args: op)
    with pytest.raises(ArithmeticError):
        C_coefficients(spec, 1, 1, 0)


def test_commuting_family():
    for kind, N, d in (("dense", 4, 0), ("dense", 4, 2), ("dilute", 3, 0),
                       ("dilute", 3, 1)):
        a = ModelSpec(kind, 2, 3, 0.31)
        b = ModelSpec(kind, 2, 3, 0.73)
        scale = np.abs(build_transfer(a, N, d).tensor).max()
        assert commutator_residual(a, b, N, d) < 1e-9 * max(1.0, scale)


def _reference_commutator(spec_a, spec_b, N, d):
    """[T_a, T_b] from the fsum reference product: {(k, i, j): coefficient},
    and the largest coefficient of either product."""
    A, Bo = build_transfer(spec_a, N, d), build_transfer(spec_b, N, d)
    AB = transfer._matmul(A.matrix, Bo.matrix, A.dim)
    BA = transfer._matmul(Bo.matrix, A.matrix, A.dim)
    out, scale = {}, 0.0
    for i in range(A.dim):
        for j in range(A.dim):
            for sign, entry in ((1.0, AB[i][j]), (-1.0, BA[i][j])):
                for k, c in (entry or {}).items():
                    out[k, i, j] = out.get((k, i, j), 0.0) + sign * c
                    scale = max(scale, abs(c))
    return out, scale


def _commutator_pairs(kind):
    commuting = (ModelSpec(kind, 2, 3, 0.31), ModelSpec(kind, 2, 3, 0.73))
    other = (ModelSpec(kind, 2, 3, 0.31), ModelSpec(kind, 3, 4, 0.73))
    return commuting, other


@pytest.mark.parametrize("kind, Nmax", [("dense", 4), ("dilute", 3)])
def test_commutator_matches_fsum_reference(kind, Nmax):
    """The slice-product commutator equals the one built from the fsum
    product within 1e-12 of the largest product coefficient, entry by entry
    and in commutator_residual, for commuting and non-commuting pairs."""
    for a, b in _commutator_pairs(kind):
        for N, d in _modules(kind, Nmax):
            ref, scale = _reference_commutator(a, b, N, d)
            Ta, Tb = build_transfer(a, N, d), build_transfer(b, N, d)
            got = transfer._slice_product(Ta.tensor, Tb.tensor) \
                - transfer._slice_product(Tb.tensor, Ta.tensor)
            kmin = Ta.kmin + Tb.kmin
            for (k, i, j), c in ref.items():
                assert abs(got[k - kmin, i, j] - c) <= 1e-12 * scale, (a, b, N, d, k, i, j)
            keys = {(kmin + n, i, j) for n, i, j in zip(*np.nonzero(got))}
            assert keys <= set(ref), (a, b, N, d)
            worst = max(map(abs, ref.values()), default=0.0)
            assert abs(commutator_residual(a, b, N, d) - worst) <= 1e-12 * scale, (N, d)


@pytest.mark.parametrize("kind, N, d", [("dense", 4, 0), ("dilute", 3, 0)])
def test_commutator_detects_different_models(kind, N, d):
    """Negative control: (2, 3) and (3, 4) have different crossing
    parameters, so their transfer matrices do not commute."""
    _, (a, b) = _commutator_pairs(kind)
    _, scale = _reference_commutator(a, b, N, d)
    assert commutator_residual(a, b, N, d) > 1e-3 * scale


def test_size_guard():
    spec = ModelSpec("dilute", 2, 3, 0.37)
    with pytest.raises(TransferSizeError):
        build_transfer(spec, 9, 1)
    with pytest.raises(TransferSizeError):
        build_transfer(ModelSpec("dense", 2, 3, 0.37), 13, 1)
    # the site guard comes before the module's own checks of d
    with pytest.raises(TransferSizeError):
        build_transfer(ModelSpec("dense", 2, 3, 0.37), 13, 0)


# -- the orbit build against a full join -------------------------------------

def _full_join_transfer(spec, N, d):
    """Reference build: join every basis word, one Laurent weight per transition."""
    basis = link_states(spec.kind, N, d)
    index = {w: i for i, w in enumerate(basis)}
    arcs_of = {w: transfer.arc_crossings(w) for w in basis}
    rho = spec.rho
    tiles = tuple(t for t in KIND_TILES[spec.kind] if rho[t - 1] != 0.0)
    diagrams = ref_rows._row_diagrams(N, tiles)
    entries = {}  # (k, i, j) -> omega^k coefficient of entry (i, j)
    for j, word in enumerate(basis):
        rows = diagrams.get(tuple(ch != "." for ch in word), ())
        weights = tuple(math.prod(rho[t - 1] for t in tiles) for tiles, *_ in rows)
        for row_weight, k, n_alpha, n_beta, new_word in ref_rows._join(word, rows, weights,
                                                                       arcs_of):
            weight = {k: row_weight * spec.beta ** n_beta}
            for _ in range(n_alpha):  # times omega + 1/omega
                weight = {p: weight.get(p - 1, 0.0) + weight.get(p + 1, 0.0)
                          for p in range(min(weight) - 1, max(weight) + 2)}
            i = index[new_word]
            for p, c in weight.items():
                entries[p, i, j] = entries.get((p, i, j), 0.0) + c
    entries = {key: c for key, c in entries.items() if c != 0.0}
    kmin = min((k for k, _, _ in entries), default=0)
    kmax = max((k for k, _, _ in entries), default=0)
    tensor = np.zeros((kmax - kmin + 1, len(basis), len(basis)))
    for (k, i, j), c in entries.items():
        tensor[k - kmin, i, j] = c
    return TransferOperator(basis, kmin, tensor)


def _check_orbit_build(spec, kind, Nmax):
    for N, d in _modules(kind, Nmax):
        op = build_transfer(spec, N, d)
        ref = _full_join_transfer(spec, N, d)
        assert (op.basis, op.kmin, op.tensor.shape) == \
            (ref.basis, ref.kmin, ref.tensor.shape), (N, d)
        assert np.array_equal(op.tensor != 0.0, ref.tensor != 0.0), (N, d)
        if isinstance(spec, Weights):
            assert op.tensor.dtype == object, (N, d)
            assert {type(c) for c in op.tensor.flat} == {int}, (N, d)
            assert np.array_equal(op.tensor, ref.tensor), (N, d)
        else:
            assert np.allclose(op.tensor, ref.tensor, rtol=1e-13, atol=0.0), (N, d)


ORBIT_NMAX = [("dense", 8), ("dilute", 6)]


@pytest.mark.parametrize("kind, Nmax", ORBIT_NMAX)
@pytest.mark.parametrize("p, pq", [(2, 3), (3, 4)])
def test_orbit_build_matches_full_join(kind, Nmax, p, pq):
    """The face-by-face orbit build against joining every row to every column:
    same basis, kmin, shape and zero pattern, and every coefficient within
    1e-13 relative (only the summation order moves).  At u = 0 some tiles
    weigh zero."""
    for spec in (ModelSpec(kind, p, pq, 0.29), ModelSpec(kind, p, pq, 0.0),
                 ModelSpec(kind, p, pq, 0.0).isotropic()):
        _check_orbit_build(spec, kind, Nmax)


@pytest.mark.parametrize("kind, Nmax", ORBIT_NMAX)
def test_orbit_build_matches_full_join_at_integer_weights(kind, Nmax):
    """The same at criterion 1's integer draws, which do not depend on (p, p'):
    the tensor holds Python ints equal to the reference's."""
    for weights in integer_weights(kind):
        _check_orbit_build(weights, kind, Nmax)


def test_orbit_period_check_raises(monkeypatch):
    """The word "()()" has period 2 on four sites, but rot^2 moves the fake
    column's only entry "(())" to "))((", so the orbit fill must refuse it."""
    def fake_sweep(words, faces, beta, arcs_of):
        for column in range(len(words)):
            yield column, 1.0, 0, 0, "(())"
    monkeypatch.setattr(transfer, "_sweep", fake_sweep)
    with pytest.raises(ArithmeticError, match="rotation period"):
        build_transfer.__wrapped__(ModelSpec("dense", 2, 3, 0.37), 4, 0)


@pytest.mark.parametrize("kind, Nmax", [("dense", 6), ("dilute", 4)])
def test_matrix_view_round_trips(kind, Nmax):
    """The derived Laurent view rebuilds the tensor bit for bit, spans its
    powers, and is None exactly where every coefficient is zero."""
    for spec in (ModelSpec(kind, 2, 3, 0.29), ModelSpec(kind, 3, 4, 0.0).isotropic()):
        for N, d in _modules(kind, Nmax):
            op = build_transfer(spec, N, d)
            powers = [k for row in op.matrix for e in row if e is not None for k in e]
            assert min(powers, default=0) == op.kmin
            assert max(powers, default=0) == op.kmin + len(op.tensor) - 1
            again = np.zeros(op.tensor.shape)
            for i, row in enumerate(op.matrix):
                for j, e in enumerate(row):
                    for k, c in (e or {}).items():
                        again[k - op.kmin, i, j] = c
            assert again.tobytes() == op.tensor.tobytes()
            zero = ~op.tensor.any(axis=0)
            assert [[e is None for e in row] for row in op.matrix] == zero.tolist()


# -- the defining oracle: Markov trace vs lattice enumeration ---------------

def test_markov_alpha2_reduces_to_plain_traces():
    """At alpha = 2 the sector sum is the omega = +/-1 trace combination."""
    spec = ModelSpec("dilute", 2, 3, 0.44)
    M, N = 2, 3
    for h in (0, 1):
        for v in (0, 1):
            direct = markov_Z(spec, M, N, h, v, alpha=2.0)
            combo = 0.0
            for d in range(h, N + 1, 2):
                mult = 1.0 if d == 0 else 2.0
                t1 = evaluate(trace_TM(spec, N, M, d), 1.0)
                t2 = evaluate(trace_TM(spec, N, M, d), -1.0)
                combo += mult * 0.5 * (t1 + (-1) ** v * t2)
            assert math.isclose(direct, combo, rel_tol=1e-10, abs_tol=1e-12)


def test_chebyshev_gcd_convention_in_markov():
    # T_{gcd(4,6)} = T_2(x) = 2x^2 - 1 enters the d=4, j=6 weight
    assert gcd_conv(4, 6) == 2
    x = 0.3
    assert math.isclose(chebyshev_T(2, x), 2 * x * x - 1)


def per_call_markov_Z(spec, M, N, h, v, alpha):
    """markov_Z as one float Markov sum per call, each T_gcd(d,|j|)(alpha/2)
    evaluated at alpha: the reference the Markov polynomials are held to."""
    total = 0.0
    for d in range(h, N + 1, 2):
        C = C_coefficients(spec, N, M, d)
        s = 0.0
        for j in range(-M, M + 1):
            if (j - v) % 2 == 0 and C[j]:
                s += chebyshev_T(gcd_conv(d, abs(j)), alpha / 2.0) * C[j]
        total += (1.0 if d == 0 else 2.0) * s
    return total


@pytest.mark.parametrize("kind, sizes", [
    ("dense", [(2, 2), (3, 4), (4, 5), (4, 8), (16, 10)]),
    ("dilute", [(1, 2), (2, 3), (4, 4), (4, 5), (6, 5)]),
], ids=["dense", "dilute"])
def test_markov_polynomials_match_the_per_call_sum(kind, sizes):
    """The polynomial in alpha, evaluated, against the per-call Markov sum at
    the physical weights: within 1e-13 of the larger value."""
    for spec in (ModelSpec(kind, 2, 3, 0.37), ModelSpec(kind, 3, 4, 0.0).isotropic()):
        for M, N in sizes:
            for h, v in torus_sectors(kind, M, N):
                for alpha in (2.0, 1.0, 0.6, -0.3):
                    assert scaled_error(markov_Z(spec, M, N, h, v, alpha=alpha),
                                        per_call_markov_Z(spec, M, N, h, v, alpha)) < 1e-13


@pytest.mark.parametrize("kind", ["dense", "dilute"])
def test_integer_weights_give_exact_traces(kind):
    """At integer weights the tensor holds Python ints, the C_{d,j} are ints
    equal to the fsum reference, and each Markov coefficient is an int; the
    float twin of the weights keeps a float tensor with the same values."""
    weights = integer_weights(kind)[0]
    twin = Weights(kind, tuple(map(float, weights.rho)), float(weights.beta))
    for N, d in _modules(kind, 4):
        op, op_float = build_transfer(weights, N, d), build_transfer(twin, N, d)
        assert op.tensor.dtype == object and op_float.tensor.dtype == float
        assert {type(c) for c in op.tensor.flat} == {int}
        assert np.array_equal(op.tensor.astype(float), op_float.tensor)
        assert np.array_equal(op.to_numeric(0.3 + 0.4j), op_float.to_numeric(0.3 + 0.4j))
        for M in range(4):
            C = C_coefficients(weights, N, M, d)
            assert {type(c) for c in C.values()} == {int}
            tr = trace_TM(weights, N, M, d)
            assert C == {j: tr.get(-j, 0) for j in range(-M, M + 1)}
    polys = transfer._markov_polynomials(weights, 3, 4)
    assert {type(c) for poly in polys.values() for c in poly.values()} == {int}
    assert polys == _sector_polynomials(weights, 3, 4)


@pytest.mark.parametrize("kind", ["dense", "dilute"])
def test_int_weights_and_their_float_twin_build_apart(kind):
    """An int weighting and its float twin are equal numbers but each builds
    its tensor and its Markov coefficients in its own type, whichever came
    first; so does the dense u = 0 spec against the int weighting with its
    (rho_8, rho_9) = (1, 0)."""
    draw = integer_weights(kind)[0]
    twin = Weights(kind, tuple(map(float, draw.rho)), float(draw.beta))
    pairs = [(twin, float), (draw, int), (twin, float)]
    if kind == "dense":
        spec = ModelSpec(kind, 2, 3, 0.0)
        assert spec.rho[7:] == (1.0, 0.0)
        pairs += [(spec, float), (Weights(kind, (0,) * 7 + (1, 0), spec.beta), float),
                  (Weights(kind, (0,) * 7 + (1, 0), 1), int)]
    for weights, kind_of in pairs:
        for N, d in _modules(kind, 4):
            op = build_transfer.__wrapped__(weights, N, d)
            assert op.tensor.dtype == (object if kind_of is int else float), (weights, N, d)
            assert {type(c) for c in op.tensor.ravel().tolist()} == {kind_of}, (weights, N, d)
        polys = transfer._markov_polynomials(weights, 2, 3)
        assert {type(c) for poly in polys.values() for c in poly.values()} == {kind_of}


def test_twice_chebyshev_matches_chebyshev_T_on_polynomials():
    """The base-B digits of 2 T_g(B/2) against chebyshev_T run on exact
    polynomials in alpha (numpy poly1d of Fractions)."""
    half_alpha = np.poly1d(np.array([Fraction(1, 2), 0], dtype=object))
    for g in range(80):
        reference = chebyshev_T(g, half_alpha).c[::-1]
        assert transfer._twice_chebyshev(g) == tuple(int(2 * t) for t in reference), g


def test_markov_polynomials_refuse_a_coefficient_that_is_not_whole(monkeypatch):
    """C_{0,1} without its mirror C_{0,-1} leaves half of T_1(alpha/2) = alpha/2."""
    weights = Weights("dilute", (1, 2, 2, 3, 3, 1, 1, 2, 1), 2)
    lopsided = {-1: 0, 0: 0, 1: 1}
    monkeypatch.setattr(transfer, "C_coefficients", lambda *args: lopsided)
    with pytest.raises(ArithmeticError, match="not whole"):
        transfer._markov_polynomials(weights, 1, 1)


@pytest.mark.parametrize("polynomials", [_sector_polynomials, transfer._markov_polynomials],
                         ids=["lattice", "markov"])
def test_polynomial_caches_are_read_only(polynomials):
    """A cached polynomial cannot be edited, so no caller can change what
    later calls of lattice_Z and markov_Z read."""
    weights = integer_weights("dilute")[0]
    polys = polynomials(weights, 2, 3)
    with pytest.raises(TypeError):
        polys[0, 0] = {}
    with pytest.raises(TypeError):
        polys[0, 0][0] += 1000
    assert lattice_Z(weights, 2, 3, sector=(0, 0), alpha=1.0) == 9436.0
    assert markov_Z(weights, 2, 3, 0, 0, alpha=1.0) == 9436.0


@pytest.mark.parametrize("kind", ["dense", "dilute"])
@pytest.mark.parametrize("M, N", [(2, 0), (0, 2), (2, -2)])
def test_both_routes_refuse_a_torus_that_is_not_one(kind, M, N):
    """A dimension below 1 raises one ValueError on both routes; the transfer
    build refuses N < 1 itself."""
    spec = ModelSpec(kind, 2, 3, 0.37)
    with pytest.raises(ValueError, match="lattice dimensions must be positive"):
        lattice_Z(spec, M, N, sector=(0, 0), alpha=1.0)
    with pytest.raises(ValueError, match="lattice dimensions must be positive"):
        markov_Z(spec, M, N, 0, 0, alpha=1.0)
    if N < 1:
        with pytest.raises(ValueError, match="lattice dimensions must be positive"):
            build_transfer(spec, N, 0)


def test_dense_markov_rejects_wrong_sector():
    spec = ModelSpec("dense", 2, 3, 0.37)
    with pytest.raises(ValueError):
        markov_Z(spec, 2, 2, 1, 0, alpha=1.0)


# -- informational scaling check --------------------------------------------

def test_leading_eigenvalue_positive():
    spec = ModelSpec("dense", 2, 3, 0.0)
    lam = leading_eigenvalue(spec.isotropic(), 6)
    assert lam > 0


def test_effective_central_charge_runs():
    spec = ModelSpec("dense", 2, 3, 0.0)
    c = effective_central_charge(spec)
    assert math.isfinite(c)


@pytest.mark.parametrize("kind, M, N", [
    ("dilute", 2, 4), ("dilute", 1, 5), ("dense", 2, 6), ("dense", 2, 5),
])
def test_markov_equals_lattice_wider_modules(kind, M, N):
    """Oracle coverage for wider rows, where link states with several
    seam-crossing arcs and odd-width dense modules appear."""
    for (p, pq) in [(2, 3), (3, 4)]:
        spec = ModelSpec(kind, p, pq, 0.37)
        sectors = [(N % 2, M % 2)] if kind == "dense" else \
            [(0, 0), (0, 1), (1, 0), (1, 1)]
        for hv in sectors:
            for alpha in (2.0, 0.6):
                lz = lattice_Z(spec, M, N, sector=hv, alpha=alpha)
                mz = markov_Z(spec, M, N, hv[0], hv[1], alpha=alpha)
                assert scaled_error(mz, lz) < ORACLE_TOL


@pytest.mark.parametrize("kind, sizes", [
    ("dense", [(2, 3), (3, 4), (5, 7), (4, 8), (6, 10)]),
    ("dilute", [(1, 4), (2, 3), (3, 4), (2, 6), (5, 6)]),
], ids=["dense", "dilute"])
def test_markov_diagonal_reflection_duality(kind, sizes):
    """Z^(h,v) of the M x N torus equals Z^(v,h) of the N x M torus at every
    u (tiles 4 <-> 5 and 6 <-> 7 carry equal weights).  Rows of N and rows
    of M are different modules raised to different powers, so this checks
    the build at N = 10, beyond the lattice oracle's reach."""
    for p, pq in [(2, 3), (3, 4)]:
        for spec in (ModelSpec(kind, p, pq, 0.3), ModelSpec(kind, p, pq, 0.0).isotropic()):
            for M, N in sizes:
                sectors = [(N % 2, M % 2)] if kind == "dense" else \
                    [(0, 0), (0, 1), (1, 0), (1, 1)]
                for h, v in sectors:
                    for alpha in (2.0, 0.6):
                        a = markov_Z(spec, M, N, h, v, alpha=alpha)
                        b = markov_Z(spec, N, M, v, h, alpha=alpha)
                        assert scaled_error(a, b) < ORACLE_TOL, (p, pq, spec.u, M, N, h, v)
