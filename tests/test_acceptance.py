"""Acceptance gate: one test per criterion, each at its stated tolerance.

Runs the same checks as `torusloop accept`; every test prints the criterion
pass/fail line so `pytest -s tests/test_acceptance.py` doubles as the
acceptance report.
"""

from fractions import Fraction as F

import pytest

from torusloop import acceptance, conformal, transfer
from torusloop.cli import main
from torusloop.conformal import Z_hv_direct, modular_rep_check
from torusloop.lattice import _sector_polynomials, lattice_Z
from torusloop.model import ModelSpec, Weights, torus_sectors
from torusloop.transfer import _markov_polynomials, markov_Z


def _report(name, fn):
    ok, detail = fn()
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok, detail


def test_criterion_1_oracle_equivalence():
    ok, detail = _report("1 oracle markov=lattice", acceptance.criterion_1_oracle)
    assert ok, detail


@pytest.mark.parametrize("kind", ["dense", "dilute"])
def test_integer_draws_tell_every_tile_apart(kind):
    """The exact leg's draws give the nine tiles nine distinct weight
    vectors, so a swap of any two tiles changes some draw."""
    draws = acceptance.integer_weights(kind)
    assert len(draws) == 3 and all(w.kind == kind for w in draws)
    assert {w.beta for w in draws} <= {2, 3}
    assert {r for w in draws for r in w.rho} <= {1, 2, 3}
    assert len(set(zip(*(w.rho for w in draws)))) == 9


def _swap_6_7(rho):
    return rho[:5] + (rho[6], rho[5]) + rho[7:]


def test_exact_leg_sees_a_tile_swap_the_physical_weights_hide():
    """Tiles 6 and 7 swapped in route 2 only: at an integer draw markov_Z
    differs exactly from lattice_Z, while at the physical dilute weights
    rho_6 = rho_7 and the swapped value passes the physical leg."""
    M, N, hv, alpha = 2, 3, (0, 0), 0
    weights = next(w for w in acceptance.integer_weights("dilute") if w.rho[5] != w.rho[6])
    swapped = Weights("dilute", _swap_6_7(weights.rho), weights.beta)
    lz = lattice_Z(weights, M, N, sector=hv, alpha=alpha)
    assert markov_Z(weights, M, N, *hv, alpha=alpha) == lz
    assert markov_Z(swapped, M, N, *hv, alpha=alpha) != lz

    spec = ModelSpec("dilute", 2, 3, 0.37)
    hidden = Weights("dilute", _swap_6_7(spec.rho), spec.beta)
    assert hidden.rho == spec.rho
    for alpha in (1.0, 2.0, 0.6):
        error = acceptance.scaled_error(markov_Z(hidden, M, N, *hv, alpha=alpha),
                                        lattice_Z(spec, M, N, sector=hv, alpha=alpha))
        assert error < acceptance.ORACLE_TOL


@pytest.fixture
def t3_read_as_t1(monkeypatch):
    """Route 2 with T_3 read as T_1, its polynomial cache emptied before and after."""
    table = transfer._twice_chebyshev
    monkeypatch.setattr(transfer, "_twice_chebyshev", lambda g: table(1 if g == 3 else g))
    _markov_polynomials.cache_clear()
    yield
    monkeypatch.undo()
    _markov_polynomials.cache_clear()


def test_exact_leg_sees_what_three_alphas_miss(t3_read_as_t1):
    """T_3(x) - T_1(x) = 4 x (x^2 - 1) vanishes at x = alpha/2 for alpha in
    {2, 0, -2}, so with T_3 read as T_1 in route 2 every point of an exact
    leg at those three alpha still agrees.  The sector polynomials differ,
    and criterion 1 fails on them."""
    unequal = 0
    for kind, sizes in (("dense", acceptance.DENSE_SIZES), ("dilute", acceptance.DILUTE_SIZES)):
        for weights in acceptance.integer_weights(kind):
            for M, N in sizes:
                for hv in torus_sectors(kind, M, N):
                    for alpha in (2, 0, -2):
                        assert (markov_Z(weights, M, N, *hv, alpha=alpha)
                                == lattice_Z(weights, M, N, sector=hv, alpha=alpha))
                    unequal += (_markov_polynomials(weights, M, N).get(hv)
                                != _sector_polynomials(weights, M, N).get(hv))
    assert unequal > 0
    ok, detail = acceptance.criterion_1_oracle()
    assert not ok and detail.startswith("unequal alpha-polynomials"), detail


def test_criterion_2_exact_triple_identity():
    ok, detail = _report("2 triple series identity",
                         acceptance.criterion_2_triple_identity)
    assert ok, detail


def _off_by_a_sixth_at_6(real):
    """`gamma_dm_cospoly` with 1/6 added to its cos(gamma) coefficient at d = 6."""
    def faulty(d, m):
        poly = dict(real(d, m))
        if d == 6:
            poly[1] = poly.get(1, 0) + F(1, 6)
        return poly
    return faulty


def test_direct_series_refuses_a_weight_that_is_not_whole(monkeypatch):
    """At e0 = 0 every Gamma_{d,k} sums to 0 or 1; one off by 1/6 raises in
    criterion 2's reference series instead of being truncated to an int."""
    monkeypatch.setattr(conformal, "gamma_dm_cospoly",
                        _off_by_a_sixth_at_6(conformal.gamma_dm_cospoly))
    with pytest.raises(ArithmeticError, match="not whole"):
        Z_hv_direct(2, 3, 0, 0, F(4))


def test_criterion_3_appendix_golden_forms():
    ok, detail = _report("3 worked-example forms", acceptance.criterion_3_appendix_forms)
    assert ok, detail


def test_criterion_4_gamma_lambda_and_lemmas():
    ok, detail = _report("4 gamma = Lambda/2", acceptance.criterion_4_gamma_lambda)
    assert ok, detail


def test_criterion_4_fails_the_series_gamma_off_by_a_sixth(monkeypatch):
    """The Gamma form the series read, wrong at d = 6, fails the exact gate."""
    monkeypatch.setattr(acceptance, "gamma_dm_cospoly",
                        _off_by_a_sixth_at_6(acceptance.gamma_dm_cospoly))
    ok, detail = acceptance.criterion_4_gamma_lambda()
    assert not ok and "(d, m) = (6, 1)" in detail, detail


def test_criterion_4_fails_a_sign_flip_in_the_prime_form(monkeypatch):
    """Lambda(6, 1)/2 with the sign of its one cos(6 gamma)/6 term flipped
    (gamma_i = alpha_i, no deletion) fails the gate at the one m it reads."""
    real = acceptance.lambda_prime_form

    def flipped(M, N):
        poly = real(M, N)
        if (M, N) == (6, 1):
            assert poly[6] == F(1, 6)
            poly[6] = -poly[6]
        return poly

    monkeypatch.setattr(acceptance, "lambda_prime_form", flipped)
    ok, detail = acceptance.criterion_4_gamma_lambda()
    assert not ok and "(d, m) = (6, 6)" in detail, detail


def test_criterion_5_full_pf_vs_on():
    ok, detail = _report("5 full PF = O(n)", acceptance.criterion_5_full_pf)
    assert ok, detail


def test_criterion_6_modular_covariance():
    ok, detail = _report("6 modular covariance", acceptance.criterion_6_modular)
    assert ok, detail


def test_t_sign_check_reads_a_wrong_weight_as_false(monkeypatch):
    """With the level weight j^2/2N in place of j^2/4N the T phases of j and
    4n - j differ by (-1)^{2j} = 1, not (-1)^j: the report says False and
    criterion 6 fails, where a check that raised would abort the suite."""
    def wrong(n, j):
        return min(F(j) ** 2, (2 * n - F(j)) ** 2) / (2 * n)

    monkeypatch.setattr(conformal, "level_weight", wrong)
    rep = modular_rep_check(acceptance.MODULAR_TAUS, acceptance.MODULAR_RATIOS)
    assert rep["T_sign_checks"] is False
    ok, detail = acceptance.criterion_6_modular()
    assert ok is False and "sector residual" in detail


def test_modular_command_reports_what_criterion_6_gates(capsys):
    """`torusloop modular` prints the report of criterion 6's taus and ratios."""
    assert main(["modular"]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    rep = modular_rep_check(acceptance.MODULAR_TAUS, acceptance.MODULAR_RATIOS)
    assert printed == {key: repr(value) for key, value in rep.items()}
    assert f"sector residual {rep['sector_covariance_residual']:.3e}" \
        in acceptance.criterion_6_modular()[1]


def test_modular_command_and_criterion_6_fail_a_fault_at_one_ratio(monkeypatch, capsys):
    """A sector sum off by 1e-6 at g = 3/4, at the shifted taus only, fails
    both the command and the criterion: neither samples fewer ratios."""
    electric = conformal._electric

    def faulty(g, alpha, h, v, tau):
        value = electric(g, alpha, h, v, tau)
        return value * (1 + 1e-6) if g == F(3, 4) and tau.tau.real > 0.55 else value

    monkeypatch.setattr(conformal, "_electric", faulty)
    assert main(["modular"]) == 1
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(printed["sector_covariance_residual"]) > acceptance.MODULAR_TOL
    assert acceptance.criterion_6_modular()[0] is False


def test_criterion_7_bezout_tables():
    ok, detail = _report("7 Bezout reference tables", acceptance.criterion_7_bezout)
    assert ok, detail


def test_criterion_8_character_suite():
    ok, detail = _report("8 character identities", acceptance.criterion_8_characters)
    assert ok, detail


def test_criterion_9_scaling_informational():
    """Non-gating by construction: the measurement is reported, not asserted.

    The measured c_eff tracks the scaling-conjecture value 1 (see the
    detail line); the criterion's quoted target 0 does not match the honest
    measurement and is deliberately not enforced.
    """
    ok, detail = _report("9 scaling limit (informational)",
                         acceptance.criterion_9_scaling)
    assert ok  # the function itself never gates on the extrapolated value
    assert "measured c_eff" in detail


def test_modular_ok_gates_every_field():
    passing = {"S2_is_identity": True, "T2_is_identity": True,
               "ST3_is_identity": True, "T_sign_checks": True,
               "sector_covariance_residual": 1e-15,
               "Zmm_covariance_residual": 1e-15, "character_S_residual": 1e-15}
    assert acceptance.modular_ok(passing)
    assert not acceptance.modular_ok(dict(passing, Zmm_covariance_residual=1e-3))


def test_scaled_error():
    assert acceptance.scaled_error(0.0, 0.0) == 0.0
    assert acceptance.scaled_error(1e-10, 2e-10) == 0.5
    assert acceptance.scaled_error(-3.0, 3.0) == 2.0


CRITERIA = sorted(name for name in vars(acceptance) if name.startswith("criterion_"))


def _stub_criteria(monkeypatch, raising=None):
    """Every criterion returns (True, "stub <name>"); the one named `raising`
    raises ValueError instead."""
    def stub(name):
        def criterion():
            if name == raising:
                raise ValueError(f"{name} broke")
            return True, f"stub {name}"
        return criterion
    for name in CRITERIA:
        monkeypatch.setattr(acceptance, name, stub(name))


def test_run_suite_prints_one_line_per_criterion(monkeypatch, capsys):
    _stub_criteria(monkeypatch)
    assert len(CRITERIA) == 9
    assert acceptance.run_suite() is True
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    for line, name in zip(lines, CRITERIA, strict=True):
        assert line.startswith("[PASS] ") and f"stub {name} (" in line
    assert main(["accept"]) == 0


def test_run_suite_fails_a_criterion_that_raises_and_runs_the_rest(monkeypatch, capsys):
    _stub_criteria(monkeypatch, raising="criterion_4_gamma_lambda")
    assert acceptance.run_suite() is False
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 9
    assert lines[3].startswith("[FAIL] 4 ")
    assert "raised ValueError: criterion_4_gamma_lambda broke" in lines[3]
    assert all(line.startswith("[PASS] ") for line in lines[:3] + lines[4:])
    assert "Traceback" in captured.err
    # a failed check, exit code 1, not the argument-error code 2
    assert main(["accept"]) == 1
