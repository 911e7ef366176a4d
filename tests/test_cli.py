"""CLI smoke tests: argument handling, formats, determinism."""

import json

import pytest

from torusloop.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bezout_table_text(capsys):
    code, out = run_cli(capsys, "bezout", "--p", "3", "--pq", "4",
                        "--h", "0", "--v", "0", "--table")
    assert code == 0
    assert "1,7" in out and "21,3" in out


def test_bezout_json(capsys):
    code, out = run_cli(capsys, "bezout", "--p", "4", "--pq", "5", "--h", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["conjugator"] == 29
    assert obj["P"] == 40


def test_series_json_exact_strings(capsys):
    code, out = run_cli(capsys, "series", "--p", "1", "--pq", "2",
                        "--h", "0", "--v", "0", "--form", "u1", "--cutoff", "3")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"coeff": "1/1", "qbarexp": "-1/24", "qexp": "-1/24"}
    assert all("/" in row["coeff"] for row in rows)


def test_series_forms_agree(capsys):
    outs = []
    for form in ("direct", "u1", "bezout"):
        code, out = run_cli(capsys, "series", "--p", "2", "--pq", "3",
                            "--h", "1", "--v", "1", "--form", form,
                            "--cutoff", "4")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_series_cutoff_below_eta_pole_exits_2(capsys):
    for form in ("direct", "u1", "bezout"):
        code = main(["series", "--p", "3", "--pq", "4", "--h", "1", "--v", "1",
                     "--form", form, "--cutoff=-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cutoff must be >= -1/24" in captured.err


def test_enumerate_csv(capsys):
    code, out = run_cli(capsys, "enumerate", "--kind", "dense", "--p", "2",
                        "--pq", "3", "--M", "2", "--N", "2", "--with-z")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("count,n_beta")
    assert sum(int(line.split(",")[0]) for line in lines[1:-1]) == 16
    assert lines[-1].startswith("# Z = ")


def test_enumerate_deterministic(capsys):
    _, out1 = run_cli(capsys, "enumerate", "--kind", "dilute", "--p", "1",
                      "--pq", "2", "--M", "2", "--N", "2")
    _, out2 = run_cli(capsys, "enumerate", "--kind", "dilute", "--p", "1",
                      "--pq", "2", "--M", "2", "--N", "2")
    assert out1 == out2


def test_transfer_json(capsys):
    code, out = run_cli(capsys, "transfer", "--kind", "dilute", "--p", "2",
                        "--pq", "3", "--M", "2", "--N", "2", "--alpha", "0.6")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"C", "Z"}
    assert set(obj["Z"]) == {"(0,0)", "(0,1)", "(1,0)", "(1,1)"}


@pytest.mark.parametrize("M, N", [(2, 0), (0, 2), (2, -2)])
def test_transfer_refuses_a_torus_that_is_not_one(capsys, M, N):
    assert main(["transfer", "--kind", "dense", "--p", "2", "--pq", "3",
                 "--M", str(M), "--N", str(N)]) == 2
    assert "lattice dimensions must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("d", [-1, 5, 6])
def test_transfer_refuses_a_defect_number_outside_the_row(capsys, d):
    """Any --d outside 0..N is refused, whatever parity the kind allows."""
    assert main(["transfer", "--kind", "dense", "--p", "2", "--pq", "3",
                 "--M", "2", "--N", "4", "--d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 0 <= d <= N" in captured.err


def test_identity_subcommand(capsys):
    """`identity` prints acceptance criterion 4's verdict and detail."""
    from torusloop.acceptance import criterion_4_gamma_lambda

    code, out = run_cli(capsys, "identity")
    assert code == 0
    _, detail = criterion_4_gamma_lambda()
    assert out == f"[PASS] gamma = Lambda/2 and number theory: {detail}\n"
    assert "S1=S2 d<=12" in out and "master a<=10,l<=50" in out


def test_appendixc_text(capsys):
    code, out = run_cli(capsys, "appendixc", "--p", "1", "--pq", "2",
                        "--h", "1", "--v", "0")
    assert code == 0
    assert "k[2,1/2](q) k[2,1/2](q~)" in out


def test_modular_report_lines(capsys):
    for argv in (["modular"], ["modular", "--tau", "0.1", "0.9"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        report = dict(line.split(" = ") for line in out.splitlines())
        assert set(report) == {"S2_is_identity", "T2_is_identity", "ST3_is_identity",
                               "T_sign_checks", "Zmm_covariance_residual",
                               "sector_covariance_residual", "character_S_residual"}
        for text in report.values():
            # a plain bool or float repr; float() rejects "np.float64(...)"
            assert text in ("True", "False") or float(text) >= 0.0
        assert "np." not in out


def test_modular_refuses_non_finite_tau(capsys):
    assert main(["modular", "--tau", "0", "nan"]) == 2
    assert "tau must be finite, got nanj" in capsys.readouterr().err


MODEL_ARGS = ("--kind", "dilute", "--p", "2", "--pq", "3", "--M", "2", "--N", "2")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, name", [
    (("transfer", *MODEL_ARGS, "--u={}"), "the spectral parameter u"),
    (("transfer", *MODEL_ARGS, "--alpha={}"), "the fugacity alpha"),
    (("enumerate", *MODEL_ARGS, "--with-z", "--alpha={}"), "the fugacity alpha"),
])
def test_non_finite_u_or_alpha_exits_2(capsys, argv, name, value):
    """A NaN or infinite u or alpha is an argument error, where `transfer`
    printed "nan" for every sector and `enumerate` "# Z = inf", and exited 0."""
    assert main([arg.format(value) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{name} = {float(value)} must be finite" in err


def test_bad_arguments_exit_2(capsys):
    assert main(["series", "--p", "2", "--pq", "4", "--h", "0", "--v", "0"]) == 2
    assert main(["nonsense"]) == 2
    # the removed knobs are argument errors
    assert main(["modular", "--cutoff", "40"]) == 2
    assert main(["accept", "--suite", "core"]) == 2
    assert main(["identity", "--dmax", "12"]) == 2
    # every series form and the folded forms refuse a pair that is not coprime 0 < p < p'
    assert main(["series", "--form", "u1", "--p", "2", "--pq", "4", "--h", "0", "--v", "0"]) == 2
    assert main(["appendixc", "--p", "4", "--pq", "2"]) == 2
    # half a sector, or a sector with no Z to restrict, is not silently dropped
    assert main(["appendixc", "--p", "1", "--pq", "2", "--h", "1"]) == 2
    assert main(["appendixc", "--p", "1", "--pq", "2", "--v", "0"]) == 2
    assert main(["enumerate", "--kind", "dilute", "--p", "1", "--pq", "2",
                 "--M", "2", "--N", "2", "--sector", "1", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--with-z" in captured.err and "--h and --v" in captured.err
    assert "(p, p') = (2, 4) is not a coprime pair" in captured.err
    assert "(p, p') = (4, 2) is not a coprime pair" in captured.err


def test_output_file(tmp_path, capsys):
    path = tmp_path / "table.txt"
    code = main(["bezout", "--p", "3", "--pq", "5", "--h", "0", "--v", "0",
                 "--table", "--out", str(path)])
    assert code == 0
    assert "19" in path.read_text() or "5,5" in path.read_text()
