"""Command-line interface.

Subcommands: enumerate, transfer, series, identity, bezout, modular,
appendixc, accept.  Output is deterministic: exact values are printed as
num/den strings, floats with shortest round-trip repr, JSON with sorted
keys.  Exit codes: 0 success, 1 failed checks, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .acceptance import (MODULAR_RATIOS, MODULAR_TAUS, criterion_4_gamma_lambda, modular_ok,
                         run_suite)
from .bezout import BezoutContext, kac_table_text, table_json_obj
from .characters import TauPoint
from .conformal import (Z_hv_bezout, Z_hv_direct, Z_hv_u1, appendix_c_form,
                        modular_rep_check, render_appendix_form)
from .lattice import census_counter, lattice_Z
from .model import KIND_TILES, SECTORS, ModelSpec, defect_numbers, torus_sectors
from .transfer import C_coefficients, markov_Z


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _add_model_args(sub):
    sub.add_argument("--kind", choices=tuple(KIND_TILES), default="dilute")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--pq", type=int, required=True,
                     help="the coprime integer p' > p")
    sub.add_argument("--u", type=float, default=None,
                     help="spectral parameter (default: isotropic point)")
    sub.add_argument("--alpha", type=float, default=1.0,
                     help="non-contractible loop fugacity")


def _model_from(args) -> ModelSpec:
    spec = ModelSpec(args.kind, args.p, args.pq, args.u or 0.0)
    if args.u is None:
        spec = spec.isotropic()
    return spec


def cmd_enumerate(args) -> int:
    if args.sector and not args.with_z:
        raise ValueError("--sector restricts Z and needs --with-z")
    spec = _model_from(args)
    counter = census_counter(spec.kind, args.M, args.N)
    lines = ["count,n_beta,class_i,class_j,n_wind,"
             + ",".join(f"n{t}" for t in range(1, 10)) + ",h,v"]
    for (n_beta, winds, counts, h, v), mult in counter:
        if winds:
            (ci, cj), nw = winds[0]
        else:
            ci = cj = nw = 0
        lines.append(
            f"{mult},{n_beta},{ci},{cj},{nw},"
            + ",".join(str(c) for c in counts) + f",{h},{v}")
    if args.with_z:
        z = lattice_Z(spec, args.M, args.N, sector=args.sector, alpha=args.alpha)
        lines.append(f"# Z = {z!r}")
    _write(args, "\n".join(lines))
    return 0


def cmd_transfer(args) -> int:
    spec = _model_from(args)
    table = []
    if args.d is not None and not 0 <= args.d <= args.N:
        raise ValueError("need 0 <= d <= N")
    dmax = args.N if args.d is None else args.d
    allowed = defect_numbers(spec.kind, args.N)
    for d in range(allowed.start, dmax + 1, allowed.step):
        C = C_coefficients(spec, args.N, args.M, d)
        for j in range(-args.M, args.M + 1):
            if C[j]:
                table.append({"d": d, "j": j, "value": repr(C[j])})
    sectors = {f"({h},{v})": repr(markov_Z(spec, args.M, args.N, h, v, args.alpha))
               for (h, v) in torus_sectors(spec.kind, args.M, args.N)}
    _write(args, json.dumps({"C": table, "Z": sectors}, indent=2, sort_keys=True))
    return 0


def cmd_series(args) -> int:
    form = {"direct": Z_hv_direct, "u1": Z_hv_u1, "bezout": Z_hv_bezout}[args.form]
    series = form(args.p, args.pq, args.h, args.v, Fraction(args.cutoff))
    _write(args, json.dumps(series.to_json_obj(), indent=2, sort_keys=True))
    return 0


def cmd_identity(args) -> int:
    ok, detail = criterion_4_gamma_lambda()
    print(f"[{'PASS' if ok else 'FAIL'}] gamma = Lambda/2 and number theory: {detail}")
    return 0 if ok else 1


def cmd_bezout(args) -> int:
    ctx = BezoutContext(args.p, args.pq, args.h, args.v)
    if args.table:
        _write(args, kac_table_text(ctx))
    else:
        _write(args, json.dumps(table_json_obj(ctx), indent=2, sort_keys=True))
    return 0


def cmd_modular(args) -> int:
    taus = tuple(TauPoint(complex(re, im)) for re, im in args.tau) if args.tau \
        else MODULAR_TAUS
    rep = modular_rep_check(taus=taus, g_values=MODULAR_RATIOS)
    for key in sorted(rep):
        print(f"{key} = {rep[key]!r}")
    return 0 if modular_ok(rep) else 1


def cmd_appendixc(args) -> int:
    if (args.h is None) != (args.v is None):
        raise ValueError("--h and --v select one sector together; give both or neither")
    blocks = []
    for (h, v) in SECTORS if args.h is None else [(args.h, args.v)]:
        blocks.append(f"Z({args.p},{args.pq}) sector ({h},{v}):")
        blocks.append(render_appendix_form(appendix_c_form(args.p, args.pq, h, v)))
    _write(args, "\n".join(blocks))
    return 0


def cmd_accept(args) -> int:
    return 0 if run_suite() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusloop",
        description="Torus partition functions of dense and dilute loop models")
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="enumerate torus configurations")
    _add_model_args(p_enum)
    p_enum.add_argument("--M", type=int, required=True)
    p_enum.add_argument("--N", type=int, required=True)
    p_enum.add_argument("--sector", type=int, nargs=2, default=None)
    p_enum.add_argument("--with-z", action="store_true")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_tr = subs.add_parser("transfer", help="transfer-matrix C_{d,j} and sector Z")
    _add_model_args(p_tr)
    p_tr.add_argument("--M", type=int, required=True)
    p_tr.add_argument("--N", type=int, required=True)
    p_tr.add_argument("--d", type=int, default=None,
                      help="largest defect number to tabulate (default N)")
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(func=cmd_transfer)

    p_ser = subs.add_parser("series", help="exact sector series at alpha = 2")
    p_ser.add_argument("--p", type=int, required=True)
    p_ser.add_argument("--pq", type=int, required=True)
    p_ser.add_argument("--h", type=int, choices=(0, 1), required=True)
    p_ser.add_argument("--v", type=int, choices=(0, 1), required=True)
    p_ser.add_argument("--form", choices=("direct", "u1", "bezout"),
                       default="direct")
    p_ser.add_argument("--cutoff", type=Fraction, default=Fraction(8),
                       help="exponent cutoff, integer or num/den")
    p_ser.add_argument("--out", default=None)
    p_ser.set_defaults(func=cmd_series)

    p_id = subs.add_parser("identity",
                           help="number-theoretic identity checks (acceptance criterion 4)")
    p_id.set_defaults(func=cmd_identity)

    p_bz = subs.add_parser("bezout", help="Bezout conjugate tables")
    p_bz.add_argument("--p", type=int, required=True)
    p_bz.add_argument("--pq", type=int, required=True)
    p_bz.add_argument("--h", type=int, choices=(0, 1), default=0)
    p_bz.add_argument("--v", type=int, choices=(0, 1), default=0)
    p_bz.add_argument("--table", action="store_true",
                      help="text layout instead of JSON")
    p_bz.add_argument("--out", default=None)
    p_bz.set_defaults(func=cmd_bezout)

    p_mod = subs.add_parser("modular", help="modular covariance report")
    p_mod.add_argument("--tau", type=float, nargs=2, action="append",
                       metavar=("RE", "IM"), help="sample point (repeatable)")
    p_mod.set_defaults(func=cmd_modular)

    p_app = subs.add_parser("appendixc", help="folded sesquilinear forms")
    p_app.add_argument("--p", type=int, required=True)
    p_app.add_argument("--pq", type=int, required=True)
    p_app.add_argument("--h", type=int, choices=(0, 1), default=None)
    p_app.add_argument("--v", type=int, choices=(0, 1), default=None)
    p_app.add_argument("--out", default=None)
    p_app.set_defaults(func=cmd_appendixc)

    p_acc = subs.add_parser("accept", help="run the acceptance suite")
    p_acc.set_defaults(func=cmd_accept)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
