"""Command-line surface: info, lambda-list, char, verify.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 precondition violation (non-narrow parameter, alpha outside the dominant
root-lattice cone), 4 enumeration cap exceeded, 5 internal error (traceback on
stderr).  Output is deterministic byte for byte for fixed inputs and format.
"""

from __future__ import annotations

import argparse
import json
import sys

from .params import (
    LambdaParam,
    PreconditionError,
    build_model,
    check_lambda_cap,
    delta_lambda,
    dual_module_param,
    dual_param,
    lambda0_set,
    lambda_params,
    narrow,
    pq_class,
)
from .qseries import lattice_char, module_char, to_json_dict, w_char, w_char_affine
from .rootsys import WEYL_CAP, CapExceeded, build_root_system, cartan_type
from .verify import CHECK_NAMES, GridSpec, all_passed, run_all, run_check


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _emit(text: str):
    sys.stdout.write(text)


def _parse_type(s: str):
    try:
        return build_root_system(cartan_type(s))
    except ValueError as exc:
        raise _ArgError(str(exc)) from None


class _ArgError(Exception):
    pass


def _parse_vec(s: str, rank: int, name: str):
    parts = s.split(",")
    if len(parts) != rank:
        raise _ArgError(f"{name} needs {rank} comma-separated integers, got {s!r}")
    try:
        return tuple(int(c.strip()) for c in parts)
    except ValueError:
        raise _ArgError(f"{name} needs integers, got {s!r}") from None


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_info(args) -> int:
    rs = _parse_type(args.type)
    l0 = lambda0_set(rs)
    if args.output == "json":
        _emit(_json({
            "type": str(rs.type),
            "rank": rs.rank,
            "coxeter_h": rs.coxeter_h,
            "dim_g": rs.dim_g,
            "weyl_order": rs.weyl_order,
            "pq_order": rs.det,
            "rho": list(rs.rho),
            "theta_fund": list(rs.theta),
            "theta_root": list(rs.theta_root),
            "positive_roots": len(rs.positive_roots),
            "cartan": [list(row) for row in rs.cartan],
            "inv_cartan": [[str(c) for c in row] for row in rs.inv_cartan],
            "lambda0": [
                {"weight": list(w), "pq_class": list(pq_class(rs, w))} for w in l0
            ],
        }))
    elif args.output == "csv":
        rows = [
            ("type", str(rs.type)),
            ("rank", rs.rank),
            ("coxeter_h", rs.coxeter_h),
            ("dim_g", rs.dim_g),
            ("weyl_order", rs.weyl_order),
            ("pq_order", rs.det),
            ("rho", _sp_join(rs.rho)),
            ("theta_fund", _sp_join(rs.theta)),
            ("theta_root", _sp_join(rs.theta_root)),
            ("positive_roots", len(rs.positive_roots)),
        ]
        rows += [(f"lambda0_{i}", _sp_join(w)) for i, w in enumerate(l0)]
        _emit("key,value\n" + "".join(f"{k},{v}\n" for k, v in rows))
    else:
        lines = [
            f"type          {rs.type}",
            f"rank          {rs.rank}",
            f"coxeter_h     {rs.coxeter_h}",
            f"dim_g         {rs.dim_g}",
            f"weyl_order    {rs.weyl_order}",
            f"|P/Q|         {rs.det}",
            f"rho           {rs.rho}",
            f"theta (fund)  {rs.theta}",
            f"theta (root)  {rs.theta_root}",
            f"pos roots     {len(rs.positive_roots)}",
            "inv_cartan    " + "; ".join(
                " ".join(str(c) for c in row) for row in rs.inv_cartan
            ),
        ]
        lines += [
            f"lambda0       {w}  class {tuple(pq_class(rs, w))}" for w in l0
        ]
        _emit("\n".join(lines) + "\n")
    return 0


def _sp_join(v) -> str:
    return " ".join(str(c) for c in v)


def cmd_lambda_list(args) -> int:
    rs = _parse_type(args.type)
    if args.p < 2:
        raise _ArgError(f"p must be >= 2, got {args.p}")
    check_lambda_cap(rs, args.p)
    mp = build_model(rs, args.p)
    rows = []
    for lam in lambda_params(mp):
        if args.narrow_only and not narrow(mp, lam.sp):
            continue
        dual = dual_param(mp, lam)
        dmod = dual_module_param(mp, lam)
        rows.append({
            "lambda0": list(lam.lambda0),
            "sp": list(lam.sp),
            "delta": str(delta_lambda(mp, lam)),
            "narrow": narrow(mp, lam.sp),
            "dual_lambda0": list(dual.lambda0),
            "dual_sp": list(dual.sp),
            "dual_module_lambda0": list(dmod.lambda0),
            "dual_module_sp": list(dmod.sp),
        })
    if args.output == "json":
        _emit(_json({"type": str(rs.type), "p": mp.p, "count": len(rows),
                     "rows": rows}))
    elif args.output == "csv":
        out = ["lambda0,sp,delta,narrow,dual_lambda0,dual_sp,"
               "dual_module_lambda0,dual_module_sp"]
        for r in rows:
            out.append(",".join([
                _sp_join(r["lambda0"]), _sp_join(r["sp"]), r["delta"],
                str(r["narrow"]).lower(), _sp_join(r["dual_lambda0"]),
                _sp_join(r["dual_sp"]), _sp_join(r["dual_module_lambda0"]),
                _sp_join(r["dual_module_sp"]),
            ]))
        _emit("\n".join(out) + "\n")
    else:
        head = (f"{'lambda0':<12} {'sp':<12} {'delta':>10} {'narrow':<6} "
                f"{'dual':<26} {'dual_module':<26}")
        out = [f"{rs.type} p={mp.p}: {len(rows)} parameters", head]
        for r in rows:
            dual = f"{tuple(r['dual_lambda0'])} {tuple(r['dual_sp'])}"
            dmod = f"{tuple(r['dual_module_lambda0'])} {tuple(r['dual_module_sp'])}"
            out.append(
                f"{str(tuple(r['lambda0'])):<12} {str(tuple(r['sp'])):<12} "
                f"{r['delta']:>10} {str(r['narrow']).lower():<6} "
                f"{dual:<26} {dmod:<26}"
            )
        _emit("\n".join(out) + "\n")
    return 0


def _emit_series(ch, output: str):
    if output == "json":
        _emit(_json(to_json_dict(ch)))
    elif output == "csv":
        out = ["n,exponent_num,exponent_den,coeff"]
        for j, c in enumerate(ch.coeffs):
            e = ch.base + j
            out.append(f"{j},{e.numerator},{e.denominator},{c}")
        _emit("\n".join(out) + "\n")
    else:
        out = [f"base   {ch.base}", f"order  {ch.order}",
               f"{'n':>4}  {'exponent':>14}  {'coeff':>10}"]
        for j, c in enumerate(ch.coeffs):
            out.append(f"{j:>4}  {str(ch.base + j):>14}  {c:>10}")
        _emit("\n".join(out) + "\n")


def cmd_char(args) -> int:
    rs = _parse_type(args.type)
    if args.p < 2:
        raise _ArgError(f"p must be >= 2, got {args.p}")
    if args.order < 0:
        raise _ArgError(f"order must be >= 0, got {args.order}")
    mp = build_model(rs, args.p)
    rank = rs.rank
    zero = (0,) * rank
    alpha = zero if args.alpha is None else _parse_vec(args.alpha, rank, "--alpha")
    lam0 = zero if args.lambda0 is None else _parse_vec(args.lambda0, rank, "--lambda0")
    sp = zero if args.sp is None else _parse_vec(args.sp, rank, "--sp")
    if lam0 not in lambda0_set(rs):
        raise _ArgError(
            f"--lambda0 {lam0} is not one of {list(lambda0_set(rs))}"
        )
    if any(s < 0 or s >= mp.p for s in sp):
        raise _ArgError(f"--sp digits must lie in 0..{mp.p - 1}, got {sp}")
    if args.kind in ("module", "lattice") and alpha != zero:
        raise _ArgError(f"--alpha must be zero for kind {args.kind!r}")
    lam = LambdaParam(lambda0=lam0, sp=sp, p=mp.p)
    if args.kind == "w":
        ch = w_char(mp, alpha, lam, args.order)
    elif args.kind == "w-affine":
        ch = w_char_affine(mp, alpha, lam, args.order)
    elif args.kind == "module":
        ch = module_char(mp, lam, args.order)
    else:
        ch = lattice_char(mp, lam, args.order)
    _emit_series(ch, args.output)
    return 0


def _report_dict(r) -> dict:
    return {
        "check": r.check_name,
        "status": r.status,
        "counterexamples": [dict(ce) for ce in r.counterexamples],
        "grid": r.grid,
        "info": list(r.info),
    }


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in CHECK_NAMES:
        raise _ArgError(
            f"unknown suite {args.suite!r}; choose from all, "
            + ", ".join(CHECK_NAMES)
        )
    kw = {}
    if args.type is not None:
        kw["types"] = tuple(args.type.split(","))
    if args.p is not None:
        if args.p < 2:
            raise _ArgError(f"p must be >= 2, got {args.p}")
        kw["p_values"] = (args.p,)
    if args.order is not None:
        if args.order < 0:
            raise _ArgError(f"order must be >= 0, got {args.order}")
        kw["order"] = args.order
    try:
        grid = GridSpec(**kw)
    except ValueError as exc:
        raise _ArgError(str(exc)) from None
    if args.suite == "all":
        reports = run_all(grid)
    else:
        reports = (run_check(args.suite, grid),)
    if args.output == "json":
        _emit(_json([_report_dict(r) for r in reports]))
    elif args.output == "csv":
        out = ["check,status,counterexamples,info"]
        for r in reports:
            out.append(f"{r.check_name},{r.status},"
                       f"{len(r.counterexamples)},{len(r.info)}")
        _emit("\n".join(out) + "\n")
    else:
        out = []
        for r in reports:
            out.append(f"{r.status.upper():<7} {r.check_name}  [{r.grid}]")
            for ce in r.counterexamples:
                out.append("        counterexample: "
                           + ", ".join(f"{k}={v}" for k, v in ce.items()))
            for line in r.info:
                out.append(f"        note: {line}")
        _emit("\n".join(out) + "\n")
    return 0 if all_passed(reports) else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tripletw",
        description="Exact module parameters, Weyl combinatorics, and "
                    "q-series characters on simply-laced root lattices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp_, order_default=None, with_p=True):
        sp_.add_argument("--type", required=True,
                         help="Cartan type, e.g. A2, D4, E6")
        if with_p:
            sp_.add_argument("-p", dest="p", type=int, required=True,
                             help="lattice rescaling parameter, an integer >= 2")
        if order_default is not None:
            sp_.add_argument("--order", type=int, default=order_default,
                             help=f"window length (default {order_default})")
        sp_.add_argument("--output", choices=("json", "csv", "text"),
                         default="json", help="output format (default json)")

    ap_info = sub.add_parser("info", help="root system summary")
    ap_info.add_argument("--type", required=True)
    ap_info.add_argument("--output", choices=("json", "csv", "text"),
                         default="json")
    ap_info.set_defaults(func=cmd_info)

    ap_ll = sub.add_parser("lambda-list", help="enumerate module parameters")
    common(ap_ll)
    ap_ll.add_argument("--narrow-only", action="store_true",
                       help="only parameters satisfying the narrow condition")
    ap_ll.set_defaults(func=cmd_lambda_list)

    ap_ch = sub.add_parser("char", help="compute one character window")
    ap_ch.add_argument("kind", choices=("w", "w-affine", "module", "lattice"))
    common(ap_ch, order_default=20)
    ap_ch.add_argument("--alpha", help="dominant root-lattice weight, "
                       "comma-separated fundamental coordinates (default 0)")
    ap_ch.add_argument("--lambda0", help="class representative weight "
                       "(default 0)")
    ap_ch.add_argument("--sp", help="digit vector, entries in 0..p-1 "
                       "(default 0)")
    ap_ch.add_argument("--weyl-cap", type=int, default=None,
                       help="override the Weyl enumeration cap")
    ap_ch.set_defaults(func=cmd_char)

    ap_v = sub.add_parser("verify", help="run named property suites")
    ap_v.add_argument("suite", nargs="?", default="all",
                      help="check name or 'all' (default)")
    ap_v.add_argument("--type", default=None,
                      help="comma-separated types (default A1,A2)")
    ap_v.add_argument("-p", dest="p", type=int, default=None,
                      help="single p value (default h-1..h+2 per type)")
    ap_v.add_argument("--order", type=int, default=None,
                      help="window length (default 30)")
    ap_v.add_argument("--output", choices=("json", "csv", "text"),
                      default="json")
    ap_v.add_argument("--weyl-cap", type=int, default=None,
                      help="override the Weyl enumeration cap")
    ap_v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    """Run one command; the exit code is decided here and only here."""
    args = _parser().parse_args(argv)
    cap = getattr(args, "weyl_cap", None)
    token = None if cap is None else WEYL_CAP.set(cap)
    try:
        return args.func(args)
    except _ArgError as exc:
        return _fail(str(exc))
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback, without importing traceback
        return 5
    finally:
        if token is not None:
            WEYL_CAP.reset(token)


if __name__ == "__main__":
    sys.exit(main())
