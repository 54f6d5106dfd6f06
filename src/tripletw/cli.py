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
from collections.abc import Iterator
from itertools import chain, islice

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


_quote = json.encoder.encode_basestring_ascii


def _dump(obj, ind: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it when nested at indent ind."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is dict or t is list or t is tuple:
        if not obj:
            return "{}" if t is dict else "[]"
        inner = ind + "  "
        sep = ",\n" + inner
        if t is dict:
            body = sep.join([_quote(k) + ": " + _dump(v, inner) for k, v in obj.items()])
            return "{\n" + inner + body + "\n" + ind + "}"
        if all(type(x) is int for x in obj):
            body = sep.join(map(str, obj))
        else:
            body = sep.join([_dump(x, inner) for x in obj])
        return "[\n" + inner + body + "\n" + ind + "]"
    if isinstance(obj, Iterator):
        return "".join(_chunks(obj, ind))
    return json.dumps(obj)


def _chunks(obj, ind: str):
    """The text of _dump(obj, ind) in pieces: an iterator reached through
    dicts gives one piece per element, pulled only when that piece is due."""
    if isinstance(obj, Iterator):
        inner = ind + "  "
        head = "[\n"
        for x in obj:
            yield head + inner + _dump(x, inner)
            head = ",\n"
        yield "[]" if head == "[\n" else "\n" + ind + "]"
    elif type(obj) is dict and obj:
        inner = ind + "  "
        head = "{\n"
        for k, v in obj.items():
            yield head + inner + _quote(k) + ": "
            yield from _chunks(v, inner)
            head = ",\n"
        yield "\n" + ind + "}"
    else:
        yield _dump(obj, ind)


def _write_json(obj):
    """Write obj to stdout as json.dumps(obj, indent=2) and a newline, byte
    for byte, for dicts with str keys, lists, tuples, ints, bools, None and
    str; a list given as an iterator is written one element at a time."""
    write = sys.stdout.write
    for piece in _chunks(obj, ""):
        write(piece)
    write("\n")


def cmd_info(args) -> int:
    rs = _parse_type(args.type)
    l0 = lambda0_set(rs)
    if args.output == "json":
        _write_json({
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
        })
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
    params = [(lam, nar) for lam in lambda_params(mp)
              if (nar := narrow(mp, lam.sp)) or not args.narrow_only]
    rows = (_lambda_row(mp, lam, nar) for lam, nar in params)
    # build the first row before writing anything, so that a cap or
    # precondition error (exits 2-4) leaves stdout empty
    rows = chain(list(islice(rows, 1)), rows)
    if args.output == "json":
        _write_json({"type": str(rs.type), "p": mp.p, "count": len(params),
                     "rows": rows})
    elif args.output == "csv":
        _emit("lambda0,sp,delta,narrow,dual_lambda0,dual_sp,"
              "dual_module_lambda0,dual_module_sp\n")
        for r in rows:
            _emit(",".join([
                _sp_join(r["lambda0"]), _sp_join(r["sp"]), r["delta"],
                str(r["narrow"]).lower(), _sp_join(r["dual_lambda0"]),
                _sp_join(r["dual_sp"]), _sp_join(r["dual_module_lambda0"]),
                _sp_join(r["dual_module_sp"]),
            ]) + "\n")
    else:
        _emit(f"{rs.type} p={mp.p}: {len(params)} parameters\n"
              f"{'lambda0':<12} {'sp':<12} {'delta':>10} {'narrow':<6} "
              f"{'dual':<26} {'dual_module':<26}\n")
        for r in rows:
            dual = f"{r['dual_lambda0']} {r['dual_sp']}"
            dmod = f"{r['dual_module_lambda0']} {r['dual_module_sp']}"
            _emit(f"{str(r['lambda0']):<12} {str(r['sp']):<12} "
                  f"{r['delta']:>10} {str(r['narrow']).lower():<6} "
                  f"{dual:<26} {dmod:<26}\n")
    return 0


def _lambda_row(mp, lam: LambdaParam, nar: bool) -> dict:
    dual = dual_param(mp, lam)
    dmod = dual_module_param(mp, lam)
    return {
        "lambda0": lam.lambda0,
        "sp": lam.sp,
        "delta": str(delta_lambda(mp, lam)),
        "narrow": nar,
        "dual_lambda0": dual.lambda0,
        "dual_sp": dual.sp,
        "dual_module_lambda0": dmod.lambda0,
        "dual_module_sp": dmod.sp,
    }


def _emit_series(ch, output: str):
    if output == "json":
        _write_json(to_json_dict(ch))
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
        _write_json([_report_dict(r) for r in reports])
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

    def common(sp_, order_default=None):
        sp_.add_argument("--type", required=True,
                         help="Cartan type, e.g. A2, D4, E6")
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
