"""Tests of the benchmark's own checks: each accepts the program's output and
rejects a deliberately corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as O  # noqa: E402
import tracing  # noqa: E402
import tripletw as tw  # noqa: E402
import workloads as W  # noqa: E402


def a1(p, lam0, sp):
    mp = tw.build_model(tw.build_root_system("A1"), p)
    return mp, tw.LambdaParam(lambda0=(lam0,), sp=(sp,), p=p)


def bump(series, j=1, by=1):
    base, coeffs = series
    return base, coeffs[:j] + (coeffs[j] + by,) + coeffs[j + 1:]


def shift(series, by=1):
    return series[0] + by, series[1]


def test_partitions_match_known_values():
    assert [O.partitions(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert O.partitions(100) == 190569292
    assert O.partitions(-1) == 0


def test_a1_oracles_accept_all_54_and_reject_corruptions():
    for p in range(2, 8):
        for lam0 in (0, 1):
            for sp in range(p):
                mp, lam = a1(p, lam0, sp)
                mod = W.series(tw.module_char(mp, lam, 12))
                lat = W.series(tw.lattice_char(mp, lam, 12))
                checks = ((lambda s: O.check_a1_module(s, p, lam0, sp, 12), mod),
                          (lambda s: O.check_lattice_oracle(s, "A1", p, (lam0,), (sp,), 12,
                                                            "A1"), lat))
                for check, good in checks:
                    assert check(good) == []
                    assert check(bump(good))
                    assert check(shift(good))
                    assert check((good[0], good[1][:-1]))


def test_a1_oracle_rejects_a_dropped_leading_term():
    mp, lam = a1(3, 0, 1)
    base, coeffs = W.series(tw.lattice_char(mp, lam, 10))
    # drop the leading coefficient but keep the window's top
    dropped = (base + 1, coeffs[1:])
    assert O.check_lattice_oracle(dropped, "A1", 3, (0,), (1,), 10, "A1")


def test_lattice_oracle_in_the_orthonormal_model():
    for t, p, lam0, sp in (("A2", 3, (0, 1), (2, 0)), ("A3", 4, (1, 0, 0), (0, 3, 1)),
                           ("D4", 6, (0, 0, 0, 1), (1, 0, 2, 0))):
        mp = tw.build_model(tw.build_root_system(t), p)
        lam = tw.LambdaParam(lambda0=lam0, sp=sp, p=p)
        good = W.series(tw.lattice_char(mp, lam, 8))
        assert O.check_lattice_oracle(good, t, p, lam0, sp, 8, t) == []
        assert O.check_lattice_oracle(bump(good, 4), t, p, lam0, sp, 8, t)
        assert O.check_lattice_oracle(shift(good), t, p, lam0, sp, 8, t)
        assert O.check_lattice_oracle((good[0], good[1][:-1]), t, p, lam0, sp, 8, t)


def test_a1_p2_w_oracle():
    mp, lam = a1(2, 0, 0)
    good = W.series(tw.w_char(mp, (0,), lam, 30))
    assert O.check_a1_p2_w(good, 30) == []
    assert O.check_a1_p2_w(bump(good, 5), 30)
    assert O.check_a1_p2_w(shift(good, Fraction(1, 2)), 30)


def test_equal_and_leading1_nonneg():
    mp = tw.build_model(tw.build_root_system("A2"), 3)
    lam = tw.LambdaParam(lambda0=(0, 0), sp=(1, 0), p=3)
    w = W.series(tw.w_char(mp, (0, 0), lam, 15))
    wa = W.series(tw.w_char_affine(mp, (0, 0), lam, 15))
    assert O.check_equal(w, wa, "w") == []
    assert O.check_equal(w, bump(wa), "w")
    assert O.check_leading1_nonneg(w, "w") == []
    assert O.check_leading1_nonneg(bump(w, 0), "w")
    assert O.check_leading1_nonneg(bump(w, 3, by=-10**6), "w")


def test_dominated_and_prefix():
    mp = tw.build_model(tw.build_root_system("A2"), 3)
    lam = tw.LambdaParam(lambda0=(1, 0), sp=(0, 1), p=3)
    mod = W.series(tw.module_char(mp, lam, 10))
    lat = W.series(tw.lattice_char(mp, lam, 10))
    assert O.check_dominated(mod, lat, "m") == []
    assert O.check_dominated(bump(mod, 2, by=10**6), lat, "m")
    assert O.check_dominated(shift(mod, Fraction(1, 3)), lat, "m")
    longer = W.series(tw.module_char(mp, lam, 14))
    assert O.check_prefix(mod, longer, 4, "m") == []
    assert O.check_prefix(mod, bump(longer, 2), 4, "m")
    assert O.check_prefix(mod, (longer[0], longer[1][:-1]), 4, "m")
    assert O.check_prefix(mod, shift(longer, -1), 4, "m")


def lambda_list_text(t, p):
    rs = tw.build_root_system(t)
    mp = tw.build_model(rs, p)
    rows = []
    for lam in tw.lambda_params(mp):
        d = tw.dual_param(mp, lam)
        rows.append({"lambda0": list(lam.lambda0), "sp": list(lam.sp),
                     "dual_lambda0": list(d.lambda0), "dual_sp": list(d.sp)})
    return {"type": t, "p": p, "count": len(rows), "rows": rows}


def test_lambda_list_count_and_involution():
    obj = lambda_list_text("A2", 3)
    assert O.check_lambda_list(json.dumps(obj), "A2", 3) == []
    short = dict(obj, rows=obj["rows"][:-1], count=len(obj["rows"]) - 1)
    assert O.check_lambda_list(json.dumps(short), "A2", 3)
    broken = json.loads(json.dumps(obj))
    row = next(r for r in broken["rows"] if r["dual_sp"] != r["sp"])
    row["dual_sp"] = row["sp"]
    assert O.check_lambda_list(json.dumps(broken), "A2", 3)


def test_suite_reports():
    assert O.check_suite_reports([("a", "pass")], {"a": 3}, "v") == []
    assert O.check_suite_reports([("a", "fail")], {"a": 3}, "v")
    assert O.check_suite_reports([("a", "pass")], {"a": 0}, "v")
    assert O.check_suite_reports([], {}, "v")


def test_vacuous_suite_is_caught():
    """exponent_identity on A3 p=2 reports pass but checks no case: p=2 is
    below h-1=3, so no A3 parameter is narrow."""
    results = []
    for t in ("A3", "A1"):
        tracer = tracing.Tracer()
        tracer.install(cases_only=True)
        try:
            report = tw.run_check("exponent_identity", tw.GridSpec(types=(t,), p_values=(2,)))
        finally:
            tracer.uninstall()
        assert report.status == "pass"
        results.append(O.check_suite_reports([(report.check_name, report.status)],
                                             tracer.cases, t))
    vacuous, real = results
    assert vacuous and not real


def test_tracer_counts_repeat_and_uninstall_restores():
    qs = sys.modules["tripletw.qseries"]
    originals = (qs.lattice_char, qs._signed_boxes, tw.lattice_char)
    mp, lam = a1(3, 1, 2)
    records = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tw.lattice_char(mp, lam, 10)
        finally:
            tracer.uninstall()
        records.append(tracer.record())
    assert (qs.lattice_char, qs._signed_boxes, tw.lattice_char) == originals
    assert records[0]["count"] == records[1]["count"]
    assert records[0]["count"]["qseries.lattice_scanned"] >= \
        records[0]["count"]["qseries.lattice_kept"] > 0


def cli_stdouts(t, p):
    mp = tw.build_model(tw.build_root_system(t), p)
    zero = (0,) * mp.rs.rank
    lam = tw.LambdaParam(lambda0=zero, sp=zero, p=p)
    out = {}
    for kind, f in (("w", tw.w_char), ("w-affine", tw.w_char_affine)):
        out[kind] = json.dumps(tw.to_json_dict(f(mp, zero, lam, 10)), indent=2) + "\n"
    out["module"] = json.dumps(tw.to_json_dict(tw.module_char(mp, lam, 10)), indent=2) + "\n"
    return out


def test_cli_checks_reject_differing_routes():
    outs = cli_stdouts("A2", 3)
    calls = [("char_" + k, ["char", k, "--type", "A2", "-p", "3"]) for k in outs]
    good = list(outs.values())
    assert W.check_cli(calls, good, {}) == []
    bad = [good[0], good[1].replace("1", "2", 1), good[2]]
    assert W.check_cli(calls, bad, {})


def test_narrow_params_of_the_cli_calls_are_narrow():
    for t, p in (("A2", 3), ("D5", 8)):
        mp = tw.build_model(tw.build_root_system(t), p)
        params = W._narrow_params(t, p)
        want = {(lam.lambda0, lam.sp) for lam in tw.lambda_params(mp) if tw.narrow(mp, lam.sp)}
        assert set(params) == want
