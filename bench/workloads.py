"""The benchmark's workloads: seeded operation lists and the checks on their
outputs.

An in-process workload is built by `build(tw, seed)` into a list of Ops and
a list of checks.  An Op calls the program and returns its output; a check
takes the list of outputs and returns a list of problems.  Every pass runs
the same Ops in the same order.

cli_cold is a list of command lines for fresh `python -m tripletw` processes;
its checks read their standard output.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, NamedTuple

import oracles as O

N = 20          # character window for every in-process character
PREFIX_K = 4    # char(N) must be a prefix of char(N + PREFIX_K)
SAMPLE = 2      # parameters drawn per rank >= 3 model and seed


class Op(NamedTuple):
    label: str
    fn: Callable


def series(q):
    return q.base, q.coeffs


class Failed(NamedTuple):
    """The output of an operation that raised."""
    error: str


def check_outputs(outputs, checks, cases):
    """Run every check whose operations all produced an output.  A check is
    (indices of the outputs it reads, fn(outputs, cases) -> problems), and
    cases maps each suite run during set-up to the cases it counted."""
    problems = []
    for needs, check in checks:
        if all(not isinstance(outputs[i], Failed) for i in needs):
            problems.extend(check(outputs, cases))
    return problems


# --- affine_orbits -----------------------------------------------------------

def affine_orbits(tw, seed: int):
    """Orbit exponents by the affine route against the direct route.

    The exponent_identity suite on A3 p=4 (every narrow lambda, every alpha
    with |alpha + rho| <= |rho| + 3), then for A4 p=5 and D4 p=6 SAMPLE
    narrow lambda drawn by the seed, each with every alpha of the same
    range: both exponents for every Weyl element, and w_char_affine against
    w_char.  Every narrow lambda costs the same here (|W| exponents per
    alpha), so the draw changes the inputs but not the amount of work.
    """
    rng = random.Random(seed)
    ops, checks = [], []

    def add(label, fn):
        ops.append(Op(label, fn))
        return len(ops) - 1

    grid = tw.GridSpec(types=("A3",), p_values=(4,))
    i = add("verify exponent_identity A3 p=4",
            lambda: tw.run_check("exponent_identity", grid))
    checks.append(((i,), lambda out, cases, i=i: O.check_suite_reports(
        [(out[i].check_name, out[i].status)], cases, "exponent_identity A3 p=4")))

    for t, p in (("A4", 5), ("D4", 6)):
        rs = tw.build_root_system(t)
        mp = tw.build_model(rs, p)
        alphas = tw.enum_dominant_in_Q(rs, 3, relative=True)
        narrow = [lam for lam in tw.lambda_params(mp) if tw.narrow(mp, lam.sp)]
        for lam in rng.sample(narrow, SAMPLE):
            for alpha in alphas:
                what = f"{t} p={p} l0={lam.lambda0} sp={lam.sp} alpha={alpha}"

                def exponents(mp=mp, rs=rs, alpha=alpha, lam=lam):
                    elems = tw.weyl_enumerate(rs)
                    return (tuple(tw.affine_exponent(mp, s, alpha, lam) for s in elems),
                            tuple(tw.direct_exponent(mp, s, alpha, lam) for s in elems))

                e = add("exponents " + what, exponents)
                w = add("w_char " + what,
                        lambda mp=mp, a=alpha, lam=lam: tw.w_char(mp, a, lam, N))
                wa = add("w_char_affine " + what,
                         lambda mp=mp, a=alpha, lam=lam: tw.w_char_affine(mp, a, lam, N))
                checks.append(((e,), lambda out, cases, e=e, what=what: O.check_equal(
                    out[e][0], out[e][1], "affine vs direct exponents " + what)))
                checks.append(((w, wa), lambda out, cases, w=w, wa=wa, what=what: O.check_equal(
                    series(out[w]), series(out[wa]), "w_char vs w_char_affine " + what)))
                checks.append(((w,), lambda out, cases, w=w, what=what: O.check_leading1_nonneg(
                    series(out[w]), "w_char " + what)))

    mp = tw.build_model(tw.build_root_system("A1"), 2)
    lam = tw.LambdaParam(lambda0=(0,), sp=(0,), p=2)
    i = add("w_char A1 p=2", lambda: tw.w_char(mp, (0,), lam, 30))
    checks.append(((i,), lambda out, cases, i=i: O.check_a1_p2_w(series(out[i]), 30)))
    return ops, checks


# --- lattice_windows -----------------------------------------------------------

def largest_weight_class(tw, mp):
    """The most populous set of lambda with one conformal weight (ties: the
    lowest weight).  lattice_char scans a box fixed by that weight, so all
    members cost the same and the seed can draw among them freely."""
    classes = {}
    for lam in tw.lambda_params(mp):
        classes.setdefault(tw.delta_lambda(mp, lam), []).append(lam)
    _, members = min(classes.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return members


def lattice_windows(tw, seed: int):
    """Lattice and module characters at n=N.

    All 54 A1 parameters with p=2..7, their module characters checked
    against the closed form; a seeded six of them again at N + PREFIX_K for
    the prefix property; and SAMPLE parameters of A4 p=5 and of D4 p=6 drawn
    from their largest conformal-weight class, with module_char also at
    N + PREFIX_K.  Every lattice character is checked against the
    orthonormal-model sum.
    """
    rng = random.Random(seed)
    ops, checks = [], []

    def add(label, fn):
        ops.append(Op(label, fn))
        return len(ops) - 1

    def pair(mp, lam, what, n=N):
        lat = add(f"lattice_char n={n} {what}", lambda: tw.lattice_char(mp, lam, n))
        mod = add(f"module_char n={n} {what}", lambda: tw.module_char(mp, lam, n))
        checks.append(((lat,), lambda out, cases: O.check_lattice_oracle(
            series(out[lat]), str(mp.rs.type), mp.p, lam.lambda0, lam.sp, n,
            f"lattice_char n={n} {what}")))
        checks.append(((mod, lat), lambda out, cases: O.check_dominated(
            series(out[mod]), series(out[lat]), f"module <= lattice n={n} {what}")))
        return lat, mod

    rs = tw.build_root_system("A1")
    a1 = []
    for p in range(2, 8):
        mp = tw.build_model(rs, p)
        for lam in tw.lambda_params(mp):
            l0, sp = lam.lambda0[0], lam.sp[0]
            what = f"A1 p={p} l0={l0} sp={sp}"
            lat, mod = pair(mp, lam, what)
            checks.append(((mod,), lambda out, cases, mod=mod, a=(p, l0, sp): O.check_a1_module(
                series(out[mod]), *a, N)))
            a1.append((mp, lam, what, lat, mod))
    for mp, lam, what, lat, mod in rng.sample(a1, 6):
        lat2, mod2 = pair(mp, lam, what, N + PREFIX_K)
        for short, long in ((lat, lat2), (mod, mod2)):
            checks.append(((short, long), lambda out, cases, s=short, l=long, what=what: O.check_prefix(
                series(out[s]), series(out[l]), PREFIX_K, what)))

    for t, p in (("A4", 5), ("D4", 6)):
        mp = tw.build_model(tw.build_root_system(t), p)
        for lam in rng.sample(largest_weight_class(tw, mp), SAMPLE):
            what = f"{t} p={p} l0={lam.lambda0} sp={lam.sp}"
            _, mod = pair(mp, lam, what)
            mod2 = add(f"module_char n={N + PREFIX_K} {what}",
                       lambda mp=mp, lam=lam: tw.module_char(mp, lam, N + PREFIX_K))
            checks.append(((mod, mod2), lambda out, cases, m=mod, m2=mod2, what=what: O.check_prefix(
                series(out[m]), series(out[m2]), PREFIX_K, "module_char " + what)))
    return ops, checks


IN_PROCESS = {"affine_orbits": affine_orbits, "lattice_windows": lattice_windows}


def normalize(tw, out):
    """A form of an output that compares equal between passes: a suite
    report without its run time."""
    if isinstance(out, tw.CheckReport):
        return dataclasses.replace(out, runtime_ms=0)
    return out


# --- cli_cold --------------------------------------------------------------------

# Narrow parameters are those with sum_i m_i (s_i + 1) <= p for the marks m_i
# of the highest root; lambda0 runs over 0 and the minuscule weights.
MARKS = {"A2": (1, 1), "D5": (1, 2, 2, 1, 1)}
MINUSCULE = {"A2": (1, 2), "D5": (1, 4, 5)}


def _narrow_params(t: str, p: int):
    marks = MARKS[t]
    rank = len(marks)
    zero = (0,) * rank
    lam0s = [zero] + [tuple(int(j == i - 1) for j in range(rank)) for i in MINUSCULE[t]]
    digits = [zero] + [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    return [(l0, sp) for l0 in lam0s for sp in digits
            if sum(m * (s + 1) for m, s in zip(marks, sp)) <= p]


def _vec(v):
    return ",".join(str(c) for c in v)


CLI_ORDER = 20  # the CLI's default --order


def cli_calls(seed: int):
    """(kind, argv) for one pass.  The seed draws the narrow lambda used for
    the D5 p=8 and A2 p=3 characters; the other calls are fixed."""
    rng = random.Random(seed)
    calls = []
    for t, p in (("D5", 8), ("A2", 3)):
        l0, sp = rng.choice(_narrow_params(t, p))
        lam = ["--lambda0", _vec(l0), "--sp", _vec(sp)]
        for kind in ("w", "w-affine", "module"):
            calls.append((f"char_{kind.replace('-', '_')}",
                          ["char", kind, "--type", t, "-p", str(p)] + lam))
    calls.append(("char_lattice", ["char", "lattice", "--type", "D4", "-p", "6"]))
    calls.append(("lambda_list", ["lambda-list", "--type", "D4", "-p", "6"]))
    calls.append(("verify", ["verify", "all"]))
    return calls


def check_cli(calls, stdouts, cases):
    """Checks on one pass of cli_cold.  stdouts[i] is None for a failed call;
    cases maps each suite of `verify all` to the cases it counted."""
    problems = []
    got = {tuple(argv): out for (_, argv), out in zip(calls, stdouts)}

    def find(*words):
        for argv, out in got.items():
            if argv[:len(words)] == words and out is not None:
                return argv, out
        return None, None

    for t in ("D5", "A2"):
        argv, w = find("char", "w", "--type", t)
        _, wa = find("char", "w-affine", "--type", t)
        _, mod = find("char", "module", "--type", t)
        what = " ".join(argv or (t,))
        if w is not None and wa is not None:
            problems += O.check_equal(w, wa, f"stdout of char w and w-affine, {t}")
        if w is not None:
            problems += O.check_leading1_nonneg(O.series_from_json(w), what)
            if mod is not None:
                # module = sum over alpha of dim L(alpha + l0) times the
                # (alpha, lambda) Weyl sum, all nonnegative for narrow lambda
                problems += O.check_dominated(O.series_from_json(w),
                                              O.series_from_json(mod), f"w <= module, {t}")
    _, lat = find("char", "lattice", "--type", "D4")
    if lat is not None:
        problems += O.check_lattice_oracle(O.series_from_json(lat), "D4", 6, (0,) * 4,
                                           (0,) * 4, CLI_ORDER, "char lattice D4 p=6")
    _, ll = find("lambda-list")
    if ll is not None:
        problems += O.check_lambda_list(ll, "D4", 6)
    _, ver = find("verify")
    if ver is not None:
        problems += O.check_suite_reports(O.verify_statuses(ver), cases, "verify all")
    return problems


def suite_names(tw):
    return tuple(tw.verify.CHECK_NAMES)
