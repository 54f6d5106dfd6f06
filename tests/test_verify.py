import subprocess
import sys
from itertools import product
from math import floor, isqrt

import pytest

from tripletw import (
    CheckReport,
    GridSpec,
    LambdaParam,
    build_model,
    build_root_system,
    lambda_params,
    run_all,
    run_check,
    weyl_enumerate,
)
from tripletw._exact import lattice_points, mat_vec, sqrt_upper
from tripletw.affine import lemma39_test
from tripletw.rootsys import WEYL_CAP, CapExceeded, norm_sq
from tripletw.verify import CHECK_NAMES, LAMBDA_CAP, _brute_pairs, _cases, all_passed

SMALL = GridSpec(types=("A1",), p_values=(2, 3), order=12, cross_order=8,
                 alpha_margin=2)


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("no_such_suite", SMALL)


def test_check_names_stable():
    assert CHECK_NAMES == (
        "strange_formula",
        "lemma215_strict",
        "lemma215_boundary_report",
        "lemma216_equiv",
        "lemma310_bruteforce",
        "remark311_iff",
        "exponent_identity",
        "char_nonneg_leading1",
        "submodule_bound",
        "duality_chars",
        "delta_selfdual",
        "lambda_count",
    )


def test_small_grid_all_pass():
    reports = run_all(SMALL)
    assert [r.check_name for r in reports] == list(CHECK_NAMES)
    assert all(r.status == "pass" for r in reports)
    assert all_passed(reports)


def test_boundary_report_rows():
    r = run_check("lemma215_boundary_report", SMALL)
    assert r.status == "pass"
    assert r.counterexamples == ()
    # A1 p=2 sp=(1,) and p=3 sp=(2,) sit exactly on the boundary
    assert len(r.info) == 2
    assert "p=2 sp=(1,)" in r.info[0]
    assert "agree=" in r.info[0]


def test_empty_grid_skips():
    reports = run_all(GridSpec(types=()))
    assert all(r.status == "skipped" for r in reports)
    assert all(r.info == ("empty grid: no types",) for r in reports)
    assert all_passed(reports)


def test_oversized_grid_skips():
    grid = GridSpec(types=("E8",), p_values=(30,), order=5, cross_order=5)
    assert run_check("strange_formula", grid).status == "pass"
    r = run_check("lambda_count", grid)
    assert r.status == "skipped"
    assert "enumeration cap exceeded" in r.info[0]
    assert str(LAMBDA_CAP) in r.info[0]
    r = run_check("lemma310_bruteforce", grid)
    assert r.status == "skipped"
    assert r.info == ("no types of rank <= 2 in grid",)
    r = run_check("remark311_iff", grid)
    assert r.info == ("no types of rank <= 3 in grid",)


def test_a_suite_with_no_case_says_so():
    # p=2 is below h-1=3, so no A3 digit vector is narrow or on the boundary
    reports = {r.check_name: r for r in run_all(GridSpec(types=("A3",), p_values=(2,)))}
    narrow_note = ("no case: no narrow parameter in grid",)
    want = {
        "lemma215_strict": ("no case: no digit vector with a strict narrow "
                            "inequality in grid",),
        "lemma215_boundary_report": ("no case: no digit vector on the narrow "
                                     "equality stratum in grid",),
        "exponent_identity": narrow_note,
        "char_nonneg_leading1": narrow_note,
        "duality_chars": narrow_note,
    }
    for name, info in want.items():
        assert (reports[name].status, reports[name].info) == ("pass", info), name
    others = [r.info for n, r in reports.items() if n not in want]
    assert not any(line.startswith("no case") for info in others for line in info)
    # every suite has cases on the default grid, so none adds the note
    for r in run_all(GridSpec()):
        assert not any(line.startswith("no case") for line in r.info), r.check_name


def test_an_empty_p_range_is_refused():
    for grid in (dict(p_lo=3, p_hi=1), dict(p_values=())):
        with pytest.raises(ValueError, match="empty p range"):
            GridSpec(**grid)
    assert GridSpec(p_lo=1, p_hi=1).p_hi == 1


def test_a_suite_with_no_case_lists_no_weyl_group():
    # a fresh interpreter, so that no earlier test has filled the Weyl cache
    code = (
        "import tripletw as tw\n"
        "from tripletw import rootsys\n"
        "grid = tw.GridSpec(types=('E6',), p_values=(2,), order=3)\n"
        "r = tw.run_check('exponent_identity', grid)\n"
        "print(r.status, r.info, len(rootsys._WEYL_CACHE))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "pass ('no case: no narrow parameter in grid',) 0\n"


def test_the_weyl_cap_skips_a_suite_with_no_case():
    # A3 p=2 has no narrow parameter, yet |W(A3)| = 24 > 23 still skips the
    # suite that would list W, before it looks for a case
    token = WEYL_CAP.set(23)
    try:
        r = run_check("exponent_identity", GridSpec(types=("A3",), p_values=(2,)))
    finally:
        WEYL_CAP.reset(token)
    assert r.status == "skipped"
    assert r.info == ("enumeration cap exceeded: enumeration needs cap >= 24, "
                      "current cap is 23",)


def test_grid_cross_order_follows_order():
    assert GridSpec().cross_order == 20
    assert GridSpec(order=6).cross_order == 6
    assert GridSpec(order=6, cross_order=4).cross_order == 4


def test_grid_normalizes_types():
    grid = GridSpec(types=("a2", "d4"))
    assert grid.types == ("A2", "D4")
    with pytest.raises(ValueError):
        GridSpec(types=("B2",))


def test_report_invariant():
    with pytest.raises(ValueError):
        CheckReport("x", "g", "fail", (), 0)
    with pytest.raises(ValueError):
        CheckReport("x", "g", "pass", ({"a": "1"},), 0)
    r = CheckReport("x", "g", "fail", ({"a": "1"},), 0)
    assert r.counterexamples == ({"a": "1"},)


def test_reports_deterministic():
    a = run_all(SMALL)
    b = run_all(SMALL)
    proj = lambda rs: [  # noqa: E731
        (r.check_name, r.grid, r.status, r.counterexamples, r.info) for r in rs
    ]
    assert proj(a) == proj(b)


def _lemma39_pairs(mp, alpha, lam, elems):
    """The brute set by its definition: every (sigma, beta) in the box with
    |beta| <= |v|+2 for which lemma39_test holds, all in Fractions."""
    rs = mp.rs
    v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
    v_sq = norm_sq(rs, v)
    bound = sqrt_upper(v_sq) + 2
    # floor(sqrt(x)) = isqrt(floor(x)) for x >= 0
    maxima = [isqrt(floor(bound * bound * rs.inv_cartan[i][i])) for i in range(rs.rank)]
    hits = set()
    for r in product(*(range(-m, m + 1) for m in maxima)):
        r_f = tuple(sum(c * x for c, x in zip(row, r)) for row in rs.cartan)
        slack = norm_sq(rs, r_f) - v_sq - 4
        if slack > 0 and slack * slack > 16 * v_sq:
            continue
        hits.update((w.matrix, r) for w in elems if lemma39_test(mp, w, r, alpha, lam))
    return hits


def test_brute_pairs_keep_their_definition():
    grid = GridSpec(types=("A1", "A2"), p_values=(2, 3, 4, 5, 6, 7))
    wide = 0  # the grid has non-narrow cases (A2 only)
    for mp, lam, alpha, is_narrow, elems in _cases(
            grid, alphas=True, weyl=True):
        wide += not is_narrow
        assert _brute_pairs(mp, alpha, lam, elems) == _lemma39_pairs(mp, alpha, lam, elems)
    assert wide > 0


def _alcove_radius_sq(mp):
    """p^2 max_i (C^-1)_ii / m_i^2: |.|^2 at the farthest vertex p omega_i / m_i
    of the closed alcove p A-bar."""
    rs = mp.rs
    return max(mp.p * mp.p * rs.inv_cartan[i][i] / (m * m)
               for i, m in enumerate(rs.theta_root))


def test_brute_hits_lie_in_the_alcove_ball():
    # the prune of _brute_pairs keeps |sigma x| <= R; equality somewhere shows
    # that no smaller radius would keep every hit
    grids = (GridSpec(), GridSpec(types=("A1", "A2"), p_values=(2, 3, 4, 5, 6, 7)))
    hits = at_radius = 0
    for grid in grids:
        for mp, lam, alpha, _, elems in _cases(grid, max_rank=2, alphas=True, weyl=True):
            rs, p = mp.rs, mp.p
            radius_sq = _alcove_radius_sq(mp)
            v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
            for matrix, beta in _brute_pairs(mp, alpha, lam, elems):
                beta_f = mat_vec(rs.cartan, beta)
                x = tuple(p * (b - c) + s + 1 for b, c, s in zip(beta_f, v, lam.sp))
                moved_sq = norm_sq(rs, mat_vec(matrix, x))
                assert moved_sq <= radius_sq, (rs.type, p, lam, alpha, beta)
                hits += 1
                at_radius += moved_sq == radius_sq
    assert hits > 0
    assert at_radius > 0


def test_the_brute_scan_lists_only_the_alcove_ball(monkeypatch):
    # every point _brute_pairs scans has |x| <= R, so the ellipsoid is no
    # wider than the alcove ball; D5's marks (1, 2, 2, 1, 1) are not all 1,
    # so a bound off by a mark would scan points beyond it
    rs = build_root_system("D5")
    mp = build_model(rs, 3)
    p = mp.p
    scanned = []

    def recording(*args):
        for point in lattice_points(*args):
            scanned.append(point[0])
            yield point

    monkeypatch.setattr("tripletw.verify.lattice_points", recording)
    radius_sq = _alcove_radius_sq(mp)
    alpha = (0,) * rs.rank
    for lam in lambda_params(mp)[::97]:
        scanned.clear()
        _brute_pairs(mp, alpha, lam, ())
        v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
        for beta in scanned:
            beta_f = mat_vec(rs.cartan, beta)
            x = tuple(p * (b - c) + s + 1 for b, c, s in zip(beta_f, v, lam.sp))
            assert norm_sq(rs, x) <= radius_sq, (lam, beta)
        assert scanned, lam


def test_brute_pairs_keep_their_definition_on_a3():
    # the prune's argument does not depend on rank; spot-check rank 3
    rs = build_root_system("A3")
    mp = build_model(rs, 4)
    elems = weyl_enumerate(rs)
    lams = lambda_params(mp)
    cases = [(lams[0], (0, 0, 0)), (lams[5], (0, 0, 0)), (lams[-1], (0, 0, 0)),
             (lams[65], (0, 0, 0)), (lams[70], (1, 0, 1))]
    hits = 0
    for lam, alpha in cases:
        brute = _brute_pairs(mp, alpha, lam, elems)
        assert brute == _lemma39_pairs(mp, alpha, lam, elems)
        hits += len(brute)
    assert hits > 0


def test_the_alcove_ball_lies_inside_the_v_plus_2_ball():
    # |beta| <= |v| + R/p, and (R/p)^2 = max_i (C^-1)_ii / m_i^2 is at most 4
    # through A15, D16 and E8 (equal on A15); past them _brute_pairs refuses
    kept = [f"A{l}" for l in range(1, 16)] + [f"D{l}" for l in range(4, 17)]
    kept += ["E6", "E7", "E8"]
    token = WEYL_CAP.set(1)  # every call stops at the Weyl listing, after the guard
    try:
        for t in kept + ["A16", "D17"]:
            rs = build_root_system(t)
            mp = build_model(rs, 2)
            zero = (0,) * rs.rank
            ratio = max(rs.inv_cartan[i][i] / (m * m) for i, m in enumerate(rs.theta_root))
            assert (ratio <= 4) == (t in kept), t
            # CapExceeded is a RuntimeError too, so the refusal is told by its text
            with pytest.raises(CapExceeded if t in kept else RuntimeError,
                               match="enumeration needs" if t in kept else "alcove ball"):
                _brute_pairs(mp, zero, LambdaParam(zero, zero, 2), ())
    finally:
        WEYL_CAP.reset(token)
