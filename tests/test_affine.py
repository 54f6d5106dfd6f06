import ast
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affine_reference as R
from tripletw import (
    WEYL_CAP,
    CapExceeded,
    GridSpec,
    LambdaParam,
    NarrowViolation,
    affine_exponent,
    build_model,
    build_root_system,
    direct_exponent,
    lemma310_construct,
    lemma39_test,
    longest_element,
    norm_sq,
    run_check,
    weyl_enumerate,
)
from tripletw._exact import dot
from tripletw.affine import _chamber, _q_rows, _route_kernel
from tripletw.params import lambda0_rep, lambda0_set, lambda_params, lambda_x, narrow
from tripletw.rootsys import (
    WeylElement,
    _context,
    act,
    enum_dominant_in_Q,
    in_root_lattice,
    weyl_matrix,
)
from tripletw.qseries import _fock_scaled, w_char_affine


def _elem(rs, word):
    for w in weyl_enumerate(rs):
        if w.word == word:
            return w
    raise AssertionError(f"no element with word {word}")


def test_aff_act_example(a1):
    y = R.AffineWeylElement(sigma=_elem(a1, ()), beta=(-1,))
    mu = R.AffineWeight(classical=(1,), level=2, delta_coeff=0)
    out = R.aff_act(a1, y, mu)
    assert out.classical == (-3,)
    assert out.level == 2
    assert out.delta_coeff == -1


def test_aff_act_level_zero_translates_nothing(a2):
    # at level 0 a pure translation shifts only the delta bookkeeping
    y = R.AffineWeylElement(sigma=_elem(a2, ()), beta=(1, -2))
    mu = R.AffineWeight(classical=(3, 5), level=0, delta_coeff=0)
    out = R.aff_act(a2, y, mu)
    assert out.classical == (3, 5)
    assert out.delta_coeff == -(3 * 1 + 5 * (-2))


def test_aff_circ_example(a1):
    mp = build_model(a1, 2)
    y = R.AffineWeylElement(sigma=_elem(a1, ()), beta=(-1,))
    mu = R.AffineWeight(classical=(0,), level=0, delta_coeff=0)
    out = R.aff_circ(mp, y, mu)
    assert out.classical == (-4,)
    assert out.level == 0
    assert out.delta_coeff == -1


@st.composite
def affine_pair(draw):
    small = st.integers(-3, 3)
    i = draw(st.integers(0, 5))
    j = draw(st.integers(0, 5))
    b1 = (draw(small), draw(small))
    b2 = (draw(small), draw(small))
    cl = (draw(small), draw(small))
    lev = draw(st.integers(-2, 3))
    return i, j, b1, b2, cl, lev


@settings(max_examples=80, deadline=None)
@given(affine_pair())
def test_aff_mul_matches_composition(data):
    rs = build_root_system("A2")
    i, j, b1, b2, cl, lev = data
    elems = weyl_enumerate(rs)
    y1 = R.AffineWeylElement(sigma=elems[i], beta=b1)
    y2 = R.AffineWeylElement(sigma=elems[j], beta=b2)
    mu = R.AffineWeight(classical=cl, level=lev, delta_coeff=Fraction(1, 3))
    lhs = R.aff_act(rs, R.aff_mul(rs, y1, y2), mu)
    rhs = R.aff_act(rs, y1, R.aff_act(rs, y2, mu))
    assert lhs == rhs


def test_lemma310_construct_a1(a1):
    mp = build_model(a1, 2)
    omega, sigma, beta = lemma310_construct(mp, (0,), (0,))
    assert omega == (1,)
    assert sigma.word == (1,)
    assert beta == (0,)
    # omega and sigma depend only on lambda0; beta picks up alpha
    omega2, sigma2, beta2 = lemma310_construct(mp, (2,), (0,))
    assert (omega2, sigma2) == (omega, sigma)
    assert beta2 == (1,)


def test_lemma310_construct_a2(a2):
    mp = build_model(a2, 3)
    omega, sigma, beta = lemma310_construct(mp, (0, 0), (0, 0))
    assert omega == (0, 0)
    assert sigma.word == ()
    assert beta == (1, 1)
    omega, sigma, beta = lemma310_construct(mp, (0, 0), (1, 0))
    assert omega == (1, 0)
    assert sigma.word == (2, 1)
    assert beta == (1, 1)


def test_y_sigma_a1(a1):
    mp = build_model(a1, 2)
    ident, s1 = weyl_enumerate(a1)
    y = R.y_sigma(mp, ident, (0,), (0,))
    assert (y.sigma.word, y.beta) == ((1,), (0,))
    y = R.y_sigma(mp, s1, (0,), (0,))
    assert (y.sigma.word, y.beta) == ((), (-1,))


def test_mu_lambda_values(a1, a2):
    mp = build_model(a1, 2)
    mu = R.mu_lambda(mp, LambdaParam((0,), (0,), 2))
    assert (mu.classical, mu.level, mu.delta_coeff) == ((0,), 0, 0)
    mp = build_model(a2, 3)
    mu = R.mu_lambda(mp, LambdaParam((0, 0), (0, 0), 3))
    assert (mu.classical, mu.level, mu.delta_coeff) == ((0, 0), 0, 0)


def test_exponents_a1_p2(a1):
    mp = build_model(a1, 2)
    lam = LambdaParam((0,), (0,), 2)
    ident, s1 = weyl_enumerate(a1)
    assert direct_exponent(mp, ident, (0,), lam) == Fraction(1, 8)
    assert direct_exponent(mp, s1, (0,), lam) == Fraction(9, 8)
    assert affine_exponent(mp, ident, (0,), lam) == Fraction(1, 8)
    assert affine_exponent(mp, s1, (0,), lam) == Fraction(9, 8)


def test_identity_exponent_is_fock_exponent(a1, a2):
    # with lambda0 = 0 the identity term of the Weyl sum sits exactly at the
    # leading exponent of the Fock module of lambda
    for rs, p in ((a1, 2), (a1, 3), (a2, 3)):
        mp = build_model(rs, p)
        ident = weyl_enumerate(rs)[0]
        for lam in lambda_params(mp):
            if lam.lambda0 != (0,) * rs.rank:
                continue
            want = Fraction(_fock_scaled(mp, lambda_x(mp, lam).x),
                            2 * p * rs.det)
            assert direct_exponent(mp, ident, (0,) * rs.rank, lam) == want


def test_exponent_identity_small_grid(a2):
    mp = build_model(a2, 3)
    elems = weyl_enumerate(a2)
    for lam in lambda_params(mp):
        if not narrow(mp, lam.sp):
            continue
        for alpha in ((0, 0), (1, 1)):
            for sigma in elems:
                assert affine_exponent(mp, sigma, alpha, lam) == direct_exponent(
                    mp, sigma, alpha, lam
                )


def _e6_sample(rs):
    # 200 fixed words of length 0..36 and w0, with no listing of W(E6)
    rng = random.Random(6)
    words = [tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 36))) for _ in range(200)]
    return [WeylElement(w, weyl_matrix(rs.cartan, w)) for w in words] + [longest_element(rs)]


@pytest.mark.parametrize("t,p", [("A1", 3), ("A2", 4), ("A3", 5), ("A4", 5), ("D4", 6),
                                 ("D5", 8), ("E6", 13)])
def test_direct_exponent_matches_the_fraction_norm(t, p):
    # the oracle shares no source helper with either kernel: the Weyl action
    # and the form go through rootsys' act and norm_sq, in Fractions
    rs = build_root_system(t)
    mp = build_model(rs, p)
    l = rs.rank
    elems = _e6_sample(rs) if t == "E6" else weyl_enumerate(rs)
    wide = (p - 1,) * l
    mixed = tuple(i % p for i in range(l))
    lams = [LambdaParam(lam0, sp, p) for lam0 in lambda0_set(rs)
            for sp in ((0,) * l, mixed, wide)]
    assert narrow(mp, (0,) * l) and (l == 1 or not narrow(mp, wide))  # A1 has no wide lambda
    for lam in lams:
        u = tuple(s + 1 for s in lam.sp)
        for alpha in ((0,) * l, tuple(rs.theta)):
            v = tuple(a + c + 1 for a, c in zip(alpha, lam.lambda0))
            for sigma in elems:
                x = tuple(p * c - d for c, d in zip(act(sigma, v), u))
                assert direct_exponent(mp, sigma, alpha, lam) == norm_sq(rs, x) / (2 * p)


def test_direct_kernel_is_kept_per_type_outside_the_weyl_cap():
    rs = build_root_system("E6")
    mp = build_model(rs, 13)
    lam = LambdaParam((0,) * 6, (1, 0, 2, 0, 0, 3), 13)
    w0 = longest_element(rs)
    token = WEYL_CAP.set(1)
    try:
        got = direct_exponent(mp, w0, (0,) * 6, lam)
    finally:
        WEYL_CAP.reset(token)
    x = tuple(-13 - s - 1 for s in lam.sp)  # v = rho and w0 rho = -rho
    assert got == norm_sq(rs, x) / 26
    assert rs.direct_kernel is rs.direct_kernel
    # a row of the wrong length raises, where a map over it would cut it short
    bad = WeylElement((), ((1, 0, 0, 0, 0, 0),) * 5 + ((1, 0, 0, 0, 0),))
    with pytest.raises(ValueError):
        direct_exponent(mp, bad, (0,) * 6, lam)


@pytest.mark.parametrize("t", ["A1", "A3", "D4", "D5", "E6", "E8"])
def test_kernels_read_no_global_name(t):
    # each kernel is closed over its arguments: the direct kernel names no
    # global at all, and the route kernel only its out list's append and the
    # root-lattice error, so neither calls the other or any package function
    rs = build_root_system(t)
    assert rs.direct_kernel.__code__.co_names == ()
    ctx = SimpleNamespace(kernel=[None])  # the kernel's slot alone: W is not listed
    kernel = _route_kernel(ctx, rs)
    assert ctx.kernel == [kernel]
    assert set(kernel.__code__.co_names) <= {"append", "ValueError"}


def test_affine_exponent_requires_narrow(a2):
    mp = build_model(a2, 2)
    lam = LambdaParam((0, 0), (1, 1), 2)
    ident = weyl_enumerate(a2)[0]
    with pytest.raises(NarrowViolation) as ei:
        affine_exponent(mp, ident, (0, 0), lam)
    assert "> p = 2" in str(ei.value)


def test_exponents_reject_non_integral_alpha(a1):
    mp = build_model(a1, 3)
    lam = LambdaParam((0,), (0,), 3)
    ident = weyl_enumerate(a1)[0]
    with pytest.raises(ValueError, match="non-integral coordinate"):
        direct_exponent(mp, ident, (Fraction(1, 2),), lam)
    with pytest.raises(ValueError, match="non-integral coordinate"):
        affine_exponent(mp, ident, (Fraction(1, 2),), lam)
    assert direct_exponent(mp, ident, (Fraction(2, 1),), lam) == \
        direct_exponent(mp, ident, (2,), lam)


def test_lemma39_examples(a1, a2):
    mp = build_model(a1, 2)
    lam = LambdaParam((0,), (0,), 2)
    assert lemma39_test(mp, _elem(a1, (1,)), (0,), (0,), lam)
    assert not lemma39_test(mp, _elem(a1, ()), (2,), (0,), lam)
    mp = build_model(a2, 2)
    wide = LambdaParam((0, 0), (1, 1), 2)
    _, sigma, beta = lemma310_construct(mp, (0, 0), (0, 0))
    assert not lemma39_test(mp, sigma, beta, (0, 0), wide)
    ok = LambdaParam((0, 0), (0, 0), 2)
    assert lemma39_test(mp, sigma, beta, (0, 0), ok)


@pytest.mark.parametrize("t,p", [("A1", 2), ("A1", 3), ("A2", 3), ("A2", 4),
                                 ("A3", 4), ("D4", 6), ("A4", 5), ("D5", 8)])
def test_affine_exponent_matches_the_full_affine_action(t, p):
    # affine_exponent computes only the classical part of y circ mu; the
    # reference goes through aff_circ, with its level and delta bookkeeping,
    # and shares no key lookup or chamber record with the route.
    # alpha changes on every call, so the route slot is rebuilt each time,
    # and every narrow lambda, so every lambda0 label table, is checked
    rs = build_root_system(t)
    mp = build_model(rs, p)
    rho = (1,) * rs.rank
    alphas = [(0,) * rs.rank, tuple(rs.theta), tuple(2 * c for c in rs.theta)]
    lams = [lam for lam in lambda_params(mp) if narrow(mp, lam.sp)]
    assert {lam.lambda0 for lam in lams} == set(lambda0_set(rs))
    for lam in lams:
        mu = R.mu_lambda(mp, lam)
        for sigma in weyl_enumerate(rs):
            tau = R.inverse(rs, sigma)
            for alpha in alphas:
                out = R.aff_circ(mp, R.y_sigma(mp, tau, alpha, lam.lambda0), mu)
                shifted = tuple(c + r for c, r in zip(out.classical, rho))
                want = norm_sq(rs, shifted) / (2 * p)
                assert affine_exponent(mp, sigma, alpha, lam) == want


def test_route_slot_keeps_every_per_call_check(a2):
    mp = build_model(a2, 3)
    lam = LambdaParam((1, 0), (1, 0), 3)
    sigma = weyl_enumerate(a2)[3]
    want = affine_exponent(mp, sigma, (1, 1), lam)  # the warm route
    token = WEYL_CAP.set(5)
    try:
        with pytest.raises(CapExceeded) as ei:
            affine_exponent(mp, sigma, (1, 1), lam)
        assert (ei.value.required, ei.value.cap) == (6, 5)
        with pytest.raises(NarrowViolation):  # reported before the cap
            affine_exponent(mp, sigma, (1, 1), LambdaParam((1, 0), (1, 1), 3))
    finally:
        WEYL_CAP.reset(token)
    assert affine_exponent(mp, sigma, (1, 1), lam) == want
    with pytest.raises(ValueError, match="mixed p"):
        affine_exponent(mp, sigma, (1, 1), LambdaParam((1, 0), (1, 0), 4))
    assert affine_exponent(mp, sigma, (1, 1), lam) == want
    with pytest.raises(NarrowViolation):
        affine_exponent(mp, sigma, (1, 1), LambdaParam((1, 0), (1, 1), 3))
    # the beta of every element is checked to lie in Q
    with pytest.raises(ValueError, match="is not in the root lattice"):
        affine_exponent(mp, sigma, (1, 0), lam)
    # list fields are read afresh on every call, not through the slot's key
    listed = LambdaParam([1, 0], [1, 0], 3)
    assert affine_exponent(mp, sigma, (1, 1), listed) == want
    listed.sp[0] = 0
    listed.lambda0[:] = [0, 1]
    fresh = LambdaParam((0, 1), (0, 0), 3)
    assert affine_exponent(mp, sigma, (1, 1), listed) == \
        direct_exponent(mp, sigma, (1, 1), fresh) != want


@pytest.mark.parametrize("t", [f"A{l}" for l in range(1, 9)] + [f"D{l}" for l in range(4, 9)]
                         + ["E6", "E7", "E8"])
def test_q_rows_decide_the_root_lattice(t):
    # every class of P/Q meets the box, since it holds each omega_i
    rs = build_root_system(t)
    nodes = {"A": 1, "D": 2 if rs.rank % 2 == 0 else 1, "E": 0 if rs.rank == 8 else 1}
    rows = _q_rows(rs)
    assert len(rows) == nodes[rs.type.family]
    for x in product((-1, 0, 1), repeat=rs.rank):
        assert (not any(dot(row, x) % rs.det for row in rows)) == in_root_lattice(rs, x)


def test_exponent_identity_builds_one_route_per_case(monkeypatch, a3):
    from tripletw import affine

    built = []
    original = affine._build_route

    def counting(mp, ctx, alpha, lambda0, sp):
        built.append((alpha, lambda0, sp))
        return original(mp, ctx, alpha, lambda0, sp)

    monkeypatch.setattr(affine, "_build_route", counting)
    _context(a3).route[0] = (None, None)  # so that the first case builds too
    grid = GridSpec(types=("A3",), p_values=(4,))
    assert run_check("exponent_identity", grid).status == "pass"
    mp = build_model(a3, 4)
    alphas = enum_dominant_in_Q(a3, grid.alpha_margin, relative=True)
    cases = [(alpha, lam.lambda0, lam.sp) for lam in lambda_params(mp)
             if narrow(mp, lam.sp) for alpha in alphas]
    assert len(cases) > 1 and built == cases


def test_affine_routes_look_up_no_products(d4):
    mp = build_model(d4, 6)
    lams = [lam for lam in lambda_params(mp) if narrow(mp, lam.sp)]
    for lam in lams:
        w_char_affine(mp, (0,) * 4, lam, 2)
    # each lambda0's label table sits in its chamber record, built for all of W
    for lam0 in {lam.lambda0 for lam in lams}:
        table = _chamber(d4, lam0)[3]
        assert len(table) == d4.weyl_order and None not in table


def test_cached_chamber_data_obeys_a_lower_weyl_cap(a2):
    mp = build_model(a2, 3)
    lam = LambdaParam((0, 0), (0, 0), 3)
    ident = weyl_enumerate(a2)[0]
    before = [lemma310_construct(mp, (0, 0), lam0) for lam0 in lambda0_set(a2)]
    affine_exponent(mp, ident, (0, 0), lam)
    grid = GridSpec(types=("A2",), p_values=(3,), order=6, cross_order=6)
    assert run_check("remark311_iff", grid).status == "pass"
    token = WEYL_CAP.set(5)
    try:
        # the chamber construction lists no W, so the cap does not refuse it
        assert [lemma310_construct(mp, (0, 0), lam0) for lam0 in lambda0_set(a2)] == before
        with pytest.raises(CapExceeded) as ei:
            affine_exponent(mp, ident, (0, 0), lam)
        assert (ei.value.required, ei.value.cap) == (6, 5)
        # a fresh interpreter under the same cap reports pass as well
        assert run_check("remark311_iff", grid).status == "pass"
    finally:
        WEYL_CAP.reset(token)
    assert run_check("remark311_iff", grid).status == "pass"


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6"])
def test_constructed_chamber_element_matches_a_search_of_w(t):
    rs = build_root_system(t)
    # the reference finds sigma_c by sweeping W for its sign pattern
    for lam0 in lambda0_set(rs):
        omega, want = R.chamber(rs, lam0)
        assert omega == lambda0_rep(rs, tuple(c + 1 for c in lam0))
        assert all(dot(g, omega) in (0, 1) for g in rs.positive_roots)
        assert _chamber(rs, lam0)[:3] == (omega, want, R.inverse(rs, want))


@pytest.mark.parametrize("t", ["E6", "E7", "E8"])
def test_remark311_on_e_types_lists_no_weyl_group(monkeypatch, t):
    from tripletw import rootsys

    def refuse(rs):
        raise AssertionError(f"the Weyl group of {rs.type} was enumerated")

    monkeypatch.setattr(rootsys, "_enumerate", refuse)
    rs = build_root_system(t)
    l, h = rs.rank, rs.coxeter_h
    sps = [(0,) * l] + [tuple(k * (j == i) for j in range(l))
                        for k in (1, 2, 3) for i in range(l)]
    token = WEYL_CAP.set(1)  # and no Weyl context is read either
    try:
        outcomes = []
        for p in (h - 1, h, h + 2):
            mp = build_model(rs, p)
            for lam0 in lambda0_set(rs):
                for sp in sps:
                    lam = LambdaParam(lam0, sp, p)
                    for alpha in ((0,) * l, rs.theta):
                        _, sigma, beta = lemma310_construct(mp, alpha, lam0)
                        got = lemma39_test(mp, sigma, beta, alpha, lam)
                        assert got == narrow(mp, sp), (p, lam0, sp, alpha)
                        outcomes.append(got)
    finally:
        WEYL_CAP.reset(token)
    assert True in outcomes and False in outcomes


def test_affine_reference_is_independent():
    # the reference may read the listing and the Cartan data, but nothing of
    # the route it checks: no affine module, Weyl context or chamber record
    path = Path(__file__).with_name("affine_reference.py")
    tree = ast.parse(path.read_text())
    banned = {"_context", "WeylContext", "_chamber", "_affine_terms", "_label_table"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            assert not banned & {a.name for a in node.names}, ast.dump(node)
        else:
            continue
        assert not any(m == "tripletw.affine" or m.startswith("tripletw.affine.")
                       for m in modules), ast.dump(node)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not banned & names
    assert "affine" not in names


def test_chamber_construction_fills_no_root_action_cache():
    # a fresh interpreter, so no other test has filled the cache
    code = (
        "import tripletw as tw\n"
        "from tripletw import rootsys\n"
        "mp = tw.build_model(tw.build_root_system('D5'), 8)\n"
        "for lam0 in tw.lambda0_set(mp.rs):\n"
        "    tw.lemma310_construct(mp, (0,) * 5, lam0)\n"
        "print(len(rootsys._ROOT_ACTION_CACHE))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n"


def test_warm_affine_exponent_hashes_no_cartan_type(monkeypatch, d4):
    from tripletw.rootsys import CartanType

    mp = build_model(d4, 6)
    lam = next(lam for lam in lambda_params(mp)
               if narrow(mp, lam.sp) and any(lam.lambda0))
    alpha = tuple(d4.theta)
    elems = weyl_enumerate(d4)
    want = [affine_exponent(mp, s, alpha, lam) for s in elems]  # warm
    calls = []
    original = CartanType.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CartanType, "__hash__", counting)
    assert hash(d4.type) == original(d4.type) and len(calls) == 1  # the patch counts
    calls.clear()
    assert [affine_exponent(mp, s, alpha, lam) for s in elems] == want
    assert calls == []
