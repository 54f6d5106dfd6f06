import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletw import (
    WEYL_CAP,
    AffineWeight,
    AffineWeylElement,
    CapExceeded,
    GridSpec,
    LambdaParam,
    NarrowViolation,
    aff_act,
    aff_circ,
    aff_mul,
    affine_exponent,
    build_model,
    build_root_system,
    direct_exponent,
    lemma310_construct,
    lemma39_test,
    mu_lambda,
    norm_sq,
    run_check,
    weyl_enumerate,
    y_sigma,
)
from tripletw._exact import dot, mat_vec
from tripletw.affine import _chamber
from tripletw.params import lambda0_rep, lambda0_set, lambda_params, lambda_x, narrow
from tripletw.rootsys import root_action, weyl_inverse
from tripletw.qseries import _fock_scaled


def _elem(rs, word):
    for w in weyl_enumerate(rs):
        if w.word == word:
            return w
    raise AssertionError(f"no element with word {word}")


def test_aff_act_example(a1):
    y = AffineWeylElement(sigma=_elem(a1, ()), beta=(-1,))
    mu = AffineWeight(classical=(1,), level=2, delta_coeff=0)
    out = aff_act(a1, y, mu)
    assert out.classical == (-3,)
    assert out.level == 2
    assert out.delta_coeff == -1


def test_aff_act_level_zero_translates_nothing(a2):
    # at level 0 a pure translation shifts only the delta bookkeeping
    y = AffineWeylElement(sigma=_elem(a2, ()), beta=(1, -2))
    mu = AffineWeight(classical=(3, 5), level=0, delta_coeff=0)
    out = aff_act(a2, y, mu)
    assert out.classical == (3, 5)
    assert out.delta_coeff == -(3 * 1 + 5 * (-2))


def test_aff_circ_example(a1):
    mp = build_model(a1, 2)
    y = AffineWeylElement(sigma=_elem(a1, ()), beta=(-1,))
    mu = AffineWeight(classical=(0,), level=0, delta_coeff=0)
    out = aff_circ(mp, y, mu)
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
    y1 = AffineWeylElement(sigma=elems[i], beta=b1)
    y2 = AffineWeylElement(sigma=elems[j], beta=b2)
    mu = AffineWeight(classical=cl, level=lev, delta_coeff=Fraction(1, 3))
    lhs = aff_act(rs, aff_mul(rs, y1, y2), mu)
    rhs = aff_act(rs, y1, aff_act(rs, y2, mu))
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
    y = y_sigma(mp, ident, (0,), (0,))
    assert (y.sigma.word, y.beta) == ((1,), (0,))
    y = y_sigma(mp, s1, (0,), (0,))
    assert (y.sigma.word, y.beta) == ((), (-1,))


def test_mu_lambda_values(a1, a2):
    mp = build_model(a1, 2)
    mu = mu_lambda(mp, LambdaParam((0,), (0,), 2))
    assert (mu.classical, mu.level, mu.delta_coeff) == ((0,), 0, 0)
    mp = build_model(a2, 3)
    mu = mu_lambda(mp, LambdaParam((0, 0), (0, 0), 3))
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
                                 ("A3", 4), ("D4", 6)])
def test_affine_exponent_matches_the_full_affine_action(t, p):
    # affine_exponent computes only the classical part of y circ mu; the
    # reference goes through aff_circ, with its level and delta bookkeeping
    rs = build_root_system(t)
    mp = build_model(rs, p)
    rho = (1,) * rs.rank
    alphas = [(0,) * rs.rank, tuple(rs.theta), tuple(2 * c for c in rs.theta)]
    checked = 0
    for lam in lambda_params(mp):
        if not narrow(mp, lam.sp):
            continue
        mu = mu_lambda(mp, lam)
        for alpha in alphas:
            for sigma in weyl_enumerate(rs):
                y = y_sigma(mp, weyl_inverse(rs, sigma), alpha, lam.lambda0)
                out = aff_circ(mp, y, mu)
                shifted = tuple(c + r for c, r in zip(out.classical, rho))
                want = norm_sq(rs, shifted) / (2 * p)
                assert affine_exponent(mp, sigma, alpha, lam) == want
                checked += 1
    assert checked >= len(alphas) * rs.weyl_order


def test_cached_chamber_data_obeys_a_lower_weyl_cap(a2):
    mp = build_model(a2, 3)
    lam = LambdaParam((0, 0), (0, 0), 3)
    ident = weyl_enumerate(a2)[0]
    for lam0 in lambda0_set(a2):
        lemma310_construct(mp, (0, 0), lam0)
    mu_lambda(mp, lam)
    affine_exponent(mp, ident, (0, 0), lam)
    grid = GridSpec(types=("A2",), p_values=(3,), order=6, cross_order=6)
    assert run_check("remark311_iff", grid).status == "pass"
    token = WEYL_CAP.set(5)
    try:
        for call in (lambda: lemma310_construct(mp, (0, 0), (0, 0)),
                     lambda: y_sigma(mp, ident, (0, 0), (0, 0)),
                     lambda: mu_lambda(mp, lam),
                     lambda: affine_exponent(mp, ident, (0, 0), lam)):
            with pytest.raises(CapExceeded) as ei:
                call()
            assert (ei.value.required, ei.value.cap) == (6, 5)
        # a fresh interpreter under the same cap reports skipped as well
        assert run_check("remark311_iff", grid).status == "skipped"
    finally:
        WEYL_CAP.reset(token)
    assert run_check("remark311_iff", grid).status == "pass"


def _chamber_by_search(rs, omega):
    """The unique Weyl element sending exactly the positive roots orthogonal
    to omega to positive roots, found by sweeping W."""
    matches = []
    for w in weyl_enumerate(rs):
        rw = root_action(rs, w)
        if all(all(c >= 0 for c in mat_vec(rw, g)) == (dot(g, omega) == 0)
               for g in rs.positive_roots):
            matches.append(w)
    assert len(matches) == 1
    return matches[0]


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6"])
def test_constructed_chamber_element_matches_a_search_of_w(t):
    rs = build_root_system(t)
    for lam0 in lambda0_set(rs):
        omega = lambda0_rep(rs, tuple(c + 1 for c in lam0))
        assert all(dot(g, omega) in (0, 1) for g in rs.positive_roots)
        want = _chamber_by_search(rs, omega)
        assert _chamber(rs, lam0) == (omega, want, weyl_inverse(rs, want))


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
