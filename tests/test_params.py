import dataclasses
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affine_reference as R
from tripletw import (
    LambdaParam,
    ScaledWeight,
    build_model,
    build_root_system,
    canonical_lambda,
    central_charge,
    conformal_weight,
    decompose,
    delta_lambda,
    dual_module_param,
    dual_param,
    epsilon,
    lambda0_set,
    lambda_params,
    longest_element,
    narrow,
    narrow_margin,
    weyl_enumerate,
)
from tripletw._exact import mat_vec
from tripletw.params import (
    central_charge_coxeter_form,
    lambda_x,
    lemma216_cond1,
    minus_w0,
    pq_class,
)
from tripletw.rootsys import (
    WeylElement,
    norm_sq,
    pairing,
    reflect,
    root_to_fund,
    weyl_matrix,
)


def test_build_model_validation(a1):
    with pytest.raises(ValueError):
        build_model(a1, 1)
    with pytest.raises(ValueError):
        build_model(a1, Fraction(5, 2))


def test_central_charge_values(a1, a2):
    assert central_charge(build_model(a1, 2)) == -2
    assert central_charge(build_model(a2, 3)) == -30
    for t, p in (("A1", 2), ("A2", 4), ("A3", 3), ("D4", 7), ("E6", 12)):
        mp = build_model(build_root_system(t), p)
        assert central_charge(mp) == central_charge_coxeter_form(mp)


def test_model_levels(a2):
    mp = build_model(a2, 5)
    assert mp.k == 2
    assert mp.k_dual == Fraction(1, 5) - 3


def test_conformal_weight_examples(a1):
    mp = build_model(a1, 2)
    assert conformal_weight(mp, ScaledWeight((1,), 2)) == Fraction(-1, 8)
    assert conformal_weight(mp, ScaledWeight((-4,), 2)) == 3
    with pytest.raises(ValueError):
        conformal_weight(mp, ScaledWeight((1,), 3))  # mixed p


def test_decompose_roundtrip(a1):
    mp = build_model(a1, 2)
    assert decompose(mp, ScaledWeight((-3,), 2)) == ((2,), (1,))
    assert decompose(mp, ScaledWeight((0,), 2)) == ((0,), (0,))
    assert decompose(mp, ScaledWeight((5,), 2)) == ((-2,), (1,))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), st.integers(2, 7))
def test_decompose_is_exact_split(x, p):
    rs = build_root_system("A2")
    mp = build_model(rs, p)
    mu0, sp = decompose(mp, ScaledWeight(x, p))
    assert all(0 <= s <= p - 1 for s in sp)
    assert tuple(-p * a + s for a, s in zip(mu0, sp)) == x


def test_epsilon_examples(a1):
    mp = build_model(a1, 2)
    ident, s1 = weyl_enumerate(a1)
    assert epsilon(mp, (0,), s1) == (-1,)
    assert epsilon(mp, (0,), ident) == (0,)
    assert epsilon(mp, (1,), ident) == (0,)


@pytest.mark.parametrize("t,p", [("A1", 3), ("A2", 2), ("A2", 3)])
def test_epsilon_identity_element_vanishes(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    ident = weyl_enumerate(rs)[0]
    for lam in lambda_params(mp):
        assert epsilon(mp, lam.sp, ident) == (0,) * rs.rank


@pytest.mark.parametrize("p", [2, 3, 4])
def test_epsilon_is_minus_the_mu0_part_of_the_star_action(a3, p):
    mp = build_model(a3, p)
    for w in weyl_enumerate(a3):
        for sp in product(range(p), repeat=3):
            mu0, _ = decompose(mp, R.star_act(mp, w, ScaledWeight(sp, p)))
            assert epsilon(mp, sp, w) == tuple(-c for c in mu0)


def test_narrow_tables(a1, a2):
    mp = build_model(a1, 2)
    assert narrow(mp, (0,)) and narrow(mp, (1,))
    assert narrow_margin(mp, (1,)) == 0  # boundary case
    mp = build_model(a2, 2)
    narrows = [sp for sp in ((0, 0), (1, 0), (0, 1), (1, 1)) if narrow(mp, sp)]
    assert narrows == [(0, 0)]
    mp = build_model(a2, 3)
    assert {s for s in [(a, b) for a in range(3) for b in range(3)]
            if narrow(mp, s)} == {(0, 0), (1, 0), (0, 1)}


def test_digit_range_enforced(a2):
    mp = build_model(a2, 3)
    with pytest.raises(ValueError):
        narrow(mp, (3, 0))
    with pytest.raises(ValueError):
        narrow(mp, (-1, 0))


def test_lemma216_word_validation(a2):
    mp = build_model(a2, 3)
    with pytest.raises(ValueError):
        lemma216_cond1(mp, (0, 0), (1,))
    with pytest.raises(ValueError):
        lemma216_cond1(mp, (0, 0), (1, 2, 1, 2, 1))


@pytest.mark.parametrize("word", [(1, 0, 1), (1, 3, 1)])
def test_lemma216_rejects_letters_outside_the_diagram(a2, word):
    # read as an index from the end, letter 0 would be s_2 and (1, 0, 1)
    # would pass for w0; letter 3 would read past the Cartan matrix
    with pytest.raises(ValueError, match="must lie in 1..2"):
        lemma216_cond1(build_model(a2, 3), (0, 0), word)


@pytest.mark.parametrize("t,p", [("A1", 2), ("A1", 3), ("A2", 3), ("A2", 4)])
def test_lemma216_matches_narrow(t, p):
    # same statement as the verify suite; pinned here on a small grid with
    # the non-canonical reduced word to cover the word-validation path too
    rs = build_root_system(t)
    mp = build_model(rs, p)
    word = longest_element(rs).word
    alt = tuple(reversed(word))
    for lam in lambda_params(mp):
        want = narrow(mp, lam.sp)
        assert lemma216_cond1(mp, lam.sp, word) == want
        assert lemma216_cond1(mp, lam.sp, alt) == want


@cache
def _suffixes(cartan, word):
    return tuple(WeylElement(word[n:], weyl_matrix(cartan, word[n:]))
                 for n in range(len(word)))


def _lemma216_by_suffix_matrices(mp, sp, word):
    # the chain as first written: epsilon of every suffix element, built from
    # its matrix, paired with the letter before the suffix
    suffixes = _suffixes(mp.rs.cartan, word)
    for n in range(1, len(word)):
        eps = epsilon(mp, sp, suffixes[len(word) - n])
        if eps[word[len(word) - n - 1] - 1] != 0:
            return False
    return True


def _last_descent_word(rs):
    # w0 rho = -rho walked to rho at the last negative coordinate each time
    x, word = tuple(-c for c in rs.rho), []
    while min(x) < 0:
        i = max(j for j, c in enumerate(x) if c < 0) + 1
        x = reflect(rs.cartan, x, i)
        word.append(i)
    return tuple(word)


@pytest.mark.parametrize("t,ps", [("A2", (2, 3, 4)), ("A3", (2, 3, 4, 5)),
                                  ("D4", (4, 5, 6))])
def test_lemma216_walk_matches_suffix_matrices(t, ps):
    rs = build_root_system(t)
    lex = longest_element(rs).word
    words = (lex, tuple(reversed(lex)), _last_descent_word(rs))
    for p in ps:
        mp = build_model(rs, p)
        for sp in product(range(p), repeat=rs.rank):
            for word in words:
                assert lemma216_cond1(mp, sp, word) == \
                    _lemma216_by_suffix_matrices(mp, sp, word), (p, sp, word)


# The minuscule fundamental weights in Bourbaki numbering (1-based).
MINUSCULE = {
    **{f"A{l}": tuple(range(1, l + 1)) for l in range(1, 9)},
    **{f"D{l}": (1, l - 1, l) for l in range(4, 9)},
    "E6": (1, 6), "E7": (7,), "E8": (),
}


@pytest.mark.parametrize("t,n", [(t, 1 + len(idx)) for t, idx in MINUSCULE.items()])
def test_lambda0_set_sizes(t, n):
    rs = build_root_system(t)
    l0 = lambda0_set(rs)
    assert len(l0) == n == rs.det
    assert l0 == ((0,) * rs.rank,) + tuple(
        tuple(int(j == i - 1) for j in range(rs.rank)) for i in MINUSCULE[t])
    assert len({pq_class(rs, w) for w in l0}) == n


def test_lambda0_set_a2(a2):
    assert lambda0_set(a2) == ((0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize("t,p", [("A1", 2), ("A1", 5), ("A2", 2), ("A2", 3), ("D4", 2)])
def test_lambda_count_and_roundtrip(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    lams = lambda_params(mp)
    assert len(lams) == rs.det * p ** rs.rank
    assert len({(l.lambda0, l.sp) for l in lams}) == len(lams)
    for lam in lams:
        assert canonical_lambda(mp, lambda_x(mp, lam)) == lam


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(2, 5),
)
def test_canonical_lambda_coset_invariant(x, r, p):
    # shifting by p * (fundamental coordinates of a root lattice vector)
    # moves x within its sqrt(p) Q coset, so the representative is unchanged
    rs = build_root_system("A2")
    mp = build_model(rs, p)
    shift = root_to_fund(rs, r)
    y = tuple(a + p * b for a, b in zip(x, shift))
    assert canonical_lambda(mp, ScaledWeight(x, p)) == canonical_lambda(
        mp, ScaledWeight(y, p)
    )


def test_dual_param(a1, a2):
    mp = build_model(a1, 3)
    for lam in lambda_params(mp):
        assert dual_param(mp, lam) == lam  # -w0 is trivial on A1
    mp = build_model(a2, 3)
    lam = LambdaParam(lambda0=(1, 0), sp=(2, 1), p=3)
    dual = dual_param(mp, lam)
    assert dual.lambda0 == (0, 1)
    assert dual.sp == (1, 2)
    assert dual_param(mp, dual) == lam


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6",
                               "E6", "E7", "E8"])
def test_minus_w0_is_the_matrix_action_on_fundamental_weights(t):
    rs = build_root_system(t)
    w0 = longest_element(rs).matrix
    for i in range(rs.rank):
        omega = tuple(int(j == i) for j in range(rs.rank))
        assert minus_w0(rs, omega) == tuple(-c for c in mat_vec(w0, omega))


def test_minus_w0_refuses_a_matrix_that_is_no_permutation(a2):
    rs = dataclasses.replace(a2)  # a fresh copy with no cached w0
    rs.__dict__["_w0"] = WeylElement((), ((1, 0), (0, 1)))  # -w0 = -1
    with pytest.raises(RuntimeError, match="does not permute"):
        minus_w0(rs, (1, 0))


@pytest.mark.parametrize("t,p", [("A1", 2), ("A2", 5), ("D4", 6), ("E6", 13)])
def test_conformal_weight_is_the_two_term_form(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    for x in product((-p - 1, 0, 2, p), repeat=min(rs.rank, 3)):
        x = x + (1,) * (rs.rank - len(x))
        want = Fraction(norm_sq(rs, x), 2 * p) - Fraction(p - 1, p) * pairing(rs, x, rs.rho)
        assert conformal_weight(mp, ScaledWeight(x, p)) == want


def test_dual_module_param_of_vacuum(a1, a2):
    mp = build_model(a1, 2)
    zero = LambdaParam(lambda0=(0,), sp=(0,), p=2)
    assert dual_module_param(mp, zero) == LambdaParam((1,), (0,), 2)
    mp = build_model(a2, 3)
    zero = LambdaParam(lambda0=(0, 0), sp=(0, 0), p=3)
    assert dual_module_param(mp, zero) == LambdaParam((0, 0), (1, 1), 3)


@pytest.mark.parametrize("t,p", [("A1", 2), ("A1", 5), ("A2", 3), ("A2", 4), ("A3", 3),
                                 ("A4", 2), ("D4", 3), ("D5", 2), ("E6", 2)])
def test_dual_module_param_is_the_star_act_definition(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    w0 = longest_element(rs)
    for lam in lambda_params(mp):
        moved = R.star_act(mp, w0, lambda_x(mp, dual_param(mp, lam)))
        assert dual_module_param(mp, lam) == canonical_lambda(mp, moved)


def test_delta_values_a1_p2(a1):
    mp = build_model(a1, 2)
    vals = {
        (lam.lambda0, lam.sp): delta_lambda(mp, lam) for lam in lambda_params(mp)
    }
    assert vals == {
        ((0,), (0,)): 0,
        ((0,), (1,)): Fraction(-1, 8),
        ((1,), (0,)): 1,
        ((1,), (1,)): Fraction(3, 8),
    }


@pytest.mark.parametrize("t,p", [("A2", 2), ("A2", 3), ("A3", 2)])
def test_delta_dual_invariant(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    for lam in lambda_params(mp):
        assert delta_lambda(mp, dual_param(mp, lam)) == delta_lambda(mp, lam)


def test_star_act_identity_and_composition(a2):
    from tripletw.rootsys import in_root_lattice

    mp = build_model(a2, 3)
    elems = weyl_enumerate(a2)
    mu = ScaledWeight((4, -7), 3)
    assert R.star_act(mp, elems[0], mu) == mu
    # digit parts compose exactly; the mu0 parts may drift, but only inside Q
    for u in elems:
        for v in elems:
            a = R.star_act(mp, u, R.star_act(mp, v, mu))
            b = R.star_act(mp, R.compose(a2, u, v), mu)
            m0a, spa = decompose(mp, a)
            m0b, spb = decompose(mp, b)
            assert spa == spb
            assert in_root_lattice(a2, tuple(x - y for x, y in zip(m0a, m0b)))
