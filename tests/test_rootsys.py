from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletw import (
    WEYL_CAP,
    CapExceeded,
    LambdaParam,
    act,
    build_model,
    build_root_system,
    cartan_type,
    circ_act,
    enum_dominant_in_Q,
    longest_element,
    norm_sq,
    pairing,
    w_char,
    weyl_dim,
    weyl_enumerate,
)
from tripletw.rootsys import (
    inversion_count,
    pair_with_rho,
    root_coords_int,
    root_to_fund,
    weyl_by_matrix,
    weyl_compose,
    weyl_inverse,
    weyl_matrix,
)


def test_cartan_type_parsing():
    assert str(cartan_type("a2")) == "A2"
    assert cartan_type("D4").rank == 4
    for bad in ("A0", "D3", "E9", "E5", "B2", "G2", "A", "2A", ""):
        with pytest.raises(ValueError):
            cartan_type(bad)


@pytest.mark.parametrize(
    "t,h,dim,det,order",
    [
        ("A1", 2, 3, 2, 2),
        ("A2", 3, 8, 3, 6),
        ("A3", 4, 15, 4, 24),
        ("A4", 5, 24, 5, 120),
        ("A5", 6, 35, 6, 720),
        ("D4", 6, 28, 4, 192),
        ("D5", 8, 45, 4, 1920),
        ("E6", 12, 78, 3, 51840),
        ("E7", 18, 133, 2, 2903040),
        ("E8", 30, 248, 1, 696729600),
    ],
)
def test_classical_constants(t, h, dim, det, order):
    rs = build_root_system(t)
    assert rs.coxeter_h == h
    assert rs.dim_g == dim
    assert rs.det == det
    assert rs.weyl_order == order
    assert len(rs.positive_roots) == (dim - rs.rank) // 2


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "D4", "D5", "E6"])
def test_cartan_inverse_and_adjugate(t):
    rs = build_root_system(t)
    l = rs.rank
    for i in range(l):
        for j in range(l):
            s = sum(rs.cartan[i][k] * rs.inv_cartan[k][j] for k in range(l))
            assert s == (1 if i == j else 0)
            assert rs.adj[i][j] == rs.inv_cartan[i][j] * rs.det


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "D4", "D5", "E6", "E7", "E8"])
def test_pairing_fundamental_vs_simple(t):
    # (omega_i, alpha_j) = delta_ij; alpha_j has fundamental coordinates
    # equal to row j of the Cartan matrix
    rs = build_root_system(t)
    l = rs.rank
    for i in range(l):
        omega = tuple(1 if k == i else 0 for k in range(l))
        for j in range(l):
            assert pairing(rs, omega, rs.cartan[j]) == (1 if i == j else 0)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8"])
def test_strange_formula_and_theta(t):
    rs = build_root_system(t)
    assert norm_sq(rs, rs.rho) == Fraction(rs.coxeter_h * rs.dim_g, 12)
    assert norm_sq(rs, rs.theta) == 2
    assert pair_with_rho(rs, rs.theta) == rs.coxeter_h - 1
    assert root_to_fund(rs, rs.theta_root) == rs.theta
    assert root_coords_int(rs, rs.theta) == rs.theta_root


def test_root_coords_rejects_non_lattice(a2):
    with pytest.raises(ValueError):
        root_coords_int(a2, (1, 0))


@pytest.mark.parametrize("t,n", [("A1", 2), ("A2", 6), ("A3", 24), ("D4", 192)])
def test_enumeration_count_and_canonical_words(t, n):
    rs = build_root_system(t)
    elems = weyl_enumerate(rs)
    assert len(elems) == n
    assert len({w.matrix for w in elems}) == n
    # sorted by length, lexicographic within a length class
    keys = [(w.length, w.word) for w in elems]
    assert keys == sorted(keys)


def test_a2_words_and_longest(a2):
    words = [w.word for w in weyl_enumerate(a2)]
    assert words == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
    w0 = longest_element(a2)
    assert w0.word == (1, 2, 1)
    assert act(w0, (1, 0)) == (0, -1)


def test_a3_longest_length(a3):
    assert longest_element(a3).length == 6


def test_act_examples(a2):
    s1 = weyl_enumerate(a2)[1]
    assert act(s1, (1, 0)) == (-1, 1)
    assert circ_act(s1, (0, 0)) == (-2, 1)
    with pytest.raises(ValueError):
        act(s1, (1, 0, 0))


@pytest.mark.parametrize("t", ["A2", "A3", "D4"])
def test_inversion_count_is_length(t):
    rs = build_root_system(t)
    for w in weyl_enumerate(rs):
        assert inversion_count(rs, w) == w.length
        assert weyl_inverse(rs, w).length == w.length


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "D4", "D5"])
def test_inverse_matches_the_reversed_word(t):
    rs = build_root_system(t)
    ident = weyl_enumerate(rs)[0]
    for w in weyl_enumerate(rs):
        inv = weyl_inverse(rs, w)
        assert inv == weyl_by_matrix(rs, weyl_matrix(rs.cartan, tuple(reversed(w.word))))
        assert weyl_compose(rs, w, inv) == ident


def test_enumeration_cap(d4):
    token = WEYL_CAP.set(191)
    try:
        with pytest.raises(CapExceeded) as ei:
            weyl_enumerate(d4)
    finally:
        WEYL_CAP.reset(token)
    assert ei.value.required == 192
    assert ei.value.cap == 191
    e8 = build_root_system("E8")
    with pytest.raises(CapExceeded):
        weyl_enumerate(e8)  # default cap is one million


def test_lower_cap_refuses_an_enumerated_type(a2):
    mp = build_model(a2, 3)
    lam = LambdaParam((0, 0), (0, 0), 3)
    assert len(weyl_enumerate(a2)) == 6
    w_char(mp, (0, 0), lam, 4)
    token = WEYL_CAP.set(5)
    try:
        for call in (lambda: weyl_enumerate(a2), lambda: longest_element(a2),
                     lambda: w_char(mp, (0, 0), lam, 4)):
            with pytest.raises(CapExceeded) as ei:
                call()
            assert (ei.value.required, ei.value.cap) == (6, 5)
    finally:
        WEYL_CAP.reset(token)
    assert len(weyl_enumerate(a2)) == 6


def test_cached_compose_and_inverse_obey_a_lower_cap(a2):
    s1, s2 = weyl_enumerate(a2)[1:3]
    weyl_compose(a2, s1, s2)
    weyl_inverse(a2, s1)
    token = WEYL_CAP.set(5)
    try:
        for call in (lambda: weyl_compose(a2, s1, s2), lambda: weyl_inverse(a2, s1)):
            with pytest.raises(CapExceeded) as ei:
                call()
            assert (ei.value.required, ei.value.cap) == (6, 5)
    finally:
        WEYL_CAP.reset(token)
    assert weyl_inverse(a2, s1) == s1


@pytest.mark.parametrize(
    "t,beta,dim",
    [
        ("A1", (0,), 1),
        ("A1", (2,), 3),
        ("A2", (1, 1), 8),
        ("A3", (1, 0, 1), 15),
        ("D4", (0, 1, 0, 0), 28),
    ],
)
def test_weyl_dim(t, beta, dim):
    rs = build_root_system(t)
    assert weyl_dim(rs, beta) == dim


def test_weyl_dim_rejects_bad_weights(a2):
    with pytest.raises(ValueError):
        weyl_dim(a2, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(a2, (Fraction(1, 2), 0))


def test_enum_dominant_absolute(a1):
    assert enum_dominant_in_Q(a1, 4) == ((0,), (2,), (4,))
    assert enum_dominant_in_Q(a1, Fraction(1, 2)) == ()


def test_enum_dominant_relative(a2):
    got = enum_dominant_in_Q(a2, 3, relative=True)
    assert got == ((0, 0), (1, 1), (0, 3), (3, 0), (2, 2))
    # every result satisfies the bound, squared: |a+rho|^2 <= (|rho|+3)^2
    rho_sq = norm_sq(a2, a2.rho)
    for a in got:
        v = tuple(c + 1 for c in a)
        slack = norm_sq(a2, v) - rho_sq - 9
        assert slack <= 0 or slack * slack <= 36 * rho_sq


@st.composite
def weight_and_pair(draw):
    idx = draw(st.integers(0, 23))
    coords = st.integers(-6, 6)
    x = tuple(draw(coords) for _ in range(3))
    y = tuple(draw(coords) for _ in range(3))
    return idx, x, y


@settings(max_examples=60, deadline=None)
@given(weight_and_pair())
def test_pairing_weyl_invariant(data):
    rs = build_root_system("A3")
    idx, x, y = data
    w = weyl_enumerate(rs)[idx]
    assert pairing(rs, act(w, x), act(w, y)) == pairing(rs, x, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_circ_action_composes(i, j, x):
    rs = build_root_system("A2")
    elems = weyl_enumerate(rs)
    u, v = elems[i], elems[j]
    uv = weyl_compose(rs, u, v)
    assert circ_act(u, circ_act(v, x)) == circ_act(uv, x)
