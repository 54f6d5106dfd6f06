import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affine_reference as R
from tripletw import (
    WEYL_CAP,
    CapExceeded,
    LambdaParam,
    act,
    affine_exponent,
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
from tripletw.params import minus_w0
from tripletw.rootsys import (
    WeylElement,
    _context,
    dominant_word,
    reflect,
    root_coords_int,
    root_to_fund,
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


# |P/Q| by type: l + 1 for A_l, 4 for D_l, and 3, 2, 1 for E6, E7, E8
PQ_ORDER = {**{f"A{l}": l + 1 for l in range(1, 9)}, **{f"D{l}": 4 for l in range(4, 9)},
            "E6": 3, "E7": 2, "E8": 1}


@pytest.mark.parametrize("t", PQ_ORDER)
def test_cartan_inverse_and_adjugate(t):
    rs = build_root_system(t)
    assert rs.det == PQ_ORDER[t]
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
    assert pairing(rs, rs.theta, rs.rho) == rs.coxeter_h - 1
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
    keys = [(len(w.word), w.word) for w in elems]
    assert keys == sorted(keys)


def test_a2_words_and_longest(a2):
    words = [w.word for w in weyl_enumerate(a2)]
    assert words == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
    w0 = longest_element(a2)
    assert w0.word == (1, 2, 1)
    assert act(w0, (1, 0)) == (0, -1)


def test_a3_longest_length(a3):
    assert len(longest_element(a3).word) == 6


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"])
def test_longest_element_is_the_last_listed_element(t):
    rs = build_root_system(t)
    w0, last = longest_element(rs), weyl_enumerate(rs)[-1]
    assert (w0.word, w0.matrix) == (last.word, last.matrix)


# -w0 permutes the fundamental weights by the diagram involution of the
# Bourbaki tables (0-based node -> node).
def _diagram_involution(t):
    family, l = t[0], int(t[1:])
    if family == "A":
        return [l - 1 - i for i in range(l)]
    if family == "D" and l % 2:
        return list(range(l - 2)) + [l - 1, l - 2]
    if t == "E6":
        return [5, 1, 4, 3, 2, 0]
    return list(range(l))


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A7", "D4", "D5", "D6", "D7",
                               "E6", "E7", "E8"])
def test_minus_w0_is_the_diagram_involution(t):
    rs = build_root_system(t)
    w0 = longest_element(rs)
    assert len(w0.word) == len(rs.positive_roots)
    perm = _diagram_involution(t)
    l = rs.rank
    # column i of -w0 is the fundamental weight omega_perm(i)
    assert [[-c for c in row] for row in w0.matrix] == \
        [[int(j == perm[i]) for i in range(l)] for j in range(l)]
    for i in range(l):
        omega = tuple(int(j == i) for j in range(l))
        assert minus_w0(rs, omega) == tuple(int(j == perm[i]) for j in range(l))


@pytest.mark.parametrize("i", [0, 3])
def test_reflect_rejects_letters_outside_the_diagram(a2, i):
    with pytest.raises(ValueError, match="outside 1..2"):
        reflect(a2.cartan, (1, 1), i)
    with pytest.raises(ValueError, match="outside 1..2"):
        weyl_matrix(a2.cartan, (1, i))


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_dominant_word_and_weyl_matrix_match_the_listing(t):
    # w rho walks back to rho along the lex-least word of w, and the column
    # update of weyl_matrix rebuilds the listed matrix from that word
    rs = build_root_system(t)
    for w in weyl_enumerate(rs):
        assert dominant_word(rs.cartan, act(w, rs.rho)) == w.word
        assert weyl_matrix(rs.cartan, w.word) == w.matrix


def test_act_examples(a2):
    s1 = weyl_enumerate(a2)[1]
    assert act(s1, (1, 0)) == (-1, 1)
    assert circ_act(s1, (0, 0)) == (-2, 1)
    with pytest.raises(ValueError):
        act(s1, (1, 0, 0))


@pytest.mark.parametrize("t", ["A2", "A3", "D4"])
def test_inversion_count_is_length(t):
    rs = build_root_system(t)
    ctx = _context(rs)
    for w in weyl_enumerate(rs):
        assert R.inversion_count(rs, w) == len(w.word)
        assert len(ctx.elems[ctx.inverse(w.index)].word) == len(w.word)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "D4", "D5"])
def test_inverse_matches_the_reversed_word(t):
    rs = build_root_system(t)
    ctx = _context(rs)
    ident = weyl_enumerate(rs)[0]
    for w in weyl_enumerate(rs):
        inv = ctx.elems[ctx.inverse(w.index)]
        assert inv is R.inverse(rs, w)  # the element of the reversed word's matrix
        assert R.compose(rs, w, inv) is ident


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
        for call in (lambda: weyl_enumerate(a2), lambda: w_char(mp, (0, 0), lam, 4)):
            with pytest.raises(CapExceeded) as ei:
                call()
            assert (ei.value.required, ei.value.cap) == (6, 5)
        # w0 comes from the Cartan matrix, so the cap does not apply to it
        assert longest_element(a2).word == (1, 2, 1)
    finally:
        WEYL_CAP.reset(token)
    assert len(weyl_enumerate(a2)) == 6


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
    uv = R.compose(rs, u, v)
    assert circ_act(u, circ_act(v, x)) == circ_act(uv, x)


# --- the Weyl context, against plain matrix arithmetic -----------------------

def _matrix_bfs(cartan):
    """(word, matrix) of every element by a breadth-first search on matrices,
    appending generators on the right; the first word found is kept."""
    n = len(cartan)
    gens = [R.reflection(cartan, i + 1) for i in range(n)]
    ident = tuple(tuple(int(j == k) for k in range(n)) for j in range(n))
    seen = {ident}
    level = [((), ident)]
    out = list(level)
    while level:
        nxt = []
        for word, m in level:
            for i in range(n):
                child = R.mat_mul(m, gens[i])
                if child not in seen:
                    seen.add(child)
                    nxt.append((word + (i + 1,), child))
        out.extend(nxt)
        level = nxt
    return out


CONTEXT_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5"]


@pytest.mark.parametrize("t", CONTEXT_TYPES)
def test_context_matches_a_plain_matrix_bfs(t):
    rs = build_root_system(t)
    elems = weyl_enumerate(rs)
    assert [(w.word, w.matrix) for w in elems] == _matrix_bfs(rs.cartan)
    assert [w.index for w in elems] == list(range(rs.weyl_order))


@pytest.mark.parametrize("t", CONTEXT_TYPES)
def test_inverse_is_an_involution(t):
    rs = build_root_system(t)
    ctx = _context(rs)
    ident = weyl_enumerate(rs)[0].matrix
    for w in weyl_enumerate(rs):
        inv = ctx.elems[ctx.inverse(w.index)]
        assert R.mat_mul(w.matrix, inv.matrix) == ident
        assert ctx.elems[ctx.inverse(inv.index)] is w


@st.composite
def _element_triple(draw):
    rs = build_root_system(draw(st.sampled_from(CONTEXT_TYPES)))
    pick = st.integers(0, rs.weyl_order - 1)
    elems = weyl_enumerate(rs)
    return rs, elems[draw(pick)], elems[draw(pick)], elems[draw(pick)]


@settings(max_examples=150, deadline=None)
@given(_element_triple())
def test_compose_is_the_matrix_product_and_associative(data):
    # the listing holds every matrix product (a KeyError otherwise), and the
    # key of (u v)^-1 is u(v rho), the product rule the affine route uses
    rs, u, v, x = data
    ctx = _context(rs)
    uv = R.compose(rs, u, v)
    assert R.compose(rs, uv, x) is R.compose(rs, u, R.compose(rs, v, x))
    assert ctx.by_key[act(u, act(v, rs.rho))] == ctx.inverse(uv.index)


def test_find_and_inverse_accept_elements_built_elsewhere(a3):
    ctx = _context(a3)
    u = weyl_enumerate(a3)[5]
    u2 = type(u)(u.word, u.matrix)  # equal, but not the context's own object
    assert u2 == u and u2.index == -1
    assert ctx.find(u2) == ctx.find(u) == 5
    assert ctx.elems[ctx.inverse(ctx.find(u2))] is R.inverse(a3, u)
    mp = build_model(a3, 4)
    lam = LambdaParam((0, 0, 0), (0, 0, 0), 4)
    assert affine_exponent(mp, u2, (0, 0, 0), lam) == affine_exponent(mp, u, (0, 0, 0), lam)


@pytest.mark.parametrize("t", ["A2", "A3", "D4"])
def test_by_matrix_rejects_matrices_outside_w(t):
    rs = build_root_system(t)
    n = rs.rank
    ident = weyl_enumerate(rs)[0].matrix
    twice = tuple(tuple(2 * c for c in row) for row in ident)
    # two rows swapped: it fixes rho, the key of the identity, but is not in W
    swapped = (ident[1], ident[0]) + ident[2:]
    too_big = ((1,) * (n + 1),) * (n + 1)
    ctx = _context(rs)
    for m in (twice, swapped, too_big):
        with pytest.raises(ValueError, match="not a Weyl group action"):
            ctx.find(WeylElement((), m))
    for w in weyl_enumerate(rs):
        assert ctx.find(WeylElement(w.word, w.matrix)) == w.index


@pytest.mark.parametrize("t", CONTEXT_TYPES)
def test_root_action_is_adj_m_c_over_det(t):
    # w keeps the pairing of fundamental and root coordinates, so its action
    # adj M C / det on root coordinates is the transpose of the matrix of w^-1
    rs = build_root_system(t)
    ctx = _context(rs)
    for w in weyl_enumerate(rs):
        inv = ctx.elems[ctx.inverse(w.index)]
        assert R.root_action(rs, w) == tuple(zip(*inv.matrix))


def test_sampled_e6_elements():
    # 51,840 elements: too many for the plain BFS, so sample them
    rs = build_root_system("E6")
    ctx = _context(rs)
    elems = weyl_enumerate(rs)
    assert len(elems) == 51840
    ident = elems[0].matrix
    rng = random.Random(6)
    for _ in range(40):
        u, v = rng.choice(elems), rng.choice(elems)
        assert R.word_matrix(rs.cartan, u.word) == u.matrix
        assert R.inversion_count(rs, u) == len(u.word)
        inv = ctx.elems[ctx.inverse(u.index)]
        assert R.mat_mul(u.matrix, inv.matrix) == ident
        assert ctx.elems[ctx.inverse(inv.index)] is u
        uv = R.compose(rs, u, v)
        assert ctx.by_key[act(u, act(v, rs.rho))] == ctx.inverse(uv.index)
        assert ctx.find(WeylElement(u.word, u.matrix)) == u.index
        # u.word is the least reduced word: each u s_i one shorter spells u
        # as its own word followed by i, which is no smaller
        for i in range(1, rs.rank + 1):
            shorter = R.by_matrix(rs.type)[R.mat_mul(u.matrix, R.reflection(rs.cartan, i))]
            if len(shorter.word) == len(u.word) - 1:
                assert shorter.word + (i,) >= u.word
