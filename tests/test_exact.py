from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletw import (
    GridSpec,
    LambdaParam,
    affine_exponent,
    build_model,
    build_root_system,
    direct_exponent,
    dual_module_param,
    dual_param,
    epsilon,
    lemma39_test,
    lemma310_construct,
    narrow,
    norm_sq,
    pairing,
    w_char,
    w_char_affine,
    weyl_dim,
    weyl_enumerate,
)
from tripletw._exact import dot, int_vec, lattice_points, mat_vec
from tripletw.params import lemma216_cond1, minus_w0, pq_class
from tripletw.qseries import qseries
from tripletw.rootsys import in_root_lattice

# (name, integer Gram matrix, its inverse): the Cartan matrix and the
# adjugate det C^-1, whose inverse is C / det.  D5 and E6 take the walk
# through five and six levels.
GRAMS = [
    g
    for rs in map(build_root_system, ("A1", "A2", "A3", "D4", "D5", "E6"))
    for g in ((f"{rs.type} cartan", rs.cartan, rs.inv_cartan),
              (f"{rs.type} adj", rs.adj,
               tuple(tuple(Fraction(x, rs.det) for x in row) for row in rs.cartan)))
]
BRUTE_MAX = 20_000  # points in the brute box of a drawn region


def form(gram, r, num, den):
    y = [den * a - b for a, b in zip(r, num)]
    return sum(y[i] * gram[i][j] * y[j] for i in range(len(y)) for j in range(len(y)))


def box(inv, num, den, bound):
    """Coordinate ranges of a box that contains the ellipsoid: for a positive
    definite G, (r_i - c_i)^2 <= B (G^-1)_ii / den^2."""
    out = []
    for i, a in enumerate(num):
        half = isqrt(max(floor(bound * inv[i][i]), 0) // (den * den)) + 1
        out.append(range(floor(Fraction(a, den)) - half, ceil(Fraction(a, den)) + half + 1))
    return out


def brute(gram, inv, num, den, bound, lower):
    """Filter the box around the ellipsoid, as {r: form value}."""
    out = {}
    for r in product(*box(inv, num, den, bound)):
        q = form(gram, r, num, den)
        if q <= bound and (lower is None or all(a >= b for a, b in zip(r, lower))):
            out[r] = q
    return out


def ascending(points):
    """The enumerator's order: the last coordinate outermost, each ascending."""
    return sorted(points, key=lambda r: r[::-1])


@st.composite
def regions(draw):
    name, gram, inv = draw(st.sampled_from(GRAMS))
    n = len(gram)
    den = draw(st.integers(1, 6))
    num = tuple(draw(st.integers(-3 * den, 3 * den)) for _ in range(n))
    kind = draw(st.sampled_from(("zero", "random", "hit", "negative")))
    if kind == "zero":
        bound = 0
    elif kind == "random":
        bound = draw(st.integers(0, 6 * den * den))
    elif kind == "negative":
        bound = -draw(st.integers(1, 5))
    else:
        # a bound attained exactly by a lattice point near the centre
        r0 = tuple(round(Fraction(a, den)) + draw(st.integers(-1, 1)) for a in num)
        bound = form(gram, r0, num, den)
    while bound > 0 and prod(map(len, box(inv, num, den, bound))) > BRUTE_MAX:
        bound //= 2
    lower = None
    if draw(st.booleans()):
        lower = tuple(floor(Fraction(a, den)) + draw(st.integers(-2, 1)) for a in num)
    return name, gram, inv, num, den, bound, lower


def test_inverse_gram_diagonals_fit_the_brute_box():
    """The brute box is sized by the diagonal of each listed inverse, so each
    must be the exact inverse of its Gram matrix."""
    for name, gram, inv in GRAMS:
        n = len(gram)
        assert [[sum(gram[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)], name


@settings(max_examples=100, deadline=None)
@given(regions())
def test_lattice_points_match_brute_box(region):
    name, gram, inv, num, den, bound, lower = region
    got = list(lattice_points(gram, num, den, bound, lower))
    points = [r for r, _ in got]
    assert len(points) == len(set(points)), f"{name}: a point was yielded twice"
    want = brute(gram, inv, num, den, bound, lower)
    assert dict(got) == want, name
    assert points == ascending(want), name
    assert all(type(x) is int for r, q in got for x in (*r, q))


@pytest.mark.parametrize("name,gram,inv",
                         [pytest.param(*g, id=g[0]) for g in GRAMS if g[0][:2] in ("D5", "E6")])
def test_lattice_points_ascend_through_five_and_six_levels(name, gram, inv):
    """On the deep Grams, the largest bound whose brute box stays under 10^5
    points, around a centre off the lattice and with and without a lower
    end: the same points and form values as the box, in the pinned order."""
    n = len(gram)
    num, den = tuple(range(1, n + 1)), 2
    bound = 0
    while prod(map(len, box(inv, num, den, bound + 1))) <= 100_000:
        bound += 1
    lower = tuple(num[i] // den - (i % 2) for i in range(n))
    for low in (None, lower):
        got = list(lattice_points(gram, num, den, bound, low))
        want = brute(gram, inv, num, den, bound, low)
        assert len(got) > n and dict(got) == want, (name, low)
        assert [r for r, _ in got] == ascending(want), (name, low)


def test_lattice_points_boundary_and_empty_cases():
    a2 = build_root_system("A2").cartan
    # |r|^2 <= 2 in the A2 root lattice: the origin and the six roots
    got = list(lattice_points(a2, (0, 0), 1, 2))
    assert len(got) == 7 and sorted(q for _, q in got) == [0] + [2] * 6
    assert list(lattice_points(a2, (0, 0), 1, 0)) == [((0, 0), 0)]
    assert list(lattice_points(a2, (1, 0), 2, 0)) == []  # centre (1/2, 0)
    assert list(lattice_points(a2, (0, 0), 1, -1)) == []
    assert list(lattice_points(a2, (0, 0), 1, 2, lower=(1, 1))) == [((1, 1), 2)]
    # the form value is in den-scaled units: (2 r - (1, 0)) at r = 0 and (1, 0)
    assert sorted(lattice_points(a2, (1, 0), 2, 2)) == [((0, 0), 2), ((1, 0), 2)]


def test_lattice_points_rejects_bad_gram():
    with pytest.raises(ValueError, match="positive definite"):
        list(lattice_points(((1, 2), (2, 1)), (0, 0), 1, 1))
    with pytest.raises(ValueError, match="symmetric"):
        list(lattice_points(((2, 1), (0, 2)), (0, 0), 1, 1))
    with pytest.raises(ValueError, match="dimension"):
        list(lattice_points(((2,),), (0, 0), 1, 1))
    with pytest.raises(ValueError, match="dimension"):
        list(lattice_points(((2, 1),), (0,), 1, 1))
    with pytest.raises(ValueError, match="den"):
        list(lattice_points(((2,),), (0,), 0, 1))
    # a rational bound or centre is not silently rounded
    with pytest.raises(TypeError):
        list(lattice_points(((2,),), (0,), 1, Fraction(1, 2)))
    with pytest.raises(TypeError):
        list(lattice_points(((2,),), (Fraction(1, 2),), 1, 1))


# --- the map(mul) kernels against plain index sums --------------------------

exact_numbers = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def naive_mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(exact_numbers, min_size=n, max_size=n),
    st.lists(exact_numbers, min_size=n, max_size=n),
    st.lists(st.lists(exact_numbers, min_size=n, max_size=n), min_size=1, max_size=5),
)))
def test_kernels_match_index_sums(data):
    u, v, m = data
    u, v, m = tuple(u), tuple(v), tuple(map(tuple, m))
    assert dot(u, v) == sum(u[i] * v[i] for i in range(len(u)))
    assert mat_vec(m, v) == naive_mat_vec(m, v)
    assert type(mat_vec(m, v)) is tuple


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("A1", "A2", "A3", "D4")).flatmap(lambda t: st.tuples(
    st.just(t),
    st.lists(exact_numbers, min_size=build_root_system(t).rank,
             max_size=build_root_system(t).rank),
    st.lists(exact_numbers, min_size=build_root_system(t).rank,
             max_size=build_root_system(t).rank),
)))
def test_pairing_matches_inverse_cartan_sum(data):
    t, mu, nu = data
    rs = build_root_system(t)
    l = rs.rank
    want = sum(mu[i] * rs.inv_cartan[i][j] * nu[j] for i in range(l) for j in range(l))
    got = pairing(rs, tuple(mu), tuple(nu))
    assert got == want
    assert type(got) is Fraction


def test_kernels_reject_mismatched_lengths():
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(((1, 2, 3),), (1, 2))     # a longer row was cut to len(v)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(((1, 2), (3,)), (1, 2))  # a shorter row raised IndexError
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(((1,),), (1, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot((1, 2), (1, 2, 3))
    a2 = build_root_system("A2")
    with pytest.raises(ValueError, match="dimension mismatch"):
        pairing(a2, (1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        pairing(a2, (1, 2, 3), (1, 2))


def test_int_vec_fast_path_and_fallbacks():
    assert int_vec((1, -2, 3), 3) == (1, -2, 3)
    assert int_vec([1, 2], 2) == (1, 2)
    got = int_vec((Fraction(3, 1), 2), 2)
    assert got == (3, 2) and all(type(c) is int for c in got)
    with pytest.raises(ValueError, match="non-integral coordinate"):
        int_vec((Fraction(1, 2), 0), 2)
    got = int_vec((True, False), 2)
    assert got == (1, 0) and all(type(c) is int for c in got)
    with pytest.raises(ValueError, match="dimension mismatch"):
        int_vec((1, 2), 3)


# Every entry point that turns a caller's numbers into ints, as
# (call, an integral input it accepts); each runs on A2 at p = 3.
_A2 = build_root_system("A2")
_MP = build_model(_A2, 3)
_LAM = LambdaParam((0, 0), (0, 0), 3)
_S1 = next(w for w in weyl_enumerate(_A2) if w.word == (1,))
GATED = {
    "w_char": (lambda a: w_char(_MP, a, _LAM, 4), (1, 1)),
    "w_char_affine": (lambda a: w_char_affine(_MP, a, _LAM, 4), (1, 1)),
    "direct_exponent": (lambda a: direct_exponent(_MP, _S1, a, _LAM), (1, 1)),
    "affine_exponent": (lambda a: affine_exponent(_MP, _S1, a, _LAM), (1, 1)),
    "lemma39_test alpha": (lambda a: lemma39_test(_MP, _S1, (0, 0), a, _LAM), (1, 1)),
    "lemma39_test beta": (lambda b: lemma39_test(_MP, _S1, b, (1, 1), _LAM), (1, 2)),
    "lemma310_construct": (lambda a: lemma310_construct(_MP, a, (0, 0)), (1, 1)),
    "narrow": (lambda s: narrow(_MP, s), (2, 0)),
    "dual_param": (lambda s: dual_param(_MP, LambdaParam((1, 0), s, 3)), (2, 0)),
    "dual_module_param": (lambda s: dual_module_param(_MP, LambdaParam((1, 0), s, 3)), (2, 0)),
    "epsilon": (lambda s: epsilon(_MP, s, _S1), (1, 0)),
    "lemma216_cond1": (lambda w: lemma216_cond1(_MP, (0, 0), w), (1, 2, 1)),
    "minus_w0": (lambda x: minus_w0(_A2, x), (2, 1)),
    "weyl_dim": (lambda b: weyl_dim(_A2, b), (1, 0)),
    "in_root_lattice": (lambda x: in_root_lattice(_A2, x), (2, 2)),
    "pq_class": (lambda x: pq_class(_A2, x), (1, 0)),
    "GridSpec.p_values": (lambda ps: GridSpec(p_values=ps).p_values, (3,)),
    "qseries": (lambda c: qseries(0, c), (1, 2)),
    "qseries base": (lambda b: qseries(b[0], (1, 2)), (1,)),
    "norm_sq": (lambda x: norm_sq(_A2, x), (1, 0)),
    "pairing": (lambda x: pairing(_A2, x, (1, 1)), (1, 0)),
}


@pytest.mark.parametrize("name", GATED)
def test_gate_rejects_floats_and_takes_integral_fractions(name):
    call, v = GATED[name]
    for bad in ((v[0] + 0.5,) + v[1:], tuple(map(float, v))):
        with pytest.raises(ValueError, match="non-integral coordinate|neither an int"):
            call(bad)
    assert call(tuple(map(Fraction, v))) == call(v)


@pytest.mark.parametrize("name", ["narrow", "dual_param", "dual_module_param"])
def test_digit_gates_reject_out_of_range_digits(name):
    # a caller's digits outside [0, p-1] are a ValueError, never the
    # RuntimeError of an internal fault
    call, _ = GATED[name]
    for bad in ((5, 0), (-1, 0), (0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            call(bad)
