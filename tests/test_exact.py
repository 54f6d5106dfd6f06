from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletw import build_root_system, pairing
from tripletw._exact import dot, lattice_points, mat_mul, mat_vec
from tripletw.params import _int_vec

# (name, Gram matrix, its inverse)
GRAMS = [
    g
    for rs in map(build_root_system, ("A1", "A2", "A3", "D4"))
    for g in ((f"{rs.type} cartan", rs.cartan, rs.inv_cartan),
              (f"{rs.type} inv_cartan", rs.inv_cartan, rs.cartan))
]


def quad(gram, r, c):
    y = [a - b for a, b in zip(r, c)]
    return sum(y[i] * gram[i][j] * y[j] for i in range(len(y)) for j in range(len(y)))


def brute(gram, c, bound, lower):
    """Filter a box that contains the ellipsoid: for a positive definite G,
    y_i^2 <= B (G^-1)_ii, and every (G^-1)_ii here is at most 2."""
    half = isqrt(ceil(2 * bound)) + 1 if bound >= 0 else 0
    ranges = [range(floor(ci) - half, ceil(ci) + half + 1) for ci in c]
    return {
        r for r in product(*ranges)
        if quad(gram, r, c) <= bound
        and (lower is None or all(a >= b for a, b in zip(r, lower)))
    }


@st.composite
def regions(draw):
    name, gram, _ = draw(st.sampled_from(GRAMS))
    n = len(gram)
    den = draw(st.integers(1, 6))
    c = tuple(Fraction(draw(st.integers(-3 * den, 3 * den)), den) for _ in range(n))
    kind = draw(st.sampled_from(("zero", "random", "hit", "negative")))
    if kind == "zero":
        bound = Fraction(0)
    elif kind == "random":
        bound = Fraction(draw(st.integers(0, 12)), draw(st.integers(2, 6)))
    elif kind == "negative":
        bound = Fraction(-draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    else:
        # a bound attained exactly by a lattice point near the centre
        r0 = tuple(round(ci) + draw(st.integers(-1, 1)) for ci in c)
        bound = quad(gram, r0, c)
    lower = None
    if draw(st.booleans()):
        lower = tuple(floor(ci) + draw(st.integers(-2, 1)) for ci in c)
    return name, gram, c, bound, lower


def test_inverse_gram_diagonals_fit_the_brute_box():
    for name, _, inv in GRAMS:
        assert all(inv[i][i] <= 2 for i in range(len(inv))), name


@settings(max_examples=100, deadline=None)
@given(regions())
def test_lattice_points_match_brute_box(region):
    name, gram, c, bound, lower = region
    got = list(lattice_points(gram, c, bound, lower))
    assert len(got) == len(set(got)), f"{name}: a point was yielded twice"
    assert set(got) == brute(gram, c, bound, lower), name
    assert all(type(x) is int for r in got for x in r)
    assert got == list(lattice_points(gram, c, bound, lower))  # fixed order


def test_lattice_points_boundary_and_empty_cases():
    a2 = build_root_system("A2").cartan
    # |r|^2 <= 2 in the A2 root lattice: the origin and the six roots
    assert len(list(lattice_points(a2, (0, 0), 2))) == 7
    assert list(lattice_points(a2, (0, 0), 0)) == [(0, 0)]
    assert list(lattice_points(a2, (Fraction(1, 2), 0), 0)) == []
    assert list(lattice_points(a2, (0, 0), -1)) == []
    assert list(lattice_points(a2, (0, 0), 2, lower=(1, 1))) == [(1, 1)]


def test_lattice_points_rejects_bad_gram():
    with pytest.raises(ValueError, match="positive definite"):
        list(lattice_points(((1, 2), (2, 1)), (0, 0), 1))
    with pytest.raises(ValueError, match="symmetric"):
        list(lattice_points(((2, 1), (0, 2)), (0, 0), 1))
    with pytest.raises(ValueError, match="dimension"):
        list(lattice_points(((2,),), (0, 0), 1))


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
    # m (r x n) times a matrix whose columns are u and v (n x 2)
    b = tuple(zip(u, v))
    assert mat_mul(m, b) == tuple(zip(naive_mat_vec(m, u), naive_mat_vec(m, v)))


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(((1, 2, 3),), ((1,), (2,)))
    a2 = build_root_system("A2")
    with pytest.raises(ValueError, match="dimension mismatch"):
        pairing(a2, (1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        pairing(a2, (1, 2, 3), (1, 2))


def test_int_vec_fast_path_and_fallbacks():
    assert _int_vec((1, -2, 3), 3) == (1, -2, 3)
    assert _int_vec([1, 2], 2) == (1, 2)
    got = _int_vec((Fraction(3, 1), 2), 2)
    assert got == (3, 2) and all(type(c) is int for c in got)
    with pytest.raises(ValueError, match="non-integral coordinate"):
        _int_vec((Fraction(1, 2), 0), 2)
    got = _int_vec((True, False), 2)
    assert got == (1, 0) and all(type(c) is int for c in got)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _int_vec((1, 2), 3)
