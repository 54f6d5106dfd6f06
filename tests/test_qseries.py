import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tripletw import (
    IncompatibleBases,
    LambdaParam,
    NarrowViolation,
    OrderUnderflow,
    ScaledWeight,
    build_model,
    build_root_system,
    central_charge,
    conformal_weight,
    delta_lambda,
    eta_inv_pow,
    fock_char,
    lattice_char,
    module_char,
    qs_add,
    qs_eq,
    qs_mul,
    qs_scale,
    qseries,
    to_json_dict,
    w_char,
    w_char_affine,
    weyl_dim,
)
from tripletw.params import lambda_params, narrow
from tripletw.qseries import _assemble, colored_partitions


def test_qseries_normalization():
    a = qseries(Fraction(1, 2), (0, 0, 2, 3))
    assert (a.base, a.coeffs, a.order) == (Fraction(5, 2), (2, 3), 1)
    z = qseries(3, (0, 0, 0))
    assert (z.base, z.coeffs, z.order) == (3, (0, 0, 0), 2)
    with pytest.raises(ValueError):
        qseries(0, ())


def test_qs_add_aligned():
    a = qseries(0, (1, 1, 1))
    b = qseries(1, (1,))
    s = qs_add(a, b)
    assert (s.base, s.coeffs) == (0, (1, 2))


def test_qs_add_zero_operand_other_coset():
    z = qseries(Fraction(1, 3), (0,))
    b = qseries(0, (1, 1, 1))
    # the zero series carries no terms, it only narrows the window
    s = qs_add(z, b)
    assert (s.base, s.coeffs) == (0, (1,))
    assert qs_add(b, z) == s


def test_qs_add_underflow():
    a = qseries(10, (1, 1, 1))
    z = qseries(Fraction(1, 3), (0,))
    with pytest.raises(OrderUnderflow) as ei:
        qs_add(a, z)
    assert ei.value.required == 10


def test_qs_add_incompatible():
    with pytest.raises(IncompatibleBases):
        qs_add(qseries(0, (1,)), qseries(Fraction(1, 2), (1,)))


def test_qs_mul():
    a = qseries(0, (1, 1))
    b = qseries(0, (1, -1))
    assert qs_mul(a, b) == qseries(0, (1, 0))
    c = qs_mul(qseries(Fraction(1, 3), (2, 1)), qseries(Fraction(1, 6), (3,)))
    assert (c.base, c.coeffs) == (Fraction(1, 2), (6,))
    assert qs_scale(a, -2).coeffs == (-2, -2)
    with pytest.raises(ValueError):
        qs_scale(a, Fraction(1, 2))


def test_qs_eq_windows():
    a = qseries(0, (1, 2, 3))
    b = qseries(0, (1, 2, 3, 4, 5, 6))
    assert qs_eq(a, b, 2)
    with pytest.raises(OrderUnderflow) as ei:
        qs_eq(a, b, 4)
    assert ei.value.required == 4
    assert not qs_eq(a, qseries(0, (1, 2, 4)), 2)
    assert qs_eq(a, qseries(-2, (0, 0, 1, 2, 3)), 2)


def test_qs_eq_zero_other_coset():
    z = qseries(Fraction(1, 3), (0,) * 20)
    b = qseries(5, (0, 0, 1))  # normalizes to base 7, window [7, 7]
    assert not qs_eq(z, b, 0)
    with pytest.raises(OrderUnderflow):
        qs_eq(z, b, 1)
    assert qs_eq(z, qseries(5, (0, 0, 0)), 2)


_pos_coeffs = st.lists(st.integers(0, 9), min_size=2, max_size=6).map(
    lambda xs: tuple([xs[0] + 1] + xs[1:])
)


@settings(max_examples=80, deadline=None)
@given(_pos_coeffs, _pos_coeffs, _pos_coeffs, st.integers(0, 23))
def test_qs_ring_properties(ca, cb, cc, d24):
    # nonnegative coefficients with nonzero lead keep every window aligned,
    # so the identities hold as structural equalities
    base = Fraction(d24, 24)
    a, b, c = qseries(base, ca), qseries(base, cb), qseries(base, cc)
    assert qs_mul(a, b) == qs_mul(b, a)
    assert qs_add(a, b) == qs_add(b, a)
    n = min(x.order for x in (a, b, c))
    lhs = qs_mul(a, qs_add(b, c))
    rhs = qs_add(qs_mul(a, b), qs_mul(a, c))
    assert qs_eq(lhs, rhs, min(lhs.order, rhs.order, n))
    unit = qseries(0, (1,) + (0,) * a.order)
    assert qs_mul(a, unit) == a


def test_eta_inverse_powers():
    e1 = eta_inv_pow(1, 5)
    assert e1.base == Fraction(-1, 24)
    assert e1.coeffs == (1, 1, 2, 3, 5, 7)
    e2 = eta_inv_pow(2, 4)
    assert e2.base == Fraction(-1, 12)
    assert e2.coeffs == (1, 2, 5, 10, 20)


@pytest.mark.parametrize("colors", [1, 2, 3, 4])
def test_colored_partitions_against_convolution(colors):
    assert colored_partitions(colors, 40) == tuple(
        oracles.colored_partitions(colors, 40)
    )


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), st.integers(2, 5))
def test_fock_base_is_delta_minus_c_over_24(x, p):
    # two independent routes: completing the square in the exponent versus
    # the conformal weight formula plus the strange formula
    rs = build_root_system("A2")
    mp = build_model(rs, p)
    mu = ScaledWeight(x, p)
    ch = fock_char(mp, mu, 3)
    assert ch.base == conformal_weight(mp, mu) - central_charge(mp) / 24


def test_fock_coeffs_are_colored_partitions(a2):
    mp = build_model(a2, 3)
    ch = fock_char(mp, ScaledWeight((1, -2), 3), 12)
    assert ch.coeffs == tuple(oracles.colored_partitions(2, 12))


def test_w_char_a1_p2_vacuum_vs_partition_oracle(a1):
    mp = build_model(a1, 2)
    lam = LambdaParam((0,), (0,), 2)
    ch = w_char(mp, (0,), lam, 9)
    assert ch.base == Fraction(1, 12)
    want = tuple(
        oracles.partitions(n) - oracles.partitions(n - 1) for n in range(10)
    )
    assert ch.coeffs == want == (1, 0, 1, 1, 2, 2, 4, 4, 7, 8)


def test_w_char_a1_p2_other_digit(a1):
    # sp=(1,) sits on the narrow boundary; exponents 0 and 2 give the
    # difference p(n) - p(n-2)
    mp = build_model(a1, 2)
    ch = w_char(mp, (0,), LambdaParam((0,), (1,), 2), 8)
    assert ch.base == Fraction(-1, 24)
    assert ch.coeffs == tuple(
        oracles.partitions(n) - oracles.partitions(n - 2) for n in range(9)
    )


@pytest.mark.parametrize(
    "t,p", [("A1", 2), ("A1", 3), ("A2", 3)]
)
def test_w_char_affine_route_agrees(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    for lam in lambda_params(mp):
        if not narrow(mp, lam.sp):
            continue
        a = w_char(mp, (0,) * rs.rank, lam, 10)
        b = w_char_affine(mp, (0,) * rs.rank, lam, 10)
        assert a == b


def test_w_char_alpha_validation(a1):
    mp = build_model(a1, 2)
    lam = LambdaParam((0,), (0,), 2)
    with pytest.raises(ValueError, match="root lattice"):
        w_char(mp, (1,), lam, 5)
    with pytest.raises(ValueError, match="dominant"):
        w_char(mp, (-2,), lam, 5)


def test_w_char_narrow_guard(a2):
    mp = build_model(a2, 2)
    lam = LambdaParam((0, 0), (1, 1), 2)
    w_char(mp, (0, 0), lam, 5)  # direct route has no narrowness condition
    with pytest.raises(NarrowViolation):
        w_char_affine(mp, (0, 0), lam, 5)


def test_lattice_char_a1_p2_vs_triangular_offsets(a1):
    # exponents (2j+1)^2/8 over j >= 0, offsets from the leading one are the
    # triangular numbers j(j+1)/2
    mp = build_model(a1, 2)
    ch = lattice_char(mp, LambdaParam((0,), (0,), 2), 12)
    assert ch.base == Fraction(1, 12)
    tri = [j * (j + 1) // 2 for j in range(7)]
    want = tuple(
        sum(oracles.partitions(n - t) for t in tri) for n in range(13)
    )
    assert ch.coeffs == want
    assert ch.coeffs[:3] == (1, 2, 3)


def test_module_char_a1_p2_vs_double_sum_oracle(a1):
    # chi = sum_m (2m+1) [q^{(4m+1)^2/8} - q^{(4m+3)^2/8}] / eta
    mp = build_model(a1, 2)
    ch = module_char(mp, LambdaParam((0,), (0,), 2), 12)
    assert ch.base == Fraction(1, 12)
    want = []
    for n in range(13):
        c = 0
        for m in range(0, 5):
            c += (2 * m + 1) * (
                oracles.partitions(n - (2 * m * m + m))
                - oracles.partitions(n - (2 * m * m + 3 * m + 1))
            )
        want.append(c)
    assert ch.coeffs == tuple(want)
    assert ch.coeffs[:3] == (1, 0, 1)


def test_module_char_leading_dimension(a1, a2):
    mp = build_model(a2, 3)
    lam = LambdaParam((1, 0), (0, 0), 3)
    ch = module_char(mp, lam, 6)
    assert ch.coeffs[0] == weyl_dim(a2, (1, 0)) == 3
    assert ch.base == delta_lambda(mp, lam) - central_charge(mp) / 24
    mp = build_model(a1, 2)
    lam = LambdaParam((1,), (0,), 2)
    assert module_char(mp, lam, 6).coeffs[0] == 2


@pytest.mark.parametrize("t,p", [("A1", 2), ("A1", 3), ("A2", 2)])
def test_module_below_lattice(t, p):
    rs = build_root_system(t)
    mp = build_model(rs, p)
    for lam in lambda_params(mp):
        mc = module_char(mp, lam, 14)
        lc = lattice_char(mp, lam, 14)
        d = mc.base - lc.base
        assert d.denominator == 1 and d >= 0
        d = int(d)
        for j in range(lc.order + 1):
            m = mc.coeffs[j - d] if d <= j else 0
            assert lc.coeffs[j] >= m


def test_to_json_dict():
    a = qseries(Fraction(5, 4), (1, 0, 2))
    assert to_json_dict(a) == {
        "base": {"num": 5, "den": 4},
        "coeffs": [1, 0, 2],
        "order": 2,
    }


def test_assemble_rejects_off_grid_exponents(a2):
    mp = build_model(a2, 3)
    den = 2 * mp.p * a2.det
    with pytest.raises(RuntimeError, match="off the common integer grid"):
        _assemble(mp, [(0, 1), (den + 1, 1)], 5)


def _wide_lattice_window(mp, lam, n):
    """The lattice character through anchor + n from a plain scan of an
    origin-centred box twice the truncation radius, with every
    scaled norm det |.|^2: |beta| <= (sqrt(anchor) + sqrt(top)) / (p sqrt(det))
    and |r_i| <= |beta| sqrt(c^ii).  Returns (leading offset, coefficients)."""
    rs, p = mp.rs, mp.p
    center = tuple(-p * a + s - (p - 1) for a, s in zip(lam.lambda0, lam.sp))
    den = 2 * p * rs.det
    anchor = sum(center[i] * rs.adj[i][j] * center[j]
                 for i in range(rs.rank) for j in range(rs.rank))
    top = anchor + n * den
    # (sqrt(anchor) + sqrt(top))^2 / (p^2 det) bounds |beta|^2 from above
    beta_sq = Fraction((math.isqrt(anchor) + math.isqrt(top) + 2) ** 2, rs.det * p * p)
    maxima = [2 * (math.isqrt(math.ceil(beta_sq * rs.inv_cartan[i][i])) + 1)
              for i in range(rs.rank)]
    ranks = range(rs.rank)
    offsets = []
    for r in itertools.product(*(range(-m, m + 1) for m in maxima)):
        x = [c - p * sum(rs.cartan[i][j] * r[j] for j in ranks)
             for i, c in enumerate(center)]
        s = sum(x[i] * sum(rs.adj[i][j] * x[j] for j in ranks) for i in ranks)
        assert (s - anchor) % den == 0
        offsets.append((s - anchor) // den)
    lo = min(offsets)
    eta = oracles.colored_partitions(rs.rank, n - lo)
    coeffs = [sum(eta[k - (o - lo)] for o in offsets if o - lo <= k)
              for k in range(n - lo + 1)]
    return lo, coeffs


CERTIFICATE_CASES = (
    [("A1", p, (lam0,), (sp,), 12) for p in (2, 3, 5) for lam0 in (0, 1) for sp in range(p)]
    + [("A2", 3, (0, 0), (1, 2), 12), ("A2", 3, (1, 0), (0, 0), 12),
       ("A2", 4, (0, 1), (3, 1), 12),
       ("A3", 4, (0, 0, 0), (0, 0, 0), 6), ("A3", 4, (0, 1, 0), (2, 0, 3), 6),
       ("D4", 6, (0, 0, 0, 0), (5, 5, 5, 5), 6), ("D4", 6, (0, 0, 0, 0), (4, 5, 3, 5), 6),
       ("D4", 6, (1, 0, 0, 0), (5, 5, 5, 5), 3)]
)


@pytest.mark.parametrize("t,p,lam0,sp,n", CERTIFICATE_CASES)
def test_lattice_char_truncation_certificate(t, p, lam0, sp, n):
    """Scanning twice the truncation radius changes no coefficient of the
    window; the window is a prefix of a longer one and dominates the module."""
    rs = build_root_system(t)
    mp = build_model(rs, p)
    lam = LambdaParam(lam0, sp, p)
    ch = lattice_char(mp, lam, n)
    lo, coeffs = _wide_lattice_window(mp, lam, n)
    anchor = delta_lambda(mp, lam) - central_charge(mp) / 24
    assert ch.base == anchor + lo
    assert ch.coeffs == tuple(coeffs)

    longer = lattice_char(mp, lam, n + 3)
    assert longer.base == ch.base
    assert longer.coeffs[: ch.order + 1] == ch.coeffs

    mc = module_char(mp, lam, n)
    d = mc.base - ch.base
    assert d.denominator == 1 and d >= 0
    for j, c in enumerate(mc.coeffs[: ch.order + 1 - int(d)]):
        assert 0 <= c <= ch.coeffs[j + int(d)]
