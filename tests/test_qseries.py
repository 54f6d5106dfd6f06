import itertools
import math
import random
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_forms
from tripletw import (
    WEYL_CAP,
    CapExceeded,
    IncompatibleBases,
    LambdaParam,
    NarrowViolation,
    OrderUnderflow,
    PreconditionError,
    ScaledWeight,
    act,
    build_model,
    build_root_system,
    central_charge,
    conformal_weight,
    delta_lambda,
    enum_dominant_in_Q,
    eta_inv_pow,
    fock_char,
    lambda0_set,
    lattice_char,
    module_char,
    qs_add,
    qs_eq,
    qs_mul,
    qs_scale,
    to_json_dict,
    w_char,
    w_char_affine,
    weyl_dim,
    weyl_enumerate,
)
import tripletw.qseries as qseries_module
from tripletw.params import lambda_params, lambda_x, narrow
from tripletw.qseries import QSeries, _assemble, _w_terms, colored_partitions, qseries


def test_qseries_submodule_is_a_module():
    import tripletw.qseries as m

    assert isinstance(m, types.ModuleType)
    assert m.qseries is qseries


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
        closed_forms.colored_partitions(colors, 40)
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
    assert ch.coeffs == tuple(closed_forms.colored_partitions(2, 12))


def test_w_char_a1_p2_vacuum_vs_partition_oracle(a1):
    mp = build_model(a1, 2)
    lam = LambdaParam((0,), (0,), 2)
    ch = w_char(mp, (0,), lam, 9)
    assert ch.base == Fraction(1, 12)
    want = tuple(
        closed_forms.partitions(n) - closed_forms.partitions(n - 1) for n in range(10)
    )
    assert ch.coeffs == want == (1, 0, 1, 1, 2, 2, 4, 4, 7, 8)


def test_w_char_a1_p2_other_digit(a1):
    # sp=(1,) sits on the narrow boundary; exponents 0 and 2 give the
    # difference p(n) - p(n-2)
    mp = build_model(a1, 2)
    ch = w_char(mp, (0,), LambdaParam((0,), (1,), 2), 8)
    assert ch.base == Fraction(-1, 24)
    assert ch.coeffs == tuple(
        closed_forms.partitions(n) - closed_forms.partitions(n - 2) for n in range(9)
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
    with pytest.raises(PreconditionError, match="root lattice"):
        w_char(mp, (1,), lam, 5)
    with pytest.raises(PreconditionError, match="dominant"):
        w_char(mp, (-2,), lam, 5)


def test_w_char_narrow_guard(a2):
    mp = build_model(a2, 2)
    lam = LambdaParam((0, 0), (1, 1), 2)
    w_char(mp, (0, 0), lam, 5)  # direct route has no narrowness condition
    with pytest.raises(NarrowViolation, match="^not narrow: .* > p = 2$"):
        w_char_affine(mp, (0, 0), lam, 5)
    assert issubclass(NarrowViolation, PreconditionError)


def test_lattice_char_a1_p2_vs_triangular_offsets(a1):
    # exponents (2j+1)^2/8 over j >= 0, offsets from the leading one are the
    # triangular numbers j(j+1)/2
    mp = build_model(a1, 2)
    ch = lattice_char(mp, LambdaParam((0,), (0,), 2), 12)
    assert ch.base == Fraction(1, 12)
    tri = [j * (j + 1) // 2 for j in range(7)]
    want = tuple(
        sum(closed_forms.partitions(n - t) for t in tri) for n in range(13)
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
                closed_forms.partitions(n - (2 * m * m + m))
                - closed_forms.partitions(n - (2 * m * m + 3 * m + 1))
            )
        want.append(c)
    assert ch.coeffs == tuple(want)
    assert ch.coeffs[:3] == (1, 0, 1)


@pytest.mark.parametrize("p", range(2, 8))
def test_module_char_a1_vs_fgst_theta_form(a1, p):
    mp = build_model(a1, p)
    for lam0 in (0, 1):
        for sp in range(p):
            ch = module_char(mp, LambdaParam((lam0,), (sp,), p), 20)
            want = closed_forms.a1_module_char(p, lam0, sp, 20)
            assert (ch.base, ch.coeffs) == want, (lam0, sp)


@pytest.mark.parametrize("t,ps,n", [("A1", range(2, 8), 20), ("A2", (3, 4), 20)])
def test_lattice_char_vs_orthonormal_model_every_parameter(t, ps, n):
    rs = build_root_system(t)
    for p in ps:
        for lam in lambda_params(build_model(rs, p)):
            ch = lattice_char(build_model(rs, p), lam, n)
            want = closed_forms.lattice_char_orthonormal(t[0], p, lam.lambda0, lam.sp, n)
            assert (ch.base, ch.coeffs) == want, (p, lam)


LATTICE_FIXED_CASES = [
    ("A3", 4, [((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (3, 0, 2)),
               ((0, 1, 0), (1, 2, 3)), ((0, 0, 1), (3, 3, 3))]),
    ("D4", 6, [((0, 0, 0, 0), (0, 0, 0, 0)), ((1, 0, 0, 0), (5, 0, 1, 2)),
               ((0, 0, 1, 0), (2, 4, 0, 5)), ((0, 0, 0, 1), (5, 5, 5, 5))]),
]


@pytest.mark.parametrize("t,p,cases", LATTICE_FIXED_CASES)
def test_lattice_char_vs_orthonormal_model_fixed_cases(t, p, cases):
    mp = build_model(build_root_system(t), p)
    for lam0, sp in cases:
        ch = lattice_char(mp, LambdaParam(lam0, sp, p), 8)
        want = closed_forms.lattice_char_orthonormal(t[0], p, lam0, sp, 8)
        assert (ch.base, ch.coeffs) == want, (lam0, sp)


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


def _assemble_per_term(mp, terms, n, anchor_scaled=None):
    """_assemble as it was before it summed per exponent: one pass of the eta
    power per term.  The reference for test_assemble_matches_per_term_loop."""
    rs = mp.rs
    den = 2 * mp.p * rs.det
    terms = list(terms)
    if anchor_scaled is None:
        anchor_scaled = min(s for s, _ in terms)
    offsets = []
    for s, m in terms:
        d = s - anchor_scaled
        if d % den:
            raise RuntimeError(f"exponent {s}/{den} is off the common integer grid "
                               f"of {anchor_scaled}/{den}")
        offsets.append((d // den, m))
    lo = min(off for off, _ in offsets)
    width = n - lo
    if width < 0:
        return QSeries(base=Fraction(anchor_scaled, den) - Fraction(rs.rank, 24) + n,
                       coeffs=(0,), order=0)
    eta = colored_partitions(rs.rank, width)
    out = [0] * (width + 1)
    for off, m in offsets:
        if off > n:
            continue
        for pos in range(off - lo, width + 1):
            out[pos] += m * eta[pos - (off - lo)]
    base = Fraction(anchor_scaled, den) - Fraction(rs.rank, 24) + lo
    return qseries(base, out)


ASSEMBLE_CASES = [
    # one exponent repeated, with other terms between its copies
    [(7, 1), (7 + 18, -1), (7, 2), (7 + 36, 1), (7, -1)],
    # the multiplicities cancel at the least exponent, which still sets lo
    [(7, 1), (7 + 18, 3), (7, -1)],
    [(7 - 18, 2), (7 - 18, -2), (7 + 18, 1), (7 + 18, 1)],
    # everything cancels
    [(7, 1), (7, -1)],
]


@pytest.mark.parametrize("terms", ASSEMBLE_CASES)
@pytest.mark.parametrize("anchor", (None, 7, 7 + 54))
@pytest.mark.parametrize("n", (0, 2, 6))
def test_assemble_matches_per_term_loop(a2, terms, anchor, n):
    mp = build_model(a2, 3)
    assert 2 * mp.p * a2.det == 18
    want = _assemble_per_term(mp, terms, n, anchor)
    assert _assemble(mp, iter(terms), n, anchor) == want


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 10), st.integers(-3, 3)), min_size=1,
                max_size=14),
       st.one_of(st.none(), st.integers(-3, 10)), st.integers(0, 9))
def test_assemble_matches_per_term_loop_on_random_terms(a2, terms, anchor, n):
    mp = build_model(a2, 3)
    den = 2 * mp.p * a2.det
    terms = [(5 + den * k, m) for k, m in terms]
    anchor = None if anchor is None else 5 + den * anchor
    assert _assemble(mp, terms, n, anchor) == _assemble_per_term(mp, terms, n, anchor)


def test_assemble_rejects_no_terms(a2):
    mp = build_model(a2, 3)
    with pytest.raises(RuntimeError, match="no terms"):
        _assemble(mp, iter(()), 5, anchor_scaled=0)


def test_negative_windows_are_rejected_at_entry(a2):
    mp = build_model(a2, 3)
    lam = LambdaParam((0, 0), (0, 0), 3)
    calls = {
        "fock_char": lambda n: fock_char(mp, ScaledWeight((0, 0), 3), n),
        "w_char": lambda n: w_char(mp, (0, 0), lam, n),
        "w_char_affine": lambda n: w_char_affine(mp, (0, 0), lam, n),
        "module_char": lambda n: module_char(mp, lam, n),
        "lattice_char": lambda n: lattice_char(mp, lam, n),
    }
    for name, call in calls.items():
        for n in (-1, -3, -50):
            with pytest.raises(ValueError, match=f"n = {n} is negative"):
                call(n)
        assert call(0).order >= 0, name


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
    eta = closed_forms.colored_partitions(rs.rank, n - lo)
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


def _alpha_region_cases():
    """Every A1 parameter for p = 2..7, every A2 parameter for p = 3, 4, and
    the fixed A3 and D4 parameters of the lattice oracle, as (mp, lam)."""
    for t, ps in (("A1", range(2, 8)), ("A2", (3, 4))):
        rs = build_root_system(t)
        for p in ps:
            mp = build_model(rs, p)
            yield from ((mp, lam) for lam in lambda_params(mp))
    for t, p, cases in LATTICE_FIXED_CASES:
        mp = build_model(build_root_system(t), p)
        yield from ((mp, LambdaParam(lam0, sp, p)) for lam0, sp in cases)


def _widen_alpha_scan(monkeypatch, factor=4):
    """Make _alpha_candidates scan `factor` times the bound it asks _boxes
    for (plus `factor`, so that a bound of 0 widens too); returns the list
    of the bounds asked."""
    asked = []
    boxes = qseries_module._boxes

    def wide(gram, bound, lower):
        asked.append(bound)
        return boxes(gram, factor * (bound + 1), lower)

    monkeypatch.setattr(qseries_module, "_boxes", wide)
    return asked


def test_widening_the_alpha_scan_changes_no_module_char(monkeypatch):
    """The alpha region is a truncation certificate: four times its bound
    changes no coefficient of module_char at n = 20."""
    cases = list(_alpha_region_cases())
    want = [module_char(mp, lam, 20) for mp, lam in cases]
    asked = _widen_alpha_scan(monkeypatch)
    assert [module_char(mp, lam, 20) for mp, lam in cases] == want
    assert len(asked) == len(cases)


def test_every_kept_alpha_lies_in_the_integer_radius(monkeypatch):
    """Every alpha the drop test keeps from a scan four times wider has
    det |alpha + lambda0 + rho|^2 <= r^2 // p^2, the bound the scan asks."""
    asked = _widen_alpha_scan(monkeypatch)
    kept = 0
    for mp, lam in _alpha_region_cases():
        rs = mp.rs
        for alpha in qseries_module._alpha_candidates(mp, lam, 20):
            v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
            v_det = sum(v[i] * rs.adj[i][j] * v[j]
                        for i in range(rs.rank) for j in range(rs.rank))
            assert v_det <= asked[-1], (str(rs.type), mp.p, lam, alpha)
            kept += 1
    assert kept > len(asked)


# --- the direct route's orbit walk -------------------------------------------

def _scaled(rs, x):
    """det |x|^2 for x in fundamental coordinates, summed by hand."""
    return sum(x[i] * rs.adj[i][j] * x[j] for i in range(rs.rank) for j in range(rs.rank))


def _sweep_terms(mp, alpha, lam):
    """(det |p sigma(v) - u|^2, (-1)^l(sigma)) over all of W, from the
    enumerated group and its action matrices."""
    rs, p = mp.rs, mp.p
    v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
    u = tuple(s + 1 for s in lam.sp)
    return [(_scaled(rs, tuple(p * c - b for c, b in zip(act(w, v), u))), (-1) ** len(w.word))
            for w in weyl_enumerate(rs)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_walk_equals_weyl_sweep(data):
    """Cut above every orbit exponent, the walk yields each element's term
    exactly once."""
    rs = build_root_system(data.draw(st.sampled_from(("A1", "A2", "A3", "A4", "D4", "D5"))))
    p = data.draw(st.integers(2, rs.coxeter_h + 2))
    lam = LambdaParam(data.draw(st.sampled_from(lambda0_set(rs))),
                      data.draw(st.tuples(*[st.integers(0, p - 1)] * rs.rank)), p)
    alpha = data.draw(st.sampled_from(enum_dominant_in_Q(rs, 2, relative=True)))
    mp = build_model(rs, p)
    v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
    u = tuple(s + 1 for s in lam.sp)
    # |p sigma(v) - u|^2 <= (p|v| + |u|)^2 <= 2 (p^2 |v|^2 + |u|^2)
    bound = 2 * (p * p * _scaled(rs, v) + _scaled(rs, u))
    n = -(-bound // (2 * p * rs.det))
    walk = _w_terms(mp, alpha, lam, n)
    assert len(walk) == rs.weyl_order
    assert Counter(walk) == Counter(_sweep_terms(mp, alpha, lam))


@pytest.mark.parametrize("t", ("A2", "A3", "A4", "D4"))
def test_widening_the_cut_changes_nothing(t):
    """The cut is a truncation certificate: the window at n is a prefix of
    the window at n + 4, and the walk cut at a top keeps exactly the swept
    terms up to it, plus the root term."""
    rs = build_root_system(t)
    p = rs.coxeter_h
    mp = build_model(rs, p)
    den = 2 * p * rs.det
    lams = lambda_params(mp)
    for lam in lams[:: max(1, len(lams) // 4)]:
        for n in (0, 3, 6):
            for alpha in ((0,) * rs.rank, rs.theta):
                ch, wide = w_char(mp, alpha, lam, n), w_char(mp, alpha, lam, n + 4)
                assert (wide.base, wide.coeffs[: n + 1]) == (ch.base, ch.coeffs)
            ch, wide = module_char(mp, lam, n), module_char(mp, lam, n + 4)
            assert (wide.base, wide.coeffs[: n + 1]) == (ch.base, ch.coeffs)
        fock = _scaled(rs, tuple(c - (p - 1) for c in lambda_x(mp, lam).x))
        for alpha in ((0,) * rs.rank, rs.theta):
            sweep = _sweep_terms(mp, alpha, lam)
            root = min(sweep)
            for n, anchor in ((0, None), (5, None), (-3, fock), (2, fock)):
                top = (root[0] if anchor is None else anchor) + n * den
                want = Counter(term for term in sweep if term[0] <= top)
                want[root] = 1
                assert Counter(_w_terms(mp, alpha, lam, n, anchor)) == want


def _check_weyl_denominator(t):
    rs = build_root_system(t)
    h = rs.coxeter_h
    zero = (0,) * rs.rank
    for p in sorted({max(2, h - 1), h + 1}):
        mp = build_model(rs, p)
        for alpha in (zero, rs.theta):
            v = tuple(a + 1 for a in alpha)
            ch = w_char(mp, alpha, LambdaParam(zero, zero, p), 14)
            want = closed_forms.weyl_denominator_char(rs.positive_roots, rs.inv_cartan,
                                                      p, v, rs.rho, 14)
            assert (ch.base, list(ch.coeffs)) == want, (t, p, alpha)


@pytest.mark.parametrize("t", ("A1", "A2", "A3", "A4", "D4", "D5", "E6"))
def test_w_char_vs_weyl_denominator(t):
    _check_weyl_denominator(t)


@pytest.mark.parametrize("t", ("A2", "A3", "D4", "D5", "E6"))
def test_w_char_vs_weyl_denominator_on_both_sides(t):
    # u = rho (sp = 0) with every lambda0 class at alpha = 0, and v = rho
    # (alpha = lambda0 = 0) with digit vectors: zero, all p - 1 and eight
    # drawn with a fixed seed, at p = h + 1
    rs = build_root_system(t)
    p = rs.coxeter_h + 1
    mp = build_model(rs, p)
    zero = (0,) * rs.rank
    rng = random.Random(0)
    digits = [zero, (p - 1,) * rs.rank]
    digits += [tuple(rng.randrange(p) for _ in zero) for _ in range(8)]
    cases = [(lam0, zero) for lam0 in lambda0_set(rs)] + [(zero, sp) for sp in digits]
    for lam0, sp in cases:
        v = tuple(c + 1 for c in lam0)
        u = tuple(s + 1 for s in sp)
        ch = w_char(mp, zero, LambdaParam(lam0, sp, p), 10)
        want = closed_forms.weyl_denominator_char(rs.positive_roots, rs.inv_cartan, p, v, u, 10)
        assert (ch.base, list(ch.coeffs)) == want, (t, lam0, sp)


def test_weyl_denominator_needs_rho_on_one_side(a2):
    with pytest.raises(ValueError, match="one of v and u must be rho"):
        closed_forms.weyl_denominator_char(a2.positive_roots, a2.inv_cartan, 3,
                                           (2, 1), (1, 2), 4)


@pytest.mark.parametrize("t", ("E7", "E8"))
def test_w_char_vs_weyl_denominator_above_the_default_cap(t):
    token = WEYL_CAP.set(10**9)
    try:
        _check_weyl_denominator(t)
    finally:
        WEYL_CAP.reset(token)


def test_direct_characters_enumerate_no_weyl_group(monkeypatch, d4, a2):
    import tripletw.rootsys as rootsys

    def refuse(rs):
        raise AssertionError(f"the Weyl group of {rs.type} was enumerated")

    monkeypatch.setattr(rootsys, "_enumerate", refuse)
    mp = build_model(d4, 6)
    lam = LambdaParam((1, 0, 0, 0), (1, 0, 2, 3), 6)
    # both series as computed by the full Weyl sweep
    assert w_char(mp, d4.theta, lam, 6) == qseries(
        Fraction(739, 12), (1, 4, 13, 35, 85, 190, 402))
    assert module_char(mp, lam, 5) == qseries(
        Fraction(367, 12), (8, 24, 80, 200, 472, 1008))
    mp = build_model(a2, 3)
    lam = LambdaParam((0, 0), (0, 0), 3)
    token = WEYL_CAP.set(5)
    try:
        for call in (lambda: w_char(mp, (0, 0), lam, 4), lambda: module_char(mp, lam, 4)):
            with pytest.raises(CapExceeded) as ei:
                call()
            assert (ei.value.required, ei.value.cap) == (6, 5)
    finally:
        WEYL_CAP.reset(token)
