"""Truncated q-expansions with exact rational base exponents.

A QSeries holds integer coefficients on the grid base, base+1, ..., base+order
and is exact on that whole window.  Every character in the package lives on a
single such coset because conformal weights within one module differ by
integers; adding series from different cosets is rejected rather than merged.

Character families: Fock modules, the signed Weyl sum over one parameter
(direct and affine-orbit forms), the full module decomposition weighted by
classical dimensions, and lattice-module characters.  The infinite sums are
truncated by certified bounds: a term is dropped only when the reverse
triangle inequality proves its minimal exponent exceeds the requested window,
with all square-root comparisons done on squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._exact import IntVec, dot, lattice_points, mat_vec, sqrt_upper
from .affine import affine_exponent
from .params import (
    LambdaParam,
    ModelParams,
    NarrowViolation,
    ScaledWeight,
    _check_p,
    _int_vec,
    narrow,
    narrow_margin,
)
from .rootsys import (
    act,
    fund_to_root,
    in_root_lattice,
    norm_sq,
    root_to_fund,
    weyl_dim,
    weyl_enumerate,
)


class IncompatibleBases(ValueError):
    """Operands live on different fractional exponent cosets."""


class OrderUnderflow(ValueError):
    """The operands' reliable windows do not reach the requested order."""

    def __init__(self, msg: str, required: int):
        super().__init__(f"{msg}; required order {required}")
        self.required = required


@dataclass(frozen=True)
class QSeries:
    base: Fraction
    coeffs: tuple[int, ...]  # coefficient of q^(base + n)
    order: int               # == len(coeffs) - 1


def qseries(base, coeffs) -> QSeries:
    """Build a series, normalizing so the base is the true leading exponent.

    Stripping leading zeros keeps the top of the window fixed, so the result
    is exact on the same range it was handed.
    """
    coeffs = tuple(int(c) for c in coeffs)
    if not coeffs:
        raise ValueError("empty coefficient window")
    base = Fraction(base)
    k = next((i for i, c in enumerate(coeffs) if c != 0), None)
    if k is None:
        return QSeries(base=base, coeffs=coeffs, order=len(coeffs) - 1)
    if k:
        base += k
        coeffs = coeffs[k:]
    return QSeries(base=base, coeffs=coeffs, order=len(coeffs) - 1)


def qs_is_zero(a: QSeries) -> bool:
    return all(c == 0 for c in a.coeffs)


def qs_top(a: QSeries) -> Fraction:
    """Highest exponent the series is reliable through."""
    return a.base + a.order


def _coeff_at(a: QSeries, n: int) -> int:
    # offset n relative to a.base; callers never ask above the window
    if n < 0:
        return 0
    assert n <= a.order
    return a.coeffs[n]


def _aligned(a: QSeries, b: QSeries) -> bool:
    return (a.base - b.base).denominator == 1


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    """Exact sum on the intersection of the reliable windows."""
    if qs_is_zero(a) and not _aligned(a, b):
        a, b = b, a
    if qs_is_zero(b) and not _aligned(a, b):
        # the zero operand only narrows the window
        limit = min(qs_top(a), qs_top(b))
        n_max = _floor_frac(limit - a.base)
        if n_max < 0:
            raise OrderUnderflow(
                f"window of the zero operand (top {limit}) ends below base {a.base}",
                required=_ceil_frac(a.base - b.base),
            )
        return qseries(a.base, a.coeffs[: n_max + 1])
    if not _aligned(a, b):
        raise IncompatibleBases(
            f"bases {a.base} and {b.base} differ by a non-integer"
        )
    bmin = min(a.base, b.base)
    top = min(qs_top(a), qs_top(b))
    n_max = top - bmin
    if n_max < 0:
        short = a if qs_top(a) <= qs_top(b) else b
        raise OrderUnderflow(
            f"combined base {bmin} exceeds common reliable top {top}",
            required=int(bmin - short.base),
        )
    n_max = int(n_max)
    da = int(a.base - bmin)
    db = int(b.base - bmin)
    out = [
        (_coeff_at(a, n - da) if n >= da else 0) + (_coeff_at(b, n - db) if n >= db else 0)
        for n in range(n_max + 1)
    ]
    return qseries(bmin, out)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def qs_scale(a: QSeries, m: int) -> QSeries:
    if not isinstance(m, int):
        raise ValueError("scale factor must be an integer")
    return qseries(a.base, tuple(m * c for c in a.coeffs))


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Exact product; the reliable order is the smaller of the two."""
    order = min(a.order, b.order)
    base = a.base + b.base
    if qs_is_zero(a) or qs_is_zero(b):
        return QSeries(base=base, coeffs=(0,) * (order + 1), order=order)
    out = [0] * (order + 1)
    for i, ca in enumerate(a.coeffs[: order + 1]):
        if ca == 0:
            continue
        for j in range(order + 1 - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] += ca * cb
    return qseries(base, out)


def qs_eq(a: QSeries, b: QSeries, order: int) -> bool:
    """Exact termwise comparison through min(base) + order."""
    za, zb = qs_is_zero(a), qs_is_zero(b)
    if not _aligned(a, b):
        if not (za or zb):
            raise IncompatibleBases(
                f"bases {a.base} and {b.base} differ by a non-integer"
            )
        nz = b if za else a
        # the zero operand must cover the window, on its own grid
        need = min(qs_top(a), qs_top(b))
        if need < nz.base + order:
            raise OrderUnderflow("zero operand window too short", required=order)
        return all(c == 0 for c in nz.coeffs[: order + 1])
    bmin = min(a.base, b.base)
    top = bmin + order
    for s in (a, b):
        if qs_top(s) < top:
            raise OrderUnderflow(
                f"operand reliable only through {qs_top(s)}, need {top}",
                required=int(top - s.base),
            )
    da = int(a.base - bmin)
    db = int(b.base - bmin)
    for n in range(order + 1):
        ca = _coeff_at(a, n - da) if n >= da else 0
        cb = _coeff_at(b, n - db) if n >= db else 0
        if ca != cb:
            return False
    return True


# --- eta powers ------------------------------------------------------------

@lru_cache(maxsize=None)
def colored_partitions(colors: int, n: int) -> tuple[int, ...]:
    """Partition numbers with parts in `colors` colors, through n."""
    if colors < 1:
        raise ValueError("colors must be >= 1")
    arr = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(colors):
            for m in range(k, n + 1):
                arr[m] += arr[m - k]
    return tuple(arr)


def eta_inv_pow(l: int, n: int) -> QSeries:
    """eta(q)^(-l) = q^(-l/24) * sum of l-colored partition numbers."""
    return QSeries(base=Fraction(-l, 24), coeffs=colored_partitions(l, n), order=n)


# --- characters ------------------------------------------------------------

def _scaled_norm(rs, x) -> int:
    """det * |x|^2 for an integer vector in fundamental coordinates."""
    return dot(x, mat_vec(rs.adj, x))


def _fock_scaled(mp: ModelParams, x: IntVec) -> int:
    """2 p det times the leading Fock exponent |x - (p-1) rho|^2 / 2p."""
    shifted = tuple(c - (mp.p - 1) for c in x)
    return _scaled_norm(mp.rs, shifted)


def fock_char(mp: ModelParams, mu: ScaledWeight, n: int) -> QSeries:
    """Character of the Fock module of mu, exact through its base + n."""
    _check_p(mp, mu.p)
    rs = mp.rs
    den = 2 * mp.p * rs.det
    base = Fraction(_fock_scaled(mp, mu.x), den) - Fraction(rs.rank, 24)
    return QSeries(base=base, coeffs=colored_partitions(rs.rank, n), order=n)


def _require_alpha(rs, alpha) -> IntVec:
    a = _int_vec(alpha, rs.rank)
    if any(c < 0 for c in a):
        raise ValueError(f"alpha {alpha} is not dominant")
    if not in_root_lattice(rs, a):
        raise ValueError(f"alpha {alpha} is not in the root lattice")
    return a


def _w_terms(mp: ModelParams, alpha, lam: LambdaParam, weyl_cap) -> list[tuple[int, int]]:
    """Signed Weyl orbit exponents for one (alpha, lambda), scaled by 2 p det."""
    rs = mp.rs
    p = mp.p
    v = tuple(int(a) + l0 + 1 for a, l0 in zip(alpha, lam.lambda0, strict=True))
    u = tuple(s + 1 for s in lam.sp)
    out = []
    for w in weyl_enumerate(rs, weyl_cap):
        moved = tuple(p * c - b for c, b in zip(act(w, v), u))
        out.append((_scaled_norm(rs, moved), w.sign))
    return out


def _assemble(mp: ModelParams, terms, n: int, anchor_scaled: int | None = None) -> QSeries:
    """Sum of signed eta-quotient monomials, exact through anchor + n.

    terms: iterable of (scaled exponent, multiplicity); all exponents must
    lie on one integer-step coset of the scaled grid.
    """
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


def w_char(mp: ModelParams, alpha, lam: LambdaParam, n: int,
           weyl_cap: int | None = None) -> QSeries:
    """Signed Weyl sum character of the pair (alpha, lambda), direct form:
    sum over sigma of (-1)^l(sigma) q^(|p sigma(v) - u|^2 / 2p) over eta^l,
    with v = alpha + lambda0 + rho and u = s + rho."""
    _check_p(mp, lam.p)
    alpha = _require_alpha(mp.rs, alpha)
    return _assemble(mp, _w_terms(mp, alpha, lam, weyl_cap), n)


def w_char_affine(mp: ModelParams, alpha, lam: LambdaParam, n: int,
                  weyl_cap: int | None = None) -> QSeries:
    """The same character assembled from affine-orbit exponents; defined for
    narrow lambda and equal to w_char term by term."""
    _check_p(mp, lam.p)
    alpha = _require_alpha(mp.rs, alpha)
    if not narrow(mp, lam.sp):
        raise NarrowViolation(
            f"(sqrt(p) lambda_p + rho, theta) = {narrow_margin(mp, lam.sp) + mp.p} "
            f"> p = {mp.p}"
        )
    rs = mp.rs
    den = 2 * mp.p * rs.det
    terms = []
    for w in weyl_enumerate(rs, weyl_cap):
        e = affine_exponent(mp, w, alpha, lam)
        scaled = e * den
        if scaled.denominator != 1:
            raise RuntimeError(f"affine exponent {e} is off the grid 1/{den}")
        terms.append((scaled.numerator, w.sign))
    return _assemble(mp, terms, n)


def _alpha_candidates(mp: ModelParams, lam: LambdaParam, n: int):
    """Dominant alpha in Q whose Weyl terms can reach the target window.

    The minimal exponent of the (alpha, lambda) orbit is at least
    (p|v| - |u|)^2 / 2p once p|v| >= |u|; a candidate is dropped exactly
    when that bound exceeds the window top.  Comparisons stay on squares.
    """
    rs = mp.rs
    p = mp.p
    u = tuple(s + 1 for s in lam.sp)
    u_sq = Fraction(_scaled_norm(rs, u), rs.det)
    anchor = Fraction(_fock_scaled(mp, lambda_x_vec(mp, lam)), 2 * p * rs.det)
    t_star = anchor + n  # top of the window, with the eta offset removed
    two_p_t = max(2 * p * t_star, Fraction(0))
    cap = (sqrt_upper(u_sq) + sqrt_upper(two_p_t)) / p
    lam0 = lam.lambda0
    for v in _boxes(rs.inv_cartan, cap * cap, tuple(l0 + 1 for l0 in lam0)):
        alpha = tuple(c - l0 - 1 for c, l0 in zip(v, lam0))
        if not in_root_lattice(rs, alpha):
            continue
        v_sq = norm_sq(rs, v)
        # drop test: p|v| >= |u| and (p|v| - |u|)^2 > 2p * t_star
        a = p * p * v_sq + u_sq - 2 * p * t_star
        if p * p * v_sq >= u_sq and a > 0 and a * a > 4 * p * p * v_sq * u_sq:
            continue
        yield alpha


def _boxes(gram, bound, lower):
    # kept by name: bench/tracing.py counts the candidates scanned here
    return lattice_points(gram, (0,) * len(lower), bound, lower)


def lambda_x_vec(mp: ModelParams, lam: LambdaParam) -> IntVec:
    return tuple(-mp.p * a + s for a, s in zip(lam.lambda0, lam.sp))


def module_char(mp: ModelParams, lam: LambdaParam, n: int,
                weyl_cap: int | None = None) -> QSeries:
    """Graded dimensions of the full module of lambda: the sum over dominant
    alpha in Q of dim L(alpha + lambda0) times the (alpha, lambda) Weyl sum,
    truncated by the certified exponent bound."""
    _check_p(mp, lam.p)
    rs = mp.rs
    anchor_scaled = _fock_scaled(mp, lambda_x_vec(mp, lam))
    terms = []
    for alpha in _alpha_candidates(mp, lam, n):
        dim = weyl_dim(rs, tuple(a + l0 for a, l0 in zip(alpha, lam.lambda0)))
        terms.extend(
            (s, dim * sign) for s, sign in _w_terms(mp, alpha, lam, weyl_cap)
        )
    return _assemble(mp, terms, n, anchor_scaled=anchor_scaled)


def lattice_char(mp: ModelParams, lam: LambdaParam, n: int) -> QSeries:
    """Graded dimensions of the lattice module of lambda: Fock characters
    summed over exactly those sqrt(p) Q translates whose leading exponent
    lies in the window."""
    _check_p(mp, lam.p)
    rs = mp.rs
    p = mp.p
    den = 2 * p * rs.det
    x_lam = lambda_x_vec(mp, lam)
    center = tuple(c - (p - 1) for c in x_lam)  # x_lambda - (p-1) rho
    anchor_scaled = _scaled_norm(rs, center)
    top_scaled = anchor_scaled + n * den
    # x = center - p C r = -p C (r - c) with c = C^-1 center / p, so
    # det |x|^2 <= top is (r - c)^T C (r - c) <= top / (p^2 det)
    c = tuple(x / p for x in fund_to_root(rs, center))
    terms = []
    for r in _signed_boxes(rs.cartan, c, Fraction(top_scaled, p * p * rs.det)):
        x = tuple(a - p * b for a, b in zip(center, root_to_fund(rs, r)))
        terms.append((_scaled_norm(rs, x), 1))
    return _assemble(mp, terms, n, anchor_scaled=anchor_scaled)


def _signed_boxes(gram, center, bound):
    # kept by name: bench/tracing.py counts the lattice points scanned here
    return lattice_points(gram, center, bound)


def to_json_dict(a: QSeries) -> dict:
    return {
        "base": {"num": a.base.numerator, "den": a.base.denominator},
        "coeffs": list(a.coeffs),
        "order": a.order,
    }
