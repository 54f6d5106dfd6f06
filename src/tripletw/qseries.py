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
with all square-root comparisons done on squares.  A Weyl sum is walked over
its orbit, where the exponent rises along every step, and is cut at the
window top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from ._exact import IntVec, dot, int_vec, lattice_points, mat_vec, sqrt_upper
from .affine import _affine_terms
from .params import (
    LambdaParam,
    ModelParams,
    PreconditionError,
    ScaledWeight,
    _check_p,
    lambda_x,
)
from .rootsys import (
    check_weyl_cap,
    in_root_lattice,
    weyl_dim,
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
    is exact on the same range it was handed.  The base is an int or a
    Fraction; anything else, a float included, raises ValueError.
    """
    coeffs = int_vec(coeffs, len(coeffs))
    if not coeffs:
        raise ValueError("empty coefficient window")
    if type(base) is not Fraction:
        if not isinstance(base, (int, Fraction)):
            raise ValueError(f"series base {base!r} is neither an int nor a Fraction")
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
    if n > a.order:
        raise RuntimeError(f"offset {n} is above the window of order {a.order}")
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
        n_max = floor(limit - a.base)
        if n_max < 0:
            raise OrderUnderflow(
                f"window of the zero operand (top {limit}) ends below base {a.base}",
                required=ceil(a.base - b.base),
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


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"window length n = {n} is negative")


def _fock_scaled(mp: ModelParams, x: IntVec) -> int:
    """2 p det times the leading Fock exponent |x - (p-1) rho|^2 / 2p."""
    shifted = tuple(c - (mp.p - 1) for c in x)
    return _scaled_norm(mp.rs, shifted)


def fock_char(mp: ModelParams, mu: ScaledWeight, n: int) -> QSeries:
    """Character of the Fock module of mu, exact through its base + n."""
    _check_n(n)
    _check_p(mp, mu.p)
    rs = mp.rs
    den = 2 * mp.p * rs.det
    base = Fraction(_fock_scaled(mp, mu.x), den) - Fraction(rs.rank, 24)
    return QSeries(base=base, coeffs=colored_partitions(rs.rank, n), order=n)


def _require_alpha(rs, alpha) -> IntVec:
    a = int_vec(alpha, rs.rank)
    if any(c < 0 for c in a):
        raise PreconditionError(f"alpha {alpha} is not dominant")
    if not in_root_lattice(rs, a):
        raise PreconditionError(f"alpha {alpha} is not in the root lattice")
    return a


def _w_terms(mp: ModelParams, alpha, lam: LambdaParam, n: int,
             anchor_scaled: int | None = None) -> list[tuple[int, int]]:
    """Signed Weyl orbit exponents for one (alpha, lambda), scaled by 2 p det,
    through the cut top = anchor + n (the anchor defaults to the least term,
    the root, which is kept even above the cut).

    |p sigma(v) - u|^2 = |p v - x|^2 with x = sigma^-1 u, so the terms are the
    points x of the orbit W u, each with sign (-1)^depth: u = s + rho is
    regular dominant, so each point is one sigma.  The walk steps from x to
    s_i x = x - x_i C[i] when x_i > 0, which raises the length by one, and
    only when the child is nonnegative before i, so that x is its canonical
    parent and no point is reached twice.  Such a step raises the exponent
    by 2 p det x_i v_i > 0 (v is regular dominant), so a child above `top`
    is dropped with its whole subtree: the cut is the truncation certificate.
    """
    rs = mp.rs
    p = mp.p
    v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0, strict=True))
    u = tuple(s + 1 for s in lam.sp)
    root = _scaled_norm(rs, tuple(p * c - b for c, b in zip(v, u)))
    den = 2 * p * rs.det
    top = (root if anchor_scaled is None else anchor_scaled) + n * den
    rise = tuple(den * c for c in v)
    cartan = rs.cartan
    out = [(root, 1)]
    stack = [(u, root, 1)]
    while stack:
        x, e, sign = stack.pop()
        for i, xi in enumerate(x):
            if xi <= 0:
                continue
            f = e + xi * rise[i]
            if f > top:
                continue
            y = tuple(c - xi * a for c, a in zip(x, cartan[i]))
            if any(c < 0 for c in y[:i]):
                continue
            out.append((f, -sign))
            stack.append((y, f, -sign))
    return out


def _assemble(mp: ModelParams, terms, n: int, anchor_scaled: int | None = None) -> QSeries:
    """Sum of signed eta-quotient monomials, exact through anchor + n.

    terms: iterable of (scaled exponent, multiplicity), consumed once; all
    exponents must lie on one integer-step coset of the scaled grid.  The
    multiplicities are first summed per exponent, so the eta power is
    convolved once per distinct exponent, not once per term.  An exponent
    whose multiplicities cancel still sets the least offset, and with it the
    window.
    """
    rs = mp.rs
    den = 2 * mp.p * rs.det
    hist = {}
    for s, m in terms:
        hist[s] = hist.get(s, 0) + m
    if not hist:
        raise RuntimeError("no terms to assemble")
    if anchor_scaled is None:
        anchor_scaled = min(hist)
    offsets = []
    for s, m in hist.items():
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
        if off > n or not m:
            continue
        for pos in range(off - lo, width + 1):
            out[pos] += m * eta[pos - (off - lo)]
    base = Fraction(anchor_scaled, den) - Fraction(rs.rank, 24) + lo
    return qseries(base, out)


def w_char(mp: ModelParams, alpha, lam: LambdaParam, n: int) -> QSeries:
    """Signed Weyl sum character of the pair (alpha, lambda), direct form:
    sum over sigma of (-1)^l(sigma) q^(|p sigma(v) - u|^2 / 2p) over eta^l,
    with v = alpha + lambda0 + rho and u = s + rho."""
    _check_n(n)
    _check_p(mp, lam.p)
    rs = mp.rs
    alpha = _require_alpha(rs, alpha)
    check_weyl_cap(rs)
    return _assemble(mp, _w_terms(mp, alpha, lam, n), n)


def w_char_affine(mp: ModelParams, alpha, lam: LambdaParam, n: int) -> QSeries:
    """The same character assembled from affine-orbit exponents; defined for
    narrow lambda and equal to w_char term by term."""
    _check_n(n)
    _check_p(mp, lam.p)
    return _assemble(mp, _affine_terms(mp, _require_alpha(mp.rs, alpha), lam), n)


def _alpha_candidates(mp: ModelParams, lam: LambdaParam, n: int):
    """Dominant alpha in Q whose Weyl terms can reach the target window.

    The minimal exponent of the (alpha, lambda) orbit is at least
    (p|v| - |u|)^2 / 2p once p|v| >= |u|; a candidate is dropped exactly
    when that bound exceeds the window top.  Comparisons stay on squares.
    """
    rs = mp.rs
    p = mp.p
    det = rs.det
    u = tuple(s + 1 for s in lam.sp)
    u_det = _scaled_norm(rs, u)  # det |u|^2
    anchor_scaled = _fock_scaled(mp, lambda_x(mp, lam).x)
    # 2 p det t_star, where t_star = anchor + n is the window top without the
    # eta offset
    top_det = anchor_scaled + 2 * p * det * n
    two_p_t = max(Fraction(top_det, det), Fraction(0))
    cap = (sqrt_upper(Fraction(u_det, det)) + sqrt_upper(two_p_t)) / p
    lam0 = lam.lambda0
    for v, v_det in _boxes(rs.adj, floor(det * cap * cap), tuple(l0 + 1 for l0 in lam0)):
        alpha = tuple(c - l0 - 1 for c, l0 in zip(v, lam0))
        if not in_root_lattice(rs, alpha):
            continue
        # drop test: p|v| >= |u| and (p|v| - |u|)^2 > 2p * t_star, times det
        pv = p * p * v_det
        a = pv + u_det - top_det
        if pv >= u_det and a > 0 and a * a > 4 * pv * u_det:
            continue
        yield alpha


def _boxes(gram, bound, lower):
    # kept by name: bench/tracing.py counts the candidates scanned here
    return lattice_points(gram, (0,) * len(lower), 1, bound, lower)


def module_char(mp: ModelParams, lam: LambdaParam, n: int) -> QSeries:
    """Graded dimensions of the full module of lambda: the sum over dominant
    alpha in Q of dim L(alpha + lambda0) times the (alpha, lambda) Weyl sum,
    truncated by the certified exponent bound."""
    _check_n(n)
    _check_p(mp, lam.p)
    rs = mp.rs
    check_weyl_cap(rs)
    anchor_scaled = _fock_scaled(mp, lambda_x(mp, lam).x)
    terms = []
    for alpha in _alpha_candidates(mp, lam, n):
        dim = weyl_dim(rs, tuple(a + l0 for a, l0 in zip(alpha, lam.lambda0)))
        terms.extend(
            (s, dim * sign) for s, sign in _w_terms(mp, alpha, lam, n, anchor_scaled)
        )
    return _assemble(mp, terms, n, anchor_scaled=anchor_scaled)


def lattice_char(mp: ModelParams, lam: LambdaParam, n: int) -> QSeries:
    """Graded dimensions of the lattice module of lambda: Fock characters
    summed over exactly those sqrt(p) Q translates whose leading exponent
    lies in the window."""
    _check_n(n)
    _check_p(mp, lam.p)
    rs = mp.rs
    p = mp.p
    det = rs.det
    x_lam = lambda_x(mp, lam).x
    center = tuple(c - (p - 1) for c in x_lam)  # x_lambda - (p-1) rho
    anchor_scaled = _scaled_norm(rs, center)
    top_scaled = anchor_scaled + n * 2 * p * det
    # x = center - p C r = -p C (r - c) with c = adj center / (p det), so
    # det |x|^2 = q / det for q = (p det r - adj center)^T C (p det r - adj center)
    num = mat_vec(rs.adj, center)

    def terms():
        for _, q in _signed_boxes(rs.cartan, num, p * det, det * top_scaled):
            scaled, rem = divmod(q, det)
            if rem:
                raise RuntimeError(f"lattice norm {q}/{det} is off the scaled grid")
            yield scaled, 1

    return _assemble(mp, terms(), n, anchor_scaled=anchor_scaled)


def _signed_boxes(gram, num, den, bound):
    # kept by name: bench/tracing.py counts the lattice points scanned here
    return lattice_points(gram, num, den, bound)


def to_json_dict(a: QSeries) -> dict:
    return {
        "base": {"num": a.base.numerator, "den": a.base.denominator},
        "coeffs": list(a.coeffs),
        "order": a.order,
    }
