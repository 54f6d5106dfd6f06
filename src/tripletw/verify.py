"""Named property suites over parameter grids, with machine-readable reports.

Every check pits the package's primary formula against an independent route:
brute-force enumeration, a second closed form, or a direct lattice sum.
Grids are exhaustive over the stated ranges (no sampling), iterated in a fixed
order, so reports are deterministic byte for byte.

Check names are part of the CLI contract; `run_check` rejects unknown names.
Each suite is a generator yielding one item per case, which `run_check` alone
counts and collects: None when the case holds, a counterexample dict when it
fails, or an info row, which only the report-only lemma215_boundary_report
yields (epsilon at the longest element where narrow is an equality).
A check that cannot run on the given grid (Weyl cap exceeded, no types in
range) reports status "skipped" with the reason in `info` rather than failing.
A suite registered with a no-case reason that yields nothing on the grid
still reports "pass", with a "no case: <reason> in grid" line in `info`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from ._exact import int_vec, lattice_points, mat_vec
from .affine import (
    affine_exponent,
    direct_exponent,
    lemma39_test,
    lemma310_construct,
)
from .params import (
    LAMBDA_CAP,  # noqa: F401  (re-exported)
    build_model,
    canonical_lambda,
    central_charge,
    central_charge_coxeter_form,
    check_lambda_cap,
    delta_lambda,
    dual_param,
    epsilon,
    lambda_params,
    lambda_x,
    lemma216_cond1,
    narrow,
    narrow_margin,
)
from .qseries import lattice_char, module_char, qs_eq, w_char
from .rootsys import (
    CapExceeded,
    _context,
    build_root_system,
    cartan_type,
    check_weyl_cap,
    enum_dominant_in_Q,
    longest_element,
    norm_sq,
    weyl_enumerate,
)


@dataclass(frozen=True)
class GridSpec:
    """Parameter ranges a check runs over.

    p values are h+p_lo .. h+p_hi per type, clamped to >= 2 and deduplicated,
    unless p_values gives an absolute list; an empty p range is refused.
    order is the window for single characters, cross_order (by default
    min(order, 20)) for pairwise character comparisons.  alpha ranges over
    dominant root-lattice weights with |alpha| <= |rho| + alpha_margin.
    """

    types: tuple = ("A1", "A2")
    p_lo: int = -1
    p_hi: int = 2
    p_values: tuple | None = None
    order: int = 30
    cross_order: int | None = None
    alpha_margin: int = 3

    def __post_init__(self):
        object.__setattr__(
            self, "types", tuple(str(cartan_type(t)) for t in self.types)
        )
        if self.p_values is not None:
            object.__setattr__(self, "p_values",
                               int_vec(self.p_values, len(self.p_values)))
        if self.cross_order is None:
            object.__setattr__(self, "cross_order", min(self.order, 20))
        if self.p_values == () or (self.p_values is None and self.p_lo > self.p_hi):
            raise ValueError("empty p range")


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    grid: str
    status: str  # pass | fail | skipped
    counterexamples: tuple
    runtime_ms: int = 0  # not timed, so that reports of two runs compare equal
    info: tuple = ()

    def __post_init__(self):
        if (self.status == "fail") != bool(self.counterexamples):
            raise ValueError("status must be fail iff counterexamples are present")


class _Skip(Exception):
    """Raised inside a check when the grid leaves it nothing to do."""


def _ps(grid: GridSpec, rs) -> tuple:
    if grid.p_values is not None:
        raw = grid.p_values
    else:
        raw = range(rs.coxeter_h + grid.p_lo, rs.coxeter_h + grid.p_hi + 1)
    return tuple(sorted({max(p, 2) for p in raw}))


def _models(grid: GridSpec, max_rank: int | None = None):
    for t in grid.types:
        rs = build_root_system(t)
        if max_rank is not None and rs.rank > max_rank:
            continue
        for p in _ps(grid, rs):
            check_lambda_cap(rs, p)
            yield build_model(rs, p)


def _cases(grid: GridSpec, narrow_only=False, max_rank=None, alphas=False,
           weyl=False):
    """Every case a parameter suite visits: (mp, lam, alpha, is_narrow, elems).

    Models come in grid order, lam in lambda_params order and, with alphas,
    alpha innermost over the dominant root-lattice weights within the grid's
    margin (None without alphas).  is_narrow is narrow(mp, lam.sp), evaluated
    once per lam; narrow_only keeps only narrow lam.  With weyl, elems is the
    model's Weyl group (None otherwise): the Weyl cap is checked before the
    model's first lam, so that it skips the suite even where it has no case,
    but W is listed only at the first case.  max_rank leaves out types of
    larger rank and skips the suite when none is left.
    """
    models = list(_models(grid, max_rank))
    if max_rank is not None and not models:
        raise _Skip(f"no types of rank <= {max_rank} in grid")
    for mp in models:
        if weyl:
            check_weyl_cap(mp.rs)
        alpha_range = (enum_dominant_in_Q(mp.rs, grid.alpha_margin, relative=True)
                       if alphas else (None,))
        for lam in lambda_params(mp):
            is_narrow = narrow(mp, lam.sp)
            if narrow_only and not is_narrow:
                continue
            elems = weyl_enumerate(mp.rs) if weyl else None  # listed once, then cached
            for alpha in alpha_range:
                yield mp, lam, alpha, is_narrow, elems


def _digit_cases(grid: GridSpec):
    """(mp, w0, sp) for every model and every digit vector sp in [0, p-1]^l,
    with w0 the longest Weyl element of the model's type."""
    for mp in _models(grid):
        w0 = longest_element(mp.rs)
        for sp in product(range(mp.p), repeat=mp.rs.rank):
            yield mp, w0, sp


def _describe(grid: GridSpec) -> str:
    if grid.p_values is not None:
        prange = "p=" + ",".join(str(p) for p in grid.p_values)
    else:
        prange = f"p=h{grid.p_lo:+d}..h{grid.p_hi:+d}"
    return (
        f"types={'+'.join(grid.types) if grid.types else '(none)'}; "
        f"{prange} (p>=2); order={grid.order}; cross_order={grid.cross_order}; "
        f"alpha dominant in Q, |alpha| <= |rho|+{grid.alpha_margin}"
    )


def _rec(**kw) -> dict:
    return {k: str(v) for k, v in kw.items()}


def _ce(mp, lam, **kw) -> dict:
    """A counterexample at parameter lam of model mp, with the given fields."""
    return _rec(type=mp.rs.type, p=mp.p, lambda0=lam.lambda0, sp=lam.sp, **kw)


def _check_strange_formula(grid: GridSpec):
    """|rho|^2 = h dim(g)/12, and the two central charge forms agree."""
    for t in grid.types:
        rs = build_root_system(t)
        lhs = norm_sq(rs, rs.rho)
        rhs = Fraction(rs.coxeter_h * rs.dim_g, 12)
        yield _rec(type=t, rho_norm_sq=lhs, h_dimg_over_12=rhs) if lhs != rhs else None
        for p in _ps(grid, rs):
            mp = build_model(rs, p)
            a = central_charge(mp)
            b = central_charge_coxeter_form(mp)
            yield _rec(type=t, p=p, c_rho_form=a, c_coxeter_form=b) if a != b else None


def _check_lemma215_strict(grid: GridSpec):
    """epsilon at the longest element is -rho whenever the narrow inequality
    is strict."""
    for mp, w0, sp in _digit_cases(grid):
        if narrow_margin(mp, sp) >= 0:
            continue
        eps = epsilon(mp, sp, w0)
        target = (-1,) * mp.rs.rank
        yield (_rec(type=mp.rs.type, p=mp.p, sp=sp, epsilon=eps, minus_rho=target)
               if eps != target else None)


def _check_lemma215_boundary(grid: GridSpec):
    """Report-only: epsilon at the longest element on the equality stratum of
    the narrow condition, compared against -rho."""
    for mp, w0, sp in _digit_cases(grid):
        if narrow_margin(mp, sp) != 0:
            continue
        eps = epsilon(mp, sp, w0)
        target = (-1,) * mp.rs.rank
        yield (f"{mp.rs.type} p={mp.p} sp={sp}: epsilon={eps} "
               f"minus_rho={target} agree={eps == target}")


def _check_lemma216_equiv(grid: GridSpec):
    """The digit-chain vanishing condition along the canonical reduced word of
    the longest element holds iff the narrow inequality does, for every sp."""
    for mp, w0, sp in _digit_cases(grid):
        c1 = lemma216_cond1(mp, sp, w0.word)
        c2 = narrow(mp, sp)
        yield (_rec(type=mp.rs.type, p=mp.p, sp=sp, chain_condition=c1, narrow=c2)
               if c1 != c2 else None)


def _brute_pairs(mp, alpha, lam, elems):
    """All (sigma matrix, beta root coords) with |beta| <= |v|+2 passing the
    chamber criterion of `lemma39_test`, v = alpha + lambda0 + rho.

    Only the beta that can pass for some sigma are scanned.  The criterion
    puts sigma x, x = p(beta - v) + s + rho, in the closed alcove p A-bar:
    the simplex with vertices 0 and p omega_i / m_i, m_i the marks of theta.
    |sigma x| = |x| and |.|^2 is convex, so its maximum on the simplex is at
    a vertex, and every hit has |x|^2 <= R^2 = p^2 max_i (C^-1)_ii / m_i^2.
    With x = p C beta + offset, det^2 |x|^2 is the form C at
    p det beta + adj offset, so `lattice_points` lists that ellipsoid
    exactly.

    That ellipsoid lies inside the ball |beta| <= |v| + 2.  Write
    beta = w + x/p with w = v - u/p and u = s + rho: each w_i lies in
    [0, v_i), since 1 <= u_i <= p and v_i >= 1, and every entry of C^-1 is
    positive, so |w| <= |v|; and |x|/p <= R/p <= 2 while
    max_i (C^-1)_ii / m_i^2 <= 4, which holds through A15, D16 and E8 and
    is checked here.  The positive roots pulled back through each element
    are built once per type (`_pulled_roots`).
    """
    rs = mp.rs
    p = mp.p
    det = rs.det
    if any(rs.adj[i][i] > 4 * det * m * m for i, m in enumerate(rs.theta_root)):
        raise RuntimeError(f"the alcove ball of {rs.type} is not inside |beta| <= |v|+2")
    v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
    offset = tuple(s + 1 - p * c for s, c in zip(lam.sp, v))
    bound = max(det * p * p * rs.adj[i][i] // (m * m)
                for i, m in enumerate(rs.theta_root))  # floor(det^2 R^2)
    pulled = _pulled_roots(rs, elems)
    hits = set()
    centre = tuple(-c for c in mat_vec(rs.adj, offset))
    for r, _ in lattice_points(rs.cartan, centre, p * det, bound):
        r_f = mat_vec(rs.cartan, r)
        inner = tuple([p * b + o for b, o in zip(r_f, offset)])
        for matrix, rows in pulled:
            for row in rows:
                x = sum(map(mul, row, inner))
                if x < 0 or x > p:
                    break
            else:
                hits.add((matrix, r))
    return hits


def _pulled_roots(rs, elems):
    """(sigma matrix, the positive roots g pulled back to sigma^T g) for
    each sigma in elems, so that (g, sigma x) = (sigma^T g) . x.  The table
    depends only on the type: it is built for all of W on first use and
    kept in the type's WeylContext."""
    ctx = _context(rs)
    table = ctx.pulled[0]
    if table is None:
        table = ctx.pulled[0] = tuple(
            (w.matrix, tuple(mat_vec(tuple(zip(*w.matrix)), g) for g in rs.positive_roots))
            for w in ctx.elems)
    return [table[ctx.find(w)] for w in elems]


def _check_lemma310_bruteforce(grid: GridSpec):
    """For rank <= 2: the brute-force set of chamber pairs contains the
    constructed pair exactly when the parameter is narrow."""
    for mp, lam, alpha, is_narrow, elems in _cases(
            grid, max_rank=2, alphas=True, weyl=True):
        _, sigma, beta = lemma310_construct(mp, alpha, lam.lambda0)
        contained = (sigma.matrix, beta) in _brute_pairs(mp, alpha, lam, elems)
        yield (_ce(mp, lam, alpha=alpha, sigma=sigma.word, beta=beta,
                   in_brute_set=contained, narrow=is_narrow)
               if contained != is_narrow else None)


def _check_remark311_iff(grid: GridSpec):
    """For rank <= 3: the constructed chamber pair passes the chamber
    criterion iff the parameter is narrow."""
    for mp, lam, alpha, is_narrow, _ in _cases(grid, max_rank=3, alphas=True):
        _, sigma, beta = lemma310_construct(mp, alpha, lam.lambda0)
        ok = lemma39_test(mp, sigma, beta, alpha, lam)
        yield (_ce(mp, lam, alpha=alpha, sigma=sigma.word, beta=beta,
                   criterion=ok, narrow=is_narrow) if ok != is_narrow else None)


def _check_exponent_identity(grid: GridSpec):
    """Affine-orbit exponents equal direct character exponents element by
    element, for every narrow parameter and every alpha in range."""
    for mp, lam, alpha, _, elems in _cases(
            grid, narrow_only=True, alphas=True, weyl=True):
        for sigma in elems:
            a = affine_exponent(mp, sigma, alpha, lam)
            d = direct_exponent(mp, sigma, alpha, lam)
            yield (_ce(mp, lam, alpha=alpha, sigma=sigma.word, affine=a, direct=d)
                   if a != d else None)


def _check_char_nonneg_leading1(grid: GridSpec):
    """Signed Weyl characters of narrow parameters have leading coefficient 1
    and no negative coefficient through the window."""
    for mp, lam, alpha, *_ in _cases(grid, narrow_only=True, alphas=True):
        ch = w_char(mp, alpha, lam, grid.order)
        if ch.coeffs[0] != 1:
            yield _ce(mp, lam, alpha=alpha, leading=ch.coeffs[0], expected=1)
            continue
        bad = [j for j, c in enumerate(ch.coeffs) if c < 0]
        yield (_ce(mp, lam, alpha=alpha, first_negative_offset=bad[0],
                   coefficient=ch.coeffs[bad[0]]) if bad else None)


def _check_submodule_bound(grid: GridSpec):
    """Lattice-module coefficients dominate module coefficients at every
    exponent of the lattice window, for every parameter."""
    n = grid.cross_order
    for mp, lam, *_ in _cases(grid):
        mc = module_char(mp, lam, n)
        lc = lattice_char(mp, lam, n)
        shift = mc.base - lc.base
        if shift.denominator != 1 or shift < 0:
            yield _ce(mp, lam, module_base=mc.base, lattice_base=lc.base)
            continue
        d = int(shift)
        for j in range(lc.order + 1):
            m = mc.coeffs[j - d] if d <= j else 0
            if lc.coeffs[j] < m:
                yield _ce(mp, lam, exponent=lc.base + j, lattice=lc.coeffs[j], module=m)
                break
        else:
            yield None


def _check_duality_chars(grid: GridSpec):
    """module_char agrees with module_char of the dual parameter for narrow
    parameters, through the cross-comparison window."""
    n = grid.cross_order
    for mp, lam, *_ in _cases(grid, narrow_only=True):
        dual = dual_param(mp, lam)
        a = module_char(mp, lam, n)
        b = module_char(mp, dual, n)
        yield (_ce(mp, lam, dual_lambda0=dual.lambda0, dual_sp=dual.sp,
                   char=(str(a.base), a.coeffs), dual_char=(str(b.base), b.coeffs))
               if not qs_eq(a, b, n) else None)


def _check_delta_selfdual(grid: GridSpec):
    """Conformal weights are invariant under the dual parameter involution,
    for every parameter."""
    for mp, lam, *_ in _cases(grid):
        dual = dual_param(mp, lam)
        a = delta_lambda(mp, lam)
        b = delta_lambda(mp, dual)
        yield _ce(mp, lam, delta=a, dual_delta=b) if a != b else None


def _check_lambda_count(grid: GridSpec):
    """The parameter list has |P/Q| p^l distinct entries and the canonical
    form of each entry's weight is the entry itself."""
    for mp in _models(grid):
        rs = mp.rs
        lams = lambda_params(mp)
        expected = rs.det * mp.p ** rs.rank
        yield (_rec(type=rs.type, p=mp.p, count=len(lams), expected=expected)
               if len(lams) != expected else None)
        keys = {(lam.lambda0, lam.sp) for lam in lams}
        yield (_rec(type=rs.type, p=mp.p, distinct=len(keys), count=len(lams))
               if len(keys) != len(lams) else None)
        for lam in lams:
            back = canonical_lambda(mp, lambda_x(mp, lam))
            yield (_ce(mp, lam, roundtrip_lambda0=back.lambda0, roundtrip_sp=back.sp)
                   if back != lam else None)


# name: (grid note, suite, the reason named when it yields no item, or None)
_CHECKS = {
    "strange_formula": ("per type; c double form per (type, p)",
                        _check_strange_formula, None),
    "lemma215_strict": ("sp with strict narrow inequality",
                        _check_lemma215_strict,
                        "no digit vector with a strict narrow inequality"),
    "lemma215_boundary_report": ("sp on the narrow equality stratum; report only",
                                 _check_lemma215_boundary,
                                 "no digit vector on the narrow equality stratum"),
    "lemma216_equiv": ("all p^l digit vectors sp",
                       _check_lemma216_equiv, None),
    "lemma310_bruteforce": ("rank <= 2; all sp; all alpha; |beta| <= |v|+2",
                            _check_lemma310_bruteforce, None),
    "remark311_iff": ("rank <= 3; all sp; all alpha",
                      _check_remark311_iff, None),
    "exponent_identity": ("narrow sp; all alpha; per Weyl element",
                          _check_exponent_identity, "no narrow parameter"),
    "char_nonneg_leading1": ("narrow sp; all alpha; window=order",
                             _check_char_nonneg_leading1, "no narrow parameter"),
    "submodule_bound": ("all sp; window=cross_order",
                        _check_submodule_bound, None),
    "duality_chars": ("narrow sp; window=cross_order",
                      _check_duality_chars, "no narrow parameter"),
    "delta_selfdual": ("all sp",
                       _check_delta_selfdual, None),
    "lambda_count": ("per (type, p)",
                     _check_lambda_count, None),
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, grid: GridSpec) -> CheckReport:
    """Run one named check over the grid.  Unknown names are rejected."""
    try:
        note, suite, no_case = _CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check name: {name!r}") from None
    desc = f"{_describe(grid)} | {note}"
    if not grid.types:
        return CheckReport(name, desc, "skipped", (), info=("empty grid: no types",))
    ces, info, count = [], [], 0
    try:
        for item in suite(grid):
            count += 1
            if isinstance(item, str):
                info.append(item)
            elif item is not None:
                ces.append(item)
    except CapExceeded as exc:
        return CheckReport(name, desc, "skipped", (),
                           info=(f"enumeration cap exceeded: {exc}",))
    except _Skip as exc:
        return CheckReport(name, desc, "skipped", (), info=(str(exc),))
    if not count and no_case:
        info.append(f"no case: {no_case} in grid")
    return CheckReport(name, desc, "fail" if ces else "pass", tuple(ces),
                       info=tuple(info))


def run_all(grid: GridSpec) -> tuple:
    """Every registered check, in registration order."""
    return tuple(run_check(name, grid) for name in _CHECKS)


def all_passed(reports) -> bool:
    """Overall success: no check failed (report-only and skipped don't count
    against)."""
    return all(r.status != "fail" for r in reports)
