"""Affine Weyl group machinery over a fixed model.

An affine Weyl element is a pair (sigma, beta) in W x Q acting as
sigma t_beta.  The chamber test, the constructed chamber representative
(omega, sigma, beta) attached to a class parameter, and the orbit exponents
of the alcove elements y, which feed the character sums, live here.  Only
the classical part of y acting on the chamber weight enters an exponent, so
no affine weight or element is built: the route carries w, beta and the
classical weight as plain tuples.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple

from ._exact import (
    IntMat,
    IntVec,
    compile_kernel,
    dot,
    int_vec,
    src_form,
    src_lin,
    src_matrix,
    src_names,
    src_tup,
)
from .params import (
    LambdaParam,
    ModelParams,
    _check_param,
    lambda0_rep,
    require_narrow,
)
from .rootsys import (
    CapExceeded,
    RootSystem,
    WeylContext,
    WeylElement,
    _context,
    act,
    dominant_word,
    reflect,
    root_coords_int,
    root_to_fund,
    weyl_matrix,
)


def lemma39_test(mp: ModelParams, sigma: WeylElement, beta, alpha,
                 lam: LambdaParam) -> bool:
    """Finite chamber criterion for the translated parameter.

    True iff 0 <= (sigma^{-1}(g), p(beta - (alpha + lambda0 + rho)) + s + rho) <= p
    for every positive root g; evaluated as (g, sigma(...)) by invariance,
    so every comparison is between plain integers.
    """
    rs = mp.rs
    _check_param(mp, lam)
    p = mp.p
    beta_f = root_to_fund(rs, int_vec(beta, rs.rank))
    alpha = int_vec(alpha, rs.rank)
    inner = tuple(
        p * (b - (a + l0 + 1)) + s + 1
        for b, a, l0, s in zip(beta_f, alpha, lam.lambda0, lam.sp, strict=True)
    )
    moved = act(sigma, inner)
    for g in rs.positive_roots:
        v = dot(g, moved)
        if v < 0 or v > p:
            return False
    return True


# Read by bench/tracing.py by name.  _CHAMBER_CACHE is the chamber cache of
# `_chamber`: a type maps to {lambda0: (omega, sigma_c, sigma_c^-1, labels)},
# so its length counts types.  _MU_CACHE stays empty: the chamber weight
# mu_lambda is kept only inside the route that uses it.
_CHAMBER_CACHE: dict = {}
_MU_CACHE: dict = {}


def _chamber(rs: RootSystem, lambda0: IntVec, ctx: WeylContext | None = None):
    """The chamber record (omega, sigma_c, sigma_c^{-1}, labels) of the
    integral weight lambda0, built on first use without listing W.

    omega is the minuscule-or-zero representative of the class of
    lambda0 + rho; sigma_c is the unique Weyl element sending exactly the
    positive roots pairing to 0 with omega to positive roots, so sigma_c^{-1}
    rho has that sign pattern.  Every positive root g has (g, omega) in
    {0, 1} and height <= h - 1, so rho - h omega has it too; its
    `dominant_word` is the lex-least word of sigma_c^{-1}, and the same
    letters applied to rho give sigma_c rho, whose `dominant_word` is that of
    sigma_c.  Both matrices come from `weyl_matrix`, as w0's do, so W is not
    listed and no cap is checked.  labels is None until a caller passes the
    Weyl context ctx, read through the cap, and `_label_table` fills it.
    """
    records = _CHAMBER_CACHE.setdefault(rs.type, {})
    got = records.get(lambda0)
    if got is None:
        cartan, rho = rs.cartan, rs.rho
        omega = lambda0_rep(rs, tuple(c + 1 for c in lambda0))
        inv_word = dominant_word(cartan, [r - rs.coxeter_h * o for r, o in zip(rho, omega)])
        key = rho
        for i in inv_word:
            key = reflect(cartan, key, i)
        word = dominant_word(cartan, key)
        sigma_c = WeylElement(word, weyl_matrix(cartan, word))
        sigma_c_inv = WeylElement(inv_word, weyl_matrix(cartan, inv_word))
        moved_rho = act(sigma_c_inv, rho)
        if any((dot(g, moved_rho) > 0) != (dot(g, omega) == 0) for g in rs.positive_roots):
            raise RuntimeError(f"chamber element of {lambda0} has the wrong sign pattern")
        got = records[lambda0] = (omega, sigma_c, sigma_c_inv, None)
    if ctx is not None and got[3] is None:
        got = records[lambda0] = (*got[:3], _label_table(ctx, got[0], got[1]))
    return got


def lemma310_construct(mp: ModelParams, alpha, lambda0) -> tuple[IntVec, WeylElement, IntVec]:
    """The chamber data (omega, sigma, beta) attached to (alpha, lambda0).

    omega and sigma are those of `_chamber` and do not depend on alpha;
    beta = alpha + lambda0 + rho - omega lies in Q and is returned in
    simple-root coordinates.  Nothing here lists W or checks its cap.
    """
    rs = mp.rs
    alpha = int_vec(alpha, rs.rank)
    lambda0 = int_vec(lambda0, rs.rank)
    omega, sigma, *_ = _chamber(rs, lambda0)
    beta_f = tuple(a + l0 + 1 - o for a, l0, o in zip(alpha, lambda0, omega))
    beta = root_coords_int(rs, beta_f)
    return omega, sigma, beta


def _label_table(ctx: WeylContext, omega: IntVec, sigma_c: WeylElement) -> list:
    """The label table of the chamber (omega, sigma_c), in listing order.

    For the label sigma = elems[i], table[i] is (tau(omega), rows of w^-1,
    rows of w) with tau = sigma^-1 and w = tau sigma_c^-1.  Keys give all
    three elements: sigma rho is the key of tau, sigma_c sigma rho the key of
    w, and w rho the key of w^-1, so no product or inverse is looked up or
    stored.  tau(omega) runs over the orbit W omega, small for a minuscule
    omega, and each vector of it is stored once.  Every caller of a route
    reads every label, so the table is built whole.
    """
    elems, by_key = ctx.elems, ctx.by_key
    c_rows = sigma_c.matrix
    table, orbit = [], {}
    for sigma in elems:
        sigma_rho = tuple(map(sum, sigma.matrix))
        w = elems[by_key[tuple([sum(map(mul, row, sigma_rho)) for row in c_rows])]]
        t = act(elems[by_key[sigma_rho]], omega)
        table.append((orbit.setdefault(t, t), elems[ctx.inverse(w.index)].matrix, w.matrix))
    return table


class _Route(NamedTuple):
    """One (alpha, lambda) of the affine route; see `_affine_route`.
    kernel(route, labels) gives 2 p det times the exponent of each label."""
    kernel: Callable
    table: list      # the label table of lambda0's chamber
    v: IntVec        # alpha + lambda0 + rho
    m: IntVec        # mu_bar + rho = sigma_c(-p omega + s + rho)
    p: int
    den: int         # 2 p det


def _affine_route(mp: ModelParams, alpha, lam: LambdaParam) -> tuple[WeylContext, _Route]:
    """(ctx, route) for one (alpha, lambda).

    Defined only under the narrow condition.  With (omega, sigma_c) the
    chamber data of lambda0 and v = alpha + lambda0 + rho, the orbit element
    of tau in W is y_tau = t_{tau(omega) - v} tau sigma_c^{-1}, in normal
    form w t_beta with w = tau sigma_c^{-1} and beta = w^{-1}(tau(omega) - v)
    in Q.  The label sigma gets y_tau with tau = sigma^{-1}: labelling by
    the inverse makes the exponent agree with the direct character exponent
    of the same sigma term by term; the signed sums agree either way since
    inversion preserves length.  y acts on the chamber weight mu_lambda at
    level k = p - h, whose classical part is
    mu_bar = sigma_c(-p omega + s + rho) - rho.  Only the classical part of
    y circ mu_lambda is computed: conjugating by rho + h Lambda0, it is y
    acting on mu_lambda + rho at level k + h = p, w(mu_bar + rho + p beta).
    The delta coefficient never enters the exponent.

    Every call checks lam against the model, checks the Weyl cap and gates
    alpha to an int tuple.  The route is then kept in ctx.route under
    (mp, alpha, lambda0, sp), compared by value (mp fixes p), so a repeated
    (alpha, lambda) reuses it; a new one is checked for narrowness first.
    """
    rs = mp.rs
    _check_param(mp, lam)
    try:
        ctx = _context(rs)
    except CapExceeded:
        require_narrow(mp, lam.sp)  # a wide lambda is reported before the cap
        raise
    alpha = int_vec(alpha, rs.rank)
    key = (mp, alpha, lam.lambda0, lam.sp)
    got = ctx.route[0]
    if got[0] != key:
        got = ctx.route[0] = (key, _build_route(mp, ctx, alpha, lam.lambda0, lam.sp))
    return ctx, got[1]


def _build_route(mp: ModelParams, ctx: WeylContext, alpha: IntVec,
                 lambda0: IntVec, sp: IntVec) -> _Route:
    require_narrow(mp, sp)
    rs = mp.rs
    omega, sigma_c, _, table = _chamber(rs, lambda0, ctx)
    m = act(sigma_c, tuple([-mp.p * o + s + 1 for o, s in zip(omega, sp)]))
    v = tuple([a + l0 + 1 for a, l0 in zip(alpha, lambda0)])
    return _Route(ctx.kernel[0] or _route_kernel(ctx, rs), table, v, m,
                  mp.p, 2 * mp.p * rs.det)


def _affine_terms(mp: ModelParams, alpha, lam: LambdaParam) -> list[tuple[int, int]]:
    """Signed affine-orbit exponents of one (alpha, lambda), scaled by 2 p det
    as `qseries._w_terms` scales the direct ones: one per label, in listing
    order, with the sign (-1)^l(sigma)."""
    ctx, route = _affine_route(mp, alpha, lam)
    scaled = route.kernel(route, range(len(ctx.elems)))
    return [(e, -1 if len(w.word) & 1 else 1) for e, w in zip(scaled, ctx.elems)]


def _q_rows(rs: RootSystem) -> IntMat:
    """The rows of adj that decide membership in Q: an integral weight x
    lies in Q iff row . x = 0 mod det for every row listed.

    Row i of adj x is det (omega_i, x).  The types are simply laced, so Q is
    the dual P* of P under the form, and P is Q plus the minuscule weights,
    which pair integrally with Q; so an integral x lies in Q iff
    (omega_i, x) is an integer for minuscule omega_i whose classes generate
    P/Q: omega_1 for A and E6, omega_7 for E7, omega_{l-1} for odd D,
    omega_1 and omega_{l-1} for even D, and none for E8, where P = Q.
    """
    l, family = rs.rank, rs.type.family
    if family == "A":
        nodes = (1,)
    elif family == "D":
        nodes = (l - 1,) if l % 2 else (1, l - 1)
    else:
        nodes = {6: (1,), 7: (7,), 8: ()}[l]
    return tuple(rs.adj[i - 1] for i in nodes)


def _route_kernel(ctx: WeylContext, rs: RootSystem) -> Callable:
    """kernel(route, labels) for the type of rs, compiled from generated
    source on first use and kept in ctx.kernel.

    Per label it takes every step of the affine route, with each sum
    written out term by term for the rank: gamma = tau(omega) - v,
    beta = w^-1 gamma, the check that beta lies in Q (on the rows `_q_rows`
    of adj, raising ValueError as `root_coords_int` does),
    n = m + p beta, x = w n, and the norm x . adj x, as the sum over i of
    x_i (adj_ii x_i + sum over j > i of 2 adj_ij x_j).  The source holds
    only the rank and the integer entries of adj, det and `_q_rows`; it is
    written with the `_exact` source helpers that `RootSystem.direct_kernel`
    also uses, and neither kernel calls the other.
    """
    l = rs.rank
    r = range(l)
    rows, matrix = src_matrix(l)
    t, v, m, g, b, n, x = (src_names(c, l) for c in "tvmgbnx")
    lines = [
        "def kernel(route, labels):",
        f"    _, table, {src_tup(v)}, {src_tup(m)}, p, _ = route",
        "    out = []",
        "    for i in labels:",
        f"        {src_tup(t)}, w_inv, w = table[i]",
    ]
    lines += [f"        g{i} = t{i} - v{i}" for i in r]
    lines.append(f"        {matrix} = w_inv")
    lines += [f"        b{i} = {src_lin(rows[i], g)}" for i in r]
    for row in _q_rows(rs):
        lines.append(f"        if ({src_lin(row, b)}) % {rs.det}:")
        lines.append(f"            raise ValueError(f'weight {{{src_tup(b)}}} "
                     "is not in the root lattice')")
    lines += [f"        n{i} = m{i} + p * b{i}" for i in r]
    lines.append(f"        {matrix} = w")
    lines += [f"        x{i} = {src_lin(rows[i], n)}" for i in r]
    lines += [f"        out.append({src_form(rs.adj, x)})", "    return out"]
    got = ctx.kernel[0] = compile_kernel(lines, f"<affine route kernel of {rs.type}>")
    return got


def affine_exponent(mp: ModelParams, sigma: WeylElement, alpha,
                    lam: LambdaParam) -> Fraction:
    """Orbit exponent (1/2p)|classical part of y circ mu_lambda, plus rho|^2,
    where the orbit element attached to the label sigma is y_{sigma^{-1}}
    and mu_lambda is the chamber weight of lam; see `_affine_route`."""
    ctx, route = _affine_route(mp, alpha, lam)
    return Fraction(route.kernel(route, (ctx.find(sigma),))[0], route.den)


def direct_exponent(mp: ModelParams, sigma: WeylElement, alpha,
                    lam: LambdaParam) -> Fraction:
    """Character exponent of one Weyl term, straight from the trace formula:
    (1/2)|sqrt(p) sigma(alpha + lambda0 + rho) - lambda_p - rho/sqrt(p)|^2,
    evaluated as |p sigma(v) - u|^2 / 2p with v = alpha + lambda0 + rho and
    u = s + rho, in one Fraction of det |p sigma(v) - u|^2 over 2 p det.
    The numerator is one call of the type's compiled `rs.direct_kernel`."""
    rs = mp.rs
    _check_param(mp, lam)
    alpha = int_vec(alpha, rs.rank)
    p = mp.p
    return Fraction(rs.direct_kernel(sigma.matrix, alpha, lam.lambda0, lam.sp, p),
                    2 * p * rs.det)
