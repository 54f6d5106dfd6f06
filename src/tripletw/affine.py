"""Affine Weyl group machinery over a fixed model.

Elements are pairs (sigma, beta) in W x Q acting as sigma t_beta; weights at
level k live on the classical slice plus level and delta bookkeeping.  The
chamber test, the constructed chamber representative (omega, sigma, beta)
attached to a class parameter, the alcove elements y, and the resulting
orbit exponents feeding the character sums all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._exact import IntVec, dot, mat_vec
from .params import (
    LambdaParam,
    ModelParams,
    _check_p,
    _digits,
    _int_vec,
    lambda0_rep,
    require_narrow,
)
from .rootsys import (
    RootSystem,
    WeylElement,
    act,
    check_weyl_cap,
    norm_sq,
    root_action,
    root_coords_int,
    root_to_fund,
    weyl_by_matrix,
    weyl_compose,
    weyl_inverse,
    weyl_matrix,
)


@dataclass(frozen=True)
class AffineWeight:
    classical: tuple   # fundamental coordinates of the classical part
    level: Fraction | int
    delta_coeff: Fraction | int


@dataclass(frozen=True)
class AffineWeylElement:
    sigma: WeylElement
    beta: IntVec       # translation part, simple-root coordinates


def aff_mul(rs: RootSystem, y1: AffineWeylElement, y2: AffineWeylElement) -> AffineWeylElement:
    """(sigma1 t_b1)(sigma2 t_b2) = (sigma1 sigma2) t_{sigma2^{-1} b1 + b2}."""
    sigma = weyl_compose(rs, y1.sigma, y2.sigma)
    inv2 = root_action(rs, weyl_inverse(rs, y2.sigma))
    beta = tuple(a + b for a, b in zip(mat_vec(inv2, y1.beta), y2.beta))
    return AffineWeylElement(sigma=sigma, beta=beta)


def _classical_part(rs: RootSystem, y: AffineWeylElement, classical, level):
    """sigma(classical + level * beta): the classical part of y = sigma t_beta
    acting on a weight with that classical part at that level."""
    beta_f = root_to_fund(rs, y.beta)
    return act(y.sigma, tuple([c + level * b for c, b in zip(classical, beta_f)]))


def aff_act(rs: RootSystem, y: AffineWeylElement, mu: AffineWeight) -> AffineWeight:
    """Classical part sigma(mu_bar + level * beta); level preserved; the
    delta coefficient picks up -(mu_bar, beta) - |beta|^2 level / 2."""
    if len(mu.classical) != rs.rank:
        raise ValueError("dimension mismatch")
    beta_sq = dot(root_to_fund(rs, y.beta), y.beta)
    delta = mu.delta_coeff - dot(mu.classical, y.beta) - Fraction(beta_sq, 2) * mu.level
    return AffineWeight(classical=_classical_part(rs, y, mu.classical, mu.level),
                        level=mu.level, delta_coeff=delta)


def aff_circ(mp: ModelParams, y: AffineWeylElement, mu: AffineWeight) -> AffineWeight:
    """The shifted action, conjugated by rho + h Lambda0."""
    rs = mp.rs
    h = rs.coxeter_h
    shifted = AffineWeight(
        classical=tuple(c + 1 for c in mu.classical),
        level=mu.level + h,
        delta_coeff=mu.delta_coeff,
    )
    out = aff_act(rs, y, shifted)
    return AffineWeight(
        classical=tuple(c - 1 for c in out.classical),
        level=out.level - h,
        delta_coeff=out.delta_coeff,
    )


def lemma39_test(mp: ModelParams, sigma: WeylElement, beta, alpha,
                 lam: LambdaParam) -> bool:
    """Finite chamber criterion for the translated parameter.

    True iff 0 <= (sigma^{-1}(g), p(beta - (alpha + lambda0 + rho)) + s + rho) <= p
    for every positive root g; evaluated as (g, sigma(...)) by invariance,
    so every comparison is between plain integers.
    """
    rs = mp.rs
    _check_p(mp, lam.p)
    p = mp.p
    beta_f = root_to_fund(rs, _int_vec(beta, rs.rank))
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


_CHAMBER_CACHE: dict = {}


def _chamber(rs: RootSystem, lambda0: IntVec) -> tuple[IntVec, WeylElement, WeylElement]:
    """(omega, sigma_c, sigma_c^{-1}) for the integral weight lambda0.

    omega is the minuscule-or-zero representative of the class of
    lambda0 + rho; sigma_c is the unique Weyl element sending exactly the
    positive roots pairing to 0 with omega to positive roots, so sigma_c^{-1}
    rho has that sign pattern.  Every positive root g has (g, omega) in
    {0, 1} and height <= h - 1, so rho - h omega has it too; reflecting that
    weight into the dominant chamber spells sigma_c^{-1}.  The element is
    looked up in W, so the Weyl cap is checked on every call, cached or not.
    """
    check_weyl_cap(rs)
    key = (rs.type, lambda0)
    got = _CHAMBER_CACHE.get(key)
    if got is None:
        omega = lambda0_rep(rs, tuple(c + 1 for c in lambda0))
        x = [r - rs.coxeter_h * o for r, o in zip(rs.rho, omega)]
        word = []
        while min(x) < 0:
            i = next(j for j, c in enumerate(x) if c < 0)
            x = [c - x[i] * a for c, a in zip(x, rs.cartan[i])]
            word.append(i + 1)
        sigma_c_inv = weyl_by_matrix(rs, weyl_matrix(rs.cartan, word))
        moved_rho = act(sigma_c_inv, rs.rho)
        if any((dot(g, moved_rho) > 0) != (dot(g, omega) == 0)
               for g in rs.positive_roots):
            raise RuntimeError(
                f"chamber element for lambda0={lambda0} has the wrong sign pattern")
        got = (omega, weyl_inverse(rs, sigma_c_inv), sigma_c_inv)
        _CHAMBER_CACHE[key] = got
    return got


def lemma310_construct(mp: ModelParams, alpha, lambda0) -> tuple[IntVec, WeylElement, IntVec]:
    """The chamber data (omega, sigma, beta) attached to (alpha, lambda0).

    omega and sigma are those of `_chamber` and do not depend on alpha;
    beta = alpha + lambda0 + rho - omega lies in Q and is returned in
    simple-root coordinates.
    """
    rs = mp.rs
    alpha = _int_vec(alpha, rs.rank)
    lambda0 = _int_vec(lambda0, rs.rank)
    omega, sigma, _ = _chamber(rs, lambda0)
    beta_f = tuple(a + l0 + 1 - o for a, l0, o in zip(alpha, lambda0, omega))
    beta = root_coords_int(rs, beta_f)
    return omega, sigma, beta


def y_sigma(mp: ModelParams, sigma: WeylElement, alpha, lambda0) -> AffineWeylElement:
    """t_{sigma(omega) - (alpha + lambda0 + rho)} sigma sigma_c^{-1}, where
    sigma_c is the chamber element of lambda0; returned in normal form
    (w, beta) with w t_beta = t_gamma w, beta = w^{-1}(gamma) in Q."""
    rs = mp.rs
    alpha = _int_vec(alpha, rs.rank)
    lambda0 = _int_vec(lambda0, rs.rank)
    omega, _, sigma_c_inv = _chamber(rs, lambda0)
    gamma = tuple([
        so - (a + l0 + 1)
        for so, a, l0 in zip(act(sigma, omega), alpha, lambda0, strict=True)
    ])
    w = weyl_compose(rs, sigma, sigma_c_inv)
    # gamma is in Q exactly when alpha + lambda0 + rho - omega is
    beta = root_coords_int(rs, act(weyl_inverse(rs, w), gamma))
    return AffineWeylElement(sigma=w, beta=beta)


_MU_CACHE: dict = {}


def mu_lambda(mp: ModelParams, lam: LambdaParam) -> AffineWeight:
    """The chamber weight of lambda at level k = p - h:
    sigma_c(-p omega + s + rho) - rho, with sigma_c, omega from lambda0."""
    rs = mp.rs
    _check_p(mp, lam.p)
    check_weyl_cap(rs)  # a cached weight came from a Weyl lookup too
    key = (rs.type, mp.p, lam.lambda0, lam.sp)
    got = _MU_CACHE.get(key)
    if got is not None:
        return got
    _digits(mp, lam.sp)
    omega, sigma_c, _ = _chamber(rs, _int_vec(lam.lambda0, rs.rank))
    inner = tuple(-mp.p * o + s + 1 for o, s in zip(omega, lam.sp))
    classical = tuple(c - 1 for c in act(sigma_c, inner))
    got = AffineWeight(classical=classical, level=mp.k, delta_coeff=Fraction(0))
    _MU_CACHE[key] = got
    return got


def affine_exponent(mp: ModelParams, sigma: WeylElement, alpha,
                    lam: LambdaParam) -> Fraction:
    """Orbit exponent (1/2p)|classical part of y circ mu_lambda, plus rho|^2,
    where the orbit element attached to the label sigma is y_{sigma^{-1}}.

    Defined only under the narrow condition.  Labelling by the inverse makes
    the exponent agree with the direct character exponent of the same sigma
    term by term; the signed sums agree either way since inversion preserves
    length.  Only the classical part is computed: conjugating by
    rho + h Lambda0, it is y acting on mu_lambda + rho at level k + h = p,
    w(mu_bar + rho + p beta) for y = w t_beta.  The delta coefficient never
    enters the exponent.
    """
    rs = mp.rs
    require_narrow(mp, lam.sp)
    y = y_sigma(mp, weyl_inverse(rs, sigma), alpha, lam.lambda0)
    mu = mu_lambda(mp, lam)
    moved = _classical_part(rs, y, tuple([c + 1 for c in mu.classical]),
                            mu.level + rs.coxeter_h)
    return Fraction(norm_sq(rs, moved), 2 * mp.p)


def direct_exponent(mp: ModelParams, sigma: WeylElement, alpha,
                    lam: LambdaParam) -> Fraction:
    """Character exponent of one Weyl term, straight from the trace formula:
    (1/2)|sqrt(p) sigma(alpha + lambda0 + rho) - lambda_p - rho/sqrt(p)|^2,
    evaluated as |p sigma(v) - u|^2 / 2p with v = alpha + lambda0 + rho and
    u = s + rho."""
    rs = mp.rs
    _check_p(mp, lam.p)
    alpha = _int_vec(alpha, rs.rank)
    v = tuple(a + l0 + 1 for a, l0 in zip(alpha, lam.lambda0))
    u = tuple(s + 1 for s in lam.sp)
    moved = tuple(mp.p * c - b for c, b in zip(act(sigma, v), u))
    return Fraction(norm_sq(rs, moved), 2 * mp.p)
