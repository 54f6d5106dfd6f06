"""Module parameters on the rescaled lattices.

A weight mu in (1/sqrt p)P is stored as the integer vector x = sqrt(p) mu, so
all exposed quantities (norms, conformal weights, pairings against rho) are
exact rationals: |mu|^2 = |x|^2 / p and (mu, rho) enters every formula with a
compensating factor of sqrt(p).

The parameter set Lambda consists of classes lambda = -sqrt(p) lambda0 +
lambda_p, with lambda0 running over the minuscule-or-zero representatives of
P/Q and lambda_p having digit coordinates 0 <= s_i <= p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ._exact import IntVec, dot, int_vec, mat_vec
from .rootsys import (
    CapExceeded,
    RootSystem,
    WeylElement,
    circ_act,
    longest_element,
    norm_sq,
    pq_class,
    reflect,
)


class PreconditionError(ValueError):
    """A caller's value lies outside the domain of the operation asked for
    (the CLI's exit 3)."""


class NarrowViolation(PreconditionError):
    """Raised when an operation defined only under the narrow condition
    (sqrt(p) lambda_p + rho, theta) <= p is applied outside it."""


# The most Lambda parameters (|P/Q| p^l) an enumeration agrees to list.
LAMBDA_CAP = 1_000_000


@dataclass(frozen=True)
class ModelParams:
    rs: RootSystem
    p: int
    c: Fraction       # central charge
    k: int            # level p - h
    k_dual: Fraction  # level 1/p - h


@dataclass(frozen=True)
class ScaledWeight:
    """mu = x / sqrt(p) with x an integral weight."""
    x: IntVec
    p: int


@dataclass(frozen=True)
class LambdaParam:
    """lambda = -sqrt(p) lambda0 + lambda_p.  The fields are checked here:
    both vectors pass `int_vec` and are stored as int tuples of one length,
    p is an int >= 2 and every digit lies in [0, p-1]; anything else raises
    ValueError.  That lambda0 is a class representative of the model's type
    is checked against the model, by `_check_param`."""
    lambda0: IntVec   # fundamental coordinates of a member of Lambda0
    sp: IntVec        # digits of lambda_p, each in [0, p-1]
    p: int

    def __post_init__(self):
        lambda0 = int_vec(self.lambda0, len(self.lambda0))
        sp = int_vec(self.sp, len(lambda0))
        p = self.p
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"p must be an integer >= 2, got {p!r}")
        for s in sp:
            if not 0 <= s < p:
                raise ValueError(f"digits {sp} out of range for p={p}")
        if lambda0 is not self.lambda0 or sp is not self.sp:  # not int tuples yet
            object.__setattr__(self, "lambda0", lambda0)
            object.__setattr__(self, "sp", sp)


def build_model(rs: RootSystem, p: int) -> ModelParams:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    q0_sq = Fraction((p - 1) ** 2, p)
    c = rs.rank - 12 * q0_sq * norm_sq(rs, rs.rho)
    return ModelParams(rs=rs, p=p, c=c, k=p - rs.coxeter_h,
                       k_dual=Fraction(1, p) - rs.coxeter_h)


def central_charge(mp: ModelParams) -> Fraction:
    return mp.c


def central_charge_coxeter_form(mp: ModelParams) -> Fraction:
    """The same charge through the Coxeter data: l - Q0^2 h dim(g).

    Independent of the |rho|^2 route; the two agree exactly by the strange
    formula, which the verification suite checks.
    """
    rs = mp.rs
    q0_sq = Fraction((mp.p - 1) ** 2, mp.p)
    return rs.rank - q0_sq * rs.coxeter_h * rs.dim_g


def _check_p(mp: ModelParams, other_p: int):
    if other_p != mp.p:
        raise ValueError(f"mixed p: model has p={mp.p}, value has p={other_p}")


def _check_param(mp: ModelParams, lam: LambdaParam):
    """The model's half of the parameter check, run first by every public
    function that takes a LambdaParam: lam has the model's p, and its lambda0
    is one of the type's class representatives, which also fixes the rank.
    Raises ValueError otherwise."""
    if lam.p != mp.p:
        raise ValueError(f"mixed p: model has p={mp.p}, value has p={lam.p}")
    if lam.lambda0 not in mp.rs.lambda0_reps:
        raise ValueError(f"lambda0 {lam.lambda0} is not one of {list(mp.rs.lambda0_reps)}")


def lambda0_set(rs: RootSystem) -> tuple[IntVec, ...]:
    """Representatives of P/Q, zero first: the type's cached
    `RootSystem.lambda0_reps`."""
    return rs.lambda0_reps


_CLASS_CACHE: dict = {}


def lambda0_rep(rs: RootSystem, x) -> IntVec:
    """The Lambda0 representative of the P/Q class of x."""
    table = _CLASS_CACHE.get(rs.type)
    if table is None:
        table = {pq_class(rs, w): w for w in lambda0_set(rs)}
        if len(table) != rs.det:
            raise RuntimeError(f"class representatives of {rs.type} share a class")
        _CLASS_CACHE[rs.type] = table
    return table[pq_class(rs, x)]


def decompose(mp: ModelParams, mu: ScaledWeight) -> tuple[IntVec, IntVec]:
    """Split mu = -sqrt(p) mu0 + mu_p; returns (mu0, digits of mu_p).

    The digit s_i is the representative of x_i mod p inside [0, p-1]; this
    makes the decomposition total and unique.
    """
    _check_p(mp, mu.p)
    p = mp.p
    sp = tuple(c % p for c in mu.x)
    mu0 = tuple((s - c) // p for s, c in zip(sp, mu.x))
    return mu0, sp


def epsilon(mp: ModelParams, sp, w: WeylElement) -> IntVec:
    """The integral weight (1/sqrt p)(sigma * lambda_p - (sigma * lambda_p)_p).

    lambda_p has mu0 = 0, so sigma * lambda_p is the shifted action c on the
    digits and epsilon is minus its mu0-part, c // p coordinatewise.
    """
    p = mp.p
    return tuple([c // p for c in circ_act(w, _digits(mp, sp))])


def _digits(mp: ModelParams, sp) -> IntVec:
    sp = int_vec(sp, mp.rs.rank)
    if min(sp) < 0 or max(sp) > mp.p - 1:
        raise ValueError(f"digits {sp} out of range for p={mp.p}")
    return sp


def conformal_weight(mp: ModelParams, mu: ScaledWeight) -> Fraction:
    """Lowest grading of the Fock module of mu: |mu|^2/2 - (1 - 1/p)(x, rho),
    as the one Fraction (x adj x - (p - 1) det (x, 2 rho)) / (2 p det)."""
    _check_p(mp, mu.p)
    rs, p, x = mp.rs, mp.p, mu.x
    num = dot(x, mat_vec(rs.adj, x)) - (p - 1) * rs.det * dot(x, rs.two_rho_root)
    return Fraction(num, 2 * p * rs.det)


def narrow(mp: ModelParams, sp) -> bool:
    """(sqrt(p) lambda_p + rho, theta) <= p, as an exact integer comparison."""
    return narrow_margin(mp, sp) <= 0


def narrow_margin(mp: ModelParams, sp) -> int:
    """(sqrt(p) lambda_p + rho, theta) - p; nonpositive iff narrow."""
    sp = _digits(mp, sp)
    # (rho, theta) = h - 1, the height of theta
    return dot(sp, mp.rs.theta_root) + mp.rs.coxeter_h - 1 - mp.p


def require_narrow(mp: ModelParams, sp):
    """Raise NarrowViolation unless the digits sp are narrow."""
    margin = narrow_margin(mp, sp)
    if margin > 0:
        raise NarrowViolation(
            f"not narrow: (sqrt(p) lambda_p + rho, theta) = "
            f"{margin + mp.p} > p = {mp.p}"
        )


def lemma216_cond1(mp: ModelParams, sp, word) -> bool:
    """Vanishing of the epsilon pairings along a reduced word of w0.

    The word (j_1, ..., j_N) is read right to left, so the partial products
    are its suffixes; the condition asks that for 1 <= n < N the epsilon of
    the length-n suffix w pairs to zero with the next simple root
    alpha_{j_{N-n}}.  That pairing is the j-th coordinate of `epsilon`,
    (w(s + rho) - rho)_j // p, which is 0 iff 1 <= w(s + rho)_j <= p; so
    the test walks u = s + rho along the word from its right end.  The word
    is checked to spell w0 unless it is `longest_element`'s own, which was
    checked when it was built.
    """
    rs = mp.rs
    word = int_vec(word, len(word))
    if any(not 1 <= i <= rs.rank for i in word):
        raise ValueError(f"letters of {word} must lie in 1..{rs.rank}")
    if word != longest_element(rs).word:
        x = rs.rho  # rho is regular: |Phi+| letters sending it to -rho spell w0
        for i in reversed(word):
            x = reflect(rs.cartan, x, i)
        if len(word) != len(rs.positive_roots) or any(c != -1 for c in x):
            raise ValueError("word is not a reduced word of the longest element")
    u = tuple([s + 1 for s in _digits(mp, sp)])
    p, rev = mp.p, word[::-1]
    for i, j in zip(rev, rev[1:]):  # apply j_{N-n+1}, test the next letter j_{N-n}
        u = reflect(rs.cartan, u, i)
        if not 1 <= u[j - 1] <= p:
            return False
    return True


def check_lambda_cap(rs: RootSystem, p: int):
    """Raise CapExceeded when |P/Q| p^l exceeds LAMBDA_CAP."""
    count = rs.det * p ** rs.rank
    if count > LAMBDA_CAP:
        raise CapExceeded(required=count, cap=LAMBDA_CAP)


def lambda_params(mp: ModelParams) -> tuple[LambdaParam, ...]:
    """All of Lambda: every (lambda0, digit vector) pair, in a fixed order."""
    rs = mp.rs
    out = []
    for lam0 in lambda0_set(rs):
        out.extend(
            LambdaParam(lambda0=lam0, sp=sp, p=mp.p)
            for sp in product(range(mp.p), repeat=rs.rank)
        )
    return tuple(out)


def lambda_x(mp: ModelParams, lam: LambdaParam) -> ScaledWeight:
    """The integer vector sqrt(p) lambda = -p lambda0 + digits."""
    _check_param(mp, lam)
    return ScaledWeight(
        x=tuple(-mp.p * a + s for a, s in zip(lam.lambda0, lam.sp)), p=mp.p
    )


def canonical_lambda(mp: ModelParams, mu: ScaledWeight) -> LambdaParam:
    """The unique Lambda representative of mu modulo sqrt(p) Q."""
    _check_p(mp, mu.p)
    mu0, sp = decompose(mp, mu)
    lam0 = lambda0_rep(mp.rs, mu0)
    return LambdaParam(lambda0=lam0, sp=sp, p=mp.p)


def minus_w0(rs: RootSystem, x) -> IntVec:
    """The diagram involution x -> -w0(x) on fundamental coordinates, a
    permutation of the coordinates."""
    x = int_vec(x, rs.rank)
    return tuple([x[j] for j in rs.minus_w0_perm])


def dual_param(mp: ModelParams, lam: LambdaParam) -> LambdaParam:
    """lambda' = -w0(lambda): both lambda0 and the digits get permuted by
    the diagram involution."""
    _check_param(mp, lam)
    rs = mp.rs
    return LambdaParam(lambda0=minus_w0(rs, lam.lambda0),
                       sp=minus_w0(rs, lam.sp), p=mp.p)


def dual_module_param(mp: ModelParams, lam: LambdaParam) -> LambdaParam:
    """Parameter of the contragredient module: the canonical representative
    of w0 * lambda' modulo sqrt(p) Q, in closed form.

    lambda' = -w0(lambda) has lambda0' = -w0(lambda0) and digits -w0(s);
    since -w0 is an involution fixing rho, w0 acts on those digits by the
    shifted action as w0(-w0(s) + rho) - rho = -s - 2 rho.  So w0 * lambda'
    is -p lambda0' - s - 2 rho, whose digit i is p - 2 - s_i, or p - 1 when
    s_i = p - 1, and whose lambda0-part is lambda0' + rho + [s_i = p - 1];
    the parameter takes that part's Lambda0 representative.
    """
    _check_param(mp, lam)
    rs, p = mp.rs, mp.p
    top = p - 1
    sp = lam.sp
    mu0 = [c + 1 + (s == top) for c, s in zip(minus_w0(rs, lam.lambda0), sp)]
    return LambdaParam(lambda0=lambda0_rep(rs, mu0),
                       sp=tuple([top if s == top else top - 1 - s for s in sp]), p=p)


def delta_lambda(mp: ModelParams, lam: LambdaParam) -> Fraction:
    """Conformal weight of the parameter lambda itself."""
    return conformal_weight(mp, lambda_x(mp, lam))
