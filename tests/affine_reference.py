"""An independent reference for the affine route: y_sigma in W x Q acting on
the chamber weight mu_lambda, with the level and delta bookkeeping.

It reads only the words and matrices of `weyl_enumerate` and the Cartan
data.  A product is a matrix product and an inverse the matrix of the
reversed word, each looked up in a {matrix: element} dict of the listing;
the action on simple-root coordinates is adj M C / det; and the chamber
element is found by a search of W.  It shares no key lookup, chamber record
or label table with the route; `test_affine_reference_is_independent`
keeps it so.
"""

from fractions import Fraction
from functools import cache
from operator import mul
from typing import NamedTuple

from tripletw import build_root_system, weyl_enumerate


class AffineWeight(NamedTuple):
    classical: tuple   # fundamental coordinates of the classical part
    level: Fraction | int
    delta_coeff: Fraction | int


class AffineWeylElement(NamedTuple):
    sigma: object      # a listed WeylElement
    beta: tuple        # translation part, simple-root coordinates


def dot(u, v):
    return sum(map(mul, u, v))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple([tuple([dot(row, col) for col in cols]) for row in a])


def mat_vec(m, v):
    return tuple([dot(row, v) for row in m])


@cache
def by_matrix(t):
    """{matrix: element} of the listing of the type t."""
    return {w.matrix: w for w in weyl_enumerate(build_root_system(t))}


def reflection(cartan, i):
    """s_i for the letter i in 1..l on fundamental coordinates,
    x -> x - x_i C[i], as a matrix."""
    n = len(cartan)
    return tuple(tuple(int(j == k) - (cartan[i - 1][j] if k == i - 1 else 0)
                       for k in range(n)) for j in range(n))


def word_matrix(cartan, word):
    m = tuple(tuple(int(j == k) for k in range(len(cartan))) for j in range(len(cartan)))
    for i in word:
        m = mat_mul(m, reflection(cartan, i))
    return m


def compose(rs, u, v):
    return by_matrix(rs.type)[mat_mul(u.matrix, v.matrix)]


@cache
def _inverse(t, word):
    return by_matrix(t)[word_matrix(build_root_system(t).cartan, reversed(word))]


def inverse(rs, w):
    return _inverse(rs.type, w.word)


def in_q(rs, x):
    return not any(c % rs.det for c in mat_vec(rs.adj, x))


def root_coords(rs, x):
    """adj x / det, the simple-root coordinates of x; ValueError off Q."""
    if not in_q(rs, x):
        raise ValueError(f"weight {tuple(x)} is not in the root lattice")
    return tuple(c // rs.det for c in mat_vec(rs.adj, x))


def root_action(rs, w):
    """The matrix of w on simple-root coordinates, adj M C / det."""
    return tuple(zip(*(root_coords(rs, col) for col in zip(*mat_mul(w.matrix, rs.cartan)))))


def sends_to_positive(rs, w):
    """For each positive root g, whether w g is a positive root, that is has
    positive height: det times the heights of the w alpha_j are the column
    sums of adj M C, the row vector (1 adj) M C."""
    ones_adj = [sum(col) for col in zip(*rs.adj)]
    heights = mat_vec(tuple(zip(*rs.cartan)), mat_vec(tuple(zip(*w.matrix)), ones_adj))
    return [dot(heights, g) > 0 for g in rs.positive_roots]


def inversion_count(rs, w):
    return sends_to_positive(rs, w).count(False)


def chamber(rs, lambda0):
    """(omega, sigma_c): omega the zero or minuscule weight in the class of
    lambda0 + rho modulo Q, and sigma_c the one element of W, found by a
    search, that sends to positive roots exactly the positive roots
    orthogonal to omega."""
    return _chamber_search(rs.type, tuple(lambda0))


@cache
def _chamber_search(t, lambda0):
    rs = build_root_system(t)
    l = rs.rank
    reps = [(0,) * l] + [tuple(int(j == i) for j in range(l))
                         for i, mark in enumerate(rs.theta_root) if mark == 1]
    (omega,) = [o for o in reps if in_q(rs, [a + 1 - b for a, b in zip(lambda0, o)])]
    orth = [dot(g, omega) == 0 for g in rs.positive_roots]
    (sigma_c,) = [w for w in weyl_enumerate(rs) if sends_to_positive(rs, w) == orth]
    return omega, sigma_c


def y_sigma(mp, sigma, alpha, lambda0):
    """t_gamma sigma sigma_c^-1 with gamma = sigma(omega) - (alpha + lambda0 + rho),
    in normal form (w, beta), w t_beta = t_gamma w and beta = w^-1 gamma."""
    rs = mp.rs
    omega, sigma_c = chamber(rs, lambda0)
    gamma = [so - (a + l0 + 1) for so, a, l0 in zip(mat_vec(sigma.matrix, omega), alpha, lambda0)]
    w = compose(rs, sigma, inverse(rs, sigma_c))
    return AffineWeylElement(w, root_coords(rs, mat_vec(inverse(rs, w).matrix, gamma)))


def mu_lambda(mp, lam):
    """The chamber weight of lam at level k = p - h:
    sigma_c(-p omega + s + rho) - rho."""
    omega, sigma_c = chamber(mp.rs, lam.lambda0)
    inner = [-mp.p * o + s + 1 for o, s in zip(omega, lam.sp)]
    return AffineWeight(tuple(c - 1 for c in mat_vec(sigma_c.matrix, inner)), mp.k, Fraction(0))


def aff_mul(rs, y1, y2):
    """(sigma1 t_b1)(sigma2 t_b2) = (sigma1 sigma2) t_{sigma2^-1 b1 + b2}."""
    moved = mat_vec(root_action(rs, inverse(rs, y2.sigma)), y1.beta)
    return AffineWeylElement(compose(rs, y1.sigma, y2.sigma),
                             tuple(a + b for a, b in zip(moved, y2.beta)))


def aff_act(rs, y, mu):
    """Classical part sigma(mu_bar + level beta); level kept; the delta
    coefficient picks up -(mu_bar, beta) - |beta|^2 level / 2."""
    beta_f = mat_vec(rs.cartan, y.beta)
    delta = mu.delta_coeff - dot(mu.classical, y.beta) - Fraction(dot(beta_f, y.beta), 2) * mu.level
    classical = mat_vec(y.sigma.matrix, [c + mu.level * b for c, b in zip(mu.classical, beta_f)])
    return AffineWeight(classical, mu.level, delta)


def aff_circ(mp, y, mu):
    """The shifted action, conjugated by rho + h Lambda0."""
    h = mp.rs.coxeter_h
    out = aff_act(mp.rs, y, AffineWeight(tuple(c + 1 for c in mu.classical),
                                         mu.level + h, mu.delta_coeff))
    return AffineWeight(tuple(c - 1 for c in out.classical), out.level - h, out.delta_coeff)
