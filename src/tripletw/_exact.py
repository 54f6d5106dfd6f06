"""Exact rational linear algebra helpers shared by the library modules, and
`int_vec`, the one door from a caller's numbers to ints.

Everything here is plain integer or Fraction arithmetic on tuples.  Floats
are kept out at the door, not converted: every integral input of the package
(weights, digits, alpha, beta, Weyl letters, p values, series coefficients)
passes `int_vec`, which accepts ints, any type with __index__ (bool too) and
Fractions of denominator 1, and raises ValueError on anything else, 2.0
included.  The inputs that may be rational take ints or Fractions and raise
ValueError on a float form value (`rootsys.pairing`, `norm_sq`).  The one
exact elimination is the LDL^T of `_ldl`: the lattice enumerator walks it, and
`ldl_inverse` reads the Cartan inverse and determinant off it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm, prod
from operator import index, mul

IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


def int_vec(x, rank: int) -> IntVec:
    """x as a tuple of `rank` ints; raises ValueError on a coordinate that is
    not an integer (a float, a Fraction off the integers, a str)."""
    if len(x) != rank:
        raise ValueError("dimension mismatch")
    for c in x:
        if type(c) is not int:
            break
    else:
        return tuple(x)
    out = []
    for c in x:
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator
        try:
            out.append(index(c))
        except TypeError:
            raise ValueError(f"non-integral coordinate {c!r}") from None
    return tuple(out)


# dot and mat_vec are the package's shared kernels (pairings, Weyl actions,
# the direct orbit exponent).  Each sum runs in C through map(mul, ...), so
# the lengths are checked up front, since map stops silently at the shorter
# input.

def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def mat_vec(m: IntMat, v):
    n = len(v)
    for row in m:
        if len(row) != n:
            raise ValueError("dimension mismatch")
    return tuple([sum(map(mul, row, v)) for row in m])


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), exact when x is a perfect square.

    Uses sqrt(num/den) = sqrt(num*den)/den so the bound overshoots by less
    than 1/den.
    """
    if x < 0:
        raise ValueError("negative argument")
    m = x.numerator * x.denominator
    s = isqrt(m)
    if s * s == m:
        return Fraction(s, x.denominator)
    return Fraction(s + 1, x.denominator)


@lru_cache(maxsize=None)  # one entry per Gram matrix: two per root type in use
def _ldl(gram) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """Exact G = U^T D U with U unit upper triangular, so that
    y^T G y = sum_i d_i (y_i + sum_{j>i} u_ij y_j)^2.  Returns (d, u).

    Raises ValueError unless G is symmetric positive definite.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix is not symmetric")
    for i in range(n):
        d = a[i][i]
        if d <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            a[i][j] /= d
        for k in range(i + 1, n):
            for j in range(k, n):
                a[k][j] -= a[i][k] * d * a[i][j]
    return (tuple(a[i][i] for i in range(n)),
            tuple(tuple(a[i]) for i in range(n)))


def ldl_inverse(gram) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction]:
    """(G^-1, det G), both exact, from the G = U^T D U of _ldl: column j of
    G^-1 solves U^T z = e_j, D w = z, U y = w, and det G = prod d_i."""
    d, u = _ldl(gram)
    n = len(d)
    cols = []
    for j in range(n):
        z = []
        for i in range(n):  # U^T is unit lower triangular
            z.append((i == j) - sum(u[k][i] * z[k] for k in range(i)))
        y = [zi / di for zi, di in zip(z, d)]
        for i in reversed(range(n)):  # U is unit upper triangular
            y[i] -= sum(u[i][k] * y[k] for k in range(i + 1, n))
        cols.append(tuple(y))
    return tuple(zip(*cols)), Fraction(prod(d))


def lattice_points(gram, num, den, bound, lower=None):
    """Every integer vector r with q = (den r - num)^T G (den r - num) <= bound,
    and r_i >= lower_i when `lower` is given, as the pair (r, q); each r
    exactly once, in a fixed order.

    G is a symmetric positive definite integer matrix, num an integer vector
    and den > 0 and bound integers, so the ellipsoid is centred at num / den
    and q is an exact int.  Fincke-Pohst enumeration (Math. Comp. 44, 1985)
    on the exact G = U^T D U of _ldl: coordinates are fixed from the last one
    down.  With k the common denominator of the u_ij and m that of the d_i,
    s q = sum_i e_i (b r_i - a_i)^2 with e_i = m d_i, b = k den and the a_i
    integers, s = m k^2; so each node takes one isqrt on an int budget, and
    no Fraction is made after set-up.  Boundary points are included.
    """
    gram = tuple(tuple(index(x) for x in row) for row in gram)
    n = len(gram)
    num = tuple(index(x) for x in num)
    den = index(den)
    bound = index(bound)
    if any(len(row) != n for row in gram) or len(num) != n or (
            lower is not None and len(lower) != n):
        raise ValueError("dimension mismatch")
    if den <= 0:
        raise ValueError("den must be positive")
    d, u = _ldl(gram)
    if bound < 0:
        return
    k = lcm(*(x.denominator for row in u for x in row))
    m = lcm(*(x.denominator for x in d))
    e = tuple(int(x * m) for x in d)
    ku = tuple(tuple(int(x * k) for x in row[i + 1:]) for i, row in enumerate(u))
    # a_i = c_i - den sum_{j>i} k u_ij r_j, with c_i = sum_{j>=i} k u_ij num_j
    c = tuple(k * num[i] + sum(map(mul, ku[i], num[i + 1:])) for i in range(n))
    b = k * den
    s = m * k * k
    budget = s * bound
    r = [0] * n

    def rec(i, left):
        a = c[i] - den * sum(map(mul, ku[i], r[i + 1:]))
        t = isqrt(left // e[i])
        lo = -((t - a) // b)
        if lower is not None and lower[i] > lo:
            lo = lower[i]
        for x in range(lo, (a + t) // b + 1):
            r[i] = x
            rest = left - e[i] * (b * x - a) ** 2
            if i:
                yield from rec(i - 1, rest)
                continue
            q, frac = divmod(budget - rest, s)
            if frac:
                raise RuntimeError(f"form value {budget - rest}/{s} at {tuple(r)} "
                                   "is not an integer")
            yield tuple(r), q

    yield from rec(n - 1, budget)
