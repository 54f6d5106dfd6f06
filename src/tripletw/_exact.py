"""Exact rational linear algebra helpers shared by the library modules.

Everything here is plain integer or Fraction arithmetic on tuples; no
floating point enters anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul

IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


# dot, mat_vec and mat_mul are the package's hot kernels (orbit exponents,
# pairings, Weyl actions and enumeration): each sum runs in C through
# map(mul, ...), so the lengths are checked up front, since map stops
# silently at the shorter input.

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


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    k = len(b)
    for row in a:
        if len(row) != k:
            raise ValueError("dimension mismatch")
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def frac_matrix_inverse(m) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction]:
    """Invert a square matrix by Gauss-Jordan elimination.

    Returns (inverse, determinant), both exact.  Raises ValueError on a
    singular matrix.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        pv = a[col][col]
        det *= pv
        a[col] = [x / pv for x in a[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv), det


def sqrt_floor(x: Fraction) -> int:
    """Largest integer n >= 0 with n*n <= x, for x >= 0."""
    if x < 0:
        raise ValueError("negative argument")
    n = isqrt(x.numerator // x.denominator)
    while (n + 1) * (n + 1) * x.denominator <= x.numerator:
        n += 1
    while n * n * x.denominator > x.numerator:
        n -= 1
    return n


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


def lattice_points(gram, center, bound, lower=None):
    """Every integer vector r with (r - c)^T G (r - c) <= B, and r_i >= lower_i
    when `lower` is given; each exactly once, in a fixed order.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) on an exact LDL^T of the
    Gram matrix: coordinates are fixed from the last one down, and each
    interval |b r_i - a| <= t, with a/b its centre given the coordinates
    already fixed, takes t from sqrt_floor of the remaining budget.  Boundary
    points are included; nothing is evaluated in floating point.
    """
    d, u = _ldl(tuple(tuple(row) for row in gram))
    n = len(d)
    c = tuple(Fraction(x) for x in center)
    budget = Fraction(bound)
    if len(c) != n or (lower is not None and len(lower) != n):
        raise ValueError("dimension mismatch")
    if budget < 0:
        return
    r = [0] * n

    def rec(i, left):
        m = c[i] - sum(u[i][j] * (r[j] - c[j]) for j in range(i + 1, n))
        a, b = m.numerator, m.denominator
        t = sqrt_floor(left / d[i] * b * b)
        lo = -((t - a) // b)
        if lower is not None and lower[i] > lo:
            lo = lower[i]
        for x in range(lo, (a + t) // b + 1):
            r[i] = x
            if i == 0:
                yield tuple(r)
            else:
                yield from rec(i - 1, left - d[i] * (x - m) ** 2)

    yield from rec(n - 1, budget)
