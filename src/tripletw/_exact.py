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
`ldl_inverse` reads the Cartan inverse and determinant off it.  The `src_*`
helpers write the source of the per-type integer kernels, and
`compile_kernel` compiles it.
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


# dot and mat_vec are the package's shared kernels (pairings, Weyl
# actions).  Each sum runs in C through map(mul, ...), so
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


# The per-type kernels (`RootSystem.direct_kernel` of the direct route,
# `affine._route_kernel` of the affine route) are compiled from source
# generated with these pieces: every sum is written out term by term for
# the rank, with the integer entries of the form as constants.

def src_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def src_tup(items) -> str:
    """A tuple display of the items, a target that unpacks into them."""
    return "(" + ", ".join(items) + ",)"


def src_matrix(n: int) -> tuple[list[list[str]], str]:
    """(rows, display): the names w{i}_{j} of an n x n matrix's entries, row
    by row, and the nested tuple display that unpacks its rows into them."""
    rows = [[f"w{i}_{j}" for j in range(n)] for i in range(n)]
    return rows, src_tup(src_tup(row) for row in rows)


def src_lin(coeffs, xs) -> str:
    """The sum of c * x written out; coeffs are names or ints, zero ints
    dropped."""
    return " + ".join(x if c == 1 else f"{c} * {x}"
                      for c, x in zip(coeffs, xs) if c != 0) or "0"


def src_form(gram: IntMat, xs) -> str:
    """x . gram x for a symmetric gram, written out as the sum over i of
    x_i (gram_ii x_i + sum over j > i of 2 gram_ij x_j)."""
    return " + ".join(
        f"{xs[i]} * ({src_lin([gram[i][i]] + [2 * c for c in gram[i][i + 1:]], xs[i:])})"
        for i in range(len(xs)))


def compile_kernel(lines: list[str], label: str):
    """The function `kernel` defined by the source lines; label names the
    source in tracebacks."""
    namespace = {}
    exec(compile("\n".join(lines), label, "exec"), namespace)
    return namespace["kernel"]


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
def _ldl(gram):
    """Exact G = U^T D U with U unit upper triangular, so that
    y^T G y = sum_i d_i (y_i + sum_{j>i} u_ij y_j)^2.  Returns (d, u, plan),
    plan = (k, m d, k u above the diagonal, m k^2) with k and m the common
    denominators of u and d.  Raises ValueError unless G is symmetric
    positive definite.
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
    d = tuple(a[i][i] for i in range(n))
    k = lcm(*(x.denominator for i, row in enumerate(a) for x in row[i + 1:]))
    m = lcm(*(x.denominator for x in d))
    ku = tuple(tuple(int(x * k) for x in row[i + 1:]) for i, row in enumerate(a))
    return d, tuple(map(tuple, a)), (k, tuple(int(x * m) for x in d), ku, m * k * k)


def ldl_inverse(gram) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction]:
    """(G^-1, det G), both exact, from the G = U^T D U of _ldl: column j of
    G^-1 solves U^T z = e_j, D w = z, U y = w, and det G = prod d_i."""
    d, u, _ = _ldl(gram)
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
    exactly once, the last coordinate outermost and each one ascending.

    G is a symmetric positive definite integer matrix, num an integer vector
    and den > 0 and bound integers, so the ellipsoid is centred at num / den
    and q is an exact int.  Fincke-Pohst enumeration (Math. Comp. 44, 1985)
    on the integer plan that _ldl caches, s q = sum_i e_i (b r_i - a_i)^2
    with b = k den and int a_i, so a call makes no Fraction.  One generator
    frame walks the levels from the last one down: a level opens with one
    isqrt of the budget the levels above leave, giving [lo, top] for r_i,
    and each step of r_i opens the level below or, at level 0, yields the
    point.  Boundary points are included.
    """
    gram = tuple(tuple(map(index, row)) for row in gram)
    n = len(gram)
    num = tuple(map(index, num))
    den = index(den)
    bound = index(bound)
    if any(len(row) != n for row in gram) or len(num) != n or (
            lower is not None and len(lower) != n):
        raise ValueError("dimension mismatch")
    if den <= 0:
        raise ValueError("den must be positive")
    k, e, ku, s = _ldl(gram)[2]
    if bound < 0:
        return
    # a_i = c_i - den sum_{j>i} k u_ij r_j, with c_i = sum_{j>=i} k u_ij num_j
    c = [k * num[i] + sum(map(mul, ku[i], num[i + 1:])) for i in range(n)]
    b = k * den
    budget = s * bound
    r, a, top = [0] * n, [0] * n, [0] * n
    left = [0] * n + [budget]  # left[i + 1]: the budget levels n-1..i+1 leave
    i = n - 1
    while True:
        ai = a[i] = c[i] - den * sum(map(mul, ku[i], r[i + 1:]))
        t = isqrt(left[i + 1] // e[i])
        lo = -((t - ai) // b)
        if lower is not None and lower[i] > lo:
            lo = lower[i]
        top[i] = (ai + t) // b
        r[i] = lo - 1
        while True:
            x = r[i] = r[i] + 1
            if x > top[i]:
                if i == n - 1:
                    return
                i += 1
                continue
            left[i] = left[i + 1] - e[i] * (b * x - a[i]) ** 2
            if i:
                i -= 1
                break
            q, frac = divmod(budget - left[0], s)
            if frac:
                raise RuntimeError(f"form value {budget - left[0]}/{s} at {tuple(r)} "
                                   "is not an integer")
            yield tuple(r), q
