"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: the
partition counter uses Euler's pentagonal recurrence instead of the
product-expansion loop, the multi-colour counts come from repeated
convolution of that table, the Weyl denominator product is built from
the positive roots alone, with no Weyl group, and the A1 module character
is a published bilateral theta series, with no lattice or orbit walk.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def partitions(n: int) -> int:
    """Number of partitions of n, via the pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partitions(n - g1)
        if g2 <= n:
            total += sign * partitions(n - g2)
        k += 1
    return total


def convolve(a, b):
    """Plain O(n^2) convolution of two coefficient lists, truncated to len(a)."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return out


def colored_partitions(colors: int, upto: int):
    """Coefficients of prod 1/(1-q^m)^colors through q^upto, by convolution."""
    base = [partitions(n) for n in range(upto + 1)]
    out = [1] + [0] * upto
    for _ in range(colors):
        out = convolve(out, base)
    return out


def weyl_denominator_char(positive_roots, inv_cartan, p, v, upto):
    """The signed Weyl character at lambda0 = 0, sp = 0 by the Weyl
    denominator identity, with v = alpha + rho in fundamental coordinates:

        q^(|p v - rho|^2 / 2p - l/24) prod_{a > 0} (1 - q^(v, a)) / prod_n (1 - q^n)^l.

    The roots are in simple-root coordinates, so (v, a) is a plain dot
    product; |.|^2 is taken in the inverse Cartan form.  Returns the base
    exponent and the coefficients through q^(base + upto).
    """
    l = len(v)
    w = [p * c - 1 for c in v]
    norm = sum(w[i] * inv_cartan[i][j] * w[j] for i in range(l) for j in range(l))
    base = Fraction(norm) / (2 * p) - Fraction(l, 24)
    num = [1] + [0] * upto
    for a in positive_roots:
        k = sum(c * r for c, r in zip(v, a))
        factor = [1] + [0] * upto
        if k <= upto:
            factor[k] -= 1
        num = convolve(num, factor)
    return base, convolve(num, colored_partitions(l, upto))


def a1_module_char(p, lam0, sp, n):
    """The A1 triplet module character of (lambda0, sp) on the window that
    module_char returns at order n, from the Feigin-Gainutdinov-Semikhatov-
    Tipunin bilateral theta form (arXiv:hep-th/0504093):

        eta^-1 sum_j j q^((p j - s)^2 / 4p),  j = 1 + lambda0 (mod 2), j != 0,

    with s = sp + 1.  The window ends n above the leading Fock exponent
    (p (1 + lambda0) - s)^2 / 4p - 1/24; leading zeros are dropped.
    Returns (base, coeffs), coeffs[k] being the coefficient of q^(base + k).
    """
    s = sp + 1
    big = (p * (1 + lam0) - s) ** 2 + 4 * p * n  # 4p (window top + 1/24)
    reach = isqrt(big)
    terms = []  # (j, m): the term of j starts m below the window top
    for j in range((s - reach) // p, (s + reach) // p + 1):
        gap = big - (p * j - s) ** 2
        if j == 0 or (j - 1 - lam0) % 2 or gap < 0:
            continue
        m, r = divmod(gap, 4 * p)
        if r:
            raise ValueError(f"theta term j={j} is off the window's coset")
        terms.append((j, m))
    depth = max(m for _, m in terms)
    coeffs = [sum(j * partitions(m - d) for j, m in terms)
              for d in range(depth, -1, -1)]
    lead = next(k for k, c in enumerate(coeffs) if c)
    top = Fraction(big, 4 * p) - Fraction(1, 24)
    return top - depth + lead, tuple(coeffs[lead:])
