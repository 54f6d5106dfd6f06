"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: the
partition counter uses Euler's pentagonal recurrence instead of the
product-expansion loop, the multi-colour counts come from repeated
convolution of that table, the Weyl denominator product is built from
the positive roots alone, with no Weyl group, on whichever side of the
exponent is not rho, the A1 module character
is a published bilateral theta series, with no lattice or orbit walk, and
the lattice character is summed by a plain box scan in the orthonormal
model of the root lattice, not in Cartan coordinates.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
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


def weyl_denominator_char(positive_roots, inv_cartan, p, v, u, upto):
    """The signed Weyl character sum_sigma eps(sigma) q^(|p sigma(v) - u|^2 / 2p)
    / eta^l, with v = alpha + lambda0 + rho and u = s + rho in fundamental
    coordinates, one of which must be rho.  The term of sigma sits
    (v - sigma v, u) above |p v - u|^2 / 2p, so by the Weyl denominator
    identity the sum is

        q^(|p v - u|^2 / 2p - l/24) prod_{a > 0} (1 - q^(x, a)) / prod_n (1 - q^n)^l,

    with x = v when u = rho (sp = 0) and x = u when v = rho
    (alpha = lambda0 = 0).  The roots are in simple-root coordinates, so
    (x, a) is a plain dot product; |.|^2 is taken in the inverse Cartan
    form.  Returns the base exponent and the coefficients through
    q^(base + upto).
    """
    l = len(v)
    rho = (1,) * l
    if tuple(u) == rho:
        x = v
    elif tuple(v) == rho:
        x = u
    else:
        raise ValueError("one of v and u must be rho")
    w = [p * a - b for a, b in zip(v, u)]
    norm = sum(w[i] * inv_cartan[i][j] * w[j] for i in range(l) for j in range(l))
    base = Fraction(norm) / (2 * p) - Fraction(l, 24)
    num = [1] + [0] * upto
    for a in positive_roots:
        k = sum(c * r for c, r in zip(x, a))
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


def _scaled_fundamental_weights(family: str, l: int):
    """(k, rows): row i is k omega_(i+1) in orthonormal coordinates, Bourbaki
    numbering, with k clearing the denominators.  A_l lives in Z^(l+1), with
    omega_i = e_1 + ... + e_i - i/(l+1) (e_1 + ... + e_(l+1)) and k = l + 1;
    D_l in Z^l, with omega_i = e_1 + ... + e_i for i <= l - 2,
    omega_(l-1) = (e_1 + ... + e_(l-1) - e_l)/2, omega_l = (e_1 + ... + e_l)/2
    and k = 2."""
    if family == "A":
        return l + 1, [[(l + 1) * (j < i) - i for j in range(l + 1)] for i in range(1, l + 1)]
    if family == "D":
        rows = [[2 * (j < i) for j in range(l)] for i in range(1, l - 1)]
        rows.append([1] * (l - 1) + [-1])
        rows.append([1] * l)
        return 2, rows
    raise ValueError(f"no orthonormal model for family {family!r}")


def lattice_char_orthonormal(family: str, p: int, lam0, sp, n: int):
    """The lattice-module character of (lambda0, sp) on the window that
    lattice_char returns at order n, summed in the orthonormal model:

        eta^-l sum_{beta in Q} q^(|c - p beta|^2 / 2p),

    with c = x_lambda - (p-1) rho = -p lambda0 + sp - (p-1) rho, put into
    orthonormal coordinates through the fundamental weights.  Q is the set
    of vectors of Z^(l+1) with coordinate sum 0 for A_l, and of Z^l with an
    even coordinate sum for D_l.  For A1 the sum is
    eta^-1 sum_r q^((c - 2pr)^2 / 4p).  The window ends n above the beta = 0
    exponent |c|^2 / 2p - l/24, and beta runs over the box that holds the
    ball |c - p beta|^2 <= 2p (|c|^2 / 2p + n).  Returns (base, coeffs),
    coeffs[k] being the coefficient of q^(base + k).
    """
    l = len(sp)
    k, omegas = _scaled_fundamental_weights(family, l)
    centre = [-p * a + s - (p - 1) for a, s in zip(lam0, sp)]
    kc = [sum(x * w[j] for x, w in zip(centre, omegas)) for j in range(len(omegas[0]))]
    den = 2 * p * k * k  # an exponent is |kc - p k beta|^2 / den
    top = sum(x * x for x in kc) + den * n  # den times the window top
    r = isqrt(top)
    box = [range(-((r - x) // (p * k)), (x + r) // (p * k) + 1) for x in kc]
    in_q = (lambda b: sum(b) == 0) if family == "A" else (lambda b: sum(b) % 2 == 0)
    exps = [sum((x - p * k * b) ** 2 for x, b in zip(kc, beta))
            for beta in product(*box) if in_q(beta)]
    exps = [e for e in exps if e <= top]
    low = min(exps)
    eta = colored_partitions(l, (top - low) // den)
    coeffs = [0] * len(eta)
    for e in exps:
        shift, rem = divmod(e - low, den)
        if rem:
            raise ValueError(f"lattice term {e}/{den} is off the window's coset")
        for j in range(shift, len(eta)):
            coeffs[j] += eta[j - shift]
    return Fraction(low, den) - Fraction(l, 24), tuple(coeffs)
