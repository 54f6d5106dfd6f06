"""Output checks for the benchmark: outside oracles and required properties.

Nothing here calls tripletw.  A series is a pair (base, coeffs) with base a
Fraction and coeffs[j] the coefficient of q^(base + j).  Every check returns
a list of problems; an empty list means the output passed.

The oracles are closed forms from outside the package's algebra:

* eta^-1 comes from Euler's pentagonal-number recurrence for p(n);
* the A1 module character is the Feigin-Gainutdinov-Semikhatov-Tipunin
  bilateral theta form eta^-1 sum_k (2k+1+l0) q^((p(2k+1+l0) - s)^2 / 4p);
* the A1 p=2 signed Weyl character is q^(1/12) sum (p(n) - p(n-1)) q^n;
* the lattice character of A_l and D_l is eta^-l sum_beta q^(|C - p beta|^2 / 2p)
  summed in the orthonormal model of the root lattice (A_l inside Z^(l+1)
  with coordinate sum 0, D_l as the vectors of Z^l with even sum), not in
  the Cartan-matrix coordinates the program uses.  For A1 this is
  eta^-1 sum_r q^((c - 2pr)^2 / 4p) with c = -p l0 + sp - (p-1).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import isqrt

ETA_SHIFT = Fraction(1, 24)  # eta^-1 = q^(-1/24) sum p(n) q^n, per rank


def pq_order(type_name: str) -> int:
    """|P/Q|, the index of the root lattice in the weight lattice."""
    fam, rank = type_name[0], int(type_name[1:])
    return {"A": rank + 1, "D": 4, "E": {6: 3, 7: 2, 8: 1}.get(rank)}[fam]


_PARTITIONS = [1]


def partitions(n: int) -> int:
    """p(n) by the pentagonal recurrence; p(n) = 0 for n < 0."""
    if n < 0:
        return 0
    while len(_PARTITIONS) <= n:
        m = len(_PARTITIONS)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _PARTITIONS[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _PARTITIONS[m - g2]
            k += 1
        _PARTITIONS.append(total)
    return _PARTITIONS[n]


@lru_cache(maxsize=None)
def colored_partitions(colors: int, n: int) -> list[int]:
    """Coefficients of prod (1 - q^m)^-colors through q^n, by convolving p(n)."""
    base = [partitions(k) for k in range(n + 1)]
    out = [1] + [0] * n
    for _ in range(colors):
        out = [sum(out[i] * base[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return out


def series_from_json(text: str):
    """A series from the CLI's JSON form."""
    obj = json.loads(text)
    return Fraction(obj["base"]["num"], obj["base"]["den"]), tuple(obj["coeffs"])


def coeff_at(series, e: Fraction) -> int | None:
    """Coefficient of q^e, 0 below the window, None above it or off the coset."""
    base, coeffs = series
    d = e - base
    if d.denominator != 1:
        return None
    if d < 0:
        return 0
    return coeffs[int(d)] if d < len(coeffs) else None


def top(series) -> Fraction:
    return series[0] + len(series[1]) - 1


# --- theta-series oracles ----------------------------------------------------

def _eta_quotient_coeff(terms, e: Fraction, rank: int, table) -> int:
    """Coefficient of q^e in eta^-rank * sum of c q^t over terms (t, c);
    table[k] is the rank-coloured partition count of k."""
    total = 0
    for t, c in terms:
        n = e + rank * ETA_SHIFT - t
        if n.denominator == 1 and n >= 0:
            total += c * table[int(n)]
    return total


def a1_module_terms(p: int, lam0: int, sp: int, limit: Fraction):
    """Bilateral theta terms (t, j) of the A1 triplet module character:
    t = (p j - s)^2 / 4p <= limit over j = 2k+1+l0, s = sp+1."""
    s = sp + 1
    reach = isqrt(int(4 * p * limit)) + 1
    terms = []
    for j in range((s - reach) // p - 1, (s + reach) // p + 2):
        t = Fraction((p * j - s) ** 2, 4 * p)
        if j % 2 == (1 + lam0) % 2 and t <= limit and j:
            terms.append((t, j))
    return terms


def a1_anchor(p: int, lam0: int, sp: int) -> Fraction:
    """Leading Fock exponent of lambda: (-p l0 + sp - (p-1))^2 / 4p."""
    return Fraction((-p * lam0 + sp - (p - 1)) ** 2, 4 * p)


def check_theta_oracle(series, terms, window_top: Fraction, what: str, rank: int = 1):
    """The series equals eta^-rank * sum(terms) over its whole window, has
    nothing nonzero below its base, and reaches exactly window_top."""
    problems = []
    if top(series) != window_top:
        problems.append(f"{what}: window ends at {top(series)}, expected {window_top}")
    base, coeffs = series
    lowest = min((t for t, _ in terms), default=base) - rank * ETA_SHIFT
    table = colored_partitions(rank, int(max(top(series), window_top) - lowest) + 1)
    for j, c in enumerate(coeffs):
        want = _eta_quotient_coeff(terms, base + j, rank, table)
        if c != want:
            problems.append(f"{what}: coefficient of q^{base + j} is {c}, oracle {want}")
            break
    e = base - 1
    while e >= lowest:
        if _eta_quotient_coeff(terms, e, rank, table):
            problems.append(f"{what}: oracle has a nonzero q^{e} below base {base}")
            break
        e -= 1
    return problems


def check_a1_module(series, p: int, lam0: int, sp: int, n: int):
    window_top = a1_anchor(p, lam0, sp) - ETA_SHIFT + n
    terms = a1_module_terms(p, lam0, sp, window_top + ETA_SHIFT)
    return check_theta_oracle(series, terms, window_top,
                              f"A1 p={p} l0={lam0} sp={sp} module n={n}")


def check_a1_p2_w(series, n: int):
    """A1 p=2, alpha=0, lambda=0: q^(1/8 - 1/24) sum (p(k) - p(k-1)) q^k."""
    want = (Fraction(1, 8) - ETA_SHIFT,
            tuple(partitions(k) - partitions(k - 1) for k in range(n + 1)))
    if series != want:
        return [f"A1 p=2 char w n={n} is {series}, oracle {want}"]
    return []


# --- lattice characters in the orthonormal model ------------------------------

def fundamental_weights(type_name: str):
    """Orthonormal coordinates of the fundamental weights, Bourbaki numbering:
    A_l in R^(l+1), omega_i = e_1 + ... + e_i - i/(l+1) (e_1 + ... + e_(l+1));
    D_l in R^l, omega_i = e_1 + ... + e_i for i <= l-2,
    omega_(l-1) = (e_1 + ... + e_(l-1) - e_l)/2, omega_l = (e_1 + ... + e_l)/2."""
    fam, l = type_name[0], int(type_name[1:])
    if fam == "A":
        return [tuple(Fraction(int(j < i), 1) - Fraction(i, l + 1) for j in range(l + 1))
                for i in range(1, l + 1)]
    if fam == "D":
        out = [tuple(Fraction(int(j < i)) for j in range(l)) for i in range(1, l - 1)]
        half = Fraction(1, 2)
        out.append(tuple(half if j < l - 1 else -half for j in range(l)))
        out.append(tuple(half for _ in range(l)))
        return out
    raise ValueError(f"no orthonormal model for {type_name}")


def _ball(c, scale: int, bound: int):
    """Integer vectors b with sum_k (c_k - scale b_k)^2 <= bound, with that sum."""
    def rec(k, acc, prefix):
        if k == len(c):
            yield tuple(prefix), acc
            return
        r = isqrt(bound - acc) + 1
        for b in range((c[k] - r) // scale, (c[k] + r) // scale + 2):
            d = (c[k] - scale * b) ** 2
            if acc + d <= bound:
                prefix.append(b)
                yield from rec(k + 1, acc + d, prefix)
                prefix.pop()
    return rec(0, 0, [])


def lattice_terms(type_name: str, p: int, center, limit: Fraction):
    """(|C - p beta|^2 / 2p, 1) for every beta in Q with exponent <= limit,
    where C is the weight with fundamental coordinates `center`."""
    omegas = fundamental_weights(type_name)
    scale = 2 if type_name[0] == "D" else len(omegas) + 1  # clears denominators
    c = [int(scale * sum(x * w[k] for x, w in zip(center, omegas)))
         for k in range(len(omegas[0]))]
    # |scale C - p scale beta|^2 = scale^2 |C - p beta|^2 <= scale^2 2p limit
    den = 2 * p * scale * scale
    in_q = (lambda b: sum(b) == 0) if type_name[0] == "A" else (lambda b: sum(b) % 2 == 0)
    return [(Fraction(s, den), 1) for beta, s in _ball(c, p * scale, int(den * limit))
            if in_q(beta)]


def check_lattice_oracle(series, type_name: str, p: int, lam0, sp, n: int, what: str):
    """lattice_char of (lambda0, sp) at window n against the orthonormal-model
    sum; the center is x_lambda - (p-1) rho = -p lambda0 + sp - (p-1)."""
    rank = len(sp)
    center = [-p * a + s - (p - 1) for a, s in zip(lam0, sp)]
    omegas = fundamental_weights(type_name)
    c = [sum(x * w[k] for x, w in zip(center, omegas)) for k in range(len(omegas[0]))]
    anchor = sum(x * x for x in c) / (2 * p)
    window_top = anchor - rank * ETA_SHIFT + n
    terms = lattice_terms(type_name, p, center, window_top + rank * ETA_SHIFT)
    return check_theta_oracle(series, terms, window_top, what, rank)


# --- properties --------------------------------------------------------------

def check_equal(a, b, what: str):
    if a != b:
        return [f"{what}: outputs differ"]
    return []


def check_leading1_nonneg(series, what: str):
    coeffs = series[1]
    if not coeffs or coeffs[0] != 1:
        return [f"{what}: leading coefficient {coeffs[:1]}, expected 1"]
    if any(c < 0 for c in coeffs):
        return [f"{what}: negative coefficient"]
    return []


def check_dominated(lower, upper, what: str):
    """lower <= upper at every exponent of upper's window that lower's window
    also covers; the two must share one exponent coset."""
    if (lower[0] - upper[0]).denominator != 1:
        return [f"{what}: base {lower[0]} off the coset of {upper[0]}"]
    base, coeffs = upper
    for j, c in enumerate(coeffs):
        m = coeff_at(lower, base + j)
        if m is None:
            break
        if m > c:
            return [f"{what}: {m} > {c} at q^{base + j}"]
    return []


def check_prefix(short, long, k: int, what: str):
    """char(n) is a prefix of char(n+k): equal coefficients on the short
    window, and the long window reaches k further."""
    if top(long) != top(short) + k:
        return [f"{what}: window of n+{k} ends at {top(long)}, expected {top(short) + k}"]
    base, coeffs = short
    for j, c in enumerate(coeffs):
        if coeff_at(long, base + j) != c:
            return [f"{what}: char(n+{k}) differs from char(n) at q^{base + j}"]
    return []


def check_lambda_list(text: str, type_name: str, p: int):
    """|P/Q| p^l distinct rows, and dual_param is an involution on them."""
    obj = json.loads(text)
    rows = obj["rows"]
    rank = int(type_name[1:])
    want = pq_order(type_name) * p ** rank
    problems = []
    if obj["count"] != len(rows) or len(rows) != want:
        problems.append(f"lambda-list {type_name} p={p}: {len(rows)} rows "
                        f"(count {obj['count']}), expected {want}")
    dual = {(tuple(r["lambda0"]), tuple(r["sp"])):
            (tuple(r["dual_lambda0"]), tuple(r["dual_sp"])) for r in rows}
    if len(dual) != len(rows):
        problems.append(f"lambda-list {type_name} p={p}: repeated rows")
    for key, image in dual.items():
        if dual.get(image) != key:
            problems.append(f"lambda-list {type_name} p={p}: dual_param is not "
                            f"an involution at {key}")
            break
    return problems


def check_suite_reports(reports, cases, what: str):
    """Every suite passed and counted at least one case.

    reports: (name, status) pairs; cases: suite name -> cases counted while
    it ran.  A suite with no counted case checked nothing.
    """
    problems = []
    for name, status in reports:
        if status != "pass":
            problems.append(f"{what}: suite {name} reports {status}")
        if cases.get(name, 0) == 0:
            problems.append(f"{what}: suite {name} checked zero cases")
    if not reports:
        problems.append(f"{what}: no suite ran")
    return problems


def verify_statuses(text: str):
    """(check name, status) pairs from `tripletw verify --output json`."""
    return [(r["check"], r["status"]) for r in json.loads(text)]
