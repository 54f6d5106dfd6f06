"""Simply-laced root systems with exact rational arithmetic.

Cartan data for types A, D, E; weights in the fundamental-weight basis; the
invariant form normalized so (alpha_i, alpha_i) = 2; full Weyl group
enumeration with canonical reduced words; and the classical helpers needed
downstream (Weyl dimension formula, dominant weights of the root lattice
inside a ball).

Conventions used throughout the package:

* A weight is a plain tuple of exact numbers (int or Fraction), giving its
  coordinates in the fundamental-weight basis, so x_i = (x, alpha_i^vee).
* Roots are often carried in simple-root coordinates; for a weight x in the
  fundamental basis and a root g in root coordinates, (x, g) is the plain
  dot product of the two tuples.
* Reduced words are tuples of 1-based simple-reflection indices; the word
  (i1, ..., ik) denotes s_{i1} s_{i2} ... s_{ik}, applied right to left.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from ._exact import (
    IntMat,
    IntVec,
    dot,
    frac_matrix_inverse,
    identity_matrix,
    lattice_points,
    mat_mul,
    mat_vec,
    sqrt_upper,
)

# The largest Weyl group `_enumerate` lists; set it per scope and reset the token.
WEYL_CAP: ContextVar[int] = ContextVar("WEYL_CAP", default=1_000_000)


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured element cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration needs cap >= {required}, current cap is {cap}"
        )
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"unsupported family {self.family!r}, expected A, D or E")
        if self.family == "A" and self.rank < 1:
            raise ValueError("family A requires rank >= 1")
        if self.family == "D" and self.rank < 4:
            raise ValueError("family D requires rank >= 4")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise ValueError("family E requires rank in {6, 7, 8}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def cartan_type(t) -> CartanType:
    """Coerce a CartanType or a string like "A2", "D4", "E8"."""
    if isinstance(t, CartanType):
        return t
    s = str(t).strip()
    if len(s) < 2 or not s[1:].isdigit():
        raise ValueError(f"cannot parse Cartan type {t!r}")
    return CartanType(s[0].upper(), int(s[1:]))


def cartan_matrix(ct: CartanType) -> IntMat:
    """The Cartan matrix in the Bourbaki numbering of the nodes."""
    l = ct.rank
    edges = set()
    if ct.family == "A":
        edges = {(i, i + 1) for i in range(1, l)}
    elif ct.family == "D":
        # chain 1..l-2 with both l-1 and l attached to node l-2
        edges = {(i, i + 1) for i in range(1, l - 2)}
        edges |= {(l - 2, l - 1), (l - 2, l)}
    else:
        # E_l: chain 1-3-4-5-...-l with node 2 attached to node 4
        edges = {(1, 3), (3, 4), (2, 4)} | {(i, i + 1) for i in range(4, l)}
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for a, b in edges:
        m[a - 1][b - 1] = -1
        m[b - 1][a - 1] = -1
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class RootSystem:
    type: CartanType
    cartan: IntMat
    inv_cartan: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[IntVec, ...]  # simple-root coordinates
    rho: IntVec                         # fundamental coordinates (all ones)
    theta: IntVec                       # fundamental coordinates
    coxeter_h: int
    dim_g: int
    weyl_order: int
    # plumbing kept alongside: integer adjugate with adj = det * inv_cartan,
    # the index det = |P/Q|, theta in root coordinates (the marks), and the
    # sum of all positive roots (= 2 rho) in root coordinates.
    adj: IntMat
    det: int
    theta_root: IntVec
    two_rho_root: IntVec

    @property
    def rank(self) -> int:
        return self.type.rank


@dataclass(frozen=True)
class WeylElement:
    word: IntVec   # canonical reduced word, 1-based generator indices
    matrix: IntMat  # action on fundamental-weight coordinates

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sign(self) -> int:
        return -1 if len(self.word) % 2 else 1


def simple_reflection_matrix(cartan: IntMat, i: int) -> IntMat:
    """Matrix of s_i on fundamental coordinates: x_j -> x_j - x_i C_{ij}."""
    l = len(cartan)
    return tuple(
        tuple((1 if j == k else 0) - (cartan[i - 1][j] if k == i - 1 else 0)
              for k in range(l))
        for j in range(l)
    )


def weyl_matrix(cartan: IntMat, word) -> IntMat:
    m = identity_matrix(len(cartan))
    for i in word:
        m = mat_mul(m, simple_reflection_matrix(cartan, i))
    return m


def _positive_roots(cartan: IntMat) -> tuple[IntVec, ...]:
    """All positive roots in simple-root coordinates, by reflection closure."""
    l = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        r = queue.pop()
        cr = mat_vec(cartan, r)
        for i in range(l):
            s = list(r)
            s[i] -= cr[i]
            s = tuple(s)
            if s not in seen:
                seen.add(s)
                queue.append(s)
    pos = [r for r in seen if all(c >= 0 for c in r)]
    pos.sort(key=lambda r: (sum(r), r))
    return tuple(pos)


_RS_CACHE: dict[CartanType, RootSystem] = {}


def build_root_system(t) -> RootSystem:
    """Construct (and cache) the full root-system record for a type."""
    ct = cartan_type(t)
    if ct in _RS_CACHE:
        return _RS_CACHE[ct]
    cartan = cartan_matrix(ct)
    inv, det_f = frac_matrix_inverse(cartan)
    det = int(det_f)
    adj = tuple(tuple(int(x * det) for x in row) for row in inv)
    pos = _positive_roots(cartan)
    theta_root = pos[-1]
    if not all(r == theta_root or all(a <= b for a, b in zip(r, theta_root))
               for r in pos):
        raise RuntimeError(f"the last positive root of {ct} is not the highest root")
    theta = mat_vec(cartan, theta_root)
    l = ct.rank
    rho = (1,) * l
    h = sum(theta_root) + 1  # (rho, theta) + 1 = height + 1
    dim_g = l + 2 * len(pos)
    # |W| = |P/Q| * l! * product of the marks of theta
    order = det * factorial(l)
    for m in theta_root:
        order *= m
    two_rho = tuple(sum(r[i] for r in pos) for i in range(l))
    rs = RootSystem(
        type=ct, cartan=cartan, inv_cartan=inv, positive_roots=pos,
        rho=rho, theta=theta, coxeter_h=h, dim_g=dim_g, weyl_order=order,
        adj=adj, det=det, theta_root=theta_root, two_rho_root=two_rho,
    )
    _RS_CACHE[ct] = rs
    return rs


def pairing(rs: RootSystem, mu, nu) -> Fraction:
    """Invariant form on weights in fundamental coordinates:
    mu . adj(C) . nu / det(C), with one Fraction at the end."""
    num = dot(mu, mat_vec(rs.adj, nu))
    return Fraction(num, rs.det) if isinstance(num, int) else num / rs.det


def norm_sq(rs: RootSystem, mu) -> Fraction:
    return pairing(rs, mu, mu)


def pair_with_rho(rs: RootSystem, mu) -> Fraction:
    """(mu, rho), computed through 2 rho = sum of positive roots."""
    s = dot(mu, rs.two_rho_root)
    return Fraction(s, 2) if isinstance(s, int) else s / 2


def fund_to_root(rs: RootSystem, mu) -> tuple:
    """Simple-root coordinates of a weight given in fundamental coordinates."""
    l = rs.rank
    raw = mat_vec(rs.adj, mu)
    return tuple(Fraction(raw[i], rs.det) if isinstance(raw[i], int)
                 else raw[i] / rs.det for i in range(l))


def root_to_fund(rs: RootSystem, r):
    return mat_vec(rs.cartan, r)


def in_root_lattice(rs: RootSystem, mu) -> bool:
    """Whether an integral weight lies in Q (root coordinates all integers)."""
    if not all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
               for c in mu):
        return False
    raw = mat_vec(rs.adj, tuple(int(c) for c in mu))
    return all(v % rs.det == 0 for v in raw)


def root_coords_int(rs: RootSystem, mu) -> IntVec:
    """Exact integer root coordinates; raises if mu is not in Q."""
    raw = mat_vec(rs.adj, mu)
    if any(v % rs.det != 0 for v in raw):
        raise ValueError(f"weight {mu} is not in the root lattice")
    return tuple(v // rs.det for v in raw)


# --- Weyl group enumeration ------------------------------------------------

_WEYL_CACHE: dict[CartanType, tuple[tuple[WeylElement, ...], dict]] = {}


def check_weyl_cap(rs: RootSystem):
    """Raise CapExceeded when the Weyl group of rs is larger than WEYL_CAP.

    The one cap check: `_enumerate`, `weyl_compose` and `weyl_inverse` make
    it before their cache lookups, and so do the chamber construction and
    `mu_lambda` in `affine`.
    """
    cap = WEYL_CAP.get()
    if rs.weyl_order > cap:
        raise CapExceeded(required=rs.weyl_order, cap=cap)


def _enumerate(rs: RootSystem) -> tuple[tuple[WeylElement, ...], dict]:
    """BFS over reduced words, keeping the lexicographically smallest word
    for each element.  Appending generators on the right of an already
    lex-minimal word and taking the first discovery yields the lex-minimal
    word of every element: any smaller word would have a smaller prefix,
    and prefixes of reduced words are reduced words of their own elements.
    Refuses (CapExceeded) a group larger than WEYL_CAP, cached or not.
    """
    check_weyl_cap(rs)
    if rs.type in _WEYL_CACHE:
        return _WEYL_CACHE[rs.type]
    cartan = rs.cartan
    gens = [simple_reflection_matrix(cartan, i) for i in range(1, rs.rank + 1)]
    ident = identity_matrix(rs.rank)
    by_matrix: dict[IntMat, WeylElement] = {ident: WeylElement((), ident)}
    elems = [by_matrix[ident]]
    level = [by_matrix[ident]]
    while level:
        nxt = []
        for w in level:
            for i in range(1, rs.rank + 1):
                m = mat_mul(w.matrix, gens[i - 1])
                if m not in by_matrix:
                    e = WeylElement(w.word + (i,), m)
                    by_matrix[m] = e
                    nxt.append(e)
        elems.extend(nxt)
        level = nxt
    if len(elems) != rs.weyl_order:
        raise RuntimeError(f"enumerated {len(elems)} Weyl elements of {rs.type}, "
                           f"expected {rs.weyl_order}")
    out = (tuple(elems), by_matrix)
    _WEYL_CACHE[rs.type] = out
    return out


def weyl_enumerate(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, sorted by length then word, canonical words.

    Raises CapExceeded when the group order exceeds WEYL_CAP.
    """
    return _enumerate(rs)[0]


def weyl_by_matrix(rs: RootSystem, matrix: IntMat) -> WeylElement:
    """The canonical element with the given action matrix."""
    by_matrix = _enumerate(rs)[1]
    try:
        return by_matrix[matrix]
    except KeyError:
        raise ValueError("matrix is not a Weyl group action") from None


_COMPOSE_CACHE: dict = {}


def weyl_compose(rs: RootSystem, u: WeylElement, v: WeylElement) -> WeylElement:
    check_weyl_cap(rs)
    key = (rs.type, u.word, v.word)
    got = _COMPOSE_CACHE.get(key)
    if got is None:
        got = weyl_by_matrix(rs, mat_mul(u.matrix, v.matrix))
        _COMPOSE_CACHE[key] = got
    return got


_INV_CACHE: dict = {}


def weyl_inverse(rs: RootSystem, w: WeylElement) -> WeylElement:
    """w^-1 through the invariant form: w preserves adj / det, so
    w^-1 = C w^T adj / det on fundamental coordinates."""
    check_weyl_cap(rs)
    key = (rs.type, w.word)
    got = _INV_CACHE.get(key)
    if got is None:
        transpose = tuple(zip(*w.matrix))
        raw = mat_mul(rs.cartan, mat_mul(transpose, rs.adj))
        if any(x % rs.det for row in raw for x in row):
            raise RuntimeError(f"inverse of {w.word} is not integral")
        got = weyl_by_matrix(rs, tuple(tuple(x // rs.det for x in row) for row in raw))
        _INV_CACHE[key] = got
    return got


def longest_element(rs: RootSystem) -> WeylElement:
    w0 = weyl_enumerate(rs)[-1]
    if w0.length != len(rs.positive_roots):
        raise RuntimeError(f"the last Weyl element of {rs.type} is not the longest")
    return w0


_ROOT_ACTION_CACHE: dict[tuple[CartanType, IntMat], IntMat] = {}


def root_action(rs: RootSystem, w: WeylElement) -> IntMat:
    """The action matrix of w on simple-root coordinates (integer entries)."""
    key = (rs.type, w.matrix)
    got = _ROOT_ACTION_CACHE.get(key)
    if got is not None:
        return got
    raw = mat_mul(rs.adj, mat_mul(w.matrix, rs.cartan))
    if any(x % rs.det for row in raw for x in row):
        raise RuntimeError(f"root action of {w.word} is not integral")
    m = tuple(tuple(x // rs.det for x in row) for row in raw)
    _ROOT_ACTION_CACHE[key] = m
    return m


def inversion_count(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    m = root_action(rs, w)
    n = 0
    for r in rs.positive_roots:
        img = mat_vec(m, r)
        if any(c < 0 for c in img):
            n += 1
    return n


# --- actions and classical helpers ----------------------------------------

def act(w: WeylElement, mu):
    if len(mu) != len(w.matrix):
        raise ValueError("dimension mismatch")
    return mat_vec(w.matrix, mu)


def circ_act(w: WeylElement, mu):
    """The shifted action w(mu + rho) - rho."""
    l = len(w.matrix)
    if len(mu) != l:
        raise ValueError("dimension mismatch")
    shifted = tuple(c + 1 for c in mu)
    return tuple(c - 1 for c in mat_vec(w.matrix, shifted))


def weyl_dim(rs: RootSystem, beta) -> int:
    """Dimension of the simple module with highest weight beta.

    Product over positive roots of (beta + rho, g) / (rho, g); for a weight
    in fundamental coordinates and a root in root coordinates the form is a
    plain dot product, so both factors are integers.
    """
    l = rs.rank
    if len(beta) != l:
        raise ValueError("dimension mismatch")
    b = []
    for c in beta:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"weight {beta} is not integral")
            c = c.numerator
        if c < 0:
            raise ValueError(f"weight {beta} is not dominant")
        b.append(c)
    shifted = tuple(c + 1 for c in b)
    num = 1
    den = 1
    for r in rs.positive_roots:
        num *= dot(shifted, r)
        den *= sum(r)
    if num % den:
        raise RuntimeError(f"Weyl dimension of {beta} is not an integer: {num}/{den}")
    return num // den


def enum_dominant_in_Q(rs: RootSystem, bound, relative: bool = False) -> tuple[IntVec, ...]:
    """Dominant weights alpha in the root lattice with |alpha + rho| <= B.

    With relative=False the bound B is the rational `bound` itself; with
    relative=True it is |rho| + bound, compared exactly without evaluating
    the square root (t <= |rho| + b iff t^2 - |rho|^2 - b^2 <= 2 b |rho|,
    and the right side is squared only when the left side is positive).
    Results are sorted by |alpha|^2, then lexicographically.
    """
    b = Fraction(bound)
    if b < 0:
        raise ValueError("bound must be nonnegative")
    rho_sq = norm_sq(rs, rs.rho)
    cap = b + (sqrt_upper(rho_sq) if relative else 0)
    cap_sq = cap * cap
    found = []
    for v in _int_boxes(rs.inv_cartan, cap_sq):
        vsq = norm_sq(rs, v)
        if relative:
            a = vsq - rho_sq - b * b
            if a > 0 and a * a > 4 * b * b * rho_sq:
                continue
        alpha = tuple(c - 1 for c in v)
        if in_root_lattice(rs, alpha):
            found.append(alpha)
    found.sort(key=lambda a: (norm_sq(rs, a), a))
    return tuple(found)


def _int_boxes(gram, bound):
    # kept by name: bench/tracing.py counts the weights scanned here
    return lattice_points(gram, (0,) * len(gram), bound, (1,) * len(gram))
