"""Simply-laced root systems with exact rational arithmetic.

Cartan data for types A, D, E; weights in the fundamental-weight basis; the
invariant form normalized so (alpha_i, alpha_i) = 2; full Weyl group
enumeration with canonical reduced words; and the classical helpers needed
downstream (Weyl dimension formula, dominant weights of the root lattice
inside a ball).

Conventions used throughout the package:

* A weight is a plain tuple of exact numbers (int or Fraction), giving its
  coordinates in the fundamental-weight basis, so x_i = (x, alpha_i^vee).
  An integral weight passes `_exact.int_vec`, which rejects floats.
* Roots are often carried in simple-root coordinates; for a weight x in the
  fundamental basis and a root g in root coordinates, (x, g) is the plain
  dot product of the two tuples.
* Reduced words are tuples of 1-based simple-reflection indices; the word
  (i1, ..., ik) denotes s_{i1} s_{i2} ... s_{ik}, applied right to left.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, floor
from operator import mul
from typing import Callable, NamedTuple

from ._exact import (
    IntMat,
    IntVec,
    compile_kernel,
    dot,
    identity_matrix,
    int_vec,
    lattice_points,
    ldl_inverse,
    mat_vec,
    sqrt_upper,
    src_form,
    src_lin,
    src_matrix,
    src_names,
    src_tup,
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

    @cached_property
    def _weyl(self) -> WeylContext:
        # read through _context, which checks the cap first
        return _enumerate(self)

    @cached_property
    def _w0(self) -> WeylElement:
        word = dominant_word(self.cartan, (-1,) * self.rank)  # w0 rho = -rho
        if len(word) != len(self.positive_roots):
            raise RuntimeError(f"the longest element of {self.type} has length "
                               f"{len(word)}, not {len(self.positive_roots)}")
        return WeylElement(word, weyl_matrix(self.cartan, word))

    @cached_property
    def lambda0_reps(self) -> tuple[IntVec, ...]:
        """Representatives of P/Q: zero, then the minuscule fundamental
        weights.

        omega_i is minuscule exactly when theta has mark 1 at i; every
        positive root is at most theta coefficientwise, so (g, omega) is 0 or
        1 for each positive root g and each weight listed.
        """
        l = self.rank
        out = [(0,) * l]
        out += [tuple(1 if j == i else 0 for j in range(l))
                for i, mark in enumerate(self.theta_root) if mark == 1]
        if len(out) != self.det:
            raise RuntimeError(f"{out} are not |P/Q| = {self.det} minuscule-or-zero weights")
        return tuple(out)

    @cached_property
    def direct_kernel(self) -> Callable:
        """kernel(rows, alpha, lambda0, sp, p) of the direct orbit exponent,
        compiled for this type on first use; see `_direct_kernel`.  It needs
        no Weyl listing, so it is kept here and not behind the Weyl cap."""
        return _direct_kernel(self)

    @cached_property
    def minus_w0_perm(self) -> IntVec:
        """-w0 as a permutation of fundamental coordinates:
        (-w0 x)_i = x[perm[i]].  Raises RuntimeError unless the matrix of
        -w0 is a permutation matrix."""
        perm = []
        for row in self._w0.matrix:
            cols = [j for j, c in enumerate(row) if c]
            if len(cols) != 1 or row[cols[0]] != -1:
                break
            perm.append(cols[0])
        if sorted(perm) != list(range(self.rank)):
            raise RuntimeError(f"-w0 of {self.type} does not permute coordinates: "
                               f"{self._w0.matrix}")
        return tuple(perm)


@dataclass(frozen=True, slots=True)
class WeylElement:
    word: IntVec   # canonical reduced word, 1-based generator indices
    matrix: IntMat  # action on fundamental-weight coordinates
    # position in the type's WeylContext; -1 for an element built elsewhere
    index: int = field(default=-1, compare=False, repr=False)


def reflect(cartan: IntMat, x, i: int) -> tuple:
    """s_i x = x - x_i C[i] on fundamental coordinates, for a letter i in 1..l."""
    if not 1 <= i <= len(cartan):
        raise ValueError(f"simple reflection index {i} outside 1..{len(cartan)}")
    xi = x[i - 1]
    return tuple([c - xi * a for c, a in zip(x, cartan[i - 1])])


def dominant_word(cartan: IntMat, x) -> IntVec:
    """The letters (i1, ..., ik) that reflect x into the dominant chamber,
    in the order applied, each at the first negative coordinate.  For
    x = w rho they spell the lex-least reduced word of w = s_i1 ... s_ik: a
    negative coordinate i of w rho marks a left descent s_i of w, and the
    least one is the least first letter of a reduced word."""
    word = []
    while min(x) < 0:
        i = next(j for j, c in enumerate(x) if c < 0) + 1
        x = reflect(cartan, x, i)
        word.append(i)
    return tuple(word)


def weyl_matrix(cartan: IntMat, word) -> IntMat:
    """The matrix of s_{i1} ... s_{ik} on fundamental coordinates: M S_i is M
    with column i replaced by M_i - M C[i], as in `_enumerate`."""
    l = len(cartan)
    m = identity_matrix(l)
    for i in word:
        if not 1 <= i <= l:
            raise ValueError(f"simple reflection index {i} outside 1..{l}")
        ci = cartan[i - 1]
        m = tuple([row[:i - 1] + (row[i - 1] - sum(map(mul, row, ci)),) + row[i:]
                   for row in m])
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
    inv, det_f = ldl_inverse(cartan)
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
    mu . adj(C) . nu / det(C), with one Fraction at the end.  The coordinates
    may be ints or Fractions; any other form value raises ValueError."""
    num = dot(mu, mat_vec(rs.adj, nu))
    if isinstance(num, int):
        return Fraction(num, rs.det)
    if isinstance(num, Fraction):
        return num / rs.det
    raise ValueError(f"form value {num!r} is neither an int nor a Fraction")


def norm_sq(rs: RootSystem, mu) -> Fraction:
    return pairing(rs, mu, mu)


def _direct_kernel(rs: RootSystem) -> Callable:
    """kernel(rows, alpha, lambda0, sp, p) -> det |p sigma(v) - u|^2 with
    v = alpha + lambda0 + rho and u = s + rho, for the Weyl element sigma
    whose matrix has the given rows, compiled from generated source.

    It unpacks the rows, alpha, lambda0 and the digits s (so a vector or row
    of the wrong length raises ValueError), forms pv = p v and
    x = sigma(pv) - u, and returns the norm x . adj x, each sum written out
    term by term for the rank.  The source holds only the rank and the
    integer entries of adj.  It shares the `_exact` source helpers with the
    affine route's kernel, and neither kernel calls the other.
    """
    l = rs.rank
    r = range(l)
    rows, matrix = src_matrix(l)
    a, lam0, s, v, x = (src_names(c, l) for c in "alsvx")
    lines = [
        "def kernel(rows, alpha, lambda0, sp, p):",
        f"    {src_tup(a)} = alpha",
        f"    {src_tup(lam0)} = lambda0",
        f"    {src_tup(s)} = sp",
        f"    {matrix} = rows",
    ]
    lines += [f"    v{i} = p * (a{i} + l{i} + 1)" for i in r]
    lines += [f"    x{i} = {src_lin(rows[i], v)} - (s{i} + 1)" for i in r]
    lines.append(f"    return {src_form(rs.adj, x)}")
    return compile_kernel(lines, f"<direct exponent kernel of {rs.type}>")


def root_to_fund(rs: RootSystem, r):
    return mat_vec(rs.cartan, r)


def pq_class(rs: RootSystem, x) -> IntVec:
    """A label for the class of an integral weight in P/Q: adj x mod det,
    zero exactly on Q."""
    return tuple([v % rs.det for v in mat_vec(rs.adj, int_vec(x, rs.rank))])


def in_root_lattice(rs: RootSystem, mu) -> bool:
    """Whether an integral weight lies in Q (root coordinates all integers)."""
    return not any(pq_class(rs, mu))


def root_coords_int(rs: RootSystem, mu) -> IntVec:
    """Exact integer root coordinates adj mu / det; raises if mu is not in Q."""
    if len(mu) != rs.rank:
        raise ValueError("dimension mismatch")
    out = []
    for row in rs.adj:
        q, r = divmod(sum(map(mul, row, mu)), rs.det)
        if r:
            raise ValueError(f"weight {tuple(mu)} is not in the root lattice")
        out.append(q)
    return tuple(out)


# --- Weyl group enumeration ------------------------------------------------

class WeylContext(NamedTuple):
    """The Weyl group of one type, listed as the orbit of rho.

    Element i is elems[i], with elems[i].index == i.  Its key is w^-1 rho;
    rho is regular, so the key determines the element, and by_key maps it
    to i.  The key of w^-1 is w rho, the row sums of w's matrix, and the
    key of (u v)^-1 is u(v rho), so inverses, products and matrix lookups
    are key lookups and no table of them is kept.  `route`, `kernel` and
    `pulled` are one-item lists, each a slot replaced or filled by one
    assignment: `affine` keeps its last route in `route` and the type's
    compiled route kernel in `kernel`, and `verify._pulled_roots` the
    positive roots pulled back through every element in `pulled`.  Nothing
    here checks the Weyl cap: `_context`, the one door to a context, does.
    """
    elems: tuple[WeylElement, ...]
    by_key: dict[IntVec, int]           # key w^-1 rho -> element index
    route: list                         # [(key, route)], the last affine route
    kernel: list                        # [affine route kernel], or [None]
    pulled: list                        # [pulled-back roots], or [None]

    def find(self, w: WeylElement) -> int:
        """The index of w.  An element built elsewhere is found by its
        matrix: w rho is the key of w^-1, and the inverse of that element
        must have w's matrix, or ValueError is raised."""
        i = w.index
        if 0 <= i < len(self.elems) and self.elems[i] is w:
            return i
        j = self.by_key.get(tuple(map(sum, w.matrix)))
        if j is not None:
            i = self.inverse(j)
            if self.elems[i].matrix == w.matrix:
                return i
        raise ValueError("matrix is not a Weyl group action")

    def inverse(self, i: int) -> int:
        return self.by_key[tuple(map(sum, self.elems[i].matrix))]


# Read by bench/tracing.py by name and never by the package: _WEYL_CACHE maps
# a type to its WeylContext once W is listed.  The other three stay empty:
# the package keeps no table of inverses, products or root actions, so the
# metrics read off them are 0.
_WEYL_CACHE: dict[CartanType, WeylContext] = {}
_INV_CACHE: dict = {}
_COMPOSE_CACHE: dict = {}
_ROOT_ACTION_CACHE: dict = {}


def check_weyl_cap(rs: RootSystem):
    """Raise CapExceeded when the Weyl group of rs is larger than WEYL_CAP;
    `_context` checks it on every read of Weyl data, cached or not."""
    cap = WEYL_CAP.get()
    if rs.weyl_order > cap:
        raise CapExceeded(required=rs.weyl_order, cap=cap)


def _enumerate(rs: RootSystem) -> WeylContext:
    """BFS over reduced words, keeping the lexicographically smallest word
    for each element.  Appending generators on the right of an already
    lex-minimal word and taking the first discovery yields the lex-minimal
    word of every element: any smaller word would have a smaller prefix,
    and prefixes of reduced words are reduced words of their own elements.

    The walk runs on keys w^-1 rho and steps only up: w s_i is longer than
    w exactly when key_i > 0.  The matrix of w s_i is M S_i, which differs
    from M in column i only, so each row of M is kept or changed in one
    entry.  Reached only through rs._weyl, so each type is listed once.
    """
    cartan = rs.cartan
    elems = [WeylElement((), identity_matrix(rs.rank), 0)]
    keys = [rs.rho]
    by_key = {rs.rho: 0}
    n = 0
    while n < len(elems):  # the list is the BFS queue
        w, x = elems[n], keys[n]
        n += 1
        for i, xi in enumerate(x):
            if xi < 0:
                continue
            ci = cartan[i]
            y = tuple([c - xi * a for c, a in zip(x, ci)])
            if y in by_key:
                continue
            rows = []
            for row in w.matrix:
                d = sum(map(mul, row, ci))
                rows.append(row[:i] + (row[i] - d,) + row[i + 1:] if d else row)
            by_key[y] = len(elems)
            keys.append(y)
            elems.append(WeylElement(w.word + (i + 1,), tuple(rows), len(elems)))
    if len(elems) != rs.weyl_order:
        raise RuntimeError(f"enumerated {len(elems)} Weyl elements of {rs.type}, "
                           f"expected {rs.weyl_order}")
    got = WeylContext(tuple(elems), by_key, [(None, None)], [None], [None])
    _WEYL_CACHE[rs.type] = got
    return got


def _context(rs: RootSystem) -> WeylContext:
    """The Weyl context of rs after the cap check, read off rs itself, so
    that no lookup hashes the type."""
    check_weyl_cap(rs)
    return rs._weyl


def weyl_enumerate(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, sorted by length then word, canonical words.

    Raises CapExceeded when the group order exceeds WEYL_CAP.
    """
    return _context(rs).elems


def longest_element(rs: RootSystem) -> WeylElement:
    """w0 from the Cartan matrix, with no Weyl listing and no cap: the
    `dominant_word` of w0 rho = -rho is the lex-least reduced word of w0,
    the word `weyl_enumerate` gives it."""
    return rs._w0


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
    b = int_vec(beta, rs.rank)
    if min(b) < 0:
        raise ValueError(f"weight {beta} is not dominant")
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
    found = []
    for v, v_det in _int_boxes(rs.adj, floor(rs.det * cap * cap)):
        if relative:
            a = Fraction(v_det, rs.det) - rho_sq - b * b
            if a > 0 and a * a > 4 * b * b * rho_sq:
                continue
        alpha = tuple(c - 1 for c in v)
        if in_root_lattice(rs, alpha):
            found.append(alpha)
    found.sort(key=lambda a: (norm_sq(rs, a), a))
    return tuple(found)


def _int_boxes(gram, bound):
    # kept by name: bench/tracing.py counts the weights scanned here
    return lattice_points(gram, (0,) * len(gram), 1, bound, (1,) * len(gram))
