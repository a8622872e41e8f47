"""Static root and weight data for D_n and its untwisted affine diagram.

Conventions used throughout the library:

* finite weights are integer tuples of length n holding coefficients on the
  fundamental weights (node order 1..n, the two fork nodes last);
* finite roots are integer tuples of length n holding coefficients on the
  simple roots;
* affine weights carry a finite part, an integer level (coefficient of the
  level-one fundamental weight at node 0) and an exact rational coefficient
  of the null root delta.

The fork of the finite diagram sits at node n-2, with spin nodes n-1 and n
attached to it; the affine node 0 is attached to node 2.  Ranks below 4 are
rejected everywhere.

The family labels and the Weyl dimension formula live here too, so that
the command line reaches them without loading either pipeline.
"""

from collections import namedtuple
from functools import lru_cache

from .errors import InputError, VerificationError

MIN_RANK = 4


def check_rank(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < MIN_RANK:
        raise InputError(f"rank must be an integer >= {MIN_RANK}, got {n!r}")


def _fraction(q):
    """``Fraction(q)``.  The first call imports ``fractions`` and rebinds
    this name to the class itself, so a process that builds no weight never
    loads the module and later weights skip the import."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(q)


class AffineWeight(namedtuple("AffineWeight", ("finite", "level", "delta"))):
    """Element of the affine weight lattice extended by rational delta.

    ``finite`` is the fundamental-coordinate tuple, ``level`` the integer
    coefficient of the node-0 fundamental weight, ``delta`` the exact
    rational coefficient of the null root.  Coroot pairings never see
    ``delta``.  Tuple-backed, so hashing and equality are cheap enough for
    large character supports.
    """

    __slots__ = ()

    def __new__(cls, finite, level=0, delta=0):
        if not isinstance(level, int):
            raise InputError(f"level must be an integer, got {level!r}")
        if isinstance(delta, float):
            raise InputError(f"delta must be exact, got the float {delta!r}")
        return super().__new__(cls, tuple(finite), int(level), _fraction(delta))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace bypass __new__; route them through
        # it so that no weight escapes the checks
        return cls(*iterable)

    @property
    def n(self):
        return len(self.finite)

    def __add__(self, other):
        return AffineWeight(
            tuple(a + b for a, b in zip(self.finite, other.finite)),
            self.level + other.level,
            self.delta + other.delta,
        )

    def __sub__(self, other):
        return AffineWeight(
            tuple(a - b for a, b in zip(self.finite, other.finite)),
            self.level - other.level,
            self.delta - other.delta,
        )

    def __neg__(self):
        return AffineWeight(tuple(-a for a in self.finite), -self.level, -self.delta)

    def __mul__(self, k):
        return AffineWeight(
            tuple(k * a for a in self.finite), k * self.level, k * self.delta
        )

    __rmul__ = __mul__

    def __repr__(self):
        return f"AffineWeight({self.finite}, level={self.level}, delta={self.delta})"


def varpi(n, i):
    """The i-th fundamental weight as a finite coordinate tuple."""
    check_rank(n)
    if not 1 <= i <= n:
        raise InputError(f"node {i} outside 1..{n}")
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


def lambda0(n):
    check_rank(n)
    return AffineWeight((0,) * n, 1, 0)


# ---------------------------------------------------------------------------
# Dynkin diagrams


def finite_edges(n):
    """Edges of the finite diagram: a chain 1..n-1 plus the fork edge (n-2, n)."""
    return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)


def affine_edges(n):
    """Finite edges plus the affine attachment (0, 2)."""
    return ((0, 2),) + finite_edges(n)


def theta_coeffs(n):
    """Simple-root coefficients of the highest root."""
    check_rank(n)
    return (1,) + (2,) * (n - 3) + (1, 1)


# ---------------------------------------------------------------------------
# Pairings and the invariant bilinear form


def pairing(i, x):
    """Integer pairing of the i-th simple coroot (i in 0..n) with the affine
    weight ``x``: :func:`minaff.weyl.key_pairing` read on its key, where the
    one formula lives.  The delta component never contributes."""
    from .weyl import key_pairing  # weyl imports this module

    return key_pairing(x.n, i)(x.finite + (x.level, 0))


def eps2(n, fw):
    """Doubled orthogonal coordinates of a finite weight tuple.

    True orthogonal coordinates are half these integers; doubling keeps all
    arithmetic integral, including for spin weights.
    """
    s = fw[n - 2] + fw[n - 1]
    out = [0] * n
    out[n - 1] = fw[n - 1] - fw[n - 2]
    out[n - 2] = s
    acc = s
    for j in range(n - 3, -1, -1):
        acc += 2 * fw[j]
        out[j] = acc
    return tuple(out)


def fw_from_eps2(n, d):
    """Inverse of :func:`eps2`; raises if ``d`` is not on the weight lattice."""
    fw = []
    for j in range(n - 2):
        q, r = divmod(d[j] - d[j + 1], 2)
        if r:
            raise InputError(f"{d} is not a doubled weight-lattice point")
        fw.append(q)
    a, ra = divmod(d[n - 2] - d[n - 1], 2)
    b, rb = divmod(d[n - 2] + d[n - 1], 2)
    if ra or rb:
        raise InputError(f"{d} is not a doubled weight-lattice point")
    fw.extend([a, b])
    return tuple(fw)


def bilinear(x, y):
    """The invariant symmetric form, exact.

    Finite parts pair through the orthogonal coordinates, delta pairs with
    the level, and both delta and the level-one generator are isotropic.
    """
    from fractions import Fraction

    n = x.n
    if y.n != n:
        raise InputError("rank mismatch in bilinear form")
    dot = sum(a * b for a, b in zip(eps2(n, x.finite), eps2(n, y.finite)))
    return Fraction(dot, 4) + x.level * y.delta + y.level * x.delta


# ---------------------------------------------------------------------------
# Roots


def root_unit(n, i):
    if not 1 <= i <= n:
        raise InputError(f"node {i} outside 1..{n}")
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


@lru_cache(maxsize=None)
def positive_roots_eps2(n):
    """Positive roots in doubled orthogonal coordinates: e_i - e_j and
    e_i + e_j for i < j, doubled.  The one D_n root list of the library."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-2, 2):
                a = [0] * n
                a[i], a[j] = 2, sign
                roots.append(tuple(a))
    return tuple(roots)


@lru_cache(maxsize=None)
def positive_roots(n):
    """All positive roots in simple-root coordinates, read off the doubled list."""
    check_rank(n)
    roots = frozenset(fw_to_root(n, fw_from_eps2(n, a)) for a in positive_roots_eps2(n))
    if len(roots) != n * (n - 1):
        raise VerificationError(f"found {len(roots)} positive roots, expected {n * (n - 1)}")
    return roots


def root_to_fw(n, c):
    """Fundamental coordinates of a root-coordinate vector (Cartan matrix action)."""
    fw = [2 * v for v in c]
    for a, b in finite_edges(n):
        fw[a - 1] -= c[b - 1]
        fw[b - 1] -= c[a - 1]
    return tuple(fw)


def fw_to_root(n, fw):
    """Root coordinates of a root-lattice element given in fundamental coordinates."""
    d = eps2(n, fw)
    c = []
    acc = 0
    for k in range(n - 2):
        acc += d[k]
        q, r = divmod(acc, 2)
        if r:
            raise InputError(f"{fw} is not on the root lattice")
        c.append(q)
    acc += d[n - 2]
    qa, ra = divmod(acc - d[n - 1], 4)
    qb, rb = divmod(acc + d[n - 1], 4)
    if ra or rb:
        raise InputError(f"{fw} is not on the root lattice")
    c.extend([qa, qb])
    return tuple(c)


def support(coords):
    """Indices (1-based nodes) of strictly positive coordinates.

    Serves both dominant weights and positive roots; a negative coordinate
    means the input is neither and is rejected.
    """
    if any(v < 0 for v in coords):
        raise InputError(f"support undefined for {coords}: negative coordinate")
    return frozenset(i + 1 for i, v in enumerate(coords) if v > 0)


def family_nodes(n):
    """The three extreme nodes indexing affinization families."""
    check_rank(n)
    return (1, n - 1, n)


def resolve_family(n, s):
    """Normalize a family label: 1, n-1, n, or the strings '1', 'n-1', 'n'."""
    check_rank(n)
    if isinstance(s, str):
        key = s.strip().lower()
        named = {"1": 1, "n-1": n - 1, "n": n}
        if key in named:
            return named[key]
        try:
            s = int(key)
        except ValueError:
            raise InputError(f"unknown family label {s!r}")
    if s in family_nodes(n):
        return s
    raise InputError(f"family label must be one of 1, {n - 1}, {n} (or 1, n-1, n), got {s}")


def branch_set(n, s):
    """Nodes cut off by removing the fork from the branch at s."""
    if s == 1:
        return frozenset(range(1, n - 2))
    if s == n - 1:
        return frozenset((n - 1,))
    if s == n:
        return frozenset((n,))
    raise InputError(f"family label must be one of {family_nodes(n)}, got {s}")


def is_regular(n, lam):
    """Whether the classification covers this dominant weight.

    True when some branch misses the support entirely, or when the fork
    coordinate is positive.  The remaining case (full spread support with a
    zero fork coordinate) is rejected by the character pipeline.
    """
    check_dominant(n, lam)
    supp = support(lam)
    if any(not (supp & branch_set(n, s)) for s in family_nodes(n)):
        return True
    return lam[n - 3] > 0


@lru_cache(maxsize=None)
def delta_plus_s(n, s):
    """Positive roots supported away from at least one branch other than s."""
    check_rank(n)
    others = [r for r in family_nodes(n) if r != s]
    if len(others) != 2:
        raise InputError(f"family label must be one of {family_nodes(n)}, got {s}")
    out = set()
    for root in positive_roots(n):
        supp = support(root)
        if any(not (supp & branch_set(n, r)) for r in others):
            out.add(root)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Dominance


def is_dominant_fw(fw):
    return all(v >= 0 for v in fw)


def check_dominant(n, fw):
    check_rank(n)
    if len(fw) != n:
        raise InputError(f"weight {fw} has length {len(fw)}, expected {n}")
    if not all(isinstance(v, int) for v in fw):
        raise InputError(f"weight {fw} has non-integer coordinates")
    if not is_dominant_fw(fw):
        raise InputError(f"weight {fw} is not dominant")


def in_root_cone(n, fw):
    """True when ``fw`` is a nonnegative integer combination of simple roots."""
    d = eps2(n, fw)
    acc = 0
    for k in range(n - 2):
        acc += d[k]
        if acc < 0 or acc % 2:
            return False
    acc += d[n - 2]
    return (
        acc >= abs(d[n - 1])
        and (acc - d[n - 1]) % 4 == 0
        and (acc + d[n - 1]) % 4 == 0
    )


def dominates(n, lam, mu):
    """Dominance order: lam - mu lies in the positive root cone."""
    diff = tuple(a - b for a, b in zip(lam, mu))
    return in_root_cone(n, diff)


# ---------------------------------------------------------------------------
# Dimensions


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rho2(n):
    return eps2(n, (1,) * n)


def _dominantize(d):
    """The dominant point of the Weyl orbit of a doubled coordinate vector:
    absolute values sorted descending, the last one negated when an odd
    number of coordinates is negative (type D flips signs in pairs)."""
    neg = sum(1 for v in d if v < 0)
    mags = sorted((abs(v) for v in d), reverse=True)
    if neg % 2 and mags[-1]:
        mags[-1] = -mags[-1]
    return tuple(mags)


def dim_irr(n, mu):
    """Weyl dimension formula, exact integer arithmetic."""
    mu = tuple(mu)
    check_dominant(n, mu)
    rho = _rho2(n)
    top = tuple(a + b for a, b in zip(eps2(n, mu), rho))
    num = 1
    den = 1
    for a in positive_roots_eps2(n):
        num *= _dot(top, a)
        den *= _dot(rho, a)
    q, r = divmod(num, den)
    if r:
        raise VerificationError(f"dimension formula is not integral at {mu}")
    return q
