"""The greedy decomposition: the slow path that checks the straightened tables.

Everything here runs in doubled orthogonal coordinates: integer vectors
whose halves are the usual orthogonal coordinates of the weight lattice.
Dominant-chamber multiplicities come from the Freudenthal recursion; full
characters are Weyl-orbit expansions of those, and :func:`decompose` peels
irreducible characters off a full character from the top.  The program
reads its tables off the nested polynomial by dot-action straightening
(:func:`minaff.affinization._straighten`), which shares none of this code.

The rest is reference data for the recursion itself: the dominant-chamber
multiplicities handed out as a fresh map, orbit sizes counted from the
doubled coordinates, the total multiplicity mass of an irreducible summed
over orbit sizes, with no orbit expansion, and the Weyl dimension formula
root by root.  Orbit sizes are checked against the full orbit closure, the
mass against the Weyl dimension formula and against the full expansion of
:func:`irr_character`, and the root-by-root formula against the closed
product of :func:`minaff.cartan.dim_irr`.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod

from minaff import CharacterError, InputError
from minaff.cartan import _rho2, check_dominant, dim_irr, eps2, fw_from_eps2, is_dominant_fw
from minaff.decomp import _maximal_keys
from minaff.weyl import _dominantize
from _ring_oracle import CharElem


@lru_cache(maxsize=None)
def positive_roots_eps2(n):
    """Positive roots in doubled orthogonal coordinates: e_i - e_j and
    e_i + e_j for i < j, doubled."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-2, 2):
                a = [0] * n
                a[i], a[j] = 2, sign
                roots.append(tuple(a))
    return tuple(roots)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _is_dominant_eps(d):
    n = len(d)
    return all(d[i] >= d[i + 1] for i in range(n - 2)) and d[n - 2] >= abs(d[n - 1])


def dominant_weights_below(n, lam):
    """All dominant weights under ``lam`` in dominance order, as doubled
    coordinate tuples.  Walks down by positive-root steps; in dominance
    order every covering step is a positive root, so this is exhaustive."""
    check_dominant(n, lam)
    top = eps2(n, lam)
    roots = positive_roots_eps2(n)
    seen = {top}
    frontier = [top]
    while frontier:
        fresh = []
        for d in frontier:
            for a in roots:
                e = tuple(x - y for x, y in zip(d, a))
                if e not in seen and _is_dominant_eps(e):
                    seen.add(e)
                    fresh.append(e)
        frontier = fresh
    return seen


@lru_cache(maxsize=None)
def _dominant_mults(n, lam):
    """Freudenthal recursion over the dominant chamber: weight
    multiplicities of the irreducible with highest weight ``lam``, keyed by
    doubled coordinates, for every dominant weight.  The cached map itself,
    which callers only read."""
    check_dominant(n, lam)
    roots = positive_roots_eps2(n)
    rho = _rho2(n)
    top = eps2(n, lam)
    doms = dominant_weights_below(n, lam)
    top_rho = tuple(a + b for a, b in zip(top, rho))
    top_norm = _dot(top_rho, top_rho)
    order = sorted(doms, key=lambda d: (-_dot(d, rho), d))
    mults = {}
    for d in order:
        if d == top:
            mults[d] = 1
            continue
        num = 0
        for a in roots:
            nu = tuple(x + y for x, y in zip(d, a))
            while True:
                m = mults.get(_dominantize(nu))
                if m is None:
                    break
                num += m * _dot(nu, a)
                nu = tuple(x + y for x, y in zip(nu, a))
        d_rho = tuple(a + b for a, b in zip(d, rho))
        den = top_norm - _dot(d_rho, d_rho)
        q, r = divmod(2 * num, den)
        if r or q <= 0:
            raise CharacterError(f"Freudenthal recursion failed at {d}")
        mults[d] = q
    return mults


def dominant_mults(n, lam):
    """Freudenthal recursion over the dominant chamber.

    Returns a fresh map from doubled coordinates to weight multiplicities
    for every dominant weight of the irreducible with highest weight
    ``lam``.
    """
    return dict(_dominant_mults(n, tuple(lam)))


def _reflections(d):
    """The n simple reflections of a doubled coordinate vector, in node
    order: the neighbour swaps, then the paired sign flip of the last two
    coordinates."""
    n = len(d)
    for i in range(n - 1):
        yield d[:i] + (d[i + 1], d[i]) + d[i + 2 :]
    yield d[: n - 2] + (-d[n - 1], -d[n - 2])


def _orbit(d0):
    """Weyl orbit of a doubled coordinate vector: its closure under the
    simple reflections."""
    seen = {d0}
    stack = [d0]
    while stack:
        for e in _reflections(stack.pop()):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return seen


def irr_character(n, mu):
    """Full weight-multiplicity character of the irreducible V(mu), as a
    fresh element."""
    mu = tuple(mu)
    return CharElem._of(n, _irr_terms(n, mu), affine=False)


@lru_cache(maxsize=None)
def _irr_terms(n, mu):
    """Weight multiplicities of V(mu) under the integer keys of finite
    weights; the cached map itself, which callers only read."""
    check_dominant(n, mu)
    terms = {}
    for d, m in _dominant_mults(n, mu).items():
        for e in _orbit(d):
            terms[fw_from_eps2(n, e) + (0, 0)] = m
    return terms


def decompose(f):
    """Greedy peel-off of irreducible characters from the top: the table
    {mu: multiplicity} of a finite character.

    Repeatedly locates a dominance-maximal dominant key, records its
    coefficient, and subtracts that many copies of the irreducible.  Any
    negative coefficient, missing dominant key, or nonzero residual means
    the input was not a genuine character.
    """
    n = f.n
    if f.affine:
        raise InputError("decompose expects a finite-tagged element")
    coeffs = {eps2(n, k[:n]): c for k, c in f._terms.items()}
    for d, c in coeffs.items():
        for i, e in enumerate(_reflections(d), 1):
            if coeffs.get(e) != c:
                raise CharacterError(f"input is not Weyl-invariant at node {i}")
    work = dict(f._terms)
    mults = {}
    while work:
        dom = [k[:n] for k in work if is_dominant_fw(k[:n])]
        if not dom:
            raise CharacterError(f"nonzero residual with no dominant term: {len(work)} terms")
        mu = max(_maximal_keys(n, dom))
        m = work[mu + (0, 0)]
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at {mu}")
        for k, v in _irr_terms(n, mu).items():
            w = work.get(k, 0) - m * v
            if w:
                work[k] = w
            else:
                work.pop(k, None)
        mults[mu] = m
    return mults


def table_dimension(n, table):
    """The total dimension that a table {mu: multiplicity} accounts for."""
    return sum(m * dim_irr(n, mu) for mu, m in table.items())


def orbit_size(n, mu):
    """Orbit size from the absolute doubled coordinates: every signed
    permutation of them, halved when none is zero (the Weyl group flips an
    even number of signs, and only a zero coordinate absorbs an odd flip)."""
    check_dominant(n, mu)
    mags = [abs(v) for v in eps2(n, mu)]
    size = factorial(n) * 2 ** sum(1 for v in mags if v)
    size //= prod(factorial(k) for k in Counter(mags).values())
    return size if 0 in mags else size // 2


def character_mass(n, mu):
    """Total multiplicity mass via stabilizer orders; no orbit expansion."""
    mu = tuple(mu)
    return sum(
        m * orbit_size(n, fw_from_eps2(n, d)) for d, m in _dominant_mults(n, mu).items()
    )


def dim_by_roots(n, mu):
    """Weyl dimension formula root by root, on doubled coordinates: the
    product of the pairings of mu + rho with every positive root over the
    same product at rho."""
    check_dominant(n, mu)
    rho = _rho2(n)
    top = tuple(a + b for a, b in zip(eps2(n, mu), rho))
    num = den = 1
    for a in positive_roots_eps2(n):
        num *= _dot(top, a)
        den *= _dot(rho, a)
    q, r = divmod(num, den)
    if r:
        raise CharacterError(f"dimension formula not integral at {mu}")
    return q
