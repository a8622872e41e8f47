"""Irreducible characters, multiplicity tables, and the affinization order.

Everything here runs in doubled orthogonal coordinates: integer vectors
whose halves are the usual orthogonal coordinates of the weight lattice.
Dominant-chamber multiplicities come from the Freudenthal recursion; full
characters are Weyl-orbit expansions of those.  The Weyl dimension
formula (:func:`minaff.cartan.dim_irr`, re-exported here) is kept as an
independent cross-check of the recursion.
"""

from collections import namedtuple
from functools import lru_cache

from .cartan import (
    _dominantize,
    _dot,
    _rho2,
    check_dominant,
    dim_irr,
    dominates,
    eps2,
    fw_from_eps2,
    is_dominant_fw,
    positive_roots_eps2,
)
from .errors import CharacterError, InputError
from .polyring import CharElem


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


class DecompositionTable(namedtuple("DecompositionTable", ("n", "mults", "dimension"))):
    """Multiplicities of irreducibles in a finite character, with the total
    dimension they account for."""

    __slots__ = ()

    def top_weight(self):
        tops = _maximal_keys(self.n, list(self.mults))
        if len(tops) != 1:
            raise InputError(f"table has no unique top weight: {tops}")
        return tops[0]


def _maximal_keys(n, keys):
    return [
        a for a in keys if not any(b != a and dominates(n, b, a) for b in keys)
    ]


def decompose(f):
    """Greedy peel-off of irreducible characters from the top.

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
    dimension = 0
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
        dimension += m * dim_irr(n, mu)
    return DecompositionTable(n, mults, dimension)


def compare_affinization(a, b):
    """Partial order on multiplicity tables sharing a top weight.

    One table precedes another when, at every dominant weight, either its
    multiplicity is no larger or some strictly higher weight has strictly
    smaller multiplicity.  Returns 'equal', 'leq', 'geq', or 'incomparable'.
    """
    if a.n != b.n:
        raise InputError("rank mismatch")
    if a.top_weight() != b.top_weight():
        raise InputError("tables do not share a top weight")
    if a.mults == b.mults:
        return "equal"
    n = a.n
    keys = set(a.mults) | set(b.mults)

    def leq(x, y):
        for mu in keys:
            if x.get(mu, 0) <= y.get(mu, 0):
                continue
            if any(
                dominates(n, nu, mu) and nu != mu and x.get(nu, 0) < y.get(nu, 0)
                for nu in keys
            ):
                continue
            return False
        return True

    ab = leq(a.mults, b.mults)
    ba = leq(b.mults, a.mults)
    if ab and ba:
        return "equal"
    if ab:
        return "leq"
    if ba:
        return "geq"
    return "incomparable"
