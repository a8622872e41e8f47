"""Small-case oracle for the symplectic pipeline.

The character of the Schur functor of the standard symplectic module by
semistandard tableaux, symplectic irreducible characters by Freudenthal's
recursion, and a greedy peel over the symplectic dominance order.  It is
exponential in the partition size, so it serves only to pin
:func:`minaff.spbranch._sp_branch` on small shapes.  The Weyl dimension
formula root by root pins the closed product of
:func:`minaff.spbranch._sp_dim_irr`.  The enumeration, the
irreducible characters and the peel run on plain {finite weight: m} maps;
``schur_char``, ``sp_irr_character`` and ``decompose_sp`` convert them at
the ``CharElem`` boundary (the ring of ``_ring_oracle``).
"""

from functools import lru_cache

from minaff import CharacterError, InputError
from minaff.cartan import check_rank
from minaff.spbranch import _sp_fund_from_eps, _sp_rho, _strip, partition_of
from _ring_oracle import CharElem


def schur_char(p, rank):
    """Character of the Schur functor of the standard symplectic module,
    as an element; generally reducible as a symplectic character."""
    terms = schur_terms(p, rank)
    return CharElem(rank, {k + (0, 0): m for k, m in terms.items()}, affine=False)


def schur_terms(p, rank):
    """The terms of :func:`schur_char`: {finite weight: m}.

    Enumerates semistandard tableaux of shape ``p`` in 2*rank letters; each
    letter carries one of the orthogonal weights of the standard module.
    """
    check_rank(rank + 1)
    p = _strip(tuple(p))
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)) or any(v < 0 for v in p):
        raise InputError(f"{p} is not a partition")
    nletters = 2 * rank
    if len(p) > nletters:
        raise InputError(f"partition {p} too tall for {nletters} letters")
    if not p:
        return {(0,) * rank: 1}
    # letter 2i-1 adds +1, letter 2i adds -1 at coordinate i (1-based i)
    rows = len(p)
    eps_weights = {}
    tableau = [[0] * p[r] for r in range(rows)]
    acc = [0] * rank

    def fill(r, c):
        if r == rows:
            key = tuple(acc)
            eps_weights[key] = eps_weights.get(key, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < p[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = tableau[r][c - 1]
        if r > 0 and c < p[r - 1]:
            lo = max(lo, tableau[r - 1][c] + 1)
        for letter in range(lo, nletters + 1):
            tableau[r][c] = letter
            i, odd = divmod(letter - 1, 2)
            step = 1 if odd == 0 else -1
            acc[i] += step
            fill(nr, nc)
            acc[i] -= step
        tableau[r][c] = 0

    fill(0, 0)
    return {_sp_fund_from_eps(x): m for x, m in eps_weights.items()}


def _sp_dominant(x):
    r = len(x)
    return all(x[i] >= x[i + 1] for i in range(r - 1)) and x[r - 1] >= 0


@lru_cache(maxsize=None)
def _sp_pos_roots(r):
    roots = []
    for i in range(r):
        for j in range(i + 1, r):
            a = [0] * r
            a[i], a[j] = 1, -1
            roots.append(tuple(a))
            b = [0] * r
            b[i], b[j] = 1, 1
            roots.append(tuple(b))
    for i in range(r):
        c = [0] * r
        c[i] = 2
        roots.append(tuple(c))
    return tuple(roots)


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


def sp_dim_by_roots(rank, nu):
    """Weyl dimension formula root by root: the product of the pairings of
    nu + rho with every positive root over the same product at rho."""
    rho = _sp_rho(rank)
    top = tuple(a + b for a, b in zip(partition_of(tuple(nu)), rho))
    num = den = 1
    for a in _sp_pos_roots(rank):
        num *= _dot(top, a)
        den *= _dot(rho, a)
    q, r = divmod(num, den)
    if r:
        raise CharacterError(f"dimension formula not integral at {nu}")
    return q


def _sp_dominantize(x):
    return tuple(sorted((abs(v) for v in x), reverse=True))


def _sp_in_root_cone(x):
    acc = 0
    for v in x[:-1]:
        acc += v
        if acc < 0:
            return False
    acc += x[-1]
    return acc >= 0 and acc % 2 == 0


@lru_cache(maxsize=None)
def _sp_dominant_mults(r, top):
    """Freudenthal recursion for the symplectic algebra of rank r; ``top``
    is the highest weight in orthogonal coordinates."""
    roots = _sp_pos_roots(r)
    rho = _sp_rho(r)
    doms = {top}
    frontier = [top]
    while frontier:
        fresh = []
        for d in frontier:
            for a in roots:
                e = tuple(x - y for x, y in zip(d, a))
                if e not in doms and _sp_dominant(e):
                    doms.add(e)
                    fresh.append(e)
        frontier = fresh
    top_rho = tuple(a + b for a, b in zip(top, rho))
    top_norm = _dot(top_rho, top_rho)
    mults = {}
    for d in sorted(doms, key=lambda d: (-_dot(d, rho), d)):
        if d == top:
            mults[d] = 1
            continue
        num = 0
        for a in roots:
            nu = tuple(x + y for x, y in zip(d, a))
            while True:
                m = mults.get(_sp_dominantize(nu))
                if m is None:
                    break
                num += m * _dot(nu, a)
                nu = tuple(x + y for x, y in zip(nu, a))
        d_rho = tuple(a + b for a, b in zip(d, rho))
        den = top_norm - _dot(d_rho, d_rho)
        q, rem = divmod(2 * num, den)
        if rem or q <= 0:
            raise CharacterError(f"symplectic recursion failed at {d}")
        mults[d] = q
    return mults


def _sp_orbit(x):
    r = len(x)
    seen = {x}
    stack = [x]
    while stack:
        d = stack.pop()
        for i in range(r - 1):
            if d[i] != d[i + 1]:
                e = d[:i] + (d[i + 1], d[i]) + d[i + 2 :]
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        if d[r - 1]:
            e = d[: r - 1] + (-d[r - 1],)
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return seen


def sp_irr_character(rank, nu):
    """Irreducible symplectic character with highest weight ``nu``."""
    terms = _sp_irr_terms(rank, tuple(nu))
    return CharElem(rank, {k + (0, 0): m for k, m in terms.items()}, affine=False)


@lru_cache(maxsize=None)
def _sp_irr_terms(rank, nu):
    """The terms of :func:`sp_irr_character`: {finite weight: m}; the
    cached map itself, which callers only read."""
    if not all(v >= 0 for v in nu) or len(nu) != rank:
        raise InputError(f"{nu} is not a dominant rank-{rank} weight")
    terms = {}
    for d, m in _sp_dominant_mults(rank, partition_of(nu)).items():
        for e in _sp_orbit(d):
            terms[_sp_fund_from_eps(e)] = m
    return terms


def decompose_sp(f, rank):
    """:func:`peel_sp` of the finite-tagged element ``f``."""
    if f.affine:
        raise InputError("decompose_sp expects a finite-tagged element")
    return peel_sp({k[:rank]: v for k, v in f.items()}, rank)


def peel_sp(terms, rank):
    """Greedy peel-off of {finite weight: m} over the symplectic dominance
    order; the residual must reach exactly zero or the input was not a
    character."""
    work = dict(terms)
    mults = {}
    while work:
        dom = [k for k in work if all(v >= 0 for v in k)]
        if not dom:
            raise CharacterError("nonzero residual with no dominant term")
        maximal = [
            a
            for a in dom
            if not any(
                b != a
                and _sp_in_root_cone(
                    tuple(x - y for x, y in zip(partition_of(b), partition_of(a)))
                )
                for b in dom
            )
        ]
        nu = max(maximal)
        m = work[nu]
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at {nu}")
        for k, v in _sp_irr_terms(rank, nu).items():
            w = work.get(k, 0) - m * v
            if w:
                work[k] = w
            else:
                work.pop(k, None)
        mults[nu] = m
    return mults
