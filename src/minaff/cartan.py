"""The weight lattice of D_n: coordinates, dominance, family labels, dimensions.

Finite weights are integer tuples of length n holding coefficients on the
fundamental weights (node order 1..n, the two fork nodes last); doubled
orthogonal coordinates (:func:`eps2`) keep every weight integral.  The fork
of the finite diagram sits at node n-2, with spin nodes n-1 and n attached
to it; removing it leaves three branches, node n-1, node n and the chain
1..n-3, so regularity (:func:`is_regular`) reads the fork coordinate
``lam[n - 3]``, the spin coordinates ``lam[n - 2]`` and ``lam[n - 1]``, and
the chain ``lam[: n - 3]``.  Ranks below 4 are rejected everywhere.

This module knows no root: the root system lives in :mod:`minaff.weyl`,
the diagrams and the invariant form in :mod:`minaff.verify`.  What is
here is what the command line and both pipelines read (the rank, weight
and node rules, written once each and called by every function that
takes such an input; the family labels, regularity and the closed Weyl
dimension formula), so a ``sam`` process loads nothing of the Demazure
side, which runs in the frame of :func:`eps2` and reads results back
through its inverse, :func:`minaff.weyl.fw_from_eps2`.
"""

from functools import lru_cache

from . import InputError, VerificationError

MIN_RANK = 4


def check_rank(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < MIN_RANK:
        raise InputError(f"rank must be an integer >= {MIN_RANK}, got {n!r}")


def check_weight(n, mu):
    """The one weight rule: refuses ``mu`` unless it has n coordinates,
    each of class int (a bool or a float is refused).  Keys are weights of
    n + 2 coordinates; a symplectic weight or a partition passes its own
    length.  Signs are the callers' business."""
    if len(mu) != n:
        raise InputError(f"rank mismatch: weight {mu} has length {len(mu)}, expected {n}")
    if not all(v.__class__ is int for v in mu):
        raise InputError(f"weight {mu} has non-integer coordinates")


def check_node(n, i, first):
    """The one node rule: refuses ``i`` unless it is an int (not a bool or
    a float) in first..n, for a checked rank n."""
    if i.__class__ is not int or not first <= i <= n:
        raise InputError(f"node {i!r} outside {first}..{n}")


def varpi(n, i):
    """The i-th fundamental weight as a finite coordinate tuple, for an int
    node i in 1..n."""
    check_rank(n)
    check_node(n, i, 1)
    return _unit(n, i)


def _unit(n, i):
    """The n-tuple with 1 at node i and 0 elsewhere, for a checked rank and
    node: :func:`varpi` in fundamental coordinates, a simple root in root
    coordinates."""
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# Orthogonal coordinates


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


def resolve_family(n, s):
    """Normalize a family label: 1, n-1, n, or the strings '1', 'n-1', 'n'.
    A bool or a float is no label."""
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
    if s.__class__ is int and s in (1, n - 1, n):
        return s
    raise InputError(f"family label must be one of 1, {n - 1}, {n} (or 1, n-1, n), got {s}")


def is_regular(n, lam):
    """Whether the classification covers this dominant weight.

    Removing the fork (node n-2, coordinate ``lam[n - 3]``) cuts the
    diagram into three branches: node n-1 (``lam[n - 2]``), node n
    (``lam[n - 1]``) and the chain 1..n-3 (``lam[: n - 3]``).  True when
    the fork coordinate is positive or some branch misses the support
    entirely.  The remaining case (a support meeting all three branches
    with a zero fork coordinate) is rejected by both pipelines.
    """
    check_dominant(n, lam)
    return lam[n - 3] > 0 or not (lam[n - 2] and lam[n - 1] and any(lam[: n - 3]))


def _irregular(lam):
    """The refusal of a dominant weight that :func:`is_regular` rejects,
    which both pipelines raise."""
    return InputError(
        f"weight {lam} is outside the regular classification "
        "(full spread support with zero fork coordinate)"
    )


# ---------------------------------------------------------------------------
# Dominant weights


def is_dominant_fw(fw):
    return all(v >= 0 for v in fw)


def check_dominant(n, fw):
    """A rank (:func:`check_rank`), a weight of it (:func:`check_weight`),
    and no negative coordinate."""
    check_rank(n)
    check_weight(n, fw)
    if not is_dominant_fw(fw):
        raise InputError(f"weight {fw} is not dominant")


# ---------------------------------------------------------------------------
# Dimensions


def _rho2(n):
    return eps2(n, (1,) * n)


def _root_product(d):
    """The product over the positive roots e_i - e_j and e_i + e_j (i < j)
    of their pairings with the doubled coordinates ``d``, up to a power of
    4 that depends on n alone: the product of d_i^2 - d_j^2."""
    squares = [v * v for v in d]
    out = 1
    for i, a in enumerate(squares):
        for b in squares[i + 1 :]:
            out *= a - b
    return out


@lru_cache(maxsize=None)
def _rho_product(n):
    return _root_product(_rho2(n))


def dim_irr(n, mu):
    """Weyl dimension formula, exact integer arithmetic; checks ``mu`` once.

    With x = mu + rho in orthogonal coordinates, the dimension is the
    product of x_i^2 - x_j^2 over i < j divided by the same product at
    rho; both are taken on doubled coordinates, whose common power of 4
    cancels.
    """
    mu = tuple(mu)
    check_dominant(n, mu)
    return _dim_irr(n, mu)


def _dim_irr(n, mu):
    """:func:`dim_irr` of a checked dominant tuple ``mu``."""
    num = _root_product(eps2(n, tuple(v + 1 for v in mu)))
    q, r = divmod(num, _rho_product(n))
    if r:
        raise VerificationError(f"dimension formula is not integral at {mu}")
    return q
