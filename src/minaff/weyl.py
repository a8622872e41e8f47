"""The root system of the doubled-fork diagram and the integer key kernel, in one frame.

Every weight of the Demazure side is carried in doubled orthogonal
coordinates d, those of :func:`minaff.cartan.eps2` (Bourbaki, Lie Groups
and Lie Algebras, ch. VI, plate IV): a finite weight is an int tuple
(d_1, ..., d_n), an affine weight a key (d_1, ..., d_n, level, 2 delta),
with the coefficient of the level-one fundamental weight at node 0 and
twice that of the null root delta, which every weight the library meets
has as a multiple of 1/2.  Node i < n pairs as (d_i - d_(i+1))/2, node n
as (d_(n-1) + d_n)/2, a simple root is +-2 at two coordinates, and the
two diagram swaps send d_1 to 2 level - d_1 and d_n to -d_n.  Weights go
back to fundamental coordinates only at the edges (:func:`fw_from_eps2`).

This module holds what the table path runs: the dominance order, the two
coordinates a finite node moves (:func:`_node_coords`), the relabelling
by a diagram automorphism of a finite weight at a level
(:func:`finite_twist`) and of a key (:func:`key_twist`), the one Demazure
kernel (:func:`_demazure_terms`, one step on those two coordinates,
applied along finite letters by :func:`demazure_letters`, with the one
term limit :data:`MAX_TERMS`), the dominant point of an affine Weyl orbit
in closed form (:func:`_dominant_key`) and the rotation element as a
plain pair (:func:`sigma_pair`): an automorphism prefix (a permutation of
the affine nodes generated by the two diagram swaps, each its own
inverse; the rotation's swaps both and is written out as the tuple (1, 0,
2, ..., n-2, n, n-1)) and a tuple of reflection indices, read left to
right, rightmost applied first.  Node 0 is ``verify``'s, node 1
conjugated by the 0-1 swap; ``verify`` also reflects keys and counts
lengths by hyperplanes; nothing here reduces a word, and
:mod:`minaff.polyring` writes the longest word's letters in closed form,
so nothing in the library walks a chamber.
"""

from functools import lru_cache
from itertools import accumulate
from operator import sub

from . import InputError, VerificationError


# ---------------------------------------------------------------------------
# Weights in the frame


def _dominates(n, lam, mu):
    """Dominance order on two rank-n points of the frame: lam - mu is a sum
    of positive roots.  With d the doubled difference and S = d_1 + ... +
    d_(n-1), its root coordinates are the partial sums of d halved up to
    node n-2, then (S - d_n)/4 and (S + d_n)/4; all must be nonnegative
    integers."""
    d = tuple(map(sub, lam, mu))
    sums = tuple(accumulate(d[: n - 1]))
    fours = [2 * v for v in sums[:-1]] + [sums[-1] - d[-1], sums[-1] + d[-1]]
    return all(v >= 0 and v % 4 == 0 for v in fours)


def _dominantize(d):
    """The dominant point of the Weyl orbit of a doubled coordinate vector:
    absolute values sorted descending, the last one negated when an odd
    number of coordinates is negative (type D flips signs in pairs)."""
    neg = sum(1 for v in d if v < 0)
    mags = sorted((abs(v) for v in d), reverse=True)
    if neg % 2 and mags[-1]:
        mags[-1] = -mags[-1]
    return tuple(mags)


def fw_from_eps2(n, d):
    """Inverse of :func:`minaff.cartan.eps2`, the edge where a point of the
    frame is read back into fundamental coordinates: (d_j - d_(j+1))/2 for
    j < n, then (d_(n-1) + d_n)/2.  Every point it reads was computed, so
    one off the weight lattice (mixed parities) fails the verification."""
    if len({v & 1 for v in d}) > 1:
        raise VerificationError(f"{d} is not a doubled weight-lattice point")
    return (*[(a - b) // 2 for a, b in zip(d, d[1:])], (d[n - 2] + d[n - 1]) // 2)


def _dominant_key(n, k):
    """The dominant point of the affine Weyl orbit of a key of positive level.

    At level l the group acts on the finite part as W(D_n) times the
    translations by l Q^v, Q^v the integer vectors of even coordinate sum
    (V. G. Kac, Infinite-dimensional Lie algebras, 6.5), and the dominant
    point is the one point of the orbit in the scaled fundamental alcove
    x_1 >= ... >= x_(n-1) >= |x_n|, x_1 + x_2 <= l (Prop. 3.12).  On the
    doubled coordinates: translate each into [-l, l), sort into the finite
    chamber, and if the translations summed to an odd number, reflect in
    the affine wall (one more translation and one more sign flip).  The 2
    delta slot follows from norm preservation and must come out an
    integer; if it does not, VerificationError.
    """
    d, lev = k[:n], k[n]
    q = [(v + lev) // (2 * lev) for v in d]
    r = list(_dominantize([v - 2 * lev * t for v, t in zip(d, q)]))
    if sum(q) % 2:
        r[0], r[-1] = 2 * lev - r[0], -r[-1]
    delta, rem = divmod(sum(v * v for v in d) - sum(v * v for v in r), 4 * lev)
    if rem:
        raise VerificationError(f"the dominant point of {k} has a 2 delta off the integers")
    return (*r, lev, k[n + 1] + delta)


# ---------------------------------------------------------------------------
# Diagram automorphisms


def sigma_pair(n):
    """The rotation element at a checked rank, as (prefix, letters): both
    diagram swaps, the permutation (1, 0, 2, ..., n-2, n, n-1) of the affine
    nodes, then the chain of reflections from node 1 out to node n-1.  Its
    letters are distinct, so the word is reduced by construction."""
    return (1, 0, *range(2, n - 1), n, n - 1), tuple(range(1, n))


# ---------------------------------------------------------------------------
# The action on integer keys
#
# The step and the relabelling are written once, below, on keys and finite
# weights of the frame; node 0 and the simple reflection, which no table
# runs, are minaff.verify's, on the same frame.


def _node_coords(n, i):
    """The coordinates a finite node i moves, as (p, f): positions p and
    p + 1 (0-based), and the sign f, -1 at the fork node n and 1 on the
    chain.  With (a, b) at those positions, the node pairs as (a - f b)/2,
    its simple root is (2, -2f) there, and its reflection gives (f b, f a)."""
    return (i - 1, 1) if i < n else (n - 2, -1)


@lru_cache(maxsize=None)
def finite_twist(n, tau):
    """The relabelling by a diagram automorphism ``tau`` (a tuple) of a
    finite weight at a level, as a function (d, level) -> d'.

    The image pairs with the coroot at node tau(i) as the weight does at
    node i.  Swapping nodes 0 and 1 exchanges the pairings level - (d_1 +
    d_2)/2 and (d_1 - d_2)/2 and keeps the rest, so d_1 goes to 2 level -
    d_1; the fork swap exchanges (d_(n-1) -+ d_n)/2, so d_n goes to -d_n.
    ``tau`` is taken unchecked as one of the four automorphisms generated
    by the two swaps (any other would not preserve the invariant form):
    the rotation element's prefix, or that of a ``verify`` word.
    """
    lev, first = (2, -1) if tau[0] else (0, 1)
    last = -1 if tau[n] != n else 1
    return lambda d, level: (lev * level + first * d[0], *d[1:-1], last * d[-1])


@lru_cache(maxsize=None)
def key_twist(n, tau):
    """The relabelling of keys by a diagram automorphism ``tau``, as a
    function: the finite part by :func:`finite_twist` at the key's level.

    The level is unchanged.  The delta correction is forced by norm
    preservation, since delta pairs with the level: it adds (d_1 - d_1')/2
    to 2 delta, which is d_1 - level when the prefix swaps nodes 0 and 1
    (Lambda_0 has norm 0 and Lambda_1 norm 1), and 0 when only the fork
    swaps, as the two spin weights have equal norms.
    """
    relabel = finite_twist(n, tau)

    def twist(k):
        d = relabel(k[:n], k[n])
        return d + (k[n], k[n + 1] + (k[0] - d[0]) // 2)

    return twist


def _demazure_terms(n, i, terms):
    """One Demazure step at the finite node i on a map {key: coefficient},
    as a fresh map without zero coefficients.

    Per key, with (a, b, f) as in :func:`_node_coords` and the pairing
    m = (a - f b)/2: k - t alpha, which is k with (a - 2t, b + 2ft) in
    place of (a, b), for t = 0..m with the coefficient, or t = m+1..-1
    with its negative (nothing when m = -1).  The one Demazure kernel,
    applied along finite letters by :func:`demazure_letters` and at every
    node by ``verify``.  It acts on keys and finite weights alike, as the
    simple root has no level or delta part.
    """
    out = {}
    p, f = _node_coords(n, i)
    for k, c in terms.items():
        a, b = k[p], k[p + 1]
        m = (a - f * b) // 2
        head, tail = k[:p], k[p + 2 :]
        ts, sign = (range(m + 1), c) if m >= 0 else (range(m + 1, 0), -c)
        for t in ts:
            key = head + (a - 2 * t, b + 2 * f * t) + tail
            out[key] = out.get(key, 0) + sign
    return {k: c for k, c in out.items() if c}


# The most terms a map may reach after one Demazure step.  Measured on a
# 2-vCPU Xeon VM with Python 3.11.7: no table case of the README or the
# benchmark passes 1,012 terms; rank 9 tables reach 98,116 at
# (1,1,0,1,1,1,1,1,1) and 148,692 at (1,...,1), in 0.9-1.2 s and
# 1.3-1.9 s in-process.
MAX_TERMS = 200_000


def demazure_letters(n, letters, terms):
    """The Demazure operator of the finite reflection word ``letters``, at
    a checked rank, on a map {key: coefficient}: :func:`_demazure_terms`
    at each letter, last letter first.

    Refuses with InputError once a step leaves more than MAX_TERMS terms.
    It does not check that the word is reduced; on a word that is not, the
    result is not the operator of the group element.  The rotation word's
    letters 1..n-1 are distinct, so it is reduced by construction; the
    longest word is proved by its length, the ``verify`` words by their
    hyperplane count.  That the lengths of the nested composite w0
    sigma^(n-1) add is proved by ``verify --suite weyl`` and the tests,
    not on the table path.
    """
    for i in reversed(letters):
        terms = _demazure_terms(n, i, terms)
        if len(terms) > MAX_TERMS:
            raise InputError(
                f"rank {n}: a Demazure step passed the limit of {MAX_TERMS} terms, "
                "so the job is refused"
            )
    return terms
