"""The root system of the doubled-fork diagram and the integer key kernel.

Finite roots are integer tuples of length n holding coefficients on the
simple roots; :func:`root_to_fw` and :func:`fw_to_root` convert between
them and the fundamental coordinates of :mod:`minaff.cartan`.  The affine
node 0 is attached to node 2.  Affine weights are integer keys
(a_1, ..., a_n, level, 2 delta): the finite part, the coefficient of the
level-one fundamental weight at node 0, and twice the coefficient of the
null root delta, which every weight the library meets has as a multiple
of 1/2.

This module holds what the table path runs: the coroot pairings, the
simple roots, the relabelling of a finite weight at a level by a diagram
automorphism (:func:`finite_twist`) and of a key (:func:`key_twist`), the
one Demazure kernel (:func:`_demazure_terms`, applied along a tuple of
letters by :func:`demazure_letters`, with the one term limit
:data:`MAX_TERMS`), the dominant point of an affine Weyl orbit in closed
form (:func:`_dominant_key`, which reads its doubled orthogonal
coordinates back through :func:`fw_from_eps2`, the inverse of
:func:`minaff.cartan.eps2`) and the rotation element as a plain pair
(:func:`sigma_pair`): an automorphism prefix (a permutation of the affine
nodes generated by the two diagram swaps, each its own inverse) and a
tuple of reflection indices, read left to right, rightmost applied first.
Nothing here reflects a key or reduces a word, and nothing in the
library walks a chamber: :mod:`minaff.polyring` writes the
longest word's letters in closed form, and ``verify`` holds the simple
reflection and counts lengths by hyperplanes.
"""

from functools import lru_cache
from operator import add, itemgetter, mul

from .cartan import _unit, check_node, check_rank, eps2
from . import InputError, VerificationError


# ---------------------------------------------------------------------------
# Dynkin diagrams and roots


def finite_edges(n):
    """Edges of the finite diagram: a chain 1..n-1 plus the fork edge (n-2, n)."""
    return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)


def theta_coeffs(n):
    """Simple-root coefficients of the highest root, at a checked rank."""
    return (1,) + (2,) * (n - 3) + (1, 1)


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


def _dominates(n, lam, mu):
    """Dominance order on two checked rank-n weights: lam - mu is a sum of
    positive roots, that is, its root coordinates exist and none is
    negative."""
    diff = tuple(a - b for a, b in zip(lam, mu))
    try:
        c = fw_to_root(n, diff)
    except InputError:  # off the root lattice
        return False
    return min(c) >= 0


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
    """Inverse of :func:`minaff.cartan.eps2`; raises if ``d`` is not on the
    weight lattice."""
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


def _dominant_key(n, k):
    """The dominant point of the affine Weyl orbit of a key of positive level.

    At level l the group acts on the finite part as W(D_n) times the
    translations by l Q^v, Q^v the integer vectors of even coordinate sum
    (V. G. Kac, Infinite-dimensional Lie algebras, 6.5), and the dominant
    point is the one point of the orbit in the scaled fundamental alcove
    x_1 >= ... >= x_(n-1) >= |x_n|, x_1 + x_2 <= l (Prop. 3.12).  In
    doubled coordinates: translate each coordinate into [-l, l), sort into
    the finite chamber, and if the translations summed to an odd number,
    reflect in the affine wall (one more translation and one more sign
    flip).  The 2 delta slot follows from norm preservation and must come
    out an integer; if it does not, VerificationError.
    """
    d, lev = eps2(n, k[:n]), k[n]
    q = [(v + lev) // (2 * lev) for v in d]
    r = list(_dominantize([v - 2 * lev * t for v, t in zip(d, q)]))
    if sum(q) % 2:
        r[0], r[-1] = 2 * lev - r[0], -r[-1]
    delta, rem = divmod(sum(v * v for v in d) - sum(v * v for v in r), 4 * lev)
    if rem:
        raise VerificationError(f"the dominant point of {k} has a 2 delta off the integers")
    return fw_from_eps2(n, tuple(r)) + (lev, k[n + 1] + delta)


# ---------------------------------------------------------------------------
# Diagram automorphisms


def _swap_tau(n, a, b):
    t = list(range(n + 1))
    t[a], t[b] = t[b], t[a]
    return tuple(t)


def sigma_pair(n):
    """The rotation element at a checked rank, as (prefix, letters): both
    diagram swaps, then the chain of reflections from node 1 out to node
    n-1.  Its letters are distinct, so the word is reduced by construction."""
    fork = _swap_tau(n, n - 1, n)
    return (1, 0) + fork[2:], tuple(range(1, n))


# ---------------------------------------------------------------------------
# The action on integer keys
#
# An affine weight is one flat int tuple (a_1, ..., a_n, level, 2 delta):
# every delta the library meets has denominator 1 or 2, so doubling keeps
# the key exact.  The pairings, the simple roots and the relabelling are
# written once, below, on these keys; the simple reflection, which no table
# runs, is minaff.verify.reflect_key, on the pairing and root of its
# string in _demazure_terms, so a change of the key format touches both.


@lru_cache(maxsize=None, typed=True)
def key_pairing(n, i):
    """The pairing of the i-th simple coroot (i in 0..n) with a key, as a
    function.  The node-0 coroot is the canonical central element minus the
    highest-root coroot: the level minus the mark-weighted finite part.
    The 2-delta slot never contributes.  The cache is typed, so 1.0 or True
    misses the node-1 entry and is refused like any other bad node."""
    check_rank(n)
    check_node(n, i, 0)
    if i:
        return itemgetter(i - 1)
    marks = theta_coeffs(n)
    return lambda k: k[n] - sum(map(mul, marks, k))


@lru_cache(maxsize=None)
def alpha_key(n, i):
    """Simple root i as a key, at a checked rank and node; alpha_0 = delta -
    theta, 2 in the 2-delta slot, as theta = e_1 + e_2 is varpi_2."""
    if i == 0:
        return (0, -1) + (0,) * (n - 2) + (0, 2)
    return root_to_fw(n, _unit(n, i)) + (0, 0)


@lru_cache(maxsize=None)
def finite_twist(n, tau):
    """The relabelling by a diagram automorphism ``tau`` (a tuple) of a
    finite weight at a level, as a function (mu, level) -> mu'.

    An automorphism sends the node-i fundamental weight Lambda_i to
    Lambda_tau(i) plus a delta correction, so the image pairs with the
    coroot at node tau(i) as the weight does at node i: its coordinates
    are the permuted pairings, the one at node j read from node tau(j), as
    ``tau`` is its own inverse.  The pairing at node 0 reads the level.
    ``tau`` is taken unchecked as one of the four automorphisms generated
    by the two swaps (any other would not preserve the invariant form):
    the rotation element's prefix, or that of a ``verify`` word.
    """
    pick = itemgetter(*tau[1:])
    pair0 = key_pairing(n, 0)
    return lambda mu, level: pick((pair0(mu + (level,)),) + mu)


@lru_cache(maxsize=None)
def key_twist(n, tau):
    """The relabelling of keys by a diagram automorphism ``tau``, as a
    function: the finite part by :func:`finite_twist` at the key's level.

    The level is the mark-weighted sum of the pairings and the marks are
    tau-invariant, so it is unchanged.  The delta correction is forced by
    norm preservation, since delta pairs with the level: Lambda_0 has norm
    0 and Lambda_1 norm 1, so swapping nodes 0 and 1 adds c_1 - c_0 to
    2 delta for pairings c_i, while the two spin weights swapped by the
    fork have equal norms and add nothing: the image's first coordinate is
    c_tau(1), so the correction is c_1 minus it.
    """
    relabel = finite_twist(n, tau)

    def twist(k):
        mu = relabel(k[:n], k[n])
        return mu + (k[n], k[n + 1] + k[0] - mu[0])

    return twist


def _demazure_terms(n, i, terms):
    """One Demazure step at node i, at a checked rank and node, on a map
    {key: coefficient}, as a fresh map without zero coefficients.

    Per key with coroot pairing m: the coefficient times the descending
    string k, k - alpha_i, ..., k - m alpha_i when m >= 0, nothing when
    m = -1, and its negative times the ascending string k + alpha_i, ...,
    k + (-m-1) alpha_i otherwise.  The one Demazure kernel, applied along
    letters by :func:`demazure_letters`.  At a finite node it acts on
    finite weights (length-n tuples) as well: the simple root has no level
    or delta part, and the pairing reads one finite coordinate.
    """
    out = {}
    up = alpha_key(n, i)
    down = tuple(-a for a in up)
    pair = key_pairing(n, i)
    for k, c in terms.items():
        m = pair(k)
        if m >= 0:
            step, count, sign = down, m + 1, c
        else:
            k, step, count, sign = tuple(map(add, k, up)), up, -m - 1, -c
        for _ in range(count):
            out[k] = out.get(k, 0) + sign
            k = tuple(map(add, k, step))
    return {k: c for k, c in out.items() if c}


# The most terms a map may reach after one Demazure step.  Measured on a
# 2-vCPU Xeon VM: no table case of the tests, the README or the benchmark
# passes 1,012 terms; rank 9 tables reach 98,116 at (1,1,0,1,1,1,1,1,1)
# and 148,692 at (1,...,1), in 2.8 s and 3.7 s.
MAX_TERMS = 200_000


def demazure_letters(n, letters, terms):
    """The Demazure operator of the reflection word ``letters``, at a
    checked rank, on a map {key: coefficient}: :func:`_demazure_terms` at
    each letter, last letter first.

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
