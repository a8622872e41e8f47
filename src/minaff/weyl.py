"""The root system of the doubled-fork diagram and the integer key kernel.

Finite roots are integer tuples of length n holding coefficients on the
simple roots; :func:`root_to_fw` and :func:`fw_to_root` convert between
them and the fundamental coordinates of :mod:`minaff.cartan`.  The affine
node 0 is attached to node 2.  Affine weights are integer keys
(a_1, ..., a_n, level, 2 delta): the finite part, the coefficient of the
level-one fundamental weight at node 0, and twice the coefficient of the
null root delta, which every weight the library meets has as a multiple
of 1/2.

This module holds what the table path runs, on keys and plain pairs: the
coroot pairings, the simple reflections and the relabelling by a diagram
automorphism, the one Demazure kernel (:func:`_demazure_terms`, applied
along a word by :func:`demazure_pair_terms`, with the one term limit
:data:`MAX_TERMS`), the one chamber walk (:func:`_walk_up`) and the
rotation element as a pair (:func:`sigma_pair`).  A word here is a plain
pair: an automorphism prefix (a permutation of the affine nodes generated
by the two diagram swaps, each its own inverse) and a tuple of reflection
indices, read left to right, rightmost applied first.  The group as
checked words, with their products, inverses, reduction and the longest
element, is :mod:`minaff.words`, which only ``verify``, the full
character and the library load.
"""

from functools import lru_cache
from operator import add, itemgetter, mul

from .cartan import _unit, check_node, check_rank, eps2
from . import InputError


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


# ---------------------------------------------------------------------------
# Diagram automorphisms


def _identity_tau(n):
    return tuple(range(n + 1))


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
# the key exact.  The affine Weyl action is written once, below, on these
# keys.


@lru_cache(maxsize=None)
def key_pairing(n, i):
    """The pairing of the i-th simple coroot (i in 0..n) with a key, as a
    function.  The node-0 coroot is the canonical central element minus the
    highest-root coroot: the level minus the mark-weighted finite part.
    The 2-delta slot never contributes.  A refused node is never cached."""
    check_rank(n)
    check_node(n, i, 0)
    if i:
        return itemgetter(i - 1)
    marks = theta_coeffs(n)
    return lambda k: k[n] - sum(map(mul, marks, k))


@lru_cache(maxsize=None)
def alpha_key(n, i):
    """Simple root i as a key, at a checked rank and node; alpha_0 = delta -
    theta has 2 in the 2-delta slot."""
    if i == 0:
        return tuple(-v for v in root_to_fw(n, theta_coeffs(n))) + (0, 2)
    return root_to_fw(n, _unit(n, i)) + (0, 0)


def reflect_key(i, k):
    """Simple reflection at node i: subtract the pairing times alpha_i."""
    n = len(k) - 2
    alpha = alpha_key(n, i)
    m = key_pairing(n, i)(k)
    return tuple(a - m * b for a, b in zip(k, alpha))


@lru_cache(maxsize=None)
def key_twist(n, tau):
    """The relabelling of keys by a diagram automorphism ``tau`` (a tuple),
    as a function.

    An automorphism sends the node-i fundamental weight Lambda_i to
    Lambda_tau(i) plus a delta correction, so the image pairs with the
    coroot at node tau(i) as the key does at node i: its finite coordinates
    are the permuted pairings, the one at node j read from node tau(j), as
    ``tau`` is its own inverse.  The level is the mark-weighted sum of the
    pairings and the marks are tau-invariant, so it is unchanged.  The
    delta correction is forced by norm preservation, since delta pairs
    with the level: Lambda_0 has norm 0 and Lambda_1 norm 1, so swapping
    nodes 0 and 1 adds c_1 - c_0 to 2 delta for pairings c_i, while the two
    spin weights swapped by the fork have equal norms and add nothing.
    ``tau`` is taken unchecked as one of the four automorphisms generated
    by the two swaps (any other would not preserve the invariant form):
    the rotation element's prefix, or that of a checked word.
    """
    pick = itemgetter(*tau[1:])
    pair0 = key_pairing(n, 0)
    if tau[0] == 0:
        return lambda k: pick((pair0(k),) + k) + k[n:]

    def twist(k):
        c0 = pair0(k)
        return pick((c0,) + k) + (k[n], k[n + 1] + k[0] - c0)

    return twist


def _demazure_terms(n, i, terms):
    """One Demazure step at node i, at a checked rank and node, on a map
    {key: coefficient}, as a fresh map without zero coefficients.

    Per key with coroot pairing m: the coefficient times the descending
    string k, k - alpha_i, ..., k - m alpha_i when m >= 0, nothing when
    m = -1, and its negative times the ascending string k + alpha_i, ...,
    k + (-m-1) alpha_i otherwise.  The one Demazure kernel, applied along
    a word by :func:`demazure_pair_terms`.  At a finite node it acts on
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


def demazure_pair_terms(n, tau, word, terms):
    """The Demazure operator of the word ``word`` after the prefix ``tau``,
    at a checked rank, on a map {key: coefficient}: :func:`_demazure_terms`
    at each letter, last letter first, then the relabelling by the prefix
    unless it is the identity.

    Refuses with InputError once a step leaves more than MAX_TERMS terms.
    It does not check that the word is reduced; on a word that is not, the
    result is not the operator of the group element.  The rotation word's
    letters 1..n-1 are distinct, so it is reduced by construction; the
    longest word is proved by its length, the ``verify`` words by
    ``is_reduced``.  That the lengths of the nested composite w0
    sigma^(n-1) add is proved by ``verify --suite weyl`` and the tests,
    not on the table path.
    """
    for i in reversed(word):
        terms = _demazure_terms(n, i, terms)
        if len(terms) > MAX_TERMS:
            raise InputError(
                f"rank {n}: a Demazure step passed the limit of {MAX_TERMS} terms, "
                "so the job is refused"
            )
    if tau == _identity_tau(n):
        return terms
    twist = key_twist(n, tau)
    return {twist(k): c for k, c in terms.items()}


def _walk_up(k, nodes):
    """Reflect the key ``k`` at the smallest node of ``nodes`` with a
    negative pairing until there is none; returns the nodes used, in order,
    and the key where it stops.  The one chamber walk, for reduction and
    the longest word (:mod:`minaff.words`) and ``affinization._lambda_keys``."""
    n = len(k) - 2
    pairings = [(i, key_pairing(n, i)) for i in nodes]
    steps = []
    while True:
        i = next((i for i, pair in pairings if pair(k) < 0), None)
        if i is None:
            return steps, k
        k = reflect_key(i, k)
        steps.append(i)
