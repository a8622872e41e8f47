"""The root system and the extended affine Weyl group of the doubled-fork diagram.

Finite roots are integer tuples of length n holding coefficients on the
simple roots; :func:`root_to_fw` and :func:`fw_to_root` convert between
them and the fundamental coordinates of :mod:`minaff.cartan`.  The affine
node 0 is attached to node 2.  Affine weights are integer keys
(a_1, ..., a_n, level, 2 delta): the finite part, the coefficient of the
level-one fundamental weight at node 0, and twice the coefficient of the
null root delta, which every weight the library meets has as a multiple
of 1/2.

Group elements are carried as words: an automorphism prefix (a permutation
of the affine nodes generated by the two diagram swaps) followed by a tuple
of reflection indices.  The represented element is the prefix composed with
the reflections read left to right, rightmost applied first.  The two swaps
are disjoint transpositions, so each of the four prefixes is its own
inverse, and no operation here inverts a permutation.  One chamber walk
serves three callers: reduction and the longest word read its steps, one
simple reflection per letter, and the rotated factor weights are where it
stops.  Two words name the same group element exactly when their reduced
words agree.

A word is checked once, where it is made from outside data:
:class:`ExtendedWeylWord`, and with it :func:`from_word`, :func:`simple`,
``_make`` and ``_replace``, checks the rank, the prefix and every letter.
The operations on words (:func:`compose`, :func:`inverse`,
:func:`reduce_word`) and the distinguished words (:func:`longest_word`,
:func:`sigma_word`, :func:`tau_01`, :func:`tau_fork`) take checked words, or
a rank they check themselves, and build their results unchecked
(:func:`_unchecked_word`): the two-swap subgroup is closed under products
and inverses, and every letter they write is a node.

The action is written once, on the keys that the nested polynomial's maps
hold, and so is the Demazure string (:func:`demazure_terms`, and along a
word :func:`demazure_word_terms`), on plain maps from keys to coefficients.
"""

from collections import namedtuple
from functools import lru_cache
from operator import add, itemgetter, mul

from .cartan import _unit, check_node, check_rank, check_weight, eps2
from . import InputError, VerificationError


# ---------------------------------------------------------------------------
# Dynkin diagrams and roots


def finite_edges(n):
    """Edges of the finite diagram: a chain 1..n-1 plus the fork edge (n-2, n)."""
    return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)


def affine_edges(n):
    """Finite edges plus the affine attachment (0, 2)."""
    return ((0, 2),) + finite_edges(n)


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


def bilinear(x, y):
    """Four times the invariant symmetric form of two keys, an integer.

    Finite parts pair through the orthogonal coordinates, delta pairs with
    the level, and both delta and the level-one generator are isotropic.
    Refuses keys of a rank below 4, of two ranks, or with a coordinate
    that is not an int.
    """
    n = len(x) - 2
    check_rank(n)
    check_weight(n + 2, x)
    check_weight(n + 2, y)
    dot = sum(a * b for a, b in zip(eps2(n, x[:n]), eps2(n, y[:n])))
    return dot + 2 * (x[n] * y[n + 1] + y[n] * x[n + 1])


# ---------------------------------------------------------------------------
# Words


class ExtendedWeylWord(namedtuple("ExtendedWeylWord", ("n", "tau", "word"))):
    """Automorphism prefix plus reflection word over the affine node set.

    ``tau`` is a diagram automorphism of 0..n, ``tau[i]`` the image of node
    i; it must be one of the four generated by the two swaps.  Every entry
    of ``tau`` and ``word`` is a node (:func:`minaff.cartan.check_node`).
    The word is stored as a tuple, so a list passed in and changed later
    changes nothing.
    """

    __slots__ = ()

    def __new__(cls, n, tau, word):
        check_rank(n)
        if not isinstance(tau, tuple) or tau not in _allowed_taus(n):
            raise InputError(f"automorphism prefix {tau} outside the two-swap subgroup")
        word = tuple(word)
        # the prefix entries too: (0.0, 1, 2, 3, 4) and (False, True, 2, 3, 4)
        # are equal to the identity and hash like it, so membership passes them
        for i in (*tau, *word):
            check_node(n, i, 0)
        return super().__new__(cls, n, tau, word)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace bypass __new__; route them through
        # it so that no word escapes the checks
        return cls(*iterable)


def _unchecked_word(n, tau, word):
    """An :class:`ExtendedWeylWord` built without its checks, from a checked
    rank, a prefix of the two-swap subgroup and a tuple of nodes."""
    return tuple.__new__(ExtendedWeylWord, (n, tau, word))


def _identity_tau(n):
    return tuple(range(n + 1))


def simple(n, i):
    return from_word(n, (i,))


def from_word(n, word, tau=None):
    """The word ``word`` after the prefix ``tau``, the identity when ``tau``
    is None; the rank is checked before the default prefix is built from
    it.  A list prefix is read as a tuple; every prefix but None goes
    through :class:`ExtendedWeylWord`'s check, so an empty or falsy one is
    refused, not taken for the identity."""
    check_rank(n)
    if tau is None:
        tau = _identity_tau(n)
    elif isinstance(tau, list):
        tau = tuple(tau)
    return ExtendedWeylWord(n, tau, word)


def _swap_tau(n, a, b):
    t = list(range(n + 1))
    t[a], t[b] = t[b], t[a]
    return tuple(t)


def tau_01(n):
    """Diagram swap of nodes 0 and 1."""
    check_rank(n)
    return _unchecked_word(n, _swap_tau(n, 0, 1), ())


def tau_fork(n):
    """Diagram swap of the two fork nodes n-1 and n."""
    check_rank(n)
    return _unchecked_word(n, _swap_tau(n, n - 1, n), ())


@lru_cache(maxsize=None)
def _allowed_taus(n):
    """The four automorphism prefixes generated by the two swaps.  These
    are disjoint transpositions (n >= 4), so every prefix is its own inverse."""
    a = _swap_tau(n, 0, 1)
    b = _swap_tau(n, n - 1, n)
    return frozenset((_identity_tau(n), a, b, tuple(a[j] for j in b)))


def compose(u, v):
    """Product u*v, rightmost factor applied first; u's letters pass v's
    prefix, its own inverse, relabelled by it."""
    if u.n != v.n:
        raise InputError("rank mismatch in composition")
    word = tuple(v.tau[i] for i in u.word) + v.word
    return _unchecked_word(u.n, tuple(u.tau[j] for j in v.tau), word)


def inverse(u):
    """The inverse word, after the same prefix, as every prefix is its own inverse."""
    return _unchecked_word(u.n, u.tau, tuple(u.tau[i] for i in reversed(u.word)))


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
    it is the prefix of an :class:`ExtendedWeylWord`, which checked it.
    """
    pick = itemgetter(*tau[1:])
    pair0 = key_pairing(n, 0)
    if tau[0] == 0:
        return lambda k: pick((pair0(k),) + k) + k[n:]

    def twist(k):
        c0 = pair0(k)
        return pick((c0,) + k) + (k[n], k[n + 1] + k[0] - c0)

    return twist


def act(w, k):
    """Apply an extended word to a key, word first, prefix last; refuses a
    key that is not w.n + 2 ints."""
    check_weight(w.n + 2, k)
    return _act(w, k)


def _act(w, k):
    """:func:`act` on a checked key."""
    for i in reversed(w.word):
        k = reflect_key(i, k)
    if w.tau == _identity_tau(w.n):
        return k
    return key_twist(w.n, w.tau)(k)


def demazure_terms(n, i, terms):
    """One Demazure step at node i on a map {key: coefficient}, as a fresh
    map without zero coefficients.

    Per key with coroot pairing m: the coefficient times the descending
    string k, k - alpha_i, ..., k - m alpha_i when m >= 0, nothing when
    m = -1, and its negative times the ascending string k + alpha_i, ...,
    k + (-m-1) alpha_i otherwise.  The one Demazure kernel, applied along
    a word by :func:`demazure_word_terms`.  At a finite node it acts on
    finite weights (length-n tuples) as well: the simple root has no level
    or delta part, and the pairing reads one finite coordinate.  Checks the
    rank and the node before any cached lookup, which would take 1.0 or
    True for node 1.
    """
    check_rank(n)
    check_node(n, i, 0)
    return _demazure_terms(n, i, terms)


def _demazure_terms(n, i, terms):
    """:func:`demazure_terms` at a checked rank and node."""
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


def demazure_word_terms(w, terms):
    """The Demazure operator of the word ``w`` on a map {key: coefficient}:
    :func:`demazure_terms` at each letter, last letter first, then the
    relabelling by the automorphism prefix unless it is the identity.

    Refuses with InputError once a step leaves more than MAX_TERMS terms.
    It does not check that ``w`` is reduced; on a word that is not, the
    result is not the operator of the group element.  The rotation word's
    letters 1..n-1 are distinct, so it is reduced by construction; the
    longest word is proved by its length, the ``verify`` words by
    ``is_reduced``.  That the lengths of the nested composite w0
    sigma^(n-1) add is proved by ``verify --suite weyl`` and the tests,
    not on the table path.
    """
    n = w.n
    for i in reversed(w.word):
        terms = _demazure_terms(n, i, terms)
        if len(terms) > MAX_TERMS:
            raise InputError(
                f"rank {n}: a Demazure step passed the limit of {MAX_TERMS} terms, "
                "so the job is refused"
            )
    if w.tau == _identity_tau(n):
        return terms
    twist = key_twist(n, w.tau)
    return {twist(k): c for k, c in terms.items()}


# ---------------------------------------------------------------------------
# Reduction, length, distinguished elements


def _walk_up(k, nodes):
    """Reflect the key ``k`` at the smallest node of ``nodes`` with a
    negative pairing until there is none; returns the nodes used, in order,
    and the key where it stops.  The one chamber walk, for :func:`reduce_word`,
    :func:`longest_word` and ``affinization._lambda_keys``."""
    n = len(k) - 2
    pairings = [(i, key_pairing(n, i)) for i in nodes]
    steps = []
    while True:
        i = next((i for i, pair in pairings if pair(k) < 0), None)
        if i is None:
            return steps, k
        k = reflect_key(i, k)
        steps.append(i)


def reduce_word(w):
    """Canonical reduced word for the same group element.

    Node i is a right descent of g exactly when g^-1 rho-hat pairs
    negatively with the i-th coroot, where rho-hat pairs to 1 with every
    coroot (it is positive on exactly the positive real roots).  Walking
    w^-1 rho-hat up into the dominant chamber, always at the smallest such
    node, strips the descents of w one by one; the steps reversed are the
    word.
    """
    n = w.n
    rho = (1,) * n + (2 * n - 2, 0)
    steps, _ = _walk_up(_act(inverse(w), rho), range(n + 1))
    return _unchecked_word(n, w.tau, tuple(reversed(steps)))


def length(w):
    """Length of the underlying affine Weyl group element; prefixes are free."""
    return len(reduce_word(w).word)


def is_reduced(w):
    return length(w) == len(w.word)


@lru_cache(maxsize=None)
def longest_word(n):
    """A reduced word for the longest finite Weyl group element.

    The walk of -rho up into the dominant chamber over the finite nodes,
    reversed.
    """
    check_rank(n)
    steps, _ = _walk_up((-1,) * n + (0, 0), range(1, n + 1))
    w = _unchecked_word(n, _identity_tau(n), tuple(reversed(steps)))
    if len(w.word) != n * (n - 1):
        raise VerificationError(f"longest word has length {len(w.word)}, expected {n * (n - 1)}")
    return w


@lru_cache(maxsize=None)
def sigma_word(n):
    """The rotation element: both diagram swaps, then the chain of
    reflections from node 1 out to node n-1.  Its letters are distinct, so
    the word is reduced by construction."""
    check_rank(n)
    fork = _swap_tau(n, n - 1, n)
    return _unchecked_word(n, (1, 0) + fork[2:], tuple(range(1, n)))


def same_element(u, v):
    """Whether two words name one group element: the same rank and reduced word."""
    return u.n == v.n and reduce_word(u) == reduce_word(v)
