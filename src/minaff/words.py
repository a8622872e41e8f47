"""The extended affine Weyl group of the doubled-fork diagram, as words.

Group elements are carried as words: an automorphism prefix (a permutation
of the affine nodes generated by the two diagram swaps) followed by a tuple
of reflection indices.  The represented element is the prefix composed with
the reflections read left to right, rightmost applied first.  The two swaps
are disjoint transpositions, so each of the four prefixes is its own
inverse, and no operation here inverts a permutation.  The chamber walk of
:mod:`minaff.weyl` serves reduction and the longest word: they read its
steps, one simple reflection per letter.  Two words name the same group
element exactly when their reduced words agree.

A word is checked once, where it is made from outside data:
:class:`ExtendedWeylWord`, and with it :func:`from_word`, :func:`simple`,
``_make`` and ``_replace``, checks the rank, the prefix and every letter.
The operations on words (:func:`compose`, :func:`inverse`,
:func:`reduce_word`) and the distinguished words (:func:`longest_word`,
:func:`sigma_word`, :func:`tau_01`, :func:`tau_fork`) take checked words, or
a rank they check themselves, and build their results unchecked
(:func:`_unchecked_word`): the two-swap subgroup is closed under products
and inverses, and every letter they write is a node.

Everything that acts runs through the key kernel of :mod:`minaff.weyl`:
:func:`act` reflects and relabels keys there, and :func:`demazure_terms`
and :func:`demazure_word_terms` are the kernel's Demazure step and its
loop along a word, the latter bounded by ``weyl.MAX_TERMS``.  The table
path runs the kernel alone, so a ``char`` or ``decomp`` process never
loads this module; ``verify``, the full character
(:func:`minaff.polyring.character`) and the package's exports do.
"""

from collections import namedtuple
from functools import lru_cache

from .cartan import check_node, check_rank, check_weight, eps2
from . import InputError, VerificationError
from .weyl import (
    _demazure_terms,
    _identity_tau,
    _swap_tau,
    _walk_up,
    demazure_pair_terms,
    finite_edges,
    key_twist,
    reflect_key,
    sigma_pair,
)


def affine_edges(n):
    """Finite edges plus the affine attachment (0, 2)."""
    return ((0, 2),) + finite_edges(n)


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
# Words acting on keys and on maps {key: coefficient}


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
    """One Demazure step at node i on a map {key: coefficient}: the kernel's
    :func:`minaff.weyl._demazure_terms`, after checking the rank and the
    node before any cached lookup, which would take 1.0 or True for node 1."""
    check_rank(n)
    check_node(n, i, 0)
    return _demazure_terms(n, i, terms)


def demazure_word_terms(w, terms):
    """The Demazure operator of the word ``w`` on a map {key: coefficient}:
    the kernel's :func:`minaff.weyl.demazure_pair_terms` on its prefix and
    letters, which refuses with InputError once a step leaves more than
    ``weyl.MAX_TERMS`` terms and takes the word as reduced."""
    return demazure_pair_terms(w.n, w.tau, w.word, terms)


# ---------------------------------------------------------------------------
# Reduction, length, distinguished elements


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
    """The rotation element (:func:`minaff.weyl.sigma_pair`) as a word."""
    check_rank(n)
    return _unchecked_word(n, *sigma_pair(n))


def same_element(u, v):
    """Whether two words name one group element: the same rank and reduced word."""
    return u.n == v.n and reduce_word(u) == reduce_word(v)
