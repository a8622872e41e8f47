"""Rational affine weights, the positive roots in simple-root coordinates
and their family subsets, the affine root action, the root-by-root descent
and the twist by norm preservation, kept as a reference.

minaff carries an affine weight as one int key (a_1, ..., a_n, level,
2 delta).  This module keeps the weight with an exact rational delta, any
denominator, and acts on it through the key kernel plus a delta shift, so
the kernel is pinned on deltas the keys cannot hold.

``words.reduce_word`` walks a regular weight into the dominant chamber; this
module keeps the older construction it replaced, which strips right descents
found by acting on the affine simple roots, so the two can be compared word
for word.  ``weyl.key_twist`` permutes coroot pairings; this module keeps
the expansion over the fundamental weights that it replaced, each mapped to
its image with the delta correction that norm preservation forces.
``words.same_element`` compares reduced words; this module keeps the
fingerprint it replaced, the action on a basis of the affine weight space,
which reads no reduced word.  ``affinization._lambda_keys`` reads each
rotated factor weight off the end of a chamber walk; this module keeps the
route it replaced, which applies the inverse rotation word j times to the
j-th factor, and the affine dominance test that route was checked by.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from minaff import InputError, VerificationError, weyl, words
from minaff.cartan import branch_set, check_rank, eps2, family_nodes, fw_from_eps2, support, varpi
from minaff.weyl import fw_to_root, root_to_fw, theta_coeffs
from minaff.words import ExtendedWeylWord, compose, from_word, inverse, simple

from _decomp_oracle import positive_roots_eps2


class AffineWeight(namedtuple("AffineWeight", ("finite", "level", "delta"))):
    """Finite fundamental coordinates, the integer level and the exact
    rational coefficient of delta."""

    __slots__ = ()

    def __new__(cls, finite, level=0, delta=0):
        return super().__new__(cls, tuple(finite), level, Fraction(delta))

    @property
    def n(self):
        return len(self.finite)

    def __add__(self, other):
        return AffineWeight(
            tuple(a + b for a, b in zip(self.finite, other.finite)),
            self.level + other.level,
            self.delta + other.delta,
        )

    def __mul__(self, k):
        return AffineWeight(
            tuple(k * a for a in self.finite), k * self.level, k * self.delta
        )

    __rmul__ = __mul__


def lambda0(n):
    check_rank(n)
    return AffineWeight((0,) * n, 1, 0)


def key_of(x):
    """The int key of a weight whose delta is a multiple of 1/2."""
    d2 = 2 * x.delta
    if d2.denominator != 1:
        raise InputError(f"delta {x.delta} of {x} is not a multiple of 1/2")
    return x.finite + (x.level, int(d2))


def weight_of(k, delta=0):
    """The weight with int key ``k``, its delta raised by ``delta``."""
    n = len(k) - 2
    return AffineWeight(k[:n], k[n], Fraction(k[n + 1], 2) + delta)


def _delta_free(x):
    return x.finite + (x.level, 0)


def pairing(i, x):
    """The i-th simple coroot (i in 0..n) paired with ``x``; delta never
    contributes."""
    return weyl.key_pairing(x.n, i)(_delta_free(x))


def form(x, y):
    """The invariant symmetric form, exact: finite parts pair through the
    orthogonal coordinates, delta pairs with the level."""
    n = x.n
    dot = sum(a * b for a, b in zip(eps2(n, x.finite), eps2(n, y.finite)))
    return Fraction(dot, 4) + x.level * y.delta + y.level * x.delta


def act(w, x):
    """An extended word on a weight: the key kernel on the delta-free part,
    plus the delta of ``x``."""
    return weight_of(words.act(w, _delta_free(x)), x.delta)


def tau_on_weight(tau, x):
    """A diagram automorphism on a weight, through :func:`weyl.key_twist`;
    ``tau`` may be a tuple or a list, and the word it prefixes checks it."""
    tau = words.from_word(x.n, (), tau).tau
    return weight_of(weyl.key_twist(x.n, tau)(_delta_free(x)), x.delta)


# Positive roots in simple-root coordinates, and the ones a family label
# leaves out of some other branch.


@lru_cache(maxsize=None)
def positive_roots(n):
    """All positive roots in simple-root coordinates, read off the doubled list."""
    check_rank(n)
    roots = frozenset(fw_to_root(n, fw_from_eps2(n, a)) for a in positive_roots_eps2(n))
    if len(roots) != n * (n - 1):
        raise VerificationError(f"found {len(roots)} positive roots, expected {n * (n - 1)}")
    return roots


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


# A real root is a pair (beta, k): finite root coordinates plus a delta shift.


def root_weight(n, beta, k=0):
    """Embed a real root into the affine weight space."""
    return AffineWeight(root_to_fw(n, beta), 0, Fraction(k))


def _root_from_weight(x):
    n = x.n
    if x.level != 0 or x.delta.denominator != 1:
        raise InputError(f"{x} is not a real root")
    return fw_to_root(n, x.finite), int(x.delta)


def affine_simple_root(n, i):
    if i == 0:
        return tuple(-v for v in theta_coeffs(n)), 1
    return tuple(int(j == i) for j in range(1, n + 1)), 0


def act_root(w, root):
    """Image of a real root under an extended word."""
    beta, k = root
    if all(v == 0 for v in beta):
        raise InputError("imaginary roots have no well-defined coordinates here")
    return _root_from_weight(act(w, root_weight(w.n, beta, k)))


def is_positive_root(n, root):
    """Positivity of a real root: positive delta shift, or none and beta positive."""
    beta, k = root
    if k != 0:
        return k > 0
    return beta in positive_roots(n)


def power(u, k):
    if k < 0:
        return power(inverse(u), -k)
    out = from_word(u.n, ())
    for _ in range(k):
        out = compose(out, u)
    return out


def descent_oracle(w):
    """The root-by-root descent: while some simple root goes negative under
    g, strip that reflection on the right, smallest node first."""
    n = w.n
    g = w
    collected = []
    while True:
        found = next(
            (
                i
                for i in range(n + 1)
                if not is_positive_root(n, act_root(g, affine_simple_root(n, i)))
            ),
            None,
        )
        if found is None:
            return ExtendedWeylWord(n, g.tau, tuple(reversed(collected)))
        g = compose(g, simple(n, found))
        collected.append(found)


def element_images(w):
    """The images of the keys of the fundamental weights, Lambda_0 and delta
    under ``w``: a fingerprint of the group element."""
    n = w.n
    zero = (0,) * n
    basis = [varpi(n, i) + (0, 0) for i in range(1, n + 1)] + [zero + (1, 0), zero + (0, 2)]
    return tuple(words.act(w, b) for b in basis)


def tau_on_weight_oracle(tau, x):
    """The twist by expansion: write ``x`` over the delta-free fundamental
    weights (node i at level a_i) and delta, and send the node-i weight to
    the node-tau(i) weight plus the delta correction that keeps its norm
    (delta pairs with the level a_tau(i))."""
    n = x.n
    marks = (1,) + theta_coeffs(n)
    fundamental = [lambda0(n)]
    fundamental += [AffineWeight(varpi(n, i), marks[i], 0) for i in range(1, n + 1)]
    out = AffineWeight((0,) * n, 0, x.delta)
    for i in range(n + 1):
        li, lt = fundamental[i], fundamental[tau[i]]
        d = (form(li, li) - form(lt, lt)) / (2 * marks[tau[i]])
        out = out + pairing(i, x) * AffineWeight(lt.finite, lt.level, d)
    return out


def is_dominant(n, k):
    """Nonnegative coroot pairings of a rank-n key over the affine node set 0..n."""
    return all(weyl.key_pairing(n, i)(k) >= 0 for i in range(n + 1))


def lambda_keys_by_rotation(n, xi_keys):
    """The rotated factor weights by the reflection route: sigma^-1 applied
    j times to the j-th factor (j < n), the last factor as it is.  Raises
    VerificationError where an entry is not affine-dominant."""
    sigma_inv = inverse(words.sigma_word(n))
    keys = list(xi_keys)
    for j in range(1, n):
        for _ in range(j):
            keys[j - 1] = words.act(sigma_inv, keys[j - 1])
    for k in keys:
        if not is_dominant(n, k):
            raise VerificationError(f"non-dominant factor weight {k}")
    return tuple(keys)
