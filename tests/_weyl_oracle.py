"""The affine root action, the root-by-root descent and the twist by norm
preservation, kept as a reference.

``weyl.reduce_word`` walks a regular weight into the dominant chamber; this
module keeps the older construction it replaced, which strips right descents
found by acting on the affine simple roots, so the two can be compared word
for word.  ``weyl.tau_on_weight`` permutes coroot pairings; this module keeps
the expansion over the fundamental weights that it replaced, each mapped to
its image with the delta correction that norm preservation forces.
"""

from fractions import Fraction

from minaff import InputError
from minaff.cartan import (
    AffineWeight,
    bilinear,
    fw_to_root,
    pairing,
    positive_roots,
    root_to_fw,
    root_unit,
    theta_coeffs,
    varpi,
)
from minaff.weyl import ExtendedWeylWord, act, compose, identity, inverse, simple

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
    return root_unit(n, i), 0


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
    out = identity(u.n)
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


def tau_on_weight_oracle(tau, x):
    """The twist by expansion: write ``x`` over the delta-free fundamental
    weights (node i at level a_i) and delta, and send the node-i weight to
    the node-tau(i) weight plus the delta correction that keeps its norm
    (delta pairs with the level a_tau(i))."""
    n = x.n
    marks = (1,) + theta_coeffs(n)
    fundamental = [AffineWeight((0,) * n, 1, 0)]
    fundamental += [AffineWeight(varpi(n, i), marks[i], 0) for i in range(1, n + 1)]
    out = AffineWeight((0,) * n, 0, x.delta)
    for i in range(n + 1):
        li, lt = fundamental[i], fundamental[tau[i]]
        d = (bilinear(li, li) - bilinear(lt, lt)) / (2 * marks[tau[i]])
        out = out + pairing(i, x) * AffineWeight(lt.finite, lt.level, d)
    return out
