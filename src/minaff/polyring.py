"""The full finite character of a regular minimal affinization, exact.

A character is a plain map {mu: c} from finite weights (int tuples of
length n) to nonzero integers, like every other character of the
library.  It is built from the nested polynomial of
:mod:`minaff.affinization` by the longest-element Demazure operator
(:func:`minaff.weyl.demazure_letters` on the letters of
:func:`_w0_letters`), the pass that the multiplicity tables skip by
straightening.  No table subcommand (``char``, ``decomp``, ``sam``) loads
this module.
"""

from .affinization import _pre_w0, _regular_input
from . import CharacterError, VerificationError, weyl


def reflect_key(i, k):
    """Simple reflection at node i: subtract the pairing times alpha_i, the
    end of the string :func:`minaff.weyl._demazure_terms` walks at node i."""
    n = len(k) - 2
    alpha = weyl.alpha_key(n, i)
    m = weyl.key_pairing(n, i)(k)
    return tuple(a - m * b for a, b in zip(k, alpha))


def _w0_letters(n):
    """A reduced word for the longest finite Weyl group element, at a
    checked rank: -rho walked up into the dominant chamber over the finite
    nodes, always at the smallest node with a negative pairing, the steps
    reversed.  The library's one chamber walk; ``verify`` reads it too."""
    k = (-1,) * n + (0, 0)
    pairings = [(i, weyl.key_pairing(n, i)) for i in range(1, n + 1)]
    steps = []
    while True:
        i = next((i for i, pair in pairings if pair(k) < 0), None)
        if i is None:
            break
        k = reflect_key(i, k)
        steps.append(i)
    if len(steps) != n * (n - 1):
        raise VerificationError(f"longest word has length {len(steps)}, expected {n * (n - 1)}")
    return tuple(reversed(steps))


def character(n, lam, s):
    """Finite character {mu: c} of the minimal affinization.

    The nested polynomial, a map of finite weights, finished with the
    longest-element operator: a finite operator, which never reads level
    or delta, so it runs on that map as it stands.  Each of its steps is
    bounded by ``weyl.MAX_TERMS``, like the rotation passes before it.
    """
    lam, s = _regular_input(n, lam, s)
    ch = weyl.demazure_letters(n, _w0_letters(n), _pre_w0(n, lam, s))
    if ch.get(lam) != 1:
        raise CharacterError(f"leading coefficient at {lam} must be 1")
    return ch
