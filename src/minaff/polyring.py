"""The full finite character of a regular minimal affinization, exact.

A character is a plain map {mu: c} from finite weights (int tuples of
length n) to nonzero integers, like every other character of the
library.  It is built from the nested polynomial of
:mod:`minaff.affinization` by the longest-element Demazure operator
(:func:`minaff.weyl.demazure_letters` on the letters of
:func:`_w0_letters`), the pass that the multiplicity tables skip by
straightening, in the frame of :mod:`minaff.weyl` and read back once.
No table subcommand (``char``, ``decomp``, ``sam``) loads this module.
"""

from .affinization import _pre_w0, _regular_input
from . import CharacterError, weyl


def _w0_letters(n):
    """A reduced word for the longest finite Weyl group element: w0 = w0^J
    w0_J, J the chain 1..n-1 (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.4).  For k = 1..n-1 the block n-k..n-2, closed by n when
    n-1-k is even and by n-1 otherwise, then (1..n-1)(1..n-2)...(1): the
    walk of -rho into the dominant chamber, reversed, letter for letter."""
    letters = []
    for k in range(1, n):
        letters += range(n - k, n - 1)
        letters.append(n - (n - 1 - k) % 2)
    for m in range(n - 1, 0, -1):
        letters += range(1, m + 1)
    return tuple(letters)


def character(n, lam, s):
    """Finite character {mu: c} of the minimal affinization.

    The nested polynomial, a map of finite weights, finished with the
    longest-element operator: a finite operator, which never reads level
    or delta, so it runs on that map as it stands.  Each of its steps is
    bounded by ``weyl.MAX_TERMS``, like the rotation passes before it.
    """
    lam, s = _regular_input(n, lam, s)
    ch = weyl.demazure_letters(n, _w0_letters(n), _pre_w0(n, lam, s))
    ch = {weyl.fw_from_eps2(n, d): c for d, c in ch.items()}
    if ch.get(lam) != 1:
        raise CharacterError(f"leading coefficient at {lam} must be 1")
    return ch
