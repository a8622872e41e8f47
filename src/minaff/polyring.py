"""The full finite character of a regular minimal affinization, exact.

A character is a plain map {mu: c} from finite weights (int tuples of
length n) to nonzero integers, like every other character of the
library.  It is built from the nested polynomial of
:mod:`minaff.affinization` by the longest-element Demazure operator
(:func:`minaff.words.demazure_word_terms` on
:func:`minaff.words.longest_word`), the pass that the multiplicity tables
skip by straightening.  No table subcommand (``char``, ``decomp``, ``sam``)
loads this module, nor :mod:`minaff.words`, which it loads.
"""

from .affinization import _finite_parts, _pre_w0, _regular_input
from . import CharacterError, words


def character(n, lam, s):
    """Finite character {mu: c} of the minimal affinization.

    The nested polynomial with level and delta killed, finished with the
    longest-element operator: a finite operator, which never reads level
    or delta, so it runs after the projection.  Each of its steps is
    bounded by ``weyl.MAX_TERMS``, like the rotation passes before it.
    """
    lam, s = _regular_input(n, lam, s)
    ch = words.demazure_word_terms(words.longest_word(n), _finite_parts(n, _pre_w0(n, lam, s)))
    if ch.get(lam) != 1:
        raise CharacterError(f"leading coefficient at {lam} must be 1")
    return ch
