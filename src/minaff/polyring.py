"""The full finite character of a regular minimal affinization, exact.

A character is a plain map {mu: c} from finite weights (int tuples of
length n) to nonzero integers, like every other character of the
library.  It is built from the nested polynomial of
:mod:`minaff.affinization` by the longest-element Demazure operator
(:func:`minaff.weyl.demazure_word_terms`), the pass that the multiplicity
tables skip by straightening.  No table subcommand (``char``, ``decomp``,
``sam``) loads this module.
"""

from .affinization import _finite_parts, _pre_w0, _regular_input
from .errors import CharacterError
from . import weyl


def character(n, lam, s):
    """Finite character {mu: c} of the minimal affinization.

    The nested polynomial with level and delta killed, finished with the
    longest-element operator: a finite operator, which never reads level
    or delta, so it runs after the projection.  Each of its steps is
    bounded by ``weyl.MAX_TERMS``, like the rotation passes before it.
    """
    lam, s = _regular_input(n, lam, s)
    ch = weyl.demazure_word_terms(weyl.longest_word(n), _finite_parts(n, _pre_w0(n, lam, s)))
    if ch.get(lam) != 1:
        raise CharacterError(f"leading coefficient at {lam} must be 1")
    return ch
