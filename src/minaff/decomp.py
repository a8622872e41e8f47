"""The affinization order: the paper's partial order on multiplicity tables.

A multiplicity table is a plain map {mu: m} from dominant weights to the
multiplicity of V(mu), as :func:`minaff.affinization.multiplicity_table`
and :func:`minaff.spbranch.sam_table` return it.  The tables of the
minimal affinizations of one V(lambda) are compared in this order.  The
dominance order comes from :mod:`minaff.weyl`; nothing else of the root
system is used here.
"""

from . import InputError
from .cartan import check_dominant, check_rank
from .weyl import _dominates


def _maximal_keys(n, keys):
    return [
        a for a in keys if not any(b != a and _dominates(n, b, a) for b in keys)
    ]


def _top_weight(n, table):
    """The unique maximal weight of the nonzero entries (a 0 reads as a missing
    weight), checked here: every key dominant, every multiplicity an int >= 0."""
    for mu, m in table.items():
        check_dominant(n, mu)
        if m.__class__ is not int or m < 0:
            raise InputError(f"multiplicity {m!r} at {mu} is not a nonnegative integer")
    tops = _maximal_keys(n, [mu for mu, m in table.items() if m])
    if len(tops) != 1:
        raise InputError(f"table has no unique top weight: {tops}")
    return tops[0]


def compare_affinization(n, a, b):
    """Partial order on two rank-n multiplicity tables sharing a top weight.

    One table precedes another when, at every dominant weight, either its
    multiplicity is no larger or some strictly higher weight has strictly
    smaller multiplicity.  Returns 'equal', 'leq', 'geq', or 'incomparable'.
    Refuses a rank below 4, and in either table a key that is not n
    nonnegative ints or a multiplicity that is not a nonnegative int.
    """
    check_rank(n)
    if _top_weight(n, a) != _top_weight(n, b):
        raise InputError("tables do not share a top weight")
    if a == b:
        return "equal"
    keys = set(a) | set(b)

    def leq(x, y):
        for mu in keys:
            if x.get(mu, 0) <= y.get(mu, 0):
                continue
            if any(
                _dominates(n, nu, mu) and nu != mu and x.get(nu, 0) < y.get(nu, 0)
                for nu in keys
            ):
                continue
            return False
        return True

    ab = leq(a, b)
    ba = leq(b, a)
    if ab and ba:
        return "equal"
    if ab:
        return "leq"
    if ba:
        return "geq"
    return "incomparable"
