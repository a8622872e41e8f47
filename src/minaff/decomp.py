"""The affinization order: the paper's partial order on multiplicity tables.

A multiplicity table is a plain map {mu: m} from dominant weights to the
multiplicity of V(mu), as :func:`minaff.affinization.multiplicity_table`
and :func:`minaff.spbranch.sam_table` return it.  The tables of the
minimal affinizations of one V(lambda) are compared in this order.  The
dominance order comes from :mod:`minaff.weyl`; nothing else of the root
system is used here.
"""

from .errors import InputError
from .weyl import dominates


def _maximal_keys(n, keys):
    return [
        a for a in keys if not any(b != a and dominates(n, b, a) for b in keys)
    ]


def _top_weight(n, table):
    if any(len(mu) != n for mu in table):
        raise InputError("rank mismatch")
    tops = _maximal_keys(n, list(table))
    if len(tops) != 1:
        raise InputError(f"table has no unique top weight: {tops}")
    return tops[0]


def compare_affinization(n, a, b):
    """Partial order on two rank-n multiplicity tables sharing a top weight.

    One table precedes another when, at every dominant weight, either its
    multiplicity is no larger or some strictly higher weight has strictly
    smaller multiplicity.  Returns 'equal', 'leq', 'geq', or 'incomparable'.
    """
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
                dominates(n, nu, mu) and nu != mu and x.get(nu, 0) < y.get(nu, 0)
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
